//! Operators of an unjittered generator box as position-class stencils: the
//! weak gradient/divergence tensor `C[a][b][i] = ∫ N_a ∂N_b/∂x_i dΩ`, and at
//! set-up the stiffness `K`, the consistent mass `M` and the lumped mass.
//!
//! Every element of such a box is the same hexahedron, so a node's row of
//! any of them depends only on which of its neighbours exist: per direction
//! a node is on the low face (class 0), inside (1) or on the high face (2),
//! and the `3³ = 27` classes give at most 27 distinct rows of at most 27
//! taps.  [`ClassStencils::new`] takes one reference element's entries
//! `(a, b)` and adds them into each class's taps element by element in the
//! mesh order of the integrating loop of
//! [`PressureOperators`](crate::PressureOperators), so a tap is the sum a
//! coefficient of that loop would be if every element had the reference
//! element's bits.  The tap payload is the caller's: `C[a][b][·]` for the
//! gradient, `K_ab`, `M_ab` and the lumped mass for the set-up.
//!
//! The gradient and divergence stay stencils: a pass walks its rows as
//! x-line runs of one class — the interior run of a line is `nx − 1`
//! consecutive rows sharing one stencil — and computes windows of
//! [`WINDOW`] rows at once: the taps are broadcast, the rows are the lanes.
//! Every row adds its taps in ascending column order from `+0.0`, the order
//! of the per-entry row product, so a window's width moves no bit and
//! neither does where a team's row share cuts a line.  `K` and `M` are
//! written out once, run by run, onto the diagonals the per-step passes
//! read ([`PressureOperators`](crate::PressureOperators) does that).

use crate::{NDIME, PNODE};
use lv_mesh::BoxLattice;
use std::ops::Range;

/// Taps of a full stencil, and position classes of a box: `3³`.
const TAPS: usize = 27;

/// Rows one window computes at once.
const WINDOW: usize = 8;

/// Most rows one block kernel call computes.
const BLOCK: usize = 64;

/// Lattice offset of each local node of a generated hexahedron, in the
/// generator's connectivity order (bottom face counter-clockwise, then top).
pub(crate) const CORNERS: [[usize; NDIME]; PNODE] =
    [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]];

/// One tap of a class stencil: the column offset `b − a` and its payload,
/// `C[a][b][·]` for the gradient.
pub(crate) type Tap<P = [f64; NDIME]> = (isize, P);

/// The taps of one position class, in ascending column order.
#[derive(Debug, Clone, Copy)]
struct ClassTaps<P> {
    len: usize,
    taps: [Tap<P>; TAPS],
}

/// An operator of an unjittered generator box as the stencils of its
/// position classes (see the module docs); `C` by default.
#[derive(Debug, Clone)]
pub(crate) struct ClassStencils<P = [f64; NDIME]> {
    /// Nodes per direction of the lattice.
    points: [usize; NDIME],
    /// Per class `9·cz + 3·cy + cx`; classes the box does not hold stay
    /// empty.
    classes: [ClassTaps<P>; TAPS],
}

/// The class of lattice index `i` of `points` nodes in one direction.
#[inline(always)]
fn class_of(i: usize, points: usize) -> usize {
    if i == 0 {
        0
    } else if i + 1 == points {
        2
    } else {
        1
    }
}

/// Element offsets (relative to the node, in mesh order) around a node of
/// class `class` in one direction, and the neighbour offsets it reaches.
fn reach(class: usize) -> (&'static [isize], &'static [isize]) {
    match class {
        0 => (&[0], &[0, 1]),
        1 => (&[-1, 0], &[-1, 0, 1]),
        _ => (&[-1], &[-1, 0]),
    }
}

impl<P: Copy + Default> ClassStencils<P> {
    /// The stencils of every class `lattice` holds: `add(tap, a, b)` adds
    /// entry `(a, b)` of one element (local nodes in [`CORNERS`] order) to
    /// a tap's sum, which starts at `P::default()`.
    pub(crate) fn new(lattice: &BoxLattice, mut add: impl FnMut(&mut P, usize, usize)) -> Self {
        let points = lattice.points();
        let local = |corner: [usize; NDIME]| {
            CORNERS.iter().position(|&c| c == corner).expect("a hexahedron has every corner")
        };
        let empty = ClassTaps { len: 0, taps: [(0, P::default()); TAPS] };
        let mut classes = [empty; TAPS];
        for (class, stencil) in classes.iter_mut().enumerate() {
            let c = [class % 3, class / 3 % 3, class / 9];
            // A class needs an interior index in every direction it is
            // interior in: a direction of one element has no class 1.
            if (0..NDIME).any(|d| c[d] == 1 && points[d] < 3) {
                continue;
            }
            let [(ex, nx), (ey, ny), (ez, nz)] = c.map(reach);
            // Sums per full tap `9·(dz+1) + 3·(dy+1) + (dx+1)`, element by
            // element in mesh order (k slowest, i fastest).
            let mut sums = [P::default(); TAPS];
            for &oz in ez {
                for &oy in ey {
                    for &ox in ex {
                        let offset = [ox, oy, oz];
                        let a = local(offset.map(|o| (-o) as usize));
                        for (b, corner) in CORNERS.iter().enumerate() {
                            let d =
                                [0, 1, 2].map(|i| (offset[i] + corner[i] as isize + 1) as usize);
                            add(&mut sums[9 * d[2] + 3 * d[1] + d[0]], a, b);
                        }
                    }
                }
            }
            for &dz in nz {
                for &dy in ny {
                    for &dx in nx {
                        let tap = (9 * (dz + 1) + 3 * (dy + 1) + (dx + 1)) as usize;
                        let offset = (dz * points[1] as isize + dy) * points[0] as isize + dx;
                        stencil.taps[stencil.len] = (offset, sums[tap]);
                        stencil.len += 1;
                    }
                }
            }
        }
        ClassStencils { points, classes }
    }

    /// Position classes the box holds: 27 from two elements a side.
    pub(crate) fn num_classes(&self) -> usize {
        self.classes.iter().filter(|c| c.len > 0).count()
    }

    /// Bytes of the resident table.
    pub(crate) fn table_bytes(&self) -> usize {
        std::mem::size_of_val(&self.classes)
    }

    /// Row count of the lattice.
    fn num_rows(&self) -> usize {
        self.points.iter().product()
    }

    /// `visit(run, taps)` for every run of consecutive rows of one class
    /// within `rows`, in row order: each node on an x-face is a run of its
    /// own, the rows between them one run per line, cut at `rows`' ends and
    /// into [`BLOCK`]s.
    #[inline(always)]
    pub(crate) fn for_each_run(
        &self,
        rows: Range<usize>,
        mut visit: impl FnMut(Range<usize>, &[Tap<P>]),
    ) {
        assert!(rows.end <= self.num_rows());
        let [px, py, pz] = self.points;
        let mut row = rows.start;
        while row < rows.end {
            let (i, line) = (row % px, row / px);
            let (cx, end) = match class_of(i, px) {
                1 => (1, row - i + px - 1),
                cx => (cx, row + 1),
            };
            let class = 9 * class_of(line / py, pz) + 3 * class_of(line % py, py) + cx;
            let stencil = &self.classes[class];
            let end = end.min(rows.end).min(row + BLOCK);
            visit(row..end, &stencil.taps[..stencil.len]);
            row = end;
        }
    }
}

impl ClassStencils {
    /// `C` from the tensor of one element of the box,
    /// `element[a][i][b] = C_e[a][b][i]` (local nodes in [`CORNERS`] order).
    pub(crate) fn gradient(lattice: &BoxLattice, element: &[[[f64; PNODE]; NDIME]; PNODE]) -> Self {
        ClassStencils::new(lattice, |tap: &mut [f64; NDIME], a, b| {
            for (t, el_ai) in tap.iter_mut().zip(&element[a]) {
                *t += el_ai[b];
            }
        })
    }

    /// `apply(a, g_a)` with `g_a = Σ_b C[a][b][·]·scalar_b` for every row
    /// `a` of `rows`, in row order.
    #[inline(always)]
    pub(crate) fn gradient_rows(
        &self,
        scalar: &[f64],
        rows: Range<usize>,
        mut apply: impl FnMut(usize, [f64; NDIME]),
    ) {
        assert_eq!(scalar.len(), self.num_rows());
        let mut block = [[0.0f64; BLOCK]; NDIME];
        self.for_each_run(rows, |run, taps| {
            gradient_block(taps, scalar, run.clone(), &mut block);
            let [gx, gy, gz] = &block;
            for (r, a) in run.enumerate() {
                apply(a, [gx[r], gy[r], gz[r]]);
            }
        });
    }

    /// `apply(a, d_a)` with `d_a = Σ_b Σ_i C[a][b][i]·vel_{b,i}` for every row
    /// `a` of `rows`, in row order.
    #[inline(always)]
    pub(crate) fn divergence_rows(
        &self,
        vel: &[f64],
        rows: Range<usize>,
        mut apply: impl FnMut(usize, f64),
    ) {
        assert_eq!(vel.len(), NDIME * self.num_rows());
        let mut block = [0.0f64; BLOCK];
        self.for_each_run(rows, |run, taps| {
            divergence_block(taps, vel, run.clone(), &mut block);
            for (a, d) in run.zip(&block) {
                apply(a, *d);
            }
        });
    }

    /// `C` per stored entry of a node graph in CSR form, `coef[NDIME*k + i]`
    /// — what the per-entry path would hold with these coefficients.
    #[cfg(test)]
    pub(crate) fn expand(&self, row_ptr: &[usize], col_idx: &[usize]) -> Vec<f64> {
        let mut coef = vec![0.0; NDIME * col_idx.len()];
        for a in 0..row_ptr.len() - 1 {
            self.for_each_run(a..a + 1, |_, taps| {
                let entries = row_ptr[a]..row_ptr[a + 1];
                assert_eq!(entries.len(), taps.len(), "row {a}");
                for (k, &(offset, c)) in entries.zip(taps) {
                    assert_eq!(col_idx[k], a.wrapping_add_signed(offset), "row {a}");
                    coef[NDIME * k..NDIME * k + NDIME].copy_from_slice(&c);
                }
            });
        }
        coef
    }
}

/// Row offsets of the windows that cover a block of `len ≥ WINDOW` rows:
/// whole windows, the last one moved back to end at the block's end (its
/// first rows computed twice, to the same bits).
#[inline(always)]
fn window_starts(len: usize) -> impl Iterator<Item = usize> {
    (0..len).step_by(WINDOW).map(move |r| r.min(len - WINDOW))
}

#[inline(always)]
fn gradient_block_body(
    taps: &[Tap],
    scalar: &[f64],
    run: Range<usize>,
    out: &mut [[f64; BLOCK]; NDIME],
) {
    if run.len() < WINDOW {
        for (r, row) in run.enumerate() {
            let g = gradient_window::<1>(taps, scalar, row);
            for (out, g) in out.iter_mut().zip(g) {
                out[r] = g[0];
            }
        }
        return;
    }
    for r in window_starts(run.len()) {
        let g = gradient_window::<WINDOW>(taps, scalar, run.start + r);
        for (out, g) in out.iter_mut().zip(g) {
            out[r..r + WINDOW].copy_from_slice(&g);
        }
    }
}

lv_runtime::multiversion! {
    /// `out[i][r] = Σ_b C[a][b][i]·scalar_b` for the rows `a = run.start + r`
    /// of one run of at most [`BLOCK`] rows, `taps` its class's stencil.
    fn gradient_block(
        taps: &[Tap],
        scalar: &[f64],
        run: Range<usize>,
        out: &mut [[f64; BLOCK]; NDIME],
    ) = gradient_block_body, at gradient_block_at;
}

#[inline(always)]
fn divergence_block_body(taps: &[Tap], vel: &[f64], run: Range<usize>, out: &mut [f64; BLOCK]) {
    if run.len() < WINDOW {
        for (r, row) in run.enumerate() {
            out[r] = divergence_window::<1>(taps, vel, row)[0];
        }
        return;
    }
    for r in window_starts(run.len()) {
        out[r..r + WINDOW].copy_from_slice(&divergence_window::<WINDOW>(taps, vel, run.start + r));
    }
}

lv_runtime::multiversion! {
    /// `out[r] = Σ_b Σ_i C[a][b][i]·vel_{b,i}` for the rows `a = run.start + r`
    /// of one run of at most [`BLOCK`] rows, `taps` its class's stencil.
    fn divergence_block(taps: &[Tap], vel: &[f64], run: Range<usize>, out: &mut [f64; BLOCK])
        = divergence_block_body, at divergence_block_at;
}

/// The weak gradient of `W` consecutive rows of one class, `g[i][r]`.
#[inline(always)]
fn gradient_window<const W: usize>(taps: &[Tap], scalar: &[f64], row: usize) -> [[f64; W]; NDIME] {
    let [mut gx, mut gy, mut gz] = [[0.0f64; W]; NDIME];
    for &(offset, c) in taps {
        // A wrapped index is out of bounds like any other.
        let ps = &scalar[row.wrapping_add_signed(offset)..][..W];
        for r in 0..W {
            gx[r] += c[0] * ps[r];
            gy[r] += c[1] * ps[r];
            gz[r] += c[2] * ps[r];
        }
    }
    [gx, gy, gz]
}

/// The weak divergence of `W` consecutive rows of one class.
#[inline(always)]
fn divergence_window<const W: usize>(taps: &[Tap], vel: &[f64], row: usize) -> [f64; W] {
    let mut d = [0.0f64; W];
    for &(offset, c) in taps {
        let vs = &vel[NDIME * row.wrapping_add_signed(offset)..][..NDIME * W];
        for (d, v) in d.iter_mut().zip(vs.chunks_exact(NDIME)) {
            *d += c[0] * v[0] + c[1] * v[1] + c[2] * v[2];
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_runtime::Lanes;

    /// The stencils of a box of `dims` elements from a made-up element
    /// tensor: every tap distinct, so a tap read from the wrong class or
    /// offset shows.
    fn stencils(dims: [usize; NDIME]) -> ClassStencils {
        let lattice = BoxLattice::new([0.0; NDIME], [1.0; NDIME], dims);
        let element = std::array::from_fn(|a| {
            std::array::from_fn(|i| {
                std::array::from_fn(|b| ((PNODE * NDIME * a + PNODE * i + b) as f64 * 0.37).sin())
            })
        });
        ClassStencils::gradient(&lattice, &element)
    }

    #[test]
    fn wide_clones_and_blocks_are_the_row_sums_on_every_cut() {
        let widths = match Lanes::selected() {
            Lanes::Baseline => {
                println!("note: this host selects no wide lanes; only the baseline bodies run");
                vec![Lanes::Baseline]
            }
            wide => vec![Lanes::Baseline, wide],
        };
        // 70 × 3 × 2: interior x-runs of 69 rows, a block of 64 and a
        // narrow one of 5; 9³: runs of 8, exactly a window; 1 × 2 × 3: no
        // interior class along x, 18 classes in all.
        for (dims, classes) in [([70, 3, 2], 27), ([9, 9, 9], 27), ([1, 2, 3], 18)] {
            let stencils = stencils(dims);
            assert_eq!(stencils.num_classes(), classes, "{dims:?}");
            let n = stencils.num_rows();
            let scalar: Vec<f64> = (0..n).map(|a| (a as f64 * 0.91).cos()).collect();
            let vel: Vec<f64> = (0..NDIME * n).map(|k| (k as f64 * 0.53).sin()).collect();
            // The oracle: each row on its own, taps in order from `+0.0`.
            let (mut grad, mut div) = (Vec::new(), Vec::new());
            for a in 0..n {
                stencils.for_each_run(a..a + 1, |_, taps| {
                    let (mut g, mut d) = ([0.0f64; NDIME], 0.0f64);
                    for &(offset, c) in taps {
                        let b = a.wrapping_add_signed(offset);
                        let v = &vel[NDIME * b..NDIME * b + NDIME];
                        for i in 0..NDIME {
                            g[i] += c[i] * scalar[b];
                        }
                        d += c[0] * v[0] + c[1] * v[1] + c[2] * v[2];
                    }
                    grad.push(g.map(f64::to_bits));
                    div.push(d.to_bits());
                });
            }
            for &lanes in &widths {
                let mut g = [[f64::NAN; BLOCK]; NDIME];
                let mut d = [f64::NAN; BLOCK];
                stencils.for_each_run(0..n, |run, taps| {
                    assert!(run.len() <= BLOCK);
                    gradient_block_at(lanes, taps, &scalar, run.clone(), &mut g);
                    divergence_block_at(lanes, taps, &vel, run.clone(), &mut d);
                    for (r, a) in run.enumerate() {
                        assert_eq!([g[0][r], g[1][r], g[2][r]].map(f64::to_bits), grad[a], "{a}");
                        assert_eq!(d[r].to_bits(), div[a], "{dims:?} {lanes}: row {a}");
                    }
                });
            }
            for cut in 0..=n {
                let (mut g, mut d) = (vec![None; n], vec![None; n]);
                for rows in [0..cut, cut..n] {
                    stencils.gradient_rows(&scalar, rows.clone(), |a, v| {
                        g[a] = Some(v.map(f64::to_bits))
                    });
                    stencils.divergence_rows(&vel, rows, |a, v| d[a] = Some(v.to_bits()));
                }
                assert!(
                    g.iter().zip(&grad).all(|(g, want)| *g == Some(*want)),
                    "{dims:?}: cut {cut}"
                );
                assert!(
                    d.iter().zip(&div).all(|(d, want)| *d == Some(*want)),
                    "{dims:?}: cut {cut}"
                );
            }
        }
    }
}
