//! Galerkin coarse operators on diagonals: `Pᵀ·A·P` from a level's
//! [`DiaMatrix`], with no CSR matrix on either side.
//!
//! Every coarse row is summed in [`galerkin_coarse`]'s order: the fine
//! nodes `k` of `Pᵀ`'s row ascending, `A`'s row `k` in ascending column
//! order (ascending offset) with its exact zeros skipped, `P`'s row `j`
//! ascending, each coarse entry from `+0.0`; the row's pattern is the
//! columns it touched.  So a product here is [`DiaMatrix::from_csr`] of
//! [`galerkin_coarse`] of the CSR form with the same `P`, bit for bit.
//!
//! **Once per key on a lattice.**  When `P` is the exact trilinear stencil
//! of two nested lattices (weights 1, ½, ¼ and ⅛, [`NestedLattices`]), a
//! coarse row is a function of its *key*: its position class (low, interior
//! or high in each direction) and the classes of the ≤ 27 fine rows of its
//! `Pᵀ` support, in support order.  Two rows of one key read fine rows of
//! equal bits at the same places relative to them — a support row of an
//! interior row is inside the fine lattice in that direction, one of a
//! boundary row sits on the same fine plane — and interpolate with the
//! same weights, so the product runs once per key and every other row of
//! the key copies it.  That holds as long as `A` couples only lattice
//! neighbours, which the first row of each key checks entry by entry
//! (every row of a key has the bits of that first one); a matrix that
//! fails it is multiplied row by row instead.  The key ids become the
//! coarse level's row classes, so the next product keys on them in turn.
//! A uniform box's pinned fine level has 34 exact `f64` classes, and each
//! Galerkin level of it a few dozen keys; a jittered box's coordinate `P`
//! is no stencil, and there every row is its own key.
//!
//! [`galerkin_coarse`]: super::galerkin_coarse

use super::{children, parents, Interpolation, NestedLattices};
use crate::dia::{value_position, DiaMatrix, BLOCK_ROWS, MAX_DIAGONALS};
use std::collections::HashMap;

/// The exact-bit row classes of `a`, one id per row: two rows share an id
/// exactly when every stored value of theirs, padding included, agrees in
/// every bit.  Ids count up from 0 in order of first appearance.
pub fn exact_row_classes(a: &DiaMatrix) -> Vec<u32> {
    let (n, nd) = (a.dim(), a.offsets().len());
    let mut ids: HashMap<Vec<u64>, u32> = HashMap::new();
    let mut classes = Vec::with_capacity(n);
    let (mut row, mut previous) = (vec![0u64; nd], Vec::new());
    for block_start in (0..n).step_by(BLOCK_ROWS) {
        let (block, len) = a.block(block_start);
        for i in 0..len {
            for (k, bits) in row.iter_mut().enumerate() {
                *bits = block[k * len + i].to_bits();
            }
            // Rows repeat in runs along the lattice's x-lines: most rows
            // are their predecessor's class.
            let id = match classes.last() {
                Some(&id) if row == previous => id,
                _ => match ids.get(&row) {
                    Some(&id) => id,
                    None => {
                        let id = ids.len() as u32;
                        ids.insert(row.clone(), id);
                        id
                    }
                },
            };
            classes.push(id);
            previous.clone_from(&row);
        }
    }
    classes
}

/// `Pᵀ·A·P` for the exact trilinear `P` from the box lattice of `coarse`
/// nodes per direction onto its nested lattice (`2·c − 1` nodes where the
/// coarse one has `c`), the lattice `a` lives on, computed once per key of
/// the coarse rows (see the module doc) under the fine row classes
/// `classes` ([`exact_row_classes`] for a first level, the key ids this
/// returned for the next).  Returns the coarse operator and its rows' key
/// ids, or `None` when the coarse operator has more than
/// [`MAX_DIAGONALS`] offsets.  The operator is [`DiaMatrix::from_csr`] of
/// [`galerkin_coarse`] of `a`'s CSR form with that `P`
/// ([`Interpolation::trilinear`]), bit for bit.
///
/// # Panics
/// Panics when `a` or `classes` does not have one row per fine node.
///
/// [`galerkin_coarse`]: super::galerkin_coarse
pub fn galerkin_on_lattices(
    a: &DiaMatrix,
    classes: &[u32],
    coarse: [usize; 3],
) -> Option<(DiaMatrix, Vec<u32>)> {
    let lattices = NestedLattices::over(coarse);
    assert_eq!(a.dim(), NestedLattices::nodes(lattices.fine), "one row per fine node");
    assert_eq!(classes.len(), a.dim(), "one class per row");
    product(a, &Prolongation::Lattice(lattices), Some(classes))
}

/// `Pᵀ·A·P` for a `P` given entry by entry, every row its own key:
/// [`DiaMatrix::from_csr`] of [`galerkin_coarse`] of `a`'s CSR form, bit
/// for bit, or `None` when the product has more than [`MAX_DIAGONALS`]
/// offsets (it stops at the row that shows it).
///
/// [`galerkin_coarse`]: super::galerkin_coarse
pub(super) fn galerkin_on_diagonals(a: &DiaMatrix, p: &Interpolation) -> Option<DiaMatrix> {
    assert_eq!(a.dim(), p.fine_nodes, "one row per fine node");
    product(a, &Prolongation::Csr(p), None).map(|(coarse, _)| coarse)
}

/// The two forms a `P` reaches the product in.
enum Prolongation<'a> {
    /// The exact trilinear stencil, entries generated from lattice indices.
    Lattice(NestedLattices),
    /// Stored entries.
    Csr(&'a Interpolation),
}

impl Prolongation<'_> {
    fn coarse_nodes(&self) -> usize {
        match self {
            Prolongation::Lattice(l) => NestedLattices::nodes(l.coarse),
            Prolongation::Csr(p) => p.coarse_nodes,
        }
    }

    /// Row `c` of `Pᵀ` — fine node and weight, ascending fine node — into
    /// `out`.
    fn children(&self, c: usize, out: &mut Vec<(usize, f64)>) {
        out.clear();
        match self {
            Prolongation::Lattice(l) => {
                let ([fx, fy, fz], [i, j, k]) = (l.fine, position(c, l.coarse));
                for (fk, wk) in children(k, fz) {
                    for (fj, wj) in children(j, fy) {
                        for (fi, wi) in children(i, fx) {
                            out.push((fi + fx * (fj + fy * fk), wi * wj * wk));
                        }
                    }
                }
            }
            Prolongation::Csr(p) => {
                let entries = p.t_row_ptr[c]..p.t_row_ptr[c + 1];
                out.extend(
                    p.t_col_idx[entries.clone()]
                        .iter()
                        .copied()
                        .zip(p.t_weights[entries].iter().copied()),
                );
            }
        }
    }

    /// Row `f` of `P` — coarse node and weight, ascending coarse node — into
    /// `out`.
    fn parents(&self, f: usize, out: &mut Vec<(usize, f64)>) {
        match self {
            Prolongation::Lattice(l) => stencil_row(l, f, out),
            Prolongation::Csr(p) => {
                out.clear();
                let entries = p.row_ptr[f]..p.row_ptr[f + 1];
                out.extend(
                    p.col_idx[entries.clone()]
                        .iter()
                        .copied()
                        .zip(p.weights[entries].iter().copied()),
                );
            }
        }
    }
}

/// Row `f` of the exact trilinear `P` of `lattices` — coarse node and
/// weight, ascending coarse node — into `out`.
pub(super) fn stencil_row(lattices: &NestedLattices, f: usize, out: &mut Vec<(usize, f64)>) {
    out.clear();
    let ([cx, cy, _], [i, j, k]) = (lattices.coarse, position(f, lattices.fine));
    for (ck, wk) in parents(k) {
        for (cj, wj) in parents(j) {
            for (ci, wi) in parents(i) {
                out.push((ci + cx * (cj + cy * ck), wi * wj * wk));
            }
        }
    }
}

/// The lattice position `[i, j, k]` of node `node` of a box lattice of
/// `points` nodes per direction (`x` fastest).
fn position(node: usize, points: [usize; 3]) -> [usize; 3] {
    let [px, py, _] = points;
    [node % px, (node / px) % py, node / (px * py)]
}

impl NestedLattices {
    /// The coarse lattice of `coarse` nodes per direction and the lattice
    /// it is every other node of.
    pub(super) fn over(coarse: [usize; 3]) -> NestedLattices {
        assert!(coarse.iter().all(|&c| c >= 1), "a lattice has a node per direction");
        NestedLattices { fine: coarse.map(|c| 2 * c - 1), coarse }
    }

    /// The position class of coarse node `c`: per direction low, interior
    /// or high (a one-node direction is low), as one number below 27.
    fn position_class(&self, c: usize) -> u32 {
        let side = |at: usize, points: usize| match at {
            0 => 0,
            _ if at + 1 == points => 2,
            _ => 1,
        };
        let [i, j, k] = position(c, self.coarse);
        let [cx, cy, cz] = self.coarse;
        side(i, cx) + 3 * (side(j, cy) + 3 * side(k, cz))
    }

    /// Whether fine nodes `a` and `b` are lattice neighbours: at most one
    /// node apart in every direction.
    fn neighbours(&self, a: usize, b: usize) -> bool {
        let (a, b) = (position(a, self.fine), position(b, self.fine));
        (0..3).all(|d| a[d].abs_diff(b[d]) <= 1)
    }
}

/// One coarse row at a time into a dense accumulator (Gustavson), in
/// [`galerkin_coarse`](super::galerkin_coarse)'s order.
struct RowProduct {
    // `owner[cj] == ci` marks `acc[cj]` as live for row `ci`.
    owner: Vec<usize>,
    acc: Vec<f64>,
    touched: Vec<usize>,
    parents: Vec<(usize, f64)>,
}

impl RowProduct {
    fn new(coarse: usize) -> RowProduct {
        RowProduct {
            owner: vec![usize::MAX; coarse],
            acc: vec![0.0; coarse],
            touched: Vec::new(),
            parents: Vec::new(),
        }
    }

    /// Row `ci` of `Pᵀ·A·P`, its `Pᵀ` row being `support`, as
    /// `(cj − ci, value)` in ascending order into `out`.  With `lattice`,
    /// `false` (and no row) when a nonzero of `A` it reads couples two fine
    /// nodes that are no lattice neighbours.
    fn row(
        &mut self,
        a: &DiaMatrix,
        p: &Prolongation<'_>,
        ci: usize,
        support: &[(usize, f64)],
        lattice: Option<&NestedLattices>,
        out: &mut Vec<(isize, f64)>,
    ) -> bool {
        let n = a.dim() as isize;
        self.touched.clear();
        for &(k, wi) in support {
            for (kk, &d) in a.offsets().iter().enumerate() {
                let akj = a.entry(kk, k);
                if akj == 0.0 {
                    continue;
                }
                let j = k as isize + d;
                let inside = (0..n).contains(&j);
                if lattice.is_some_and(|l| !inside || !l.neighbours(k, j as usize)) {
                    return false;
                }
                if !inside {
                    // Not an entry: the products never read it either.
                    continue;
                }
                let wa = wi * akj;
                p.parents(j as usize, &mut self.parents);
                for &(cj, wl) in &self.parents {
                    if self.owner[cj] != ci {
                        self.owner[cj] = ci;
                        self.acc[cj] = 0.0;
                        self.touched.push(cj);
                    }
                    self.acc[cj] += wa * wl;
                }
            }
        }
        self.touched.sort_unstable();
        out.clear();
        out.extend(self.touched.iter().map(|&cj| (cj as isize - ci as isize, self.acc[cj])));
        true
    }
}

/// `Pᵀ·A·P` and the coarse rows' key ids: once per key with `classes` on a
/// lattice `P`, row by row otherwise (or when `A` is no lattice stencil).
fn product(
    a: &DiaMatrix,
    p: &Prolongation<'_>,
    classes: Option<&[u32]>,
) -> Option<(DiaMatrix, Vec<u32>)> {
    let lattice = match (p, classes) {
        (Prolongation::Lattice(l), Some(_)) => Some(l),
        _ => None,
    };
    let nc = p.coarse_nodes();
    let mut rows = RowProduct::new(nc);
    // The distinct coarse rows, by key id, and each row's key id.
    let mut keyed: Vec<Vec<(isize, f64)>> = Vec::new();
    let mut keys = Vec::with_capacity(nc);
    let mut ids: HashMap<Vec<u32>, u32> = HashMap::new();
    let (mut key, mut previous) = (Vec::new(), Vec::new());
    let mut offsets: Vec<isize> = Vec::with_capacity(MAX_DIAGONALS + 1);
    let (mut support, mut entries) = (Vec::new(), Vec::new());
    for ci in 0..nc {
        p.children(ci, &mut support);
        if let (Some(l), Some(classes)) = (lattice, classes) {
            key.clear();
            key.push(l.position_class(ci));
            key.extend(support.iter().map(|&(k, _)| classes[k]));
            let known = match keys.last() {
                Some(&id) if key == previous => Some(id),
                _ => ids.get(&key).copied(),
            };
            std::mem::swap(&mut key, &mut previous);
            if let Some(id) = known {
                keys.push(id);
                continue;
            }
            if !rows.row(a, p, ci, &support, lattice, &mut entries) {
                return product(a, p, None);
            }
            ids.insert(previous.clone(), keyed.len() as u32);
        } else {
            rows.row(a, p, ci, &support, None, &mut entries);
        }
        for &(d, _) in &entries {
            if let Err(at) = offsets.binary_search(&d) {
                offsets.insert(at, d);
            }
        }
        if offsets.len() > MAX_DIAGONALS {
            return None;
        }
        keys.push(keyed.len() as u32);
        keyed.push(std::mem::take(&mut entries));
    }
    // Each distinct row's entries as (diagonal, value), then every row
    // written from its key's.
    let keyed: Vec<Vec<(usize, f64)>> = keyed
        .into_iter()
        .map(|row| {
            row.into_iter().map(|(d, v)| (offsets.binary_search(&d).expect("a found offset"), v))
        })
        .map(Iterator::collect)
        .collect();
    let nd = offsets.len();
    let mut coarse = DiaMatrix::zeros(nc, offsets);
    let values = coarse.values_mut();
    for (ci, &id) in keys.iter().enumerate() {
        for &(k, v) in &keyed[id as usize] {
            values[value_position(nc, nd, k, ci)] = v;
        }
    }
    Some((coarse, keys))
}
