//! Nested box lattices — the geometric-multigrid hierarchy of the
//! structured generators.
//!
//! The structured meshes ([`crate::BoxMeshBuilder`], the channel builder,
//! and every scenario mesh built from them) are tensor-product lattices:
//! `dims[d]` equal elements per direction, nodes ordered `i`-fastest /
//! `k`-slowest.  Halving every direction yields a *nested* coarse lattice —
//! 16³ ⊃ 8³ ⊃ 4³ ⊃ 2³ — which is exactly the hierarchy a geometric
//! multigrid solve wants.  This module provides:
//!
//! * [`BoxLattice`] — the lattice geometry, attached to the mesh by the
//!   generator that built it ([`crate::Mesh::lattice`]) and
//!   [coarsened](BoxLattice::coarsened) by halving;
//! * [`trilinear_stencil`] — per-fine-node trilinear interpolation weights
//!   against a coarse lattice, as raw CSR-style rows.  The solver crate
//!   wraps them into its prolongation operator; keeping only plain data
//!   here leaves `lv-mesh` free of solver dependencies.
//!
//! A mesh built from raw arrays or renumbered carries no lattice: it has
//! no hierarchy, and a time step refuses it.

use serde::{Deserialize, Serialize};

/// An axis-aligned lattice of `dims[d]` equal elements per direction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxLattice {
    /// Minimum corner of the box.
    pub origin: [f64; 3],
    /// Physical extent per direction.
    pub lengths: [f64; 3],
    /// Element counts per direction (nodes are `dims[d] + 1` per direction).
    pub dims: [usize; 3],
    /// Whether the generator nudged the interior nodes off the lattice
    /// ([`crate::BoxMeshBuilder::with_jitter`]): the node order and the
    /// boundary still follow the lattice, the element geometry does not.
    pub jittered: bool,
}

impl BoxLattice {
    /// Creates an unjittered lattice.
    ///
    /// # Panics
    /// Panics on zero element counts or non-positive lengths.
    pub fn new(origin: [f64; 3], lengths: [f64; 3], dims: [usize; 3]) -> Self {
        assert!(dims.iter().all(|&d| d > 0), "element counts must be positive");
        assert!(lengths.iter().all(|&l| l > 0.0), "lengths must be positive");
        BoxLattice { origin, lengths, dims, jittered: false }
    }

    /// Nodes per direction.
    pub fn points(&self) -> [usize; 3] {
        [self.dims[0] + 1, self.dims[1] + 1, self.dims[2] + 1]
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        let p = self.points();
        p[0] * p[1] * p[2]
    }

    /// Element edge length per direction.
    pub fn spacing(&self) -> [f64; 3] {
        [0, 1, 2].map(|d| self.lengths[d] / self.dims[d] as f64)
    }

    /// Total element count.
    pub fn num_elements(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Node id of lattice point `(i, j, k)` — the generator ordering:
    /// `i` fastest, `k` slowest.
    pub fn node_index(&self, i: usize, j: usize, k: usize) -> usize {
        let p = self.points();
        debug_assert!(i < p[0] && j < p[1] && k < p[2]);
        (k * p[1] + j) * p[0] + i
    }

    /// Physical position of lattice point `(i, j, k)`.
    pub fn node_position(&self, i: usize, j: usize, k: usize) -> [f64; 3] {
        let f = |d: usize, idx: usize| {
            self.origin[d] + self.lengths[d] * (idx as f64 / self.dims[d] as f64)
        };
        [f(0, i), f(1, j), f(2, k)]
    }

    /// All node positions in lattice (node-id) order.
    pub fn node_positions(&self) -> Vec<[f64; 3]> {
        let p = self.points();
        let mut out = Vec::with_capacity(self.num_nodes());
        for k in 0..p[2] {
            for j in 0..p[1] {
                for i in 0..p[0] {
                    out.push(self.node_position(i, j, k));
                }
            }
        }
        out
    }

    /// The next-coarser nested lattice (every direction halved), or `None`
    /// when any direction has an odd element count.
    pub fn coarsened(&self) -> Option<BoxLattice> {
        if self.dims.iter().any(|&d| d < 2 || d % 2 != 0) {
            return None;
        }
        Some(BoxLattice { dims: self.dims.map(|d| d / 2), ..*self })
    }

    /// The coarsening chain starting at `self` (finest first): halve while
    /// every direction stays even and the lattice still holds more than
    /// `max_coarse_nodes` nodes.  Always non-empty.
    pub fn coarsening_chain(&self, max_coarse_nodes: usize) -> Vec<BoxLattice> {
        let mut chain = vec![*self];
        while chain.last().unwrap().num_nodes() > max_coarse_nodes {
            match chain.last().unwrap().coarsened() {
                Some(coarse) => chain.push(coarse),
                None => break,
            }
        }
        chain
    }
}

/// Trilinear interpolation rows from a coarse lattice to arbitrary fine
/// points, in CSR layout (`row_ptr` over fine points; columns are coarse
/// node ids, strictly increasing within a row).
///
/// Raw data on purpose: the solver crate owns the operator type.
#[derive(Debug, Clone)]
pub struct TrilinearStencil {
    /// Coarse lattice node count (the column dimension).
    pub coarse_nodes: usize,
    /// Row starts per fine point, plus the terminator.
    pub row_ptr: Vec<usize>,
    /// Coarse node ids.
    pub col_idx: Vec<usize>,
    /// Trilinear weights (each row sums to 1 up to dropped zeros).
    pub weights: Vec<f64>,
}

/// Builds the trilinear stencil of every fine point against `coarse`.
///
/// Each point is located in its (clamped) containing coarse cell; the local
/// coordinates are *not* clamped, so points slightly outside the box — or a
/// jittered node inside a different cell — extrapolate linearly, which
/// preserves exactness on linear functions.  Weights below `1e-12` are
/// dropped: a fine point coinciding with a coarse node keeps the single
/// weight 1.0 (the nested-lattice case).
pub fn trilinear_stencil(coarse: &BoxLattice, fine_points: &[[f64; 3]]) -> TrilinearStencil {
    let mut row_ptr = Vec::with_capacity(fine_points.len() + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::new();
    let mut weights = Vec::new();
    let spacing = coarse.spacing();
    for p in fine_points {
        let mut cell = [0usize; 3];
        let mut xi = [0.0f64; 3];
        for d in 0..3 {
            let u = (p[d] - coarse.origin[d]) / spacing[d];
            let c = (u.floor() as isize).clamp(0, coarse.dims[d] as isize - 1) as usize;
            cell[d] = c;
            xi[d] = u - c as f64;
        }
        // Corner loop ordered k-major so the node ids come out strictly
        // increasing (the generator ordering is i-fastest).
        for dk in 0..2usize {
            for dj in 0..2usize {
                for di in 0..2usize {
                    let w = |frac: f64, side: usize| if side == 1 { frac } else { 1.0 - frac };
                    let weight = w(xi[0], di) * w(xi[1], dj) * w(xi[2], dk);
                    if weight.abs() > 1e-12 {
                        col_idx.push(coarse.node_index(cell[0] + di, cell[1] + dj, cell[2] + dk));
                        weights.push(weight);
                    }
                }
            }
        }
        row_ptr.push(col_idx.len());
    }
    TrilinearStencil { coarse_nodes: coarse.num_nodes(), row_ptr, col_idx, weights }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Mesh;
    use crate::structured::BoxMeshBuilder;

    /// Every generator attaches the lattice it built — the bounding box with
    /// the builder's dims, bit for bit, node `n` at lattice point `n` — and a
    /// renumbered or raw-array mesh carries none.
    #[test]
    fn generators_attach_their_lattice_and_nothing_else_does() {
        use crate::geometry::Point3;
        use crate::renumber::NodePermutation;
        use crate::structured::ChannelMeshBuilder;
        // (dims, mesh, unjittered): the meshes of the driver's scenario
        // registry (cavity, channel, and the all-walls box of Taylor–Green
        // and the shear layer), then a jittered and an offset box.
        let mut cases = Vec::new();
        for n in [8, 12, 16] {
            cases.push(([n; 3], BoxMeshBuilder::new(n, n, n).lid_driven_cavity().build(), true));
            cases.push(([4 * n, n, n], ChannelMeshBuilder::new(n, 4).build(), true));
            cases.push(([n; 3], BoxMeshBuilder::new(n, n, n).build(), true));
        }
        cases.push(([32; 3], BoxMeshBuilder::new(32, 32, 32).lid_driven_cavity().build(), true));
        cases.push(([8; 3], BoxMeshBuilder::new(8, 8, 8).with_jitter(0.3, 7).build(), false));
        let offset = BoxMeshBuilder::new(12, 6, 4)
            .with_extent(Point3::new(1.0, -2.0, 0.5), [6.0, 3.0, 2.0])
            .build();
        cases.push(([12, 6, 4], offset, true));

        let bits = |l: &BoxLattice| [l.origin, l.lengths].map(|v| v.map(f64::to_bits));
        for (dims, mesh, unjittered) in &cases {
            let (lo, hi) = mesh.bounding_box();
            let expected =
                BoxLattice::new([lo.x, lo.y, lo.z], [hi.x - lo.x, hi.y - lo.y, hi.z - lo.z], *dims);
            let lattice = mesh.lattice().expect("a generated mesh carries its lattice");
            assert_eq!(lattice.dims, *dims);
            assert_eq!(lattice.jittered, !*unjittered, "{dims:?}");
            assert_eq!(bits(lattice), bits(&expected), "{dims:?}");
            if *unjittered {
                let p = lattice.points();
                for k in 0..p[2] {
                    for j in 0..p[1] {
                        for i in 0..p[0] {
                            let at = mesh.node_coords(lattice.node_index(i, j, k));
                            let want = lattice.node_position(i, j, k);
                            let near = (0..3).all(|d| (at[d] - want[d]).abs() < 1e-12);
                            assert!(near, "{dims:?} at {i},{j},{k}");
                        }
                    }
                }
            }
            let renumbered = mesh.renumber_nodes(&NodePermutation::identity(mesh.num_nodes()));
            assert!(renumbered.lattice().is_none(), "{dims:?}");
        }

        let mesh = &cases[0].1;
        let raw = Mesh::from_raw(
            mesh.kind(),
            mesh.coords().to_vec(),
            mesh.connectivity().to_vec(),
            mesh.boundary_tags().to_vec(),
            mesh.characteristic_length(),
        );
        assert!(raw.lattice().is_none());
    }

    #[test]
    fn coarsening_chain_halves_while_even() {
        let lattice = BoxLattice::new([0.0; 3], [1.0; 3], [16, 16, 16]);
        let chain = lattice.coarsening_chain(80);
        let dims: Vec<[usize; 3]> = chain.iter().map(|l| l.dims).collect();
        assert_eq!(dims, vec![[16; 3], [8; 3], [4; 3], [2; 3]]);

        let odd = BoxLattice::new([0.0; 3], [1.0; 3], [12, 12, 12]);
        let dims: Vec<[usize; 3]> = odd.coarsening_chain(30).iter().map(|l| l.dims).collect();
        assert_eq!(dims, vec![[12; 3], [6; 3], [3; 3]], "stops at odd dims");
    }

    #[test]
    fn trilinear_rows_partition_unity_and_hit_nested_nodes_exactly() {
        let coarse = BoxLattice::new([0.0; 3], [1.0; 3], [4, 4, 4]);
        let fine = BoxLattice::new([0.0; 3], [1.0; 3], [8, 8, 8]);
        let points = fine.node_positions();
        let stencil = trilinear_stencil(&coarse, &points);
        assert_eq!(stencil.row_ptr.len(), points.len() + 1);
        for f in 0..points.len() {
            let row = stencil.row_ptr[f]..stencil.row_ptr[f + 1];
            let sum: f64 = stencil.weights[row.clone()].iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "partition of unity at {f}");
            let cols = &stencil.col_idx[row.clone()];
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "sorted columns at {f}");
        }
        // Even fine nodes coincide with coarse nodes: one weight, exactly 1.
        let f = fine.node_index(4, 6, 2);
        let row = stencil.row_ptr[f]..stencil.row_ptr[f + 1];
        assert_eq!(row.len(), 1);
        assert_eq!(stencil.weights[row.start], 1.0);
        assert_eq!(stencil.col_idx[row.start], coarse.node_index(2, 3, 1));
    }

    #[test]
    fn trilinear_interpolation_is_exact_on_linear_functions() {
        let coarse = BoxLattice::new([0.5, -1.0, 0.0], [2.0, 4.0, 1.0], [2, 4, 2]);
        let linear = |p: &[f64; 3]| 0.75 * p[0] - 1.5 * p[1] + 2.0 * p[2] + 0.25;
        let coarse_values: Vec<f64> = coarse.node_positions().iter().map(&linear).collect();
        // Probe points including off-lattice and slightly out-of-box ones.
        let probes = [
            [0.5, -1.0, 0.0],
            [1.3, 0.7, 0.45],
            [2.49, 2.99, 0.99],
            [0.45, -1.05, 0.2], // just outside: linear extrapolation
        ];
        let stencil = trilinear_stencil(&coarse, &probes);
        for (row, p) in probes.iter().enumerate() {
            let mut value = 0.0;
            for idx in stencil.row_ptr[row]..stencil.row_ptr[row + 1] {
                value += stencil.weights[idx] * coarse_values[stencil.col_idx[idx]];
            }
            assert!((value - linear(p)).abs() < 1e-12, "probe {row}");
        }
    }
}
