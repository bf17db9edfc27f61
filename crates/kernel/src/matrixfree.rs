//! A matrix-free pressure Laplacian and the geometric-multigrid glue that
//! turns a structured box mesh into a V-cycle preconditioner.
//!
//! The assembled CSR Laplacian streams `nnz · (value + column index)` bytes
//! per `A·x`.  For a Q1 hexahedral discretization the same product can be
//! computed from **one reference stiffness block plus a per-element
//! geometric factor**: with `G_jk = Σ_g w_g|J_g| · (J_g⁻¹ J_g⁻ᵀ)_jk` the
//! elemental matrix is
//!
//! ```text
//! L^e_ab = Σ_{j≤k} G^e_jk · B_jk[a][b],    B_jk[a][b] = Σ_g symmetrized ∂N_a/∂ξ_j · ∂N_b/∂ξ_k
//! ```
//!
//! so a uniform mesh needs **6 floats of geometry per element** instead of
//! ~27 CSR entries per row — the long-vector bandwidth trade of the source
//! paper applied to the solver half.  Meshes whose metric varies inside an
//! element (jittered boxes, channels) fall back to per-Gauss factors
//! (48 floats per element), still well under the assembled footprint.
//!
//! [`MatrixFreeLaplacian`] implements [`LinearOperator`], so the Krylov
//! solvers and the multigrid preconditioner accept it interchangeably with
//! the assembled matrix; the two agree to ~1e-14 relative (validated to
//! ≤1e-12 in the tier-1 tests).  Rows are accumulated node-by-node through a
//! node→(element, local node) adjacency in a fixed order, so
//! [`apply_range`](LinearOperator::apply_range) honours the workspace-wide
//! bitwise-reproducibility contract: each output row is computed identically
//! under every row partition.
//!
//! [`build_pressure_multigrid_on_diagonals`] is the mesh-side glue: it
//! reads the box lattice the generator attached to the mesh
//! ([`Mesh::lattice`]), derives the nested coarsening chain and the
//! transfers — the exact trilinear stencil of the lattices on an unjittered
//! box, the interpolation onto the nudged nodes on a jittered one — and
//! hands them with the pinned level-0 diagonals to [`GeometricMultigrid`]
//! for Galerkin coarse operators; [`build_pressure_multigrid`] is the same
//! from a CSR Laplacian.

use crate::{PGAUS, PNODE};
use lv_mesh::hierarchy::BoxLattice;
use lv_mesh::quadrature::GaussRule;
use lv_mesh::{trilinear_stencil, ElementKind, Mesh, ShapeTable};
use lv_solver::{
    CsrMatrix, DiaMatrix, GeometricMultigrid, Interpolation, LinearOperator, MultigridOptions,
};
use std::ops::Range;
use std::sync::Arc;

/// The six symmetric-unique `(j, k)` metric index pairs, `j ≤ k`.
const SYM_PAIRS: [(usize, usize); 6] = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)];

/// One 8×8 reference stiffness block (`[a][b]` over element nodes).
type RefBlock = [[f64; PNODE]; PNODE];

/// Geometric factors of the elements, in one of two precision/footprint
/// modes decided at construction.
#[derive(Debug, Clone)]
enum GeometricFactors {
    /// Six factors per element (`factors[6·e + m]`): exact when the metric
    /// is constant across the Gauss points of every element (uniform boxes).
    Uniform(Vec<f64>),
    /// Six factors per `(element, gauss)` (`factors[(PGAUS·e + g)·6 + m]`):
    /// exact for any hexahedral mesh.
    PerGauss(Vec<f64>),
}

/// The pressure Laplacian `L_ab = ∫ ∇N_a·∇N_b dΩ` applied matrix-free, with
/// the rows/columns in `pins` eliminated exactly like
/// [`CsrMatrix::pin_rows_symmetric`] (pinned row `y[i] = x[i]`, pinned
/// columns skipped elsewhere).
#[derive(Debug, Clone)]
pub struct MatrixFreeLaplacian {
    num_nodes: usize,
    /// Reference blocks per `(gauss, pair)`: `per_gauss_blocks[6·g + m]`.
    per_gauss_blocks: Vec<RefBlock>,
    /// Gauss-summed reference blocks per pair (the uniform-mode operand).
    summed_blocks: [RefBlock; 6],
    factors: GeometricFactors,
    /// Flat connectivity copy: `lnods[PNODE·e + a]`.
    lnods: Vec<u32>,
    /// Node→(element, local node) adjacency in CSR layout; within a node the
    /// elements appear in ascending id (the fixed accumulation order).
    adj_ptr: Vec<usize>,
    adj_elem: Vec<u32>,
    adj_local: Vec<u8>,
    pinned: Vec<bool>,
}

impl MatrixFreeLaplacian {
    /// Precomputes the reference blocks, per-element geometric factors and
    /// the node adjacency for `mesh`, eliminating the Dirichlet rows in
    /// `pins`.
    ///
    /// # Panics
    /// Panics if the mesh is not hexahedral, contains an inverted element,
    /// or a pin is out of range.
    pub fn new(mesh: &Mesh, pins: &[usize]) -> Self {
        assert_eq!(
            mesh.kind(),
            ElementKind::Hex8,
            "the matrix-free Laplacian operates on hexahedral meshes"
        );
        let nelem = mesh.num_elements();
        let nnode = mesh.num_nodes();
        let shape = ShapeTable::new(ElementKind::Hex8, &GaussRule::hex_2x2x2());
        let rule = GaussRule::hex_2x2x2();

        // Reference stiffness blocks: per Gauss point and symmetric pair,
        // B[a][b] = d_a[j]·d_b[k], symmetrized (+ d_a[k]·d_b[j]) off the
        // diagonal so the six unique factors reproduce the full 3×3 sum.
        let mut per_gauss_blocks = vec![[[0.0; PNODE]; PNODE]; PGAUS * SYM_PAIRS.len()];
        let mut summed_blocks = [[[0.0; PNODE]; PNODE]; 6];
        for g in 0..PGAUS {
            let d = &shape.derivatives(g).d;
            for (m, &(j, k)) in SYM_PAIRS.iter().enumerate() {
                let block = &mut per_gauss_blocks[SYM_PAIRS.len() * g + m];
                for a in 0..PNODE {
                    for b in 0..PNODE {
                        let mut v = d[a][j] * d[b][k];
                        if j != k {
                            v += d[a][k] * d[b][j];
                        }
                        block[a][b] = v;
                        summed_blocks[m][a][b] += v;
                    }
                }
            }
        }

        // Per-(element, gauss) factors G_jk = w|J| · Σ_i invJ[j][i]·invJ[k][i],
        // with the same Jacobian arithmetic as `PressureOperators::new` so
        // both paths see identical geometry.
        let mut gauss_factors = vec![0.0; nelem * PGAUS * SYM_PAIRS.len()];
        for elem in 0..nelem {
            let nodes = mesh.element_nodes(elem);
            for (g, qp) in rule.points().iter().enumerate() {
                let derivs = shape.derivatives(g);
                let mut jac = [[0.0f64; 3]; 3];
                for (a, &node) in nodes.iter().enumerate() {
                    let x = mesh.node_coords(node as usize);
                    for (i, row) in jac.iter_mut().enumerate() {
                        for (j, entry) in row.iter_mut().enumerate() {
                            *entry += derivs.d[a][j] * x[i];
                        }
                    }
                }
                let det = jac[0][0] * (jac[1][1] * jac[2][2] - jac[1][2] * jac[2][1])
                    - jac[0][1] * (jac[1][0] * jac[2][2] - jac[1][2] * jac[2][0])
                    + jac[0][2] * (jac[1][0] * jac[2][1] - jac[1][1] * jac[2][0]);
                assert!(det > 0.0, "element {elem} has a non-positive Jacobian ({det})");
                let inv_det = 1.0 / det;
                let inv = [
                    [
                        (jac[1][1] * jac[2][2] - jac[1][2] * jac[2][1]) * inv_det,
                        (jac[0][2] * jac[2][1] - jac[0][1] * jac[2][2]) * inv_det,
                        (jac[0][1] * jac[1][2] - jac[0][2] * jac[1][1]) * inv_det,
                    ],
                    [
                        (jac[1][2] * jac[2][0] - jac[1][0] * jac[2][2]) * inv_det,
                        (jac[0][0] * jac[2][2] - jac[0][2] * jac[2][0]) * inv_det,
                        (jac[0][2] * jac[1][0] - jac[0][0] * jac[1][2]) * inv_det,
                    ],
                    [
                        (jac[1][0] * jac[2][1] - jac[1][1] * jac[2][0]) * inv_det,
                        (jac[0][1] * jac[2][0] - jac[0][0] * jac[2][1]) * inv_det,
                        (jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]) * inv_det,
                    ],
                ];
                let vol = det * qp.weight;
                let base = (PGAUS * elem + g) * SYM_PAIRS.len();
                for (m, &(j, k)) in SYM_PAIRS.iter().enumerate() {
                    let mut dot = 0.0;
                    for (vj, vk) in inv[j].iter().zip(&inv[k]) {
                        dot += vj * vk;
                    }
                    gauss_factors[base + m] = vol * dot;
                }
            }
        }

        // Uniform mode only when *every* element's factors are constant
        // across its Gauss points (to rounding): the collapsed
        // factor·Σ_g block form is then exact to ~1 ulp.
        let factors = match uniform_factors(&gauss_factors, nelem) {
            Some(uniform) => GeometricFactors::Uniform(uniform),
            None => GeometricFactors::PerGauss(gauss_factors),
        };

        let mut lnods = Vec::with_capacity(nelem * PNODE);
        for elem in 0..nelem {
            lnods.extend_from_slice(mesh.element_nodes(elem));
        }

        // Node adjacency by counting sort; element order is preserved, so
        // each row accumulates its elements in ascending id.
        let mut adj_ptr = vec![0usize; nnode + 1];
        for &node in &lnods {
            adj_ptr[node as usize + 1] += 1;
        }
        for n in 0..nnode {
            adj_ptr[n + 1] += adj_ptr[n];
        }
        let mut cursor = adj_ptr.clone();
        let mut adj_elem = vec![0u32; lnods.len()];
        let mut adj_local = vec![0u8; lnods.len()];
        for elem in 0..nelem {
            for a in 0..PNODE {
                let node = lnods[PNODE * elem + a] as usize;
                adj_elem[cursor[node]] = elem as u32;
                adj_local[cursor[node]] = a as u8;
                cursor[node] += 1;
            }
        }

        let mut pinned = vec![false; nnode];
        for &pin in pins {
            assert!(pin < nnode, "pinned node {pin} out of range");
            pinned[pin] = true;
        }

        MatrixFreeLaplacian {
            num_nodes: nnode,
            per_gauss_blocks,
            summed_blocks,
            factors,
            lnods,
            adj_ptr,
            adj_elem,
            adj_local,
            pinned,
        }
    }

    /// Whether the collapsed six-factor-per-element mode is active (constant
    /// metric in every element, e.g. uniform boxes).
    pub fn uses_uniform_factors(&self) -> bool {
        matches!(self.factors, GeometricFactors::Uniform(_))
    }

    /// One unpinned row of `L·x`: Σ over the node's elements of the local
    /// stiffness row against `x`, skipping pinned columns.
    #[inline]
    fn row_product(&self, row: usize, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for idx in self.adj_ptr[row]..self.adj_ptr[row + 1] {
            let elem = self.adj_elem[idx] as usize;
            let a = self.adj_local[idx] as usize;
            let nodes = &self.lnods[PNODE * elem..PNODE * (elem + 1)];
            match &self.factors {
                GeometricFactors::Uniform(factors) => {
                    let f = &factors[SYM_PAIRS.len() * elem..SYM_PAIRS.len() * (elem + 1)];
                    for (b, &node) in nodes.iter().enumerate() {
                        let col = node as usize;
                        if self.pinned[col] {
                            continue;
                        }
                        let mut l_ab = 0.0;
                        for (m, &fm) in f.iter().enumerate() {
                            l_ab += fm * self.summed_blocks[m][a][b];
                        }
                        acc += l_ab * x[col];
                    }
                }
                GeometricFactors::PerGauss(factors) => {
                    for (b, &node) in nodes.iter().enumerate() {
                        let col = node as usize;
                        if self.pinned[col] {
                            continue;
                        }
                        let mut l_ab = 0.0;
                        for g in 0..PGAUS {
                            let base = (PGAUS * elem + g) * SYM_PAIRS.len();
                            for m in 0..SYM_PAIRS.len() {
                                l_ab += factors[base + m]
                                    * self.per_gauss_blocks[SYM_PAIRS.len() * g + m][a][b];
                            }
                        }
                        acc += l_ab * x[col];
                    }
                }
            }
        }
        acc
    }
}

/// Collapses `gauss_factors` to one factor set per element, or `None` when
/// any element's metric varies across its Gauss points beyond rounding.
fn uniform_factors(gauss_factors: &[f64], nelem: usize) -> Option<Vec<f64>> {
    const REL_TOL: f64 = 1e-13;
    let mut uniform = vec![0.0; nelem * SYM_PAIRS.len()];
    for elem in 0..nelem {
        let base = PGAUS * elem * SYM_PAIRS.len();
        let mut scale: f64 = 0.0;
        for g in 0..PGAUS {
            for m in 0..SYM_PAIRS.len() {
                scale = scale.max(gauss_factors[base + g * SYM_PAIRS.len() + m].abs());
            }
        }
        for m in 0..SYM_PAIRS.len() {
            let mut mean = 0.0;
            for g in 0..PGAUS {
                mean += gauss_factors[base + g * SYM_PAIRS.len() + m];
            }
            mean /= PGAUS as f64;
            for g in 0..PGAUS {
                if (gauss_factors[base + g * SYM_PAIRS.len() + m] - mean).abs() > REL_TOL * scale {
                    return None;
                }
            }
            uniform[SYM_PAIRS.len() * elem + m] = mean;
        }
    }
    Some(uniform)
}

impl LinearOperator for MatrixFreeLaplacian {
    fn dim(&self) -> usize {
        self.num_nodes
    }

    fn apply_range(&self, x: &[f64], rows: Range<usize>, y: &mut [f64]) {
        let start = rows.start;
        for row in rows {
            y[row - start] = if self.pinned[row] { x[row] } else { self.row_product(row, x) };
        }
    }

    fn diagonal(&self) -> Vec<f64> {
        let mut diag = vec![0.0; self.num_nodes];
        for (row, d) in diag.iter_mut().enumerate() {
            if self.pinned[row] {
                *d = 1.0;
                continue;
            }
            let mut acc = 0.0;
            for idx in self.adj_ptr[row]..self.adj_ptr[row + 1] {
                let elem = self.adj_elem[idx] as usize;
                let a = self.adj_local[idx] as usize;
                match &self.factors {
                    GeometricFactors::Uniform(factors) => {
                        for m in 0..SYM_PAIRS.len() {
                            acc +=
                                factors[SYM_PAIRS.len() * elem + m] * self.summed_blocks[m][a][a];
                        }
                    }
                    GeometricFactors::PerGauss(factors) => {
                        for g in 0..PGAUS {
                            let base = (PGAUS * elem + g) * SYM_PAIRS.len();
                            for m in 0..SYM_PAIRS.len() {
                                acc += factors[base + m]
                                    * self.per_gauss_blocks[SYM_PAIRS.len() * g + m][a][a];
                            }
                        }
                    }
                }
            }
            *d = acc;
        }
        diag
    }

    fn streamed_bytes(&self) -> usize {
        let factor_bytes = match &self.factors {
            GeometricFactors::Uniform(f) => f.len() * std::mem::size_of::<f64>(),
            GeometricFactors::PerGauss(f) => f.len() * std::mem::size_of::<f64>(),
        };
        // Geometry + connectivity + adjacency streamed by one full sweep.
        // The reference blocks are a constant few KiB that live in cache;
        // they are counted once, not per element.
        factor_bytes
            + self.lnods.len() * std::mem::size_of::<u32>()
            + self.adj_elem.len() * std::mem::size_of::<u32>()
            + self.adj_local.len() * std::mem::size_of::<u8>()
            + self.adj_ptr.len() * std::mem::size_of::<usize>()
            + std::mem::size_of_val(&self.summed_blocks)
    }

    fn apply_flops(&self) -> u64 {
        // Per (row, adjacent element) pair, `row_product` reconstructs one
        // local stiffness row on the fly: PNODE columns, each a
        // SYM_PAIRS-term dot (times PGAUS in the per-Gauss mode) plus the
        // accumulate — a structural count, deterministic across threads.
        let pairs = self.adj_elem.len() as u64;
        let per_column = match &self.factors {
            GeometricFactors::Uniform(_) => 2 * SYM_PAIRS.len() as u64 + 2,
            GeometricFactors::PerGauss(_) => 2 * (PGAUS * SYM_PAIRS.len()) as u64 + 2,
        };
        pairs * PNODE as u64 * per_column
    }
}

/// The chain of trilinear interpolations of the pressure multigrid on
/// `mesh` (`[l]` maps level `l+1` → level `l`), built on the lattice its
/// generator attached, or the first of the causes of [`NoHierarchy`] that
/// can be told from the mesh alone.
///
/// The finest transfer interpolates from the first coarse lattice onto the
/// **actual mesh node coordinates** (so mildly perturbed boxes still get an
/// exact-on-linears transfer); coarser transfers connect the ideal nested
/// lattices.  Each transfer also carries the node counts of its two
/// lattices ([`Interpolation::on_lattices`], from [`BoxLattice::points`]),
/// so the V-cycle applies it by lattice index wherever its weights are the
/// trilinear stencil in the cycle's scalar — every transfer of an
/// unjittered box — and keeps the CSR form elsewhere, the finest transfer
/// of a jittered box.  The hierarchy builders take these on a jittered box
/// only: an unjittered box interpolates with the exact stencil, whose
/// weights the coordinates here miss by a rounding where the spacing is no
/// power of two ([`build_pressure_multigrid_on_diagonals`]).
pub fn pressure_interpolations(
    mesh: &Mesh,
    options: &MultigridOptions,
) -> Result<Vec<Interpolation>, NoHierarchy> {
    let chain = halving_chain(mesh, options)?;
    let fine_points: Vec<[f64; 3]> = (0..mesh.num_nodes())
        .map(|n| {
            let p = mesh.node_coords(n);
            [p[0], p[1], p[2]]
        })
        .collect();
    let mut interps = Vec::with_capacity(chain.len() - 1);
    interps.push(interpolation_onto(&chain[1], &chain[0], &fine_points));
    for level in 1..chain.len() - 1 {
        let positions = chain[level].node_positions();
        interps.push(interpolation_onto(&chain[level + 1], &chain[level], &positions));
    }
    Ok(interps)
}

/// The coarsening chain of `mesh`'s lattice, finest first, or the first
/// of the causes of [`NoHierarchy`] that can be told from the mesh alone.
fn halving_chain(mesh: &Mesh, options: &MultigridOptions) -> Result<Vec<BoxLattice>, NoHierarchy> {
    let lattice = mesh.lattice().ok_or(NoHierarchy::NoLattice)?;
    let chain = lattice.coarsening_chain(options.max_coarse_nodes);
    if chain.len() < 2 {
        return Err(NoHierarchy::DoesNotHalve);
    }
    // Equal up to the rounding of the generator's arithmetic.
    let h = lattice.spacing();
    if h.iter().any(|&s| (s - h[0]).abs() > 1e-9 * h[0]) {
        return Err(NoHierarchy::UnequalSpacing);
    }
    Ok(chain)
}

/// Why [`build_pressure_multigrid`] built no hierarchy for a mesh; its
/// `Display` is the cause the pressure solve's banner names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoHierarchy {
    /// The mesh carries no lattice ([`Mesh::lattice`] is `None`): it was
    /// built from raw arrays, or renumbered.  A time step refuses such a
    /// mesh before it asks for a hierarchy, so only a direct caller of
    /// [`build_pressure_multigrid`] meets this cause.
    NoLattice,
    /// The lattice does not halve even once: a direction has an odd element
    /// count, or the lattice already holds at most
    /// [`MultigridOptions::max_coarse_nodes`] nodes.
    DoesNotHalve,
    /// The element spacing differs between directions.  The damped-Jacobi
    /// smoother fails on flat elements: to 1e-6, MG-CG takes 152 iterations
    /// on an 8 × 8 × 16 unit cube against plain CG's 81.
    UnequalSpacing,
    /// A level's operator has more than [`lv_solver::dia::MAX_DIAGONALS`]
    /// distinct offsets and does not fit the V-cycle's diagonal storage: a
    /// coarse Galerkin level of a jittered box, whose finest transfer
    /// interpolates onto the nudged nodes.  ([`GeometricMultigrid::new`]
    /// also refuses a singular coarsest level, which the Galerkin product
    /// of a pinned SPD Laplacian never is.)
    TooManyDiagonals,
}

impl std::fmt::Display for NoHierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NoHierarchy::NoLattice => f.write_str("no box lattice"),
            NoHierarchy::DoesNotHalve => f.write_str("the lattice does not halve"),
            NoHierarchy::UnequalSpacing => f.write_str("unequal element spacing"),
            NoHierarchy::TooManyDiagonals => {
                write!(f, "a level has more than {} diagonals", lv_solver::dia::MAX_DIAGONALS)
            }
        }
    }
}

/// Builds the geometric-multigrid V-cycle preconditioner for the pressure
/// Laplacian of `mesh` from its pinned level-0 diagonals `laplacian` —
/// the operator the outer CG iterates with, which the hierarchy shares as
/// its [`GeometricMultigrid::fine_operator`] — or says which cause of
/// [`NoHierarchy`] stopped it.  No CSR matrix is built on the way:
///
/// * on an unjittered box every `P` is the exact trilinear stencil of the
///   lattice chain (weights 1, ½, ¼, ⅛ from lattice indices, never stored)
///   and every coarse operator the Galerkin product computed once per
///   distinct row ([`GeometricMultigrid::on_lattice_chain`]);
/// * on a jittered box the transfers are [`pressure_interpolations`]'
///   coordinate `P`s and the products run row by row on the diagonals
///   ([`GeometricMultigrid::from_diagonals`]) — the level below the finest
///   is then wider than [`lv_solver::dia::MAX_DIAGONALS`] diagonals, so the
///   answer is [`NoHierarchy::TooManyDiagonals`].
///
/// # Panics
/// Panics when `laplacian` does not have one row per node of `mesh`.
pub fn build_pressure_multigrid_on_diagonals(
    mesh: &Mesh,
    laplacian: Arc<DiaMatrix>,
    options: &MultigridOptions,
) -> Result<GeometricMultigrid, NoHierarchy> {
    assert_eq!(mesh.num_nodes(), laplacian.dim(), "one Laplacian row per mesh node");
    let chain = halving_chain(mesh, options)?;
    let built = if chain[0].jittered {
        GeometricMultigrid::from_diagonals(
            laplacian,
            pressure_interpolations(mesh, options)?,
            options,
        )
    } else {
        let points: Vec<[usize; 3]> = chain.iter().map(BoxLattice::points).collect();
        GeometricMultigrid::on_lattice_chain(laplacian, &points, options)
    };
    built.ok_or(NoHierarchy::TooManyDiagonals)
}

/// [`build_pressure_multigrid_on_diagonals`] of the pinned Laplacian given
/// in CSR: the same hierarchy from [`DiaMatrix::from_csr`] of
/// `laplacian`, which must be the assembled, pinned matrix the outer CG
/// iterates with.
///
/// # Panics
/// Panics when `laplacian` does not have one row per node of `mesh`.
pub fn build_pressure_multigrid(
    mesh: &Mesh,
    laplacian: &CsrMatrix,
    options: &MultigridOptions,
) -> Result<GeometricMultigrid, NoHierarchy> {
    assert_eq!(mesh.num_nodes(), laplacian.dim(), "one Laplacian row per mesh node");
    halving_chain(mesh, options)?;
    let fine = DiaMatrix::from_csr(laplacian).ok_or(NoHierarchy::TooManyDiagonals)?;
    build_pressure_multigrid_on_diagonals(mesh, Arc::new(fine), options)
}

/// Trilinear interpolation from `coarse` onto `points`, the nodes of
/// `fine`, as a solver-side [`Interpolation`] operator between the two
/// lattices.
fn interpolation_onto(
    coarse: &BoxLattice,
    fine: &BoxLattice,
    points: &[[f64; 3]],
) -> Interpolation {
    let stencil = trilinear_stencil(coarse, points);
    Interpolation::from_csr(stencil.coarse_nodes, stencil.row_ptr, stencil.col_idx, stencil.weights)
        .on_lattices(fine.points(), coarse.points())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection::PressureOperators;
    use lv_mesh::BoxMeshBuilder;
    use lv_runtime::Team;
    use lv_solver::{mg_preconditioned_cg_on, SolveOptions};

    fn probe(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
                ((t >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect()
    }

    fn compare_against_csr(mesh: &Mesh, pins: &[usize]) -> MatrixFreeLaplacian {
        let ops = PressureOperators::new(mesh, 32);
        let mut csr = ops.assemble_laplacian();
        csr.pin_rows_symmetric(pins);
        let mf = MatrixFreeLaplacian::new(mesh, pins);
        assert_eq!(LinearOperator::dim(&mf), csr.dim());

        let x = probe(csr.dim(), 42);
        let mut y_mf = vec![0.0; csr.dim()];
        LinearOperator::apply(&mf, &x, &mut y_mf);
        let y_csr = csr.mul_vec(&x);
        for i in 0..csr.dim() {
            assert!(
                (y_mf[i] - y_csr[i]).abs() <= 1e-12 * (1.0 + y_csr[i].abs()),
                "row {i}: matrix-free {} vs assembled {}",
                y_mf[i],
                y_csr[i]
            );
        }

        let d_mf = LinearOperator::diagonal(&mf);
        let d_csr = csr.diagonal();
        for i in 0..csr.dim() {
            assert!((d_mf[i] - d_csr[i]).abs() <= 1e-12 * (1.0 + d_csr[i].abs()));
        }
        assert!(
            mf.streamed_bytes() < LinearOperator::streamed_bytes(&csr),
            "matrix-free should stream less than CSR ({} vs {})",
            mf.streamed_bytes(),
            LinearOperator::streamed_bytes(&csr)
        );
        mf
    }

    #[test]
    fn uniform_box_matches_assembled_csr() {
        let mesh = BoxMeshBuilder::new(6, 6, 6).build();
        let mf = compare_against_csr(&mesh, &[0, 17]);
        assert!(mf.uses_uniform_factors(), "uniform box should collapse to 6 factors/element");
    }

    #[test]
    fn jittered_box_matches_assembled_csr() {
        let mesh = BoxMeshBuilder::new(5, 4, 6)
            .with_extent(lv_mesh::geometry::Point3::ZERO, [1.0, 1.3, 0.8])
            .with_jitter(0.22, 9)
            .build();
        let mf = compare_against_csr(&mesh, &[3]);
        assert!(!mf.uses_uniform_factors(), "a jittered metric needs per-Gauss factors");
    }

    #[test]
    fn range_application_fills_exactly_the_requested_rows() {
        let mesh = BoxMeshBuilder::new(4, 4, 4).build();
        let mf = MatrixFreeLaplacian::new(&mesh, &[0]);
        let n = LinearOperator::dim(&mf);
        let x = probe(n, 7);
        let mut full = vec![0.0; n];
        LinearOperator::apply(&mf, &x, &mut full);
        let mut part = vec![0.0; 20];
        mf.apply_range(&x, 30..50, &mut part);
        assert_eq!(part.as_slice(), &full[30..50]);
    }

    #[test]
    fn pressure_multigrid_builds_the_expected_hierarchy() {
        let mesh = BoxMeshBuilder::new(8, 8, 8).build();
        let csr = crate::projection::pressure_laplacian(&mesh, &[0]);
        let options = MultigridOptions::default();
        let mg = build_pressure_multigrid(&mesh, &csr, &options).expect("8³ box is a lattice");
        assert_eq!(mg.level_rows(), vec![729, 125, 27]);

        // The hierarchy actually preconditions: MG-CG solves the pinned
        // Poisson system to tight tolerance in few iterations.
        let b = probe(csr.dim(), 3);
        let solve = SolveOptions { max_iterations: 50, tolerance: 1e-10 };
        let mut mg = mg;
        let outcome =
            mg_preconditioned_cg_on(&Team::new(1), &csr, &mut mg, &b, &solve).expect("converges");
        assert!(outcome.iterations < 15, "took {} iterations", outcome.iterations);
    }

    #[test]
    fn multigrid_glue_rejects_unstructured_meshes() {
        let mesh = BoxMeshBuilder::new(4, 4, 4).build();
        let csr = crate::projection::pressure_laplacian(&mesh, &[0]);
        // A lattice too small to coarsen yields no hierarchy.
        let options = MultigridOptions { max_coarse_nodes: 1000, ..Default::default() };
        let built = build_pressure_multigrid(&mesh, &csr, &options);
        assert_eq!(built.err(), Some(NoHierarchy::DoesNotHalve));
    }
}
