//! The numeric assembly driver: loops over the `VECTOR_SIZE` blocks of a
//! mesh, runs the eight phases on each block and accumulates the global CSR
//! matrix and RHS.
//!
//! This is the "real" half of the mini-app: it produces numbers the examples
//! and the benchmark's `assembly_vs` workload use, and its results are invariant
//! under the code-variant / `VECTOR_SIZE` choices (a property the integration
//! tests check — the paper's refactors must not change the physics).
//!
//! # The mini-app and the time step
//!
//! [`assemble_into_slices`] (mesh order, one thread) and
//! [`assemble_parallel_into_on`] (the colored schedule, on a team) are the
//! paper's kernel: all eight phases, the full system re-integrated on every
//! call, one slice kernel per phase for both schedules.  A time step does
//! not need that: of `ν·K + C(u) + (ρ/Δt)·M` only the convection `C(u)`
//! depends on the velocity, the elemental right-hand side is
//! `−(ν·K + C(u))·u` of the matrix just built, and the mesh does not move —
//! its Jacobians are the same in every step.  [`crate::assemble_momentum_on`]
//! is what `lv_driver::Stepper` runs instead: a lattice gather
//! ([`crate::momentum`]) — phases 2, 5, a velocity-only phase 4 and the
//! convection matrix in reference space
//! ([`phases::phase6_reference_convective_slices`]) from the geometry of
//! [`convective_geometry`] (one entry on an unjittered box), no coordinate
//! gather, no phase 3 or 7, no scatter — summed row by row onto `ν·K` in
//! the step's momentum matrix (block-major diagonals of the mesh's
//! lattice, [`new_momentum_matrix`]), with `K` and `M` from
//! [`crate::PressureOperators`].  The eight-phase sweep stays public and
//! untouched — it is what the paper measures, what `kernel/workload.rs`
//! mirrors and what the `assembly_vs` benchmark times — and is the oracle
//! of the step's path: same system up to the operation order (tests below:
//! ≤ 4 ε of a row's largest entry in the matrix, ≤ 16 ε of
//! `Σ|A||u| + Σ|c||p|` in the right-hand side).
//!
//! # The schedule
//!
//! The colored sweep runs on [`ColoredChunks::mesh_order`], built on its
//! first use: the `VECTOR_SIZE` blocks of *consecutive* elements of the
//! serial path, colored against each other.  The elements of a chunk are
//! neighbours, so what one gathers and scatters the next finds in cache;
//! the chunks of a color share no node, which [`colored_chunks`] asserts
//! in debug builds because the lock-free scatter is sound only then.
//!
//! [`assemble_into_slices`]: NastinAssembly::assemble_into_slices
//! [`assemble_parallel_into_on`]: NastinAssembly::assemble_parallel_into_on
//! [`colored_chunks`]: NastinAssembly::colored_chunks
//! [`convective_geometry`]: NastinAssembly::convective_geometry
//! [`new_momentum_matrix`]: NastinAssembly::new_momentum_matrix

use crate::config::KernelConfig;
use crate::momentum::momentum_diagonals;
use crate::parallel;
use crate::phases;
use crate::projection::reference_corners;
use crate::workspace::ElementWorkspace;
use crate::{NDIME, PGAUS};
use lv_mesh::chunks::ElementChunks;
use lv_mesh::coloring::ColoredChunks;
use lv_mesh::quadrature::GaussRule;
use lv_mesh::{ElementKind, Field, Mesh, MeshTopology, ShapeTable, VectorField};
use lv_solver::{CsrMatrix, DiaMatrix};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Result of one assembly sweep over the mesh.
#[derive(Debug, Clone)]
pub struct AssemblyOutput {
    /// Global (per-component) system matrix on the node-to-node graph.
    pub matrix: CsrMatrix,
    /// Global RHS, `rhs[NDIME*node + idime]`.
    pub rhs: Vec<f64>,
    /// Assembly statistics.
    pub stats: AssemblyStats,
}

/// Statistics of an assembly sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AssemblyStats {
    /// Number of `VECTOR_SIZE` blocks processed (kernel calls).
    pub chunks: usize,
    /// Number of elements assembled.
    pub elements: usize,
    /// Number of singular Jacobians encountered (0 for valid meshes).
    pub singular_jacobians: usize,
    /// Analytic floating-point operations performed.
    pub flops: f64,
}

/// Checks that `matrix` sits on `topology`'s node graph — the precondition
/// of scattering through the slot map and of walking the matrix beside a
/// per-entry array of the graph: row pointers always, column indices in
/// debug builds.
pub(crate) fn check_pattern(topology: &MeshTopology, matrix: &CsrMatrix) {
    assert!(
        matrix.row_ptr() == topology.row_ptr(),
        "the matrix does not have this mesh's sparsity pattern (use `new_matrix`)"
    );
    debug_assert!(topology.has_pattern(matrix.row_ptr(), matrix.col_idx()));
}

/// What the step's convective gather reads of the mesh's geometry,
/// integrated once: `J⁻¹` and `gpvol` at every integration point
/// ([`phases::GEOMETRY_ROWS`] values each).  On an unjittered generator box
/// every element is the reference element of the lattice — the one that
/// gives `C`, `K` and `M` ([`crate::PressureOperators`]) — so the geometry
/// is that element's one entry, 640 bytes for the whole mesh.  A jittered
/// box (or a mesh with no lattice) keeps every element's values, element
/// order, one row per value (640 bytes per element), read unit-stride by
/// the chunks of consecutive elements the gather computes.
///
/// Built by [`NastinAssembly::convective_geometry`] and valid for that
/// assembly (its mesh, its `VECTOR_SIZE`) only; a time step hands it back
/// through [`crate::assemble_momentum_on`].
#[derive(Debug, Clone, PartialEq)]
pub struct ConvectiveGeometry {
    /// `[PGAUS][GEOMETRY_ROWS]` of the reference element, or per value `r`
    /// the row `values[r·stride..]` of every element in element order.
    values: Vec<f64>,
    /// Distance between two rows of a per-element table (the element count
    /// plus `VECTOR_SIZE`, so a padded last chunk reads inside its row); 0
    /// for one entry.
    stride: usize,
    singular_jacobians: usize,
}

impl ConvectiveGeometry {
    /// The geometry of the chunk of consecutive elements from `first` on.
    pub(crate) fn slots(&self, first: usize) -> phases::SlotGeometry<'_> {
        match self.stride {
            0 => phases::SlotGeometry::Shared(&self.values),
            stride => phases::SlotGeometry::PerSlot { rows: &self.values[first..], stride },
        }
    }

    /// Whether the table serves chunks of `vector_size` over `elements`
    /// elements.
    pub(crate) fn fits(&self, elements: usize, vector_size: usize) -> bool {
        self.stride == 0 || self.stride == elements + vector_size
    }

    /// Whether every element has an entry of its own (a jittered box), not
    /// the one of the reference element.
    pub(crate) fn per_element(&self) -> bool {
        self.stride != 0
    }

    /// Slots (padding included) whose Jacobian is singular at some
    /// integration point, counted per point; their inverse is stored as
    /// zero.
    pub fn singular_jacobians(&self) -> usize {
        self.singular_jacobians
    }

    /// Resident size in bytes.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.values.as_slice())
    }
}

/// A matrix whose rows can be made identity rows — what
/// [`NastinAssembly::apply_dirichlet`] needs of it.
pub trait DirichletRows {
    /// Makes `row` an identity row: `1` on the diagonal, `0` elsewhere.
    fn dirichlet_row(&mut self, row: usize);
}

impl DirichletRows for CsrMatrix {
    fn dirichlet_row(&mut self, row: usize) {
        CsrMatrix::dirichlet_row(self, row);
    }
}

/// The same bits as on the CSR matrix of the same entries.
impl DirichletRows for DiaMatrix {
    fn dirichlet_row(&mut self, row: usize) {
        DiaMatrix::dirichlet_row(self, row);
    }
}

/// The Nastin assembly kernel bound to a mesh and a configuration.
#[derive(Debug, Clone)]
pub struct NastinAssembly {
    mesh: Mesh,
    config: KernelConfig,
    shape: ShapeTable,
    chunks: ElementChunks,
    /// The mini-app's colored schedule, built on the first colored sweep:
    /// a time step colours nothing.
    colored: OnceLock<ColoredChunks>,
    topology: Arc<MeshTopology>,
}

impl NastinAssembly {
    /// Creates an assembly kernel for `mesh` under `config`.
    ///
    /// # Panics
    /// Panics if the configuration is invalid or the mesh is not hexahedral.
    pub fn new(mesh: Mesh, config: KernelConfig) -> Self {
        let topology = Arc::new(MeshTopology::new(&mesh));
        Self::with_topology(mesh, config, topology)
    }

    /// [`new`](Self::new) on an already-built topology of `mesh`, so several
    /// operators on one mesh share a single node graph and slot map.
    ///
    /// # Panics
    /// Panics like [`new`](Self::new), or if `topology` was built for a mesh
    /// of another size.
    pub fn with_topology(mesh: Mesh, config: KernelConfig, topology: Arc<MeshTopology>) -> Self {
        let problems = config.validate();
        assert!(problems.is_empty(), "invalid kernel configuration: {problems:?}");
        assert_eq!(
            mesh.kind(),
            ElementKind::Hex8,
            "the Nastin mini-app reproduction operates on hexahedral meshes"
        );
        let shape = ShapeTable::new(ElementKind::Hex8, &GaussRule::hex_2x2x2());
        assert!(topology.fits(&mesh), "the topology was built for another mesh");
        let chunks = ElementChunks::new(&mesh, config.vector_size);
        NastinAssembly { mesh, config, shape, chunks, colored: OnceLock::new(), topology }
    }

    /// The mesh the kernel operates on.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// The `VECTOR_SIZE` blocking of the mesh.
    pub fn chunks(&self) -> &ElementChunks {
        &self.chunks
    }

    /// Creates a zero matrix with the mesh sparsity pattern (reusable across
    /// time steps).
    pub fn new_matrix(&self) -> CsrMatrix {
        CsrMatrix::from_pattern(self.topology.row_ptr().to_vec(), self.topology.col_idx().to_vec())
    }

    /// The momentum matrix of a time step on this mesh, all `+0.0`, on
    /// the block-major diagonals of the `(a, b) → diagonal` table the
    /// elements share (at most 27 on a box lattice in generator order).
    ///
    /// # Panics
    /// Panics if the elements share no table of at most
    /// [`MAX_DIAGONALS`](lv_solver::dia::MAX_DIAGONALS) offsets — a mesh
    /// whose node order follows no lattice.
    pub fn new_momentum_matrix(&self) -> DiaMatrix {
        let table = momentum_diagonals(&self.topology)
            .expect("the elements share no diagonal table: the node order follows no lattice");
        DiaMatrix::zeros(self.mesh.num_nodes(), table.offsets().to_vec())
    }

    /// Zeroes the system before a slot-map sweep, after [`check_pattern`].
    fn clear_system(&self, matrix: &mut CsrMatrix, rhs: &mut [f64]) {
        check_pattern(&self.topology, matrix);
        matrix.zero_values();
        rhs.fill(0.0);
    }

    /// Runs the full assembly for the given velocity/pressure state,
    /// allocating a fresh matrix, RHS and workspace
    /// ([`assemble_into_slices`](Self::assemble_into_slices)).
    pub fn assemble(&self, velocity: &VectorField, pressure: &Field) -> AssemblyOutput {
        let mut matrix = self.new_matrix();
        let mut rhs = vec![0.0; NDIME * self.mesh.num_nodes()];
        let mut workspace = ElementWorkspace::new(self.config.vector_size);
        let stats =
            self.assemble_into_slices(velocity, pressure, &mut matrix, &mut rhs, &mut workspace);
        AssemblyOutput { matrix, rhs, stats }
    }

    /// Runs the full assembly into preallocated storage (zeroing it first):
    /// the unit-stride slice kernels over the mesh-order chunks, one
    /// workspace, the calling thread.
    pub fn assemble_into_slices(
        &self,
        velocity: &VectorField,
        pressure: &Field,
        matrix: &mut CsrMatrix,
        rhs: &mut [f64],
        workspace: &mut ElementWorkspace,
    ) -> AssemblyStats {
        assert_eq!(rhs.len(), NDIME * self.mesh.num_nodes());
        assert_eq!(workspace.vector_size(), self.config.vector_size);
        self.clear_system(matrix, rhs);

        let h_char = self.mesh.characteristic_length();
        let mut stats = AssemblyStats::default();
        for chunk in &self.chunks {
            workspace.reset();
            let mut v = workspace.views_mut();
            phases::phase1_gather_coords_slices(&self.mesh, chunk, &mut v);
            phases::phase2_gather_unknowns_slices(&self.mesh, velocity, pressure, chunk, &mut v);
            stats.singular_jacobians += phases::phase3_jacobian_slices(&self.shape, &mut v);
            phases::phase4_gauss_values_slices(&self.shape, &mut v);
            phases::phase5_stabilization_slices(&self.config, h_char, &mut v);
            phases::phase6_convective_slices(&self.shape, &self.config, &mut v);
            phases::phase7_viscous_slices(&self.shape, &self.config, &mut v);
            phases::phase8_scatter_slices(
                &self.mesh,
                &self.topology,
                &self.config,
                &v,
                matrix,
                rhs,
            );
            stats.chunks += 1;
            stats.elements += chunk.len;
        }
        stats.flops = stats.elements as f64 * phases::flops_per_element(self.config.semi_implicit);
        stats
    }

    /// Runs the full assembly through the **mesh-colored parallel path**:
    /// the slice kernels over the colored schedule on a caller-provided
    /// worker team, one workspace per assembling rank, scattering into the
    /// shared system without atomics (see [`lv_mesh::coloring`]).  The same
    /// team runs the Krylov solves of a time step, so workers are spawned
    /// once per run, not once per sweep.
    ///
    /// `min(team.num_threads(), workspaces.len())` ranks assemble; the
    /// result is bitwise identical for every worker count and agrees with
    /// the mesh-order sweep to rounding accuracy (the colored schedule
    /// permutes the summation order).
    pub fn assemble_parallel_into_on(
        &self,
        team: &lv_runtime::Team,
        velocity: &VectorField,
        pressure: &Field,
        matrix: &mut CsrMatrix,
        rhs: &mut [f64],
        workspaces: &mut [ElementWorkspace],
    ) -> AssemblyStats {
        assert_eq!(rhs.len(), NDIME * self.mesh.num_nodes());
        self.clear_system(matrix, rhs);
        let partial = parallel::colored_sweep(
            team,
            &self.mesh,
            &self.topology,
            &self.shape,
            &self.config,
            velocity,
            pressure,
            self.colored_chunks(),
            workspaces,
            matrix,
            rhs,
        );
        AssemblyStats {
            chunks: partial.chunks,
            elements: partial.elements,
            singular_jacobians: partial.singular_jacobians,
            flops: partial.elements as f64 * phases::flops_per_element(self.config.semi_implicit),
        }
    }

    /// Integrates the geometry of the step's convective gather once
    /// ([`ConvectiveGeometry`]): the Jacobian kernel of phase 3 on the
    /// reference element of an unjittered box's lattice, or phase 1 and
    /// that kernel over every mesh-order chunk otherwise, one serial
    /// vectorised pass.  Explicit, not part of [`new`](Self::new): only a
    /// caller that steps ([`assemble_momentum_on`](crate::assemble_momentum_on))
    /// needs it.
    pub fn convective_geometry(&self) -> ConvectiveGeometry {
        let rows = PGAUS * phases::GEOMETRY_ROWS;
        if let Some(lattice) = self.mesh.lattice().filter(|lattice| !lattice.jittered) {
            let mut workspace = ElementWorkspace::new(1);
            let v = workspace.views_mut();
            for (x, x_a) in v.elcod.chunks_exact_mut(NDIME).zip(reference_corners(lattice)) {
                x.copy_from_slice(&x_a);
            }
            let mut values = vec![0.0; rows];
            let singular_jacobians = phases::phase3_geometry_slices(&self.shape, &v, &mut values);
            return ConvectiveGeometry { values, stride: 0, singular_jacobians };
        }
        let vs = self.config.vector_size;
        let stride = self.mesh.num_elements() + vs;
        let mut workspace = ElementWorkspace::new(vs);
        let (mut values, mut chunk_rows) = (vec![0.0; rows * stride], vec![0.0; rows * vs]);
        let mut singular_jacobians = 0;
        for chunk in &self.chunks {
            let mut v = workspace.views_mut();
            phases::phase1_gather_coords_slices(&self.mesh, chunk, &mut v);
            singular_jacobians += phases::phase3_geometry_slices(&self.shape, &v, &mut chunk_rows);
            for (r, chunk_row) in chunk_rows.chunks_exact(vs).enumerate() {
                values[r * stride + chunk.first_element..][..chunk.len]
                    .copy_from_slice(&chunk_row[..chunk.len]);
            }
        }
        ConvectiveGeometry { values, stride, singular_jacobians }
    }

    /// The shape functions and derivatives at the Gauss points.
    pub(crate) fn shape(&self) -> &ShapeTable {
        &self.shape
    }

    /// The node graph and slot map the sweeps scatter through — pass it to
    /// [`PressureOperators::with_topology`](crate::PressureOperators::with_topology)
    /// to build the projection operators of the same mesh without a second
    /// graph.  The sweeps' schedule is
    /// [`colored_chunks`](Self::colored_chunks).
    pub fn topology(&self) -> &Arc<MeshTopology> {
        &self.topology
    }

    /// The colored chunk schedule of the mini-app's parallel sweep: the
    /// blocks of [`chunks`](Self::chunks), colored against each other
    /// (least-populated allowed color, so the per-color chunk counts stay
    /// even and the sweep's trailing chunks do not idle workers).  Built on
    /// first use.
    pub fn colored_chunks(&self) -> &ColoredChunks {
        self.colored.get_or_init(|| {
            let colored = ColoredChunks::mesh_order(&self.mesh, self.config.vector_size);
            // The `unsafe` scatter of the colored sweep is sound only if the
            // chunks of a color share no node — now that the slots *of* a
            // chunk do, nothing weaker than the schedule's own validation
            // says so.
            debug_assert!(
                colored.validate(&self.mesh).is_empty(),
                "{:?}",
                colored.validate(&self.mesh)
            );
            colored
        })
    }

    /// Applies Dirichlet boundary conditions to an assembled system: wall,
    /// lid and inflow rows become identity rows with zero RHS increment (the
    /// velocity increment at prescribed nodes is zero).  `matrix` is the
    /// mini-app's [`CsrMatrix`] or the step's [`DiaMatrix`]; the rows come
    /// out the same bits in either storage.
    pub fn apply_dirichlet(&self, matrix: &mut impl DirichletRows, rhs: &mut [f64]) {
        use lv_mesh::BoundaryTag;
        for node in 0..self.mesh.num_nodes() {
            match self.mesh.boundary_tag(node) {
                BoundaryTag::Wall | BoundaryTag::Lid | BoundaryTag::Inflow => {
                    // The matrix is shared by the NDIME components; zero the
                    // corresponding RHS entries and make the row an identity
                    // row once.
                    matrix.dirichlet_row(node);
                    for d in 0..NDIME {
                        rhs[NDIME * node + d] = 0.0;
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptLevel;
    use crate::projection::on_node_graph;
    use lv_mesh::structured::BoxMeshBuilder;
    use lv_mesh::Vec3;

    fn cavity(n: usize) -> Mesh {
        BoxMeshBuilder::new(n, n, n).lid_driven_cavity().with_jitter(0.1, 11).build()
    }

    fn state(mesh: &Mesh) -> (VectorField, Field) {
        let mut v = VectorField::taylor_green(mesh);
        v.apply_boundary_conditions(mesh, Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO);
        (v, Field::from_fn(mesh, |p| p.x * p.y))
    }

    /// The oracle of [`NastinAssembly::assemble_into_slices`]: the same
    /// mesh-order chunks through the accessor phases of `phases::oracle`,
    /// into fresh storage, on the caller's (possibly poisoned) workspace.
    fn assemble_accessor(
        asm: &NastinAssembly,
        (v, p): &(VectorField, Field),
        ws: &mut ElementWorkspace,
    ) -> AssemblyOutput {
        use crate::phases::oracle;
        let mut matrix = asm.new_matrix();
        let mut rhs = vec![0.0; NDIME * asm.mesh.num_nodes()];
        let mut stats = AssemblyStats::default();
        let h_char = asm.mesh.characteristic_length();
        for chunk in &asm.chunks {
            ws.reset();
            oracle::phase1_gather_coords(&asm.mesh, chunk, ws);
            oracle::phase2_gather_unknowns(&asm.mesh, v, p, chunk, ws);
            stats.singular_jacobians += oracle::phase3_jacobian(&asm.shape, chunk, ws);
            oracle::phase4_gauss_values(&asm.shape, chunk, ws);
            oracle::phase5_stabilization(&asm.config, h_char, chunk, ws);
            oracle::phase6_convective(&asm.shape, &asm.config, chunk, ws);
            oracle::phase7_viscous(&asm.shape, &asm.config, chunk, ws);
            oracle::phase8_scatter(&asm.mesh, &asm.config, chunk, ws, &mut matrix, &mut rhs);
            stats.chunks += 1;
            stats.elements += chunk.len;
        }
        stats.flops = stats.elements as f64 * phases::flops_per_element(asm.config.semi_implicit);
        AssemblyOutput { matrix, rhs, stats }
    }

    /// The colored sweep on `team`, one workspace per rank, into fresh
    /// storage.
    fn colored(
        asm: &NastinAssembly,
        v: &VectorField,
        p: &Field,
        team: &lv_runtime::Team,
    ) -> AssemblyOutput {
        let mut matrix = asm.new_matrix();
        let mut rhs = vec![0.0; NDIME * asm.mesh().num_nodes()];
        let mut workspaces: Vec<ElementWorkspace> = (0..team.num_threads())
            .map(|_| ElementWorkspace::new(asm.config().vector_size))
            .collect();
        let stats =
            asm.assemble_parallel_into_on(team, v, p, &mut matrix, &mut rhs, &mut workspaces);
        AssemblyOutput { matrix, rhs, stats }
    }

    fn assert_same_output(a: &AssemblyOutput, b: &AssemblyOutput, what: &str) {
        assert_eq!(a.stats, b.stats, "{what}: stats");
        for (k, (x, y)) in a.rhs.iter().zip(&b.rhs).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: rhs[{k}] {x} vs {y}");
        }
        for (k, (x, y)) in a.matrix.values().iter().zip(b.matrix.values()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: matrix[{k}] {x} vs {y}");
        }
    }

    #[test]
    fn assembly_produces_finite_output() {
        let mesh = cavity(4);
        let (v, p) = state(&mesh);
        let asm = NastinAssembly::new(mesh, KernelConfig::new(16, OptLevel::Original));
        let out = asm.assemble(&v, &p);
        assert_eq!(out.stats.elements, 64);
        assert_eq!(out.stats.singular_jacobians, 0);
        assert!(out.rhs.iter().all(|x| x.is_finite()));
        assert!(out.matrix.values().iter().all(|x| x.is_finite()));
        assert!(out.stats.flops > 0.0);
    }

    #[test]
    fn result_is_independent_of_vector_size() {
        // The VECTOR_SIZE blocking is purely an implementation parameter: the
        // assembled system must be identical (up to floating-point roundoff
        // from summation order, which is also identical here because the
        // element order within the accumulation is unchanged).
        let mesh = cavity(4);
        let (v, p) = state(&mesh);
        let reference =
            NastinAssembly::new(mesh.clone(), KernelConfig::new(16, OptLevel::Original))
                .assemble(&v, &p);
        for vs in [64, 240, 512] {
            let out = NastinAssembly::new(mesh.clone(), KernelConfig::new(vs, OptLevel::Vec1))
                .assemble(&v, &p);
            for (a, b) in reference.rhs.iter().zip(&out.rhs) {
                assert!((a - b).abs() < 1e-11, "rhs mismatch for VECTOR_SIZE={vs}");
            }
            for (a, b) in reference.matrix.values().iter().zip(out.matrix.values()) {
                assert!((a - b).abs() < 1e-11, "matrix mismatch for VECTOR_SIZE={vs}");
            }
        }
    }

    #[test]
    fn explicit_scheme_assembles_no_matrix() {
        let mesh = cavity(3);
        let (v, p) = state(&mesh);
        let config = KernelConfig::new(32, OptLevel::Original).explicit_scheme();
        let out = NastinAssembly::new(mesh, config).assemble(&v, &p);
        assert_eq!(out.matrix.frobenius_norm(), 0.0);
        assert!(out.rhs.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn semi_implicit_matrix_is_solvable() {
        let mesh = cavity(3);
        let (v, p) = state(&mesh);
        let asm = NastinAssembly::new(mesh, KernelConfig::new(64, OptLevel::Vec1));
        let mut out = asm.assemble(&v, &p);
        asm.apply_dirichlet(&mut out.matrix, &mut out.rhs);
        // Solve one component system with BiCGSTAB.
        let n = asm.mesh().num_nodes();
        let b: Vec<f64> = (0..n).map(|i| out.rhs[NDIME * i]).collect();
        let team = lv_runtime::Team::new(1);
        let options = lv_solver::SolveOptions::default();
        let solution = lv_solver::bicgstab_on(&team, &out.matrix, &b, &options).unwrap();
        assert!(solution.final_residual() < 1e-8);
    }

    #[test]
    fn chunk_count_matches_mesh_and_vector_size() {
        let mesh = cavity(4); // 64 elements
        let asm = NastinAssembly::new(mesh, KernelConfig::new(24, OptLevel::Original));
        assert_eq!(asm.chunks().num_chunks(), 3);
        let (v, p) = state(asm.mesh());
        let out = asm.assemble(&v, &p);
        assert_eq!(out.stats.chunks, 3);
    }

    #[test]
    fn slice_driver_is_bitwise_identical_to_accessor_driver() {
        // Each mesh with the VECTOR_SIZEs and schemes it is assembled at:
        // full chunks, VS 1, padded last chunks (VS 24 on 64 elements, 8 and
        // 32 on 45) and a mostly-padding single chunk (VS 64 on 45, 240 on
        // 64).  Both drivers run from a fresh workspace and from one
        // poisoned with each of the oracle's values (`reset` only clears the
        // accumulators): every run must carry the bits of the fresh oracle.
        let fast_path = |n: [usize; 3]| {
            let mesh = BoxMeshBuilder::new(n[0], n[1], n[2])
                .lid_driven_cavity()
                .with_jitter(0.12, 23)
                .build();
            let (v, _) = state(&mesh);
            let p = Field::from_fn(&mesh, |p| p.x * p.y - 0.5 * p.z);
            (mesh, (v, p))
        };
        let with_state = |mesh: Mesh| {
            let fields = state(&mesh);
            (mesh, fields)
        };
        let cases = [
            (with_state(cavity(4)), &[24usize][..], &[true][..]),
            (fast_path([3, 3, 5]), &[1, 8, 32, 64][..], &[true, false][..]),
            (fast_path([4, 4, 4]), &[8, 16, 24, 240][..], &[true, false][..]),
        ];
        for ((mesh, fields), sizes, schemes) in &cases {
            let (v, p) = fields;
            for &vs in *sizes {
                for &semi_implicit in *schemes {
                    let config =
                        KernelConfig { semi_implicit, ..KernelConfig::new(vs, OptLevel::Vec1) };
                    let asm = NastinAssembly::new(mesh.clone(), config);
                    let what =
                        format!("{} elements, vs={vs}, semi={semi_implicit}", mesh.num_elements());
                    let oracle = assemble_accessor(&asm, fields, &mut ElementWorkspace::new(vs));
                    assert_same_output(&oracle, &asm.assemble(v, p), &what);
                    for poison in crate::phases::oracle::POISONS {
                        let what = format!("{what}, poison={poison}");
                        let mut ws = ElementWorkspace::new(vs);
                        ws.poison(poison);
                        let stale = assemble_accessor(&asm, fields, &mut ws);
                        assert_same_output(&oracle, &stale, &format!("{what}, oracle"));
                        // Into the storage of a finished sweep: it must be
                        // zeroed, not added to.
                        let mut slices = asm.assemble(v, p);
                        let (matrix, rhs) = (&mut slices.matrix, &mut slices.rhs);
                        ws.poison(poison);
                        slices.stats = asm.assemble_into_slices(v, p, matrix, rhs, &mut ws);
                        assert_same_output(&oracle, &slices, &format!("{what}, slices"));
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_driver_is_bitwise_reproducible_across_thread_counts() {
        let mesh = cavity(4);
        let (v, p) = state(&mesh);
        let asm = NastinAssembly::new(mesh, KernelConfig::new(16, OptLevel::Vec1));
        let reference = colored(&asm, &v, &p, &lv_runtime::Team::new(1));
        for threads in [2usize, 4] {
            let out = colored(&asm, &v, &p, &lv_runtime::Team::new(threads));
            assert_same_output(&reference, &out, &format!("{threads} threads"));
        }
    }

    #[test]
    fn parallel_driver_matches_serial_to_rounding_accuracy() {
        // 216 elements in 7 chunks of 32, 3 colors: (color, chunk) order
        // visits the chunks as 0 3 6 | 1 4 | 2 5, so the rows two chunks
        // share are summed in another order than the serial sweep sums them
        // — equal to rounding accuracy, not bitwise.  Measured: 2.8e-17
        // absolute at worst (`tests/fast_path.rs` pins the same comparison
        // row-wise on 12³: within 4 ε of a row's scale, the bound the
        // element-colored schedule had).
        let mesh = cavity(6);
        let (v, p) = state(&mesh);
        let asm = NastinAssembly::new(mesh, KernelConfig::new(32, OptLevel::Vec1));
        assert_eq!(asm.colored_chunks().num_colors(), 3);
        let serial = asm.assemble(&v, &p);
        let parallel = colored(&asm, &v, &p, &lv_runtime::Team::new(3));
        assert_eq!(parallel.stats.elements, serial.stats.elements);
        assert_eq!(parallel.stats.singular_jacobians, 0);
        let mut differing = 0usize;
        for (a, b) in serial.rhs.iter().zip(&parallel.rhs) {
            differing += usize::from(a != b);
            assert!((a - b).abs() < 1e-15, "rhs {a} vs {b}");
        }
        for (a, b) in serial.matrix.values().iter().zip(parallel.matrix.values()) {
            differing += usize::from(a != b);
            assert!((a - b).abs() < 1e-15, "matrix {a} vs {b}");
        }
        assert!(differing > 0);
    }

    #[test]
    fn two_sweeps_on_one_team_are_bitwise_identical() {
        // The same pool and the same storage twice: reuse must not change
        // anything.
        let mesh = cavity(4);
        let (v, p) = state(&mesh);
        let asm = NastinAssembly::new(mesh, KernelConfig::new(16, OptLevel::Vec1));
        let team = lv_runtime::Team::new(3);
        let mut matrix = asm.new_matrix();
        let mut rhs = vec![0.0; NDIME * asm.mesh().num_nodes()];
        let mut workspaces: Vec<ElementWorkspace> =
            (0..3).map(|_| ElementWorkspace::new(16)).collect();
        let mut sweeps = Vec::new();
        for _ in 0..2 {
            let stats = asm.assemble_parallel_into_on(
                &team,
                &v,
                &p,
                &mut matrix,
                &mut rhs,
                &mut workspaces,
            );
            assert_eq!(stats.elements, 64);
            sweeps.push((matrix.clone(), rhs.clone()));
        }
        assert_same_system(&sweeps[0], &sweeps[1], "second sweep on the same team");
    }

    #[test]
    fn team_larger_than_workspace_set_is_tolerated() {
        // Surplus ranks only keep the color barriers balanced; the schedule
        // is still the 2-workspace one, so the result matches it bitwise.
        let mesh = cavity(3);
        let (v, p) = state(&mesh);
        let asm = NastinAssembly::new(mesh, KernelConfig::new(8, OptLevel::Vec1));
        let reference = colored(&asm, &v, &p, &lv_runtime::Team::new(2));
        let team = lv_runtime::Team::new(5);
        let mut matrix = asm.new_matrix();
        let mut rhs = vec![0.0; NDIME * asm.mesh().num_nodes()];
        let mut workspaces: Vec<ElementWorkspace> =
            (0..2).map(|_| ElementWorkspace::new(8)).collect();
        let stats =
            asm.assemble_parallel_into_on(&team, &v, &p, &mut matrix, &mut rhs, &mut workspaces);
        assert_eq!(stats.elements, 27);
        assert_same_system(&(reference.matrix, reference.rhs), &(matrix, rhs), "5-rank team");
    }

    /// A matrix, right-hand side and one workspace per rank of `team`, all
    /// full of garbage: a sweep that reads anything it did not write shows.
    fn poisoned_storage(
        asm: &NastinAssembly,
        team: &lv_runtime::Team,
    ) -> (CsrMatrix, Vec<f64>, Vec<ElementWorkspace>) {
        let mut matrix = asm.new_matrix();
        matrix.pattern_and_values_mut().2.fill(f64::NAN);
        let mut workspaces: Vec<ElementWorkspace> = (0..team.num_threads())
            .map(|_| ElementWorkspace::new(asm.config().vector_size))
            .collect();
        workspaces.iter_mut().for_each(|ws| ws.poison(-7.25));
        (matrix, vec![f64::NAN; NDIME * asm.mesh().num_nodes()], workspaces)
    }

    /// [`poisoned_storage`] with the step's momentum matrix.
    fn poisoned_momentum_storage(
        asm: &NastinAssembly,
        team: &lv_runtime::Team,
    ) -> (DiaMatrix, Vec<f64>, Vec<ElementWorkspace>) {
        let (_, rhs, workspaces) = poisoned_storage(asm, team);
        let mut matrix = asm.new_momentum_matrix();
        matrix.values_mut().fill(f64::NAN);
        (matrix, rhs, workspaces)
    }

    /// The system of a time step through [`crate::assemble_momentum_on`],
    /// from poisoned storage, in its CSR form.
    fn step_system(
        team: &lv_runtime::Team,
        asm: &NastinAssembly,
        ops: &crate::PressureOperators,
        dt: f64,
        (v, p): &(VectorField, Field),
    ) -> (CsrMatrix, Vec<f64>) {
        let (mut matrix, mut rhs, mut workspaces) = poisoned_momentum_storage(asm, team);
        let geometry = asm.convective_geometry();
        crate::assemble_momentum_on(
            team,
            asm,
            &geometry,
            ops,
            dt,
            v,
            p,
            &mut matrix,
            &mut rhs,
            &mut workspaces,
        );
        (on_node_graph(&matrix, asm.topology()), rhs)
    }

    /// The oracle of [`step_system`]: the paper's eight phases through the
    /// accessor phases of `phases::oracle`, mesh-order chunk by chunk, then
    /// the weak pressure gradient.  Every phase integrates the coordinates
    /// the step's integrals do: on an unjittered box the reference
    /// element's — the step's convection reads the reference element's one
    /// geometry entry, its `K` and `M` are that element's class stencils —
    /// and each element's own on a jittered box.
    fn oracle_system(
        team: &lv_runtime::Team,
        asm: &NastinAssembly,
        ops: &crate::PressureOperators,
        (v, p): &(VectorField, Field),
    ) -> (CsrMatrix, Vec<f64>) {
        use crate::phases::oracle;
        let reference = asm
            .mesh
            .lattice()
            .filter(|lattice| !lattice.jittered)
            .map(crate::projection::reference_corners);
        let mut matrix = asm.new_matrix();
        let mut rhs = vec![0.0; NDIME * asm.mesh.num_nodes()];
        let mut ws = ElementWorkspace::new(asm.config.vector_size);
        ws.poison(-7.25);
        let h_char = asm.mesh.characteristic_length();
        for chunk in &asm.chunks {
            ws.reset();
            oracle::phase1_gather_coords(&asm.mesh, chunk, &mut ws);
            if let Some(x) = &reference {
                for ivect in 0..chunk.vector_size {
                    for (inode, x_a) in x.iter().enumerate() {
                        for (idime, &x_ai) in x_a.iter().enumerate() {
                            ws.set_elcod(inode, idime, ivect, x_ai);
                        }
                    }
                }
            }
            oracle::phase2_gather_unknowns(&asm.mesh, v, p, chunk, &mut ws);
            assert_eq!(oracle::phase3_jacobian(&asm.shape, chunk, &mut ws), 0);
            oracle::phase4_gauss_values(&asm.shape, chunk, &mut ws);
            oracle::phase5_stabilization(&asm.config, h_char, chunk, &mut ws);
            oracle::phase6_convective(&asm.shape, &asm.config, chunk, &mut ws);
            oracle::phase7_viscous(&asm.shape, &asm.config, chunk, &mut ws);
            oracle::phase8_scatter(&asm.mesh, &asm.config, chunk, &ws, &mut matrix, &mut rhs);
        }
        ops.subtract_weak_gradient_on(team, p.as_slice(), &mut rhs);
        (matrix, rhs)
    }

    /// Worst deviation of the step's system from the oracle's, in units of
    /// `ε·max_b|A_ab|` over the matrix rows and of
    /// `ε·(Σ_b|A_ab||u_b| + Σ_b|c_ab||p_b|)` over the right-hand side.
    fn deviation_in_row_epsilons(
        ops: &crate::PressureOperators,
        (v, p): &(VectorField, Field),
        (matrix, rhs): &(CsrMatrix, Vec<f64>),
        (oracle, oracle_rhs): &(CsrMatrix, Vec<f64>),
    ) -> (f64, f64) {
        let (vel, p) = (v.as_slice(), p.as_slice());
        let (mut worst_matrix, mut worst_rhs) = (0.0f64, 0.0f64);
        let coef = ops.coefficients();
        for a in 0..oracle.dim() {
            let entries = oracle.row_ptr()[a]..oracle.row_ptr()[a + 1];
            let cols = &oracle.col_idx()[entries.clone()];
            let coef = &coef[NDIME * entries.start..NDIME * entries.end];
            let (row, oracle_row) = (&matrix.values()[entries.clone()], &oracle.values()[entries]);
            let largest = oracle_row.iter().fold(0.0f64, |m, x| m.max(x.abs()));
            for (x, y) in row.iter().zip(oracle_row) {
                assert!(x.is_finite(), "row {a} of the step's matrix holds {x}");
                worst_matrix = worst_matrix.max((x - y).abs() / (f64::EPSILON * largest));
            }
            for i in 0..NDIME {
                let scale: f64 = cols
                    .iter()
                    .zip(oracle_row)
                    .zip(coef.chunks_exact(NDIME))
                    .map(|((&b, a_ab), c)| {
                        a_ab.abs() * vel[NDIME * b + i].abs() + c[i].abs() * p[b].abs()
                    })
                    .sum();
                let d = (rhs[NDIME * a + i] - oracle_rhs[NDIME * a + i]).abs();
                assert!(d.is_finite(), "entry {i} of row {a} of the step's right-hand side");
                if d > 0.0 {
                    worst_rhs = worst_rhs.max(d / (f64::EPSILON * scale));
                }
            }
        }
        (worst_matrix, worst_rhs)
    }

    fn assert_same_system(a: &(CsrMatrix, Vec<f64>), b: &(CsrMatrix, Vec<f64>), what: &str) {
        for (x, y) in a.0.values().iter().zip(b.0.values()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: matrix");
        }
        for (x, y) in a.1.iter().zip(&b.1) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: rhs");
        }
    }

    /// The meshes the step's system is compared on: 4³ elements (125 rows,
    /// every row pass serial), 10³ (1331 rows: above `SERIAL_CUTOFF`, the
    /// passes fork) and 8³ of the `assembly_vs` benchmark's cavity (jitter
    /// 0.15, seed 1).
    fn step_meshes() -> Vec<(&'static str, Mesh)> {
        let jittered = |n| BoxMeshBuilder::new(n, n, n).lid_driven_cavity().with_jitter(0.1, 11);
        vec![
            ("4^3 jittered", jittered(4).build()),
            ("4^3 box", BoxMeshBuilder::new(4, 4, 4).lid_driven_cavity().build()),
            ("10^3 jittered", jittered(10).build()),
            ("10^3 box", BoxMeshBuilder::new(10, 10, 10).lid_driven_cavity().build()),
            (
                "8^3 benchmark",
                BoxMeshBuilder::new(8, 8, 8).lid_driven_cavity().with_jitter(0.15, 1).build(),
            ),
        ]
    }

    #[test]
    fn step_system_matches_the_eight_phase_oracle_to_a_row_wise_epsilon_bound() {
        // Another operation order of the same integrals (the viscous and
        // mass entries summed at set-up, the convection integrated in
        // reference space and summed row by row by the lattice gather, the
        // right-hand side a row product of rounded matrix entries).
        // The oracle integrates each term from the coordinates the step's
        // integral does (see `oracle_system`); with the convection on each
        // element's own coordinates the 10³ box reads 4.83 ε in the matrix.
        // Measured worst cases over the meshes, vector sizes and both time
        // steps below: 2.74 ε of the row's largest entry in the matrix;
        // 6.74 ε of Σ|A||u| + Σ|c||p| in the right-hand side (the 10³ box at
        // Δt = 0.1; 0.61 ε at Δt = 0.013, where the mass block dominates the
        // scale).
        const MATRIX_EPSILONS: f64 = 4.0;
        const RHS_EPSILONS: f64 = 16.0;
        let team = lv_runtime::Team::new(2);
        for (name, mesh) in &step_meshes() {
            let fields = state(mesh);
            for vs in [1usize, 16, 17, 128] {
                let config = KernelConfig::new(vs, OptLevel::Vec1);
                let asm = NastinAssembly::new(mesh.clone(), config);
                let ops = crate::PressureOperators::with_topology(mesh, asm.topology().clone());
                // Two consecutive assemblies into the same storage at
                // different time steps: nothing of the first may survive.
                let (mut matrix, mut rhs, mut workspaces) = poisoned_momentum_storage(&asm, &team);
                // One table and one assembly for both time steps: neither
                // knows the step's Δt.
                let geometry = asm.convective_geometry();
                for dt in [0.013, 0.1] {
                    let (v, p) = &fields;
                    crate::assemble_momentum_on(
                        &team,
                        &asm,
                        &geometry,
                        &ops,
                        dt,
                        v,
                        p,
                        &mut matrix,
                        &mut rhs,
                        &mut workspaces,
                    );
                    let reused = (on_node_graph(&matrix, asm.topology()), rhs.clone());
                    let what = format!("{name}, VS {vs}, dt {dt}");
                    let fresh = step_system(&team, &asm, &ops, dt, &fields);
                    assert_same_system(&reused, &fresh, &what);
                    // The eight phases read Δt from their configuration.
                    let eight_phases = NastinAssembly::with_topology(
                        mesh.clone(),
                        config.with_dt(dt),
                        asm.topology().clone(),
                    );
                    let oracle = oracle_system(&team, &eight_phases, &ops, &fields);
                    let (in_matrix, in_rhs) =
                        deviation_in_row_epsilons(&ops, &fields, &reused, &oracle);
                    assert!(in_matrix <= MATRIX_EPSILONS, "{what}: matrix off by {in_matrix} eps");
                    assert!(in_rhs <= RHS_EPSILONS, "{what}: rhs off by {in_rhs} eps");
                    println!("{what}: matrix {in_matrix:.2} eps, rhs {in_rhs:.2} eps");
                }
            }
        }
    }

    #[test]
    fn step_system_is_bitwise_identical_across_thread_counts() {
        for (name, mesh) in &step_meshes() {
            let fields = state(mesh);
            let asm = NastinAssembly::new(mesh.clone(), KernelConfig::new(16, OptLevel::Vec1));
            let ops = crate::PressureOperators::with_topology(mesh, asm.topology().clone());
            let dt = asm.config().dt;
            let reference = step_system(&lv_runtime::Team::new(1), &asm, &ops, dt, &fields);
            assert!(reference.1.iter().any(|&r| r != 0.0));
            for threads in [2usize, 4] {
                let system = step_system(&lv_runtime::Team::new(threads), &asm, &ops, dt, &fields);
                assert_same_system(&system, &reference, &format!("{name}, {threads} threads"));
            }
        }
    }

    /// `assemble_momentum_on` with the given pieces, from fresh storage.
    fn step_with(asm: &NastinAssembly, geometry: &ConvectiveGeometry, matrix: &mut DiaMatrix) {
        let mesh = asm.mesh();
        let (v, p) = state(mesh);
        let ops = crate::PressureOperators::with_topology(mesh, asm.topology().clone());
        let mut rhs = vec![0.0; NDIME * mesh.num_nodes()];
        let mut workspaces = vec![ElementWorkspace::new(asm.config().vector_size)];
        let team = lv_runtime::Team::new(1);
        crate::assemble_momentum_on(
            &team,
            asm,
            geometry,
            &ops,
            0.01,
            &v,
            &p,
            matrix,
            &mut rhs,
            &mut workspaces,
        );
    }

    #[test]
    #[should_panic(expected = "semi-implicit")]
    fn momentum_assembly_rejects_the_explicit_scheme() {
        let config = KernelConfig::new(16, OptLevel::Vec1).explicit_scheme();
        let asm = NastinAssembly::new(cavity(3), config);
        step_with(&asm, &asm.convective_geometry(), &mut asm.new_momentum_matrix());
    }

    #[test]
    #[should_panic(expected = "sparsity pattern")]
    fn momentum_assembly_rejects_a_foreign_pattern() {
        let asm = NastinAssembly::new(cavity(3), KernelConfig::new(16, OptLevel::Vec1));
        let other = NastinAssembly::new(cavity(2), KernelConfig::new(16, OptLevel::Vec1));
        step_with(&asm, &asm.convective_geometry(), &mut other.new_momentum_matrix());
    }

    #[test]
    #[should_panic(expected = "another assembly")]
    fn momentum_assembly_rejects_the_geometry_of_another_assembly() {
        let asm = NastinAssembly::new(cavity(3), KernelConfig::new(16, OptLevel::Vec1));
        let other = NastinAssembly::new(cavity(3), KernelConfig::new(8, OptLevel::Vec1));
        step_with(&asm, &other.convective_geometry(), &mut asm.new_momentum_matrix());
    }

    #[test]
    fn geometry_is_one_entry_on_a_box_and_a_row_per_value_otherwise() {
        // 27 elements at VS 16: a jittered box keeps every element's 80
        // values, each row padded by a chunk; an unjittered one keeps the
        // reference element's 80.
        let mesh = cavity(3);
        let asm = NastinAssembly::new(mesh.clone(), KernelConfig::new(16, OptLevel::Vec1));
        let geometry = asm.convective_geometry();
        assert!(geometry.per_element());
        assert_eq!(geometry.bytes(), PGAUS * phases::GEOMETRY_ROWS * (27 + 16) * 8);
        assert_eq!(geometry.singular_jacobians(), 0);
        assert!(geometry.values.iter().all(|x| x.is_finite()));
        // `gpvol` of an element's eight points sums to its volume.
        let phases::SlotGeometry::PerSlot { rows, stride } = geometry.slots(0) else {
            panic!("a jittered box has a row per value");
        };
        for elem in 0..27 {
            let volume: f64 = (0..PGAUS)
                .map(|g| rows[(g * phases::GEOMETRY_ROWS + NDIME * NDIME) * stride + elem])
                .sum();
            assert!((volume - mesh.element_volume(elem)).abs() < 1e-12);
        }
        let boxed = BoxMeshBuilder::new(3, 3, 3).lid_driven_cavity().build();
        let geometry =
            NastinAssembly::new(boxed, KernelConfig::new(16, OptLevel::Vec1)).convective_geometry();
        assert!(!geometry.per_element());
        assert_eq!(geometry.bytes(), 640);
        let phases::SlotGeometry::Shared(entry) = geometry.slots(5) else {
            panic!("an unjittered box has one entry");
        };
        let volume: f64 =
            (0..PGAUS).map(|g| entry[g * phases::GEOMETRY_ROWS + NDIME * NDIME]).sum();
        assert!((volume - 1.0 / 27.0).abs() < 1e-15);
        // An element collapsed to a point is singular at every integration
        // point; its inverse is stored as zero, not as infinities.
        let mut coords = mesh.coords().to_vec();
        for &node in mesh.element_nodes(13) {
            coords[3 * node as usize..3 * node as usize + 3].fill(0.5);
        }
        let tags = (0..mesh.num_nodes()).map(|n| mesh.boundary_tag(n)).collect();
        let collapsed = Mesh::from_raw(
            ElementKind::Hex8,
            coords,
            mesh.connectivity().to_vec(),
            tags,
            mesh.characteristic_length(),
        );
        let asm = NastinAssembly::new(collapsed, KernelConfig::new(16, OptLevel::Vec1));
        let geometry = asm.convective_geometry();
        assert!(geometry.singular_jacobians() >= PGAUS);
        assert!(geometry.values.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn the_geometry_entry_lies_within_the_element_tables_spread() {
        // The reference element's `J⁻¹` and `gpvol` against the table of
        // every element's own coordinates (the same box without its
        // lattice): per value and integration point within the elements'
        // range widened by `n·ε` of its magnitude.  Measured: inside the
        // range on every box.
        let mut worst = 0.0f64;
        for (name, mesh) in &crate::projection::unjittered_boxes() {
            let n = mesh.lattice().expect("a generated box").dims.into_iter().max().unwrap();
            let config = KernelConfig::new(16, OptLevel::Vec1);
            let entry = NastinAssembly::new(mesh.clone(), config).convective_geometry();
            let tags = (0..mesh.num_nodes()).map(|a| mesh.boundary_tag(a)).collect();
            let (coords, connectivity) = (mesh.coords().to_vec(), mesh.connectivity().to_vec());
            let h = mesh.characteristic_length();
            let own = Mesh::from_raw(ElementKind::Hex8, coords, connectivity, tags, h);
            let table = NastinAssembly::new(own, config).convective_geometry();
            let (
                phases::SlotGeometry::Shared(entry),
                phases::SlotGeometry::PerSlot { rows, stride },
            ) = (entry.slots(0), table.slots(0))
            else {
                panic!("{name}: one entry, and a table without the lattice");
            };
            let values = (0..mesh.num_elements()).flat_map(|e| {
                entry
                    .iter()
                    .enumerate()
                    .map(move |(r, &x)| (r, x, rows[r * stride + e], rows[r * stride + e]))
            });
            worst = worst.max(crate::projection::assert_within_class_spread(name, n, values));
        }
        println!("geometry entry beyond the elements' range: {worst:.2} n·ε");
    }

    #[test]
    fn coloring_accessors_expose_a_valid_schedule() {
        let mesh = cavity(4);
        let asm = NastinAssembly::new(mesh.clone(), KernelConfig::new(16, OptLevel::Vec1));
        assert!(asm.colored_chunks().validate(&mesh).is_empty());
        assert_eq!(asm.colored_chunks().num_elements(), 64);
    }

    #[test]
    #[should_panic]
    fn tet_mesh_is_rejected() {
        // Build a fake tet mesh through from_raw and make sure the assembly
        // constructor refuses it.
        let mesh = lv_mesh::Mesh::from_raw(
            lv_mesh::ElementKind::Tet4,
            vec![0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            vec![0, 1, 2, 3],
            vec![lv_mesh::BoundaryTag::Interior; 4],
            1.0,
        );
        let _ = NastinAssembly::new(mesh, KernelConfig::default());
    }
}
