//! Mesh-true pressure-projection operators: the discrete Laplacian, weak
//! divergence and weak gradient a fractional-step (Chorin) scheme needs,
//! assembled from the real hexahedral mesh with the same Q1 shape functions
//! and 2×2×2 Gauss rule as the Nastin assembly.
//!
//! The momentum mini-app stops at the predictor; these operators supply the
//! other half of a time step.  With `L_ab = ∫ ∇N_a·∇N_b dΩ` (the pressure
//! Laplacian), `d_a = ∫ N_a ∇·u_h dΩ` (the weak divergence) and
//! `g_{a,i} = ∫ N_a ∂p_h/∂x_i dΩ` (the weak gradient, lumped-mass scaled
//! into a nodal gradient by the driver), the projection step solves
//! `L φ = −(ρ/Δt) d(u*)` and corrects `u = u* − (Δt/ρ) M⁻¹ g(φ)`.
//!
//! ## Gradient and divergence: one tensor, two coefficient sources
//!
//! Both first-order operators are contractions of the same tensor
//! `C[a][b][i] = ∫ N_a ∂N_b/∂x_i dΩ`, which is non-zero only where nodes
//! `a` and `b` share an element — the node graph [`MeshTopology`] already
//! owns:
//!
//! ```text
//! g_{a,i} = Σ_b C[a][b][i] · p_b          d_a = Σ_b Σ_i C[a][b][i] · u_{b,i}
//! ```
//!
//! The mesh does not move, so `C` is built once at construction, from one
//! of two sources the mesh's lattice decides
//! ([`PressureOperators::gradient_storage`], named by the operator banner):
//!
//! * **Class stencils** on an unjittered generator box (the mesh carries a
//!   [`BoxLattice`] that is not
//!   [`jittered`](lv_mesh::BoxLattice::jittered)), every element the same
//!   hexahedron: one reference element of the lattice's spacing is
//!   integrated once and added into the ≤ 27 stencils of the nodes'
//!   position classes, in the element order of the integrating loop.  A
//!   pass walks x-line runs of one class (the interior run of a line is
//!   `nx − 1` rows) and computes windows of rows at once, unit-stride, from
//!   a table of a few kilobytes: no coefficient array, no column index.
//!   The rows differ from the integrated ones only by the coordinate
//!   rounding of the integrated elements.
//! * **Per entry** on a jittered box, where every element has a geometry of
//!   its own: `NDIME` values per stored entry of the graph, integrated
//!   element by element and filled through the element→CSR slot map; every
//!   application is a sparse row product, one indexed load stream.
//!
//! Either way a row adds its taps in ascending column order from `+0.0`.
//! Above the solver's serial cutoff ([`team_above_cutoff`]),
//! [`for_each_share`] hands each rank of the team its own static-partition
//! share of the output rows — the split the solver's SpMV uses, which may
//! cut an x-line anywhere.  A row is written by exactly one rank, so the
//! operators are **bitwise identical for every thread count** by
//! construction, the contract of the row-partitioned SpMV.  The driver's
//! per-node glue (`rhs −= g`, `b = scale·d`, `u −= f/M·g`) rides in the
//! same row pass.
//!
//! ## Laplacian, mass and lumped mass: the same two sources
//!
//! The stiffness `K` (the un-pinned Laplacian's values), the consistent mass
//! `M`, the lumped mass and `w|J|` are set-up integrals, and the lattice
//! picks their source as it picks `C`'s
//! ([`PressureOperators::stiffness_source`], named by the banner's momentum
//! clause):
//!
//! * **Class stencils** on an unjittered generator box: the reference
//!   element that gives `C` gives its elemental `K`, `M` and `∫ N_a`, which
//!   `ClassStencils` (`stencil.rs`) sums per position class element by
//!   element in the mesh order of the loop below (the lumped mass rides on
//!   the diagonal tap).  `K` and `M` stay those stencils (a few dozen
//!   kilobytes where their diagonals are 7.8 MB each at 32³), the lumped
//!   mass is written out run by run, and `w|J|` is the reference element's
//!   eight values.  No element's coordinates are read, and the
//!   element→CSR slot map is never built.  The values are the loop's below
//!   run on the reference element's coordinates, bit for bit; from the loop on the
//!   box's own coordinates they differ by the coordinate rounding of the
//!   integrated elements (`K` within `n·ε` of a row's largest entry, `n`
//!   the element count of the longest direction; the volumes `M`, the
//!   lumped mass and `w|J|`, products of three edges, up to 2.5 `n·ε`).
//! * **Per element** on a jittered box: one element loop computes each
//!   element's geometry (`w|J|` and the Cartesian shape derivatives at
//!   every integration point) once, in mesh order, serially, and adds every
//!   set-up integral in that order, the per-entry `C` included — the same
//!   bits for every thread count and vector size.  The geometry itself is
//!   not kept: only `w|J|` stays resident, for the quadrature diagnostics.
//!
//! [`pinned_laplacian`](PressureOperators::pinned_laplacian) writes `K`
//! onto the momentum diagonals with the pressure pins applied — the
//! set-up's transient level 0 of the Poisson system and of its multigrid
//! hierarchy, built without a CSR matrix, which the step keeps as row
//! classes where they pay;
//! [`assemble_laplacian`](PressureOperators::assemble_laplacian) gathers a
//! CSR copy of `K` for the tests and the benchmark's probes.
//!
//! ## What a time step does not re-integrate
//!
//! Of the momentum matrix `ν·K + C(u) + (ρ/Δt)·M` only the convection
//! `C(u)` changes with the velocity.  The stiffness `K_ab = ∫ ∇N_a·∇N_b`
//! *is* the un-pinned Laplacian above, and the consistent mass
//! `M_ab = ∫ N_a N_b` comes from the same source beside it and the lumped
//! mass — pure functions of the mesh, like `C` (a restarted run rebuilds
//! the same bits).  The elements of a box lattice share one `(a, b) →
//! diagonal` table, the layout of the momentum matrix they seed
//! ([`crate::NastinAssembly::new_momentum_matrix`]): a jittered box holds
//! `K` and `M` as block-major arrays of that layout, value for value; an
//! unjittered box holds their class stencils, and a pass that writes the
//! matrix reads each class's taps laid on those diagonals, one constant
//! per run of rows and diagonal — the values of the arrays, so the same
//! bits.
//!
//! The step reads them twice, bitwise identical for every thread count —
//! each rank writes its own rows, no `unsafe`: `K` seeds the row sums of
//! [`crate::assemble_momentum_on`]'s lattice gather (`ν·K + C(u)`, every
//! value written once), and
//! [`momentum_residual_and_mass_on`](PressureOperators::momentum_residual_and_mass_on)
//! (`rhs_a = −Σ_b S_ab·u_b − g_a(p)`, the weak pressure gradient fused in,
//! then `values += (ρ/Δt)·M`, one traversal of each storage block for
//! both) follows it.  The same `M` gives the per-step kinetic energy
//! as `½ρ·uᵀ·M·u`
//! ([`kinetic_energy_on`](PressureOperators::kinetic_energy_on), by class
//! stencil in windows of rows, or over the diagonals) instead of a serial
//! element quadrature.

use crate::momentum::momentum_diagonals;
use crate::stencil::{ClassStencils, MatrixTap, Tap, CORNERS};
use crate::{NDIME, PGAUS, PNODE};
use lv_mesh::geometry::Point3;
use lv_mesh::quadrature::GaussRule;
use lv_mesh::{BoxLattice, ElementKind, Mesh, MeshTopology, ShapeTable, VectorField};
use lv_runtime::{blocked_reduce, for_each_share, Lanes, Team, REDUCTION_BLOCK};
use lv_solver::dia::{value_position, BLOCK_ROWS};
use lv_solver::parallel::team_above_cutoff;
use lv_solver::{CsrMatrix, DiaMatrix, MultiVector};
use std::ops::Range;
use std::sync::Arc;

/// The pressure-projection operators of one mesh: the Laplacian, mass and
/// gradient/divergence coefficients on the node graph.
#[derive(Debug, Clone)]
pub struct PressureOperators {
    mesh: Mesh,
    shape: ShapeTable,
    /// Weights of the 2×2×2 Gauss rule.
    weights: [f64; PGAUS],
    /// `∂N_a/∂ξ_j` per `(gauss, node, dim)`: the derivatives of `shape`,
    /// copied out so the geometry loop runs on fixed-size arrays.
    derivs: [[[f64; NDIME]; PNODE]; PGAUS],
    /// `N_a·N_b` per `(gauss, PNODE·a + b)`: one product for `(a, b)` and
    /// `(b, a)`, so the consistent mass comes out symmetric to the bit.
    shape_products: [[f64; PNODE * PNODE]; PGAUS],
    /// `w_g · |J|` per `(element, gauss)`, `gpvol[PGAUS*elem + g]`; on an
    /// unjittered box the one reference element's (see
    /// [`element_vol`](Self::element_vol)).
    gpvol: Vec<f64>,
    /// Where `C[a][b][i] = ∫ N_a ∂N_b/∂x_i dΩ` comes from.
    gradient: Gradient,
    /// Lumped (row-sum) mass per node: `M_a = ∫ N_a dΩ`.
    lumped_mass: Vec<f64>,
    /// Stiffness `K_ab = ∫ ∇N_a·∇N_b dΩ` (the values of the un-pinned
    /// Laplacian) and consistent mass `M_ab = ∫ N_a N_b dΩ`.
    matrices: Matrices,
    topology: Arc<MeshTopology>,
}

/// `K` and `M`, as the mesh allows.
#[derive(Debug, Clone)]
enum Matrices {
    /// The stencils of an unjittered generator box's position classes,
    /// generated from one reference element: `taps` as summed, and
    /// `on_diagonals` the same with each class's taps laid on the
    /// diagonals of the momentum matrix (`+0.0` where it has none), for
    /// the passes that write that layout.
    Stencils { taps: Box<ClassStencils<MatrixTap>>, on_diagonals: Box<ClassStencils<MatrixTap>> },
    /// Integrated on the diagonals of the momentum matrix, on a jittered
    /// box.
    Diagonals { stiffness: DiaMatrix, mass: DiaMatrix },
}

/// `K` and `M` over `rows`, rows of one storage block of the momentum
/// matrix, as the passes that write its values read them: diagonal by
/// diagonal ([`for_each_value`](Self::for_each_value)), each class run of
/// the rows found once for all of them.
pub(crate) struct BlockRows<'a> {
    rows: Range<usize>,
    source: BlockSource<'a>,
}

enum BlockSource<'a> {
    /// The class runs of the rows, each with its taps on the diagonals.
    Runs(Vec<(Range<usize>, &'a [Tap<MatrixTap>])>),
    Diagonals {
        stiffness: &'a DiaMatrix,
        mass: &'a DiaMatrix,
    },
}

impl BlockRows<'_> {
    /// `update(&mut out[i], X)` for every row `rows.start + i`, with `X`
    /// its entry of `M` (`mass`) or `K` on diagonal `k` — `+0.0` where the
    /// row has none, as on the diagonals themselves.
    ///
    /// # Panics
    /// Panics if `out` does not match the rows.
    #[inline(always)]
    pub(crate) fn for_each_value(
        &self,
        k: usize,
        mass: bool,
        out: &mut [f64],
        update: impl Fn(&mut f64, f64),
    ) {
        let first = self.rows.start;
        assert_eq!(out.len(), self.rows.len());
        match &self.source {
            BlockSource::Runs(runs) => {
                for (run, taps) in runs {
                    let tap = &taps[k].1;
                    let value = if mass { tap.mass } else { tap.stiffness };
                    for o in &mut out[run.start - first..run.end - first] {
                        update(o, value);
                    }
                }
            }
            BlockSource::Diagonals { stiffness, mass: m } => {
                let dia = if mass { m } else { stiffness };
                let at = value_position(dia.dim(), dia.offsets().len(), k, first);
                for (o, &value) in out.iter_mut().zip(&dia.values()[at..][..self.rows.len()]) {
                    update(o, value);
                }
            }
        }
    }
}

/// The coefficients of `C`, as the mesh allows.
#[derive(Debug, Clone)]
enum Gradient {
    /// The stencils of an unjittered generator box's position classes,
    /// generated from one reference element.
    Stencils(Box<ClassStencils>),
    /// Integrated per stored entry `k = (a, b)` of the topology's node
    /// graph, `coef[NDIME*k + i]`, on a jittered box.
    PerEntry(Vec<f64>),
}

/// Where the weak gradient and divergence read `C` from — a property of the
/// mesh, not a setting.  Its `Display` is what the operator banner names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradientStorage {
    /// At most 27 position-class stencils of an unjittered generator box
    /// ([`lv_mesh::BoxLattice`]), generated from one reference element:
    /// `classes` of them, 27 from two elements a side.
    ClassStencils {
        /// Position classes the box holds.
        classes: usize,
    },
    /// Integrated per stored entry: the lattice is jittered, every element
    /// has a geometry of its own.
    JitteredLattice,
}

impl std::fmt::Display for GradientStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GradientStorage::ClassStencils { classes } => write!(f, "{classes} class stencils"),
            GradientStorage::JitteredLattice => f.write_str("per-entry (jittered lattice)"),
        }
    }
}

/// Where `K`, `M` and the lumped mass come from — like
/// [`GradientStorage`], a property of the mesh.  Its `Display` is what the
/// operator banner's momentum clause names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StiffnessSource {
    /// Summed as the stencils of an unjittered generator box's position
    /// classes from one reference element, then written onto the
    /// diagonals: `classes` of them, 27 from two elements a side.
    ClassStencils {
        /// Position classes the box holds.
        classes: usize,
    },
    /// Integrated element by element: the lattice is jittered, every
    /// element has a geometry of its own.
    PerElement,
}

impl std::fmt::Display for StiffnessSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StiffnessSource::ClassStencils { classes } => write!(f, "{classes} class stencils"),
            StiffnessSource::PerElement => f.write_str("per element (jittered lattice)"),
        }
    }
}

/// Geometry of one element at its integration points.
#[derive(Clone, Copy)]
struct ElementGeometry {
    /// `w_g · |J|` per Gauss point.
    vol: [f64; PGAUS],
    /// Cartesian shape derivatives `∂N_a/∂x_i` per `(gauss, dim, node)` —
    /// node innermost, so loops over an element's nodes are unit-stride.
    car: [[[f64; PNODE]; NDIME]; PGAUS],
}

impl PressureOperators {
    /// Builds the operators of `mesh` on a topology of its own.
    /// `_vector_size` is ignored — nothing of the set-up is blocked — and
    /// kept only for the benchmark's set-up probe.
    ///
    /// # Panics
    /// Panics if the mesh is not hexahedral, carries no box lattice
    /// ([`Mesh::lattice`]) or contains a non-positive Jacobian (an inverted
    /// element).
    pub fn new(mesh: &Mesh, _vector_size: usize) -> Self {
        Self::with_topology(mesh, Arc::new(MeshTopology::new(mesh)))
    }

    /// Builds the Laplacian, the consistent and lumped mass and the
    /// gradient/divergence coefficients of `mesh` on an already-built
    /// topology of `mesh` (e.g.
    /// [`NastinAssembly::topology`](crate::NastinAssembly::topology)), so the
    /// node graph is not built a second time: from one reference element as
    /// class stencils on an unjittered box, in one mesh-order element loop
    /// on a jittered one.
    ///
    /// # Panics
    /// Panics like [`new`](Self::new), or if `topology` was built for a mesh
    /// of another size.
    pub fn with_topology(mesh: &Mesh, topology: Arc<MeshTopology>) -> Self {
        let mut ops = Self::unbuilt(mesh, topology);
        match mesh.lattice().filter(|lattice| !lattice.jittered) {
            Some(lattice) => ops.generate(lattice),
            None => ops.integrate(),
        }
        ops
    }

    /// The operators of `mesh` integrated element by element whatever its
    /// lattice — the jittered path on any box, the oracle of the class
    /// stencils.
    #[cfg(test)]
    pub(crate) fn per_element(mesh: &Mesh) -> Self {
        let mut ops = Self::unbuilt(mesh, Arc::new(MeshTopology::new(mesh)));
        ops.integrate();
        ops
    }

    /// The operators of `mesh` integrated element by element, every element
    /// on the coordinates of the reference element of the mesh's lattice:
    /// the integrals class stencils take, in the loop's order.
    #[cfg(test)]
    pub(crate) fn per_element_on_the_reference(mesh: &Mesh) -> Self {
        let mut ops = Self::unbuilt(mesh, Arc::new(MeshTopology::new(mesh)));
        let lattice = mesh.lattice().expect("a box lattice");
        let geometry = ops.geometry(&reference_corners(lattice), 0);
        ops.integrate_with(|_, _| geometry);
        ops
    }

    /// The operators of `mesh` with the shape table set and no coefficient.
    fn unbuilt(mesh: &Mesh, topology: Arc<MeshTopology>) -> Self {
        assert_eq!(
            mesh.kind(),
            ElementKind::Hex8,
            "the projection operators operate on hexahedral meshes"
        );
        assert!(mesh.lattice().is_some(), "the mesh has no box lattice");
        assert!(topology.fits(mesh), "the topology was built for another mesh");
        let rule = GaussRule::hex_2x2x2();
        let shape = ShapeTable::new(ElementKind::Hex8, &rule);
        let mut weights = [0.0; PGAUS];
        let mut derivs = [[[0.0; NDIME]; PNODE]; PGAUS];
        for (g, qp) in rule.points().iter().enumerate() {
            weights[g] = qp.weight;
            derivs[g].copy_from_slice(&shape.derivatives(g).d);
        }
        let mut shape_products = [[0.0f64; PNODE * PNODE]; PGAUS];
        for (g, products) in shape_products.iter_mut().enumerate() {
            let n = &shape.functions(g).n;
            for (ab, entry) in products.iter_mut().enumerate() {
                *entry = n[ab / PNODE] * n[ab % PNODE];
            }
        }
        PressureOperators {
            mesh: mesh.clone(),
            shape,
            weights,
            derivs,
            shape_products,
            gpvol: Vec::new(),
            gradient: Gradient::PerEntry(Vec::new()),
            lumped_mass: Vec::new(),
            matrices: Matrices::Diagonals {
                stiffness: DiaMatrix::zeros(0, Vec::new()),
                mass: DiaMatrix::zeros(0, Vec::new()),
            },
            topology,
        }
    }

    /// The diagonals of the step's momentum matrix.
    fn momentum_offsets(&self) -> &[isize] {
        momentum_diagonals(&self.topology)
            .expect("the elements of a box lattice share one diagonal table")
            .offsets()
    }

    /// An empty `n`-row matrix on the diagonals of the step's momentum
    /// matrix.
    fn momentum_layout(&self) -> DiaMatrix {
        DiaMatrix::zeros(self.mesh.num_nodes(), self.momentum_offsets().to_vec())
    }

    /// `K`, `M`, the lumped mass, `w|J|` and `C` of an unjittered box from
    /// one reference element of its spacing: `C`, `K` and `M` stay class
    /// stencils, summed element by element in the order of
    /// [`integrate`](Self::integrate); the lumped mass is written out run
    /// by run.
    fn generate(&mut self, lattice: &BoxLattice) {
        let geometry = self.geometry(&reference_corners(lattice), 0);
        let (el_stiff, el_mass) = self.element_matrices(&geometry);
        // The lumped mass `∫ N_a` rides on the diagonal tap, its Gauss
        // points added one by one as the loop adds them.
        let shape = &self.shape;
        let matrices = ClassStencils::new(lattice, |tap: &mut MatrixTap, a, b| {
            tap.stiffness += el_stiff[a][b];
            tap.mass += el_mass[PNODE * a + b];
            if a == b {
                for (g, vol) in geometry.vol.iter().enumerate() {
                    tap.lumped += vol * shape.functions(g).n[a];
                }
            }
        });
        let mut lumped_mass = vec![0.0; self.mesh.num_nodes()];
        matrices.for_each_run(0..lumped_mass.len(), |run, taps| {
            let t = taps.binary_search_by_key(&0, |&(o, _)| o).expect("a node is its neighbour");
            lumped_mass[run].fill(taps[t].1.lumped);
        });
        let on_diagonals = Box::new(matrices.aligned(self.momentum_offsets()));
        let element = self.element_gradient(&geometry);
        self.gpvol = geometry.vol.to_vec();
        self.gradient = Gradient::Stencils(Box::new(ClassStencils::gradient(lattice, &element)));
        self.lumped_mass = lumped_mass;
        self.matrices = Matrices::Stencils { taps: Box::new(matrices), on_diagonals };
    }

    /// `K`, `M`, the lumped mass, `w|J|` and `C` per entry, in one
    /// mesh-order element loop, serially: every value is the same bits for
    /// every thread count and vector size.  `K` and `M` go straight onto the
    /// diagonals the momentum matrix will have: entry `(a, b)` of every
    /// element lands at `(index[PNODE·a + b], node_a)` of the block-major
    /// arrays.
    fn integrate(&mut self) {
        self.integrate_with(Self::element_geometry);
    }

    /// [`integrate`](Self::integrate) with element `elem`'s geometry
    /// `geometry_of(self, elem)`.
    fn integrate_with(&mut self, geometry_of: impl Fn(&Self, usize) -> ElementGeometry) {
        let mesh = &self.mesh;
        let nelem = mesh.num_elements();
        let table = momentum_diagonals(&self.topology)
            .expect("the elements of a box lattice share one diagonal table");
        let (n, nd, index) = (mesh.num_nodes(), table.offsets().len(), table.index());
        let (mut stiffness, mut mass) = (self.momentum_layout(), self.momentum_layout());
        let mut gpvol = vec![0.0; nelem * PGAUS];
        let mut coef = vec![0.0; NDIME * self.topology.col_idx().len()];
        let mut lumped_mass = vec![0.0; n];
        for elem in 0..nelem {
            let geometry = geometry_of(self, elem);
            let nodes = mesh.element_nodes(elem);
            gpvol[PGAUS * elem..PGAUS * (elem + 1)].copy_from_slice(&geometry.vol);
            let (el_stiff, el_mass) = self.element_matrices(&geometry);
            for (ab, (m, k)) in el_mass.iter().zip(el_stiff.iter().flatten()).enumerate() {
                let row = nodes[ab / PNODE] as usize;
                let at = value_position(n, nd, index[ab] as usize, row);
                mass.values_mut()[at] += m;
                stiffness.values_mut()[at] += k;
            }
            for (a, &node) in nodes.iter().enumerate() {
                for (g, vol) in geometry.vol.iter().enumerate() {
                    lumped_mass[node as usize] += vol * self.shape.functions(g).n[a];
                }
            }
            let element = self.element_gradient(&geometry);
            let slots = self.topology.csr_slots(mesh, elem);
            for (el_a, slots_a) in element.iter().zip(slots.chunks_exact(PNODE)) {
                for (b, &slot) in slots_a.iter().enumerate() {
                    let k = NDIME * slot as usize;
                    for (c, el_ai) in coef[k..k + NDIME].iter_mut().zip(el_a) {
                        *c += el_ai[b];
                    }
                }
            }
        }
        self.gpvol = gpvol;
        self.gradient = Gradient::PerEntry(coef);
        self.lumped_mass = lumped_mass;
        self.matrices = Matrices::Diagonals { stiffness, mass };
    }

    /// The elemental stiffness `Σ_g w|J| · ∇N_a·∇N_b` (`[a][b]`) and mass
    /// `Σ_g w|J| · N_a·N_b` (`[PNODE·a + b]`) of `geometry`, each symmetric
    /// to the bit.
    fn element_matrices(
        &self,
        geometry: &ElementGeometry,
    ) -> ([[f64; PNODE]; PNODE], [f64; PNODE * PNODE]) {
        // All 64 mass entries in one unit-stride accumulation per
        // integration point.
        let mut el_mass = [0.0f64; PNODE * PNODE];
        for (vol, products) in geometry.vol.iter().zip(&self.shape_products) {
            for (entry, product) in el_mass.iter_mut().zip(products) {
                *entry += vol * product;
            }
        }
        // The upper triangle of the stiffness; `(b, a)` is the same
        // products in the same order, so mirroring it is exact.
        let mut el_stiff = [[0.0f64; PNODE]; PNODE];
        for (vol, [cx, cy, cz]) in geometry.vol.iter().zip(&geometry.car) {
            for (a, row) in el_stiff.iter_mut().enumerate() {
                for (b, entry) in row.iter_mut().enumerate().skip(a) {
                    *entry += vol * (cx[a] * cx[b] + cy[a] * cy[b] + cz[a] * cz[b]);
                }
            }
        }
        for a in 1..PNODE {
            let (above, row_a) = el_stiff.split_at_mut(a);
            for (entry, row_b) in row_a[0].iter_mut().zip(above.iter()) {
                *entry = row_b[a];
            }
        }
        (el_stiff, el_mass)
    }

    /// `w|J|` at the integration points of element `elem`: the reference
    /// element's where every element is the same.
    fn element_vol(&self, elem: usize) -> &[f64] {
        let elem = if self.gpvol.len() == PGAUS { 0 } else { elem };
        &self.gpvol[PGAUS * elem..PGAUS * (elem + 1)]
    }

    /// `w|J|` and the Cartesian shape derivatives of element `elem` at its
    /// integration points.
    ///
    /// # Panics
    /// Panics on a non-positive Jacobian (an inverted element).
    fn element_geometry(&self, elem: usize) -> ElementGeometry {
        let mut x = [[0.0f64; NDIME]; PNODE];
        for (x_a, &node) in x.iter_mut().zip(self.mesh.element_nodes(elem)) {
            let p = self.mesh.node_coords(node as usize);
            *x_a = [p.x, p.y, p.z];
        }
        self.geometry(&x, elem)
    }

    /// The elemental `C[a][b][i] = Σ_g w|J| · N_a · ∂N_b/∂x_i` of
    /// `geometry`, as `el[a][i][b]`.
    fn element_gradient(&self, geometry: &ElementGeometry) -> [[[f64; PNODE]; NDIME]; PNODE] {
        let mut element = [[[0.0f64; PNODE]; NDIME]; PNODE];
        for (a, el_a) in element.iter_mut().enumerate() {
            for (g, car) in geometry.car.iter().enumerate() {
                let w = geometry.vol[g] * self.shape.functions(g).n[a];
                for (el_ai, car_i) in el_a.iter_mut().zip(car) {
                    for (entry, c) in el_ai.iter_mut().zip(car_i) {
                        *entry += w * c;
                    }
                }
            }
        }
        element
    }

    /// `w|J|` and the Cartesian shape derivatives at the integration points
    /// of the element with node coordinates `x` (element `elem`, for the
    /// panic message).
    ///
    /// # Panics
    /// Panics on a non-positive Jacobian (an inverted element).
    fn geometry(&self, x: &[[f64; NDIME]; PNODE], elem: usize) -> ElementGeometry {
        let mut geometry =
            ElementGeometry { vol: [0.0; PGAUS], car: [[[0.0; PNODE]; NDIME]; PGAUS] };
        for (g, derivs) in self.derivs.iter().enumerate() {
            // Jacobian J[i][j] = Σ_a ∂N_a/∂ξ_j · x_a[i].
            let mut jac = [[0.0f64; 3]; 3];
            for (d_a, x_a) in derivs.iter().zip(x) {
                for (row, x_ai) in jac.iter_mut().zip(x_a) {
                    for (entry, d_aj) in row.iter_mut().zip(d_a) {
                        *entry += d_aj * x_ai;
                    }
                }
            }
            let det = jac[0][0] * (jac[1][1] * jac[2][2] - jac[1][2] * jac[2][1])
                - jac[0][1] * (jac[1][0] * jac[2][2] - jac[1][2] * jac[2][0])
                + jac[0][2] * (jac[1][0] * jac[2][1] - jac[1][1] * jac[2][0]);
            assert!(det > 0.0, "element {elem} has a non-positive Jacobian ({det})");
            let inv_det = 1.0 / det;
            // Inverse Jacobian (adjugate / det), invJ[j][i].
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
            geometry.vol[g] = det * self.weights[g];
            for (i, car_i) in geometry.car[g].iter_mut().enumerate() {
                // ∂N_a/∂x_i = Σ_j ∂N_a/∂ξ_j · invJ[j][i].
                for (c, d_a) in car_i.iter_mut().zip(derivs) {
                    for (d_aj, inv_row) in d_a.iter().zip(&inv) {
                        *c += d_aj * inv_row[i];
                    }
                }
            }
        }
        geometry
    }

    /// The mesh the operators were built for.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Lumped (row-sum) mass per node, `M_a = ∫ N_a dΩ` (always positive on
    /// a valid mesh).
    pub fn lumped_mass(&self) -> &[f64] {
        &self.lumped_mass
    }

    /// Where the weak gradient and divergence read `C` from (the operator
    /// banner names it).
    pub fn gradient_storage(&self) -> GradientStorage {
        match &self.gradient {
            Gradient::Stencils(stencils) => {
                GradientStorage::ClassStencils { classes: stencils.num_classes() }
            }
            Gradient::PerEntry(_) => GradientStorage::JitteredLattice,
        }
    }

    /// Where `K`, `M` and the lumped mass came from (the banner names it).
    pub fn stiffness_source(&self) -> StiffnessSource {
        match &self.gradient {
            Gradient::Stencils(stencils) => {
                StiffnessSource::ClassStencils { classes: stencils.num_classes() }
            }
            Gradient::PerEntry(_) => StiffnessSource::PerElement,
        }
    }

    /// `C` per stored entry of the node graph, `coef[NDIME*k + i]`: the
    /// per-entry coefficients, or the class stencils expanded onto the graph.
    #[cfg(test)]
    pub(crate) fn coefficients(&self) -> Vec<f64> {
        match &self.gradient {
            Gradient::Stencils(stencils) => {
                stencils.expand(self.topology.row_ptr(), self.topology.col_idx())
            }
            Gradient::PerEntry(coef) => coef.clone(),
        }
    }

    /// Bytes of `C` one pass reads: the class-stencil table, or the
    /// per-entry coefficients.
    fn gradient_bytes(&self) -> usize {
        match &self.gradient {
            Gradient::Stencils(stencils) => stencils.table_bytes(),
            Gradient::PerEntry(coef) => std::mem::size_of_val(coef.as_slice()),
        }
    }

    /// Bytes one gradient or divergence sweep streams.  Per entry: the
    /// coefficients plus the column indices as stored, vector traffic
    /// excluded as in [`lv_solver::LinearOperator::streamed_bytes`] (it is
    /// under a tenth of them).  By class stencils the coefficients are a
    /// table of a few kilobytes and no index is read, so the vectors are
    /// the traffic: the table plus one scalar and one `NDIME`-vector field.
    pub fn streamed_bytes(&self) -> usize {
        match &self.gradient {
            Gradient::Stencils(_) => {
                self.gradient_bytes() + 8 * (1 + NDIME) * self.mesh.num_nodes()
            }
            Gradient::PerEntry(_) => {
                self.gradient_bytes() + std::mem::size_of_val(self.topology.col_idx())
            }
        }
    }

    /// Modeled floating-point operations of one weak-gradient sweep: a
    /// multiply and an add per coefficient of every row.
    pub fn gradient_flops(&self) -> u64 {
        2 * NDIME as u64 * self.node_graph_entries()
    }

    /// Modeled floating-point operations of one weak-divergence sweep: a
    /// multiply and an add per coefficient of every row.
    pub fn divergence_flops(&self) -> u64 {
        self.gradient_flops()
    }

    /// [`assemble_laplacian`](Self::assemble_laplacian): the held copy.
    /// `_team` is ignored, kept only for the benchmark's set-up probe.
    pub fn assemble_laplacian_on(&self, _team: &Team) -> CsrMatrix {
        self.assemble_laplacian()
    }

    /// The pressure Laplacian `L_ab = ∫ ∇N_a·∇N_b dΩ` on the node-to-node
    /// graph: the stiffness held since construction, written onto the
    /// momentum diagonals and gathered entry by entry, nothing assembled.
    /// Symmetric positive semi-definite (kernel: the constants); pin at
    /// least one node per connected component with
    /// [`CsrMatrix::pin_rows_symmetric`] to make it definite.
    pub fn assemble_laplacian(&self) -> CsrMatrix {
        on_node_graph(&self.on_diagonals(false), &self.topology)
    }

    /// The pressure Laplacian pinned at `pins` on the diagonals of the
    /// momentum matrix — `K` written out (or copied) with
    /// [`DiaMatrix::pin_rows_symmetric`] applied: the values
    /// [`DiaMatrix::from_csr`] of [`assemble_laplacian`](Self::assemble_laplacian)
    /// pinned by [`CsrMatrix::pin_rows_symmetric`] holds, bit for bit,
    /// offsets included, with no CSR matrix built.  Symmetric positive
    /// definite once a node of every connected component is pinned.  A
    /// transient: the Poisson system builds its operators from it and
    /// keeps the row classes where they pay.
    ///
    /// # Panics
    /// Panics if a pin is not a node of the mesh.
    pub fn pinned_laplacian(&self, pins: &[usize]) -> DiaMatrix {
        let mut laplacian = self.on_diagonals(false);
        laplacian.pin_rows_symmetric(pins);
        laplacian
    }

    /// `K` or `M` (`mass`) on the diagonals of the momentum matrix: the
    /// stencils written out block by block, one constant per run of rows
    /// of one class and diagonal, or a copy of the integrated diagonals.
    fn on_diagonals(&self, mass: bool) -> DiaMatrix {
        if let Matrices::Diagonals { stiffness, mass: m } = &self.matrices {
            return if mass { m } else { stiffness }.clone();
        }
        let mut matrix = self.momentum_layout();
        let (n, nd) = (matrix.dim(), matrix.offsets().len());
        for start in (0..n).step_by(BLOCK_ROWS) {
            let block = self.block_rows(start..n.min(start + BLOCK_ROWS));
            for k in 0..nd {
                let at = value_position(n, nd, k, start);
                let out = &mut matrix.values_mut()[at..][..block.rows.len()];
                block.for_each_value(k, mass, out, |o, value| *o = value);
            }
        }
        matrix
    }

    /// The stiffness `K_ab = ∫ ∇N_a·∇N_b dΩ` per stored entry of the
    /// topology's node graph — the values of the un-pinned pressure
    /// Laplacian (symmetric to the bit).
    #[cfg(test)]
    pub(crate) fn stiffness(&self) -> Vec<f64> {
        self.assemble_laplacian().values().to_vec()
    }

    /// The consistent mass `M_ab = ∫ N_a N_b dΩ` per stored entry of the
    /// topology's node graph (symmetric to the bit; its row sums are
    /// [`lumped_mass`](Self::lumped_mass) to rounding).
    #[cfg(test)]
    pub(crate) fn consistent_mass(&self) -> Vec<f64> {
        on_node_graph(&self.on_diagonals(true), &self.topology).values().to_vec()
    }

    /// `K` and `M` on the diagonals of the momentum matrix — how the
    /// per-step passes read them on a jittered box, and their oracle on an
    /// unjittered one.
    #[cfg(test)]
    pub(crate) fn matrices_on_diagonals(&self) -> (DiaMatrix, DiaMatrix) {
        (self.on_diagonals(false), self.on_diagonals(true))
    }

    /// The matrix-free counterpart of
    /// [`assemble_laplacian`](Self::assemble_laplacian) with the rows and
    /// columns in `pins` eliminated (matching
    /// [`CsrMatrix::pin_rows_symmetric`]): the same `L·x` from a reference
    /// stiffness block plus per-element geometric factors, streaming a
    /// fraction of the CSR bytes.
    pub fn matrix_free_laplacian(&self, pins: &[usize]) -> crate::matrixfree::MatrixFreeLaplacian {
        crate::matrixfree::MatrixFreeLaplacian::new(&self.mesh, pins)
    }

    /// `apply(a, g_a)` for every row `a` of `rows`, in row order, with
    /// `g_a = Σ_b C[a][b][·] · p_b` the weak gradient of `scalar`, entries
    /// added in ascending column order from `+0.0`.
    #[inline]
    fn gradient_rows(
        &self,
        scalar: &[f64],
        rows: Range<usize>,
        mut apply: impl FnMut(usize, [f64; NDIME]),
    ) {
        let coef = match &self.gradient {
            Gradient::Stencils(stencils) => return stencils.gradient_rows(scalar, rows, apply),
            Gradient::PerEntry(coef) => coef,
        };
        let (row_ptr, col_idx) = (self.topology.row_ptr(), self.topology.col_idx());
        for a in rows {
            let entries = row_ptr[a]..row_ptr[a + 1];
            let coef = &coef[NDIME * entries.start..NDIME * entries.end];
            let mut g = [0.0f64; NDIME];
            for (&b, c) in col_idx[entries].iter().zip(coef.chunks_exact(NDIME)) {
                let p = scalar[b];
                g[0] += c[0] * p;
                g[1] += c[1] * p;
                g[2] += c[2] * p;
            }
            apply(a, g);
        }
    }

    /// `apply(a, d_a)` for every row `a` of `rows`, in row order, with
    /// `d_a = Σ_b C[a][b][·] · u_b` the weak divergence of `vel`, entries
    /// added in ascending column order from `+0.0`.
    #[inline]
    fn divergence_rows(&self, vel: &[f64], rows: Range<usize>, mut apply: impl FnMut(usize, f64)) {
        let coef = match &self.gradient {
            Gradient::Stencils(stencils) => return stencils.divergence_rows(vel, rows, apply),
            Gradient::PerEntry(coef) => coef,
        };
        let (row_ptr, col_idx) = (self.topology.row_ptr(), self.topology.col_idx());
        for a in rows {
            let entries = row_ptr[a]..row_ptr[a + 1];
            let coef = &coef[NDIME * entries.start..NDIME * entries.end];
            let mut d = 0.0f64;
            for (&b, c) in col_idx[entries].iter().zip(coef.chunks_exact(NDIME)) {
                let v = &vel[NDIME * b..NDIME * b + NDIME];
                d += c[0] * v[0] + c[1] * v[1] + c[2] * v[2];
            }
            apply(a, d);
        }
    }

    /// One row pass of the weak gradient of `scalar` on `team`:
    /// `apply(a, g_a, out_a)` per node `a`, with `out_a` the node's `NDIME`
    /// entries of `out`.
    fn gradient_pass(
        &self,
        team: &Team,
        scalar: &[f64],
        out: &mut [f64],
        apply: impl Fn(usize, [f64; NDIME], &mut [f64]) + Sync,
    ) {
        let n = self.mesh.num_nodes();
        assert_eq!(scalar.len(), n);
        assert_eq!(out.len(), NDIME * n);
        for_each_share(team_above_cutoff(team, n), n, 1, out, |rows, out| {
            let first = rows.start;
            self.gradient_rows(scalar, rows, |a, g| {
                apply(a, g, &mut out[NDIME * (a - first)..][..NDIME]);
            });
        });
    }

    /// Weak divergence `d_a = ∫ N_a ∇·u_h dΩ` into `out` (one entry per
    /// node), as a row pass on `team`.
    pub fn weak_divergence_on(&self, team: &Team, velocity: &VectorField, out: &mut [f64]) {
        let n = self.mesh.num_nodes();
        assert_eq!(out.len(), n);
        assert_eq!(velocity.num_nodes(), n);
        let vel = velocity.as_slice();
        for_each_share(team_above_cutoff(team, n), n, 1, out, |rows, out| {
            let first = rows.start;
            self.divergence_rows(vel, rows, |a, d| out[a - first] = d);
        });
    }

    /// [`weak_divergence_on`](Self::weak_divergence_on) into `div` and, in
    /// the same row pass, the pressure-Poisson right-hand side
    /// `rhs_a = scale · d_a` (the driver passes `scale = −ρ/Δt`).
    pub fn poisson_rhs_on(
        &self,
        team: &Team,
        velocity: &VectorField,
        scale: f64,
        div: &mut [f64],
        rhs: &mut [f64],
    ) {
        let n = self.mesh.num_nodes();
        assert_eq!(div.len(), n);
        assert_eq!(rhs.len(), n);
        assert_eq!(velocity.num_nodes(), n);
        let vel = velocity.as_slice();
        for_each_share(team_above_cutoff(team, n), n, 1, (div, rhs), |rows, (div, rhs)| {
            let first = rows.start;
            self.divergence_rows(vel, rows, |a, d| {
                div[a - first] = d;
                rhs[a - first] = scale * d;
            });
        });
    }

    /// Weak gradient `g_{a,i} = ∫ N_a ∂p_h/∂x_i dΩ` of the nodal scalar
    /// `scalar` into `out` (`out[NDIME*node + i]`), as a row pass on `team`.
    /// Divide by [`Self::lumped_mass`] to recover a nodal gradient.
    pub fn weak_gradient_on(&self, team: &Team, scalar: &[f64], out: &mut [f64]) {
        self.gradient_pass(team, scalar, out, |_, g, out_a| out_a.copy_from_slice(&g));
    }

    /// `rhs −= g(scalar)` in one row pass: the weak pressure force that
    /// closes the momentum right-hand side, entry by entry what
    /// [`weak_gradient_on`](Self::weak_gradient_on) and a subtraction give.
    pub fn subtract_weak_gradient_on(&self, team: &Team, scalar: &[f64], rhs: &mut [f64]) {
        self.gradient_pass(team, scalar, rhs, |_, g, rhs_a| {
            for (r, g) in rhs_a.iter_mut().zip(g) {
                *r -= g;
            }
        });
    }

    /// The projection correction `u_a −= (factor / M_a) · g_a(phi)` in one
    /// row pass (the driver passes `factor = Δt/ρ`), entry by entry what
    /// [`weak_gradient_on`](Self::weak_gradient_on) and the lumped-mass
    /// update give.
    pub fn correct_velocity_on(
        &self,
        team: &Team,
        phi: &[f64],
        factor: f64,
        velocity: &mut VectorField,
    ) {
        self.gradient_pass(team, phi, velocity.as_mut_slice(), |a, g, u_a| {
            let f = factor / self.lumped_mass[a];
            for (u, g) in u_a.iter_mut().zip(g) {
                *u -= f * g;
            }
        });
    }

    /// `K` and `M` over `rows` — rows of one storage block of the momentum
    /// matrix — as the passes that write the matrix read them: the seed of
    /// the lattice gather's row sums ([`crate::assemble_momentum_on`]) and
    /// the mass update.
    pub(crate) fn block_rows(&self, rows: Range<usize>) -> BlockRows<'_> {
        let source = match &self.matrices {
            Matrices::Stencils { on_diagonals, .. } => {
                BlockSource::Runs(on_diagonals.runs(rows.clone()))
            }
            Matrices::Diagonals { stiffness, mass } => BlockSource::Diagonals { stiffness, mass },
        };
        BlockRows { rows, source }
    }

    /// Whether `matrix` is on the diagonals of the momentum matrix of this
    /// mesh, which the passes that write it assume.
    pub(crate) fn fits(&self, matrix: &DiaMatrix) -> bool {
        matrix.dim() == self.mesh.num_nodes() && matrix.offsets() == self.momentum_offsets()
    }

    /// The momentum right-hand side of the increment form, then the mass
    /// block: `rhs_a = −Σ_b S_ab·u_b − g_a(p)` with `S = ν·K + C(u)` the
    /// matrix as it comes in and `g` the weak pressure gradient, then
    /// `S += mass_scale·M` (the step passes `ρ/Δt`) — the right-hand side
    /// before the mass block, so `(ρ/Δt)·M·u` is never formed and never
    /// cancelled.  Both sums run in ascending column order from `+0.0`;
    /// `g_a` is bit for bit the row of
    /// [`weak_gradient_on`](Self::weak_gradient_on).  Overwrites `rhs`;
    /// bitwise identical for every thread count.
    ///
    /// It is one pass over the storage blocks
    /// ([`DiaMatrix::product3_and_update_on`]): per block the three
    /// products `S·u_c` over the de-interleaved velocity, the block's rows
    /// of `rhs`, and the mass added while the block is in cache — from its
    /// class stencils, one constant per run of rows and diagonal, on an
    /// unjittered box.
    ///
    /// # Panics
    /// Panics if `matrix` is not on the diagonals of this mesh's momentum
    /// matrix, or a vector does not have this mesh's node count.
    pub fn momentum_residual_and_mass_on(
        &self,
        team: &Team,
        matrix: &mut DiaMatrix,
        velocity: &VectorField,
        pressure: &[f64],
        mass_scale: f64,
        rhs: &mut [f64],
    ) {
        self.momentum_residual_and_mass_at(
            Lanes::selected(),
            team,
            matrix,
            velocity,
            pressure,
            mass_scale,
            rhs,
        );
    }

    /// [`momentum_residual_and_mass_on`](Self::momentum_residual_and_mass_on)
    /// with the diagonal block kernel at `lanes`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn momentum_residual_and_mass_at(
        &self,
        lanes: Lanes,
        team: &Team,
        matrix: &mut DiaMatrix,
        velocity: &VectorField,
        pressure: &[f64],
        mass_scale: f64,
        rhs: &mut [f64],
    ) {
        let n = self.mesh.num_nodes();
        assert_eq!(velocity.num_nodes(), n);
        assert_eq!(pressure.len(), n);
        assert_eq!(rhs.len(), NDIME * n);
        assert!(self.fits(matrix), "the matrix does not have this mesh's sparsity pattern");
        let u = MultiVector::from_interleaved(velocity.as_slice());
        let nd = matrix.offsets().len();
        let finish =
            |rows: Range<usize>, su: [&[f64]; NDIME], values: &mut [f64], out: &mut [f64]| {
                // `g` of the block's rows first, parked in their entries of
                // `out`; then `−S·u − g`.
                let first = rows.start;
                self.gradient_rows(pressure, rows.clone(), |a, g| {
                    out[NDIME * (a - first)..][..NDIME].copy_from_slice(&g);
                });
                for (i, out_a) in out.chunks_exact_mut(NDIME).enumerate() {
                    for (c, out) in out_a.iter_mut().enumerate() {
                        *out = -su[c][i] - *out;
                    }
                }
                // Then the mass, diagonal by diagonal, the block in cache.
                let len = rows.len();
                let block = self.block_rows(rows);
                for (k, run) in values.chunks_exact_mut(len).enumerate().take(nd) {
                    block.for_each_value(k, true, run, |value, m| *value += mass_scale * m);
                }
            };
        matrix.product3_and_update_at(lanes, team, u.components(), rhs, finish);
    }

    /// Values the momentum matrix stores, padding included: one per row
    /// and diagonal.
    fn momentum_values(&self) -> usize {
        self.mesh.num_nodes() * self.momentum_offsets().len()
    }

    /// Modeled floating-point operations of the global passes of one
    /// momentum assembly after the gather, per stored value `v` of the
    /// matrix (padding included): three multiply-adds per value for `S·u`,
    /// three per entry of the node graph for `g`, and a negation and a
    /// subtraction per row component; a multiply and an add per value of
    /// the mass update.
    pub fn momentum_pass_flops(&self) -> u64 {
        let values = self.momentum_values() as u64;
        let (nnz, n) = (self.node_graph_entries(), self.mesh.num_nodes() as u64);
        let ndime = NDIME as u64;
        (2 * ndime * values + 2 * ndime * nnz + 2 * ndime * n) + 2 * values
    }

    /// Bytes the global passes of one momentum assembly after the gather
    /// stream together, from array sizes: one pass per storage block — the
    /// values in and out, `M` (the class-stencil table or its diagonals),
    /// `C` (the class-stencil table or the per-entry coefficients), the
    /// pressure, the velocity and its de-interleaved copy (written and
    /// read), the right-hand side out; no index stream.
    pub fn momentum_pass_bytes(&self) -> u64 {
        let (values, n) = (self.momentum_values(), self.mesh.num_nodes());
        let mass = match &self.matrices {
            Matrices::Stencils { on_diagonals, .. } => on_diagonals.table_bytes(),
            Matrices::Diagonals { .. } => 8 * values,
        };
        let vectors = 8 * (NDIME + 1) * n + 8 * NDIME * n;
        (2 * 8 * values + mass + self.gradient_bytes() + vectors + 2 * 8 * NDIME * n) as u64
    }

    /// Entries of the node graph of the mesh's lattice, `Π_d (3·p_d − 2)`
    /// with `p_d` nodes along direction `d`: a node's neighbours within one
    /// element in each direction, itself included.
    pub(crate) fn node_graph_entries(&self) -> u64 {
        let lattice = self.mesh.lattice().expect("the operators' mesh has a lattice");
        lattice.points().iter().map(|&p| 3 * p as u64 - 2).product()
    }

    /// Euclidean norm of the **weak** divergence vector,
    /// `‖d‖₂ = √(Σ_a d_a²)` with `d_a = ∫ N_a ∇·u_h dΩ` — the discrete
    /// divergence functional the projection step actually drives to zero
    /// (unlike the pointwise divergence of the Q1 interpolant, which keeps
    /// an irreducible `O(h)` component even for an exactly solenoidal
    /// field).  The rows of [`weak_divergence_on`](Self::weak_divergence_on),
    /// serially, so the two agree bit for bit; the norm accumulates in node
    /// order.
    pub fn weak_divergence_norm(&self, velocity: &VectorField) -> f64 {
        let mut d = vec![0.0; self.mesh.num_nodes()];
        self.weak_divergence_on(&Team::new(1), velocity, &mut d);
        weak_divergence_vector_norm(&d)
    }

    /// Continuous L2 norm of the divergence, `‖∇·u_h‖ = √(∫ (∇·u_h)² dΩ)`,
    /// by quadrature in fixed element order (deterministic, serial — it is
    /// a diagnostic, not a per-iteration kernel).
    pub fn divergence_l2(&self, velocity: &VectorField) -> f64 {
        let vel = velocity.as_slice();
        let mut total = 0.0;
        for elem in 0..self.mesh.num_elements() {
            let nodes = self.mesh.element_nodes(elem);
            let geometry = self.element_geometry(elem);
            for (vol, [cx, cy, cz]) in geometry.vol.iter().zip(&geometry.car) {
                let mut div = 0.0;
                for (b, &node) in nodes.iter().enumerate() {
                    let v = &vel[NDIME * node as usize..NDIME * node as usize + NDIME];
                    div += cx[b] * v[0] + cy[b] * v[1] + cz[b] * v[2];
                }
                total += vol * div * div;
            }
        }
        total.sqrt()
    }

    /// Kinetic energy `½ρ ∫ |u_h|² dΩ` by quadrature in fixed element order.
    pub fn kinetic_energy(&self, velocity: &VectorField, density: f64) -> f64 {
        let vel = velocity.as_slice();
        let mut total = 0.0;
        for elem in 0..self.mesh.num_elements() {
            let nodes = self.mesh.element_nodes(elem);
            for g in 0..PGAUS {
                let funcs = self.shape.functions(g);
                let mut u = [0.0f64; NDIME];
                for (b, &node) in nodes.iter().enumerate() {
                    let v = &vel[NDIME * node as usize..NDIME * node as usize + NDIME];
                    let n_b = funcs.n[b];
                    u[0] += n_b * v[0];
                    u[1] += n_b * v[1];
                    u[2] += n_b * v[2];
                }
                total += self.element_vol(elem)[g] * (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]);
            }
        }
        0.5 * density * total
    }

    /// Kinetic energy through the resident consistent mass,
    /// `½ρ Σ_a u_a·(M·u)_a`: one row pass on `team`, reduced in fixed blocks
    /// — bitwise identical for every thread count.  The same integral as the
    /// quadrature of [`kinetic_energy`](Self::kinetic_energy) (the products
    /// `N_a·N_b` summed before instead of after the contraction with `u`),
    /// equal to it to rounding; the step reports this one.
    pub fn kinetic_energy_on(&self, team: &Team, velocity: &VectorField, density: f64) -> f64 {
        let n = self.mesh.num_nodes();
        assert_eq!(velocity.num_nodes(), n);
        let vel = velocity.as_slice();
        let u = MultiVector::from_interleaved(vel);
        let [total] = blocked_reduce(Some(team), n, &mut Vec::new(), |rows| {
            // `M·u` of the block's rows, three columns in one traversal of
            // its diagonals, then `u·(M·u)` row by row.
            let len = rows.len();
            let mut mu = [[0.0f64; REDUCTION_BLOCK]; NDIME];
            let [m0, m1, m2] = &mut mu;
            let out = [&mut m0[..len], &mut m1[..len], &mut m2[..len]];
            match &self.matrices {
                Matrices::Stencils { taps, .. } => {
                    taps.mass_product3(u.components(), rows.clone(), out)
                }
                Matrices::Diagonals { mass, .. } => {
                    mass.product3_into(u.components(), rows.clone(), out)
                }
            }
            let mut sum = 0.0f64;
            for (i, a) in rows.enumerate() {
                let u = &vel[NDIME * a..NDIME * a + NDIME];
                sum += u[0] * m0[i] + u[1] * m1[i] + u[2] * m2[i];
            }
            [sum]
        });
        0.5 * density * total
    }

    /// Continuous L2 norm of `u_h − u_exact`, with `u_exact` evaluated at
    /// the physical integration points: `√(∫ |u_h − u_exact|² dΩ)`.
    pub fn velocity_l2_error(
        &self,
        velocity: &VectorField,
        exact: impl Fn(Point3) -> [f64; 3],
    ) -> f64 {
        let vel = velocity.as_slice();
        let mut total = 0.0;
        for elem in 0..self.mesh.num_elements() {
            let nodes = self.mesh.element_nodes(elem);
            for g in 0..PGAUS {
                let funcs = self.shape.functions(g);
                let mut u = [0.0f64; NDIME];
                let mut x = [0.0f64; NDIME];
                for (b, &node) in nodes.iter().enumerate() {
                    let p = self.mesh.node_coords(node as usize);
                    let v = &vel[NDIME * node as usize..NDIME * node as usize + NDIME];
                    let n_b = funcs.n[b];
                    for i in 0..NDIME {
                        u[i] += n_b * v[i];
                        x[i] += n_b * p[i];
                    }
                }
                let ue = exact(Point3::new(x[0], x[1], x[2]));
                let mut err = 0.0;
                for i in 0..NDIME {
                    let d = u[i] - ue[i];
                    err += d * d;
                }
                total += self.element_vol(elem)[g] * err;
            }
        }
        total.sqrt()
    }
}

/// The node coordinates of the reference element of `lattice`: the
/// hexahedron of its spacing with its first node at the origin, local nodes
/// in [`CORNERS`] order.
pub(crate) fn reference_corners(lattice: &BoxLattice) -> [[f64; NDIME]; PNODE] {
    let spacing = lattice.spacing();
    CORNERS.map(|c| [0, 1, 2].map(|d| c[d] as f64 * spacing[d]))
}

/// `dia` as a CSR matrix of `topology`'s node graph, gathered entry by
/// entry (padding dropped).
///
/// # Panics
/// Panics if an entry of the graph lies on no diagonal of `dia`.
pub(crate) fn on_node_graph(dia: &DiaMatrix, topology: &MeshTopology) -> CsrMatrix {
    let (row_ptr, col_idx) = (topology.row_ptr(), topology.col_idx());
    let mut matrix = CsrMatrix::from_pattern(row_ptr.to_vec(), col_idx.to_vec());
    dia.values_on_pattern(row_ptr, col_idx, matrix.pattern_and_values_mut().2);
    matrix
}

/// Euclidean norm `√(Σ_a d_a²)` of an already-computed weak-divergence
/// vector (serial, index order — deterministic).  Lets a caller that has
/// just filled a buffer with [`PressureOperators::weak_divergence_on`] take
/// the norm without a second sweep over the mesh.
pub fn weak_divergence_vector_norm(d: &[f64]) -> f64 {
    d.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Convenience: the assembled pressure Laplacian of `mesh`, symmetrically
/// pinned at `pins` (see [`CsrMatrix::pin_rows_symmetric`]) so it is
/// symmetric positive definite — the true operator the pressure-Poisson CG
/// solves.
pub fn pressure_laplacian(mesh: &Mesh, pins: &[usize]) -> CsrMatrix {
    let ops = PressureOperators::with_topology(mesh, Arc::new(MeshTopology::new(mesh)));
    let mut matrix = ops.assemble_laplacian();
    matrix.pin_rows_symmetric(pins);
    matrix
}

/// The unjittered boxes the class-built operators and the one geometry
/// entry are held to the element loop on: the registry's three meshes at
/// resolution 8 (cavity, unit box, channel), 12³ and 7³ cavities, a box one
/// element thick, the 48 × 12 × 12 channel and a box of unequal spacings.
#[cfg(test)]
pub(crate) fn unjittered_boxes() -> Vec<(&'static str, Mesh)> {
    use lv_mesh::structured::{BoxMeshBuilder, ChannelMeshBuilder};
    let cube = |n| BoxMeshBuilder::new(n, n, n);
    let extent = BoxMeshBuilder::new(6, 5, 4).with_extent(Point3::ZERO, [2.5, 0.6, 1.7]);
    vec![
        ("8^3 cavity", cube(8).lid_driven_cavity().build()),
        ("8^3 box", cube(8).build()),
        ("32x8x8 channel", ChannelMeshBuilder::new(8, 4).build()),
        ("12^3 cavity", cube(12).lid_driven_cavity().build()),
        ("7^3 cavity", cube(7).lid_driven_cavity().build()),
        ("4x3x1 box", BoxMeshBuilder::new(4, 3, 1).build()),
        ("48x12x12 channel", ChannelMeshBuilder::new(12, 4).build()),
        ("2.5 x 0.6 x 1.7 box", extent.build()),
    ]
}

/// Asserts that every `(key, class value, element-loop value q, scale)`
/// has its class value within `[min q − n·ε·s, max q + n·ε·s]` over the
/// loop's values of that key, `s` the largest scale among them (the value
/// itself, or its row's largest entry); returns the worst excess beyond
/// `[min q, max q]`, in `n·ε·s`.
#[cfg(test)]
pub(crate) fn assert_within_class_spread<K: Ord + std::fmt::Debug>(
    what: &str,
    n: usize,
    values: impl IntoIterator<Item = (K, f64, f64, f64)>,
) -> f64 {
    let mut classes = std::collections::BTreeMap::new();
    for (key, class, q, scale) in values {
        let (c, lo, hi, big) = classes.entry(key).or_insert((class, q, q, 0.0f64));
        assert_eq!(c.to_bits(), class.to_bits(), "{what}: one value per class");
        (*lo, *hi, *big) = (lo.min(q), hi.max(q), big.max(scale.abs()));
    }
    let mut worst = 0.0f64;
    for (key, (class, lo, hi, big)) in classes {
        let unit = n as f64 * f64::EPSILON * big;
        let excess = (lo - class).max(class - hi).max(0.0);
        assert!(excess <= unit, "{what}: class {key:?} {class} outside [{lo}, {hi}] ± n·ε·|q|");
        worst = worst.max(if unit > 0.0 { excess / unit } else { 0.0 });
    }
    worst
}

/// The element sweeps the row products replaced — the per-Gauss-point
/// geometry table and the gather → compute → scatter loops over it, as they
/// were — kept as the oracle the tests measure the row products, the
/// Laplacian and the lumped mass against.  Serial, in mesh order, on any
/// hexahedral mesh: a renumbered one included, which the operators refuse.
#[cfg(test)]
mod oracle {
    use super::*;

    /// The precomputed element geometry of a mesh.
    pub(super) struct GeometryTable<'a> {
        mesh: &'a Mesh,
        shape: ShapeTable,
        topology: MeshTopology,
        /// `w_g · |J|` per `(element, gauss)`: `gpvol[PGAUS*elem + g]`.
        gpvol: Vec<f64>,
        /// Cartesian shape derivatives per `(element, gauss, node, dim)`:
        /// `gpcar[((PGAUS*elem + g)*PNODE + a)*NDIME + j]`.
        gpcar: Vec<f64>,
        /// Lumped (row-sum) mass per node.
        pub(super) lumped_mass: Vec<f64>,
    }

    impl<'a> GeometryTable<'a> {
        pub(super) fn new(mesh: &'a Mesh) -> Self {
            let rule = GaussRule::hex_2x2x2();
            let shape = ShapeTable::new(ElementKind::Hex8, &rule);
            let nelem = mesh.num_elements();
            let nnode = mesh.num_nodes();
            let mut gpvol = vec![0.0; nelem * PGAUS];
            let mut gpcar = vec![0.0; nelem * PGAUS * PNODE * NDIME];
            let mut lumped_mass = vec![0.0; nnode];
            for elem in 0..nelem {
                let nodes = mesh.element_nodes(elem);
                for (g, qp) in rule.points().iter().enumerate() {
                    let derivs = shape.derivatives(g);
                    // Jacobian J[i][j] = Σ_a ∂N_a/∂ξ_j · x_a[i].
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
                    // Inverse Jacobian (adjugate / det), invJ[j][i].
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
                    gpvol[PGAUS * elem + g] = vol;
                    let funcs = shape.functions(g);
                    for a in 0..PNODE {
                        // ∂N_a/∂x_i = Σ_j ∂N_a/∂ξ_j · invJ[j][i].
                        let base = ((PGAUS * elem + g) * PNODE + a) * NDIME;
                        for i in 0..NDIME {
                            let mut c = 0.0;
                            for (j, inv_row) in inv.iter().enumerate() {
                                c += derivs.d[a][j] * inv_row[i];
                            }
                            gpcar[base + i] = c;
                        }
                        lumped_mass[nodes[a] as usize] += vol * funcs.n[a];
                    }
                }
            }
            let topology = MeshTopology::new(mesh);
            GeometryTable { mesh, shape, topology, gpvol, gpcar, lumped_mass }
        }

        /// The Laplacian from the table, element by element in mesh order
        /// like the constructor.
        pub(super) fn laplacian(&self) -> CsrMatrix {
            let topology = &self.topology;
            let mut matrix =
                CsrMatrix::from_pattern(topology.row_ptr().to_vec(), topology.col_idx().to_vec());
            let (_, _, values) = matrix.pattern_and_values_mut();
            for elem in 0..self.mesh.num_elements() {
                let mut el = [[0.0f64; PNODE]; PNODE];
                for g in 0..PGAUS {
                    let vol = self.gpvol[PGAUS * elem + g];
                    let base = (PGAUS * elem + g) * PNODE * NDIME;
                    for (a, row) in el.iter_mut().enumerate() {
                        let ca = &self.gpcar[base + a * NDIME..base + a * NDIME + NDIME];
                        for (b, entry) in row.iter_mut().enumerate() {
                            let cb = &self.gpcar[base + b * NDIME..base + b * NDIME + NDIME];
                            *entry += vol * (ca[0] * cb[0] + ca[1] * cb[1] + ca[2] * cb[2]);
                        }
                    }
                }
                for (&slot, entry) in
                    topology.csr_slots(self.mesh, elem).iter().zip(el.iter().flatten())
                {
                    values[slot as usize] += entry;
                }
            }
            matrix
        }

        /// `C[a][b][i] = ∫ N_a ∂N_b/∂x_i dΩ` per stored entry of the node
        /// graph, `coef[NDIME*k + i]`: each element's integrated in mesh
        /// order, like the constructor's per-entry `C`.
        pub(super) fn coefficients(&self) -> Vec<f64> {
            let mut coef = vec![0.0; NDIME * self.topology.col_idx().len()];
            for elem in 0..self.mesh.num_elements() {
                let mut el = [[[0.0f64; PNODE]; NDIME]; PNODE];
                for (a, el_a) in el.iter_mut().enumerate() {
                    for g in 0..PGAUS {
                        let w = self.gpvol[PGAUS * elem + g] * self.shape.functions(g).n[a];
                        let base = (PGAUS * elem + g) * PNODE * NDIME;
                        for (i, el_ai) in el_a.iter_mut().enumerate() {
                            for (b, entry) in el_ai.iter_mut().enumerate() {
                                *entry += w * self.gpcar[base + b * NDIME + i];
                            }
                        }
                    }
                }
                let slots = self.topology.csr_slots(self.mesh, elem);
                for (el_a, slots_a) in el.iter().zip(slots.chunks_exact(PNODE)) {
                    for (b, &slot) in slots_a.iter().enumerate() {
                        for (i, el_ai) in el_a.iter().enumerate() {
                            coef[NDIME * slot as usize + i] += el_ai[b];
                        }
                    }
                }
            }
            coef
        }

        /// Weak divergence `d_a = ∫ N_a ∇·u_h dΩ` into `out`, zeroed first:
        /// elemental `∫ N_a ∇·u_h` scattered into the nodal vector.
        pub(super) fn weak_divergence(&self, velocity: &VectorField, out: &mut [f64]) {
            out.fill(0.0);
            let vel = velocity.as_slice();
            for elem in 0..self.mesh.num_elements() {
                let nodes = self.mesh.element_nodes(elem);
                let mut el = [0.0f64; PNODE];
                for g in 0..PGAUS {
                    let vol = self.gpvol[PGAUS * elem + g];
                    let base = (PGAUS * elem + g) * PNODE * NDIME;
                    // ∇·u at the integration point.
                    let mut div = 0.0;
                    for (b, &node) in nodes.iter().enumerate() {
                        let cb = &self.gpcar[base + b * NDIME..base + b * NDIME + NDIME];
                        let v = &vel[NDIME * node as usize..NDIME * node as usize + NDIME];
                        div += cb[0] * v[0] + cb[1] * v[1] + cb[2] * v[2];
                    }
                    let funcs = self.shape.functions(g);
                    for (a, e) in el.iter_mut().enumerate() {
                        *e += vol * funcs.n[a] * div;
                    }
                }
                for (a, &node) in nodes.iter().enumerate() {
                    out[node as usize] += el[a];
                }
            }
        }

        /// Weak gradient `g_{a,i} = ∫ N_a ∂p_h/∂x_i dΩ` into `out`, zeroed
        /// first.
        pub(super) fn weak_gradient(&self, scalar: &[f64], out: &mut [f64]) {
            out.fill(0.0);
            for elem in 0..self.mesh.num_elements() {
                let nodes = self.mesh.element_nodes(elem);
                let mut el = [0.0f64; PNODE * NDIME];
                for g in 0..PGAUS {
                    let vol = self.gpvol[PGAUS * elem + g];
                    let base = (PGAUS * elem + g) * PNODE * NDIME;
                    // ∇p at the integration point.
                    let mut grad = [0.0f64; NDIME];
                    for (b, &node) in nodes.iter().enumerate() {
                        let cb = &self.gpcar[base + b * NDIME..base + b * NDIME + NDIME];
                        let p = scalar[node as usize];
                        grad[0] += cb[0] * p;
                        grad[1] += cb[1] * p;
                        grad[2] += cb[2] * p;
                    }
                    let funcs = self.shape.functions(g);
                    for a in 0..PNODE {
                        let w = vol * funcs.n[a];
                        el[NDIME * a] += w * grad[0];
                        el[NDIME * a + 1] += w * grad[1];
                        el[NDIME * a + 2] += w * grad[2];
                    }
                }
                for (a, &node) in nodes.iter().enumerate() {
                    for i in 0..NDIME {
                        out[NDIME * node as usize + i] += el[NDIME * a + i];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::GeometryTable;
    use super::*;
    use lv_mesh::renumber::NodePermutation;
    use lv_mesh::structured::{BoxMeshBuilder, ChannelMeshBuilder};
    use lv_mesh::{Field, Vec3};
    use std::f64::consts::PI;

    fn mesh() -> Mesh {
        BoxMeshBuilder::new(4, 4, 4).lid_driven_cavity().with_jitter(0.15, 17).build()
    }

    #[test]
    fn lumped_mass_sums_to_mesh_volume() {
        let m = mesh();
        let ops = PressureOperators::new(&m, 16);
        let total: f64 = ops.lumped_mass().iter().sum();
        assert!((total - m.total_volume()).abs() < 1e-10);
        assert!(ops.lumped_mass().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn laplacian_is_symmetric_with_constant_kernel() {
        let m = mesh();
        let ops = PressureOperators::new(&m, 16);
        let lap = ops.assemble_laplacian();
        assert!(lap.is_symmetric(1e-12));
        // L·1 = 0: constants are in the kernel of the Neumann Laplacian.
        let ones = vec![1.0; m.num_nodes()];
        let residual = lap.mul_vec(&ones);
        assert!(residual.iter().all(|r| r.abs() < 1e-11));
        // Positive diagonal (needed by the Jacobi preconditioner).
        assert!(lap.diagonal().iter().all(|&d| d > 0.0));
    }

    #[test]
    fn laplacian_reproduces_quadratic_energy() {
        // For p = x, ∫ |∇p|² = volume; pᵀ·L·p computes exactly that.
        let m = mesh();
        let ops = PressureOperators::new(&m, 32);
        let lap = ops.assemble_laplacian();
        let p: Vec<f64> = (0..m.num_nodes()).map(|n| m.node_coords(n).x).collect();
        let lp = lap.mul_vec(&p);
        let energy: f64 = p.iter().zip(&lp).map(|(a, b)| a * b).sum();
        assert!((energy - m.total_volume()).abs() < 1e-9, "energy {energy}");
    }

    #[test]
    fn colored_operators_are_bitwise_reproducible_across_threads() {
        let m = mesh();
        let ops = PressureOperators::new(&m, 8);
        let velocity =
            VectorField::from_fn(&m, |p| Vec3::new(p.x * p.y, (PI * p.y).sin(), p.z * p.z - p.x));
        let pressure = Field::from_fn(&m, |p| p.x * p.x - 0.5 * p.y * p.z);
        let n = m.num_nodes();
        let mut div_ref = vec![0.0; n];
        let mut grad_ref = vec![0.0; NDIME * n];
        let team1 = Team::new(1);
        ops.weak_divergence_on(&team1, &velocity, &mut div_ref);
        ops.weak_gradient_on(&team1, pressure.as_slice(), &mut grad_ref);
        for threads in [2usize, 4] {
            let team = Team::new(threads);
            let mut div = vec![0.0; n];
            ops.weak_divergence_on(&team, &velocity, &mut div);
            for (a, b) in div_ref.iter().zip(&div) {
                assert_eq!(a.to_bits(), b.to_bits(), "divergence differs at {threads} threads");
            }
            let mut grad = vec![0.0; NDIME * n];
            ops.weak_gradient_on(&team, pressure.as_slice(), &mut grad);
            for (a, b) in grad_ref.iter().zip(&grad) {
                assert_eq!(a.to_bits(), b.to_bits(), "gradient differs at {threads} threads");
            }
        }
    }

    #[test]
    fn weak_gradient_of_linear_field_matches_lumped_mass() {
        // For p = 2x − 3y + z the gradient is constant, so the lumped nodal
        // gradient g_a / M_a must reproduce it at every node.
        let m = mesh();
        let ops = PressureOperators::new(&m, 16);
        let p: Vec<f64> = (0..m.num_nodes())
            .map(|n| {
                let x = m.node_coords(n);
                2.0 * x.x - 3.0 * x.y + x.z
            })
            .collect();
        let team = Team::new(1);
        let mut grad = vec![0.0; NDIME * m.num_nodes()];
        ops.weak_gradient_on(&team, &p, &mut grad);
        for node in 0..m.num_nodes() {
            let mass = ops.lumped_mass()[node];
            let gx = grad[NDIME * node] / mass;
            let gy = grad[NDIME * node + 1] / mass;
            let gz = grad[NDIME * node + 2] / mass;
            assert!((gx - 2.0).abs() < 1e-10, "node {node}: gx {gx}");
            assert!((gy + 3.0).abs() < 1e-10, "node {node}: gy {gy}");
            assert!((gz - 1.0).abs() < 1e-10, "node {node}: gz {gz}");
        }
    }

    #[test]
    fn weak_divergence_of_linear_velocity_is_exact() {
        // u = (x, 2y, −3z) has ∇·u = 0 everywhere; u = (x, y, z) has ∇·u = 3.
        let m = mesh();
        let ops = PressureOperators::new(&m, 16);
        let team = Team::new(1);
        let mut d = vec![0.0; m.num_nodes()];
        let solenoidal = VectorField::from_fn(&m, |p| Vec3::new(p.x, 2.0 * p.y, -3.0 * p.z));
        ops.weak_divergence_on(&team, &solenoidal, &mut d);
        assert!(d.iter().all(|v| v.abs() < 1e-11));
        assert!(ops.divergence_l2(&solenoidal) < 1e-11);
        let expanding = VectorField::from_fn(&m, |p| Vec3::new(p.x, p.y, p.z));
        ops.weak_divergence_on(&team, &expanding, &mut d);
        // Σ_a d_a = ∫ ∇·u = 3·volume.
        let total: f64 = d.iter().sum();
        assert!((total - 3.0 * m.total_volume()).abs() < 1e-10);
        assert!((ops.divergence_l2(&expanding) - 3.0 * m.total_volume().sqrt()).abs() < 1e-10);
    }

    #[test]
    fn kinetic_energy_of_uniform_flow() {
        let m = mesh();
        let ops = PressureOperators::new(&m, 16);
        let u = VectorField::constant(&m, Vec3::new(2.0, 0.0, 0.0));
        // ½ρ|u|²·V = ½·1·4·1.
        assert!((ops.kinetic_energy(&u, 1.0) - 2.0).abs() < 1e-10);
        assert!(ops.velocity_l2_error(&u, |_| [2.0, 0.0, 0.0]) < 1e-12);
        let err = ops.velocity_l2_error(&u, |_| [0.0, 0.0, 0.0]);
        assert!((err - 2.0).abs() < 1e-10, "err {err}");
    }

    #[test]
    fn pinned_laplacian_is_spd_and_cg_solvable() {
        let m = mesh();
        let lap = pressure_laplacian(&m, &[0]);
        assert!(lap.is_symmetric(1e-12));
        let n = m.num_nodes();
        let mut b: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 13) as f64 - 6.0).collect();
        b[0] = 0.0;
        let out = lv_solver::conjugate_gradient_on(
            &Team::new(1),
            &lap,
            &b,
            &lv_solver::SolveOptions { max_iterations: 2000, ..Default::default() },
        )
        .expect("CG must converge on the pinned pressure Laplacian");
        assert!(out.final_residual() < 1e-9);
        assert_eq!(out.solution[0], 0.0);
    }

    fn test_velocity(m: &Mesh) -> VectorField {
        VectorField::from_fn(m, |p| Vec3::new(p.x * p.y, (PI * p.y).sin(), p.z * p.z - p.x))
    }

    fn test_pressure(m: &Mesh) -> Field {
        Field::from_fn(m, |p| p.x * p.x - 0.5 * p.y * p.z + (2.0 * p.z).cos())
    }

    fn assert_same_bits(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: entry {i} ({x} vs {y})");
        }
    }

    /// The mesh's own node order (a copy without its lattice) and two
    /// scrambled ones, each with the permutation that produced it.
    fn renumberings(m: &Mesh) -> Vec<(NodePermutation, Mesh)> {
        let n = m.num_nodes();
        let perms = [
            NodePermutation::identity(n),
            NodePermutation::scrambled(n, 0xC0FFEE),
            NodePermutation::scrambled(n, 42),
        ];
        perms.into_iter().map(|perm| (perm.clone(), m.renumber_nodes(&perm))).collect()
    }

    /// The row products against the element sweeps of the oracle, to
    /// rounding, and independent of the node order: the oracle runs on the
    /// mesh renumbered, fed the same fields at the moved nodes, and row `a`
    /// of the operators is compared with row `new_of(a)` of its result.
    #[test]
    fn row_products_match_the_element_sweeps_to_rounding() {
        let meshes = [
            ("channel", ChannelMeshBuilder::new(3, 2).with_jitter(0.1, 4).build()),
            ("jittered", mesh()),
            ("unjittered cavity", BoxMeshBuilder::new(5, 4, 3).lid_driven_cavity().build()),
        ];
        let team = Team::new(1);
        for (name, m) in &meshes {
            let ops = PressureOperators::new(m, 16);
            let n = m.num_nodes();
            let (velocity, pressure) = (test_velocity(m), test_pressure(m));
            let (vel, p) = (velocity.as_slice(), pressure.as_slice());
            let (mut div, mut grad) = (vec![f64::NAN; n], vec![f64::NAN; NDIME * n]);
            ops.weak_divergence_on(&team, &velocity, &mut div);
            ops.weak_gradient_on(&team, p, &mut grad);
            // Σ_b |C[a][b]|·|x_b| per row: the magnitude the row's rounding
            // errors scale with.
            let (row_ptr, col_idx) = (ops.topology.row_ptr(), ops.topology.col_idx());
            let coef = ops.coefficients();
            let (mut div_scale, mut grad_scale) = (vec![0.0f64; n], vec![0.0f64; NDIME * n]);
            for a in 0..n {
                let entries = row_ptr[a]..row_ptr[a + 1];
                let coef = &coef[NDIME * entries.start..NDIME * entries.end];
                for (&b, c) in col_idx[entries].iter().zip(coef.chunks_exact(NDIME)) {
                    for i in 0..NDIME {
                        div_scale[a] += c[i].abs() * vel[NDIME * b + i].abs();
                        grad_scale[NDIME * a + i] += c[i].abs() * p[b].abs();
                    }
                }
            }
            for (perm, renumbered) in renumberings(m) {
                let table = GeometryTable::new(&renumbered);
                let (mut div_oracle, mut grad_oracle) = (vec![0.0; n], vec![0.0; NDIME * n]);
                table.weak_divergence(&test_velocity(&renumbered), &mut div_oracle);
                table.weak_gradient(test_pressure(&renumbered).as_slice(), &mut grad_oracle);
                for a in 0..n {
                    let new = perm.new_of(a);
                    let d = (div[a] - div_oracle[new]).abs();
                    assert!(
                        d <= 8.0 * f64::EPSILON * div_scale[a],
                        "{name}: divergence row {a} (row {new} renumbered) off by {d:e}"
                    );
                    for i in 0..NDIME {
                        let d = (grad[NDIME * a + i] - grad_oracle[NDIME * new + i]).abs();
                        assert!(
                            d <= 8.0 * f64::EPSILON * grad_scale[NDIME * a + i],
                            "{name}: gradient row {a}[{i}] (row {new} renumbered) off by {d:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_shares_are_bitwise_equal_across_threads_and_fused_equals_unfused() {
        // 11³ = 1331 rows: above the 1024-row serial cutoff of `VectorOps`,
        // so the teams really split the pass.
        let m = BoxMeshBuilder::new(10, 10, 10).lid_driven_cavity().with_jitter(0.15, 5).build();
        let n = m.num_nodes();
        assert_eq!(n, 1331);
        let ops = PressureOperators::new(&m, 32);
        let (velocity, pressure) = (test_velocity(&m), test_pressure(&m));
        let rhs0: Vec<f64> = (0..NDIME * n).map(|i| (i as f64 * 0.37).sin()).collect();
        let (scale, factor) = (-1.0 / 0.013, 0.013);

        // Unfused, one thread: each operator, then the driver's glue.
        let team1 = Team::new(1);
        let (mut div_ref, mut grad_ref) = (vec![0.0; n], vec![0.0; NDIME * n]);
        ops.weak_divergence_on(&team1, &velocity, &mut div_ref);
        ops.weak_gradient_on(&team1, pressure.as_slice(), &mut grad_ref);
        let rhs_ref: Vec<f64> = rhs0.iter().zip(&grad_ref).map(|(r, g)| r - g).collect();
        let poisson_ref: Vec<f64> = div_ref.iter().map(|d| scale * d).collect();
        let mut corrected_ref = velocity.clone();
        for (node, &mass) in ops.lumped_mass().iter().enumerate() {
            let f = factor / mass;
            for i in 0..NDIME {
                corrected_ref.as_mut_slice()[NDIME * node + i] -= f * grad_ref[NDIME * node + i];
            }
        }
        assert_eq!(ops.weak_divergence_norm(&velocity), weak_divergence_vector_norm(&div_ref));

        for threads in [1usize, 2, 4] {
            let team = Team::new(threads);
            let (mut div, mut grad) = (vec![f64::NAN; n], vec![f64::NAN; NDIME * n]);
            ops.weak_divergence_on(&team, &velocity, &mut div);
            ops.weak_gradient_on(&team, pressure.as_slice(), &mut grad);
            assert_same_bits(&div, &div_ref, &format!("divergence, {threads} threads"));
            assert_same_bits(&grad, &grad_ref, &format!("gradient, {threads} threads"));

            let mut rhs = rhs0.clone();
            ops.subtract_weak_gradient_on(&team, pressure.as_slice(), &mut rhs);
            assert_same_bits(&rhs, &rhs_ref, &format!("rhs −= g, {threads} threads"));

            let (mut div, mut poisson) = (vec![f64::NAN; n], vec![f64::NAN; n]);
            ops.poisson_rhs_on(&team, &velocity, scale, &mut div, &mut poisson);
            assert_same_bits(&div, &div_ref, &format!("fused divergence, {threads} threads"));
            assert_same_bits(&poisson, &poisson_ref, &format!("Poisson rhs, {threads} threads"));

            let mut corrected = velocity.clone();
            ops.correct_velocity_on(&team, pressure.as_slice(), factor, &mut corrected);
            assert_same_bits(
                corrected.as_slice(),
                corrected_ref.as_slice(),
                &format!("correction, {threads} threads"),
            );
        }
    }

    #[test]
    fn gradient_and_divergence_are_adjoint_on_the_box() {
        // On the un-jittered box the 2×2×2 rule integrates N_a ∂N_b/∂x_i
        // exactly, so for u = 0 on the boundary the discrete operators
        // inherit ∫ p ∇·u = −∫ u·∇p: one tensor is both.
        let m = BoxMeshBuilder::new(6, 6, 6).lid_driven_cavity().build();
        let ops = PressureOperators::new(&m, 16);
        let n = m.num_nodes();
        let bubble = |p: Point3| (PI * p.x).sin() * (PI * p.y).sin() * (PI * p.z).sin();
        let velocity = VectorField::from_fn(&m, |p| {
            if [p.x, p.y, p.z].iter().any(|&c| c.min(1.0 - c) < 1e-12) {
                return Vec3::ZERO;
            }
            Vec3::new(bubble(p) + p.y, 2.0 * bubble(p) - p.x * p.z, p.z * p.z + 0.3)
        });
        let pressure = test_pressure(&m);
        let team = Team::new(1);
        let (mut div, mut grad) = (vec![0.0; n], vec![0.0; NDIME * n]);
        ops.weak_divergence_on(&team, &velocity, &mut div);
        ops.weak_gradient_on(&team, pressure.as_slice(), &mut grad);
        let p_div: Vec<f64> = pressure.as_slice().iter().zip(&div).map(|(p, d)| p * d).collect();
        let u_grad: Vec<f64> = velocity.as_slice().iter().zip(&grad).map(|(u, g)| u * g).collect();
        let magnitude: f64 = p_div.iter().chain(&u_grad).map(|t| t.abs()).sum();
        let defect = p_div.iter().sum::<f64>() + u_grad.iter().sum::<f64>();
        assert!(magnitude > 1e-2, "the fields must exercise the operators ({magnitude:e})");
        assert!(defect.abs() <= 1e-12 * magnitude, "defect {defect:e} of {magnitude:e}");
    }

    /// The element loop's Laplacian and lumped mass are the oracle's to the
    /// bit, in the mesh's node order and, permuted back, in two scrambled
    /// ones; so is its per-entry `C` in its own order.  The loop is what a
    /// jittered box builds, and the oracle of an unjittered box's class
    /// stencils.
    #[test]
    fn laplacian_and_lumped_mass_keep_the_bits_of_the_geometry_table() {
        for m in [mesh(), BoxMeshBuilder::new(5, 4, 3).lid_driven_cavity().build()] {
            let ops = PressureOperators::per_element(&m);
            let lap = ops.assemble_laplacian();
            assert!(lap.values().iter().any(|&v| v != 0.0));
            for (perm, renumbered) in renumberings(&m) {
                let table = GeometryTable::new(&renumbered);
                let moved = (0..perm.len()).filter(|&a| perm.new_of(a) != a).count();
                let what = |name| format!("{name}, {moved} nodes moved");
                let lumped = perm.inverted().permute_scalar(&table.lumped_mass);
                assert_same_bits(ops.lumped_mass(), &lumped, &what("lumped mass"));
                let lap_table = table.laplacian().permuted(perm.inverse());
                assert_same_bits(lap.values(), lap_table.values(), &what("laplacian"));
                if perm.is_identity() {
                    assert_same_bits(&ops.coefficients(), &table.coefficients(), "C");
                }
            }
        }
    }

    #[test]
    fn consistent_mass_is_symmetric_and_sums_to_the_lumped_mass_and_the_volume() {
        for m in [mesh(), BoxMeshBuilder::new(5, 4, 3).build()] {
            let ops = PressureOperators::new(&m, 16);
            let mut mass = ops.assemble_laplacian();
            mass.pattern_and_values_mut().2.copy_from_slice(&ops.consistent_mass());
            // One product `N_a·N_b` serves both triangles, elements arrive
            // in one order: symmetric to the bit.
            assert!(mass.is_symmetric(0.0));
            assert!(ops.consistent_mass().iter().all(|&v| v > 0.0));
            let row_sums = mass.mul_vec(&vec![1.0; m.num_nodes()]);
            for (a, (sum, lumped)) in row_sums.iter().zip(ops.lumped_mass()).enumerate() {
                assert!(
                    (sum - lumped).abs() <= 4.0 * f64::EPSILON * lumped,
                    "row {a} sums to {sum:e}, the lumped mass is {lumped:e}"
                );
            }
            let total: f64 = ops.consistent_mass().iter().sum();
            assert!((total - m.total_volume()).abs() < 1e-12 * m.total_volume());

            // The stiffness, from the same loop: symmetric to the bit, and
            // the constants in its kernel to a few ε of each row's largest
            // entry.
            let stiffness = ops.assemble_laplacian();
            assert!(stiffness.is_symmetric(0.0));
            let row_sums = stiffness.mul_vec(&vec![1.0; m.num_nodes()]);
            let row_ptr = ops.topology.row_ptr();
            for (a, sum) in row_sums.iter().enumerate() {
                let entries = &stiffness.values()[row_ptr[a]..row_ptr[a + 1]];
                let largest = entries.iter().fold(0.0f64, |max, k| max.max(k.abs()));
                assert!(
                    sum.abs() <= 4.0 * f64::EPSILON * largest,
                    "row {a} of K sums to {sum:e}, its largest entry is {largest:e}"
                );
            }

            // The stepper's entry point, on the assembly's topology, builds
            // the benchmark's bits.
            let asm = crate::NastinAssembly::new(
                m.clone(),
                crate::KernelConfig::new(16, crate::OptLevel::Vec1),
            );
            let shared = PressureOperators::with_topology(&m, asm.topology().clone());
            assert_same_bits(&shared.stiffness(), &ops.stiffness(), "K");
            assert_same_bits(&shared.consistent_mass(), &ops.consistent_mass(), "M");
            assert_same_bits(&shared.coefficients(), &ops.coefficients(), "C");
            assert_same_bits(shared.lumped_mass(), ops.lumped_mass(), "lumped mass");
        }
    }

    #[test]
    fn stiffness_is_the_laplacian_assembled_on_any_team() {
        let ops = PressureOperators::new(&mesh(), 8);
        assert_same_bits(&ops.stiffness(), ops.assemble_laplacian().values(), "held copy");
        let lap = ops.assemble_laplacian_on(&Team::new(3));
        assert_same_bits(&ops.stiffness(), lap.values(), "the ignored team");
    }

    /// `values` — one per stored entry of the node graph, in CSR order —
    /// added to `dia` entry by entry.
    fn add_per_entry(ops: &PressureOperators, dia: &mut DiaMatrix, values: &[f64]) {
        let (row_ptr, col_idx) = (ops.topology.row_ptr(), ops.topology.col_idx());
        let (n, nd) = (dia.dim(), dia.offsets().len());
        for a in 0..n {
            for entry in row_ptr[a]..row_ptr[a + 1] {
                let d = col_idx[entry] as isize - a as isize;
                let k = dia.offsets().binary_search(&d).expect("a stored diagonal");
                dia.values_mut()[value_position(n, nd, k, a)] += values[entry];
            }
        }
    }

    /// The two global momentum passes against plain loops, bit for bit, on
    /// teams that fork and at both lane widths.
    #[test]
    fn momentum_passes_match_plain_loops_and_are_bitwise_equal_across_threads() {
        // 11³ = 1331 rows and 29 791 entries: every pass forks on a team.
        let m = BoxMeshBuilder::new(10, 10, 10).lid_driven_cavity().with_jitter(0.15, 5).build();
        let n = m.num_nodes();
        let ops = PressureOperators::new(&m, 32);
        let (velocity, pressure) = (test_velocity(&m), test_pressure(&m));
        let (nu, scale) = (0.01, 1.0 / 0.013);
        let (stiffness, mass) = (ops.stiffness(), ops.consistent_mass());
        let convection: Vec<f64> = (0..stiffness.len()).map(|k| (k as f64 * 0.37).sin()).collect();

        // The oracle: S = ν·K + C entry by entry, −S·u − g through the CSR
        // product and the gradient operator, S + scale·M entry by entry.
        let mut s_matrix = ops.assemble_laplacian();
        let s_values = s_matrix.pattern_and_values_mut().2;
        for ((s, k), c) in s_values.iter_mut().zip(&stiffness).zip(&convection) {
            *s = nu * k + c;
        }
        let mut grad = vec![0.0; NDIME * n];
        ops.weak_gradient_on(&Team::new(1), pressure.as_slice(), &mut grad);
        let mut rhs_oracle = vec![0.0; NDIME * n];
        for i in 0..NDIME {
            let u_i: Vec<f64> = (0..n).map(|a| velocity.as_slice()[NDIME * a + i]).collect();
            for (a, su) in s_matrix.mul_vec(&u_i).iter().enumerate() {
                rhs_oracle[NDIME * a + i] = -su - grad[NDIME * a + i];
            }
        }
        let full_oracle: Vec<f64> =
            s_matrix.values().iter().zip(&mass).map(|(s, m)| s + scale * m).collect();

        let offsets = ops.topology.element_diagonals().unwrap().offsets().to_vec();
        let (stiffness_diagonals, _) = ops.matrices_on_diagonals();
        for threads in [1usize, 2, 4] {
            let team = Team::new(threads);
            for lanes in [Lanes::Baseline, Lanes::selected()] {
                let mut matrix = DiaMatrix::zeros(n, offsets.clone());
                let what = format!("{threads} threads, {lanes} lanes");
                for (value, &k) in matrix.values_mut().iter_mut().zip(stiffness_diagonals.values())
                {
                    *value = nu * k;
                }
                add_per_entry(&ops, &mut matrix, &convection);
                let seeded = on_node_graph(&matrix, &ops.topology);
                assert_same_bits(seeded.values(), s_matrix.values(), &what);
                let mut rhs = vec![f64::NAN; NDIME * n];
                let p = pressure.as_slice();
                ops.momentum_residual_and_mass_at(
                    lanes,
                    &team,
                    &mut matrix,
                    &velocity,
                    p,
                    scale,
                    &mut rhs,
                );
                assert_same_bits(&rhs, &rhs_oracle, &format!("residual, {what}"));
                let full = on_node_graph(&matrix, &ops.topology);
                assert_same_bits(full.values(), &full_oracle, &format!("mass, {what}"));
            }
        }
    }

    /// The passes that read `K` and `M` from their class stencils against
    /// the same passes on the stencils laid on diagonals — the oracle — bit
    /// for bit: the seed and mass values over rows that start and end
    /// anywhere in a storage block, the right-hand side and mass update on
    /// 1, 2 and 3 threads at both lane widths, `M·u` over arbitrary row
    /// ranges into NaN-poisoned columns, and the kinetic energy; and the
    /// outer Poisson operator, in the storage its rows chose, against the
    /// pinned diagonals it was built from.  A jittered box keeps its
    /// diagonals.
    #[test]
    fn class_passes_are_the_diagonal_passes_bit_for_bit() {
        use lv_solver::{LevelOperator, LevelStorage, LinearOperator, MultigridOptions};
        let extent = BoxMeshBuilder::new(6, 5, 4)
            .with_extent(lv_mesh::geometry::Point3::ZERO, [2.5, 0.6, 1.7])
            .build();
        let jittered = BoxMeshBuilder::new(12, 12, 12).lid_driven_cavity().with_jitter(0.1, 5);
        // Name, mesh, whether the outer operator takes row classes.
        let meshes = [
            ("20^3 cavity", BoxMeshBuilder::new(20, 20, 20).lid_driven_cavity().build(), true),
            ("48x12x12 channel", ChannelMeshBuilder::new(12, 4).build(), true),
            ("4x3x1 box", BoxMeshBuilder::new(4, 3, 1).build(), false),
            ("6x5x4 box of unequal spacings", extent, false),
            ("12^3 jittered", jittered.build(), false),
        ];
        for (name, mesh, classes) in &meshes {
            let ops = PressureOperators::new(mesh, 16);
            let jittered = mesh.lattice().expect("a generator box").jittered;
            let stencils = matches!(ops.matrices, Matrices::Stencils { .. });
            assert_eq!(stencils, !jittered, "{name}: K and M are stencils unless jittered");
            let (stiffness, mass) = ops.matrices_on_diagonals();
            let mut oracle = ops.clone();
            oracle.matrices = Matrices::Diagonals { stiffness, mass };
            let (n, nd) = (mesh.num_nodes(), ops.momentum_offsets().len());

            for start in (0..n).step_by(BLOCK_ROWS) {
                let end = n.min(start + BLOCK_ROWS);
                let cuts = [start..end, start + 7..end - 5, start + 33..start + 34, end - 9..end];
                for rows in cuts.into_iter().filter(|r| r.start <= r.end && r.end <= end) {
                    for (k, mass) in (0..nd).flat_map(|k| [(k, false), (k, true)]) {
                        let [got, want] = [&ops, &oracle].map(|ops| {
                            let mut out = vec![f64::NAN; rows.len()];
                            let block = ops.block_rows(rows.clone());
                            block.for_each_value(k, mass, &mut out, |o, v| *o = v);
                            out
                        });
                        assert_same_bits(&got, &want, &format!("{name}: {rows:?}, {k}, {mass}"));
                    }
                }
            }

            let (velocity, pressure) = (test_velocity(mesh), test_pressure(mesh));
            let mut seed = ops.momentum_layout();
            for (k, value) in seed.values_mut().iter_mut().enumerate() {
                *value = if k % 11 == 0 { -0.0 } else { (k as f64 * 0.37).sin() };
            }
            let reference = oracle.kinetic_energy_on(&Team::new(1), &velocity, 1.3);
            for threads in [1usize, 2, 3] {
                let team = Team::new(threads);
                for lanes in [Lanes::Baseline, Lanes::selected()] {
                    let what = format!("{name}, {threads} threads, {lanes} lanes");
                    let [(got, got_rhs), (want, want_rhs)] = [&ops, &oracle].map(|ops| {
                        let (mut matrix, mut rhs) = (seed.clone(), vec![f64::NAN; NDIME * n]);
                        let p = pressure.as_slice();
                        let scale = 1.0 / 0.013;
                        ops.momentum_residual_and_mass_at(
                            lanes,
                            &team,
                            &mut matrix,
                            &velocity,
                            p,
                            scale,
                            &mut rhs,
                        );
                        (matrix, rhs)
                    });
                    assert_same_bits(got.values(), want.values(), &format!("mass, {what}"));
                    assert_same_bits(&got_rhs, &want_rhs, &format!("residual, {what}"));
                }
                let energy = ops.kinetic_energy_on(&team, &velocity, 1.3);
                assert_eq!(energy.to_bits(), reference.to_bits(), "{name}, {threads} threads");
            }
            if let (Matrices::Stencils { taps, .. }, Matrices::Diagonals { mass, .. }) =
                (&ops.matrices, &oracle.matrices)
            {
                let u = MultiVector::from_interleaved(velocity.as_slice());
                for rows in [0..n, 5..n - 3, n / 2..n / 2 + 17, n - 1..n, 9..9] {
                    let [got, want] = [true, false].map(|by_class| {
                        let mut out = [(); NDIME].map(|()| vec![f64::NAN; rows.len()]);
                        let [m0, m1, m2] = &mut out;
                        let columns = [&mut m0[..], &mut m1[..], &mut m2[..]];
                        match by_class {
                            true => taps.mass_product3(u.components(), rows.clone(), columns),
                            false => mass.product3_into(u.components(), rows.clone(), columns),
                        }
                        out.concat()
                    });
                    assert_same_bits(&got, &want, &format!("{name}: M·u over {rows:?}"));
                }
            }

            // The outer Poisson operator: the storage its rows chose, and
            // the products of the diagonals it was built from.
            let pins: Vec<usize> = match *name {
                "48x12x12 channel" => (0..n)
                    .filter(|&a| mesh.boundary_tag(a) == lv_mesh::BoundaryTag::Outflow)
                    .collect(),
                _ => vec![0],
            };
            let pinned = ops.pinned_laplacian(&pins);
            let options = MultigridOptions::default();
            let mut outers = vec![LevelOperator::from_diagonals(pinned.clone())];
            if let Ok(mg) = crate::build_pressure_multigrid_on_diagonals(mesh, &pinned, &options) {
                outers.push(mg.fine_operator().as_ref().clone());
            }
            let x: Vec<f64> = (0..n).map(|a| (a as f64 * 0.61).sin()).collect();
            for outer in &outers {
                let storage = outer.storage();
                assert_eq!(matches!(storage, LevelStorage::RowClasses { .. }), *classes, "{name}");
                assert_same_bits(&outer.diagonal(), &pinned.diagonal(), name);
                for rows in [0..n, 3..n - 2, n / 3..(n / 3 + 40).min(n), n - 1..n, 4..4] {
                    let [got, want] = [outer as &dyn LinearOperator, &pinned].map(|op| {
                        let mut y = vec![f64::NAN; rows.len()];
                        op.apply_range(&x, rows.clone(), &mut y);
                        y
                    });
                    assert_same_bits(&got, &want, &format!("{name}, {storage}: {rows:?}"));
                }
                for threads in [1usize, 2, 3] {
                    let team = Team::new(threads);
                    let mut ops = lv_solver::VectorOps::on_team(&team);
                    let [got, want] = [outer as &dyn LinearOperator, &pinned].map(|op| {
                        let mut y = vec![f64::NAN; n];
                        ops.apply(op, &x, &mut y);
                        y
                    });
                    assert_same_bits(&got, &want, &format!("{name}, {threads} threads"));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "sparsity pattern")]
    fn momentum_passes_reject_a_foreign_pattern() {
        let m = mesh();
        let ops = PressureOperators::new(&m, 16);
        let other = crate::NastinAssembly::new(
            BoxMeshBuilder::new(3, 3, 3).build(),
            crate::KernelConfig::new(16, crate::OptLevel::Vec1),
        );
        let (velocity, pressure) = (test_velocity(&m), test_pressure(&m));
        let mut rhs = vec![0.0; NDIME * m.num_nodes()];
        let mut matrix = other.new_momentum_matrix();
        let p = pressure.as_slice();
        ops.momentum_residual_and_mass_on(&Team::new(1), &mut matrix, &velocity, p, 1.0, &mut rhs);
    }

    #[test]
    fn kinetic_energy_through_the_mass_matches_the_quadrature() {
        // 11³ rows: six reduction blocks, so teams of 2 and 4 really split.
        let m = BoxMeshBuilder::new(10, 10, 10).lid_driven_cavity().with_jitter(0.15, 5).build();
        let ops = PressureOperators::new(&m, 32);
        let velocity = test_velocity(&m);
        let quadrature = ops.kinetic_energy(&velocity, 1.3);
        let reference = ops.kinetic_energy_on(&Team::new(1), &velocity, 1.3);
        assert!(
            (reference - quadrature).abs() <= 1e-13 * quadrature,
            "{reference:e} vs the quadrature's {quadrature:e}"
        );
        for threads in [2usize, 4] {
            let energy = ops.kinetic_energy_on(&Team::new(threads), &velocity, 1.3);
            assert_eq!(energy.to_bits(), reference.to_bits(), "{threads} threads");
        }
    }

    #[test]
    fn traffic_model_of_the_4_cubed_box() {
        // 5³ nodes; a node with k neighbours per direction (itself
        // included) stores k³ entries: Σ = (3·5 − 2)³.  On diagonals every
        // node stores 27 values, padding included.
        let (nnz, n, index) = (13 * 13 * 13, 125, std::mem::size_of::<usize>());
        let padded = 27 * n;
        // The global passes of a momentum assembly after the gather over
        // `values` stored values: `S·u` (three multiply-adds per value), `g`
        // (three per entry) and `−S·u − g` (two per row component); the mass
        // update (a multiply and an add per value).
        let momentum_flops = |values: usize| ((6 * values + 6 * nnz + 6 * n) + 2 * values) as u64;
        // One pass per block (the values in and out, `M`, `C`, p and u
        // in, u's columns written and read, rhs out) — no column index.
        let pass_bytes = |mass: usize, gradient: usize| {
            (16 * padded + mass + gradient + 8 * 7 * n + 48 * n) as u64
        };

        // The generator box: 27 class stencils of 27 taps, no index read,
        // so one pass moves the table, a scalar and a vector field.
        let ops = PressureOperators::new(&BoxMeshBuilder::new(4, 4, 4).build(), 16);
        assert_eq!(ops.gradient_storage(), GradientStorage::ClassStencils { classes: 27 });
        let table = 27 * (index + 27 * (std::mem::size_of::<isize>() + 8 * NDIME));
        assert_eq!(ops.streamed_bytes(), table + 8 * 4 * n);
        assert_eq!(ops.gradient_flops(), (2 * NDIME * nnz) as u64);
        assert_eq!(ops.divergence_flops(), (2 * NDIME * nnz) as u64);
        assert_eq!(ops.momentum_pass_flops(), momentum_flops(padded));
        // `M` is read as the class table laid on the 27 diagonals.
        let mass_table = 27 * (index + 27 * (std::mem::size_of::<isize>() + 8 * 3));
        assert_eq!(ops.momentum_pass_bytes(), pass_bytes(mass_table, table));

        // Jittered: `C` per entry, the coefficients and the column indices;
        // `K` and `M` on diagonals — the models before the stencils, value
        // for value.
        let jittered = BoxMeshBuilder::new(4, 4, 4).with_jitter(0.1, 3).build();
        let ops = PressureOperators::new(&jittered, 16);
        assert_eq!(ops.gradient_storage(), GradientStorage::JitteredLattice);
        assert_eq!(ops.streamed_bytes(), 8 * NDIME * nnz + index * nnz);
        assert_eq!(ops.gradient_flops(), (2 * NDIME * nnz) as u64);
        assert_eq!(ops.divergence_flops(), (2 * NDIME * nnz) as u64);
        assert_eq!(ops.momentum_pass_flops(), momentum_flops(padded));
        assert_eq!(ops.momentum_pass_bytes(), pass_bytes(8 * padded, 8 * NDIME * nnz));
    }

    /// A renumbered mesh carries no lattice: the operators refuse it.
    #[test]
    #[should_panic(expected = "the mesh has no box lattice")]
    fn operators_refuse_a_mesh_without_a_lattice() {
        let m = mesh();
        let scrambled = m.renumber_nodes(&NodePermutation::scrambled(m.num_nodes(), 7));
        let _ = PressureOperators::new(&scrambled, 16);
    }

    #[test]
    fn class_stencils_are_the_integrated_coefficients_to_rounding() {
        // The integrated elements carry the rounding of their coordinates:
        // an edge `x_{i+1} − x_i` far from the origin is off by up to
        // ~`i·ε` of its length, so the deviation grows with the number of
        // elements along the longest direction, `n`.  Worst |Δ| over every
        // entry, in `n·ε` of its row's largest |C| entry, measured: 8³
        // cavity 0.93 (7.45 ε), 12³ cavity 0.95 (11.4 ε), 48 × 12 × 12
        // channel 0.74 (35.4 ε), 5 × 3 × 2 box 0.42 (2.1 ε), 4 × 3 × 1 box
        // 0.42 (1.7 ε).
        const N_EPSILONS: f64 = 1.0;
        let meshes = [
            ("8^3 cavity", BoxMeshBuilder::new(8, 8, 8).lid_driven_cavity().build(), 27),
            ("12^3 cavity", BoxMeshBuilder::new(12, 12, 12).lid_driven_cavity().build(), 27),
            ("channel", ChannelMeshBuilder::new(12, 4).build(), 27),
            ("5x3x2 box", BoxMeshBuilder::new(5, 3, 2).build(), 27),
            ("4x3x1 box", BoxMeshBuilder::new(4, 3, 1).build(), 18),
        ];
        for (name, mesh, classes) in &meshes {
            let ops = PressureOperators::new(mesh, 16);
            assert_eq!(
                ops.gradient_storage(),
                GradientStorage::ClassStencils { classes: *classes }
            );
            // The integrated `C` of the box's own coordinates, element by
            // element.
            let (generated, integrated) =
                (ops.coefficients(), GeometryTable::new(mesh).coefficients());
            let row_ptr = ops.topology.row_ptr();
            let longest = mesh.lattice().expect("a generated box").dims.into_iter().max().unwrap();
            let mut worst = 0.0f64;
            for a in 0..mesh.num_nodes() {
                let row = NDIME * row_ptr[a]..NDIME * row_ptr[a + 1];
                let largest = integrated[row.clone()].iter().fold(0.0f64, |m, c| m.max(c.abs()));
                for (g, i) in generated[row.clone()].iter().zip(&integrated[row]) {
                    worst = worst.max((g - i).abs() / (longest as f64 * f64::EPSILON * largest));
                }
            }
            assert!(worst <= N_EPSILONS, "{name}: {worst} n·ε of the row's largest entry");
        }
    }

    /// FNV-1a over the bits of `values`.
    fn bits_hash(values: &[f64]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for value in values {
            for byte in value.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    #[test]
    fn class_stiffness_and_mass_are_the_integrated_ones_to_rounding() {
        // The class stencils sum the reference element's integrals in the
        // element loop's order, so the loop run on the reference element's
        // coordinates gives `K`, `M`, the lumped mass and `w|J|` bit for
        // bit.  The loop on the box's own coordinates carries their
        // rounding: as for `C`, the deviation grows with the element count
        // of the longest direction, `n`, and `K` stays within `n·ε` of each
        // row's largest entry.  Measured worst cases: 8³ cavity 0.56, 12³
        // cavity 0.52, 7³ cavity 0.56, 4 × 3 × 1 box 0.78, 48 × 12 × 12
        // channel 0.35, 2.5 × 0.6 × 1.7 box of 6 × 5 × 4 elements 0.87.
        // `M`, the lumped mass and `w|J|`, products of three edges, read up
        // to 1.05, 1.15 and 2.46 `n·ε` there (of the value itself for the
        // last two), more than one value per class can avoid: the loop's
        // own `w|J|` on the 12³ cavity spreads ±2.36 `n·ε`.  They are held
        // by the bitwise comparison.
        const N_EPSILONS: f64 = 1.0;
        let extent = BoxMeshBuilder::new(6, 5, 4)
            .with_extent(lv_mesh::geometry::Point3::ZERO, [2.5, 0.6, 1.7])
            .build();
        let meshes = [
            ("8^3 cavity", BoxMeshBuilder::new(8, 8, 8).lid_driven_cavity().build(), 27),
            ("12^3 cavity", BoxMeshBuilder::new(12, 12, 12).lid_driven_cavity().build(), 27),
            ("7^3 cavity", BoxMeshBuilder::new(7, 7, 7).lid_driven_cavity().build(), 27),
            ("4x3x1 box", BoxMeshBuilder::new(4, 3, 1).build(), 18),
            ("channel", ChannelMeshBuilder::new(12, 4).build(), 27),
            ("2.5 x 0.6 x 1.7 box", extent, 27),
        ];
        for (name, mesh, classes) in &meshes {
            let ops = PressureOperators::new(mesh, 16);
            assert_eq!(
                ops.stiffness_source(),
                StiffnessSource::ClassStencils { classes: *classes }
            );
            let reference = PressureOperators::per_element_on_the_reference(mesh);
            assert_eq!(reference.stiffness_source(), StiffnessSource::PerElement);
            assert_same_bits(&ops.stiffness(), &reference.stiffness(), &format!("{name}: K"));
            assert_same_bits(&ops.consistent_mass(), &reference.consistent_mass(), name);
            assert_same_bits(ops.lumped_mass(), reference.lumped_mass(), name);
            for e in 0..mesh.num_elements() {
                assert_same_bits(ops.element_vol(e), reference.element_vol(e), name);
            }
            let (generated, integrated) =
                (ops.stiffness(), PressureOperators::per_element(mesh).stiffness());
            let longest = mesh.lattice().expect("a generated box").dims.into_iter().max().unwrap();
            let row_ptr = ops.topology.row_ptr();
            let mut worst = 0.0f64;
            for a in 0..mesh.num_nodes() {
                let row = row_ptr[a]..row_ptr[a + 1];
                let largest = integrated[row.clone()].iter().fold(0.0f64, |m, v| m.max(v.abs()));
                for (g, i) in generated[row.clone()].iter().zip(&integrated[row]) {
                    worst = worst.max((g - i).abs() / (longest as f64 * f64::EPSILON * largest));
                }
            }
            assert!(worst <= N_EPSILONS, "{name}: K off by {worst} n·ε");
            // The stencils laid on the diagonals the per-step passes
            // write: the loop's layout, every position off the node graph
            // `+0.0`.
            let (stiffness, mass) = ops.matrices_on_diagonals();
            assert!(stiffness.same_layout(&reference.matrices_on_diagonals().0), "{name}");
            let (n, offsets) = (mesh.num_nodes(), stiffness.offsets());
            let col_idx = ops.topology.col_idx();
            for a in 0..n {
                let row = &col_idx[row_ptr[a]..row_ptr[a + 1]];
                for (k, &offset) in offsets.iter().enumerate() {
                    if !row.contains(&a.wrapping_add_signed(offset)) {
                        let at = value_position(n, offsets.len(), k, a);
                        for dia in [&stiffness, &mass] {
                            assert_eq!(dia.values()[at].to_bits(), 0, "{name}: row {a}, {offset}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn class_volumes_lie_within_the_element_loops_spread() {
        // `M`, the lumped mass and `w|J|` from the reference element against
        // the element loop on each box's own coordinates: per class (a
        // row's position class and the entry's column offset for `M`, the
        // row's class for the lumped mass, the integration point for
        // `w|J|`) the class value lies within the loop's values over that
        // class widened by `n·ε` of their magnitude, `n` the element count
        // of the longest direction — `M`'s magnitude its row's largest
        // entry, as for `K`; the other two's the value itself.  Measured
        // worst excess beyond the loop's own range: `M` 0.89, the lumped
        // mass 0.86, `w|J|` 0 (inside it).
        let mut worst = [0.0f64; 3];
        for (name, mesh) in &unjittered_boxes() {
            let lattice = mesh.lattice().expect("a generated box");
            let n = lattice.dims.into_iter().max().unwrap();
            let points = lattice.points();
            let class = |a: usize| {
                let (i, j, k) =
                    (a % points[0], a / points[0] % points[1], a / points[0] / points[1]);
                let of = |x: usize, p: usize| usize::from(x > 0) + usize::from(x + 1 == p);
                9 * of(k, points[2]) + 3 * of(j, points[1]) + of(i, points[0])
            };
            let (ops, own) =
                (PressureOperators::new(mesh, 16), PressureOperators::per_element(mesh));
            let (row_ptr, col_idx) = (ops.topology.row_ptr(), ops.topology.col_idx());
            let (mass, own_mass) = (ops.consistent_mass(), own.consistent_mass());
            let entries = (0..mesh.num_nodes())
                .flat_map(|a| (row_ptr[a]..row_ptr[a + 1]).map(move |e| (a, e)));
            let largest = |a: usize| {
                own_mass[row_ptr[a]..row_ptr[a + 1]].iter().fold(0.0f64, |m, x| m.max(x.abs()))
            };
            let mass = entries.map(|(a, e)| {
                let key = (class(a), col_idx[e] as isize - a as isize);
                (key, mass[e], own_mass[e], largest(a))
            });
            worst[0] = worst[0].max(assert_within_class_spread(&format!("{name}: M"), n, mass));
            let lumped = (0..mesh.num_nodes()).map(|a| {
                (class(a), ops.lumped_mass()[a], own.lumped_mass()[a], own.lumped_mass()[a])
            });
            let what = format!("{name}: lumped mass");
            worst[1] = worst[1].max(assert_within_class_spread(&what, n, lumped));
            let (ops, own) = (&ops, &own);
            let vol = (0..mesh.num_elements()).flat_map(|e| {
                (0..PGAUS).map(move |g| {
                    let q = own.element_vol(e)[g];
                    (g, ops.element_vol(e)[g], q, q)
                })
            });
            let what = format!("{name}: w|J|");
            worst[2] = worst[2].max(assert_within_class_spread(&what, n, vol));
        }
        println!(
            "beyond the loop's range, in n·ε: M {:.2}, lumped {:.2}, w|J| {:.2}",
            worst[0], worst[1], worst[2]
        );
    }

    #[test]
    fn the_node_graph_has_the_lattice_s_entry_count() {
        // `Π_d (3·p_d − 2)` entries, the count the flop models read.
        let mut meshes = unjittered_boxes();
        meshes.push(("jittered box", BoxMeshBuilder::new(5, 3, 2).with_jitter(0.1, 4).build()));
        for (name, mesh) in &meshes {
            let ops = PressureOperators::new(mesh, 16);
            assert_eq!(ops.node_graph_entries(), ops.topology.col_idx().len() as u64, "{name}");
        }
    }

    /// A jittered box keeps the per-element loop: `K`, `M`, the lumped mass,
    /// `w|J|` and `C` hash to what the loop produced before unjittered
    /// boxes took them from class stencils.
    #[test]
    fn a_jittered_box_keeps_the_bits_of_its_element_loop() {
        let m = BoxMeshBuilder::new(12, 12, 12).lid_driven_cavity().with_jitter(0.1, 5).build();
        let ops = PressureOperators::new(&m, 16);
        assert_eq!(ops.stiffness_source(), StiffnessSource::PerElement);
        assert!(ops.topology.has_slot_map(), "the per-entry `C` scatters through the slot map");
        let hashes = [
            bits_hash(&ops.stiffness()),
            bits_hash(&ops.consistent_mass()),
            bits_hash(ops.lumped_mass()),
            bits_hash(&ops.gpvol),
            bits_hash(&ops.coefficients()),
        ];
        let recorded = [
            0x6f52_3a0f_58a9_5f34,
            0x89fc_f5b9_443c_78c1,
            0x528f_cfd9_49e9_2eba,
            0x773c_ddbb_6b02_6e56,
            0x9040_aee1_03cf_ecd5,
        ];
        for (what, (hash, recorded)) in
            ["K", "M", "lumped mass", "w|J|", "C"].iter().zip(hashes.iter().zip(recorded))
        {
            assert_eq!(*hash, recorded, "{what}: {hash:#018x}");
        }
    }

    #[test]
    fn stencil_passes_are_the_per_entry_passes_bit_for_bit_on_any_row_share() {
        // 11³ = 1331 rows: teams of 2 and 3 fork and cut x-lines of 11
        // nodes mid-line (shares of 666 and 444 rows).
        let m = BoxMeshBuilder::new(10, 10, 10).lid_driven_cavity().build();
        let n = m.num_nodes();
        let ops = PressureOperators::new(&m, 32);
        assert!(matches!(ops.gradient, Gradient::Stencils(_)));
        // The oracle: the per-entry row products over the same coefficients.
        let mut per_entry = ops.clone();
        per_entry.gradient = Gradient::PerEntry(ops.coefficients());
        let (velocity, pressure) = (test_velocity(&m), test_pressure(&m));
        let p = pressure.as_slice();
        let rhs0: Vec<f64> = (0..NDIME * n).map(|i| (i as f64 * 0.37).sin()).collect();
        let (scale, factor) = (-1.0 / 0.013, 0.013);
        let mut matrix = ops.assemble_laplacian();
        for (k, v) in matrix.pattern_and_values_mut().2.iter_mut().enumerate() {
            *v = (k as f64 * 0.11).cos();
        }
        let matrix: DiaMatrix = DiaMatrix::from_csr(&matrix).expect("27 diagonals");
        let passes = |ops: &PressureOperators, team: &Team| {
            let (mut div, mut poisson, mut poisson_div) =
                (vec![f64::NAN; n], vec![f64::NAN; n], vec![f64::NAN; n]);
            ops.weak_divergence_on(team, &velocity, &mut div);
            ops.poisson_rhs_on(team, &velocity, scale, &mut poisson_div, &mut poisson);
            let mut grad = vec![f64::NAN; NDIME * n];
            ops.weak_gradient_on(team, p, &mut grad);
            let mut rhs = rhs0.clone();
            ops.subtract_weak_gradient_on(team, p, &mut rhs);
            let mut corrected = velocity.clone();
            ops.correct_velocity_on(team, p, factor, &mut corrected);
            let mut residual = vec![f64::NAN; NDIME * n];
            ops.momentum_residual_and_mass_on(
                team,
                &mut matrix.clone(),
                &velocity,
                p,
                1.0,
                &mut residual,
            );
            [div, poisson, poisson_div, grad, rhs, corrected.as_slice().to_vec(), residual]
        };
        let names = ["divergence", "Poisson rhs", "fused divergence", "gradient", "rhs −= g"];
        let names = [&names[..], &["correction", "momentum residual"]].concat();
        let oracle = passes(&per_entry, &Team::new(1));
        for threads in [1usize, 2, 3] {
            for (name, (got, want)) in
                names.iter().zip(passes(&ops, &Team::new(threads)).iter().zip(&oracle))
            {
                assert_same_bits(got, want, &format!("{name}, {threads} threads"));
            }
        }
        assert_eq!(ops.weak_divergence_norm(&velocity), per_entry.weak_divergence_norm(&velocity));

        // Every cut of the rows into two shares, directly.
        let mut whole = vec![[f64::NAN; NDIME]; n];
        ops.gradient_rows(p, 0..n, |a, g| whole[a] = g);
        for cut in 0..=n {
            let mut parts = vec![[f64::NAN; NDIME]; n];
            ops.gradient_rows(p, 0..cut, |a, g| parts[a] = g);
            ops.gradient_rows(p, cut..n, |a, g| parts[a] = g);
            assert!(
                parts
                    .iter()
                    .flatten()
                    .zip(whole.iter().flatten())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "cut at {cut}"
            );
        }
    }
}
