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
//! All element geometry (`w|J|` and the Cartesian shape derivatives at every
//! integration point) is precomputed once at construction — the mesh does
//! not move — so each operator application is a pure gather/compute/scatter
//! sweep.  The sweeps reuse the mesh-colored chunk schedule of the assembly
//! ([`lv_mesh::coloring::ColoredChunks`]): colors run sequentially
//! (separated by [`Team::barrier`]), the chunks of a color concurrently, and
//! no two chunks of a color share a mesh node, so workers scatter into
//! disjoint rows/entries without atomics.  The chunk order within each color
//! is fixed and the chunk→worker split is the static
//! [`lv_runtime::partition`], so every operator is **bitwise identical for
//! every thread count** — the same contract as the colored assembly sweep
//! and the pooled Krylov solvers.

use crate::parallel::MatrixSink;
use crate::{NDIME, PGAUS, PNODE};
use lv_mesh::coloring::ColoredChunks;
use lv_mesh::geometry::Point3;
use lv_mesh::quadrature::GaussRule;
use lv_mesh::{ChunkSlots, ElementKind, Mesh, MeshTopology, ShapeTable, VectorField};
use lv_runtime::{partition, SharedSliceMut, Team};
use lv_solver::CsrMatrix;
use std::sync::Arc;

/// The pressure-projection operators of one mesh: precomputed element
/// geometry plus the colored schedule their sweeps run on.
#[derive(Debug, Clone)]
pub struct PressureOperators {
    mesh: Mesh,
    shape: ShapeTable,
    colored: ColoredChunks,
    /// `w_g · |J|` per `(element, gauss)`: `gpvol[PGAUS*elem + g]`.
    gpvol: Vec<f64>,
    /// Cartesian shape derivatives per `(element, gauss, node, dim)`:
    /// `gpcar[((PGAUS*elem + g)*PNODE + a)*NDIME + j]`.
    gpcar: Vec<f64>,
    /// Lumped (row-sum) mass per node: `M_a = ∫ N_a dΩ`.
    lumped_mass: Vec<f64>,
    topology: Arc<MeshTopology>,
}

impl PressureOperators {
    /// Precomputes the element geometry and the colored schedule for `mesh`.
    ///
    /// # Panics
    /// Panics if the mesh is not hexahedral or contains a non-positive
    /// Jacobian (an inverted element).
    pub fn new(mesh: &Mesh, vector_size: usize) -> Self {
        Self::with_topology(mesh, vector_size, Arc::new(MeshTopology::new(mesh)))
    }

    /// [`new`](Self::new) on an already-built topology of `mesh` (e.g.
    /// [`NastinAssembly::topology`](crate::NastinAssembly::topology)), so the
    /// node graph and coloring are not built a second time.
    ///
    /// # Panics
    /// Panics like [`new`](Self::new), or if `topology` was built for a mesh
    /// of another size.
    pub fn with_topology(mesh: &Mesh, vector_size: usize, topology: Arc<MeshTopology>) -> Self {
        assert_eq!(
            mesh.kind(),
            ElementKind::Hex8,
            "the projection operators operate on hexahedral meshes"
        );
        assert!(vector_size > 0, "vector_size must be positive");
        assert!(topology.fits(mesh), "the topology was built for another mesh");
        let shape = ShapeTable::new(ElementKind::Hex8, &GaussRule::hex_2x2x2());
        let colored = ColoredChunks::new(topology.coloring(), vector_size);
        let nelem = mesh.num_elements();
        let nnode = mesh.num_nodes();
        let mut gpvol = vec![0.0; nelem * PGAUS];
        let mut gpcar = vec![0.0; nelem * PGAUS * PNODE * NDIME];
        let mut lumped_mass = vec![0.0; nnode];
        let rule = GaussRule::hex_2x2x2();
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
        PressureOperators {
            mesh: mesh.clone(),
            shape,
            colored,
            gpvol,
            gpcar,
            lumped_mass,
            topology,
        }
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

    /// Runs `per_chunk` over every chunk of the colored schedule: colors
    /// sequential, chunks of a color split across the team's ranks (serial
    /// when `team` is `None` or has one thread).  The visit order seen by
    /// any single mesh node is identical for every thread count.
    fn run_colored<F>(&self, team: Option<&Team>, per_chunk: F)
    where
        F: Fn(ChunkSlots<'_>) + Sync,
    {
        let num_colors = self.colored.num_colors();
        let threads = team.map_or(1, Team::num_threads);
        if threads == 1 {
            for color in 0..num_colors {
                for chunk_id in self.colored.color_chunks(color) {
                    per_chunk(self.colored.slots(chunk_id));
                }
            }
            return;
        }
        let team = team.expect("threads > 1 implies a team");
        team.run(&|rank| {
            for color in 0..num_colors {
                let chunk_ids = self.colored.color_chunks(color);
                let share = partition(chunk_ids.len(), threads, rank);
                for chunk_id in chunk_ids.start + share.start..chunk_ids.start + share.end {
                    per_chunk(self.colored.slots(chunk_id));
                }
                team.barrier();
            }
        });
    }

    /// Assembles the pressure Laplacian `L_ab = ∫ ∇N_a·∇N_b dΩ` on the
    /// node-to-node graph, through the colored parallel sweep on `team`.
    /// Symmetric positive semi-definite (kernel: the constants); pin at
    /// least one node per connected component with
    /// [`CsrMatrix::pin_rows_symmetric`] to make it definite.
    pub fn assemble_laplacian_on(&self, team: &Team) -> CsrMatrix {
        self.laplacian(Some(team))
    }

    fn laplacian(&self, team: Option<&Team>) -> CsrMatrix {
        let topology = &self.topology;
        let mut matrix =
            CsrMatrix::from_pattern(topology.row_ptr().to_vec(), topology.col_idx().to_vec());
        let sink = MatrixSink::new(&mut matrix);
        self.run_colored(team, |slots| self.laplacian_chunk(&slots, &sink));
        matrix
    }

    /// [`assemble_laplacian_on`](Self::assemble_laplacian_on) without a
    /// team: the identical colored chunk order, run serially (bitwise the
    /// same result).
    pub fn assemble_laplacian(&self) -> CsrMatrix {
        self.laplacian(None)
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

    fn laplacian_chunk(&self, slots: &ChunkSlots<'_>, sink: &MatrixSink<'_>) {
        for slot in 0..slots.len() {
            let Some(elem) = slots.element(slot) else { continue };
            let nodes = self.mesh.element_nodes(elem);
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
            let csr = self.topology.csr_slots(elem);
            for (a, &node) in nodes.iter().enumerate() {
                // SAFETY: this worker owns every node of `elem` within the
                // current color (coloring invariant).
                unsafe { sink.scatter_row(node as usize, &csr[a * PNODE..(a + 1) * PNODE], el[a]) };
            }
        }
    }

    /// One chunk of the weak-divergence sweep: elemental `∫ N_a ∇·u_h`
    /// scattered into the disjoint-write nodal view.
    fn divergence_chunk(
        &self,
        slots: &ChunkSlots<'_>,
        vel: &[f64],
        sink: &SharedSliceMut<'_, f64>,
    ) {
        for slot in 0..slots.len() {
            let Some(elem) = slots.element(slot) else { continue };
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
                // SAFETY: coloring invariant (disjoint nodes per color).
                unsafe { *sink.index_mut(node as usize) += el[a] };
            }
        }
    }

    /// Weak divergence `d_a = ∫ N_a ∇·u_h dΩ` into `out` (one entry per
    /// node, zeroed first), through the colored sweep on `team`.
    pub fn weak_divergence_on(&self, team: &Team, velocity: &VectorField, out: &mut [f64]) {
        assert_eq!(out.len(), self.mesh.num_nodes());
        assert_eq!(velocity.num_nodes(), self.mesh.num_nodes());
        out.fill(0.0);
        let sink = SharedSliceMut::new(out);
        let vel = velocity.as_slice();
        self.run_colored(Some(team), |slots| self.divergence_chunk(&slots, vel, &sink));
    }

    /// Weak gradient `g_{a,i} = ∫ N_a ∂p_h/∂x_i dΩ` of the nodal scalar
    /// `scalar` into `out` (`out[NDIME*node + i]`, zeroed first), through
    /// the colored sweep on `team`.  Divide by [`Self::lumped_mass`] to
    /// recover a nodal gradient.
    pub fn weak_gradient_on(&self, team: &Team, scalar: &[f64], out: &mut [f64]) {
        assert_eq!(scalar.len(), self.mesh.num_nodes());
        assert_eq!(out.len(), NDIME * self.mesh.num_nodes());
        out.fill(0.0);
        let sink = SharedSliceMut::new(out);
        self.run_colored(Some(team), |slots| {
            for slot in 0..slots.len() {
                let Some(elem) = slots.element(slot) else { continue };
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
                        // SAFETY: coloring invariant (disjoint nodes).
                        unsafe { *sink.index_mut(NDIME * node as usize + i) += el[NDIME * a + i] };
                    }
                }
            }
        });
    }

    /// Euclidean norm of the **weak** divergence vector,
    /// `‖d‖₂ = √(Σ_a d_a²)` with `d_a = ∫ N_a ∇·u_h dΩ` — the discrete
    /// divergence functional the projection step actually drives to zero
    /// (unlike the pointwise divergence of the Q1 interpolant, which keeps
    /// an irreducible `O(h)` component even for an exactly solenoidal
    /// field).  Runs the same colored chunk order as
    /// [`weak_divergence_on`](Self::weak_divergence_on), serially, so the
    /// two agree bit for bit; the norm accumulates in node order.
    pub fn weak_divergence_norm(&self, velocity: &VectorField) -> f64 {
        let mut d = vec![0.0; self.mesh.num_nodes()];
        let vel = velocity.as_slice();
        {
            let sink = SharedSliceMut::new(&mut d);
            self.run_colored(None, |slots| self.divergence_chunk(&slots, vel, &sink));
        }
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
            for g in 0..PGAUS {
                let base = (PGAUS * elem + g) * PNODE * NDIME;
                let mut div = 0.0;
                for (b, &node) in nodes.iter().enumerate() {
                    let cb = &self.gpcar[base + b * NDIME..base + b * NDIME + NDIME];
                    let v = &vel[NDIME * node as usize..NDIME * node as usize + NDIME];
                    div += cb[0] * v[0] + cb[1] * v[1] + cb[2] * v[2];
                }
                total += self.gpvol[PGAUS * elem + g] * div * div;
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
                total += self.gpvol[PGAUS * elem + g] * (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]);
            }
        }
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
                total += self.gpvol[PGAUS * elem + g] * err;
            }
        }
        total.sqrt()
    }
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
/// solves, replacing the synthetic shifted graph Laplacian the solver bench
/// used before.
pub fn pressure_laplacian(mesh: &Mesh, vector_size: usize, pins: &[usize]) -> CsrMatrix {
    let ops = PressureOperators::new(mesh, vector_size);
    let mut matrix = ops.assemble_laplacian();
    matrix.pin_rows_symmetric(pins);
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_mesh::structured::BoxMeshBuilder;
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
        let serial_lap = ops.assemble_laplacian();
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
            let lap = ops.assemble_laplacian_on(&team);
            for (a, b) in serial_lap.values().iter().zip(lap.values()) {
                assert_eq!(a.to_bits(), b.to_bits(), "laplacian differs at {threads} threads");
            }
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
        let lap = pressure_laplacian(&m, 16, &[0]);
        assert!(lap.is_symmetric(1e-12));
        let n = m.num_nodes();
        let mut b: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 13) as f64 - 6.0).collect();
        b[0] = 0.0;
        let out = lv_solver::conjugate_gradient(
            &lap,
            &b,
            &lv_solver::SolveOptions { max_iterations: 2000, ..Default::default() },
        )
        .expect("CG must converge on the pinned pressure Laplacian");
        assert!(out.final_residual() < 1e-9);
        assert_eq!(out.solution[0], 0.0);
    }
}
