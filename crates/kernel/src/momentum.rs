//! The momentum-increment system of a semi-implicit time step: three
//! component systems sharing one assembled matrix, assembled on the
//! diagonals of the mesh's lattice and solved in one three-column loop.
//!
//! **Born where it is solved.**  Every element of a box lattice in
//! generator order — jittered or not — puts its nodes at the same offsets
//! from its first node, so each element entry `(a, b)` lies on the same
//! `col − row` diagonal in every element ([`lv_mesh::ElementDiagonals`], at
//! most 27 of them).  The matrix is an [`lv_solver::DiaMatrix`] on those
//! diagonals ([`NastinAssembly::new_momentum_matrix`]) that the step
//! assembles, takes its right-hand side from, pins and solves on, with no
//! CSR form at any point.
//!
//! **A gather, not a colored scatter.**  Elements and rows are both lattice
//! indexed, so the convection `C(u)` needs no colours (OP2, Reguly et al.,
//! arXiv:1403.7209: on a lattice, increments that need colours become a
//! gather).  The element matrices are computed in mesh order — chunks of
//! `VECTOR_SIZE` consecutive elements, lanes along x — into a window of
//! two z-layers of elements (cut into y-bands where a layer would outgrow
//! L2, [`WINDOW_LAYER_ELEMENTS`]); each row of the node plane between the
//! two layers then sums its at most eight elements' entries onto `ν·K` in
//! one fixed lattice order (element z, y, x offset ascending) and writes
//! its diagonals once, unit-stride along x.  Ranks split the rows into
//! whole storage blocks and compute the element layers their rows need (a
//! boundary layer twice, no barrier), so every entry is the same sum in the
//! same order on **every thread count, bit for bit**.
//!
//! The solve is one [`lv_solver::bicgstab3_on`] three-column BiCGSTAB, so
//! one matrix traversal per Krylov iteration serves all three components
//! and each fused BLAS-1 operation pays one fork/join instead of three.
//! Per component the result is bit for bit what
//! [`lv_solver::bicgstab_on`] returns for that component alone (the
//! solver's contract, which a test below re-checks on an assembled system).

use crate::config::KernelConfig;
use crate::phases;
use crate::stencil::CORNERS;
use crate::{ConvectiveGeometry, ElementWorkspace, NastinAssembly, PressureOperators, PNODE};
use lv_mesh::chunks::ElementChunk;
use lv_mesh::{ElementDiagonals, Field, MeshTopology, VectorField};
use lv_runtime::{for_each_share, Team};
use lv_solver::dia::{value_position, BLOCK_ROWS, MAX_DIAGONALS};
use lv_solver::{
    bicgstab3_on, DiaMatrix, LinearOperator, MultiVector, SolveOptions, SolverError, NRHS,
};
use std::ops::Range;

/// The diagonal table the momentum matrix of a mesh with `topology` is
/// assembled through, when its elements share one of at most
/// [`MAX_DIAGONALS`] offsets.
pub(crate) fn momentum_diagonals(topology: &MeshTopology) -> Option<&ElementDiagonals> {
    topology.element_diagonals().filter(|table| table.offsets().len() <= MAX_DIAGONALS)
}

/// Entries of an element matrix.
const ENTRIES: usize = PNODE * PNODE;

/// Most elements one layer of the element-matrix window holds: a layer of
/// a 32³ box (1024 elements, two layers 1 MiB) fits whole; a wider layer
/// is cut into bands of y-rows, each computed with the row below it.
pub const WINDOW_LAYER_ELEMENTS: usize = 1280;

/// Assembles the momentum-increment system of one semi-implicit time step,
/// `(ν·K + C(u) + (ρ/Δt)·M)·Δu = −(ν·K + C(u))·u − g(p)`, building only
/// what the velocity changes: the stiffness `K` and the consistent mass `M`
/// are resident in `operators` (on `matrix`'s diagonals) and the inverse
/// Jacobians in `geometry` ([`NastinAssembly::convective_geometry`]: one
/// entry on an unjittered box).  On `team`: `matrix ← ν·K + C(u)`, the
/// lattice gather (module docs), every value written once; then
/// `rhs ← −matrix·u − g(p)` and `matrix += (ρ/Δt)·M`
/// ([`PressureOperators::momentum_residual_and_mass_on`], one traversal of
/// each storage block; `(ρ/Δt)·M·u` is never formed).
///
/// `ν` and `ρ` are `assembly`'s configuration, `Δt` is `dt`; nothing of
/// `assembly`, `geometry` or `operators` is written, so any number of
/// steppers may share them.  The `assembly/color_sweep` span (a historical
/// name: nothing is coloured) records the gather, an `assembly/chunk` span
/// per rank its share.  The result is the paper's eight phases
/// ([`NastinAssembly::assemble_parallel_into_on`], then
/// [`PressureOperators::subtract_weak_gradient_on`]) in another summation
/// order — equal to a few ε of each row's largest entry (tests of
/// [`crate::assembly`]) — and bitwise identical for every thread count.
/// Dirichlet rows are the caller's ([`NastinAssembly::apply_dirichlet`]).
///
/// # Panics
/// Panics if the mesh has no box lattice, if `matrix` or `operators` are
/// not on this mesh's diagonals, if `geometry` is another assembly's, on
/// an explicit-scheme configuration, on a `dt` that is not positive, or on
/// mismatched array lengths.
#[allow(clippy::too_many_arguments)]
pub fn assemble_momentum_on(
    team: &Team,
    assembly: &NastinAssembly,
    geometry: &ConvectiveGeometry,
    operators: &PressureOperators,
    dt: f64,
    velocity: &VectorField,
    pressure: &Field,
    matrix: &mut DiaMatrix,
    rhs: &mut [f64],
    workspaces: &mut [ElementWorkspace],
) {
    let gather = Gather::new(assembly, geometry, operators, dt, velocity, pressure, matrix);
    gather.run(team, matrix, workspaces);
    let mass_scale = assembly.config().density / dt;
    operators.momentum_residual_and_mass_on(
        team,
        matrix,
        velocity,
        pressure.as_slice(),
        mass_scale,
        rhs,
    );
}

/// Node lines per y-band of a lattice `nx` elements wide: a band's element
/// rows, the one below it included, fill at most a window layer.
fn band_lines(nx: usize) -> usize {
    (WINDOW_LAYER_ELEMENTS / nx).saturating_sub(1).max(1)
}

/// The gather a step of `assembly` runs, as the operator banner names it:
/// its z-layers of elements, the y-bands they are cut into, and where the
/// element geometry comes from, e.g. `lattice gather (32 layers × 1 band;
/// J⁻¹: 1 entry)`.
///
/// # Panics
/// Panics if the mesh has no box lattice.
pub fn describe_gather(assembly: &NastinAssembly, geometry: &ConvectiveGeometry) -> String {
    let lattice = assembly.mesh().lattice().expect("the mesh has no box lattice");
    let [nx, ny, nz] = lattice.dims;
    let bands = (ny + 1).div_ceil(band_lines(nx));
    let plural = if bands == 1 { "" } else { "s" };
    let jacobians = if geometry.per_element() { "per element" } else { "1 entry" };
    format!("lattice gather ({nz} layers × {bands} band{plural}; J⁻¹: {jacobians})")
}

/// Entry `(a, b)` of the element at lattice offset `element` from a row's
/// node, which is the element's local node `a`: a term of the row's sum.
#[derive(Debug, Clone, Copy)]
struct Term {
    element: [isize; 3],
    entry: usize,
}

/// One lattice gather: the step's inputs and the lattice walk.
struct Gather<'a> {
    assembly: &'a NastinAssembly,
    geometry: &'a ConvectiveGeometry,
    config: KernelConfig,
    h_char: f64,
    velocity: &'a VectorField,
    pressure: &'a Field,
    /// `K`'s values, in the matrix's layout.
    stiffness: &'a [f64],
    /// Elements and nodes per direction.
    elements: [usize; 3],
    points: [usize; 3],
    /// The terms of each diagonal, in the order every row adds them
    /// (element z, y, x offset ascending).
    terms: Vec<Vec<Term>>,
    /// Node lines (rows of nodes along x) per band.
    band_lines: usize,
    /// Distance between two entry rows of a window layer.
    stride: usize,
}

impl<'a> Gather<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        assembly: &'a NastinAssembly,
        geometry: &'a ConvectiveGeometry,
        operators: &'a PressureOperators,
        dt: f64,
        velocity: &'a VectorField,
        pressure: &'a Field,
        matrix: &DiaMatrix,
    ) -> Self {
        let config = KernelConfig { dt, ..*assembly.config() };
        assert!(
            config.semi_implicit,
            "the convective gather assembles the semi-implicit element matrix"
        );
        assert!(dt > 0.0, "time step must be positive");
        let mesh = assembly.mesh();
        let lattice = mesh.lattice().expect("the mesh has no box lattice");
        let vs = config.vector_size;
        assert!(
            geometry.fits(mesh.num_elements(), vs),
            "the geometry was built for another assembly"
        );
        let table = momentum_diagonals(assembly.topology())
            .filter(|table| matrix.dim() == mesh.num_nodes() && matrix.offsets() == table.offsets())
            .expect(
                "the matrix does not have this mesh's sparsity pattern (use `new_momentum_matrix`)",
            );
        let stiffness = operators.stiffness_diagonals();
        assert!(matrix.same_layout(stiffness), "the operators are another mesh's");
        // Entry `(a, b)` of the element at offset `−CORNERS[a]` from a node
        // adds to that node's row on diagonal `index[PNODE·a + b]`.
        let mut terms = vec![Vec::new(); table.offsets().len()];
        for (entry, &k) in table.index().iter().enumerate() {
            let element = CORNERS[entry / PNODE].map(|c| -(c as isize));
            terms[k as usize].push(Term { element, entry });
        }
        for terms in &mut terms {
            terms.sort_by_key(|t| [t.element[2], t.element[1], t.element[0]]);
        }
        let elements = lattice.dims;
        let band_lines = band_lines(elements[0]);
        let band_rows = (band_lines + 1).min(elements[1]);
        Gather {
            assembly,
            geometry,
            config,
            h_char: mesh.characteristic_length(),
            velocity,
            pressure,
            stiffness: stiffness.values(),
            elements,
            points: lattice.points(),
            terms,
            band_lines,
            // One line more than a band's elements: entry rows a power of
            // two apart would compete for the same cache sets.
            stride: band_rows * elements[0] + 8,
        }
    }

    /// Writes `ν·K + C(u)` over every value of `matrix`, the rows split
    /// into whole storage blocks across `min(team.num_threads(),
    /// workspaces.len())` ranks.
    fn run(&self, team: &Team, matrix: &mut DiaMatrix, workspaces: &mut [ElementWorkspace]) {
        assert!(!workspaces.is_empty(), "the gather needs at least one workspace");
        let vs = self.config.vector_size;
        assert!(workspaces.iter().all(|ws| ws.vector_size() == vs));
        let (n, nd) = (matrix.dim(), matrix.offsets().len());
        let workers = team.num_threads().min(workspaces.len());
        let width = n.div_ceil(BLOCK_ROWS).div_ceil(workers) * BLOCK_ROWS;
        let mut rest = matrix.values_mut();
        let mut shares: Vec<(Range<usize>, &mut [f64])> = (0..workers)
            .map(|w| {
                let rows = (w * width).min(n)..((w + 1) * width).min(n);
                let (share, tail) = std::mem::take(&mut rest).split_at_mut(rows.len() * nd);
                rest = tail;
                (rows, share)
            })
            .collect();
        let trace = team.trace();
        let sweep_span = trace.map(|t| t.span(lv_trace::spans::ASSEMBLY_COLOR_SWEEP, 0));
        let parallel = (workers > 1).then_some(team);
        let ranks = (&mut workspaces[..workers], &mut shares[..]);
        for_each_share(parallel, workers, 1, ranks, |ranks, ranks_out| {
            let ([ws], [(rows, values)]) = ranks_out else { return };
            let span = trace.map(|t| t.span(lv_trace::spans::ASSEMBLY_CHUNK, ranks.start as u16));
            let elements = self.rows(rows.clone(), values, ws);
            if let Some(s) = span {
                s.iters(elements as u64).finish();
            }
        });
        if let Some(s) = sweep_span {
            let elements = self.assembly.mesh().num_elements() as u64;
            let values = (n * nd) as u64;
            s.iters(elements)
                .flops(elements * phases::convective_flops_per_element() + values)
                .bytes(elements * phases::convective_bytes_per_element() + 2 * 8 * values)
                .finish();
        }
    }

    /// The gather of the rows `rows` (whole storage blocks) into their
    /// values; returns the elements whose matrices it computed.
    fn rows(&self, rows: Range<usize>, values: &mut [f64], ws: &mut ElementWorkspace) -> usize {
        if rows.is_empty() {
            return 0;
        }
        let ([_, ny, nz], [px, py, _]) = (self.elements, self.points);
        let planes = rows.start / (px * py)..(rows.end - 1) / (px * py) + 1;
        let layer_len = ENTRIES * self.stride;
        let (mut v, window) = ws.views_and_window(2 * layer_len);
        let mut computed = 0;
        for band_start in (0..py).step_by(self.band_lines) {
            let band = band_start..py.min(band_start + self.band_lines);
            let element_rows = band.start.saturating_sub(1)..band.end.min(ny);
            // The layer each half of the window holds.
            let mut held = [usize::MAX; 2];
            for k in planes.clone() {
                let band_rows = (k * py + band.start) * px..(k * py + band.end) * px;
                let nodes = rows.start.max(band_rows.start)..rows.end.min(band_rows.end);
                if nodes.is_empty() {
                    continue;
                }
                for layer in k.saturating_sub(1)..(k + 1).min(nz) {
                    if held[layer % 2] != layer {
                        let out = &mut window[layer % 2 * layer_len..][..layer_len];
                        computed += self.layer(layer, element_rows.clone(), &mut v, out);
                        held[layer % 2] = layer;
                    }
                }
                let layers = Layers { window, stride: self.stride, first_row: element_rows.start };
                gather_rows(self, layers, k, nodes, rows.start, values);
            }
        }
        computed
    }

    /// The element matrices of `element_rows` of z-layer `layer` into one
    /// half of the window, chunk by chunk; returns their count.
    fn layer(
        &self,
        layer: usize,
        element_rows: Range<usize>,
        v: &mut crate::WorkspaceViewsMut,
        out: &mut [f64],
    ) -> usize {
        let (assembly, config) = (self.assembly, &self.config);
        let (mesh, shape) = (assembly.mesh(), assembly.shape());
        let [nx, ny, _] = self.elements;
        let first = (layer * ny + element_rows.start) * nx;
        let count = element_rows.len() * nx;
        let vs = config.vector_size;
        for start in (0..count).step_by(vs) {
            let chunk = ElementChunk {
                first_element: first + start,
                len: vs.min(count - start),
                vector_size: vs,
            };
            phases::phase2_gather_unknowns_slices(mesh, self.velocity, self.pressure, &chunk, v);
            let geometry = self.geometry.slots(chunk.first_element);
            let (h, out) = (self.h_char, &mut out[start..]);
            phases::phase6_reference_convective_slices(
                shape,
                config,
                h,
                geometry,
                v,
                chunk.len,
                out,
                self.stride,
            );
        }
        count
    }
}

/// The element matrices the rows of a plane read: entry `e` of the element
/// at lattice `(x, y, z)` at `window[(z % 2)·ENTRIES·stride + e·stride +
/// (y − first_row)·nx + x]`.
#[derive(Clone, Copy)]
struct Layers<'w> {
    window: &'w [f64],
    stride: usize,
    first_row: usize,
}

lv_runtime::multiversion! {
    /// The row gather of `nodes` — whole node lines of plane `k` but for
    /// the ends of the rank's rows, which start at `first` — into their
    /// values.  Storage block by block and diagonal by diagonal, so the
    /// value runs are written (and `K`'s read) front to back: a run's
    /// `ν·K`, then every term whose element exists added in the diagonal's
    /// order, node line by node line, one unit-stride pass along x each.
    fn gather_rows(
        gather: &Gather<'_>,
        layers: Layers<'_>,
        k: usize,
        nodes: Range<usize>,
        first: usize,
        values: &mut [f64],
    ) = gather_rows_body, at gather_rows_at;
}

#[inline(always)]
fn gather_rows_body(
    gather: &Gather<'_>,
    layers: Layers<'_>,
    k: usize,
    nodes: Range<usize>,
    first: usize,
    values: &mut [f64],
) {
    let ([nx, ny, nz], [px, py, _]) = (gather.elements, gather.points);
    let nu = gather.config.viscosity;
    let nd = gather.terms.len();
    let n = gather.stiffness.len() / nd;
    let plane = k * py * px;
    let mut start = nodes.start;
    while start < nodes.end {
        let end = nodes.end.min(start - start % BLOCK_ROWS + BLOCK_ROWS);
        let lines = (start - plane) / px..(end - 1 - plane) / px + 1;
        for d in 0..nd {
            let at = value_position(n, nd, d, start);
            let out = &mut values[at - first * nd..][..end - start];
            for (o, &s) in out.iter_mut().zip(&gather.stiffness[at..at + end - start]) {
                *o = nu * s;
            }
            for term in &gather.terms[d] {
                let [ox, oy, oz] = term.element;
                let ez = k as isize + oz;
                if ez < 0 || ez >= nz as isize {
                    continue;
                }
                let layer =
                    (ez as usize % 2) * ENTRIES * layers.stride + term.entry * layers.stride;
                for j in lines.clone() {
                    let ey = j as isize + oy;
                    if ey < 0 || ey >= ny as isize {
                        continue;
                    }
                    let line = plane + j * px;
                    let src = &layers.window[layer + (ey as usize - layers.first_row) * nx..][..nx];
                    // Node i of the line reads the element at x = i + ox.
                    let i0 = start.max(line) - line;
                    let i1 = end.min(line + px) - line;
                    let (lo, hi) = (i0.max((-ox) as usize), i1.min((nx as isize - ox) as usize));
                    if lo < hi {
                        let src = &src[(lo as isize + ox) as usize..][..hi - lo];
                        for (o, &e) in out[line + lo - start..][..hi - lo].iter_mut().zip(src) {
                            *o += e;
                        }
                    }
                }
            }
        }
        start = end;
    }
}

/// Result of one momentum solve (all three components).
#[derive(Debug, Clone)]
pub struct MomentumSolve {
    /// The velocity increment, node-interleaved (`increment[NRHS*node + c]`
    /// — the storage layout of a `lv_mesh::VectorField`).
    pub increment: Vec<f64>,
    /// Krylov iterations of each component solve.
    pub iterations: [usize; NRHS],
    /// Worst final relative residual across the components.
    pub worst_residual: f64,
}

impl MomentumSolve {
    /// Total Krylov iterations across the three components.
    pub fn total_iterations(&self) -> usize {
        self.iterations.iter().sum()
    }
}

/// Solves the three momentum-increment systems on the caller's worker team
/// in one three-column BiCGSTAB loop.
///
/// `operator` is the assembled momentum matrix (Dirichlet rows applied);
/// `rhs` is the assembled node-interleaved right-hand side
/// (`rhs[NRHS*node + c]`, Dirichlet rows already applied); the returned
/// increment uses the same layout.
///
/// # Errors
/// Returns the first component's solver error if any component fails to
/// converge or breaks down.
pub fn solve_momentum_on(
    team: &Team,
    operator: &dyn LinearOperator,
    rhs: &[f64],
    options: &SolveOptions,
) -> Result<MomentumSolve, SolverError> {
    let n = operator.dim();
    assert_eq!(rhs.len(), NRHS * n, "rhs must be the node-interleaved 3-component layout");
    let mut increment = vec![0.0; NRHS * n];
    let mut iterations = [0usize; NRHS];
    let mut worst_residual = 0.0f64;
    let b = MultiVector::from_interleaved(rhs);
    for (c, outcome) in bicgstab3_on(team, operator, &b, options).into_iter().enumerate() {
        let solve = outcome?;
        iterations[c] = solve.iterations;
        worst_residual = worst_residual.max(solve.final_residual());
        for (node, &du) in solve.solution.iter().enumerate() {
            increment[NRHS * node + c] = du;
        }
    }
    Ok(MomentumSolve { increment, iterations, worst_residual })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::NastinAssembly;
    use crate::config::{KernelConfig, OptLevel};
    use lv_mesh::structured::BoxMeshBuilder;
    use lv_mesh::Vec3;
    use lv_solver::{bicgstab_on, CsrMatrix};

    /// The Dirichlet-applied momentum system of a jittered `n³` cavity.
    fn assembled_system(n: usize) -> (CsrMatrix, Vec<f64>) {
        let mesh = BoxMeshBuilder::new(n, n, n).lid_driven_cavity().with_jitter(0.1, 9).build();
        let asm = NastinAssembly::new(mesh.clone(), KernelConfig::new(32, OptLevel::Vec1));
        let mut velocity = VectorField::taylor_green(&mesh);
        velocity.apply_boundary_conditions(&mesh, Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO);
        let pressure = Field::from_fn(&mesh, |p| p.x * p.y);
        let mut out = asm.assemble(&velocity, &pressure);
        asm.apply_dirichlet(&mut out.matrix, &mut out.rhs);
        (out.matrix, out.rhs)
    }

    /// `ν·K` plus every element matrix of the gather's kernels scattered
    /// in mesh order, element by element, onto the diagonals: each entry
    /// the sum the gather forms — `ν·K`, then the elements in ascending
    /// index, which is the lattice order (z, y, x) of its row sums.
    fn scattered(
        asm: &NastinAssembly,
        geometry: &ConvectiveGeometry,
        ops: &PressureOperators,
        dt: f64,
        (v, p): (&VectorField, &Field),
    ) -> DiaMatrix {
        let (mesh, shape) = (asm.mesh(), asm.shape());
        let config = KernelConfig { dt, ..*asm.config() };
        let vs = config.vector_size;
        let mut matrix = asm.new_momentum_matrix();
        for (value, &k) in matrix.values_mut().iter_mut().zip(ops.stiffness_diagonals().values()) {
            *value = config.viscosity * k;
        }
        let table = momentum_diagonals(asm.topology()).expect("a generator box");
        let (n, nd) = (mesh.num_nodes(), table.offsets().len());
        let mut ws = ElementWorkspace::new(vs);
        let mut out = vec![0.0; ENTRIES * vs];
        for chunk in asm.chunks() {
            let mut w = ws.views_mut();
            phases::phase2_gather_unknowns_slices(mesh, v, p, chunk, &mut w);
            let (h, geometry) = (mesh.characteristic_length(), geometry.slots(chunk.first_element));
            phases::phase6_reference_convective_slices(
                shape, &config, h, geometry, &w, chunk.len, &mut out, vs,
            );
            for slot in 0..chunk.len {
                let nodes = mesh.element_nodes(chunk.first_element + slot);
                for (entry, &k) in table.index().iter().enumerate() {
                    let row = nodes[entry / PNODE] as usize;
                    matrix.values_mut()[value_position(n, nd, k as usize, row)] +=
                        out[entry * vs + slot];
                }
            }
        }
        matrix
    }

    /// The boxes the gather is held to its oracle on: odd and even plane
    /// counts (8, 13 and 2 node planes, none a multiple of 3), a box one
    /// element thick, the channel, a jittered box, and a box wide enough
    /// to be cut into three y-bands.
    fn gather_meshes() -> Vec<(&'static str, lv_mesh::Mesh)> {
        vec![
            ("7^3 cavity", BoxMeshBuilder::new(7, 7, 7).lid_driven_cavity().build()),
            ("12^3 cavity", BoxMeshBuilder::new(12, 12, 12).lid_driven_cavity().build()),
            ("4x3x1 box", BoxMeshBuilder::new(4, 3, 1).build()),
            ("48x12x12 channel", lv_mesh::ChannelMeshBuilder::new(12, 4).build()),
            (
                "12^3 jittered",
                BoxMeshBuilder::new(12, 12, 12).lid_driven_cavity().with_jitter(0.1, 5).build(),
            ),
            ("100x30x2 box, 3 bands", BoxMeshBuilder::new(100, 30, 2).build()),
        ]
    }

    #[test]
    fn gather_is_the_mesh_order_scatter_bitwise_on_every_team() {
        // Every entry of `ν·K + C(u)` is the oracle's sum to the bit, on 1,
        // 2 and 3 threads (row shares of whole blocks cut planes and lines
        // anywhere), at vector sizes that pad the last chunk of a layer or
        // span several rows, from workspaces and a matrix full of garbage.
        for (name, mesh) in &gather_meshes() {
            let mut v = VectorField::taylor_green(mesh);
            v.apply_boundary_conditions(mesh, Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO);
            let p = Field::from_fn(mesh, |x| x.x * x.y - 0.5 * x.z);
            for vs in [16usize, 17, 128] {
                let asm = NastinAssembly::new(mesh.clone(), KernelConfig::new(vs, OptLevel::Vec1));
                let ops = PressureOperators::with_topology(mesh, asm.topology().clone());
                let geometry = asm.convective_geometry();
                let dt = 0.013;
                let oracle = scattered(&asm, &geometry, &ops, dt, (&v, &p));
                for threads in [1usize, 2, 3] {
                    let what = format!("{name}, VS {vs}, {threads} threads");
                    let team = Team::new(threads);
                    let mut workspaces: Vec<ElementWorkspace> =
                        (0..threads).map(|_| ElementWorkspace::new(vs)).collect();
                    let mut matrix = asm.new_momentum_matrix();
                    for round in 0..2 {
                        // The second round's window and matrix hold garbage.
                        matrix.values_mut().fill(f64::NAN);
                        workspaces.iter_mut().for_each(|ws| ws.poison(-7.25 * round as f64));
                        let gather = Gather::new(&asm, &geometry, &ops, dt, &v, &p, &matrix);
                        gather.run(&team, &mut matrix, &mut workspaces);
                        for (k, (x, y)) in matrix.values().iter().zip(oracle.values()).enumerate() {
                            assert_eq!(x.to_bits(), y.to_bits(), "{what}: value {k}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_banner_names_layers_bands_and_the_geometry() {
        let cases = [
            (
                BoxMeshBuilder::new(32, 32, 32).build(),
                "lattice gather (32 layers × 1 band; J⁻¹: 1 entry)",
            ),
            (
                BoxMeshBuilder::new(100, 30, 2).build(),
                "lattice gather (2 layers × 3 bands; J⁻¹: 1 entry)",
            ),
            (
                BoxMeshBuilder::new(4, 4, 4).with_jitter(0.1, 3).build(),
                "lattice gather (4 layers × 1 band; J⁻¹: per element)",
            ),
        ];
        for (mesh, banner) in cases {
            let asm = NastinAssembly::new(mesh, KernelConfig::new(128, OptLevel::Vec1));
            assert_eq!(describe_gather(&asm, &asm.convective_geometry()), banner);
        }
    }

    /// The three-column solve against three one-column solves of the same
    /// assembled system: same increments, iteration counts and residuals.
    #[test]
    fn batched_and_sequential_paths_are_bitwise_identical() {
        let (matrix, rhs) = assembled_system(4);
        let n = matrix.dim();
        let options = SolveOptions::default();
        for threads in [1usize, 2] {
            let team = Team::new(threads);
            let bat = solve_momentum_on(&team, &matrix, &rhs, &options).expect("momentum solve");
            let mut worst = 0.0f64;
            for c in 0..NRHS {
                let b: Vec<f64> = (0..n).map(|i| rhs[NRHS * i + c]).collect();
                let seq = bicgstab_on(&team, &matrix, &b, &options).expect("one-column solve");
                assert_eq!(seq.iterations, bat.iterations[c], "threads={threads} c={c}");
                worst = worst.max(seq.final_residual());
                for (node, du) in seq.solution.iter().enumerate() {
                    let got = bat.increment[NRHS * node + c];
                    assert_eq!(du.to_bits(), got.to_bits(), "threads={threads} c={c}");
                }
            }
            assert_eq!(worst.to_bits(), bat.worst_residual.to_bits(), "threads={threads}");
            assert!(bat.total_iterations() > 0);
            assert!(bat.worst_residual < 1e-8);
        }
    }

    /// The same solve on the assembled CSR matrix and on its diagonal
    /// storage, below and above the row count where the teams fork:
    /// increments, iteration counts and residuals agree to the bit.
    #[test]
    fn csr_and_diagonal_storage_give_the_same_solve_bitwise() {
        for n in [4usize, 11] {
            let (matrix, rhs) = assembled_system(n);
            let dia: DiaMatrix = DiaMatrix::from_csr(&matrix).expect("a generator-ordered box");
            assert_eq!(dia.offsets().len(), 27);
            let options = SolveOptions::default();
            for threads in [1usize, 2] {
                let team = Team::new(threads);
                let on_csr = solve_momentum_on(&team, &matrix, &rhs, &options).expect("CSR");
                let on_dia = solve_momentum_on(&team, &dia, &rhs, &options).expect("diagonals");
                let what = format!("{n}³ on {threads} thread(s)");
                assert_eq!(on_dia.iterations, on_csr.iterations, "{what}");
                assert!(on_csr.total_iterations() > 0, "{what}");
                assert_eq!(
                    on_dia.worst_residual.to_bits(),
                    on_csr.worst_residual.to_bits(),
                    "{what}"
                );
                for (i, (a, b)) in on_dia.increment.iter().zip(&on_csr.increment).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{what}: increment entry {i}");
                }
            }
        }
    }
}
