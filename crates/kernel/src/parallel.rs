//! Mesh-colored multi-threaded assembly on the shared worker pool.
//!
//! The parallel sweep processes the colors of a [`ColoredChunks`] schedule
//! sequentially and the chunks *within* a color concurrently: the coloring
//! guarantees that no two chunks of a color share a mesh node, so every
//! thread scatters into disjoint rows of the global matrix and disjoint
//! entries of the RHS — no atomics, no locks, no reduction buffers.
//!
//! Each worker owns one [`ElementWorkspace`] for the whole sweep (the
//! "workhorse collection" idiom, one per thread) and runs the slice-view
//! phases on its chunks.  The sweep runs as **one job on an
//! [`lv_runtime::Team`]** — the persistent pool the Krylov solvers share —
//! with [`Team::barrier`] separating the colors (every scatter of color `c`
//! must land before any chunk of color `c+1` starts).  A time-step loop
//! spawns its workers once and reuses them for every assembly *and* every
//! solve.  The unsafe disjoint-row scatter is isolated in the two sinks,
//! which only these sweeps use, with the coloring invariant spelled out:
//! `MatrixSink` adds an element row to a CSR matrix through the
//! element→CSR slot map, `DiagonalSink` to a block-major
//! [`DiaMatrix`] through the mesh's one `(a, b) → diagonal` table
//! ([`ElementDiagonals`], 64 entries, no per-element map).  The projection
//! operators accumulate their set-up integrals serially, in mesh order, in
//! safe code.
//!
//! ## Two sweeps, one schedule
//!
//! `colored_sweep` is written once over a `Sweep`: the paper's eight
//! phases with the elemental right-hand side and matrix scattered
//! (`Sweep::Full`, [`NastinAssembly::assemble_parallel_into_on`]), or the
//! time step's convective-only selection — no coordinate gather and no
//! phase 3 (the chunk's rows of a resident [`ConvectiveGeometry`] instead),
//! velocity-only phase 4, the reference-space phase 6, no phase 7,
//! matrix-only scatter, no right-hand side at all (`Sweep::Convective`,
//! [`NastinAssembly::assemble_convective_into_on`]), into the step's
//! diagonal momentum matrix.  Schedule, worker split, barriers and the
//! scatter with its release-build bounds check are shared; the
//! `assembly/color_sweep` span charges each sweep the flops and bytes of the
//! phases it ran (the structural 9 600 / 1 472 per element for the full one,
//! [`phases::convective_flops_per_element`] /
//! [`phases::convective_bytes_per_element`] for the step's).
//!
//! The schedule is [`ColoredChunks::mesh_order`]: chunks of consecutive
//! elements colored against each other.  The slots of a chunk share nodes
//! with each other — a chunk is one worker's sequential loop, so that is
//! safe, and it is what keeps the gathers and the 64-entry scatter of every
//! element in cache — while the chunks of one color share none, which is
//! all the disjoint-row invariant below needs.
//!
//! [`NastinAssembly::assemble_parallel_into_on`]: crate::NastinAssembly::assemble_parallel_into_on
//! [`NastinAssembly::assemble_convective_into_on`]: crate::NastinAssembly::assemble_convective_into_on
//!
//! ## Determinism
//!
//! The schedule (color order, chunk order within a color, slot order within
//! a chunk) is fixed, the chunk→worker split is the static
//! [`lv_runtime::partition`], and concurrent chunks touch disjoint
//! accumulators, so every row is summed in (color, chunk, slot) order and
//! the result is **bitwise identical for every thread count**.  With
//! respect to the *mesh-order serial* sweep the colors permute the chunk
//! order, which changes the floating-point summation order of the rows two
//! chunks share: results agree to rounding accuracy (a few ε of a row's
//! largest entry), not bit for bit — the same trade every
//! colored/atomic-free assembly makes (OP2, Alya's own OpenMP path).

use crate::assembly::ConvectiveGeometry;
use crate::config::KernelConfig;
use crate::phases;
use crate::workspace::ElementWorkspace;
use crate::{NDIME, PNODE};
use lv_mesh::coloring::ColoredChunks;
use lv_mesh::{ElementDiagonals, Field, Mesh, MeshTopology, ShapeTable, VectorField};
use lv_runtime::{for_each_share, partition, Team};
use lv_solver::dia::value_position;
use lv_solver::{CsrMatrix, DiaMatrix};

/// Order-of-magnitude model of the assembly work per element: 8 Gauss
/// points × 8 nodes across the seven numeric phases.  Used only for the
/// telemetry roofline (a fixed structural count, deterministic across
/// thread counts) — never for scheduling.
pub(crate) const ASSEMBLY_FLOPS_PER_ELEMENT: u64 = 9_600;
/// Bytes moved per element by the gather + scatter phases (coordinates,
/// unknowns, the 8×8 block and the RHS), same modeling caveat as above.
pub(crate) const ASSEMBLY_BYTES_PER_ELEMENT: u64 = 1_472;

/// Which phases a colored sweep runs on each chunk.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Sweep<'a> {
    /// The paper's eight phases, elemental right-hand side and matrix
    /// scattered.
    Full,
    /// The time step's convective-only selection over the resident geometry
    /// of the schedule's chunks: the element matrices of `C(u)` and nothing
    /// else.
    Convective(&'a ConvectiveGeometry),
}

/// The matrix a colored sweep scatters into.
pub(crate) enum SweepMatrix<'a> {
    /// CSR on the node graph, through the element→CSR slot map.
    Csr(&'a mut CsrMatrix),
    /// Block-major diagonals, through the mesh's element diagonal table.
    Diagonals(&'a mut DiaMatrix, &'a ElementDiagonals),
}

/// Per-worker partial assembly statistics.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WorkerStats {
    pub chunks: usize,
    pub elements: usize,
    pub singular_jacobians: usize,
}

/// A `Sync` raw-pointer view of a CSR value array that colored-sweep workers
/// scatter elemental rows into concurrently, through the element→CSR slot
/// map.
///
/// # Safety invariant
///
/// Concurrent users must write disjoint rows.  The colored schedule
/// guarantees this: within one color no two chunks share a mesh node
/// ([`ColoredChunks::validate`], asserted in debug builds where the
/// schedule is built), and a chunk is scattered by one worker, hence no two
/// workers touch the same matrix row.  Cross-color writes are ordered by
/// the per-color barrier in the sweep.
pub(crate) struct MatrixSink<'a> {
    row_ptr: &'a [usize],
    values: *mut f64,
}

// SAFETY: the raw pointer is only dereferenced under the disjoint-row
// invariant documented on the type; `row_ptr` is a plain `&[usize]`.
unsafe impl Sync for MatrixSink<'_> {}

impl<'a> MatrixSink<'a> {
    /// The sink of `matrix`: its own row pointers bound every write to its
    /// own value array.
    ///
    /// # Panics
    /// Panics if a row ends past the value array — the bound every write
    /// relies on.
    pub(crate) fn new(matrix: &'a mut CsrMatrix) -> Self {
        let (row_ptr, _, values) = matrix.pattern_and_values_mut();
        assert!(
            row_ptr.iter().all(|&end| end <= values.len()),
            "row pointers reach past the value array"
        );
        MatrixSink { row_ptr, values: values.as_mut_ptr() }
    }

    /// Adds one elemental row: `values[j]` goes to position `slots[j]` of
    /// the value array, which must lie in row `row`.
    ///
    /// # Panics
    /// Panics if a slot lies outside `row` — a slot map that does not belong
    /// to this matrix's pattern.
    ///
    /// # Safety
    /// The caller must own `row` under the coloring invariant (no concurrent
    /// writer touches the same row).
    #[inline]
    pub(crate) unsafe fn scatter_row(
        &self,
        row: usize,
        slots: &[u32],
        values: impl IntoIterator<Item = f64>,
    ) {
        let owned = self.row_ptr[row]..self.row_ptr[row + 1];
        for (&slot, value) in slots.iter().zip(values) {
            let slot = slot as usize;
            assert!(owned.contains(&slot), "slot {slot} lies outside matrix row {row}");
            // SAFETY: `slot` is inside row `row`, hence inside the value
            // allocation (`row_ptr` is the matrix's own), and the row is not
            // concurrently written (caller contract).
            unsafe { *self.values.add(slot) += value };
        }
    }
}

/// A `Sync` raw-pointer view of a [`DiaMatrix`]'s value array that
/// colored-sweep workers add element rows to concurrently: entry `(a, b)`
/// of an element lands on row `node_a`, diagonal `index[PNODE·a + b]` of
/// the mesh's [`ElementDiagonals`] — 64 positions for every element,
/// checked once here instead of a slot map per element.
///
/// # Safety invariant
///
/// That of [`MatrixSink`]: concurrent users write disjoint rows.  The
/// positions of one row ([`value_position`] of that row and a diagonal) are
/// the row's alone, so disjoint rows are disjoint values.
pub(crate) struct DiagonalSink<'a> {
    n: usize,
    diagonals: usize,
    table: &'a ElementDiagonals,
    values: *mut f64,
}

// SAFETY: the raw pointer is only dereferenced under the disjoint-row
// invariant documented on the type; `table` is a shared reference to data
// nobody mutates, and `n`, `diagonals` are plain integers.
unsafe impl Sync for DiagonalSink<'_> {}

impl<'a> DiagonalSink<'a> {
    /// The sink of `matrix` through `table`.
    ///
    /// # Panics
    /// Panics if `matrix` is not stored on `table`'s diagonals or the table
    /// is not one of `PNODE × PNODE` entries on them — the bounds every
    /// write relies on.
    pub(crate) fn new(matrix: &'a mut DiaMatrix, table: &'a ElementDiagonals) -> Self {
        assert_eq!(
            matrix.offsets(),
            table.offsets(),
            "the momentum matrix is not stored on this mesh's diagonals"
        );
        let diagonals = table.offsets().len();
        assert!(
            table.index().len() == PNODE * PNODE
                && table.index().iter().all(|&k| (k as usize) < diagonals),
            "the element diagonal table does not fit the matrix"
        );
        let n = matrix.dim();
        assert_eq!(matrix.values().len(), n * diagonals);
        DiagonalSink { n, diagonals, table, values: matrix.values_mut().as_mut_ptr() }
    }

    /// Adds row `inode` of an element's matrix to matrix row `row`.
    ///
    /// # Panics
    /// Panics if `row` is not a row of the matrix.
    ///
    /// # Safety
    /// As [`MatrixSink::scatter_row`]: the caller must own `row`.
    #[inline]
    unsafe fn scatter_row(&self, row: usize, inode: usize, values: impl IntoIterator<Item = f64>) {
        assert!(row < self.n, "row {row} outside the matrix");
        let index = &self.table.index()[inode * PNODE..(inode + 1) * PNODE];
        for (&k, value) in index.iter().zip(values) {
            let position = value_position(self.n, self.diagonals, k as usize, row);
            // SAFETY: `row < n` and `k < diagonals` (checked at
            // construction), so `position < n·diagonals`, the length of the
            // value array; the row is not concurrently written (caller
            // contract).
            unsafe { *self.values.add(position) += value };
        }
    }
}

/// The global system (matrix + RHS) the assembly workers scatter into,
/// under the ownership contract of [`MatrixSink`]: a worker owns the RHS
/// entries of the nodes whose rows it owns.
struct SharedSystem<'a> {
    matrix: Sink<'a>,
    rhs: *mut f64,
}

/// Where the element matrices of a sweep go: one of the two sinks.
enum Sink<'a> {
    Csr(MatrixSink<'a>),
    Diagonals(DiagonalSink<'a>),
}

// SAFETY: `rhs` is only dereferenced under the disjoint-node invariant of
// [`MatrixSink`]; both sinks are `Sync`.
unsafe impl Sync for SharedSystem<'_> {}

impl SharedSystem<'_> {
    /// Adds `value` to RHS entry `i`.
    ///
    /// # Safety
    /// The caller must own the node of entry `i` under the coloring
    /// invariant.
    #[inline]
    unsafe fn add_rhs(&self, i: usize, value: f64) {
        // SAFETY: `i < NDIME * num_nodes` (checked by the driver) and the
        // node is not concurrently written (caller contract).
        unsafe { *self.rhs.add(i) += value };
    }
}

/// Phase 8 against the shared system: identical traversal to
/// [`phases::phase8_scatter_slices`], writing through the disjoint-row view.
/// `FULL` is the paper's scatter (elemental right-hand side and matrix);
/// without it only the matrix rows go out.  Slots are scattered in order,
/// so the elements of a chunk may share rows with each other.
fn scatter_shared<const FULL: bool>(
    mesh: &Mesh,
    topology: &MeshTopology,
    config: &KernelConfig,
    v: &crate::workspace::WorkspaceViewsMut,
    system: &SharedSystem<'_>,
) {
    let vs = v.vs;
    for iv in 0..vs {
        let Some(elem) = v.element_ids[iv] else { continue };
        let nodes = mesh.element_nodes(elem);
        // Only a CSR sink reads the slot map (built on its first use).
        let slots = match &system.matrix {
            Sink::Csr(_) => topology.csr_slots(mesh, elem),
            Sink::Diagonals(_) => &[],
        };
        for (inode, &node_a) in nodes.iter().enumerate() {
            let node_a = node_a as usize;
            if FULL {
                for idime in 0..NDIME {
                    // SAFETY: this worker owns every node of its chunk
                    // within the current color (coloring invariant).
                    unsafe {
                        system.add_rhs(
                            NDIME * node_a + idime,
                            v.elrbu[(inode * NDIME + idime) * vs + iv],
                        )
                    };
                }
            }
            if config.semi_implicit {
                let row = (0..PNODE).map(|jnode| v.elauu[(inode * PNODE + jnode) * vs + iv]);
                // SAFETY: as above — row `node_a` belongs to this worker.
                unsafe {
                    match &system.matrix {
                        Sink::Csr(sink) => sink.scatter_row(
                            node_a,
                            &slots[inode * PNODE..(inode + 1) * PNODE],
                            row,
                        ),
                        Sink::Diagonals(sink) => sink.scatter_row(node_a, inode, row),
                    }
                };
            }
        }
    }
}

/// Runs the slice-view phases of `sweep` plus the shared scatter for chunk
/// `chunk_id` of `schedule`; returns the singular Jacobians phase 3 met (the
/// convective selection runs no phase 3: its geometry carries the count).
#[allow(clippy::too_many_arguments)]
fn assemble_chunk_shared(
    sweep: Sweep<'_>,
    mesh: &Mesh,
    shape: &ShapeTable,
    config: &KernelConfig,
    h_char: f64,
    velocity: &VectorField,
    pressure: &Field,
    schedule: &ColoredChunks,
    chunk_id: usize,
    topology: &MeshTopology,
    ws: &mut ElementWorkspace,
    system: &SharedSystem<'_>,
) -> usize {
    let slots = schedule.slots(chunk_id);
    ws.reset();
    let mut v = ws.views_mut();
    match sweep {
        Sweep::Full => {
            phases::phase1_gather_coords_slices(mesh, &slots, &mut v);
            phases::phase2_gather_unknowns_slices(mesh, velocity, pressure, &slots, &mut v);
            let singular = phases::phase3_jacobian_slices(shape, &mut v);
            phases::phase4_gauss_values_slices(shape, &mut v);
            phases::phase5_stabilization_slices(config, h_char, &mut v);
            phases::phase6_convective_slices(shape, config, &mut v);
            phases::phase7_viscous_slices(shape, config, &mut v);
            scatter_shared::<true>(mesh, topology, config, &v, system);
            singular
        }
        Sweep::Convective(geometry) => {
            // No coordinate gather, hence no phase 1 to note which slots
            // hold an element: without the ids the scatter skips them all.
            phases::phase1_element_ids_slices(&slots, &mut v);
            phases::phase2_gather_unknowns_slices(mesh, velocity, pressure, &slots, &mut v);
            phases::phase4_gauss_velocity_slices(shape, &mut v);
            phases::phase5_stabilization_slices(config, h_char, &mut v);
            let rows = geometry.chunk(chunk_id);
            phases::phase6_reference_convective_slices(shape, config, rows, &mut v);
            scatter_shared::<false>(mesh, topology, config, &v, system);
            0
        }
    }
}

/// The colored parallel sweep on a worker team: processes every color of
/// `schedule` sequentially, splitting the chunks of each color across the
/// workers' workspaces (rank `w` of `team` drives `workspaces[w]`).
///
/// The number of assembling workers is `min(team.num_threads(),
/// workspaces.len())`; surplus team ranks only keep the color barriers
/// balanced.  `matrix` and `rhs` are scattered into without zeroing — the
/// caller owns the lifecycle.
///
/// [`Sweep::Full`] runs the paper's eight phases into a CSR `matrix`;
/// [`Sweep::Convective`] is the time step's sweep, which adds the elemental
/// convection matrices to a diagonal `matrix` and has no right-hand
/// side (`rhs` must be empty).  Either way
/// the `assembly/color_sweep` span carries the model of the phases that
/// ran.
#[allow(clippy::too_many_arguments)]
pub(crate) fn colored_sweep(
    sweep: Sweep<'_>,
    team: &Team,
    mesh: &Mesh,
    topology: &MeshTopology,
    shape: &ShapeTable,
    config: &KernelConfig,
    velocity: &VectorField,
    pressure: &Field,
    schedule: &ColoredChunks,
    workspaces: &mut [ElementWorkspace],
    matrix: SweepMatrix<'_>,
    rhs: &mut [f64],
) -> WorkerStats {
    assert!(!workspaces.is_empty(), "the parallel sweep needs at least one workspace");
    let full = matches!(sweep, Sweep::Full);
    assert_eq!(rhs.len(), if full { NDIME * mesh.num_nodes() } else { 0 });
    for ws in workspaces.iter() {
        assert_eq!(ws.vector_size(), schedule.vector_size());
    }
    let h_char = mesh.characteristic_length();
    let matrix = match matrix {
        SweepMatrix::Csr(matrix) => Sink::Csr(MatrixSink::new(matrix)),
        SweepMatrix::Diagonals(matrix, table) => {
            assert!(!full, "the eight-phase sweep assembles CSR");
            assert_eq!(matrix.dim(), mesh.num_nodes(), "the momentum matrix has another dimension");
            Sink::Diagonals(DiagonalSink::new(matrix, table))
        }
    };
    let system = SharedSystem { matrix, rhs: rhs.as_mut_ptr() };

    let mut stats = WorkerStats::default();
    let num_workers = team.num_threads().min(workspaces.len());
    let num_colors = schedule.num_colors();
    let trace = team.trace();
    // The whole-sweep span is a *logical* (deterministic) record: element
    // and color counts are properties of the schedule, not of the split.
    let sweep_span = trace.map(|t| t.span(lv_trace::spans::ASSEMBLY_COLOR_SWEEP, 0));
    // One job on the team for the whole sweep, rank `w` handed workspace and
    // stats slot `w`; `team.barrier()` separates the colors (every scatter
    // of color c must land before any chunk of color c+1 starts).  A rank
    // whose contiguous share of a color is empty — or that has no workspace
    // at all — still waits at each barrier.  A single worker runs the same
    // schedule on the caller: no dispatch, no barrier.
    let parallel = num_workers > 1;
    let mut partials = vec![WorkerStats::default(); num_workers];
    let slots = (&mut workspaces[..num_workers], &mut partials[..]);
    for_each_share(parallel.then_some(team), num_workers, 1, slots, |workers, slots| {
        let rank = workers.start;
        let mut worker = match slots {
            ([ws], [partial]) => Some((ws, partial)),
            _ => None,
        };
        for color in 0..num_colors {
            if let Some((ws, partial)) = &mut worker {
                // Per-rank, per-color event (host-dependent: the count
                // scales with the worker count).  Finished before the
                // barrier so the recorded time is compute, not waiting.
                let chunk_span =
                    trace.map(|t| t.span(lv_trace::spans::ASSEMBLY_CHUNK, rank as u16));
                let before = partial.elements;
                let chunk_ids = schedule.color_chunks(color);
                // Static contiguous split of the color's chunks across the
                // workers (same split for every run => deterministic).
                let share = partition(chunk_ids.len(), num_workers, rank);
                for chunk_id in chunk_ids.start + share.start..chunk_ids.start + share.end {
                    partial.singular_jacobians += assemble_chunk_shared(
                        sweep, mesh, shape, config, h_char, velocity, pressure, schedule, chunk_id,
                        topology, ws, &system,
                    );
                    partial.chunks += 1;
                    partial.elements += schedule.slots(chunk_id).len();
                }
                if let Some(s) = chunk_span {
                    s.iters((partial.elements - before) as u64).aux(color as u64).finish();
                }
            }
            if parallel {
                team.barrier();
            }
        }
    });
    for partial in partials {
        stats.chunks += partial.chunks;
        stats.elements += partial.elements;
        stats.singular_jacobians += partial.singular_jacobians;
    }
    if let Some(s) = sweep_span {
        let (flops, bytes) = if full {
            (ASSEMBLY_FLOPS_PER_ELEMENT, ASSEMBLY_BYTES_PER_ELEMENT)
        } else {
            (phases::convective_flops_per_element(), phases::convective_bytes_per_element())
        };
        s.iters(stats.elements as u64)
            .flops(stats.elements as u64 * flops)
            .bytes(stats.elements as u64 * bytes)
            .aux(num_colors as u64)
            .finish();
    }
    stats
}
