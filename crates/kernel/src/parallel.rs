//! Mesh-colored multi-threaded assembly on the shared worker pool: the
//! paper's eight phases, scattered into a CSR matrix.
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
//! must land before any chunk of color `c+1` starts).  The unsafe
//! disjoint-row scatter is isolated in `MatrixSink`, which adds an element
//! row to a CSR matrix through the element→CSR slot map, with the coloring
//! invariant spelled out.  The `assembly/color_sweep` span charges the
//! sweep the structural 9 600 flops and 1 472 bytes per element.
//!
//! This is the mini-app's sweep ([`NastinAssembly::assemble_parallel_into_on`]):
//! what `assembly_vs` times and the oracle of the time step.  A time step
//! colours nothing — on its lattice the element sums become a gather
//! ([`crate::momentum`]).
//!
//! The schedule is [`ColoredChunks::mesh_order`]: chunks of consecutive
//! elements colored against each other.  The slots of a chunk share nodes
//! with each other — a chunk is one worker's sequential loop, so that is
//! safe, and it is what keeps the gathers and the 64-entry scatter of every
//! element in cache — while the chunks of one color share none, which is
//! all the disjoint-row invariant below needs.
//!
//! [`NastinAssembly::assemble_parallel_into_on`]: crate::NastinAssembly::assemble_parallel_into_on
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

use crate::config::KernelConfig;
use crate::phases;
use crate::workspace::ElementWorkspace;
use crate::{NDIME, PNODE};
use lv_mesh::coloring::ColoredChunks;
use lv_mesh::{Field, Mesh, MeshTopology, ShapeTable, VectorField};
use lv_runtime::{for_each_share, partition, Team};
use lv_solver::CsrMatrix;
/// Order-of-magnitude model of the assembly work per element: 8 Gauss
/// points × 8 nodes across the seven numeric phases.  Used only for the
/// telemetry roofline (a fixed structural count, deterministic across
/// thread counts) — never for scheduling.
pub(crate) const ASSEMBLY_FLOPS_PER_ELEMENT: u64 = 9_600;
/// Bytes moved per element by the gather + scatter phases (coordinates,
/// unknowns, the 8×8 block and the RHS), same modeling caveat as above.
pub(crate) const ASSEMBLY_BYTES_PER_ELEMENT: u64 = 1_472;

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

/// The global system (matrix + RHS) the assembly workers scatter into,
/// under the ownership contract of [`MatrixSink`]: a worker owns the RHS
/// entries of the nodes whose rows it owns.
struct SharedSystem<'a> {
    matrix: MatrixSink<'a>,
    rhs: *mut f64,
}

// SAFETY: `rhs` is only dereferenced under the disjoint-node invariant of
// [`MatrixSink`]; the sink is `Sync`.
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
/// Slots are scattered in order, so the elements of a chunk may share rows
/// with each other.
fn scatter_shared(
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
        let slots = topology.csr_slots(mesh, elem);
        for (inode, &node_a) in nodes.iter().enumerate() {
            let node_a = node_a as usize;
            for idime in 0..NDIME {
                // SAFETY: this worker owns every node of its chunk within
                // the current color (coloring invariant).
                unsafe {
                    system
                        .add_rhs(NDIME * node_a + idime, v.elrbu[(inode * NDIME + idime) * vs + iv])
                };
            }
            if config.semi_implicit {
                let row = (0..PNODE).map(|jnode| v.elauu[(inode * PNODE + jnode) * vs + iv]);
                let slots = &slots[inode * PNODE..(inode + 1) * PNODE];
                // SAFETY: as above — row `node_a` belongs to this worker.
                unsafe { system.matrix.scatter_row(node_a, slots, row) };
            }
        }
    }
}

/// Runs the eight slice-view phases plus the shared scatter for chunk
/// `chunk_id` of `schedule`; returns the singular Jacobians phase 3 met.
#[allow(clippy::too_many_arguments)]
fn assemble_chunk_shared(
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
    phases::phase1_gather_coords_slices(mesh, &slots, &mut v);
    phases::phase2_gather_unknowns_slices(mesh, velocity, pressure, &slots, &mut v);
    let singular = phases::phase3_jacobian_slices(shape, &mut v);
    phases::phase4_gauss_values_slices(shape, &mut v);
    phases::phase5_stabilization_slices(config, h_char, &mut v);
    phases::phase6_convective_slices(shape, config, &mut v);
    phases::phase7_viscous_slices(shape, config, &mut v);
    scatter_shared(mesh, topology, config, &v, system);
    singular
}

/// The colored parallel sweep on a worker team: processes every color of
/// `schedule` sequentially, splitting the chunks of each color across the
/// workers' workspaces (rank `w` of `team` drives `workspaces[w]`).
///
/// The number of assembling workers is `min(team.num_threads(),
/// workspaces.len())`; surplus team ranks only keep the color barriers
/// balanced.  `matrix` and `rhs` are scattered into without zeroing — the
/// caller owns the lifecycle.  The `assembly/color_sweep` span carries the
/// model of the eight phases.
#[allow(clippy::too_many_arguments)]
pub(crate) fn colored_sweep(
    team: &Team,
    mesh: &Mesh,
    topology: &MeshTopology,
    shape: &ShapeTable,
    config: &KernelConfig,
    velocity: &VectorField,
    pressure: &Field,
    schedule: &ColoredChunks,
    workspaces: &mut [ElementWorkspace],
    matrix: &mut CsrMatrix,
    rhs: &mut [f64],
) -> WorkerStats {
    assert!(!workspaces.is_empty(), "the parallel sweep needs at least one workspace");
    assert_eq!(rhs.len(), NDIME * mesh.num_nodes());
    for ws in workspaces.iter() {
        assert_eq!(ws.vector_size(), schedule.vector_size());
    }
    let h_char = mesh.characteristic_length();
    let system = SharedSystem { matrix: MatrixSink::new(matrix), rhs: rhs.as_mut_ptr() };
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
                        mesh, shape, config, h_char, velocity, pressure, schedule, chunk_id,
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
        s.iters(stats.elements as u64)
            .flops(stats.elements as u64 * ASSEMBLY_FLOPS_PER_ELEMENT)
            .bytes(stats.elements as u64 * ASSEMBLY_BYTES_PER_ELEMENT)
            .aux(num_colors as u64)
            .finish();
    }
    stats
}
