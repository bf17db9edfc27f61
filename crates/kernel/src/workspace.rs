//! The element-local workspace: the `VECTOR_SIZE`-blocked SoA arrays the
//! kernel gathers into (phases 1–2), computes on (phases 3–7) and scatters
//! from (phase 8).
//!
//! All arrays use the Alya "vectorized" layout: the element index `ivect` is
//! the **fastest-varying** dimension, so a loop over `ivect` touches
//! consecutive memory and vectorizes into unit-stride memory instructions.
//! The same layout is used by the numeric path and by the simulated address
//! map (see [`WorkspaceLayout`]), so the cache behaviour seen by the
//! simulator corresponds to the data the numeric kernel actually touches.

use crate::{NDIME, NDOFN, PGAUS, PNODE};
use serde::{Deserialize, Serialize};

/// Offsets (in `f64` elements) and total size of the workspace arrays for a
/// given `VECTOR_SIZE`.  Shared by the numeric workspace and the simulated
/// address map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkspaceLayout {
    /// `VECTOR_SIZE` the layout was computed for.
    pub vector_size: usize,
    /// Element coordinates `elcod[(inode*3 + idime)*vs + ivect]`.
    pub elcod: usize,
    /// Element unknowns `elvel[(inode*4 + idof)*vs + ivect]` (velocity +
    /// pressure).
    pub elvel: usize,
    /// Previous-time-step element unknowns (same layout as `elvel`); gathered
    /// by phase 2 alongside the current unknowns, as Alya does for its time
    /// integration scheme.
    pub elvel_old: usize,
    /// Jacobian determinant × weight `gpvol[igaus*vs + ivect]`.
    pub gpvol: usize,
    /// Cartesian shape derivatives
    /// `gpcar[((igaus*pnode + inode)*3 + idime)*vs + ivect]`.
    pub gpcar: usize,
    /// Velocity at integration points `gpvel[(igaus*3 + idime)*vs + ivect]`.
    pub gpvel: usize,
    /// Velocity gradient at integration points
    /// `gpgve[(igaus*9 + i*3 + j)*vs + ivect]`.
    pub gpgve: usize,
    /// Advection velocity at integration points
    /// `gpadv[(igaus*3 + idime)*vs + ivect]`.
    pub gpadv: usize,
    /// Stabilization parameter `tau[igaus*vs + ivect]`.
    pub tau: usize,
    /// Elemental RHS `elrbu[(inode*3 + idime)*vs + ivect]`.
    pub elrbu: usize,
    /// Elemental viscous matrix block `elauu[(inode*pnode + jnode)*vs + ivect]`.
    pub elauu: usize,
    /// Total number of `f64` elements of the workspace.
    pub total: usize,
}

impl WorkspaceLayout {
    /// Computes the layout for a `VECTOR_SIZE`.
    pub fn new(vs: usize) -> Self {
        assert!(vs > 0, "VECTOR_SIZE must be positive");
        let mut offset = 0usize;
        // One cache line of padding between arrays avoids pathological
        // set-conflicts when VECTOR_SIZE is a power of two (matching the
        // fact that Alya's elemental arrays are separate allocations).
        let mut take = |elems: usize| {
            let start = offset;
            offset += elems + 8;
            start
        };
        let elcod = take(PNODE * NDIME * vs);
        let elvel = take(PNODE * NDOFN * vs);
        let elvel_old = take(PNODE * NDOFN * vs);
        let gpvol = take(PGAUS * vs);
        let gpcar = take(PGAUS * PNODE * NDIME * vs);
        let gpvel = take(PGAUS * NDIME * vs);
        let gpgve = take(PGAUS * NDIME * NDIME * vs);
        let gpadv = take(PGAUS * NDIME * vs);
        let tau = take(PGAUS * vs);
        let elrbu = take(PNODE * NDIME * vs);
        let elauu = take(PNODE * PNODE * vs);
        WorkspaceLayout {
            vector_size: vs,
            elcod,
            elvel,
            elvel_old,
            gpvol,
            gpcar,
            gpvel,
            gpgve,
            gpadv,
            tau,
            elrbu,
            elauu,
            total: offset,
        }
    }

    /// Workspace footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.total * std::mem::size_of::<f64>()
    }

    /// Bytes per element of the workspace (independent of `VECTOR_SIZE`).
    pub fn bytes_per_element(&self) -> f64 {
        self.bytes() as f64 / self.vector_size as f64
    }
}

/// `VECTOR_SIZE` rows of scratch space the slice-view phases keep beside the
/// workspace arrays — the per-slot products phase 6 hoists out of its inner
/// loops: `(u·∇)N_b` for the `PNODE` nodes and `(u·∇)u_i` for the `NDIME`
/// components of the current integration point, `ρ·τ`, `vol·ρ`, and
/// `τ·(u·∇)N_a`, `ρτ·(u·∇)N_a` for the current test function.
pub const SCRATCH_ROWS: usize = PNODE + NDIME + 4;

/// The element-local workspace of one `VECTOR_SIZE` block.
///
/// A single allocation is reused for every chunk of the mesh ("workhorse
/// collection"), exactly as Alya reuses its elemental arrays between kernel
/// calls.
#[derive(Debug, Clone)]
pub struct ElementWorkspace {
    vs: usize,
    layout: WorkspaceLayout,
    /// One flat buffer holding every array, in the layout order.
    data: Vec<f64>,
    /// Global element id of each slot, `None` for padding slots of the last
    /// chunk (phase 8 checks this before scattering).
    element_ids: Vec<Option<usize>>,
    /// [`SCRATCH_ROWS`] extra `VECTOR_SIZE` rows for the slice-view phases
    /// (per-slot temporaries hoisted out of inner loops).  Deliberately
    /// *outside* [`WorkspaceLayout`]: the layout doubles as the simulated
    /// address map and must keep describing exactly the arrays Alya's
    /// kernel touches.
    scratch: Vec<f64>,
    /// The time step's element-matrix window (see [`crate::momentum`]),
    /// grown on first use and kept, so a stepper faults it in once.
    /// Outside the layout, like `scratch`.
    window: Vec<f64>,
}

/// Read-only counterpart of [`WorkspaceViewsMut`], for the tests that
/// compare the oracle's workspace with the slice kernels' array by array.
#[cfg(test)]
#[derive(Debug)]
pub struct WorkspaceViews<'a> {
    /// Element coordinates.
    pub elcod: &'a [f64],
    /// Element unknowns (velocity + pressure).
    pub elvel: &'a [f64],
    /// Previous-time-step element unknowns.
    pub elvel_old: &'a [f64],
    /// Jacobian determinant × weight per integration point.
    pub gpvol: &'a [f64],
    /// Cartesian shape derivatives per integration point.
    pub gpcar: &'a [f64],
    /// Velocity at integration points.
    pub gpvel: &'a [f64],
    /// Velocity gradient at integration points.
    pub gpgve: &'a [f64],
    /// Advection velocity at integration points.
    pub gpadv: &'a [f64],
    /// Stabilization parameter per integration point.
    pub tau: &'a [f64],
    /// Elemental RHS accumulator.
    pub elrbu: &'a [f64],
    /// Elemental matrix accumulator.
    pub elauu: &'a [f64],
    /// Global element id per slot (`None` for padding).
    pub element_ids: &'a [Option<usize>],
}

/// Mutable contiguous views of every workspace array of one `VECTOR_SIZE`
/// block, split out of the single flat buffer with `split_at_mut` (no
/// aliasing, no copies).
///
/// Each field is the whole array as a flat slice in the `ivect`-fastest
/// layout (e.g. `elcod[(inode*3 + idime)*vs + ivect]`), with the inter-array
/// padding of [`WorkspaceLayout`] stripped.  Indexing a fixed logical row
/// therefore yields a unit-stride run of `VECTOR_SIZE` values — the form the
/// autovectorizer turns into vector loads.
#[derive(Debug)]
pub struct WorkspaceViewsMut<'a> {
    /// Element coordinates.
    pub elcod: &'a mut [f64],
    /// Element unknowns (velocity + pressure).
    pub elvel: &'a mut [f64],
    /// Previous-time-step element unknowns.
    pub elvel_old: &'a mut [f64],
    /// Jacobian determinant × weight per integration point.
    pub gpvol: &'a mut [f64],
    /// Cartesian shape derivatives per integration point.
    pub gpcar: &'a mut [f64],
    /// Velocity at integration points.
    pub gpvel: &'a mut [f64],
    /// Velocity gradient at integration points.
    pub gpgve: &'a mut [f64],
    /// Advection velocity at integration points.
    pub gpadv: &'a mut [f64],
    /// Stabilization parameter per integration point.
    pub tau: &'a mut [f64],
    /// Elemental RHS accumulator.
    pub elrbu: &'a mut [f64],
    /// Elemental matrix accumulator.
    pub elauu: &'a mut [f64],
    /// Global element id per slot (`None` for padding).
    pub element_ids: &'a mut [Option<usize>],
    /// [`SCRATCH_ROWS`] rows of `VECTOR_SIZE` values for hoisted per-slot
    /// temporaries; every phase that reads a row writes it first.
    pub scratch: &'a mut [f64],
    /// The `VECTOR_SIZE` of the block.
    pub vs: usize,
}

/// Carves the next array out of the remaining flat buffer: skips the gap
/// between the previous array's end (`*pos`) and `start`, returns `len`
/// elements, and advances both cursors.
fn carve<'a>(rest: &mut &'a mut [f64], pos: &mut usize, start: usize, len: usize) -> &'a mut [f64] {
    let taken = std::mem::take(rest);
    let (_, taken) = taken.split_at_mut(start - *pos);
    let (out, remainder) = taken.split_at_mut(len);
    *rest = remainder;
    *pos = start + len;
    out
}

#[cfg(test)]
macro_rules! accessors {
    ($get:ident, $set:ident, $field:ident, doc = $doc:literal, ($($arg:ident),+), $index:expr) => {
        #[doc = concat!("Reads ", $doc, ".")]
        #[inline]
        pub fn $get(&self, $($arg: usize),+, ivect: usize) -> f64 {
            let idx = self.layout.$field + ($index) * self.vs + ivect;
            self.data[idx]
        }
        #[doc = concat!("Writes ", $doc, ".")]
        #[inline]
        pub fn $set(&mut self, $($arg: usize),+, ivect: usize, value: f64) {
            let idx = self.layout.$field + ($index) * self.vs + ivect;
            self.data[idx] = value;
        }
    };
}

impl ElementWorkspace {
    /// Allocates a workspace for blocks of `vector_size` elements.
    pub fn new(vector_size: usize) -> Self {
        let layout = WorkspaceLayout::new(vector_size);
        ElementWorkspace {
            vs: vector_size,
            layout,
            data: vec![0.0; layout.total],
            element_ids: vec![None; vector_size],
            scratch: vec![0.0; SCRATCH_ROWS * vector_size],
            window: Vec::new(),
        }
    }

    /// The `VECTOR_SIZE` of the workspace.
    #[inline]
    pub fn vector_size(&self) -> usize {
        self.vs
    }

    /// The address layout of the workspace.
    #[inline]
    pub fn layout(&self) -> &WorkspaceLayout {
        &self.layout
    }

    /// Prepares the workspace for the next chunk: zeroes the **accumulator**
    /// arrays (`elrbu`, `elauu` — phases 6–7 add into them) and clears the
    /// element ids (phase 8's validity check).
    ///
    /// Everything else is deliberately left stale: phases 1–5 fully
    /// overwrite `elcod`, `elvel`, `gpvol`, `gpcar`, `gpvel`, `gpgve`,
    /// `gpadv` and `tau` for every slot before any phase reads them, so
    /// zeroing the whole flat buffer every chunk (as the original kernel
    /// did) only burned memory bandwidth.  A workspace full of garbage must
    /// produce identical results — the integration tests check exactly
    /// that.
    pub fn reset(&mut self) {
        let vs = self.vs;
        self.data[self.layout.elrbu..self.layout.elrbu + PNODE * NDIME * vs].fill(0.0);
        self.data[self.layout.elauu..self.layout.elauu + PNODE * PNODE * vs].fill(0.0);
        self.element_ids.fill(None);
    }

    /// Fills every workspace array (including the accumulators and scratch)
    /// with `value` and forgets the element ids.  Test helper: poisoning the
    /// workspace before a sweep proves no phase reads stale data that
    /// [`reset`](Self::reset) no longer clears.
    pub fn poison(&mut self, value: f64) {
        self.data.fill(value);
        self.scratch.fill(value);
        self.window.fill(value);
        self.element_ids.fill(Some(usize::MAX));
    }

    /// Mutable contiguous views of every array, carved out of the flat
    /// buffer with `split_at_mut` (see [`WorkspaceViewsMut`]).  This is the
    /// entry point of the slice-view kernel phases: all index arithmetic is
    /// done once here, so the phase inner loops are pure unit-stride slice
    /// iteration with no per-scalar bounds checks.
    pub fn views_mut(&mut self) -> WorkspaceViewsMut<'_> {
        Self::carve_views(
            self.vs,
            self.layout,
            &mut self.data,
            &mut self.element_ids,
            &mut self.scratch,
        )
    }

    /// [`views_mut`](Self::views_mut) and the first `len` values of the
    /// element-matrix window, grown to `len` if it is shorter (what it
    /// holds is stale: the caller writes before it reads).
    pub(crate) fn views_and_window(&mut self, len: usize) -> (WorkspaceViewsMut<'_>, &mut [f64]) {
        if self.window.len() < len {
            self.window.resize(len, 0.0);
        }
        let views = Self::carve_views(
            self.vs,
            self.layout,
            &mut self.data,
            &mut self.element_ids,
            &mut self.scratch,
        );
        (views, &mut self.window[..len])
    }

    fn carve_views<'a>(
        vs: usize,
        l: WorkspaceLayout,
        data: &'a mut [f64],
        element_ids: &'a mut [Option<usize>],
        scratch: &'a mut [f64],
    ) -> WorkspaceViewsMut<'a> {
        let mut rest: &mut [f64] = data;
        let mut pos = 0usize;
        let elcod = carve(&mut rest, &mut pos, l.elcod, PNODE * NDIME * vs);
        let elvel = carve(&mut rest, &mut pos, l.elvel, PNODE * NDOFN * vs);
        let elvel_old = carve(&mut rest, &mut pos, l.elvel_old, PNODE * NDOFN * vs);
        let gpvol = carve(&mut rest, &mut pos, l.gpvol, PGAUS * vs);
        let gpcar = carve(&mut rest, &mut pos, l.gpcar, PGAUS * PNODE * NDIME * vs);
        let gpvel = carve(&mut rest, &mut pos, l.gpvel, PGAUS * NDIME * vs);
        let gpgve = carve(&mut rest, &mut pos, l.gpgve, PGAUS * NDIME * NDIME * vs);
        let gpadv = carve(&mut rest, &mut pos, l.gpadv, PGAUS * NDIME * vs);
        let tau = carve(&mut rest, &mut pos, l.tau, PGAUS * vs);
        let elrbu = carve(&mut rest, &mut pos, l.elrbu, PNODE * NDIME * vs);
        let elauu = carve(&mut rest, &mut pos, l.elauu, PNODE * PNODE * vs);
        WorkspaceViewsMut {
            elcod,
            elvel,
            elvel_old,
            gpvol,
            gpcar,
            gpvel,
            gpgve,
            gpadv,
            tau,
            elrbu,
            elauu,
            element_ids,
            scratch,
            vs,
        }
    }
}

/// The per-scalar get/set pairs the oracle phases read and write the
/// workspace through (one multi-term index computation and one bounds check
/// per scalar), and a read-only view of every array.
#[cfg(test)]
impl ElementWorkspace {
    /// Read-only contiguous views of every array (see [`WorkspaceViews`]).
    pub fn views(&self) -> WorkspaceViews<'_> {
        let vs = self.vs;
        let l = &self.layout;
        let arr = |start: usize, elems: usize| &self.data[start..start + elems];
        WorkspaceViews {
            elcod: arr(l.elcod, PNODE * NDIME * vs),
            elvel: arr(l.elvel, PNODE * NDOFN * vs),
            elvel_old: arr(l.elvel_old, PNODE * NDOFN * vs),
            gpvol: arr(l.gpvol, PGAUS * vs),
            gpcar: arr(l.gpcar, PGAUS * PNODE * NDIME * vs),
            gpvel: arr(l.gpvel, PGAUS * NDIME * vs),
            gpgve: arr(l.gpgve, PGAUS * NDIME * NDIME * vs),
            gpadv: arr(l.gpadv, PGAUS * NDIME * vs),
            tau: arr(l.tau, PGAUS * vs),
            elrbu: arr(l.elrbu, PNODE * NDIME * vs),
            elauu: arr(l.elauu, PNODE * PNODE * vs),
            element_ids: &self.element_ids,
        }
    }

    /// Marks slot `ivect` as holding global element `element`.
    #[inline]
    pub fn set_element_id(&mut self, ivect: usize, element: Option<usize>) {
        self.element_ids[ivect] = element;
    }

    /// Global element id of slot `ivect` (`None` for padding).
    #[inline]
    pub fn element_id(&self, ivect: usize) -> Option<usize> {
        self.element_ids[ivect]
    }

    accessors!(
        elcod,
        set_elcod,
        elcod,
        doc = "the coordinate `idime` of local node `inode` of element slot `ivect`",
        (inode, idime),
        inode * NDIME + idime
    );
    accessors!(
        elvel,
        set_elvel,
        elvel,
        doc = "unknown `idof` (0–2 velocity, 3 pressure) of local node `inode` of slot `ivect`",
        (inode, idof),
        inode * NDOFN + idof
    );
    accessors!(
        gpvol,
        set_gpvol,
        gpvol,
        doc = "the Jacobian-determinant × weight at integration point `igaus` of slot `ivect`",
        (igaus),
        igaus
    );
    accessors!(
        gpcar,
        set_gpcar,
        gpcar,
        doc = "the Cartesian derivative `idime` of shape function `inode` at point `igaus`",
        (igaus, inode, idime),
        (igaus * PNODE + inode) * NDIME + idime
    );
    accessors!(
        gpvel,
        set_gpvel,
        gpvel,
        doc = "velocity component `idime` at integration point `igaus`",
        (igaus, idime),
        igaus * NDIME + idime
    );
    accessors!(
        gpgve,
        set_gpgve,
        gpgve,
        doc = "velocity gradient component `(i, j)` at integration point `igaus`",
        (igaus, i, j),
        (igaus * NDIME + i) * NDIME + j
    );
    accessors!(
        gpadv,
        set_gpadv,
        gpadv,
        doc = "advection velocity component `idime` at integration point `igaus`",
        (igaus, idime),
        igaus * NDIME + idime
    );
    accessors!(
        tau,
        set_tau,
        tau,
        doc = "the stabilization parameter at integration point `igaus`",
        (igaus),
        igaus
    );
    accessors!(
        elrbu,
        set_elrbu,
        elrbu,
        doc = "the elemental RHS entry of local node `inode`, component `idime`",
        (inode, idime),
        inode * NDIME + idime
    );
    accessors!(
        elauu,
        set_elauu,
        elauu,
        doc = "the elemental viscous matrix entry `(inode, jnode)`",
        (inode, jnode),
        inode * PNODE + jnode
    );

    /// Adds to an elemental RHS entry.
    #[inline]
    pub fn add_elrbu(&mut self, inode: usize, idime: usize, ivect: usize, value: f64) {
        let idx = self.layout.elrbu + (inode * NDIME + idime) * self.vs + ivect;
        self.data[idx] += value;
    }

    /// Adds to an elemental matrix entry.
    #[inline]
    pub fn add_elauu(&mut self, inode: usize, jnode: usize, ivect: usize, value: f64) {
        let idx = self.layout.elauu + (inode * PNODE + jnode) * self.vs + ivect;
        self.data[idx] += value;
    }

    /// Adds to a gauss-point velocity entry.
    #[inline]
    pub fn add_gpvel(&mut self, igaus: usize, idime: usize, ivect: usize, value: f64) {
        let idx = self.layout.gpvel + (igaus * NDIME + idime) * self.vs + ivect;
        self.data[idx] += value;
    }

    /// Adds to a gauss-point velocity-gradient entry.
    #[inline]
    pub fn add_gpgve(&mut self, igaus: usize, i: usize, j: usize, ivect: usize, value: f64) {
        let idx = self.layout.gpgve + ((igaus * NDIME + i) * NDIME + j) * self.vs + ivect;
        self.data[idx] += value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous_and_ordered() {
        let l = WorkspaceLayout::new(16);
        assert_eq!(l.elcod, 0);
        assert!(l.elvel > l.elcod);
        assert!(l.gpcar > l.gpvol);
        assert!(l.elauu > l.elrbu);
        assert_eq!(
            l.total,
            l.elauu + PNODE * PNODE * 16 + 8,
            "total must end right after the last array (plus its padding line)"
        );
        assert_eq!(l.bytes(), l.total * 8);
    }

    #[test]
    fn bytes_per_element_is_vs_independent() {
        // Equal up to the fixed per-array padding lines (their per-element
        // share shrinks as the block grows).
        let a = WorkspaceLayout::new(16).bytes_per_element();
        let b = WorkspaceLayout::new(512).bytes_per_element();
        assert!((a - b).abs() / b < 0.05, "a = {a}, b = {b}");
        // The working set per element is a few KiB — the reason larger
        // VECTOR_SIZE blocks overflow the 32 KiB L1 of the prototype.
        assert!(a > 1000.0 && a < 10_000.0, "bytes/element = {a}");
    }

    #[test]
    fn workspace_accessors_roundtrip() {
        let mut w = ElementWorkspace::new(8);
        w.set_elcod(3, 1, 5, 2.5);
        assert_eq!(w.elcod(3, 1, 5), 2.5);
        w.set_elvel(7, 3, 0, -1.0);
        assert_eq!(w.elvel(7, 3, 0), -1.0);
        w.set_gpcar(4, 2, 0, 7, 1.25);
        assert_eq!(w.gpcar(4, 2, 0, 7), 1.25);
        w.set_gpgve(1, 2, 0, 3, 9.0);
        assert_eq!(w.gpgve(1, 2, 0, 3), 9.0);
        w.set_tau(6, 2, 0.5);
        assert_eq!(w.tau(6, 2), 0.5);
        w.add_elrbu(0, 0, 0, 1.0);
        w.add_elrbu(0, 0, 0, 2.0);
        assert_eq!(w.elrbu(0, 0, 0), 3.0);
        w.add_elauu(2, 3, 1, 4.0);
        assert_eq!(w.elauu(2, 3, 1), 4.0);
    }

    #[test]
    fn distinct_slots_do_not_alias() {
        let mut w = ElementWorkspace::new(4);
        for ivect in 0..4 {
            w.set_gpvol(2, ivect, ivect as f64);
        }
        for ivect in 0..4 {
            assert_eq!(w.gpvol(2, ivect), ivect as f64);
        }
        // Different igaus slots are independent too.
        assert_eq!(w.gpvol(1, 0), 0.0);
    }

    #[test]
    fn reset_clears_accumulators_and_ids_only() {
        let mut w = ElementWorkspace::new(4);
        w.set_element_id(2, Some(99));
        w.set_gpvol(0, 0, 1.0);
        w.add_elrbu(1, 2, 3, 5.0);
        w.add_elauu(0, 1, 2, -4.0);
        w.reset();
        // Accumulators and ids are cleared...
        assert_eq!(w.element_id(2), None);
        assert_eq!(w.elrbu(1, 2, 3), 0.0);
        assert_eq!(w.elauu(0, 1, 2), 0.0);
        // ...but the phase-overwritten arrays are deliberately left stale.
        assert_eq!(w.gpvol(0, 0), 1.0);
    }

    #[test]
    fn poison_then_reset_leaves_accumulators_zero() {
        let mut w = ElementWorkspace::new(8);
        w.poison(f64::NAN);
        w.reset();
        for inode in 0..PNODE {
            for idime in 0..NDIME {
                assert_eq!(w.elrbu(inode, idime, 5), 0.0);
            }
            for jnode in 0..PNODE {
                assert_eq!(w.elauu(inode, jnode, 5), 0.0);
            }
        }
        assert_eq!(w.element_id(3), None);
        // Non-accumulator arrays and every scratch row still hold the poison.
        assert!(w.gpvol(0, 0).is_nan());
        let scratch = w.views_mut().scratch;
        assert_eq!(scratch.len(), SCRATCH_ROWS * 8);
        assert!(scratch.iter().all(|x| x.is_nan()));
    }

    #[test]
    fn views_expose_the_accessor_data() {
        let mut w = ElementWorkspace::new(4);
        w.set_elcod(3, 1, 2, 2.5);
        w.set_gpcar(4, 2, 0, 3, 1.25);
        w.set_tau(6, 1, 0.5);
        let v = w.views();
        assert_eq!(v.elcod[(3 * NDIME + 1) * 4 + 2], 2.5);
        assert_eq!(v.gpcar[((4 * PNODE + 2) * NDIME) * 4 + 3], 1.25);
        assert_eq!(v.tau[6 * 4 + 1], 0.5);
        assert_eq!(v.elcod.len(), PNODE * NDIME * 4);
        assert_eq!(v.gpgve.len(), PGAUS * NDIME * NDIME * 4);
        assert_eq!(v.element_ids.len(), 4);
    }

    #[test]
    fn views_mut_writes_are_visible_to_the_accessors() {
        let mut w = ElementWorkspace::new(4);
        {
            let v = w.views_mut();
            assert_eq!(v.vs, 4);
            v.elvel[(7 * NDOFN + 3) * 4] = -1.0;
            v.gpvol[2 * 4 + 3] = 9.0;
            v.elauu[(2 * PNODE + 3) * 4 + 1] = 4.0;
            v.element_ids[2] = Some(42);
            v.scratch[3] = 7.0;
            assert_eq!(v.scratch.len(), SCRATCH_ROWS * 4);
        }
        assert_eq!(w.elvel(7, 3, 0), -1.0);
        assert_eq!(w.gpvol(2, 3), 9.0);
        assert_eq!(w.elauu(2, 3, 1), 4.0);
        assert_eq!(w.element_id(2), Some(42));
    }

    #[test]
    fn views_cover_every_array_without_overlap() {
        // The mutable views must carve disjoint regions whose sizes match
        // the layout (the borrow checker guarantees disjointness; this
        // checks the arithmetic carves the *right* regions).
        let mut w = ElementWorkspace::new(16);
        let v = w.views_mut();
        let expected = [
            (PNODE * NDIME, v.elcod.len()),
            (PNODE * NDOFN, v.elvel.len()),
            (PNODE * NDOFN, v.elvel_old.len()),
            (PGAUS, v.gpvol.len()),
            (PGAUS * PNODE * NDIME, v.gpcar.len()),
            (PGAUS * NDIME, v.gpvel.len()),
            (PGAUS * NDIME * NDIME, v.gpgve.len()),
            (PGAUS * NDIME, v.gpadv.len()),
            (PGAUS, v.tau.len()),
            (PNODE * NDIME, v.elrbu.len()),
            (PNODE * PNODE, v.elauu.len()),
        ];
        for (rows, len) in expected {
            assert_eq!(len, rows * 16);
        }
    }

    #[test]
    fn element_ids_track_padding() {
        let mut w = ElementWorkspace::new(4);
        w.set_element_id(0, Some(10));
        w.set_element_id(1, Some(11));
        assert_eq!(w.element_id(0), Some(10));
        assert_eq!(w.element_id(3), None);
        assert_eq!(w.vector_size(), 4);
    }

    #[test]
    #[should_panic]
    fn zero_vector_size_rejected() {
        let _ = WorkspaceLayout::new(0);
    }
}
