//! Numeric implementation of the eight phases of the Nastin assembly
//! mini-app.
//!
//! Each function corresponds to one instrumented phase of the paper and
//! operates on the [`ElementWorkspace`](crate::ElementWorkspace) of the
//! current `VECTOR_SIZE` block.
//! The physics is a standard SUPG-stabilized incompressible Navier–Stokes
//! momentum assembly on trilinear hexahedra:
//!
//! * phases 1–2 gather nodal coordinates and unknowns into the block-local
//!   arrays (pure data movement, no FLOPs — exactly as the paper notes);
//! * phase 3 computes the Jacobian of the isoparametric map, its determinant
//!   and inverse, and the Cartesian shape-function derivatives `gpcar`;
//! * phase 4 interpolates velocity and velocity gradient at the integration
//!   points;
//! * phase 5 evaluates the SUPG stabilization parameter `τ` and the
//!   advection velocity;
//! * phase 6 accumulates the convective (plus SUPG perturbation) term into
//!   the elemental RHS — the FLOP-heaviest phase;
//! * phase 7 accumulates the viscous term into the elemental RHS and, for
//!   the semi-implicit scheme, the elemental viscous/mass matrix;
//! * phase 8 checks element validity (padding slots of the last block) and
//!   scatters the elemental contributions into the global CSR matrix and RHS.

//! # One kernel per phase, and its oracle
//!
//! The library compiles each phase once, as a **slice kernel**
//! (`phaseN_*_slices`) over the contiguous array views of
//! [`WorkspaceViewsMut`]: the index arithmetic is hoisted out of the
//! `ivect` loops into per-row subslices, so the inner loops are pure
//! unit-stride slice iteration the autovectorizer turns into vector
//! loads/stores — the Rust analogue of the paper's unit-stride `ivect`
//! refactors.
//!
//! The original per-scalar **accessor** phases — every scalar read and
//! written through an `ElementWorkspace` get/set pair, one multi-term index
//! computation and one bounds check each — are this file's `#[cfg(test)]`
//! `oracle` module: the readable form the slice kernels are held to
//! **bitwise** (the unit tests compare `f64::to_bits`, phase by phase and
//! sweep by sweep).  Floating-point reductions of the slice kernels
//! deliberately mirror the oracle's accumulation order term by term
//! (addition is not associative, and even `0.0 + x` is not a bitwise no-op
//! when `x` is `-0.0`).
//!
//! The slice phases take any [`SlotMap`] (a contiguous mesh-order
//! [`ElementChunk`] or a colored [`lv_mesh::ChunkSlots`]), which is how the
//! same kernel serves both the serial sweep and the mesh-colored parallel
//! sweep.
//!
//! # The time step's phases
//!
//! `lv_driver::Stepper` assembles only the convection matrix per step (see
//! [`crate::assembly`]), on a mesh that does not move.  Its sweep runs
//! phases 2 and 5 as they are, notes the element ids without gathering a
//! coordinate ([`phase1_element_ids_slices`]) and has three kernels of its
//! own:
//!
//! * [`phase3_geometry_slices`], once at set-up: the inverse Jacobians and
//!   `gpvol` of a chunk into a [`crate::ConvectiveGeometry`] table, from
//!   the strip kernel phase 3 itself is written over (`jacobian_strip` —
//!   one expression tree, two consumers);
//! * [`phase4_gauss_velocity_slices`]: `gpvel` only — `gpgve` feeds nothing
//!   but the elemental right-hand side.  Not a second copy: phase 4 has one
//!   `#[inline(always)]` body with a `const` switch, instantiated twice —
//!   the full instantiation compiles to the loops it had before the switch
//!   existed, the reduced one writes, bit for bit, the full one's `gpvel`;
//! * [`phase6_reference_convective_slices`]: the element matrix integrated
//!   in reference space from the table's rows — the velocity pulled back
//!   through `J⁻¹` instead of every shape derivative pushed forward into
//!   `gpcar`, two operations per entry instead of five.  Another operation
//!   order, so not the bits of phase 6: the matrix-only instantiation of the
//!   phase-6 body (same `const`-switch pattern, `#[cfg(test)]` now) is the
//!   oracle it is held to, entry by entry, to a stated ε-bound.
//!
//! The oracle has no reduced form: the full slice phases are checked
//! against it, the step's against the full.
//!
//! # The host's lanes
//!
//! Phases 3–7 of the slice path and the step's three kernels — every loop
//! of them unit-stride over `ivect` — are multiversioned with
//! [`lv_runtime::multiversion!`]: each body is compiled once at the build's baseline target features and once
//! as an `avx2` clone, and `phaseN_*_slices` enters the copy
//! [`lv_runtime::Lanes::selected`] picked for this host (four `f64` per
//! instruction instead of SSE2's two).  `phaseN_*_slices_at` takes the
//! [`Lanes`](lv_runtime::Lanes) explicitly, for the tests below that
//! compare the two copies `to_bits`.  A clone runs the baseline's IEEE
//! operations in the baseline's order for every slot (Rust neither
//! reassociates nor contracts to FMA), so both copies are
//! bitwise identical to each other and to the oracle, which is never
//! cloned.  The clones are **per phase**: one clone around phases 3–7
//! inlined together compiles to slower code than the baseline.  Phases 1, 2
//! and 8 gather and scatter; wider lanes do nothing for them and they have
//! one copy.

use crate::config::KernelConfig;
use crate::workspace::WorkspaceViewsMut;
use crate::{NDIME, NDOFN, PGAUS, PNODE};
use lv_mesh::chunks::{ChunkSlots, ElementChunk};
use lv_mesh::{Field, Mesh, MeshTopology, ShapeDerivatives, ShapeTable, VectorField};
use lv_solver::CsrMatrix;

/// Slot→element map of one kernel call.
///
/// Abstracts over *which* elements a `VECTOR_SIZE` block holds: the
/// contiguous mesh-order [`ElementChunk`] of the serial sweep and the
/// non-contiguous [`ChunkSlots`] of the colored parallel sweep.  The slice
/// phases are generic over this trait (monomorphized — no virtual dispatch
/// in the hot loops).
pub trait SlotMap {
    /// The padded block width (`VECTOR_SIZE`).
    fn vector_size(&self) -> usize;
    /// Number of valid slots (`≤ vector_size`).
    fn len(&self) -> usize;
    /// Whether the block holds no valid element (never true for blocks
    /// produced by the chunkers, which always carry ≥ 1 element).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Global element id of slot `i`, or `None` for padding slots.
    fn element(&self, i: usize) -> Option<usize>;
}

impl SlotMap for ElementChunk {
    #[inline]
    fn vector_size(&self) -> usize {
        self.vector_size
    }
    #[inline]
    fn len(&self) -> usize {
        self.len
    }
    #[inline]
    fn element(&self, i: usize) -> Option<usize> {
        ElementChunk::element(self, i)
    }
}

impl SlotMap for ChunkSlots<'_> {
    #[inline]
    fn vector_size(&self) -> usize {
        self.vector_size
    }
    #[inline]
    fn len(&self) -> usize {
        ChunkSlots::len(self)
    }
    #[inline]
    fn element(&self, i: usize) -> Option<usize> {
        ChunkSlots::element(self, i)
    }
}

/// The logical row `idx` of a flat `ivect`-fastest array: a unit-stride run
/// of `vs` values.
#[inline(always)]
fn row(a: &[f64], idx: usize, vs: usize) -> &[f64] {
    &a[idx * vs..(idx + 1) * vs]
}

/// Mutable counterpart of [`row`].
#[inline(always)]
fn row_mut(a: &mut [f64], idx: usize, vs: usize) -> &mut [f64] {
    &mut a[idx * vs..(idx + 1) * vs]
}

/// Lanes per strip of the strip-mined phase 3: the Jacobian accumulators of
/// a strip (`9 × STRIP` doubles) live in registers/L1 while the `inode`
/// reduction runs over them with unit stride.
const STRIP: usize = 16;

/// `Mat3::inverse`'s own test for "no inverse": a Jacobian whose determinant
/// is smaller in magnitude is singular.
const SINGULAR_DETERMINANT: f64 = 1e-300;

/// Work A of phase 1 on its own: the element id of every slot, `None` for
/// padding — what phase 8's validity check reads.  A sweep that takes its
/// geometry from a [`crate::ConvectiveGeometry`] gathers no coordinates and
/// calls this instead of phase 1: without it every slot is padding and the
/// scatter adds nothing.
pub fn phase1_element_ids_slices(slots: &impl SlotMap, v: &mut WorkspaceViewsMut) {
    debug_assert_eq!(v.vs, slots.vector_size());
    for (iv, id) in v.element_ids.iter_mut().enumerate() {
        *id = slots.element(iv);
    }
}

/// Phase 1, slice path: gather element connectivity and nodal coordinates.
/// Work A (slot bookkeeping, [`phase1_element_ids_slices`]) and work B (the
/// coordinate gather) stay split, as in the paper's VEC1 loop distribution.
pub fn phase1_gather_coords_slices(mesh: &Mesh, slots: &impl SlotMap, v: &mut WorkspaceViewsMut) {
    let vs = v.vs;
    phase1_element_ids_slices(slots, v);
    // Work B: coordinate gather (indexed reads from the global mesh arrays,
    // strided writes into the slot-fastest elcod rows).
    let coords = mesh.coords();
    let len = slots.len();
    for iv in 0..len {
        let elem = slots.element(iv).expect("slot < len is valid");
        let nodes = mesh.element_nodes(elem);
        for (inode, &node) in nodes.iter().enumerate() {
            let base = 3 * node as usize;
            for idime in 0..NDIME {
                v.elcod[(inode * NDIME + idime) * vs + iv] = coords[base + idime];
            }
        }
    }
    // Padding slots replicate the last valid element's geometry so phases
    // 3–7 never divide by a zero Jacobian; row-major order makes the
    // replication a unit-stride fill.
    if len < vs {
        for idx in 0..PNODE * NDIME {
            let r = row_mut(v.elcod, idx, vs);
            let src = r[len - 1];
            r[len..].fill(src);
        }
    }
}

/// Phase 2, slice path: gather the nodal unknowns (velocity + pressure).
pub fn phase2_gather_unknowns_slices(
    mesh: &Mesh,
    velocity: &VectorField,
    pressure: &Field,
    slots: &impl SlotMap,
    v: &mut WorkspaceViewsMut,
) {
    let vs = v.vs;
    let vel = velocity.as_slice();
    let pre = pressure.as_slice();
    let last = slots.element(slots.len() - 1).expect("chunks hold at least one element");
    for iv in 0..vs {
        let elem = slots.element(iv).unwrap_or(last);
        let nodes = mesh.element_nodes(elem);
        for (inode, &node) in nodes.iter().enumerate() {
            let node = node as usize;
            for idime in 0..NDIME {
                v.elvel[(inode * NDOFN + idime) * vs + iv] = vel[NDIME * node + idime];
            }
            v.elvel[(inode * NDOFN + NDIME) * vs + iv] = pre[node];
        }
    }
}

lv_runtime::multiversion! {
    /// Phase 3, slice path: Jacobian, determinant, inverse and Cartesian
    /// derivatives, strip-mined over the slots.
    ///
    /// Every loop runs unit-stride over a strip of `STRIP` (16) slots: the
    /// `inode` reduction into the nine Jacobian entries, the determinant and
    /// inverse — the expression trees of [`Mat3::det`] / [`Mat3::inverse`]
    /// written lane-wise and branch-free, singular lanes (`|det| < 1e-300`)
    /// counted and masked afterwards — and the `gpcar` back-substitution.
    /// (The paper found this step scalar in its phase 3; here it was the last
    /// loop of phases 3–7 the vectorizer skipped.)
    ///
    /// Returns the number of slots whose Jacobian was singular.
    ///
    /// [`Mat3::det`]: lv_mesh::geometry::Mat3::det
    /// [`Mat3::inverse`]: lv_mesh::geometry::Mat3::inverse
    pub fn phase3_jacobian_slices(shape: &ShapeTable, v: &mut WorkspaceViewsMut) -> usize
        = phase3_jacobian_body, at phase3_jacobian_slices_at;
}

/// Determinant and inverse of the Jacobians of one strip of slots at one
/// integration point — the one expression tree both phase 3 and the
/// geometry table are built from.  `det[k]` and `inv[j * NDIME + i][k]`
/// belong to slot `s0 + k`; lanes past `sl` hold a zero Jacobian (their
/// infinities are never read) and a singular lane (`|det| < 1e-300`,
/// `Mat3::inverse`'s own test for "no inverse") is the caller's to mask.
///
/// Every loop is unit-stride over the strip: the `inode` reduction into the
/// nine Jacobian entries, then the products and differences of
/// `Mat3::det` / `Mat3::inverse` written lane-wise and branch-free, so the
/// oracle keeps its bits.
#[inline(always)]
fn jacobian_strip(
    derivs: &ShapeDerivatives,
    elcod: &[f64],
    vs: usize,
    s0: usize,
    sl: usize,
) -> ([f64; STRIP], [[f64; STRIP]; NDIME * NDIME]) {
    // J[i][j] = Σ_a ∂N_a/∂ξ_j · x_a[i]
    let mut jac = [[0.0f64; STRIP]; NDIME * NDIME];
    for inode in 0..PNODE {
        let d = derivs.d[inode];
        for i in 0..NDIME {
            let x = &row(elcod, inode * NDIME + i, vs)[s0..s0 + sl];
            for (j, &dj) in d.iter().enumerate() {
                let acc = &mut jac[i * NDIME + j][..sl];
                for (a, &xv) in acc.iter_mut().zip(x) {
                    *a += dj * xv;
                }
            }
        }
    }
    let mut det = [0.0f64; STRIP];
    let mut inv = [[0.0f64; STRIP]; NDIME * NDIME];
    for k in 0..STRIP {
        let (m00, m01, m02) = (jac[0][k], jac[1][k], jac[2][k]);
        let (m10, m11, m12) = (jac[3][k], jac[4][k], jac[5][k]);
        let (m20, m21, m22) = (jac[6][k], jac[7][k], jac[8][k]);
        let d = m00 * (m11 * m22 - m12 * m21) - m01 * (m10 * m22 - m12 * m20)
            + m02 * (m10 * m21 - m11 * m20);
        let inv_d = 1.0 / d;
        det[k] = d;
        inv[0][k] = (m11 * m22 - m12 * m21) * inv_d;
        inv[1][k] = (m02 * m21 - m01 * m22) * inv_d;
        inv[2][k] = (m01 * m12 - m02 * m11) * inv_d;
        inv[3][k] = (m12 * m20 - m10 * m22) * inv_d;
        inv[4][k] = (m00 * m22 - m02 * m20) * inv_d;
        inv[5][k] = (m02 * m10 - m00 * m12) * inv_d;
        inv[6][k] = (m10 * m21 - m11 * m20) * inv_d;
        inv[7][k] = (m01 * m20 - m00 * m21) * inv_d;
        inv[8][k] = (m00 * m11 - m01 * m10) * inv_d;
    }
    (det, inv)
}

#[inline(always)]
fn phase3_jacobian_body(shape: &ShapeTable, v: &mut WorkspaceViewsMut) -> usize {
    debug_assert_eq!(shape.num_gauss(), PGAUS);
    let vs = v.vs;
    let mut singular = 0usize;
    for igaus in 0..PGAUS {
        let derivs = shape.derivatives(igaus);
        let mut s0 = 0usize;
        while s0 < vs {
            let sl = STRIP.min(vs - s0);
            let (det, inv) = jacobian_strip(derivs, v.elcod, vs, s0, sl);
            let mut ok = [true; STRIP];
            let mut all_ok = true;
            {
                let gpvol = &mut row_mut(v.gpvol, igaus, vs)[s0..s0 + sl];
                for (k, out) in gpvol.iter_mut().enumerate() {
                    let weight = 1.0; // 2×2×2 Gauss weights are all 1
                    *out = det[k].abs() * weight;
                    if det[k].abs() < SINGULAR_DETERMINANT {
                        singular += 1;
                        ok[k] = false;
                        all_ok = false;
                    }
                }
            }
            // ∂N_a/∂x_i back-substitution: unit stride over the strip again.
            for inode in 0..PNODE {
                let d = derivs.d[inode];
                for i in 0..NDIME {
                    let out =
                        &mut row_mut(v.gpcar, (igaus * PNODE + inode) * NDIME + i, vs)[s0..s0 + sl];
                    if all_ok {
                        for (k, o) in out.iter_mut().enumerate() {
                            let mut val = 0.0;
                            for (j, &dj) in d.iter().enumerate() {
                                val += dj * inv[j * NDIME + i][k];
                            }
                            *o = val;
                        }
                    } else {
                        // Singular slots get zeroed derivatives (matching
                        // the oracle): leaving the previous chunk's
                        // values would make the result schedule-dependent.
                        for (k, o) in out.iter_mut().enumerate() {
                            if ok[k] {
                                let mut val = 0.0;
                                for (j, &dj) in d.iter().enumerate() {
                                    val += dj * inv[j * NDIME + i][k];
                                }
                                *o = val;
                            } else {
                                *o = 0.0;
                            }
                        }
                    }
                }
            }
            s0 += sl;
        }
    }
    singular
}

/// Rows of `VECTOR_SIZE` values a chunk of a [`crate::ConvectiveGeometry`]
/// holds per integration point: the nine entries of `J⁻¹` (row
/// `j * NDIME + i` is `∂ξ_j/∂x_i`), then `gpvol`.
pub const GEOMETRY_ROWS: usize = NDIME * NDIME + 1;

lv_runtime::multiversion! {
    /// Phase 3 for a mesh that does not move: the inverse Jacobians and
    /// `gpvol` of the chunk whose coordinates phase 1 gathered, written to
    /// `table` (`[PGAUS][GEOMETRY_ROWS][VECTOR_SIZE]`, slot-fastest) instead
    /// of being folded into `gpcar` and recomputed every sweep.  The values
    /// come from phase 3's own strip kernel, so `gpvol` is bit for bit
    /// [`phase3_jacobian_slices`]'s and `J⁻¹` the one its `gpcar` is the
    /// back-substitution of; a singular slot stores a zero inverse (its
    /// derivatives vanish, as phase 3 zeroes them) and is counted.
    ///
    /// Returns the number of slots whose Jacobian was singular.
    pub fn phase3_geometry_slices(
        shape: &ShapeTable,
        v: &WorkspaceViewsMut,
        table: &mut [f64],
    ) -> usize = phase3_geometry_body, at phase3_geometry_slices_at;
}

#[inline(always)]
fn phase3_geometry_body(shape: &ShapeTable, v: &WorkspaceViewsMut, table: &mut [f64]) -> usize {
    debug_assert_eq!(shape.num_gauss(), PGAUS);
    let vs = v.vs;
    assert_eq!(table.len(), PGAUS * GEOMETRY_ROWS * vs);
    let mut singular = 0usize;
    for igaus in 0..PGAUS {
        let derivs = shape.derivatives(igaus);
        let geometry = &mut table[igaus * GEOMETRY_ROWS * vs..(igaus + 1) * GEOMETRY_ROWS * vs];
        let mut s0 = 0usize;
        while s0 < vs {
            let sl = STRIP.min(vs - s0);
            let (det, inv) = jacobian_strip(derivs, v.elcod, vs, s0, sl);
            for (entry, inv) in inv.iter().enumerate() {
                let out = &mut row_mut(geometry, entry, vs)[s0..s0 + sl];
                for (k, o) in out.iter_mut().enumerate() {
                    *o = if det[k].abs() < SINGULAR_DETERMINANT { 0.0 } else { inv[k] };
                }
            }
            let gpvol = &mut row_mut(geometry, NDIME * NDIME, vs)[s0..s0 + sl];
            for (k, out) in gpvol.iter_mut().enumerate() {
                *out = det[k].abs(); // 2×2×2 Gauss weights are all 1
                singular += usize::from(det[k].abs() < SINGULAR_DETERMINANT);
            }
            s0 += sl;
        }
    }
    singular
}

lv_runtime::multiversion! {
    /// Phase 4, slice path: velocity and velocity gradient at the integration
    /// points — pure unit-stride multiply-accumulate rows.
    pub fn phase4_gauss_values_slices(shape: &ShapeTable, v: &mut WorkspaceViewsMut)
        = phase4_gauss_values_body::<true>, at phase4_gauss_values_slices_at;
}

lv_runtime::multiversion! {
    /// Phase 4 of the step's convective-only sweep: the velocity at the
    /// integration points and nothing else — `gpvel` bit for bit as
    /// [`phase4_gauss_values_slices`] writes it, `gpgve` (which only the
    /// elemental right-hand side reads) left untouched.
    pub fn phase4_gauss_velocity_slices(shape: &ShapeTable, v: &mut WorkspaceViewsMut)
        = phase4_gauss_values_body::<false>, at phase4_gauss_velocity_slices_at;
}

/// The one phase-4 body: `GRADIENT` selects the paper's phase (`gpvel` and
/// `gpgve`) or its velocity-only reduction; the switch is a constant, so
/// each instantiation compiles to its own straight loops.
#[inline(always)]
fn phase4_gauss_values_body<const GRADIENT: bool>(shape: &ShapeTable, v: &mut WorkspaceViewsMut) {
    let vs = v.vs;
    for igaus in 0..PGAUS {
        let funcs = shape.functions(igaus);
        for i in 0..NDIME {
            row_mut(v.gpvel, igaus * NDIME + i, vs).fill(0.0);
            if GRADIENT {
                for j in 0..NDIME {
                    row_mut(v.gpgve, (igaus * NDIME + i) * NDIME + j, vs).fill(0.0);
                }
            }
        }
        for inode in 0..PNODE {
            let n_a = funcs.n[inode];
            for i in 0..NDIME {
                let u = row(v.elvel, inode * NDOFN + i, vs);
                let gv = row_mut(v.gpvel, igaus * NDIME + i, vs);
                for (g, &ua) in gv.iter_mut().zip(u) {
                    *g += n_a * ua;
                }
                if GRADIENT {
                    for j in 0..NDIME {
                        let car = row(v.gpcar, (igaus * PNODE + inode) * NDIME + j, vs);
                        let gg = row_mut(v.gpgve, (igaus * NDIME + i) * NDIME + j, vs);
                        for ((g, &ca), &ua) in gg.iter_mut().zip(car).zip(u) {
                            *g += ca * ua;
                        }
                    }
                }
            }
        }
    }
}

lv_runtime::multiversion! {
    /// Phase 5, slice path: stabilization parameter τ and advection velocity.
    pub fn phase5_stabilization_slices(
        config: &KernelConfig,
        h_char: f64,
        v: &mut WorkspaceViewsMut,
    ) = phase5_stabilization_body, at phase5_stabilization_slices_at;
}

#[inline(always)]
fn phase5_stabilization_body(config: &KernelConfig, h_char: f64, v: &mut WorkspaceViewsMut) {
    let vs = v.vs;
    let nu = config.viscosity;
    let rho = config.density;
    let inv_dt = 1.0 / config.dt;
    for igaus in 0..PGAUS {
        {
            let u0 = row(v.gpvel, igaus * NDIME, vs);
            let u1 = row(v.gpvel, igaus * NDIME + 1, vs);
            let u2 = row(v.gpvel, igaus * NDIME + 2, vs);
            let tau = row_mut(v.tau, igaus, vs);
            for (((t, &a), &b), &c) in tau.iter_mut().zip(u0).zip(u1).zip(u2) {
                let unorm = (a * a + b * b + c * c).sqrt();
                // Classic SUPG design: τ = (c1 ν/h² + c2 |u|/h + ρ/Δt)⁻¹.
                *t = 1.0 / (4.0 * nu / (h_char * h_char) + 2.0 * unorm / h_char + rho * inv_dt);
            }
        }
        // The advection velocity is the interpolated velocity itself: a
        // straight row copy.
        for i in 0..NDIME {
            let (src, dst) =
                (row(v.gpvel, igaus * NDIME + i, vs), row_mut(v.gpadv, igaus * NDIME + i, vs));
            dst.copy_from_slice(src);
        }
    }
}

/// `out = (u·∇)f` of one integration point: the advection velocity rows
/// dotted with the three rows of `grad` from `base` on, in the oracle's
/// accumulation order (0.0, then the `j` terms in order).
#[inline(always)]
fn advect(out: &mut [f64], adv: [&[f64]; NDIME], grad: &[f64], base: usize, vs: usize) {
    let [adv0, adv1, adv2] = adv.map(|a| &a[..vs]);
    let g0 = &row(grad, base, vs)[..vs];
    let g1 = &row(grad, base + 1, vs)[..vs];
    let g2 = &row(grad, base + 2, vs)[..vs];
    let out = &mut out[..vs];
    for k in 0..vs {
        let mut dot = 0.0;
        dot += adv0[k] * g0[k];
        dot += adv1[k] * g1[k];
        dot += adv2[k] * g2[k];
        out[k] = dot;
    }
}

lv_runtime::multiversion! {
    /// Phase 6, slice path: convective term (Galerkin + SUPG) — the
    /// FLOP-dominant phase, every inner loop a unit-stride slice sweep.
    ///
    /// What the oracle recomputes per `(inode, jnode)` slot is computed once
    /// into the workspace scratch rows: per integration point the
    /// convections `(u·∇)N_b` of all nodes, `(u·∇)u_i` of all components, `ρ·τ`
    /// and `vol·ρ`; per test function `τ·(u·∇)N_a` and `ρτ·(u·∇)N_a`.  Each is
    /// the left-most factor pair of the oracle's left-associated products, so
    /// the results stay bitwise identical.
    pub fn phase6_convective_slices(
        shape: &ShapeTable,
        config: &KernelConfig,
        v: &mut WorkspaceViewsMut,
    ) = phase6_convective_body::<true>, at phase6_convective_slices_at;
}

/// The matrix-only instantiation of phase 6 — the elemental matrix
/// `vol·ρ·(N_a + τ·(u·∇)N_a)·(u·∇)N_b` from `gpcar`, into a zeroed `elauu`
/// bit for bit what [`phase6_convective_slices`] adds to it.  It was the
/// step's phase 6 until [`phase6_reference_convective_slices`] took the
/// same integrals in reference space; it stays as the oracle that kernel is
/// held to entry by entry.
#[cfg(test)]
fn phase6_convective_matrix_oracle(
    shape: &ShapeTable,
    config: &KernelConfig,
    v: &mut WorkspaceViewsMut,
) {
    phase6_convective_body::<false>(shape, config, v)
}

lv_runtime::multiversion! {
    /// Phase 6 of the step's convective-only sweep, in reference space: adds
    /// the elemental convection matrix
    /// `∫ ρ·(N_a + τ·(u·∇)N_a)·(u·∇)N_b` to `elauu` from the chunk's rows of
    /// a [`crate::ConvectiveGeometry`] (`geometry`:
    /// `[PGAUS][GEOMETRY_ROWS][VECTOR_SIZE]`, read front to back) — no
    /// `gpcar`, no `elrbu`.
    ///
    /// `(u·∇)N_b = Σ_i u_i Σ_j ∂N_b/∂ξ_j·J⁻¹_ji = Σ_j ∂N_b/∂ξ_j·â_j` with
    /// `â = J⁻¹·u`: the velocity is pulled back once per integration point
    /// (three rows) and every node's convection is three constants of the
    /// shape table times those rows.  The test-function weight
    /// `w_a = vol·ρ·(N_a + τ·(u·∇)N_a)` is formed once per node, so an entry
    /// of the matrix costs one product and one sum.  The same integrals as
    /// the `gpcar` formulation in another operation order: equal to it to a
    /// few ε of an element matrix's largest entry (tests below), not bit for
    /// bit, and like every multiversioned kernel the same bits at both widths.
    pub fn phase6_reference_convective_slices(
        shape: &ShapeTable,
        config: &KernelConfig,
        geometry: &[f64],
        v: &mut WorkspaceViewsMut,
    ) = phase6_reference_convective_body, at phase6_reference_convective_slices_at;
}

#[inline(always)]
fn phase6_reference_convective_body(
    shape: &ShapeTable,
    config: &KernelConfig,
    geometry: &[f64],
    v: &mut WorkspaceViewsMut,
) {
    let vs = v.vs;
    assert_eq!(geometry.len(), PGAUS * GEOMETRY_ROWS * vs);
    let rho = config.density;
    let (conv, rest) = v.scratch.split_at_mut(PNODE * vs);
    let (pulled_back, rest) = rest.split_at_mut(NDIME * vs);
    let (vol_rho, rest) = rest.split_at_mut(vs);
    let weight_a = &mut rest[..vs];
    for igaus in 0..PGAUS {
        let funcs = shape.functions(igaus);
        let derivs = shape.derivatives(igaus);
        let geometry = &geometry[igaus * GEOMETRY_ROWS * vs..(igaus + 1) * GEOMETRY_ROWS * vs];
        let vol = &row(geometry, NDIME * NDIME, vs)[..vs];
        let tau = &row(v.tau, igaus, vs)[..vs];
        let adv = [0, 1, 2].map(|i| row(v.gpadv, igaus * NDIME + i, vs));
        // â_j = Σ_i u_i·J⁻¹_ji: row j of the inverse dotted with the velocity.
        for j in 0..NDIME {
            advect(row_mut(pulled_back, j, vs), adv, geometry, j * NDIME, vs);
        }
        {
            let a0 = &row(pulled_back, 0, vs)[..vs];
            let a1 = &row(pulled_back, 1, vs)[..vs];
            let a2 = &row(pulled_back, 2, vs)[..vs];
            for node in 0..PNODE {
                let [d0, d1, d2] = derivs.d[node];
                let conv_b = &mut row_mut(conv, node, vs)[..vs];
                for k in 0..vs {
                    conv_b[k] = d0 * a0[k] + d1 * a1[k] + d2 * a2[k];
                }
            }
        }
        for k in 0..vs {
            vol_rho[k] = vol[k] * rho;
        }
        for inode in 0..PNODE {
            let n_a = funcs.n[inode];
            let conv_a = &row(conv, inode, vs)[..vs];
            for k in 0..vs {
                weight_a[k] = vol_rho[k] * (n_a + tau[k] * conv_a[k]);
            }
            for jnode in 0..PNODE {
                let conv_b = &row(conv, jnode, vs)[..vs];
                let ela = &mut row_mut(v.elauu, inode * PNODE + jnode, vs)[..vs];
                for k in 0..vs {
                    ela[k] += weight_a[k] * conv_b[k];
                }
            }
        }
    }
}

/// The one phase-6 body: `RESIDUAL` selects the paper's phase (elemental
/// right-hand side and matrix) or its matrix-only reduction (the tests'
/// oracle of the reference-space kernel), which drops `(u·∇)u`, `ρ·τ`,
/// `ρτ·(u·∇)N_a` and the `elrbu` rows with it; a constant switch, like
/// phase 4's.
#[inline(always)]
fn phase6_convective_body<const RESIDUAL: bool>(
    shape: &ShapeTable,
    config: &KernelConfig,
    v: &mut WorkspaceViewsMut,
) {
    let vs = v.vs;
    let rho = config.density;
    let (conv, rest) = v.scratch.split_at_mut(PNODE * vs);
    let (ugradu, rest) = rest.split_at_mut(NDIME * vs);
    let (rho_tau, rest) = rest.split_at_mut(vs);
    let (vol_rho, rest) = rest.split_at_mut(vs);
    let (tau_conv_a, rest) = rest.split_at_mut(vs);
    let rho_tau_conv_a = &mut rest[..vs];
    for igaus in 0..PGAUS {
        let funcs = shape.functions(igaus);
        let vol = &row(v.gpvol, igaus, vs)[..vs];
        let tau = &row(v.tau, igaus, vs)[..vs];
        let adv = [0, 1, 2].map(|j| row(v.gpadv, igaus * NDIME + j, vs));
        for node in 0..PNODE {
            advect(row_mut(conv, node, vs), adv, v.gpcar, (igaus * PNODE + node) * NDIME, vs);
        }
        if RESIDUAL {
            for i in 0..NDIME {
                advect(row_mut(ugradu, i, vs), adv, v.gpgve, (igaus * NDIME + i) * NDIME, vs);
            }
        }
        for k in 0..vs {
            if RESIDUAL {
                rho_tau[k] = rho * tau[k];
            }
            vol_rho[k] = vol[k] * rho;
        }
        for inode in 0..PNODE {
            let n_a = funcs.n[inode];
            let rho_n_a = rho * n_a;
            let conv_a = &row(conv, inode, vs)[..vs];
            for k in 0..vs {
                tau_conv_a[k] = tau[k] * conv_a[k];
                if RESIDUAL {
                    rho_tau_conv_a[k] = rho_tau[k] * conv_a[k];
                }
            }
            if RESIDUAL {
                for i in 0..NDIME {
                    let ugradu_i = &row(ugradu, i, vs)[..vs];
                    let rbu = &mut row_mut(v.elrbu, inode * NDIME + i, vs)[..vs];
                    for k in 0..vs {
                        // Galerkin convective residual + SUPG perturbation.
                        let galerkin = rho_n_a * ugradu_i[k];
                        let supg = rho_tau_conv_a[k] * ugradu_i[k];
                        rbu[k] += -vol[k] * (galerkin + supg);
                    }
                }
            }
            if config.semi_implicit {
                for jnode in 0..PNODE {
                    let conv_b = &row(conv, jnode, vs)[..vs];
                    let ela = &mut row_mut(v.elauu, inode * PNODE + jnode, vs)[..vs];
                    for k in 0..vs {
                        let galerkin = n_a * conv_b[k];
                        let supg = tau_conv_a[k] * conv_b[k];
                        ela[k] += vol_rho[k] * (galerkin + supg);
                    }
                }
            }
        }
    }
}

lv_runtime::multiversion! {
    /// Phase 7, slice path: viscous term and (semi-implicit) elemental matrix
    /// with the lumped mass/Δt diagonal.
    pub fn phase7_viscous_slices(
        shape: &ShapeTable,
        config: &KernelConfig,
        v: &mut WorkspaceViewsMut,
    ) = phase7_viscous_body, at phase7_viscous_slices_at;
}

#[inline(always)]
fn phase7_viscous_body(shape: &ShapeTable, config: &KernelConfig, v: &mut WorkspaceViewsMut) {
    let vs = v.vs;
    let nu = config.viscosity;
    let rho = config.density;
    let inv_dt = 1.0 / config.dt;
    for igaus in 0..PGAUS {
        let funcs = shape.functions(igaus);
        for inode in 0..PNODE {
            let n_a = funcs.n[inode];
            let base_a = (igaus * PNODE + inode) * NDIME;
            for i in 0..NDIME {
                let vol = &row(v.gpvol, igaus, vs)[..vs];
                let car0 = &row(v.gpcar, base_a, vs)[..vs];
                let car1 = &row(v.gpcar, base_a + 1, vs)[..vs];
                let car2 = &row(v.gpcar, base_a + 2, vs)[..vs];
                let gve0 = &row(v.gpgve, (igaus * NDIME + i) * NDIME, vs)[..vs];
                let gve1 = &row(v.gpgve, (igaus * NDIME + i) * NDIME + 1, vs)[..vs];
                let gve2 = &row(v.gpgve, (igaus * NDIME + i) * NDIME + 2, vs)[..vs];
                let rbu = &mut row_mut(v.elrbu, inode * NDIME + i, vs)[..vs];
                for k in 0..vs {
                    let r = &mut rbu[k];
                    // RHS: -ν ∇N_a : ∇u
                    let mut visc = 0.0;
                    visc += car0[k] * gve0[k];
                    visc += car1[k] * gve1[k];
                    visc += car2[k] * gve2[k];
                    *r += -vol[k] * nu * visc;
                }
            }
            if config.semi_implicit {
                for jnode in 0..PNODE {
                    let base_b = (igaus * PNODE + jnode) * NDIME;
                    let vol = &row(v.gpvol, igaus, vs)[..vs];
                    let car_a0 = &row(v.gpcar, base_a, vs)[..vs];
                    let car_a1 = &row(v.gpcar, base_a + 1, vs)[..vs];
                    let car_a2 = &row(v.gpcar, base_a + 2, vs)[..vs];
                    let car_b0 = &row(v.gpcar, base_b, vs)[..vs];
                    let car_b1 = &row(v.gpcar, base_b + 1, vs)[..vs];
                    let car_b2 = &row(v.gpcar, base_b + 2, vs)[..vs];
                    // Matrix: ν ∇N_a·∇N_b + (ρ/Δt) N_a N_b.
                    let mass = rho * inv_dt * n_a * funcs.n[jnode];
                    let ela = &mut row_mut(v.elauu, inode * PNODE + jnode, vs)[..vs];
                    for k in 0..vs {
                        let mut diff = 0.0;
                        diff += car_a0[k] * car_b0[k];
                        diff += car_a1[k] * car_b1[k];
                        diff += car_a2[k] * car_b2[k];
                        ela[k] += vol[k] * (nu * diff + mass);
                    }
                }
            }
        }
    }
}

/// Phase 8, slice path: validity check and scatter into the global CSR
/// matrix and RHS.  The elemental matrix entries go straight to their
/// positions in the value array through the element→CSR slot map of
/// `topology` (whose pattern `matrix` must have — the sweep drivers check it
/// once per sweep); the sparsity pattern never changes, so nothing is
/// searched here.
pub fn phase8_scatter_slices(
    mesh: &Mesh,
    topology: &MeshTopology,
    config: &KernelConfig,
    v: &WorkspaceViewsMut,
    matrix: &mut CsrMatrix,
    rhs: &mut [f64],
) {
    assert_eq!(rhs.len(), NDIME * mesh.num_nodes());
    let vs = v.vs;
    let (_, _, values) = matrix.pattern_and_values_mut();
    for iv in 0..vs {
        // The validity check of the paper: padding slots are skipped.
        let Some(elem) = v.element_ids[iv] else { continue };
        let nodes = mesh.element_nodes(elem);
        let slots = topology.csr_slots(mesh, elem);
        for (inode, &node_a) in nodes.iter().enumerate() {
            let node_a = node_a as usize;
            for idime in 0..NDIME {
                rhs[NDIME * node_a + idime] += v.elrbu[(inode * NDIME + idime) * vs + iv];
            }
            if config.semi_implicit {
                for jnode in 0..PNODE {
                    values[slots[inode * PNODE + jnode] as usize] +=
                        v.elauu[(inode * PNODE + jnode) * vs + iv];
                }
            }
        }
    }
}

/// Analytic FLOP count of one element's assembly (phases 3–7), used by tests
/// and by the roofline-style reporting in the experiment driver.
pub fn flops_per_element(semi_implicit: bool) -> f64 {
    let p3 = PGAUS as f64
        * (PNODE as f64 * (NDIME * NDIME * 2) as f64   // Jacobian accumulation (FMA)
            + 45.0                                      // det + inverse
            + PNODE as f64 * (NDIME * NDIME * 2) as f64 // gpcar
            + 1.0);
    let p4 = PGAUS as f64 * PNODE as f64 * (NDIME as f64 * 2.0 + (NDIME * NDIME * 2) as f64);
    let p5 = PGAUS as f64 * 16.0;
    let p6_rhs = PGAUS as f64
        * PNODE as f64
        * ((NDIME * 2) as f64 + NDIME as f64 * ((NDIME * 2) as f64 + 7.0));
    let p6_mat = if semi_implicit {
        PGAUS as f64 * PNODE as f64 * PNODE as f64 * ((NDIME * 2) as f64 + 5.0)
    } else {
        0.0
    };
    let p6 = p6_rhs + p6_mat;
    let p7_rhs = PGAUS as f64 * PNODE as f64 * NDIME as f64 * ((NDIME * 2) as f64 + 3.0);
    let p7_mat = if semi_implicit {
        PGAUS as f64 * PNODE as f64 * PNODE as f64 * ((NDIME * 2) as f64 + 6.0)
    } else {
        0.0
    };
    let p8 = PNODE as f64 * NDIME as f64 + if semi_implicit { (PNODE * PNODE) as f64 } else { 0.0 };
    p3 + p4 + p5 + p6 + p7_rhs + p7_mat + p8
}

/// Analytic FLOP count of one element of the step's convective-only sweep
/// (velocity-only phase 4, phase 5, the reference-space phase 6 and the
/// matrix scatter), counted as the slice kernels execute them.  No phase 3:
/// the geometry is read from the [`crate::ConvectiveGeometry`] table, whose
/// one-off construction is set-up, not sweep.
pub fn convective_flops_per_element() -> u64 {
    let (pgaus, pnode, ndime) = (PGAUS as u64, PNODE as u64, NDIME as u64);
    // `gpvel += N_a·u_a`.
    let p4 = pgaus * pnode * ndime * 2;
    let p5 = pgaus * 16;
    // Per integration point: the pulled-back velocity `J⁻¹·u` (three
    // accumulated dot products), `(u·∇)N_b` of every node (three products,
    // two sums), `vol·ρ`; per test function the weight `vol·ρ·(N_a + τ·conv_a)`;
    // per entry one product and the accumulation.
    let p6 =
        pgaus * (ndime * ndime * 2 + pnode * (2 * ndime - 1) + 1 + pnode * 3 + pnode * pnode * 2);
    let p8 = pnode * pnode;
    p4 + p5 + p6 + p8
}

/// Bytes one element of the convective-only sweep moves between the
/// workspace and the global arrays: the gathered unknowns (phase 2 gathers
/// the pressure too, as in the paper's phase), the connectivity that gather
/// and the scatter each read, the element's rows of the geometry table
/// ([`GEOMETRY_ROWS`] values per integration point, streamed unit-stride),
/// its CSR slot map, and the 8×8 block read and written in place.
pub fn convective_bytes_per_element() -> u64 {
    let (pgaus, pnode, ndofn) = (PGAUS as u64, PNODE as u64, NDOFN as u64);
    let gather = 8 * pnode * ndofn;
    let connectivity = 2 * 4 * pnode;
    let geometry = 8 * pgaus * GEOMETRY_ROWS as u64;
    let slots = 4 * pnode * pnode;
    let block = 2 * 8 * pnode * pnode;
    gather + connectivity + geometry + slots + block
}

/// The original accessor phases: every scalar of the workspace read and
/// written through an `ElementWorkspace` get/set pair.  Not compiled into
/// the library — the oracle the slice kernels are held to bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use crate::workspace::ElementWorkspace;
    use lv_mesh::geometry::Mat3;

    /// Values a workspace is poisoned with before a sweep: a kernel that
    /// reads anything it did not write shows against a fresh oracle.
    pub(crate) const POISONS: [f64; 4] = [-7.25, f64::NAN, 1e300, -3.5];

    /// Phase 1: gather the element connectivity and nodal coordinates of every
    /// element of the chunk into `elcod`.
    ///
    /// Work A (connectivity handling and slot bookkeeping) and work B (the
    /// coordinate gather proper) are the two halves the VEC1 optimization later
    /// splits into separate loops.
    pub(crate) fn phase1_gather_coords(
        mesh: &Mesh,
        chunk: &ElementChunk,
        ws: &mut ElementWorkspace,
    ) {
        // Work A: element ids and connectivity bookkeeping.
        for ivect in 0..chunk.vector_size {
            ws.set_element_id(ivect, chunk.element(ivect));
        }
        // Work B: coordinate gather (indexed reads from the global mesh arrays).
        let coords = mesh.coords();
        for ivect in 0..chunk.vector_size {
            if let Some(elem) = chunk.element(ivect) {
                let nodes = mesh.element_nodes(elem);
                for (inode, &node) in nodes.iter().enumerate() {
                    let base = 3 * node as usize;
                    for idime in 0..NDIME {
                        ws.set_elcod(inode, idime, ivect, coords[base + idime]);
                    }
                }
            } else {
                // Padding slots replicate the last valid element's geometry so
                // phases 3–7 never divide by a zero Jacobian; phase 8 discards
                // their contributions.
                for inode in 0..PNODE {
                    for idime in 0..NDIME {
                        ws.set_elcod(inode, idime, ivect, ws.elcod(inode, idime, chunk.len - 1));
                    }
                }
            }
        }
    }

    /// Phase 2: gather the nodal unknowns (three velocity components and the
    /// pressure) of every element of the chunk into `elvel`.
    pub(crate) fn phase2_gather_unknowns(
        mesh: &Mesh,
        velocity: &VectorField,
        pressure: &Field,
        chunk: &ElementChunk,
        ws: &mut ElementWorkspace,
    ) {
        let vel = velocity.as_slice();
        let pre = pressure.as_slice();
        for ivect in 0..chunk.vector_size {
            let elem = chunk.element(ivect).unwrap_or(chunk.first_element + chunk.len - 1);
            let nodes = mesh.element_nodes(elem);
            for (inode, &node) in nodes.iter().enumerate() {
                let node = node as usize;
                for idime in 0..NDIME {
                    ws.set_elvel(inode, idime, ivect, vel[NDIME * node + idime]);
                }
                ws.set_elvel(inode, NDIME, ivect, pre[node]);
            }
        }
    }

    /// Phase 3: Jacobian, determinant, inverse and Cartesian derivatives at every
    /// integration point.
    ///
    /// Returns the number of elements whose Jacobian was singular (should be zero
    /// for a valid mesh).
    pub(crate) fn phase3_jacobian(
        shape: &ShapeTable,
        chunk: &ElementChunk,
        ws: &mut ElementWorkspace,
    ) -> usize {
        debug_assert_eq!(shape.num_gauss(), PGAUS);
        let mut singular = 0usize;
        for igaus in 0..PGAUS {
            let derivs = shape.derivatives(igaus);
            for ivect in 0..chunk.vector_size {
                // J[i][j] = Σ_a ∂N_a/∂ξ_j · x_a[i]
                let mut jac = Mat3::ZERO;
                for inode in 0..PNODE {
                    let d = derivs.d[inode];
                    for i in 0..NDIME {
                        let xi = ws.elcod(inode, i, ivect);
                        for (j, &dj) in d.iter().enumerate() {
                            jac.m[i][j] += dj * xi;
                        }
                    }
                }
                let det = jac.det();
                let weight = 1.0; // 2×2×2 Gauss weights are all 1
                ws.set_gpvol(igaus, ivect, det.abs() * weight);
                let Some(inv) = jac.inverse() else {
                    singular += 1;
                    // A singular slot has no Cartesian derivatives: zero them
                    // instead of leaving whatever the previous chunk wrote (the
                    // cheap `reset` no longer clears `gpcar`, and stale values
                    // would make the result depend on the chunk schedule).
                    for inode in 0..PNODE {
                        for i in 0..NDIME {
                            ws.set_gpcar(igaus, inode, i, ivect, 0.0);
                        }
                    }
                    continue;
                };
                // ∂N_a/∂x_i = Σ_j ∂N_a/∂ξ_j · (J⁻¹)[j][i]
                for inode in 0..PNODE {
                    let d = derivs.d[inode];
                    for i in 0..NDIME {
                        let mut v = 0.0;
                        for (j, &dj) in d.iter().enumerate() {
                            v += dj * inv.m[j][i];
                        }
                        ws.set_gpcar(igaus, inode, i, ivect, v);
                    }
                }
            }
        }
        singular
    }

    /// Phase 4: velocity and velocity gradient at the integration points.
    pub(crate) fn phase4_gauss_values(
        shape: &ShapeTable,
        chunk: &ElementChunk,
        ws: &mut ElementWorkspace,
    ) {
        for igaus in 0..PGAUS {
            let funcs = shape.functions(igaus);
            // Zero the accumulators for this integration point.
            for ivect in 0..chunk.vector_size {
                for i in 0..NDIME {
                    ws.set_gpvel(igaus, i, ivect, 0.0);
                    for j in 0..NDIME {
                        ws.set_gpgve(igaus, i, j, ivect, 0.0);
                    }
                }
            }
            for inode in 0..PNODE {
                let n_a = funcs.n[inode];
                for ivect in 0..chunk.vector_size {
                    for i in 0..NDIME {
                        let u_ai = ws.elvel(inode, i, ivect);
                        ws.add_gpvel(igaus, i, ivect, n_a * u_ai);
                        for j in 0..NDIME {
                            let dn_aj = ws.gpcar(igaus, inode, j, ivect);
                            ws.add_gpgve(igaus, i, j, ivect, dn_aj * u_ai);
                        }
                    }
                }
            }
        }
    }

    /// Phase 5: stabilization parameter τ and advection velocity at the
    /// integration points.
    pub(crate) fn phase5_stabilization(
        config: &KernelConfig,
        h_char: f64,
        chunk: &ElementChunk,
        ws: &mut ElementWorkspace,
    ) {
        let nu = config.viscosity;
        let rho = config.density;
        let inv_dt = 1.0 / config.dt;
        for igaus in 0..PGAUS {
            for ivect in 0..chunk.vector_size {
                let u = [
                    ws.gpvel(igaus, 0, ivect),
                    ws.gpvel(igaus, 1, ivect),
                    ws.gpvel(igaus, 2, ivect),
                ];
                let unorm = (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]).sqrt();
                // Classic SUPG design: τ = (c1 ν/h² + c2 |u|/h + ρ/Δt)⁻¹.
                let tau =
                    1.0 / (4.0 * nu / (h_char * h_char) + 2.0 * unorm / h_char + rho * inv_dt);
                ws.set_tau(igaus, ivect, tau);
                for (i, &ui) in u.iter().enumerate() {
                    ws.set_gpadv(igaus, i, ivect, ui);
                }
            }
        }
    }

    /// Phase 6: convective term (Galerkin + SUPG perturbation) contribution to
    /// the elemental RHS — the FLOP-dominant phase of the mini-app.
    pub(crate) fn phase6_convective(
        shape: &ShapeTable,
        config: &KernelConfig,
        chunk: &ElementChunk,
        ws: &mut ElementWorkspace,
    ) {
        let rho = config.density;
        for igaus in 0..PGAUS {
            let funcs = shape.functions(igaus);
            for inode in 0..PNODE {
                let n_a = funcs.n[inode];
                for ivect in 0..chunk.vector_size {
                    let vol = ws.gpvol(igaus, ivect);
                    let tau = ws.tau(igaus, ivect);
                    // conv_a = (u·∇)N_a
                    let mut conv_a = 0.0;
                    for j in 0..NDIME {
                        conv_a += ws.gpadv(igaus, j, ivect) * ws.gpcar(igaus, inode, j, ivect);
                    }
                    // (u·∇)u_i at the integration point, per component.
                    for i in 0..NDIME {
                        let mut ugradu_i = 0.0;
                        for j in 0..NDIME {
                            ugradu_i += ws.gpadv(igaus, j, ivect) * ws.gpgve(igaus, i, j, ivect);
                        }
                        // Galerkin convective residual + SUPG perturbation.
                        let galerkin = rho * n_a * ugradu_i;
                        let supg = rho * tau * conv_a * ugradu_i;
                        ws.add_elrbu(inode, i, ivect, -vol * (galerkin + supg));
                    }
                    // Semi-implicit scheme: the (SUPG-stabilized) convection
                    // operator also contributes to the elemental matrix.  This is
                    // the bulk of the arithmetic of the phase, which is why the
                    // paper finds phase 6 to be the most cycle-consuming one.
                    if config.semi_implicit {
                        for jnode in 0..PNODE {
                            let mut conv_b = 0.0;
                            for j in 0..NDIME {
                                conv_b +=
                                    ws.gpadv(igaus, j, ivect) * ws.gpcar(igaus, jnode, j, ivect);
                            }
                            let galerkin = n_a * conv_b;
                            let supg = tau * conv_a * conv_b;
                            ws.add_elauu(inode, jnode, ivect, vol * rho * (galerkin + supg));
                        }
                    }
                }
            }
        }
    }

    /// Phase 7: viscous term contribution to the elemental RHS and (for the
    /// semi-implicit scheme) the elemental matrix, plus the lumped mass/Δt
    /// diagonal that makes the assembled operator well conditioned.
    pub(crate) fn phase7_viscous(
        shape: &ShapeTable,
        config: &KernelConfig,
        chunk: &ElementChunk,
        ws: &mut ElementWorkspace,
    ) {
        let nu = config.viscosity;
        let rho = config.density;
        let inv_dt = 1.0 / config.dt;
        for igaus in 0..PGAUS {
            let funcs = shape.functions(igaus);
            for inode in 0..PNODE {
                let n_a = funcs.n[inode];
                for ivect in 0..chunk.vector_size {
                    let vol = ws.gpvol(igaus, ivect);
                    // RHS: -ν ∇N_a : ∇u
                    for i in 0..NDIME {
                        let mut visc = 0.0;
                        for j in 0..NDIME {
                            visc += ws.gpcar(igaus, inode, j, ivect) * ws.gpgve(igaus, i, j, ivect);
                        }
                        ws.add_elrbu(inode, i, ivect, -vol * nu * visc);
                    }
                    if config.semi_implicit {
                        // Matrix: ν ∇N_a·∇N_b  +  (ρ/Δt) N_a N_b (lumped on the row).
                        for jnode in 0..PNODE {
                            let mut diff = 0.0;
                            for j in 0..NDIME {
                                diff += ws.gpcar(igaus, inode, j, ivect)
                                    * ws.gpcar(igaus, jnode, j, ivect);
                            }
                            let mass = rho * inv_dt * n_a * funcs.n[jnode];
                            ws.add_elauu(inode, jnode, ivect, vol * (nu * diff + mass));
                        }
                    }
                }
            }
        }
    }

    /// Phase 8: validity check and scatter of the elemental contributions into
    /// the global CSR matrix and RHS vector.
    ///
    /// The RHS has `NDIME` entries per node (`rhs[NDIME*node + idime]`); the
    /// matrix is the scalar (per-component) operator on the node-to-node graph,
    /// applied identically to each velocity component.
    pub(crate) fn phase8_scatter(
        mesh: &Mesh,
        config: &KernelConfig,
        chunk: &ElementChunk,
        ws: &ElementWorkspace,
        matrix: &mut CsrMatrix,
        rhs: &mut [f64],
    ) {
        assert_eq!(rhs.len(), NDIME * mesh.num_nodes());
        for ivect in 0..chunk.vector_size {
            // The validity check of the paper: padding slots are skipped.
            let Some(elem) = ws.element_id(ivect) else { continue };
            let nodes = mesh.element_nodes(elem);
            for (inode, &node_a) in nodes.iter().enumerate() {
                let node_a = node_a as usize;
                for idime in 0..NDIME {
                    rhs[NDIME * node_a + idime] += ws.elrbu(inode, idime, ivect);
                }
                if config.semi_implicit {
                    for (jnode, &node_b) in nodes.iter().enumerate() {
                        matrix.add(node_a, node_b as usize, ws.elauu(inode, jnode, ivect));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::*;
    use super::*;
    use crate::workspace::ElementWorkspace;
    use lv_mesh::quadrature::GaussRule;
    use lv_mesh::structured::BoxMeshBuilder;
    use lv_mesh::ElementKind;
    use lv_runtime::Lanes;

    fn setup(
        nelem_per_side: usize,
        vs: usize,
    ) -> (Mesh, ShapeTable, ElementChunk, ElementWorkspace) {
        let mesh = BoxMeshBuilder::new(nelem_per_side, nelem_per_side, nelem_per_side)
            .lid_driven_cavity()
            .build();
        let shape = ShapeTable::new(ElementKind::Hex8, &GaussRule::hex_2x2x2());
        let chunk =
            ElementChunk { first_element: 0, len: vs.min(mesh.num_elements()), vector_size: vs };
        let ws = ElementWorkspace::new(vs);
        (mesh, shape, chunk, ws)
    }

    #[test]
    fn phase1_gathers_the_right_coordinates() {
        let (mesh, _, chunk, mut ws) = setup(3, 8);
        phase1_gather_coords(&mesh, &chunk, &mut ws);
        for ivect in 0..chunk.len {
            let elem = chunk.element(ivect).unwrap();
            let nodes = mesh.element_nodes(elem);
            for (inode, &node) in nodes.iter().enumerate() {
                let p = mesh.node_coords(node as usize);
                for d in 0..NDIME {
                    assert_eq!(ws.elcod(inode, d, ivect), p[d]);
                }
            }
        }
    }

    #[test]
    fn phase2_gathers_velocity_and_pressure() {
        let (mesh, _, chunk, mut ws) = setup(3, 8);
        let vel = VectorField::taylor_green(&mesh);
        let pre = Field::from_fn(&mesh, |p| p.x + 2.0 * p.y);
        phase2_gather_unknowns(&mesh, &vel, &pre, &chunk, &mut ws);
        let elem = 3;
        let node = mesh.element_nodes(elem)[5] as usize;
        assert_eq!(ws.elvel(5, 0, 3), vel.get(node).x);
        assert_eq!(ws.elvel(5, 2, 3), vel.get(node).z);
        assert_eq!(ws.elvel(5, NDIME, 3), pre.value(node));
    }

    #[test]
    fn phase3_volume_sums_to_element_volume() {
        let (mesh, shape, chunk, mut ws) = setup(4, 16);
        phase1_gather_coords(&mesh, &chunk, &mut ws);
        let singular = phase3_jacobian(&shape, &chunk, &mut ws);
        assert_eq!(singular, 0);
        for ivect in 0..chunk.len {
            let elem = chunk.element(ivect).unwrap();
            let vol: f64 = (0..PGAUS).map(|g| ws.gpvol(g, ivect)).sum();
            assert!((vol - mesh.element_volume(elem)).abs() < 1e-12);
        }
    }

    #[test]
    fn phase3_cartesian_derivatives_reproduce_linear_gradient() {
        // For the unit-cube structured mesh, a linear field f = 2x - y + 3z
        // must have gradient (2, -1, 3) when differentiated with gpcar.
        let (mesh, shape, chunk, mut ws) = setup(3, 4);
        phase1_gather_coords(&mesh, &chunk, &mut ws);
        phase3_jacobian(&shape, &chunk, &mut ws);
        let ivect = 1;
        let elem = chunk.element(ivect).unwrap();
        let nodes = mesh.element_nodes(elem);
        let nodal: Vec<f64> = nodes
            .iter()
            .map(|&n| {
                let p = mesh.node_coords(n as usize);
                2.0 * p.x - p.y + 3.0 * p.z
            })
            .collect();
        for igaus in 0..PGAUS {
            let expect = [2.0, -1.0, 3.0];
            for (d, &expected) in expect.iter().enumerate() {
                let grad: f64 = (0..PNODE).map(|a| ws.gpcar(igaus, a, d, ivect) * nodal[a]).sum();
                assert!((grad - expected).abs() < 1e-10, "igaus {igaus} dim {d}: {grad}");
            }
        }
    }

    #[test]
    fn phase4_interpolates_constant_velocity_exactly() {
        let (mesh, shape, chunk, mut ws) = setup(3, 4);
        let vel = VectorField::constant(&mesh, lv_mesh::Vec3::new(1.5, -0.5, 2.0));
        let pre = Field::zeros(&mesh);
        phase1_gather_coords(&mesh, &chunk, &mut ws);
        phase2_gather_unknowns(&mesh, &vel, &pre, &chunk, &mut ws);
        phase3_jacobian(&shape, &chunk, &mut ws);
        phase4_gauss_values(&shape, &chunk, &mut ws);
        for igaus in 0..PGAUS {
            assert!((ws.gpvel(igaus, 0, 0) - 1.5).abs() < 1e-12);
            assert!((ws.gpvel(igaus, 1, 0) + 0.5).abs() < 1e-12);
            assert!((ws.gpvel(igaus, 2, 0) - 2.0).abs() < 1e-12);
            // A constant field has zero gradient.
            for i in 0..NDIME {
                for j in 0..NDIME {
                    assert!(ws.gpgve(igaus, i, j, 0).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn phase5_tau_is_positive_and_bounded_by_dt() {
        let (mesh, shape, chunk, mut ws) = setup(3, 4);
        let config = KernelConfig::default();
        let vel = VectorField::taylor_green(&mesh);
        let pre = Field::zeros(&mesh);
        phase1_gather_coords(&mesh, &chunk, &mut ws);
        phase2_gather_unknowns(&mesh, &vel, &pre, &chunk, &mut ws);
        phase3_jacobian(&shape, &chunk, &mut ws);
        phase4_gauss_values(&shape, &chunk, &mut ws);
        phase5_stabilization(&config, mesh.characteristic_length(), &chunk, &mut ws);
        for igaus in 0..PGAUS {
            for ivect in 0..chunk.len {
                let tau = ws.tau(igaus, ivect);
                assert!(tau > 0.0);
                assert!(tau <= config.dt / config.density + 1e-12);
            }
        }
    }

    #[test]
    fn convective_residual_vanishes_for_zero_velocity() {
        let (mesh, shape, chunk, mut ws) = setup(3, 4);
        let config = KernelConfig::default();
        let vel = VectorField::zeros(&mesh);
        let pre = Field::zeros(&mesh);
        phase1_gather_coords(&mesh, &chunk, &mut ws);
        phase2_gather_unknowns(&mesh, &vel, &pre, &chunk, &mut ws);
        phase3_jacobian(&shape, &chunk, &mut ws);
        phase4_gauss_values(&shape, &chunk, &mut ws);
        phase5_stabilization(&config, mesh.characteristic_length(), &chunk, &mut ws);
        phase6_convective(&shape, &config, &chunk, &mut ws);
        for ivect in 0..chunk.len {
            for a in 0..PNODE {
                for d in 0..NDIME {
                    assert_eq!(ws.elrbu(a, d, ivect), 0.0);
                }
            }
        }
    }

    #[test]
    fn viscous_matrix_row_sums_vanish_and_diagonal_is_positive() {
        // ∇N_a·∇N_b row-sums vanish because Σ_b N_b = 1; with the mass term
        // the row sum equals the lumped mass (positive).
        let (mesh, shape, chunk, mut ws) = setup(3, 4);
        let config = KernelConfig::default();
        let vel = VectorField::zeros(&mesh);
        let pre = Field::zeros(&mesh);
        phase1_gather_coords(&mesh, &chunk, &mut ws);
        phase2_gather_unknowns(&mesh, &vel, &pre, &chunk, &mut ws);
        phase3_jacobian(&shape, &chunk, &mut ws);
        phase4_gauss_values(&shape, &chunk, &mut ws);
        phase5_stabilization(&config, mesh.characteristic_length(), &chunk, &mut ws);
        phase7_viscous(&shape, &config, &chunk, &mut ws);
        let elem_vol = mesh.element_volume(0);
        let expected_mass = config.density / config.dt * elem_vol;
        for a in 0..PNODE {
            assert!(ws.elauu(a, a, 0) > 0.0);
        }
        let total: f64 = (0..PNODE)
            .flat_map(|a| (0..PNODE).map(move |b| (a, b)))
            .map(|(a, b)| ws.elauu(a, b, 0))
            .sum();
        // Total of the matrix = ∫ ρ/Δt (Σ_a N_a)(Σ_b N_b) = ρ/Δt · |element|.
        assert!((total - expected_mass).abs() < 1e-9, "total {total} vs {expected_mass}");
    }

    #[test]
    fn phase8_skips_padding_and_conserves_rhs_sum() {
        let (mesh, shape, chunk, mut ws) = setup(3, 32); // 27 elements, 5 padding slots
        let config = KernelConfig::default();
        let vel = VectorField::taylor_green(&mesh);
        let pre = Field::zeros(&mesh);
        phase1_gather_coords(&mesh, &chunk, &mut ws);
        phase2_gather_unknowns(&mesh, &vel, &pre, &chunk, &mut ws);
        phase3_jacobian(&shape, &chunk, &mut ws);
        phase4_gauss_values(&shape, &chunk, &mut ws);
        phase5_stabilization(&config, mesh.characteristic_length(), &chunk, &mut ws);
        phase6_convective(&shape, &config, &chunk, &mut ws);
        phase7_viscous(&shape, &config, &chunk, &mut ws);

        let (row_ptr, col_idx) = mesh.node_graph_csr();
        let mut matrix = CsrMatrix::from_pattern(row_ptr, col_idx);
        let mut rhs = vec![0.0; NDIME * mesh.num_nodes()];
        phase8_scatter(&mesh, &config, &chunk, &ws, &mut matrix, &mut rhs);

        // The global RHS total equals the sum of the valid elemental RHS
        // entries (padding contributes nothing).
        let elemental_total: f64 = (0..chunk.len)
            .flat_map(|iv| (0..PNODE).map(move |a| (iv, a)))
            .flat_map(|(iv, a)| (0..NDIME).map(move |d| (iv, a, d)))
            .map(|(iv, a, d)| ws.elrbu(a, d, iv))
            .sum();
        let global_total: f64 = rhs.iter().sum();
        assert!((elemental_total - global_total).abs() < 1e-9);
        assert!(matrix.frobenius_norm() > 0.0);
    }

    /// Runs phases 1–7 through the oracle (fresh workspace) and the slice
    /// kernels (workspace poisoned with each of [`POISONS`]) on the same
    /// chunk and compares every workspace array bit for bit, then phase 8
    /// into separate systems.
    fn assert_paths_bitwise_identical(nelem_per_side: usize, vs: usize, semi_implicit: bool) {
        let mesh = BoxMeshBuilder::new(nelem_per_side, nelem_per_side, nelem_per_side)
            .lid_driven_cavity()
            .with_jitter(0.13, 5)
            .build();
        let shape = ShapeTable::new(ElementKind::Hex8, &GaussRule::hex_2x2x2());
        let chunk =
            ElementChunk { first_element: 0, len: vs.min(mesh.num_elements()), vector_size: vs };
        let config = KernelConfig { semi_implicit, ..KernelConfig::default() };
        let vel = VectorField::taylor_green(&mesh);
        let pre = Field::from_fn(&mesh, |p| p.x * p.y - 0.5 * p.z);
        let h = mesh.characteristic_length();

        let mut ws_a = ElementWorkspace::new(vs);
        ws_a.reset();
        phase1_gather_coords(&mesh, &chunk, &mut ws_a);
        phase2_gather_unknowns(&mesh, &vel, &pre, &chunk, &mut ws_a);
        let singular_a = phase3_jacobian(&shape, &chunk, &mut ws_a);
        phase4_gauss_values(&shape, &chunk, &mut ws_a);
        phase5_stabilization(&config, h, &chunk, &mut ws_a);
        phase6_convective(&shape, &config, &chunk, &mut ws_a);
        phase7_viscous(&shape, &config, &chunk, &mut ws_a);

        let topology = MeshTopology::new(&mesh);
        let (row_ptr, col_idx) = (topology.row_ptr().to_vec(), topology.col_idx().to_vec());
        let mut mat_a = CsrMatrix::from_pattern(row_ptr.clone(), col_idx.clone());
        let mut rhs_a = vec![0.0; NDIME * mesh.num_nodes()];
        phase8_scatter(&mesh, &config, &chunk, &ws_a, &mut mat_a, &mut rhs_a);

        for poison in POISONS {
            let what = format!("vs={vs}, semi={semi_implicit}, poison={poison}");
            let mut ws_s = ElementWorkspace::new(vs);
            ws_s.poison(poison);
            ws_s.reset();
            let mut mat_s = CsrMatrix::from_pattern(row_ptr.clone(), col_idx.clone());
            let mut rhs_s = vec![0.0; NDIME * mesh.num_nodes()];
            {
                let mut v = ws_s.views_mut();
                phase1_gather_coords_slices(&mesh, &chunk, &mut v);
                phase2_gather_unknowns_slices(&mesh, &vel, &pre, &chunk, &mut v);
                let singular_s = phase3_jacobian_slices(&shape, &mut v);
                phase4_gauss_values_slices(&shape, &mut v);
                phase5_stabilization_slices(&config, h, &mut v);
                phase6_convective_slices(&shape, &config, &mut v);
                phase7_viscous_slices(&shape, &config, &mut v);
                assert_eq!(singular_a, singular_s, "{what}");
                phase8_scatter_slices(&mesh, &topology, &config, &v, &mut mat_s, &mut rhs_s);
            }

            let va = ws_a.views();
            let vb = ws_s.views();
            for (name, a, b) in [
                ("elcod", va.elcod, vb.elcod),
                ("elvel", va.elvel, vb.elvel),
                ("gpvol", va.gpvol, vb.gpvol),
                ("gpcar", va.gpcar, vb.gpcar),
                ("gpvel", va.gpvel, vb.gpvel),
                ("gpgve", va.gpgve, vb.gpgve),
                ("gpadv", va.gpadv, vb.gpadv),
                ("tau", va.tau, vb.tau),
                ("elrbu", va.elrbu, vb.elrbu),
                ("elauu", va.elauu, vb.elauu),
            ] {
                for (k, (x, y)) in a.iter().zip(b).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{name}[{k}] differs ({what}): {x} vs {y}"
                    );
                }
            }
            assert_eq!(va.element_ids, vb.element_ids, "{what}");
            for (x, y) in rhs_a.iter().zip(&rhs_s) {
                assert_eq!(x.to_bits(), y.to_bits(), "phase 8 rhs differs ({what})");
            }
            for (x, y) in mat_a.values().iter().zip(mat_s.values()) {
                assert_eq!(x.to_bits(), y.to_bits(), "phase 8 matrix differs ({what})");
            }
        }
    }

    #[test]
    fn slice_path_is_bitwise_identical_to_the_oracle() {
        // A full chunk, 27 elements in 32 slots (5 padding), the explicit
        // scheme, and a partial phase-3 strip (21 = 16 + 5).
        for (vs, semi_implicit) in [(27, true), (32, true), (8, false), (21, true)] {
            assert_paths_bitwise_identical(3, vs, semi_implicit);
        }
    }

    /// The widths a clone-against-baseline test compares: the baseline
    /// bodies and, where the host has them, the wide clones.
    fn widths_under_test() -> Vec<Lanes> {
        match Lanes::selected() {
            Lanes::Baseline => {
                println!("note: this host selects no wide lanes; only the baseline bodies run");
                vec![Lanes::Baseline]
            }
            wide => vec![Lanes::Baseline, wide],
        }
    }

    /// Phases 3–7 of every chunk of a jittered 27-element mesh — one slot
    /// of each chunk collapsed to a point, so phase 3 meets a singular
    /// Jacobian — through the accessor oracle, the baseline bodies and the
    /// wide clones: every workspace array and the singular count must agree
    /// bit for bit.
    fn assert_clones_match_their_baseline_and_the_oracle(vs: usize) {
        let mesh = BoxMeshBuilder::new(3, 3, 3).lid_driven_cavity().with_jitter(0.13, 5).build();
        let shape = ShapeTable::new(ElementKind::Hex8, &GaussRule::hex_2x2x2());
        let config = KernelConfig::default();
        let vel = VectorField::taylor_green(&mesh);
        let pre = Field::from_fn(&mesh, |p| p.x * p.y - 0.5 * p.z);
        let h = mesh.characteristic_length();
        for chunk in &lv_mesh::ElementChunks::new(&mesh, vs) {
            let collapsed = chunk.len / 2;

            let mut ws_a = ElementWorkspace::new(vs);
            ws_a.reset();
            phase1_gather_coords(&mesh, chunk, &mut ws_a);
            phase2_gather_unknowns(&mesh, &vel, &pre, chunk, &mut ws_a);
            for inode in 0..PNODE {
                for idime in 0..NDIME {
                    ws_a.set_elcod(inode, idime, collapsed, 0.25);
                }
            }
            let singular_a = phase3_jacobian(&shape, chunk, &mut ws_a);
            assert_eq!(singular_a, PGAUS, "one collapsed slot, singular at every Gauss point");
            phase4_gauss_values(&shape, chunk, &mut ws_a);
            phase5_stabilization(&config, h, chunk, &mut ws_a);
            phase6_convective(&shape, &config, chunk, &mut ws_a);
            phase7_viscous(&shape, &config, chunk, &mut ws_a);

            for lanes in widths_under_test() {
                let mut ws_s = ElementWorkspace::new(vs);
                ws_s.poison(-7.25);
                ws_s.reset();
                {
                    let mut v = ws_s.views_mut();
                    phase1_gather_coords_slices(&mesh, chunk, &mut v);
                    phase2_gather_unknowns_slices(&mesh, &vel, &pre, chunk, &mut v);
                    for idx in 0..PNODE * NDIME {
                        v.elcod[idx * vs + collapsed] = 0.25;
                    }
                    let singular_s = phase3_jacobian_slices_at(lanes, &shape, &mut v);
                    assert_eq!(singular_s, singular_a, "singular count at {lanes}, vs={vs}");
                    phase4_gauss_values_slices_at(lanes, &shape, &mut v);
                    phase5_stabilization_slices_at(lanes, &config, h, &mut v);
                    phase6_convective_slices_at(lanes, &shape, &config, &mut v);
                    phase7_viscous_slices_at(lanes, &shape, &config, &mut v);
                }
                let (va, vb) = (ws_a.views(), ws_s.views());
                for (name, a, b) in [
                    ("gpvol", va.gpvol, vb.gpvol),
                    ("gpcar", va.gpcar, vb.gpcar),
                    ("gpvel", va.gpvel, vb.gpvel),
                    ("gpgve", va.gpgve, vb.gpgve),
                    ("gpadv", va.gpadv, vb.gpadv),
                    ("tau", va.tau, vb.tau),
                    ("elrbu", va.elrbu, vb.elrbu),
                    ("elauu", va.elauu, vb.elauu),
                ] {
                    for (k, (x, y)) in a.iter().zip(b).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{name}[{k}] at {lanes} differs from the oracle (vs={vs}, chunk at \
                             element {}): {x} vs {y}",
                            chunk.first_element
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wide_clones_match_baseline_and_oracle_on_awkward_vector_sizes() {
        // One lane, fewer lanes than a register, exactly a strip, a strip
        // and one, and the paper's 240 (27 elements in 240 slots: a padded
        // chunk); 7, 16 and 17 also end on a padded chunk.
        for vs in [1, 7, 16, 17, 240] {
            assert_clones_match_their_baseline_and_the_oracle(vs);
        }
    }

    #[test]
    fn reduced_phases_equal_the_full_ones_on_the_arrays_both_write() {
        // The step's phase 4 and the matrix-only phase 6 its reference-space
        // kernel is held to are the paper's with the right-hand side's share
        // switched off at compile time: `gpvel` and — phase 7 skipped on the
        // full side, `elauu` zeroed on both — `elauu` must come out bit for
        // bit (phase 4 at both widths; the oracle has no clone), and the
        // arrays only the full phases write (`gpgve`, `elrbu`) must not be
        // touched.
        let mesh = BoxMeshBuilder::new(3, 3, 3).lid_driven_cavity().with_jitter(0.13, 5).build();
        let shape = ShapeTable::new(ElementKind::Hex8, &GaussRule::hex_2x2x2());
        let config = KernelConfig::default();
        let vel = VectorField::taylor_green(&mesh);
        let pre = Field::from_fn(&mesh, |p| p.x * p.y - 0.5 * p.z);
        let h = mesh.characteristic_length();
        for vs in [1, 7, 16, 17, 240] {
            for chunk in &lv_mesh::ElementChunks::new(&mesh, vs) {
                let mut ws_full = ElementWorkspace::new(vs);
                ws_full.reset();
                {
                    let mut v = ws_full.views_mut();
                    phase1_gather_coords_slices(&mesh, chunk, &mut v);
                    phase2_gather_unknowns_slices(&mesh, &vel, &pre, chunk, &mut v);
                    phase3_jacobian_slices_at(Lanes::Baseline, &shape, &mut v);
                    phase4_gauss_values_slices_at(Lanes::Baseline, &shape, &mut v);
                    phase5_stabilization_slices_at(Lanes::Baseline, &config, h, &mut v);
                    phase6_convective_slices_at(Lanes::Baseline, &shape, &config, &mut v);
                }
                for lanes in widths_under_test() {
                    let mut ws = ElementWorkspace::new(vs);
                    ws.poison(-7.25);
                    ws.reset();
                    {
                        let mut v = ws.views_mut();
                        phase1_gather_coords_slices(&mesh, chunk, &mut v);
                        phase2_gather_unknowns_slices(&mesh, &vel, &pre, chunk, &mut v);
                        phase3_jacobian_slices_at(lanes, &shape, &mut v);
                        phase4_gauss_velocity_slices_at(lanes, &shape, &mut v);
                        phase5_stabilization_slices_at(lanes, &config, h, &mut v);
                        phase6_convective_matrix_oracle(&shape, &config, &mut v);
                    }
                    let (full, reduced) = (ws_full.views(), ws.views());
                    for (name, a, b) in [
                        ("gpvel", full.gpvel, reduced.gpvel),
                        ("gpadv", full.gpadv, reduced.gpadv),
                        ("tau", full.tau, reduced.tau),
                        ("elauu", full.elauu, reduced.elauu),
                    ] {
                        for (k, (x, y)) in a.iter().zip(b).enumerate() {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "{name}[{k}] of the reduced phases at {lanes} (vs={vs}): {y} vs {x}"
                            );
                        }
                    }
                    assert!(full.elauu.iter().any(|&x| x != 0.0));
                    assert!(reduced.gpgve.iter().all(|&x| x == -7.25), "gpgve written");
                    assert!(reduced.elrbu.iter().all(|&x| x == 0.0), "elrbu written");
                }
            }
        }
    }

    /// The meshes the reference-space kernels are compared on: 64 elements,
    /// jittered, uniform and with a scrambled node order.
    fn reference_meshes() -> Vec<(&'static str, Mesh)> {
        use lv_mesh::renumber::NodePermutation;
        let jittered =
            BoxMeshBuilder::new(4, 4, 4).lid_driven_cavity().with_jitter(0.13, 5).build();
        let scrambled =
            jittered.renumber_nodes(&NodePermutation::scrambled(jittered.num_nodes(), 0xC0FFEE));
        vec![
            ("jittered", jittered),
            ("box", BoxMeshBuilder::new(4, 4, 4).lid_driven_cavity().build()),
            ("scrambled", scrambled),
        ]
    }

    #[test]
    fn geometry_rows_are_the_inverse_phase_3_folds_into_gpcar() {
        // `gpvol` bit for bit phase 3's, and `J⁻¹` the very values its
        // back-substitution reads: redoing that sum from the table gives
        // `gpcar` to the bit.  One slot of every chunk is collapsed to a
        // point: counted like phase 3 counts it, stored as zeros.  Both
        // widths, a poisoned table.
        let shape = ShapeTable::new(ElementKind::Hex8, &GaussRule::hex_2x2x2());
        for (name, mesh) in &reference_meshes() {
            for vs in [1usize, 16, 17, 128] {
                for chunk in &lv_mesh::ElementChunks::new(mesh, vs) {
                    let collapsed = chunk.len / 2;
                    let mut ws = ElementWorkspace::new(vs);
                    let mut v = ws.views_mut();
                    phase1_gather_coords_slices(mesh, chunk, &mut v);
                    for idx in 0..PNODE * NDIME {
                        v.elcod[idx * vs + collapsed] = 0.25;
                    }
                    let singular = phase3_jacobian_slices_at(Lanes::Baseline, &shape, &mut v);
                    assert!(singular >= PGAUS);
                    for lanes in widths_under_test() {
                        let what = format!("{name}, VS {vs}, {lanes}");
                        let mut table = vec![f64::NAN; PGAUS * GEOMETRY_ROWS * vs];
                        let counted = phase3_geometry_slices_at(lanes, &shape, &v, &mut table);
                        assert_eq!(counted, singular, "{what}");
                        for igaus in 0..PGAUS {
                            let rows = &table[igaus * GEOMETRY_ROWS * vs..][..GEOMETRY_ROWS * vs];
                            for k in 0..vs {
                                let vol = rows[NDIME * NDIME * vs + k];
                                assert_eq!(vol.to_bits(), v.gpvol[igaus * vs + k].to_bits());
                                if k == collapsed {
                                    assert!((0..NDIME * NDIME).all(|e| rows[e * vs + k] == 0.0));
                                    continue;
                                }
                                for inode in 0..PNODE {
                                    for i in 0..NDIME {
                                        let mut car = 0.0;
                                        for (j, dj) in
                                            shape.derivatives(igaus).d[inode].iter().enumerate()
                                        {
                                            car += dj * rows[(j * NDIME + i) * vs + k];
                                        }
                                        let at = ((igaus * PNODE + inode) * NDIME + i) * vs + k;
                                        assert_eq!(car.to_bits(), v.gpcar[at].to_bits(), "{what}");
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn reference_space_phase6_matches_the_gpcar_oracle_entry_by_entry() {
        // The same integrals in another operation order (the velocity pulled
        // back through `J⁻¹` instead of the shape derivatives pushed forward,
        // the test-function weight formed once): every entry of every element
        // matrix within a few ε of the element's largest.  Measured worst
        // case over the meshes and vector sizes below: 2.4 ε.  The new
        // kernel runs from a poisoned workspace without phases 1 and 3, at
        // both widths (bitwise alike), padded last chunks included (VS 17:
        // 13 of 17 slots; VS 128: 64 of 128).
        const EPSILONS: f64 = 4.0;
        let shape = ShapeTable::new(ElementKind::Hex8, &GaussRule::hex_2x2x2());
        let config = KernelConfig::default();
        let mut worst = 0.0f64;
        for (name, mesh) in &reference_meshes() {
            let mut vel = VectorField::taylor_green(mesh);
            vel.apply_boundary_conditions(
                mesh,
                lv_mesh::Vec3::new(1.0, 0.0, 0.0),
                lv_mesh::Vec3::ZERO,
            );
            let pre = Field::from_fn(mesh, |p| p.x * p.y - 0.5 * p.z);
            let h = mesh.characteristic_length();
            for vs in [1usize, 16, 17, 128] {
                for chunk in &lv_mesh::ElementChunks::new(mesh, vs) {
                    let mut ws_o = ElementWorkspace::new(vs);
                    ws_o.reset();
                    let mut table = vec![f64::NAN; PGAUS * GEOMETRY_ROWS * vs];
                    {
                        let mut v = ws_o.views_mut();
                        phase1_gather_coords_slices(mesh, chunk, &mut v);
                        phase2_gather_unknowns_slices(mesh, &vel, &pre, chunk, &mut v);
                        phase3_geometry_slices_at(Lanes::Baseline, &shape, &v, &mut table);
                        phase3_jacobian_slices_at(Lanes::Baseline, &shape, &mut v);
                        phase4_gauss_velocity_slices_at(Lanes::Baseline, &shape, &mut v);
                        phase5_stabilization_slices_at(Lanes::Baseline, &config, h, &mut v);
                        phase6_convective_matrix_oracle(&shape, &config, &mut v);
                    }
                    let oracle = ws_o.views().elauu;
                    assert!(oracle.iter().any(|&x| x != 0.0));
                    let mut at_baseline: Vec<u64> = Vec::new();
                    for lanes in widths_under_test() {
                        let what = format!("{name}, VS {vs}, {lanes}");
                        let mut ws = ElementWorkspace::new(vs);
                        ws.poison(-7.25);
                        ws.reset();
                        {
                            let mut v = ws.views_mut();
                            phase1_element_ids_slices(chunk, &mut v);
                            phase2_gather_unknowns_slices(mesh, &vel, &pre, chunk, &mut v);
                            phase4_gauss_velocity_slices_at(lanes, &shape, &mut v);
                            phase5_stabilization_slices_at(lanes, &config, h, &mut v);
                            phase6_reference_convective_slices_at(
                                lanes, &shape, &config, &table, &mut v,
                            );
                        }
                        let views = ws.views();
                        assert_eq!(views.element_ids, ws_o.views().element_ids, "{what}");
                        assert!(views.gpcar.iter().all(|&x| x == -7.25), "{what}: gpcar read");
                        assert!(views.elrbu.iter().all(|&x| x == 0.0), "{what}: elrbu written");
                        let elauu = views.elauu;
                        for k in 0..vs {
                            let entries = (0..PNODE * PNODE).map(|e| e * vs + k);
                            let largest =
                                entries.clone().fold(0.0f64, |m, at| m.max(oracle[at].abs()));
                            for at in entries {
                                let off = (elauu[at] - oracle[at]).abs() / (f64::EPSILON * largest);
                                assert!(off <= EPSILONS, "{what}: entry {at} off by {off} eps");
                                worst = worst.max(off);
                            }
                        }
                        let bits: Vec<u64> = elauu.iter().map(|x| x.to_bits()).collect();
                        if at_baseline.is_empty() {
                            at_baseline = bits;
                        } else {
                            assert!(bits == at_baseline, "{what}: the clone moved a bit");
                        }
                    }
                }
            }
        }
        println!("reference-space phase 6: worst entry {worst:.2} eps of its element's largest");
        assert!(worst > 0.0, "another operation order, not the same bits");
    }

    #[test]
    fn convective_sweep_model_counts_fewer_flops_than_the_full_sweep() {
        // 8·8·6 + 8·16 + 8 × (18 + 40 + 1 + 24 + 128) + 64.
        assert_eq!(convective_flops_per_element(), 384 + 128 + 1688 + 64);
        assert!((convective_flops_per_element() as f64) < flops_per_element(true));
        // The unknowns, two reads of the connectivity, the geometry rows,
        // the slot map, the block in and out.
        assert_eq!(convective_bytes_per_element(), 256 + 64 + 640 + 256 + 1024);
    }

    #[test]
    fn flops_per_element_is_a_few_thousand() {
        let f = flops_per_element(true);
        assert!(f > 3000.0 && f < 30_000.0, "flops/element = {f}");
        assert!(flops_per_element(false) < f);
    }
}
