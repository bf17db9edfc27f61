//! No bit moves with the lanes: end-to-end goldens under the
//! run-time-selected wide kernel clones (`lv_runtime::lanes`).
//!
//! The constants below are FNV-1a hashes of the velocity and pressure bits
//! after four `Stepper` steps.  They were **last re-recorded when the
//! step's convection became a lattice gather**: on an unjittered generator
//! box the element matrices read `J⁻¹` and `gpvol` from the one reference
//! element instead of each element's own coordinates (a move by coordinate
//! rounding), phases 4–6 run as one strip-mined kernel that sums each entry
//! over the integration points in registers, and each row of the momentum
//! matrix is summed from `ν·K` and its elements' entries in lattice order
//! instead of scattered into in colour order.  Measured against the old
//! trajectory after the four steps (12³ cavity / 48 × 12 × 12 channel):
//! velocity within 7.8e-16 / 1.2e-15 of `‖u‖∞`, pressure within 6.5e-14 /
//! 8.7e-16 of `‖p‖∞`; kinetic energy equal at every step of the cavity and
//! off by 0, 1, 1 and 0 ulps at the channel's steps 1–4; every step's
//! momentum and Poisson iteration count unchanged (cavity 10, 28, 28, 27 and
//! 21 per step; channel 16, 53, 62, 63 and 18, 18, 17, 16).  The recording
//! was taken twice, with every multiversioned kernel forced to its baseline
//! body and at the lanes this suite's hosts select (AVX2), each on 1 and 2
//! threads in the debug and in the release profile: all eight runs of a
//! scenario hashed alike.  (Earlier values, newest first:
//! `0x8972_0f47_5398_2456` and `0x2228_e6fd_a055_a689` after `K`, the
//! consistent mass `M` and the lumped mass moved to class stencils of one
//! reference element;
//! `0xa629_212e_5e98_2db6` and `0xd454_1745_4eb4_5a1b` after the weak
//! gradient and divergence `C` moved to class stencils;
//! `0xc367_9388_c17e_825d` and
//! `0xafcb_1bd9_0f6b_3da7` after the stiffness `K` moved into the
//! operators' one mesh-order element loop, a change of its summation
//! order; `0x5e66_bdc0_deba_af27` and `0x726c_09e8_d593_f060` after the
//! reference-space convection on chunks of consecutive elements;
//! `0xb98d_ca94_130d_4f42` and `0x14c8_df07_ac40_e329` after the resident
//! viscous and mass blocks; `0xebfd_6957_c7cf_2244` and
//! `0x835d_802a_a3f8_e189` with the `f32` V-cycle, before the first clone
//! existed.)
//!
//! The goldens held, unedited, when the pressure hierarchy took the exact
//! trilinear transfers and its Galerkin products moved onto the lattice.
//! The coarse `f64` operators of these boxes moved, per level, by up to
//! 4.5 and 7.3 `ε` of the row's largest entry (cavity) and 18.0 and 25.3
//! `ε` (channel); the cycle's `f32` levels moved only in the quadrature
//! noise below `ε_f32` of the row.  No bit of the four steps moved — state
//! error 0, every step's momentum and Poisson iteration count as above —
//! at baseline and at AVX2 lanes, on 1 and 2 threads, in the debug and in
//! the release profile.
//!
//! Every golden was recorded with both solves at a 1e-10 relative
//! residual, the stepper's default until the defaults moved to 1e-6; the
//! runs here keep 1e-10 explicitly, so a change of the default tolerance
//! moves no golden.
//!
//! A clone differs from its baseline body only in how many independent
//! lanes one instruction carries, so the hashes must hold on every host
//! this suite ever runs on — AVX2 selected or not — and on every thread
//! count.  They may only ever change together with a deliberate change of
//! the discretisation or of a solver's operation order, never with a
//! code-generation change.

use alya_longvec::prelude::*;
use lv_runtime::Lanes;

/// The stepper's defaults with both solves at the 1e-10 relative residual
/// the goldens were recorded at.
fn recorded_config() -> StepperConfig {
    let mut config = StepperConfig::default();
    for options in [&mut config.momentum_options, &mut config.poisson_options] {
        options.tolerance = 1e-10;
    }
    config
}

/// Byte-wise FNV-1a over the state's `f64` bit patterns (little-endian).
fn state_hash(stepper: &Stepper) -> u64 {
    let state = stepper.state();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for value in state.velocity.as_slice().iter().chain(state.pressure.as_slice()) {
        for byte in value.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn four_steps_hash_to_the_goldens_recorded_before_the_clones() {
    // The 12³ cavity and the 48 × 12 × 12 channel: layers of 144 and 576
    // elements in chunks of 128, the last one of each layer padded.
    let goldens = [
        (ScenarioKind::LidDrivenCavity, 0xcb84_72ea_ac76_7eb3u64),
        (ScenarioKind::Channel, 0xd316_6600_3592_96bfu64),
    ];
    let lanes = Lanes::selected();
    println!("lanes selected by this test run: {}", lanes.describe());
    for (kind, golden) in goldens {
        for threads in [1usize, 2] {
            let team = Team::new(threads);
            let mut stepper = Stepper::new(Scenario::new(kind, 12), recorded_config());
            stepper.run_on(&team, 4).expect("the run must converge");
            let hash = state_hash(&stepper);
            assert_eq!(
                hash,
                golden,
                "{} at resolution 12 on {threads} thread(s) under {lanes} lanes hashes to \
                 {hash:#018x}",
                kind.name()
            );
        }
    }
}
