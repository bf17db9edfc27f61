//! No bit moves with the lanes: end-to-end goldens under the
//! run-time-selected wide kernel clones (`lv_runtime::lanes`).
//!
//! The constants below are FNV-1a hashes of the velocity and pressure bits
//! after four `Stepper` steps.  They were **re-recorded once, by PR 21**, a
//! deliberate change of a step's operation order: the momentum system is
//! no longer integrated element by element in full (the viscous and mass
//! blocks are held from set-up, the sweep adds the convection alone and the
//! right-hand side is a row product of the finished matrix) — the same
//! integrals in another summation order, so the last bits of a trajectory
//! moved, as they did with PR 17's `f32` V-cycle.  The recording was taken
//! twice, with every multiversioned kernel forced to its baseline body and
//! at the lanes this suite's hosts select (AVX2), each on 1 and 2 threads
//! in the debug and in the release profile: all eight runs of a scenario
//! hashed alike.  (The values before this PR, recorded at PR 17 before the
//! first clone existed, were `0xebfd_6957_c7cf_2244` and
//! `0x835d_802a_a3f8_e189`.)
//!
//! A clone differs from its baseline body only in how many independent
//! lanes one instruction carries, so the hashes must hold on every host
//! this suite ever runs on — AVX2 selected or not — and on every thread
//! count.  They may only ever change together with a deliberate change of
//! the discretisation or of a solver's operation order, never with a
//! code-generation change.

use alya_longvec::prelude::*;
use lv_runtime::Lanes;

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
    // The 12³ cavity and the 48 × 12 × 12 channel: 14 and 54 chunks of 128,
    // the last one padded in both.
    let goldens = [
        (ScenarioKind::LidDrivenCavity, 0xb98d_ca94_130d_4f42u64),
        (ScenarioKind::Channel, 0x14c8_df07_ac40_e329u64),
    ];
    let lanes = Lanes::selected();
    println!("lanes selected by this test run: {}", lanes.describe());
    for (kind, golden) in goldens {
        for threads in [1usize, 2] {
            let team = Team::new(threads);
            let mut stepper = Stepper::new(Scenario::new(kind, 12), StepperConfig::default());
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
