//! Deterministic fault injection for the recovery layer.
//!
//! A [`FaultPlan`] is a seeded, step-indexed list of faults the
//! [`Stepper`](crate::Stepper) that holds it consults at well-defined
//! points of each step: force a solver breakdown, poison a right-hand side
//! with NaN, or — in [`Stepper::checkpoint_on`](crate::Stepper::checkpoint_on)
//! — corrupt the checkpoint that was just written.  A run holds one plan
//! for every kind; a supervisor that rebuilds the stepper carries its plan
//! ([`Stepper::fault_plan`](crate::Stepper::fault_plan)) into the next one,
//! so a spent fault stays spent.  Every fault fires **at most once** —
//! the retry that follows must see a healthy system, exactly like a
//! transient hardware or convergence glitch — and every random-looking
//! choice (which RHS entry to poison, which checkpoint byte to flip) is a
//! pure function of `(seed, step)`, so an injected failure reproduces
//! bitwise across thread counts and across reruns with the same seed.
//!
//! CLI syntax (`simulate --inject <spec>`): a comma-separated list of
//! `kind@step` entries plus an optional `seed=N`, e.g.
//!
//! ```text
//! --inject momentum-breakdown@3,poison-rhs@5,ckpt-flip@6,seed=42
//! ```
//!
//! Kinds: `momentum-breakdown`, `poisson-breakdown`, `mg-breakdown`,
//! `poison-rhs`, `ckpt-flip`, `ckpt-truncate`, `stall`, `panic`.
//!
//! The last two exercise the *supervision* layer (`lv-server`) rather than
//! the in-step recovery: `stall@k` busy-waits for [`STALL_MILLIS`] at the
//! start of step `k` (bounded, so an unsupervised run still finishes — but
//! long enough for a per-step watchdog to blow its deadline), and `panic@k`
//! panics at the start of step `k` (contained by the server's
//! `catch_unwind`; aborts a bare `simulate` run, by design).  Neither
//! mutates the state, so trajectories are invariant to their firing.

use std::io;
use std::path::Path;

/// What a planned fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The momentum (predictor) solve reports an injected breakdown.
    MomentumBreakdown,
    /// The pressure-Poisson solve reports an injected breakdown (after the
    /// CG fallback, i.e. the whole step fails and the Δt retry engages).
    PoissonBreakdown,
    /// Only the MG-preconditioned attempt breaks down: the plain-CG
    /// fallback chain absorbs it without failing the step.
    MultigridBreakdown,
    /// One momentum RHS entry is overwritten with NaN before the solve (the
    /// entry index is derived from the seed), exercising the non-finite
    /// entry guards.
    PoisonRhs,
    /// One byte of the checkpoint written at this step is bit-flipped
    /// (applied by [`FaultPlan::corrupt_checkpoint`] after the save, which
    /// [`Stepper::checkpoint_on`](crate::Stepper::checkpoint_on) calls).
    CheckpointFlip,
    /// The checkpoint written at this step is truncated to half its length.
    CheckpointTruncate,
    /// The step busy-waits for [`STALL_MILLIS`] before doing any work — a
    /// deterministic stand-in for a hung rank.  The wait is bounded, so an
    /// unsupervised run still finishes; a supervisor's per-step watchdog
    /// sees the deadline blow and kills the slice.
    Stall,
    /// The step panics before doing any work, exercising the
    /// panic-containment path (`Team`'s panic-safe join plus the server's
    /// `catch_unwind` around a slice).  Aborts a bare `simulate` run.
    Panic,
}

/// How long a [`FaultKind::Stall`] busy-waits, in milliseconds.  Long
/// enough that any reasonable per-step watchdog deadline fits under it,
/// short enough that unsupervised runs and tests stay fast.
pub const STALL_MILLIS: u64 = 400;

/// The bounded busy-wait behind [`FaultKind::Stall`].  Spins (never
/// sleeps), like a rank stuck in a convergence loop would.
pub fn busy_stall() {
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(STALL_MILLIS);
    while std::time::Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

impl FaultKind {
    /// Stable CLI name of the fault kind.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::MomentumBreakdown => "momentum-breakdown",
            FaultKind::PoissonBreakdown => "poisson-breakdown",
            FaultKind::MultigridBreakdown => "mg-breakdown",
            FaultKind::PoisonRhs => "poison-rhs",
            FaultKind::CheckpointFlip => "ckpt-flip",
            FaultKind::CheckpointTruncate => "ckpt-truncate",
            FaultKind::Stall => "stall",
            FaultKind::Panic => "panic",
        }
    }

    /// Parses a CLI name (the inverse of [`name`](Self::name)).
    pub fn from_name(name: &str) -> Option<FaultKind> {
        match name {
            "momentum-breakdown" => Some(FaultKind::MomentumBreakdown),
            "poisson-breakdown" => Some(FaultKind::PoissonBreakdown),
            "mg-breakdown" => Some(FaultKind::MultigridBreakdown),
            "poison-rhs" => Some(FaultKind::PoisonRhs),
            "ckpt-flip" => Some(FaultKind::CheckpointFlip),
            "ckpt-truncate" => Some(FaultKind::CheckpointTruncate),
            "stall" => Some(FaultKind::Stall),
            "panic" => Some(FaultKind::Panic),
            _ => None,
        }
    }

    /// Whether this fault targets a checkpoint file rather than a solver.
    pub fn is_checkpoint_fault(&self) -> bool {
        matches!(self, FaultKind::CheckpointFlip | FaultKind::CheckpointTruncate)
    }
}

/// One scheduled fault: fires the first time its step comes around, then
/// stays spent so the retry succeeds.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PlannedFault {
    kind: FaultKind,
    step: u64,
    fired: bool,
}

/// A seeded, step-indexed fault schedule (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<PlannedFault>,
}

/// splitmix64 — the tiny deterministic mixer behind every "random" choice a
/// fault makes.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, faults: Vec::new() }
    }

    /// Builder: schedule `kind` for the step whose 1-based index is `step`
    /// (the step a [`crate::StepReport::step`] would report).
    pub fn with_fault(mut self, kind: FaultKind, step: u64) -> Self {
        self.faults.push(PlannedFault { kind, step, fired: false });
        self
    }

    /// The seed the deterministic choices derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether any faults are scheduled at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Scheduled faults that have not fired yet.
    pub fn pending(&self) -> usize {
        self.faults.iter().filter(|f| !f.fired).count()
    }

    /// Fires the first pending `kind` fault scheduled for `step`, if any.
    /// Returns `true` exactly once per scheduled entry.
    pub fn fire(&mut self, kind: FaultKind, step: u64) -> bool {
        for fault in &mut self.faults {
            if !fault.fired && fault.kind == kind && fault.step == step {
                fault.fired = true;
                return true;
            }
        }
        false
    }

    /// Fires the first pending checkpoint-targeting fault scheduled for
    /// `step` ([`FaultKind::CheckpointFlip`] / [`FaultKind::CheckpointTruncate`]).
    pub fn fire_checkpoint(&mut self, step: u64) -> Option<FaultKind> {
        for fault in &mut self.faults {
            if !fault.fired && fault.step == step && fault.kind.is_checkpoint_fault() {
                fault.fired = true;
                return Some(fault.kind);
            }
        }
        None
    }

    /// Applies the pending checkpoint fault of `step`, if any, to the
    /// checkpoint just written at `path`: [`FaultKind::CheckpointFlip`]
    /// flips bit 0 of the byte at [`index(step, 1, len)`](Self::index),
    /// [`FaultKind::CheckpointTruncate`] cuts the file to half its length.
    /// Returns what it did, for the caller to report with its own prefix
    /// (`None`: no checkpoint fault was due).
    ///
    /// # Errors
    /// Reading or rewriting the file failed (the fault is spent anyway).
    pub fn corrupt_checkpoint(&mut self, step: u64, path: &Path) -> io::Result<Option<String>> {
        let Some(kind) = self.fire_checkpoint(step) else { return Ok(None) };
        let mut bytes = std::fs::read(path)?;
        let done = if kind == FaultKind::CheckpointFlip {
            let at = self.index(step, 1, bytes.len());
            bytes[at] ^= 0x01;
            format!("flipped bit 0 of byte {at} in {}", path.display())
        } else {
            bytes.truncate(bytes.len() / 2);
            format!("truncated {} to {} bytes", path.display(), bytes.len())
        };
        std::fs::write(path, bytes)?;
        Ok(Some(done))
    }

    /// A deterministic index in `[0, len)` derived from `(seed, step, salt)`
    /// — used to pick the poisoned RHS entry or the corrupted checkpoint
    /// byte.  Pure function of its arguments: identical across thread
    /// counts and reruns.
    pub fn index(&self, step: u64, salt: u64, len: usize) -> usize {
        assert!(len > 0, "cannot pick an index in an empty range");
        let mixed = splitmix64(self.seed ^ splitmix64(step) ^ splitmix64(salt.wrapping_add(1)));
        (mixed % len as u64) as usize
    }

    /// Parses the CLI `--inject` spec (see the module docs for the syntax).
    ///
    /// # Errors
    /// Returns a human-readable description of the first malformed entry.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(0);
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            if let Some(seed) = entry.strip_prefix("seed=") {
                plan.seed = seed
                    .parse()
                    .map_err(|_| format!("bad seed '{seed}' (expected an unsigned integer)"))?;
                continue;
            }
            let (name, step) = entry
                .split_once('@')
                .ok_or_else(|| format!("bad fault '{entry}' (expected kind@step)"))?;
            let kind = FaultKind::from_name(name).ok_or_else(|| {
                format!(
                    "unknown fault kind '{name}' (expected one of momentum-breakdown, \
                     poisson-breakdown, mg-breakdown, poison-rhs, ckpt-flip, ckpt-truncate, \
                     stall, panic)"
                )
            })?;
            let step = step
                .parse()
                .map_err(|_| format!("bad step '{step}' in '{entry}' (expected an integer)"))?;
            plan = plan.with_fault(kind, step);
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_exactly_once_per_entry() {
        let mut plan = FaultPlan::new(7)
            .with_fault(FaultKind::MomentumBreakdown, 3)
            .with_fault(FaultKind::MomentumBreakdown, 3);
        assert_eq!(plan.pending(), 2);
        assert!(!plan.fire(FaultKind::MomentumBreakdown, 2), "wrong step must not fire");
        assert!(!plan.fire(FaultKind::PoissonBreakdown, 3), "wrong kind must not fire");
        assert!(plan.fire(FaultKind::MomentumBreakdown, 3));
        assert!(plan.fire(FaultKind::MomentumBreakdown, 3), "second scheduled entry");
        assert!(!plan.fire(FaultKind::MomentumBreakdown, 3), "both entries spent");
        assert_eq!(plan.pending(), 0);
    }

    #[test]
    fn checkpoint_faults_are_queried_separately() {
        let mut plan = FaultPlan::new(1)
            .with_fault(FaultKind::PoisonRhs, 4)
            .with_fault(FaultKind::CheckpointFlip, 4)
            .with_fault(FaultKind::CheckpointTruncate, 6);
        assert_eq!(plan.fire_checkpoint(4), Some(FaultKind::CheckpointFlip));
        assert_eq!(plan.fire_checkpoint(4), None, "flip spent, truncate is for step 6");
        assert_eq!(plan.fire_checkpoint(6), Some(FaultKind::CheckpointTruncate));
        assert!(plan.fire(FaultKind::PoisonRhs, 4), "solver fault untouched");
    }

    #[test]
    fn derived_indices_are_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::new(42);
        let a = plan.index(5, 0, 1000);
        assert_eq!(a, plan.index(5, 0, 1000), "pure function of (seed, step, salt)");
        assert!(a < 1000);
        let other_salt = plan.index(5, 1, 1000);
        let other_seed = FaultPlan::new(43).index(5, 0, 1000);
        // Not a hard guarantee for every pair, but these specific mixes
        // differ — and must keep differing, deterministically.
        assert_ne!(a, other_salt);
        assert_ne!(a, other_seed);
    }

    #[test]
    fn cli_spec_round_trips() {
        let plan =
            FaultPlan::parse("momentum-breakdown@3, poison-rhs@5,ckpt-flip@6,seed=42").unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.pending(), 3);
        let mut plan = plan;
        assert!(plan.fire(FaultKind::MomentumBreakdown, 3));
        assert!(plan.fire(FaultKind::PoisonRhs, 5));
        assert_eq!(plan.fire_checkpoint(6), Some(FaultKind::CheckpointFlip));

        assert!(FaultPlan::parse("bogus@3").is_err());
        assert!(FaultPlan::parse("poison-rhs@x").is_err());
        assert!(FaultPlan::parse("poison-rhs").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
        for kind in [
            FaultKind::MomentumBreakdown,
            FaultKind::PoissonBreakdown,
            FaultKind::MultigridBreakdown,
            FaultKind::PoisonRhs,
            FaultKind::CheckpointFlip,
            FaultKind::CheckpointTruncate,
            FaultKind::Stall,
            FaultKind::Panic,
        ] {
            assert_eq!(FaultKind::from_name(kind.name()), Some(kind));
        }
    }

    #[test]
    fn checkpoint_corruption_flips_the_indexed_bit_or_halves_the_file_once() {
        let path = std::env::temp_dir().join(format!("lv_fault_ckpt_{}.bin", std::process::id()));
        let original: Vec<u8> = (0..=255u8).cycle().take(1001).collect();
        std::fs::write(&path, &original).unwrap();
        let mut plan = FaultPlan::new(5)
            .with_fault(FaultKind::CheckpointFlip, 2)
            .with_fault(FaultKind::CheckpointTruncate, 3)
            .with_fault(FaultKind::PoisonRhs, 4);

        // Nothing scheduled: the file is untouched.
        for step in [1, 4] {
            assert_eq!(plan.corrupt_checkpoint(step, &path).unwrap(), None);
            assert_eq!(std::fs::read(&path).unwrap(), original);
        }

        let done = plan.corrupt_checkpoint(2, &path).unwrap().expect("the flip is due");
        let at = plan.index(2, 1, original.len());
        assert!(done.starts_with(&format!("flipped bit 0 of byte {at} in")), "{done}");
        let mut flipped = original.clone();
        flipped[at] ^= 0x01;
        assert_eq!(std::fs::read(&path).unwrap(), flipped);
        assert_eq!(plan.corrupt_checkpoint(2, &path).unwrap(), None, "the flip fires once");
        assert_eq!(std::fs::read(&path).unwrap(), flipped);

        let done = plan.corrupt_checkpoint(3, &path).unwrap().expect("the truncation is due");
        assert!(done.ends_with("to 500 bytes"), "{done}");
        assert_eq!(std::fs::read(&path).unwrap(), flipped[..500]);
        assert_eq!(plan.corrupt_checkpoint(3, &path).unwrap(), None, "the cut fires once");
        assert_eq!(std::fs::read(&path).unwrap().len(), 500);

        assert!(plan.fire(FaultKind::PoisonRhs, 4), "a solver fault is left alone");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn supervision_kinds_parse_and_are_not_checkpoint_faults() {
        let mut plan = FaultPlan::parse("stall@2,panic@4,seed=9").unwrap();
        assert_eq!(plan.seed(), 9);
        assert!(!FaultKind::Stall.is_checkpoint_fault());
        assert!(!FaultKind::Panic.is_checkpoint_fault());
        assert_eq!(plan.fire_checkpoint(2), None, "stall is a step fault, not a ckpt fault");
        assert!(plan.fire(FaultKind::Stall, 2));
        assert!(plan.fire(FaultKind::Panic, 4));
        assert_eq!(plan.pending(), 0);
    }
}
