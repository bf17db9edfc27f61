//! # lv-sim
//!
//! A cycle-approximate **long-vector architecture simulator**, standing in for
//! the hardware platforms of the paper:
//!
//! * the EPI **RISC-V VEC** prototype (Avispado scalar core + Vitruvius VPU,
//!   RVV 0.7.1, 16-kbit registers = 256 double-precision elements, 8 FPU
//!   lanes, ≈32-cycle FMA at VL = 256, the "multiple of 40" FSM sweet spot);
//! * the **NEC SX-Aurora** VE20B vector engine (256-element registers, 32
//!   parallel FPU pipes, 8-cycle FMA);
//! * **MareNostrum 4** (Intel Xeon Platinum 8160, AVX-512, 8-element
//!   vectors, 2 FMA ports).
//!
//! The paper measures everything through hardware counters and through the
//! Vehave vector-instruction emulator; this crate provides the equivalent
//! observables:
//!
//! * [`platform`] — the per-machine timing/capacity parameters (Table 2);
//! * [`isa`] — the instruction hierarchy of Figure 1 (scalar / vector /
//!   vector-configuration; arithmetic / memory / control-lane);
//! * [`memory`] — a set-associative L1/L2 data-cache model producing the
//!   `mL1`/`mL2` counters used in Section 5;
//! * [`counters`] — per-phase hardware counters (`ct`, `cv`, `it`, `iv`,
//!   per-type instruction counts, VL accumulation, cache misses);
//! * [`engine`] — the [`Machine`]: issues instructions,
//!   charges cycles according to the platform model, maintains the counters
//!   and optionally traces every vector instruction;
//! * [`trace`] — the Vehave-style tracer and its Paraver-like CSV export.
//!
//! ## The hot path
//!
//! A sweep issues hundreds of millions of instructions, so one simulated
//! instruction costs what it must and nothing else: an [`Instruction`] is a
//! `Copy` value that owns nothing (an indexed access borrows its lane
//! indices), the per-phase counters are a fixed array behind
//! [`HwCounters::phase_mut`], the cache walk looks up one line per line
//! touched, and nothing on the path allocates.  One rule keeps every counter
//! bit-for-bit reproducible while the host code changes: **a floating-point
//! counter receives the same addends in the same order** — which is why
//! [`Machine::issue_repeated`] adds a cost `n` times instead of adding
//! `cost * n` once.  The `oracle` test module keeps the previous
//! implementation and checks the two against each other on seeded streams.
//!
//! The model is *not* a micro-architectural RTL simulator: it is the smallest
//! timing model that reproduces the behaviours the paper's evaluation relies
//! on (vector CPI growth with VL, startup overhead that punishes short
//! vectors, bandwidth-limited unit-stride accesses, per-element gather/scatter
//! costs, cache-miss sensitivity of the non-vectorized phases, and the
//! 240-beats-256 FSM effect).

#![warn(missing_docs)]

pub mod counters;
pub mod engine;
pub mod isa;
pub mod memory;
#[cfg(test)]
mod oracle;
pub mod platform;
pub mod trace;

pub use counters::{HwCounters, PhaseCounters, PhaseId};
pub use engine::{Machine, MachineConfig};
pub use isa::{Instruction, InstructionClass, MemAccess, MemPattern, VectorOp};
pub use memory::{CacheConfig, CacheLevel, CacheSim, MemoryModel};
pub use platform::{Platform, PlatformKind};
pub use trace::{TraceEvent, Tracer};
