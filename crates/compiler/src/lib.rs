//! # lv-compiler
//!
//! A model of the **LLVM-based EPI auto-vectorizer** used by the paper.
//!
//! The paper's co-design loop is driven by *compiler behaviour*: which loop
//! nests the auto-vectorizer turns into long-vector instructions, which ones
//! it leaves scalar, and why.  Three failure modes are documented:
//!
//! 1. a loop whose trip count is a dummy argument re-loaded from memory every
//!    iteration is not vectorized at all (the original phase 2 — fixed by the
//!    **VEC2** refactor that makes `VECTOR_DIM` a compile-time constant);
//! 2. a vectorized innermost loop whose enclosing loop also contains
//!    non-vectorizable work is executed scalar at run time (the original
//!    phase 1 — fixed by the **VEC1** loop-distribution refactor);
//! 3. a short innermost loop vectorizes with a tiny average vector length
//!    (AVL ≈ 4), which is slower than scalar code on a long-vector machine
//!    (the VEC2 intermediate state — fixed by the **IVEC2** loop interchange
//!    that moves the `VECTOR_SIZE` dimension innermost).
//!
//! This crate reproduces those behaviours over a small loop-nest IR:
//!
//! * [`ir`] — loops, trip counts, statements, affine/indirect memory
//!   references;
//! * [`legality`] — the vectorization-legality analysis implementing the
//!   three rules above;
//! * [`vectorizer`] — the planner: picks the innermost loop, computes the
//!   vector-length chunking (VLA semantics: `vl = min(remaining, vlmax)`) and
//!   produces human-readable remarks equivalent to `-Rpass=loop-vectorize`;
//! * [`transforms`] — the source refactors of Section 4 (constant trip
//!   count, loop interchange, loop distribution) expressed as IR-to-IR
//!   transformations;
//! * [`codegen`] — walks a planned loop nest and emits the scalar/vector
//!   instruction stream into an [`lv_sim::Machine`](lv_sim::engine::Machine).
//!   Each loop lowers the memory references of its statements once per
//!   entry to `element₀ + iteration · stride` (through one table read for a
//!   gather), so an iteration computes an address with a multiply-add
//!   rather than by re-evaluating affine forms, and the walk allocates
//!   nothing per instruction.

#![warn(missing_docs)]

pub mod codegen;
pub mod ir;
pub mod legality;
pub mod transforms;
pub mod vectorizer;

pub use codegen::{emit_loop_nest, CodegenStats};
pub use ir::{AffineExpr, IndexExpr, Loop, LoopItem, LoopNest, MemRef, Statement, TripCount};
pub use legality::{Blocker, LegalityReport};
pub use transforms::{distribute, interchange, make_trip_compile_time};
pub use vectorizer::{LoopDecision, Remark, VectorizationPlan, Vectorizer};
