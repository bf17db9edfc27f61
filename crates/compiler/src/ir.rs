//! The loop-nest intermediate representation the auto-vectorizer model
//! operates on.
//!
//! A [`LoopNest`] is a tree of [`Loop`]s and [`Statement`]s.  Statements
//! carry operation counts (floating-point and integer work per iteration)
//! and [`MemRef`]s whose addresses are affine expressions of the loop
//! variables, optionally with one level of indirection through an index
//! table — enough to express every loop of the Nastin assembly, including
//! the `lnods`-indexed gathers of phases 1–2 and the scatter of phase 8.

use lv_sim::isa::VectorOp;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Trip count of a loop, as seen by the compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TripCount {
    /// The trip count is a compile-time constant.
    Const(usize),
    /// The trip count is only known at run time; the generated scalar code
    /// re-loads it from memory on every iteration of the enclosing loop
    /// (the behaviour observed for the `VECTOR_DIM` dummy argument).
    Runtime(usize),
}

impl TripCount {
    /// The actual number of iterations executed.
    #[inline]
    pub fn value(self) -> usize {
        match self {
            TripCount::Const(n) | TripCount::Runtime(n) => n,
        }
    }

    /// Whether the compiler knows the trip count.
    #[inline]
    pub fn is_compile_time(self) -> bool {
        matches!(self, TripCount::Const(_))
    }
}

/// An affine expression of the loop variables:
/// `constant + Σ coeff_i · loop_var(level_i)` (in *elements*, not bytes).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AffineExpr {
    /// `(loop level, coefficient)` pairs.
    pub terms: Vec<(usize, i64)>,
    /// Constant offset.
    pub constant: i64,
}

impl AffineExpr {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> Self {
        AffineExpr { terms: Vec::new(), constant: c }
    }

    /// The expression `coeff * loop_var(level)`.
    pub fn term(level: usize, coeff: i64) -> Self {
        AffineExpr { terms: vec![(level, coeff)], constant: 0 }
    }

    /// Builder: adds a `coeff * loop_var(level)` term.
    pub fn plus_term(mut self, level: usize, coeff: i64) -> Self {
        self.terms.push((level, coeff));
        self
    }

    /// Builder: adds a constant.
    pub fn plus_const(mut self, c: i64) -> Self {
        self.constant += c;
        self
    }

    /// Evaluates the expression for concrete loop indices (`indices[level]`).
    #[inline]
    pub fn eval(&self, indices: &[usize]) -> i64 {
        let mut v = self.constant;
        for &(level, coeff) in &self.terms {
            v += coeff * indices[level] as i64;
        }
        v
    }

    /// Splits the expression at the loop `level` in one pass: its value with
    /// that loop variable at 0 (the other variables taken from `indices`)
    /// and the variable's coefficient, so that
    /// `eval == at_zero + coefficient * indices[level]`.  With `level ==
    /// None` this is `(eval(indices), 0)`.
    #[inline]
    pub fn split_at(&self, level: Option<usize>, indices: &[usize]) -> (i64, i64) {
        let (mut at_zero, mut coef) = (self.constant, 0);
        for &(l, c) in &self.terms {
            if Some(l) == level {
                coef += c;
            } else {
                at_zero += c * indices[l] as i64;
            }
        }
        (at_zero, coef)
    }

    /// Coefficient of the loop variable at `level` (0 if absent).
    pub fn coefficient(&self, level: usize) -> i64 {
        self.terms.iter().filter(|(l, _)| *l == level).map(|(_, c)| *c).sum()
    }

    /// Whether the expression depends on the loop variable at `level`.
    pub fn depends_on(&self, level: usize) -> bool {
        self.coefficient(level) != 0
    }
}

/// How a memory reference computes the element index it touches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IndexExpr {
    /// `element = affine(loop vars)` — a direct (unit-stride / strided /
    /// invariant) access.
    Affine(AffineExpr),
    /// `element = table[table_index(loop vars)] * scale + offset(loop vars)`
    /// — one level of indirection, e.g. a gather through the `lnods`
    /// connectivity: `coords[ lnods[ivect*pnode + inode] * ndime + idime ]`.
    Indirect {
        /// The index table (shared, typically the mesh connectivity).
        #[serde(skip, default = "empty_table")]
        table: Arc<Vec<u32>>,
        /// Affine index into the table.
        table_index: AffineExpr,
        /// Multiplier applied to the table entry.
        scale: i64,
        /// Affine offset added after scaling.
        offset: AffineExpr,
    },
}

// Only referenced by the `#[serde(default)]` attribute above, which the
// offline no-op serde shim does not expand into code (see shims/README.md).
#[allow(dead_code)]
fn empty_table() -> Arc<Vec<u32>> {
    Arc::new(Vec::new())
}

impl IndexExpr {
    /// Evaluates the element index for concrete loop indices.
    #[inline]
    pub fn eval(&self, indices: &[usize]) -> i64 {
        match self {
            IndexExpr::Affine(a) => a.eval(indices),
            IndexExpr::Indirect { table, table_index, scale, offset } => {
                let ti = table_index.eval(indices);
                debug_assert!(ti >= 0, "negative table index");
                let entry = table[ti as usize] as i64;
                entry * scale + offset.eval(indices)
            }
        }
    }

    /// Whether the index depends on the loop variable at `level`.
    pub fn depends_on(&self, level: usize) -> bool {
        match self {
            IndexExpr::Affine(a) => a.depends_on(level),
            IndexExpr::Indirect { table_index, offset, .. } => {
                table_index.depends_on(level) || offset.depends_on(level)
            }
        }
    }

    /// Whether vectorizing the loop at `level` turns this reference into a
    /// gather/scatter (indexed access).
    pub fn is_indexed_in(&self, level: usize) -> bool {
        match self {
            IndexExpr::Affine(_) => false,
            IndexExpr::Indirect { table_index, .. } => table_index.depends_on(level),
        }
    }
}

/// A memory reference of a statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemRef {
    /// Array name, used only for remarks and traces.
    pub array: String,
    /// Base byte address of the array in the simulated address space.
    pub base: u64,
    /// Element size in bytes (8 for `f64`, 4 for `u32` indices).
    pub elem_bytes: u32,
    /// Whether this reference is a store.
    pub is_store: bool,
    /// Element-index expression.
    pub index: IndexExpr,
}

impl MemRef {
    /// A double-precision load.
    pub fn load(array: impl Into<String>, base: u64, index: IndexExpr) -> Self {
        MemRef { array: array.into(), base, elem_bytes: 8, is_store: false, index }
    }

    /// A double-precision store.
    pub fn store(array: impl Into<String>, base: u64, index: IndexExpr) -> Self {
        MemRef { array: array.into(), base, elem_bytes: 8, is_store: true, index }
    }

    /// An index (u32) load, e.g. reading the connectivity itself.
    pub fn index_load(array: impl Into<String>, base: u64, index: IndexExpr) -> Self {
        MemRef { array: array.into(), base, elem_bytes: 4, is_store: false, index }
    }

    /// Byte address for concrete loop indices.
    #[inline]
    pub fn address(&self, indices: &[usize]) -> u64 {
        self.element_address(self.index.eval(indices))
    }

    /// Byte address of element `elem` of the array.
    #[inline]
    pub fn element_address(&self, elem: i64) -> u64 {
        debug_assert!(elem >= 0, "negative element index for array {}", self.array);
        self.base + elem as u64 * self.elem_bytes as u64
    }
}

/// A straight-line statement executed once per iteration of its enclosing
/// loops.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Statement {
    /// Name, used in remarks.
    pub name: String,
    /// Floating-point operations per execution, by kind.
    pub flops: Vec<(VectorOp, u32)>,
    /// Integer / address-computation operations per execution.
    pub int_ops: u32,
    /// Memory references (loads and stores) per execution.
    pub mem: Vec<MemRef>,
    /// Whether the statement is legal to vectorize (false for statements
    /// containing data-dependent branches, scatters with possible write
    /// conflicts, or calls — the phase-8 situation).
    pub vectorizable: bool,
}

impl Statement {
    /// Creates an empty, vectorizable statement with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Statement {
            name: name.into(),
            flops: Vec::new(),
            int_ops: 0,
            mem: Vec::new(),
            vectorizable: true,
        }
    }

    /// Builder: adds floating-point work.
    pub fn with_flops(mut self, op: VectorOp, count: u32) -> Self {
        if count > 0 {
            self.flops.push((op, count));
        }
        self
    }

    /// Builder: adds integer/address work.
    pub fn with_int_ops(mut self, count: u32) -> Self {
        self.int_ops += count;
        self
    }

    /// Builder: adds a memory reference.
    pub fn with_mem(mut self, mem: MemRef) -> Self {
        self.mem.push(mem);
        self
    }

    /// Builder: marks the statement as not vectorizable.
    pub fn not_vectorizable(mut self) -> Self {
        self.vectorizable = false;
        self
    }

    /// Total floating-point operations per execution (an FMA counts 2).
    pub fn flops_per_iteration(&self) -> f64 {
        self.flops.iter().map(|(op, n)| op.flops_per_element() * *n as f64).sum()
    }
}

/// An item of a loop body: either a nested loop or a statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LoopItem {
    /// A nested loop.
    Loop(Loop),
    /// A straight-line statement.
    Stmt(Statement),
}

/// A counted loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Loop {
    /// Loop variable name (`ivect`, `inode`, `igaus`, …).
    pub var: String,
    /// Loop level: the index used by [`AffineExpr`] terms and by the
    /// iteration-state vector during code generation.  Every loop in a nest
    /// must have a distinct level.
    pub level: usize,
    /// Trip count.
    pub trip: TripCount,
    /// Body items, executed in order each iteration.
    pub body: Vec<LoopItem>,
}

impl Loop {
    /// Creates a loop with an empty body.
    pub fn new(var: impl Into<String>, level: usize, trip: TripCount) -> Self {
        Loop { var: var.into(), level, trip, body: Vec::new() }
    }

    /// Builder: appends a nested loop.
    pub fn with_loop(mut self, l: Loop) -> Self {
        self.body.push(LoopItem::Loop(l));
        self
    }

    /// Builder: appends a statement.
    pub fn with_stmt(mut self, s: Statement) -> Self {
        self.body.push(LoopItem::Stmt(s));
        self
    }

    /// Whether this loop contains no nested loops (it is innermost).
    pub fn is_innermost(&self) -> bool {
        self.body.iter().all(|item| matches!(item, LoopItem::Stmt(_)))
    }

    /// Statements directly in this loop's body.
    pub fn statements(&self) -> impl Iterator<Item = &Statement> {
        self.body.iter().filter_map(|item| match item {
            LoopItem::Stmt(s) => Some(s),
            LoopItem::Loop(_) => None,
        })
    }

    /// Nested loops directly in this loop's body.
    pub fn nested_loops(&self) -> impl Iterator<Item = &Loop> {
        self.body.iter().filter_map(|item| match item {
            LoopItem::Loop(l) => Some(l),
            LoopItem::Stmt(_) => None,
        })
    }

    /// Total statements in the subtree rooted at this loop.
    pub fn count_statements(&self) -> usize {
        self.body
            .iter()
            .map(|item| match item {
                LoopItem::Stmt(_) => 1,
                LoopItem::Loop(l) => l.count_statements(),
            })
            .sum()
    }

    /// Total dynamic iterations of this loop times its ancestors is handled
    /// by the caller; this returns the product of trip counts of this loop
    /// and all nested loops down to (and including) innermost loops —
    /// i.e. the number of times the innermost bodies run per execution of
    /// this loop's header.
    pub fn dynamic_body_executions(&self) -> usize {
        let own = self.trip.value();
        let inner: usize = self
            .body
            .iter()
            .map(|item| match item {
                LoopItem::Stmt(_) => 1,
                LoopItem::Loop(l) => l.dynamic_body_executions(),
            })
            .sum();
        own * inner.max(1)
    }
}

/// A top-level loop nest (one per phase of the mini-app).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopNest {
    /// Name of the nest (e.g. `"phase6_convective"`).
    pub name: String,
    /// Top-level items (usually a single outer loop).
    pub items: Vec<LoopItem>,
    /// Number of distinct loop levels used (size of the iteration-state
    /// vector required by code generation).
    pub num_levels: usize,
}

impl LoopNest {
    /// Creates a loop nest.
    ///
    /// # Panics
    /// Panics (in debug builds) if two loops share a level or a level is out
    /// of range.
    pub fn new(name: impl Into<String>, items: Vec<LoopItem>, num_levels: usize) -> Self {
        let nest = LoopNest { name: name.into(), items, num_levels };
        debug_assert!(nest.validate_levels(), "loop nest {} has invalid levels", nest.name);
        nest
    }

    fn validate_levels(&self) -> bool {
        let mut seen = vec![false; self.num_levels];
        fn visit(items: &[LoopItem], seen: &mut Vec<bool>) -> bool {
            for item in items {
                if let LoopItem::Loop(l) = item {
                    if l.level >= seen.len() || seen[l.level] {
                        return false;
                    }
                    seen[l.level] = true;
                    if !visit(&l.body, seen) {
                        return false;
                    }
                    seen[l.level] = false;
                }
            }
            true
        }
        visit(&self.items, &mut seen)
    }

    /// All loops of the nest in depth-first order.
    pub fn all_loops(&self) -> Vec<&Loop> {
        fn visit<'a>(items: &'a [LoopItem], out: &mut Vec<&'a Loop>) {
            for item in items {
                if let LoopItem::Loop(l) = item {
                    out.push(l);
                    visit(&l.body, out);
                }
            }
        }
        let mut out = Vec::new();
        visit(&self.items, &mut out);
        out
    }

    /// Finds a loop by variable name.
    pub fn find_loop(&self, var: &str) -> Option<&Loop> {
        self.all_loops().into_iter().find(|l| l.var == var)
    }

    /// Total statements in the nest.
    pub fn count_statements(&self) -> usize {
        self.items
            .iter()
            .map(|item| match item {
                LoopItem::Stmt(_) => 1,
                LoopItem::Loop(l) => l.count_statements(),
            })
            .sum()
    }

    /// Total floating-point operations one execution of the nest performs
    /// (analytic, independent of vectorization).
    pub fn total_flops(&self) -> f64 {
        fn visit(items: &[LoopItem]) -> f64 {
            items
                .iter()
                .map(|item| match item {
                    LoopItem::Stmt(s) => s.flops_per_iteration(),
                    LoopItem::Loop(l) => l.trip.value() as f64 * visit(&l.body),
                })
                .sum()
        }
        visit(&self.items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trip_count_value_and_kind() {
        assert_eq!(TripCount::Const(8).value(), 8);
        assert_eq!(TripCount::Runtime(240).value(), 240);
        assert!(TripCount::Const(8).is_compile_time());
        assert!(!TripCount::Runtime(8).is_compile_time());
    }

    #[test]
    fn affine_expr_eval_and_coefficients() {
        let e = AffineExpr::term(0, 3).plus_term(2, -1).plus_const(10);
        assert_eq!(e.eval(&[2, 99, 4]), 3 * 2 - 4 + 10);
        assert_eq!(e.coefficient(0), 3);
        assert_eq!(e.coefficient(1), 0);
        assert_eq!(e.coefficient(2), -1);
        assert!(e.depends_on(0));
        assert!(!e.depends_on(1));
        assert_eq!(AffineExpr::constant(7).eval(&[1, 2, 3]), 7);
        assert_eq!(e.split_at(Some(2), &[2, 99, 4]), (3 * 2 + 10, -1));
        assert_eq!(e.split_at(Some(1), &[2, 99, 4]), (e.eval(&[2, 99, 4]), 0));
        assert_eq!(e.split_at(None, &[2, 99, 4]), (e.eval(&[2, 99, 4]), 0));
    }

    #[test]
    fn indirect_index_eval() {
        let table = Arc::new(vec![5u32, 9, 2, 7]);
        let idx = IndexExpr::Indirect {
            table,
            table_index: AffineExpr::term(0, 1),
            scale: 3,
            offset: AffineExpr::term(1, 1),
        };
        // indices[0]=2 -> table[2]=2 -> 2*3 + indices[1]=1 -> 7
        assert_eq!(idx.eval(&[2, 1]), 7);
        assert!(idx.depends_on(0));
        assert!(idx.depends_on(1));
        assert!(idx.is_indexed_in(0));
        assert!(!idx.is_indexed_in(1), "offset-only dependence is strided, not a gather");
    }

    #[test]
    fn memref_address() {
        let m = MemRef::load("coords", 1000, IndexExpr::Affine(AffineExpr::term(0, 2)));
        assert_eq!(m.address(&[3]), 1000 + 6 * 8);
        let s = MemRef::store("rhs", 0, IndexExpr::Affine(AffineExpr::constant(4)));
        assert!(s.is_store);
        assert_eq!(s.address(&[]), 32);
        let i = MemRef::index_load("lnods", 16, IndexExpr::Affine(AffineExpr::term(0, 1)));
        assert_eq!(i.elem_bytes, 4);
        assert_eq!(i.address(&[2]), 24);
    }

    #[test]
    fn statement_builder_and_flop_count() {
        let s = Statement::new("work")
            .with_flops(VectorOp::Fma, 3)
            .with_flops(VectorOp::Add, 2)
            .with_int_ops(4)
            .with_mem(MemRef::load("a", 0, IndexExpr::Affine(AffineExpr::term(0, 1))));
        assert_eq!(s.flops_per_iteration(), 3.0 * 2.0 + 2.0);
        assert_eq!(s.int_ops, 4);
        assert_eq!(s.mem.len(), 1);
        assert!(s.vectorizable);
        assert!(!s.clone().not_vectorizable().vectorizable);
    }

    fn sample_nest() -> LoopNest {
        // do igaus=1,8 ; do inode=1,8 ; do ivect=1,240 { fma } end end end
        let stmt = Statement::new("body").with_flops(VectorOp::Fma, 2);
        let ivect = Loop::new("ivect", 2, TripCount::Const(240)).with_stmt(stmt);
        let inode = Loop::new("inode", 1, TripCount::Const(8)).with_loop(ivect);
        let igaus = Loop::new("igaus", 0, TripCount::Const(8)).with_loop(inode);
        LoopNest::new("phase6_like", vec![LoopItem::Loop(igaus)], 3)
    }

    #[test]
    fn loop_structure_queries() {
        let nest = sample_nest();
        assert_eq!(nest.all_loops().len(), 3);
        assert_eq!(nest.count_statements(), 1);
        let ivect = nest.find_loop("ivect").unwrap();
        assert!(ivect.is_innermost());
        assert!(!nest.find_loop("igaus").unwrap().is_innermost());
        assert!(nest.find_loop("missing").is_none());
        assert_eq!(nest.find_loop("igaus").unwrap().dynamic_body_executions(), 8 * 8 * 240);
    }

    #[test]
    fn total_flops_is_product_of_trips_times_stmt_flops() {
        let nest = sample_nest();
        assert_eq!(nest.total_flops(), (8 * 8 * 240) as f64 * 4.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn duplicate_levels_rejected_in_debug() {
        let inner = Loop::new("j", 0, TripCount::Const(2));
        let outer = Loop::new("i", 0, TripCount::Const(2)).with_loop(inner);
        let _ = LoopNest::new("bad", vec![LoopItem::Loop(outer)], 1);
    }
}
