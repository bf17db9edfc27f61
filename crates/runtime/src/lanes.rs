//! Run-time-selected vector lanes: the host's, not the build's.
//!
//! The workspace builds for the portable baseline of its target (SSE2 on
//! `x86-64`: two `f64` or four `f32` per instruction) so one binary runs
//! everywhere.  The unit-stride kernels — the `ivect` loops of the assembly
//! phases, the row loops of the diagonal-stored multigrid levels — are
//! written for whatever vector length the machine has, and most `x86-64`
//! hosts have more than the baseline.  This module lets **one kernel
//! source** be compiled **twice** and picks per process, once:
//!
//! * [`Lanes`] — which copy runs: [`Lanes::Baseline`] (the build's own
//!   target features, the only copy on every other architecture) or
//!   [`Lanes::Avx2`] (four `f64` / eight `f32` per instruction), detected
//!   once by [`Lanes::selected`];
//! * [`multiversion!`](crate::multiversion) — the one multiversioning
//!   pattern: the kernel body stays a single `#[inline(always)]` function
//!   and the macro generates, around it, a `#[target_feature(enable =
//!   "avx2")]` clone, a dispatcher that takes a [`Lanes`] and the entry
//!   point that passes the selected ones.
//!
//! **Same bits at every width.**  Rust never reassociates a floating-point
//! reduction and never contracts `a * b + c` into a fused multiply-add
//! (there is no `mul_add` in these kernels, and the clones do not enable
//! `fma`), so a clone executes exactly the baseline's IEEE operations in
//! the baseline's order per output element; it differs only in how many
//! *independent* elements one instruction carries.  Lane count therefore
//! joins the static partition, the fixed-block reduction and the mesh
//! coloring as a mechanism that cannot move a bit: results are identical
//! on hosts with and without AVX2, which is what lets the selection be
//! automatic — no option, no environment variable, no cargo feature.
//!
//! **Where to clone.**  Per existing kernel function, never a whole chunk
//! or sweep: the clone of one phase is the code a whole-program
//! `-C target-feature=+avx2` build emits for it, while one clone around
//! several inlined phases compiles measurably worse than the baseline.  And
//! only unit-stride kernels: gathers and scatters (CSR products, the
//! element gather/scatter phases) measured flat or slower at the wider
//! width and stay on the baseline.
//!
//! The selection is *host-dependent* metadata: traces, run summaries and
//! fleet metrics record [`Lanes::name`] beside the other host facts and
//! keep it out of every deterministic fingerprint.

/// Which compiled copy of the multiversioned kernels runs.
///
/// [`Lanes::Baseline`] can be named by anyone; a [`Lanes::Avx2`] value can
/// only come out of [`Lanes::selected`], because its payload has no public
/// constructor — so holding one *is* the proof that this process detected
/// AVX2, and the dispatchers generated by
/// [`multiversion!`](crate::multiversion) enter their clones on that proof
/// alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lanes {
    /// The build's own target features — the source compiled as it always
    /// was.  The only variant on architectures other than `x86_64`.
    Baseline,
    /// The `avx2` clones: 256-bit registers, four `f64` or eight `f32` per
    /// instruction.
    Avx2(Avx2Detected),
}

/// Proof that `is_x86_feature_detected!("avx2")` held in this process.
/// Only [`Lanes::selected`] creates one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Avx2Detected(());

impl Lanes {
    /// The widest lanes this host supports: [`Lanes::Avx2`] where
    /// `is_x86_feature_detected!("avx2")` holds, [`Lanes::Baseline`]
    /// everywhere else.  The standard library reads `cpuid` once per process
    /// and caches it, so a call is one atomic load and the answer never
    /// changes.
    pub fn selected() -> Lanes {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return Lanes::Avx2(Avx2Detected(()));
        }
        Lanes::Baseline
    }

    /// `"baseline"` or `"avx2"` — the value traces and metrics record.
    pub const fn name(self) -> &'static str {
        match self {
            Lanes::Baseline => "baseline",
            Lanes::Avx2(_) => "avx2",
        }
    }

    /// [`name`](Self::name) plus what it means in lanes, for host lines.
    pub const fn describe(self) -> &'static str {
        match self {
            Lanes::Baseline => "baseline (the build's target features)",
            Lanes::Avx2(_) => "avx2 (4 x f64 / 8 x f32 per instruction)",
        }
    }
}

impl std::fmt::Display for Lanes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Multiversions one kernel: from a single `#[inline(always)]` body it
/// generates
///
/// * a private `#[target_feature(enable = "avx2")]` clone that does nothing
///   but call the body (which, being `inline(always)`, is compiled *into*
///   the clone at the clone's width) — `x86_64` only;
/// * the dispatcher `$at(lanes, args…)`: the clone under
///   [`Lanes::Avx2`](crate::lanes::Lanes::Avx2), the body itself otherwise —
///   what the per-phase examples and the clone-against-baseline tests call;
/// * the entry point `$name(args…)`, which carries the attributes and doc
///   comment given and passes [`Lanes::selected`](crate::lanes::Lanes::selected).
///
/// Two shapes, one per kind of kernel: a free function, or a `&self` method
/// inside an `impl` block (a nested function cannot name the `impl`'s
/// generics, so the method's clone is a sibling whose name is given):
///
/// ```
/// # use lv_runtime::lanes::Lanes;
/// #[inline(always)]
/// fn axpy_body(a: f64, x: &[f64], y: &mut [f64]) {
///     for (yi, xi) in y.iter_mut().zip(x) {
///         *yi += a * *xi;
///     }
/// }
/// lv_runtime::multiversion! {
///     /// `y += a·x` at the host's lanes.
///     pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) = axpy_body, at axpy_at;
/// }
///
/// struct Scale(f64);
/// impl Scale {
///     #[inline(always)]
///     fn apply_body(&self, x: &mut [f64]) {
///         x.iter_mut().for_each(|xi| *xi *= self.0);
///     }
///     lv_runtime::multiversion! {
///         /// `x *= self` at the host's lanes.
///         pub fn apply(&self, x: &mut [f64]) = Self::apply_body, at apply_at, clone apply_avx2;
///     }
/// }
///
/// let (mut wide, mut narrow) = ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]);
/// axpy(0.1, &[3.0, 2.0, 1.0], &mut wide);
/// axpy_at(Lanes::Baseline, 0.1, &[3.0, 2.0, 1.0], &mut narrow);
/// Scale(3.0).apply(&mut wide);
/// Scale(3.0).apply_at(Lanes::Baseline, &mut narrow);
/// assert_eq!(wide.map(f64::to_bits), narrow.map(f64::to_bits));
/// ```
///
/// Arguments must be plain `name: Type` pairs (they are forwarded by name).
/// The body **must** be `#[inline(always)]`, and so must every helper it
/// calls that holds a loop: whatever is not inlined into the clone stays
/// baseline code and the clone silently stops being wide (CI counts the
/// `ymm` instructions of a release binary to catch exactly that).
///
/// The only `unsafe` the pattern needs is the call into the clone, and it
/// is justified in one place — here: a `Lanes::Avx2` exists only if this
/// process detected AVX2.
#[macro_export]
macro_rules! multiversion {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident ( $($arg:ident : $ty:ty),* $(,)? ) $(-> $ret:ty)?
            = $body:path, at $at:ident;
    ) => {
        $(#[$meta])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            $at($crate::lanes::Lanes::selected(), $($arg),*)
        }

        #[doc = concat!(
            "[`", stringify!($name), "`] at `lanes` instead of the selected ones: the baseline \
             body or its wide clone, same bits either way."
        )]
        #[allow(clippy::too_many_arguments)]
        $vis fn $at(lanes: $crate::lanes::Lanes, $($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            unsafe fn avx2_clone($($arg: $ty),*) $(-> $ret)? {
                $body($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            if let $crate::lanes::Lanes::Avx2(_) = lanes {
                debug_assert!(::std::is_x86_feature_detected!("avx2"));
                // SAFETY: the clone requires AVX2, and a `Lanes::Avx2` can
                // only be obtained from `Lanes::selected`, which returns it
                // only after `is_x86_feature_detected!("avx2")` held.
                return unsafe { avx2_clone($($arg),*) };
            }
            let _ = lanes;
            $body($($arg),*)
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident ( & self $(, $arg:ident : $ty:ty)* $(,)? ) $(-> $ret:ty)?
            = $body:path, at $at:ident, clone $clone:ident;
    ) => {
        $(#[$meta])*
        $vis fn $name(&self $(, $arg: $ty)*) $(-> $ret)? {
            self.$at($crate::lanes::Lanes::selected() $(, $arg)*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $clone(&self $(, $arg: $ty)*) $(-> $ret)? {
            $body(self $(, $arg)*)
        }

        #[doc = concat!(
            "[`", stringify!($name), "`](Self::", stringify!($name), ") at `lanes` instead of \
             the selected ones: the baseline body or its wide clone, same bits either way."
        )]
        #[allow(clippy::too_many_arguments)]
        $vis fn $at(&self, lanes: $crate::lanes::Lanes $(, $arg: $ty)*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if let $crate::lanes::Lanes::Avx2(_) = lanes {
                debug_assert!(::std::is_x86_feature_detected!("avx2"));
                // SAFETY: as in the free-function shape — a `Lanes::Avx2`
                // is the proof that this process detected AVX2.
                return unsafe { self.$clone($($arg),*) };
            }
            let _ = lanes;
            $body(self $(, $arg)*)
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_stable_and_matches_the_cpu() {
        let lanes = Lanes::selected();
        assert_eq!(lanes, Lanes::selected());
        #[cfg(target_arch = "x86_64")]
        assert_eq!(lanes != Lanes::Baseline, std::is_x86_feature_detected!("avx2"));
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(lanes, Lanes::Baseline);
        assert_eq!(lanes.to_string(), lanes.name());
        assert!(lanes.describe().starts_with(lanes.name()));
        // What the CI log shows beside `grep avx2 /proc/cpuinfo`.
        println!("lanes selected by this test run: {}", lanes.describe());
    }

    #[inline(always)]
    fn prefix_sums_body(x: &[f32], out: &mut [f32]) -> usize {
        let mut sum = 0.0f32;
        for (o, xi) in out.iter_mut().zip(x) {
            sum += *xi * 1.5;
            *o = sum;
        }
        out.len().min(x.len())
    }

    crate::multiversion! {
        /// A loop-carried sum: wider lanes must not reassociate it.
        fn prefix_sums(x: &[f32], out: &mut [f32]) -> usize = prefix_sums_body, at prefix_sums_at;
    }

    struct Stencil {
        weights: [f64; 3],
    }

    impl Stencil {
        #[inline(always)]
        fn apply_body(&self, x: &[f64], out: &mut [f64]) {
            for (o, w) in out.iter_mut().zip(x.windows(3)) {
                *o = self.weights[0] * w[0] + self.weights[1] * w[1] + self.weights[2] * w[2];
            }
        }

        crate::multiversion! {
            /// Unit-stride, independent outputs: the shape the clones are for.
            fn apply(&self, x: &[f64], out: &mut [f64])
                = Self::apply_body, at apply_at, clone apply_avx2;
        }
    }

    #[test]
    fn every_generated_entry_computes_the_bits_of_the_body() {
        let x: Vec<f64> = (0..1003).map(|i| ((i * 37 % 101) as f64 - 50.0) / 7.0).collect();
        let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
        let stencil = Stencil { weights: [0.1, -0.7, 0.3] };

        let (mut want, mut want32) = (vec![0.0; 1001], vec![0.0f32; 1003]);
        stencil.apply_body(&x, &mut want);
        assert_eq!(prefix_sums_body(&x32, &mut want32), 1003);

        for lanes in [Lanes::Baseline, Lanes::selected()] {
            let (mut got, mut got32) = (vec![f64::NAN; 1001], vec![f32::NAN; 1003]);
            stencil.apply_at(lanes, &x, &mut got);
            assert_eq!(prefix_sums_at(lanes, &x32, &mut got32), 1003);
            assert!(got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()), "{lanes}");
            assert!(got32.iter().zip(&want32).all(|(a, b)| a.to_bits() == b.to_bits()), "{lanes}");
        }
        let (mut got, mut got32) = (vec![f64::NAN; 1001], vec![f32::NAN; 1003]);
        stencil.apply(&x, &mut got);
        prefix_sums(&x32, &mut got32);
        assert!(got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(got32.iter().zip(&want32).all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}
