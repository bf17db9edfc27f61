//! Kernel configuration: physical parameters, the `VECTOR_SIZE` blocking
//! parameter and the cumulative code-optimization levels of the paper.

use serde::{Deserialize, Serialize};

/// The `VECTOR_SIZE` values studied in the paper (re-exported from
/// `lv-mesh` for convenience).
pub use lv_mesh::chunks::PAPER_VECTOR_SIZES;

/// The cumulative code-optimization levels applied to the mini-app in
/// Section 4 of the paper.  Each level includes all previous ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OptLevel {
    /// The original mini-app source, unchanged.
    Original,
    /// **VEC2**: the `VECTOR_DIM` dummy argument of the gather routine is
    /// replaced by a compile-time constant, which lets the auto-vectorizer
    /// vectorize phase 2 — over its short innermost loop (AVL ≈ 4), which is
    /// counter-productive.
    Vec2,
    /// **IVEC2**: on top of VEC2, the phase-2 loop nest is interchanged so
    /// the `VECTOR_SIZE` dimension is innermost and vector instructions use
    /// the full vector length.
    IVec2,
    /// **VEC1**: on top of IVEC2, the phase-1 loop is distributed so its
    /// vectorizable half (work B) runs with vector instructions.
    Vec1,
}

impl OptLevel {
    /// All levels in the cumulative order of the paper.
    pub const ALL: [OptLevel; 4] =
        [OptLevel::Original, OptLevel::Vec2, OptLevel::IVec2, OptLevel::Vec1];

    /// Name used in figures and reports.
    pub const fn name(self) -> &'static str {
        match self {
            OptLevel::Original => "Original",
            OptLevel::Vec2 => "VEC2",
            OptLevel::IVec2 => "IVEC2",
            OptLevel::Vec1 => "VEC1",
        }
    }

    /// Whether this level includes the VEC2 compile-time trip-count fix.
    pub const fn has_vec2(self) -> bool {
        !matches!(self, OptLevel::Original)
    }

    /// Whether this level includes the IVEC2 loop interchange.
    pub const fn has_ivec2(self) -> bool {
        matches!(self, OptLevel::IVec2 | OptLevel::Vec1)
    }

    /// Whether this level includes the VEC1 loop distribution.
    pub const fn has_vec1(self) -> bool {
        matches!(self, OptLevel::Vec1)
    }
}

/// Configuration of one assembly run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelConfig {
    /// Number of elements processed per kernel call (`VECTOR_SIZE`).
    pub vector_size: usize,
    /// Code-optimization level.
    pub opt_level: OptLevel,
    /// Kinematic viscosity ν.
    pub viscosity: f64,
    /// Fluid density ρ.
    pub density: f64,
    /// Time-step size used by the time-integration arrays of phase 5 of
    /// the mini-app's eight-phase sweep.  A time step passes its own Δt to
    /// [`crate::assemble_momentum_on`] instead, so one assembly serves
    /// steps of every Δt.
    pub dt: f64,
    /// Whether the semi-implicit scheme is used; if so, phase 7 also
    /// assembles the elemental viscous matrices (the paper: "element matrices
    /// are computed only if the semi-implicit numerical scheme is
    /// considered").
    pub semi_implicit: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            vector_size: 240,
            opt_level: OptLevel::Vec1,
            viscosity: 1e-2,
            density: 1.0,
            dt: 1e-2,
            semi_implicit: true,
        }
    }
}

impl KernelConfig {
    /// A configuration with the given `VECTOR_SIZE` and optimization level
    /// and default physics.
    pub fn new(vector_size: usize, opt_level: OptLevel) -> Self {
        KernelConfig { vector_size, opt_level, ..Default::default() }
    }

    /// Builder: sets the viscosity.
    pub fn with_viscosity(mut self, nu: f64) -> Self {
        assert!(nu > 0.0, "viscosity must be positive");
        self.viscosity = nu;
        self
    }

    /// Builder: sets the density.
    pub fn with_density(mut self, rho: f64) -> Self {
        assert!(rho > 0.0, "density must be positive");
        self.density = rho;
        self
    }

    /// Builder: sets the time step.
    pub fn with_dt(mut self, dt: f64) -> Self {
        assert!(dt > 0.0, "time step must be positive");
        self.dt = dt;
        self
    }

    /// Builder: selects the explicit scheme (no elemental matrices in
    /// phase 7).
    pub fn explicit_scheme(mut self) -> Self {
        self.semi_implicit = false;
        self
    }

    /// Validates the configuration, returning a list of problems (empty when
    /// valid).
    // `!(x > 0.0)` is deliberate: it reports NaN parameters as invalid, which
    // `x <= 0.0` would silently accept.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.vector_size == 0 {
            problems.push("VECTOR_SIZE must be positive".to_string());
        }
        if !(self.viscosity > 0.0) {
            problems.push("viscosity must be positive".to_string());
        }
        if !(self.density > 0.0) {
            problems.push("density must be positive".to_string());
        }
        if !(self.dt > 0.0) {
            problems.push("time step must be positive".to_string());
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_levels_are_cumulative() {
        assert!(!OptLevel::Original.has_vec2());
        assert!(OptLevel::Vec2.has_vec2());
        assert!(!OptLevel::Vec2.has_ivec2());
        assert!(OptLevel::IVec2.has_vec2());
        assert!(OptLevel::IVec2.has_ivec2());
        assert!(!OptLevel::IVec2.has_vec1());
        assert!(OptLevel::Vec1.has_vec2());
        assert!(OptLevel::Vec1.has_ivec2());
        assert!(OptLevel::Vec1.has_vec1());
    }

    #[test]
    fn opt_level_ordering_matches_paper_sequence() {
        assert!(OptLevel::Original < OptLevel::Vec2);
        assert!(OptLevel::Vec2 < OptLevel::IVec2);
        assert!(OptLevel::IVec2 < OptLevel::Vec1);
        assert_eq!(OptLevel::ALL.len(), 4);
        assert_eq!(OptLevel::Vec1.name(), "VEC1");
    }

    #[test]
    fn default_config_is_valid() {
        assert!(KernelConfig::default().validate().is_empty());
        assert_eq!(KernelConfig::default().vector_size, 240);
    }

    #[test]
    fn builders_apply() {
        let c = KernelConfig::new(64, OptLevel::Original)
            .with_viscosity(0.5)
            .with_density(2.0)
            .with_dt(0.1)
            .explicit_scheme();
        assert_eq!(c.vector_size, 64);
        assert_eq!(c.opt_level, OptLevel::Original);
        assert_eq!(c.viscosity, 0.5);
        assert_eq!(c.density, 2.0);
        assert_eq!(c.dt, 0.1);
        assert!(!c.semi_implicit);
        assert!(c.validate().is_empty());
    }

    #[test]
    fn invalid_config_is_reported() {
        let c = KernelConfig { vector_size: 0, viscosity: -1.0, ..KernelConfig::default() };
        let problems = c.validate();
        assert_eq!(problems.len(), 2);
    }

    #[test]
    #[should_panic]
    fn negative_viscosity_rejected_by_builder() {
        let _ = KernelConfig::default().with_viscosity(-1.0);
    }
}
