//! The scenario registry: every flow configuration the fractional-step
//! driver can run, with per-scenario mesh generation, initial fields,
//! (possibly time-dependent) velocity boundary conditions, pressure pin
//! nodes and — where one exists — the analytic reference solution.
//!
//! A scenario is deliberately *data*, not a trait object: the registry is a
//! closed set the examples can enumerate (`Scenario::registry()`), a
//! checkpoint can name (`ScenarioKind::name`), and a CLI can parse
//! (`ScenarioKind::from_name`).

use lv_mesh::{BoundaryTag, BoxMeshBuilder, ChannelMeshBuilder, Field, Mesh, Vec3, VectorField};
use std::f64::consts::PI;

/// The flow configurations the driver knows how to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// Lid-driven cavity: enclosed box, unit-velocity lid on the top face.
    LidDrivenCavity,
    /// Channel flow: elongated box, uniform inflow at x-min, natural
    /// outflow at x-max.
    Channel,
    /// Decaying Taylor–Green vortex (2-D solution extruded in z): the
    /// analytic-error workload — `u` and the viscous decay rate are known
    /// in closed form.
    TaylorGreenVortex,
    /// Decaying shear layer: a perturbed tanh profile whose kinetic energy
    /// decays under viscosity.
    ShearLayer,
}

impl ScenarioKind {
    /// Every registered scenario kind, in registry order.
    pub const ALL: [ScenarioKind; 4] = [
        ScenarioKind::LidDrivenCavity,
        ScenarioKind::Channel,
        ScenarioKind::TaylorGreenVortex,
        ScenarioKind::ShearLayer,
    ];

    /// The registry name (also the checkpoint identity and the CLI
    /// argument).
    pub const fn name(self) -> &'static str {
        match self {
            ScenarioKind::LidDrivenCavity => "cavity",
            ScenarioKind::Channel => "channel",
            ScenarioKind::TaylorGreenVortex => "taylor-green",
            ScenarioKind::ShearLayer => "shear-layer",
        }
    }

    /// One-line description for `--list`-style output.
    pub const fn describe(self) -> &'static str {
        match self {
            ScenarioKind::LidDrivenCavity => {
                "enclosed box, moving lid; recirculating vortex (KE, divergence diagnostics)"
            }
            ScenarioKind::Channel => {
                "inflow/outflow duct, 4:1 aspect; pressure zeroed on the outflow plane"
            }
            ScenarioKind::TaylorGreenVortex => {
                "decaying vortex with analytic solution; reports the L2 velocity error"
            }
            ScenarioKind::ShearLayer => "perturbed tanh shear layer; kinetic energy decays",
        }
    }

    /// Parses a registry name (exact match on [`name`](Self::name), plus a
    /// few forgiving aliases).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "cavity" | "lid-driven-cavity" | "lid" => Some(ScenarioKind::LidDrivenCavity),
            "channel" => Some(ScenarioKind::Channel),
            "taylor-green" | "tg" | "taylor_green" => Some(ScenarioKind::TaylorGreenVortex),
            "shear-layer" | "shear" | "shear_layer" => Some(ScenarioKind::ShearLayer),
            _ => None,
        }
    }
}

/// The analytic 2-D Taylor–Green velocity on the unit square (extruded in
/// z), decaying with rate `2νπ²`:
/// `u = (sin πx · cos πy, −cos πx · sin πy, 0) · e^{−2π²νt}`.
pub fn taylor_green_velocity(p: Vec3, viscosity: f64, time: f64) -> Vec3 {
    let decay = (-2.0 * PI * PI * viscosity * time).exp();
    Vec3::new(
        (PI * p.x).sin() * (PI * p.y).cos() * decay,
        -(PI * p.x).cos() * (PI * p.y).sin() * decay,
        0.0,
    )
}

/// The shear-layer initial velocity: a tanh profile in y with a small
/// sinusoidal perturbation that triggers roll-up.
fn shear_layer_velocity(p: Vec3) -> Vec3 {
    let delta = 0.1;
    Vec3::new(((p.y - 0.5) / delta).tanh(), 0.05 * (2.0 * PI * p.x).sin(), 0.0)
}

/// A concrete, runnable scenario: a kind plus the resolution and physical
/// parameters of one run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Which registered flow this is.
    pub kind: ScenarioKind,
    /// Elements per direction of the cross-section (the cavity and the
    /// vortex boxes are `n³`; the channel is `4n × n × n`).
    pub resolution: usize,
    /// Kinematic viscosity ν.
    pub viscosity: f64,
    /// Fluid density ρ.
    pub density: f64,
}

impl Scenario {
    /// A scenario of `kind` at `resolution`, with the kind's default
    /// physical parameters.
    ///
    /// # Panics
    /// Panics if `resolution` is zero.
    pub fn new(kind: ScenarioKind, resolution: usize) -> Self {
        assert!(resolution > 0, "resolution must be positive");
        let viscosity = match kind {
            ScenarioKind::LidDrivenCavity => 5e-2,
            ScenarioKind::Channel => 2e-2,
            ScenarioKind::TaylorGreenVortex => 1e-2,
            ScenarioKind::ShearLayer => 5e-3,
        };
        Scenario { kind, resolution, viscosity, density: 1.0 }
    }

    /// Builder: overrides the viscosity.
    pub fn with_viscosity(mut self, viscosity: f64) -> Self {
        assert!(viscosity > 0.0, "viscosity must be positive");
        self.viscosity = viscosity;
        self
    }

    /// The full registry at each kind's default demo resolution.
    pub fn registry() -> Vec<Scenario> {
        ScenarioKind::ALL.iter().map(|&kind| Scenario::new(kind, 8)).collect()
    }

    /// Looks a scenario up by registry name.
    pub fn by_name(name: &str, resolution: usize) -> Option<Scenario> {
        ScenarioKind::from_name(name).map(|kind| Scenario::new(kind, resolution))
    }

    /// Generates the scenario's mesh.
    pub fn build_mesh(&self) -> Mesh {
        let n = self.resolution;
        match self.kind {
            ScenarioKind::LidDrivenCavity => {
                BoxMeshBuilder::new(n, n, n).lid_driven_cavity().build()
            }
            ScenarioKind::Channel => ChannelMeshBuilder::new(n, 4).build(),
            // All-walls tagging: every boundary node is Dirichlet, with the
            // values supplied per step by `apply_velocity_bcs`.
            ScenarioKind::TaylorGreenVortex | ScenarioKind::ShearLayer => {
                BoxMeshBuilder::new(n, n, n).build()
            }
        }
    }

    /// Initial velocity and pressure fields (boundary conditions already
    /// applied).
    pub fn initial_state(&self, mesh: &Mesh) -> (VectorField, Field) {
        let mut velocity = match self.kind {
            ScenarioKind::LidDrivenCavity => VectorField::zeros(mesh),
            ScenarioKind::Channel => VectorField::constant(mesh, Vec3::new(1.0, 0.0, 0.0)),
            ScenarioKind::TaylorGreenVortex => {
                let nu = self.viscosity;
                VectorField::from_fn(mesh, |p| taylor_green_velocity(p, nu, 0.0))
            }
            ScenarioKind::ShearLayer => VectorField::from_fn(mesh, shear_layer_velocity),
        };
        self.apply_velocity_bcs(mesh, &mut velocity, 0.0);
        (velocity, Field::zeros(mesh))
    }

    /// Imposes the scenario's Dirichlet velocity values at simulation time
    /// `time` (the Taylor–Green boundary values decay with time; all other
    /// scenarios are steady).
    pub fn apply_velocity_bcs(&self, mesh: &Mesh, velocity: &mut VectorField, time: f64) {
        match self.kind {
            ScenarioKind::LidDrivenCavity => {
                velocity.apply_boundary_conditions(mesh, Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO);
            }
            ScenarioKind::Channel => {
                velocity.apply_boundary_conditions(mesh, Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
            }
            ScenarioKind::TaylorGreenVortex => {
                for node in 0..mesh.num_nodes() {
                    if mesh.boundary_tag(node) != BoundaryTag::Interior {
                        let p = mesh.node_coords(node);
                        velocity.set(node, taylor_green_velocity(p, self.viscosity, time));
                    }
                }
            }
            ScenarioKind::ShearLayer => {
                for node in 0..mesh.num_nodes() {
                    if mesh.boundary_tag(node) != BoundaryTag::Interior {
                        velocity.set(node, shear_layer_velocity(mesh.node_coords(node)));
                    }
                }
            }
        }
    }

    /// Nodes whose pressure unknown is pinned to zero in the Poisson solve:
    /// the outflow plane for the channel (the physical reference), one
    /// corner node for the enclosed flows (the pure-Neumann Laplacian needs
    /// a gauge).
    pub fn pressure_pins(&self, mesh: &Mesh) -> Vec<usize> {
        match self.kind {
            ScenarioKind::Channel => (0..mesh.num_nodes())
                .filter(|&n| mesh.boundary_tag(n) == BoundaryTag::Outflow)
                .collect(),
            _ => vec![0],
        }
    }

    /// The analytic velocity at `(p, time)`, for scenarios that have one.
    pub fn analytic_velocity(&self, p: Vec3, time: f64) -> Option<Vec3> {
        match self.kind {
            ScenarioKind::TaylorGreenVortex => Some(taylor_green_velocity(p, self.viscosity, time)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_round_trip() {
        for kind in ScenarioKind::ALL {
            assert_eq!(ScenarioKind::from_name(kind.name()), Some(kind));
            assert!(!kind.describe().is_empty());
        }
        assert_eq!(ScenarioKind::from_name("tg"), Some(ScenarioKind::TaylorGreenVortex));
        assert_eq!(ScenarioKind::from_name("nope"), None);
        assert_eq!(Scenario::registry().len(), ScenarioKind::ALL.len());
        assert!(Scenario::by_name("cavity", 6).is_some());
        assert!(Scenario::by_name("bogus", 6).is_none());
    }

    #[test]
    fn taylor_green_is_divergence_free_and_decays() {
        // Central-difference divergence of the analytic field.
        let nu = 0.01;
        let h = 1e-6;
        let p = Vec3::new(0.3, 0.7, 0.5);
        let dudx = (taylor_green_velocity(Vec3::new(p.x + h, p.y, p.z), nu, 0.2).x
            - taylor_green_velocity(Vec3::new(p.x - h, p.y, p.z), nu, 0.2).x)
            / (2.0 * h);
        let dvdy = (taylor_green_velocity(Vec3::new(p.x, p.y + h, p.z), nu, 0.2).y
            - taylor_green_velocity(Vec3::new(p.x, p.y - h, p.z), nu, 0.2).y)
            / (2.0 * h);
        assert!((dudx + dvdy).abs() < 1e-6);
        let early = taylor_green_velocity(p, nu, 0.0).norm();
        let late = taylor_green_velocity(p, nu, 1.0).norm();
        assert!(late < early);
        let expected = early * (-2.0 * PI * PI * nu).exp();
        assert!((late - expected).abs() < 1e-12);
    }

    #[test]
    fn scenarios_build_valid_meshes_with_consistent_bcs() {
        for scenario in Scenario::registry() {
            let mesh = scenario.build_mesh();
            assert!(mesh.validate().is_empty(), "{}", scenario.kind.name());
            let (velocity, pressure) = scenario.initial_state(&mesh);
            assert_eq!(velocity.num_nodes(), mesh.num_nodes());
            assert_eq!(pressure.len(), mesh.num_nodes());
            let pins = scenario.pressure_pins(&mesh);
            assert!(!pins.is_empty(), "{}", scenario.kind.name());
            assert!(pins.iter().all(|&p| p < mesh.num_nodes()));
            // Re-applying the BCs at t = 0 must be idempotent.
            let mut again = velocity.clone();
            scenario.apply_velocity_bcs(&mesh, &mut again, 0.0);
            for (a, b) in velocity.as_slice().iter().zip(again.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn channel_pins_the_outflow_plane() {
        let scenario = Scenario::new(ScenarioKind::Channel, 4);
        let mesh = scenario.build_mesh();
        let pins = scenario.pressure_pins(&mesh);
        assert_eq!(pins.len(), 5 * 5, "one pin per outflow-plane node");
        for &p in &pins {
            assert_eq!(mesh.boundary_tag(p), BoundaryTag::Outflow);
        }
    }
}
