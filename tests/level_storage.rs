//! What each multigrid level of the registry's uniform boxes stores, and
//! that the choice is the matrix's alone (README "Level storage"):
//!
//! * **Class counts** — in the cycle's `f32`, with the sub-epsilon entries
//!   dropped, level 0 of the cavity and Taylor–Green boxes has 31 distinct
//!   rows at every size (27 positions in the box and the four neighbours of
//!   the pressure pin whose coupling to it does not vanish) and every
//!   Galerkin level at most 34;
//! * **The run rule** — a level takes row classes when at least half its
//!   rows lie in runs of 16 or more: level 0 of the 20³ and 32³ boxes
//!   (x-lines of 21 and 33 nodes, runs of 19 and 31), nothing at 8³, 12³ and
//!   16³ (runs of 15 at most), never a Galerkin level of these sizes;
//! * **Nothing else decides** — the channel's long box gets the storage its
//!   rows ask for, and the banner names it, as it names why a lattice has
//!   no hierarchy.

use alya_longvec::prelude::*;
use lv_kernel::{build_pressure_multigrid, pressure_interpolations, pressure_laplacian};
use lv_solver::{galerkin_coarse, DiaMatrix, LevelStorage, MultigridOptions, RowClasses};

/// Distinct `f32` rows per level of `scenario`'s pressure hierarchy, finest
/// first, with each level's longest run of rows sharing one.
fn census(scenario: &Scenario) -> Vec<(usize, usize)> {
    let mesh = scenario.build_mesh();
    let options = MultigridOptions::default();
    let interps = pressure_interpolations(&mesh, &options).expect("a box lattice");
    let mut csr = pressure_laplacian(&mesh, &scenario.pressure_pins(&mesh));
    let mut levels = Vec::new();
    for level in 0..=interps.len() {
        let dia = DiaMatrix::<f32>::from_csr(&csr).expect("a lattice stencil");
        let classes = RowClasses::<f32>::from_dia(&dia).expect("a few dozen distinct rows");
        levels.push((classes.num_classes(), classes.longest_run()));
        if let Some(p) = interps.get(level) {
            csr = galerkin_coarse(&csr, p);
        }
    }
    levels
}

fn storage(scenario: &Scenario) -> Vec<LevelStorage> {
    let mesh = scenario.build_mesh();
    let laplacian = pressure_laplacian(&mesh, &scenario.pressure_pins(&mesh));
    build_pressure_multigrid(&mesh, &laplacian, &MultigridOptions::default())
        .expect("a box lattice")
        .level_storage()
}

#[test]
fn uniform_boxes_have_31_rows_on_the_fine_level_and_at_most_34_below() {
    for kind in [ScenarioKind::LidDrivenCavity, ScenarioKind::TaylorGreenVortex] {
        for resolution in [8, 12, 24, 32] {
            let levels = census(&Scenario::new(kind, resolution));
            let what = format!("{} {resolution}³: {levels:?}", kind.name());
            assert_eq!(levels[0], (31, resolution - 1), "{what}");
            assert!(levels[1..].iter().all(|&(classes, _)| classes <= 34), "{what}");
            // Each coarsening halves the lines, and the runs with them.
            assert_eq!(levels[1].1, resolution / 2 - 1, "{what}");
        }
    }
}

#[test]
fn a_level_takes_classes_from_runs_of_16_on_and_only_then() {
    let diagonals = LevelStorage::Diagonals { diagonals: 27 };
    let classes = LevelStorage::RowClasses { classes: 31 };
    let sizes = [(8, diagonals), (12, diagonals), (16, diagonals), (20, classes), (32, classes)];
    for (resolution, fine) in sizes {
        let levels = storage(&Scenario::new(ScenarioKind::LidDrivenCavity, resolution));
        assert_eq!(levels[0], fine, "{resolution}³: {levels:?}");
        let (lu, smoothed) = levels.split_last().expect("at least two levels");
        assert_eq!(*lu, LevelStorage::DenseLu);
        assert!(smoothed[1..].iter().all(|&level| level == diagonals), "{resolution}³: {levels:?}");
    }
}

/// The banner names what the rows chose: classes on the 21-node lines of a
/// 20³ cavity and on the first two levels of the 48 × 12 × 12 channel (49-
/// and 25-node lines), diagonals on a 16³ cavity, and no hierarchy at all
/// on a scrambled node order — and, after the levels, each transfer's
/// storage: the lattice stencil on every transfer of these boxes.  Without
/// a hierarchy it names the cause: the 7³ cavity does not halve; the
/// 8 × 8 × 16 unit cube has flat elements, on which MG-CG to 1e-6 takes 152
/// iterations against plain CG's 81; the scrambled 8³ carries no lattice; a
/// coarse level of the jittered 12³ is too wide for diagonals.
#[test]
fn the_banner_names_the_storage_the_rows_chose() {
    let banner = |kind, resolution| {
        Stepper::new(Scenario::new(kind, resolution), StepperConfig::default()).describe_operators()
    };
    let cases = [
        (
            ScenarioKind::LidDrivenCavity,
            20,
            "mgcg (3 levels: 31 row classes | 27 diagonals | lu; transfers: stencil | stencil)",
        ),
        (
            ScenarioKind::LidDrivenCavity,
            16,
            "mgcg (4 levels: 27 diagonals | 27 diagonals | 27 diagonals | lu; \
             transfers: stencil | stencil | stencil)",
        ),
    ];
    for (kind, resolution, pressure) in cases {
        let line = banner(kind, resolution);
        assert!(line.ends_with(&format!("| pressure {pressure}")), "{line}");
    }
    let channel = banner(ScenarioKind::Channel, 12);
    assert!(channel.contains("pressure mgcg (3 levels: "), "{channel}");
    let levels = channel.split("| pressure ").nth(1).expect("a pressure clause");
    assert_eq!(levels.matches("row classes").count(), 2, "{channel}");
    assert!(channel.ends_with("; transfers: stencil | stencil)"), "{channel}");

    let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 8);
    let on = |mesh| {
        Stepper::with_mesh(scenario.clone(), StepperConfig::default(), mesh).describe_operators()
    };
    let flat = BoxMeshBuilder::new(8, 8, 16).lid_driven_cavity().build();
    let jittered = BoxMeshBuilder::new(12, 12, 12).lid_driven_cavity().with_jitter(0.1, 5).build();
    let causes = [
        (banner(ScenarioKind::LidDrivenCavity, 7), "the lattice does not halve"),
        (on(flat), "unequal element spacing"),
        (on(jittered), "a level has more than 32 diagonals"),
    ];
    for (line, cause) in causes {
        assert!(
            line.ends_with(&format!("| pressure cg (no multigrid hierarchy: {cause})")),
            "{line}"
        );
    }
}

/// The banner names the storage of the outer Poisson operator, which the
/// rows choose by the rule the levels use: the 34 exact `f64` classes of a
/// pinned uniform cavity (27 positions and the seven neighbours of the pin)
/// where its x-lines give runs of 19, 28 on the channel with its pinned
/// outflow plane, and the diagonals where the runs are short (16³, and the
/// 7³ cavity, which has no hierarchy either) or no two rows agree (the
/// jittered 12³).
#[test]
fn the_banner_names_the_outer_operator_s_storage() {
    let banner = |kind, resolution| {
        Stepper::new(Scenario::new(kind, resolution), StepperConfig::default()).describe_operators()
    };
    let jittered = BoxMeshBuilder::new(12, 12, 12).lid_driven_cavity().with_jitter(0.1, 5).build();
    let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 12);
    let cases = [
        (banner(ScenarioKind::LidDrivenCavity, 20), "34 row classes"),
        (banner(ScenarioKind::Channel, 12), "28 row classes"),
        (banner(ScenarioKind::LidDrivenCavity, 16), "27 diagonals"),
        (banner(ScenarioKind::LidDrivenCavity, 7), "27 diagonals"),
        (
            Stepper::with_mesh(scenario, StepperConfig::default(), jittered).describe_operators(),
            "27 diagonals",
        ),
    ];
    for (line, storage) in cases {
        assert!(line.contains(&format!("| laplacian {storage} (f64) | pressure ")), "{line}");
    }
}
