//! Cold versus warm admission through the process-wide plant interner.
//!
//! This binary holds a single test, so its first admission is the
//! first use of the interner in the process: cold, one DARE per plant.
//! The second admission of the same plan must run no DARE at all and
//! still render the same report body.

use soc_serve::{plan_load, plant_reuse, run_bench, BenchConfig};

#[test]
fn warm_admission_reuses_every_plant_and_renders_the_cold_body() {
    let mut cfg = BenchConfig::new(2);
    cfg.sessions = 120;
    cfg.ticks = 24;
    let cohorts = plan_load(cfg.sessions, cfg.seed).cohorts.len() as u64;

    let before = plant_reuse();
    assert_eq!(before.built, 0, "the interner starts empty");
    let cold = run_bench(&cfg, &|| 0).expect("cold admission");
    let after_cold = plant_reuse();
    assert!(after_cold.built > 0, "a cold admission builds plants");
    assert_eq!(
        after_cold.built + after_cold.reused,
        cohorts,
        "one interner lookup per cohort"
    );

    let warm = run_bench(&cfg, &|| 0).expect("warm admission");
    let after_warm = plant_reuse();
    assert_eq!(
        after_warm.built, after_cold.built,
        "a warm admission runs no DARE"
    );
    assert_eq!(after_warm.reused, after_cold.reused + cohorts);

    assert_eq!(cold.report, warm.report);
}
