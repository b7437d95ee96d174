//! Golden-file tests: the stdout of `dse table1`, `dse scenarios`,
//! `dse sweep --smoke`, `dse faults` and `dse serve` is snapshotted
//! under `tests/golden/` and compared **exactly**. Cycle counts come
//! from deterministic integer trace simulation and every float is
//! printed with fixed formatting, so the reports are stable across
//! debug/release, thread counts, and machines.
//!
//! To regenerate after an intentional change to cycle models or report
//! formatting, run:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_reports
//! ```
//!
//! then inspect the diff of `tests/golden/*.txt` before committing —
//! an unexplained change in a golden file is a regression, not noise.

use std::path::PathBuf;
use std::process::Command;

fn dse(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dse"))
        .args(args)
        .output()
        .expect("spawn dse")
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` to the named golden file, or rewrites the file
/// when `UPDATE_GOLDEN=1` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "golden file {} missing — regenerate with UPDATE_GOLDEN=1 cargo test --test golden_reports",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden snapshot; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn table1_report_matches_golden() {
    let out = dse(&["table1"]);
    assert!(out.status.success());
    assert_golden("table1.txt", &String::from_utf8_lossy(&out.stdout));
}

#[test]
fn scenarios_report_matches_golden() {
    let out = dse(&["scenarios"]);
    assert!(out.status.success());
    assert_golden("scenarios.txt", &String::from_utf8_lossy(&out.stdout));
}

#[test]
fn sweep_smoke_report_matches_golden() {
    // --no-cache keeps the cache-stats footer deterministic (a cold,
    // disk-less run is all misses regardless of prior invocations);
    // shard timing goes to stderr and never reaches the snapshot.
    let out = dse(&["sweep", "--smoke", "--no-cache", "--jobs", "2"]);
    assert!(out.status.success());
    assert_golden("sweep_smoke.txt", &String::from_utf8_lossy(&out.stdout));
}

#[test]
fn sweep_scenario_smoke_report_matches_golden() {
    // The scenario axis changes the priced workload AND adds the
    // closed-loop tracking section — snapshot one non-default scenario
    // end to end so both stay stable.
    let out = dse(&[
        "sweep",
        "--scenario",
        "figure8",
        "--smoke",
        "--no-cache",
        "--jobs",
        "2",
    ]);
    assert!(out.status.success());
    assert_golden(
        "sweep_figure8_smoke.txt",
        &String::from_utf8_lossy(&out.stdout),
    );
}

#[test]
fn faults_smoke_report_matches_golden() {
    // The fault campaign's report body: detections, retries and ladder
    // rungs per back-end family, all from seeded simulation.
    let out = dse(&["faults", "--smoke"]);
    assert!(out.status.success());
    assert_golden("faults_smoke.txt", &String::from_utf8_lossy(&out.stdout));
}

#[test]
fn faults_rendezvous_full_report_matches_golden() {
    // The full campaign on rendezvous reaches the bounded-retry path of
    // the deadline solver, so this pins recovery as well as detection.
    let out = dse(&[
        "faults",
        "--campaign",
        "full",
        "--seed",
        "7",
        "--scenario",
        "rendezvous",
    ]);
    assert!(out.status.success());
    assert_golden(
        "faults_rendezvous_full.txt",
        &String::from_utf8_lossy(&out.stdout),
    );
}

#[test]
fn serve_report_matches_golden() {
    // Only the simulated-cycle report body is pinned; host timing goes
    // to stderr.
    let out = dse(&["serve", "--sessions", "60", "--ticks", "40", "--seed", "7"]);
    assert!(out.status.success());
    assert_golden("serve_smoke.txt", &String::from_utf8_lossy(&out.stdout));
}
