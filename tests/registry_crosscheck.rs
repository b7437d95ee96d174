//! Cross-checks the registry-driven pipeline stack against the golden
//! snapshots: every cycles-per-solve number in `tests/golden/table1.txt`
//! and `tests/golden/sweep_smoke.txt` must be reproducible by pricing
//! the named platform through `Platform::executor()` — i.e. through the
//! shared memoized pricer behind the `BackendPipeline` seam. A drift
//! here means the refactored dispatch changed timing semantics, which
//! the golden diff alone could disguise as an "intentional" regen.

use soc_dse_repro::soc_backend::Platform;
use soc_dse_repro::soc_dse::experiments::solve_cycles;
use soc_dse_repro::soc_sweep::SweepSpec;
use std::path::PathBuf;

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden file {} unreadable: {e}", path.display()))
}

/// Parses `| name | area | cycles | hz |` rows out of a markdown table,
/// returning `(name, cycles)` pairs.
fn table_rows(text: &str) -> Vec<(String, u64)> {
    text.lines()
        .filter_map(|line| {
            let cells: Vec<&str> = line
                .strip_prefix('|')?
                .strip_suffix('|')?
                .split('|')
                .map(str::trim)
                .collect();
            if cells.len() != 4 {
                return None;
            }
            let cycles: u64 = cells[2].parse().ok()?;
            Some((cells[0].to_string(), cycles))
        })
        .collect()
}

#[test]
fn table1_golden_rows_match_registry_pricing() {
    let rows = table_rows(&golden("table1.txt"));
    let registry = Platform::table1_registry();
    assert_eq!(
        rows.len(),
        registry.len(),
        "golden table1 row count must match the registry"
    );
    for (name, golden_cycles) in rows {
        let platform = registry
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("golden row `{name}` not in the registry"));
        let outcome = solve_cycles(platform, 10).unwrap();
        assert_eq!(
            outcome.result.total_cycles, golden_cycles,
            "{name}: registry pricing disagrees with the golden snapshot"
        );
    }
}

#[test]
fn sweep_smoke_golden_rows_match_registry_pricing() {
    let rows = table_rows(&golden("sweep_smoke.txt"));
    assert!(!rows.is_empty(), "no table rows parsed from sweep_smoke");
    let smoke = SweepSpec::smoke();
    assert_eq!(rows.len(), smoke.platforms.len());
    for (name, golden_cycles) in rows {
        let platform = smoke
            .platforms
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("golden row `{name}` not in the smoke spec"));
        let outcome = solve_cycles(platform, 8).unwrap();
        assert_eq!(
            outcome.result.total_cycles, golden_cycles,
            "{name}: registry pricing disagrees with the golden snapshot"
        );
    }
}
