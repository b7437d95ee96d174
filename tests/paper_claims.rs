//! Integration tests asserting the paper's headline claims hold in the
//! reproduction — orderings and crossovers, not absolute numbers.

use soc_dse_repro::soc_backend::Platform;
use soc_dse_repro::soc_cpu::CoreConfig;
use soc_dse_repro::soc_dse::experiments::{
    pareto_frontier, solve_cycles, speedup_heatmap, table1, KernelShape, Residency,
};
use soc_dse_repro::soc_dse::workloads;
use soc_dse_repro::soc_gemmini::{GemminiConfig, GemminiOpts};
use soc_dse_repro::soc_vector::SaturnConfig;

fn cycles_of(name: &str, rows: &[soc_dse_repro::soc_dse::experiments::Table1Row]) -> u64 {
    rows.iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .cycles_per_solve
}

#[test]
fn pareto_frontier_matches_paper() {
    // The registry also carries OSGemminiShuttle32KB — a design point
    // registered beyond the paper's Table I. Figure 20 is a claim about
    // the paper's design points, so exclude the extension here; its own
    // frontier placement is asserted separately below.
    let mut rows = table1(10).expect("table 1");
    rows.retain(|r| r.name != "OSGemminiShuttle32KB");
    rows.sort_by(|a, b| a.area_um2.total_cmp(&b.area_um2));
    let frontier = pareto_frontier(
        &rows
            .iter()
            .map(|r| (r.area_um2, r.cycles_per_solve as f64))
            .collect::<Vec<_>>(),
    );
    let on: Vec<&str> = rows
        .iter()
        .zip(&frontier)
        .filter(|(_, &f)| f)
        .map(|(r, _)| r.name.as_str())
        .collect();
    assert_eq!(
        on,
        vec![
            "Rocket",
            "SmallBoom",
            "RefV512D128Rocket",
            "OSGemminiRocket32KB",
            "RefV512D128Shuttle",
            "RefV512D256Shuttle",
        ],
        "the Pareto frontier must match the paper's Figure 20"
    );
}

#[test]
fn shuttle_gemmini_extension_joins_the_frontier() {
    // The registration-only Shuttle-driven Gemmini point: the dual-issue
    // frontend trims the RoCC command-construction overhead, so it
    // solves slightly faster than the Rocket-driven mesh at larger area
    // and lands on the combined frontier between the two.
    let mut rows = table1(10).expect("table 1");
    rows.sort_by(|a, b| a.area_um2.total_cmp(&b.area_um2));
    let shuttle = cycles_of("OSGemminiShuttle32KB", &rows);
    let rocket = cycles_of("OSGemminiRocket32KB", &rows);
    assert!(
        shuttle < rocket,
        "Shuttle frontend must beat Rocket on the same mesh ({shuttle} vs {rocket})"
    );
    let frontier = pareto_frontier(
        &rows
            .iter()
            .map(|r| (r.area_um2, r.cycles_per_solve as f64))
            .collect::<Vec<_>>(),
    );
    let on = rows
        .iter()
        .zip(&frontier)
        .find(|(r, _)| r.name == "OSGemminiShuttle32KB")
        .map(|(_, &f)| f)
        .unwrap();
    assert!(on, "OSGemminiShuttle32KB must be Pareto-optimal");
}

#[test]
fn table1_orderings_hold() {
    let rows = table1(10).expect("table 1");
    // The BOOM family scales monotonically but stays above (worse than)
    // every accelerated design.
    let rocket = cycles_of("Rocket", &rows);
    let small = cycles_of("SmallBoom", &rows);
    let medium = cycles_of("MediumBoom", &rows);
    let large = cycles_of("LargeBoom", &rows);
    let mega = cycles_of("MegaBoom", &rows);
    assert!(rocket > small && small > medium && medium > large && large > mega);

    // Saturn: DLEN helps, Shuttle frontends help more (the paper's
    // frontend-bound short-vector story).
    let d128r = cycles_of("RefV512D128Rocket", &rows);
    let d256r = cycles_of("RefV512D256Rocket", &rows);
    let d128s = cycles_of("RefV512D128Shuttle", &rows);
    let d256s = cycles_of("RefV512D256Shuttle", &rows);
    assert!(d128r > d256r && d128s > d256s, "wider DLEN must help");
    assert!(
        d128r > d128s && d256r > d256s,
        "Shuttle frontends must help"
    );

    // Gemmini: the optimized OS design beats every Rocket-fronted Saturn
    // and roughly ties MegaBoom (the paper's 132.7k vs 134.4k); the
    // barely-optimized WS design is ~2.6x worse but still beats Rocket.
    let os = cycles_of("OSGemminiRocket32KB", &rows);
    let ws = cycles_of("WSGemminiRocket64KB", &rows);
    assert!(
        os < d128r && os < d256r,
        "OS Gemmini must beat Rocket-fronted Saturn"
    );
    assert!(
        os < mega * 11 / 10 && mega < os * 11 / 10,
        "OS Gemmini ~ MegaBoom"
    );
    let ratio = ws as f64 / os as f64;
    assert!(
        (1.8..3.5).contains(&ratio),
        "WS/OS ratio {ratio} out of the paper's ~2.6x band"
    );
    assert!(
        ws < rocket,
        "even unoptimized WS Gemmini beats scalar Rocket"
    );

    // Scratchpad capacity does not change performance (32 vs 64 KiB).
    assert_eq!(os, cycles_of("OSGemminiRocket64KB", &rows));
}

#[test]
fn end_to_end_speedups_in_paper_band() {
    let rocket = solve_cycles(&Platform::rocket_eigen(), 10)
        .unwrap()
        .result
        .total_cycles as f64;
    let check = |p: Platform, paper: f64| {
        let c = solve_cycles(&p, 10).unwrap().result.total_cycles as f64;
        let speedup = rocket / c;
        assert!(
            speedup > paper * 0.6 && speedup < paper * 1.6,
            "{}: speedup {speedup:.2} vs paper {paper:.2}",
            p.name
        );
    };
    check(
        Platform::saturn(CoreConfig::rocket(), SaturnConfig::v512d128()),
        2.29,
    );
    check(
        Platform::saturn(CoreConfig::rocket(), SaturnConfig::v512d256()),
        2.50,
    );
    check(
        Platform::saturn(CoreConfig::shuttle(), SaturnConfig::v512d128()),
        3.22,
    );
    check(
        Platform::saturn(CoreConfig::shuttle(), SaturnConfig::v512d256()),
        3.71,
    );
    check(
        Platform::gemmini(
            CoreConfig::rocket(),
            GemminiConfig::os_4x4_32kb(),
            GemminiOpts::optimized(),
        ),
        2.96,
    );
}

#[test]
fn gemv_hardware_extension_story() {
    let heights = workloads::heatmap_heights();
    let widths = workloads::heatmap_widths();
    let saturn = Platform::saturn(CoreConfig::rocket(), SaturnConfig::v512d512());
    let plain = Platform::gemmini(
        CoreConfig::rocket(),
        GemminiConfig::os_4x4_32kb(),
        GemminiOpts::optimized(),
    );
    let ext = Platform::gemmini(
        CoreConfig::rocket(),
        GemminiConfig::os_4x4_32kb().with_gemv_support(),
        GemminiOpts::optimized(),
    );

    // Figure 8: the extension restores mesh utilization (~6x warm).
    let f8 = speedup_heatmap(
        &ext,
        &plain,
        KernelShape::Gemv,
        Residency::Warm,
        &heights,
        &widths,
    );
    assert!(
        f8.mean() > 4.0,
        "fig 8 mean {:.2} must exceed the >4x utilization bound",
        f8.mean()
    );

    // Figure 13: Saturn beats the original Gemmini on GEMV (~2.78x).
    let f13 = speedup_heatmap(
        &saturn,
        &plain,
        KernelShape::Gemv,
        Residency::Cold,
        &heights,
        &widths,
    );
    assert!(f13.mean() > 1.8, "fig 13 mean {:.2}", f13.mean());

    // Figure 14: the extension flips the comparison (~2.34x).
    let f14 = speedup_heatmap(
        &ext,
        &saturn,
        KernelShape::Gemv,
        Residency::Cold,
        &heights,
        &widths,
    );
    assert!(f14.mean() > 1.2, "fig 14 mean {:.2}", f14.mean());
    assert!(
        f14.mean() > 1.0 / f13.mean(),
        "the extension must strictly improve Gemmini's standing vs Saturn"
    );
}

#[test]
fn gemm_crossover_matches_figure_15() {
    let saturn = Platform::saturn(CoreConfig::rocket(), SaturnConfig::v512d512());
    let gemmini = Platform::gemmini(
        CoreConfig::rocket(),
        GemminiConfig::os_4x4_32kb(),
        GemminiOpts::optimized(),
    );
    let small = speedup_heatmap(
        &saturn,
        &gemmini,
        KernelShape::Gemm,
        Residency::Cold,
        &[4, 8],
        &[4, 8],
    );
    let large = speedup_heatmap(
        &saturn,
        &gemmini,
        KernelShape::Gemm,
        Residency::Cold,
        &[64],
        &[48, 64],
    );
    assert!(
        small.mean() < 0.6,
        "Gemmini must win small GEMMs clearly: {:.2}",
        small.mean()
    );
    assert!(
        large.mean() > small.mean() * 2.0,
        "the gap must close for large GEMMs: small {:.2} vs large {:.2}",
        small.mean(),
        large.mean()
    );
}
