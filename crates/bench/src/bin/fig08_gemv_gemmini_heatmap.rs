//! Regenerates Figure 8: speedup of the GEMV hardware extension over the
//! original Gemmini mesh on randomly sized GEMV operations (fine-grained
//! mapping, Rocket-driven). The paper reports ~6x average from restoring
//! full PE utilization.

use soc_backend::Platform;
use soc_cpu::CoreConfig;
use soc_dse::experiments::{speedup_heatmap, KernelShape, Residency};
use soc_dse::report::heatmap_text;
use soc_dse::workloads::{heatmap_heights, heatmap_widths};
use soc_gemmini::{GemminiConfig, GemminiOpts};

fn main() {
    let plain = Platform::gemmini(
        CoreConfig::rocket(),
        GemminiConfig::os_4x4_32kb(),
        GemminiOpts::optimized(),
    );
    let gemv = Platform::gemmini(
        CoreConfig::rocket(),
        GemminiConfig::os_4x4_32kb().with_gemv_support(),
        GemminiOpts::optimized(),
    );
    let h = speedup_heatmap(
        &gemv,
        &plain,
        KernelShape::Gemv,
        Residency::Warm,
        &heatmap_heights(),
        &heatmap_widths(),
    );
    println!(
        "{}",
        heatmap_text(
            "Figure 8 — GEMV-Gemmini speedup over original Gemmini on random GEMVs",
            &h.heights,
            &h.widths,
            &h.values,
        )
    );
    println!(
        "arithmetic mean: {:.2}x (paper: ~6x, >4x from full utilization)",
        h.mean()
    );
}
