//! Regenerates Figure 17: per-kernel performance of Saturn V512D256
//! (Rocket frontend) on end-to-end TinyMPC, as speedup over the Rocket
//! scalar baseline.

use soc_backend::Platform;
use soc_cpu::CoreConfig;
use soc_dse::experiments::{kernel_speedups, solve_cycles};
use soc_dse::report::bar_chart;
use soc_vector::SaturnConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let saturn = Platform::saturn(CoreConfig::rocket(), SaturnConfig::v512d256());
    let baseline = Platform::rocket_eigen();
    println!("Figure 17 — Saturn V512D256 (Rocket) per-kernel speedup over Rocket\n");
    let speedups = kernel_speedups(&saturn, &baseline, 10)?;
    let bars: Vec<(String, f64)> = speedups.iter().map(|(k, s)| (k.to_string(), *s)).collect();
    println!("{}", bar_chart(&bars, 40));
    let e2e_s = solve_cycles(&saturn, 10)?.result.total_cycles;
    let e2e_r = solve_cycles(&baseline, 10)?.result.total_cycles;
    println!(
        "End-to-end: {:.2}x over Rocket (paper: 392,261/156,721 = 2.50x)",
        e2e_r as f64 / e2e_s as f64
    );
    println!("Expected shape vs Figure 16: wider DLEN helps the long strip-mining\nkernels, while the 4/12-element iterative kernels barely move.");
    Ok(())
}
