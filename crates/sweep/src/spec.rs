//! Declarative sweep specifications: which design points to price.

use soc_backend::Platform;
use soc_cpu::CoreConfig;
use soc_dse::experiments::{KernelShape, Residency, Scenario};
use soc_dse::workloads;
use soc_gemmini::{GemminiConfig, GemminiOpts};
use soc_vector::SaturnConfig;

/// One standalone-kernel speedup grid in a sweep.
#[derive(Debug, Clone)]
pub struct HeatmapSpec {
    /// Section title in the report.
    pub title: String,
    /// Platform on top of the speedup ratio.
    pub numerator: Platform,
    /// Platform under the speedup ratio.
    pub denominator: Platform,
    /// GEMV or GEMM.
    pub shape: KernelShape,
    /// Cold (one-shot) or warm (steady-state) operands.
    pub residency: Residency,
    /// Matrix heights (rows of the grid).
    pub heights: Vec<usize>,
    /// Matrix widths (columns of the grid).
    pub widths: Vec<usize>,
}

impl HeatmapSpec {
    /// Kernel pricings this grid submits (two platforms per cell).
    pub fn work_items(&self) -> usize {
        2 * self.heights.len() * self.widths.len()
    }
}

/// A declarative sweep: a platform grid × horizons for end-to-end
/// solves of one scenario, plus standalone-kernel speedup grids.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Name shown in the report header.
    pub label: String,
    /// Workload every platform solves ([`Scenario::hover`] is the
    /// paper-compatible default).
    pub scenario: Scenario,
    /// MPC horizons to price every platform at.
    pub horizons: Vec<usize>,
    /// End-to-end solve platforms.
    pub platforms: Vec<Platform>,
    /// Standalone-kernel grids.
    pub heatmaps: Vec<HeatmapSpec>,
}

impl SweepSpec {
    /// The paper's full Table-I sweep — every registry platform at the
    /// paper's horizon — plus the headline Saturn-vs-Gemmini GEMV grid.
    pub fn full() -> Self {
        let heights = workloads::heatmap_heights();
        let widths = workloads::heatmap_widths();
        SweepSpec {
            label: "table1".to_string(),
            scenario: Scenario::hover(),
            horizons: vec![10],
            platforms: Platform::table1_registry(),
            heatmaps: vec![HeatmapSpec {
                title: "GEMV speedup: Saturn V512D512 over Gemmini OS 4x4 32KB (cold)".to_string(),
                numerator: Platform::saturn(CoreConfig::rocket(), SaturnConfig::v512d512()),
                denominator: Platform::gemmini(
                    CoreConfig::rocket(),
                    GemminiConfig::os_4x4_32kb(),
                    GemminiOpts::optimized(),
                ),
                shape: KernelShape::Gemv,
                residency: Residency::Cold,
                heights: heights[..4].to_vec(),
                widths: widths[..4].to_vec(),
            }],
        }
    }

    /// A seconds-scale subset for CI and the golden/determinism tests:
    /// one platform per back-end family, a short horizon, a 2×2 grid.
    pub fn smoke() -> Self {
        SweepSpec {
            label: "smoke".to_string(),
            scenario: Scenario::hover(),
            horizons: vec![8],
            platforms: vec![
                Platform::rocket_eigen(),
                Platform::saturn(CoreConfig::shuttle(), SaturnConfig::v512d256()),
                Platform::gemmini(
                    CoreConfig::rocket(),
                    GemminiConfig::os_4x4_32kb(),
                    GemminiOpts::optimized(),
                ),
            ],
            heatmaps: vec![HeatmapSpec {
                title: "GEMV speedup: Saturn V512D256 over Rocket (cold)".to_string(),
                numerator: Platform::saturn(CoreConfig::shuttle(), SaturnConfig::v512d256()),
                denominator: Platform::rocket_eigen(),
                shape: KernelShape::Gemv,
                residency: Residency::Cold,
                heights: vec![4, 8],
                widths: vec![4, 8],
            }],
        }
    }

    /// Re-targets the sweep at a different scenario (builder style):
    /// the same platform grid and heatmaps, solving another workload.
    #[must_use]
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Total work items (solves + kernel pricings) before deduplication.
    pub fn work_items(&self) -> usize {
        self.horizons.len() * self.platforms.len()
            + self
                .heatmaps
                .iter()
                .map(HeatmapSpec::work_items)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_spec_covers_the_table1_registry() {
        let spec = SweepSpec::full();
        assert_eq!(spec.platforms.len(), Platform::table1_registry().len());
        assert_eq!(spec.work_items(), 13 + 32);
    }

    #[test]
    fn smoke_spec_is_small() {
        let spec = SweepSpec::smoke();
        assert_eq!(spec.work_items(), 3 + 8);
        assert!(spec.work_items() < 20, "smoke must stay seconds-scale");
    }

    #[test]
    fn default_specs_solve_hover() {
        assert_eq!(SweepSpec::full().scenario, Scenario::hover());
        assert_eq!(SweepSpec::smoke().scenario, Scenario::hover());
        let retargeted = SweepSpec::smoke().with_scenario(Scenario::figure8());
        assert_eq!(retargeted.scenario, Scenario::figure8());
        assert_eq!(retargeted.work_items(), 3 + 8, "grid shape unchanged");
    }
}
