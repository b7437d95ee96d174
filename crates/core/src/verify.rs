//! Glue between the [`Platform`] registry and the `soc-verify` static
//! analyzer: sweep every trace a platform's pipeline feeds its timing
//! model and collect the findings.
//!
//! The pipelines already run these checks as debug assertions on every
//! simulated trace (see `soc_backend::BackendPipeline::steady_cycles`);
//! this module exists for the `dse verify` subcommand and the
//! release-build integration tests, which want the full [`Report`]s
//! rather than a panic on first error.

use soc_backend::pipeline_for;
use soc_backend::Platform;
use soc_cpu::CoreConfig;
use soc_gemmini::{GemminiConfig, GemminiOpts, IsaStyle};
use soc_vector::{SaturnConfig, VectorStyle};
use soc_verify::{Report, VerifyConfig};
use tinympc::{KernelId, ProblemDims};

/// The analyzer's findings for one generated trace.
pub struct TraceReport {
    /// Kernel name, or `"workspace-preload"` for Gemmini's setup trace.
    pub trace: String,
    /// The combined findings of every verifier pass.
    pub report: Report,
}

/// Verifier configuration appropriate for `platform`'s back-end: the
/// scratchpad-residency pass runs only for design points whose pipeline
/// declares a scratchpad geometry.
pub fn verify_config(platform: &Platform) -> VerifyConfig {
    pipeline_for(platform).verify_config()
}

/// Statically verifies every trace `platform`'s pipeline feeds its timing
/// model — the double-emission trace of each TinyMPC kernel, plus the
/// workspace-preload trace for scratchpad-resident mappings — and
/// returns one report per trace.
pub fn verify_platform(platform: &Platform, dims: &ProblemDims) -> Vec<TraceReport> {
    let pipeline = pipeline_for(platform);
    let cfg = pipeline.verify_config();
    let mut out = Vec::new();
    for k in KernelId::ALL {
        let (trace, _) = pipeline.timed_trace(k, dims);
        out.push(TraceReport {
            trace: k.to_string(),
            report: soc_verify::verify(&trace, &cfg),
        });
    }
    let setup = pipeline.setup_trace(dims);
    if !setup.ops().is_empty() {
        out.push(TraceReport {
            trace: "workspace-preload".into(),
            report: soc_verify::verify(&setup, &cfg),
        });
    }
    out
}

/// Every shipped codegen configuration: the Table I registry plus the
/// software-mapping ablations the experiments sweep — the `matlib`
/// library mappings, the uniform-LMUL grid of Figure 4, and each Gemmini
/// optimization toggled off the optimized mapping.
pub fn shipped_configurations() -> Vec<Platform> {
    let mut v = Platform::table1_registry();
    v.push(Platform::rocket_matlib());
    v.push(Platform::saturn_with(
        CoreConfig::rocket(),
        SaturnConfig::v512d256(),
        VectorStyle::Matlib,
        None,
    ));
    for lmul in [1, 2, 4, 8] {
        v.push(Platform::saturn_with(
            CoreConfig::rocket(),
            SaturnConfig::v512d256(),
            VectorStyle::Fused,
            Some(lmul),
        ));
    }
    let config = GemminiConfig::os_4x4_32kb();
    let opt = GemminiOpts::optimized();
    let ablations = [
        ("baseline", GemminiOpts::baseline()),
        (
            "coarse-isa",
            GemminiOpts {
                isa: IsaStyle::Coarse,
                ..opt
            },
        ),
        (
            "dynamic-mapping",
            GemminiOpts {
                static_mapping: false,
                ..opt
            },
        ),
        (
            "no-residency",
            GemminiOpts {
                scratchpad_resident: false,
                ..opt
            },
        ),
        (
            "no-fusion",
            GemminiOpts {
                fuse_activation: false,
                ..opt
            },
        ),
        (
            "no-pooling",
            GemminiOpts {
                pooling_reduction: false,
                ..opt
            },
        ),
    ];
    for (tag, opts) in ablations {
        let mut p = Platform::gemmini(CoreConfig::rocket(), config, opts);
        p.name = format!("OSGemminiRocket32KB [{tag}]");
        v.push(p);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> ProblemDims {
        ProblemDims {
            nx: 12,
            nu: 4,
            horizon: 10,
        }
    }

    #[test]
    fn gemmini_platforms_get_a_spad_config() {
        let reg = Platform::table1_registry();
        let gem = reg.iter().find(|p| p.name.contains("Gemmini")).unwrap();
        assert!(verify_config(gem).spad.is_some());
        let rocket = reg.iter().find(|p| p.name == "Rocket").unwrap();
        assert!(verify_config(rocket).spad.is_none());
    }

    #[test]
    fn shipped_configurations_extend_table1() {
        let shipped = shipped_configurations();
        assert!(shipped.len() > Platform::table1_registry().len());
        assert!(shipped.iter().any(|p| p.name.contains("[baseline]")));
    }

    #[test]
    fn verify_platform_reports_every_kernel() {
        let reports = verify_platform(&Platform::rocket_eigen(), &dims());
        assert_eq!(reports.len(), KernelId::ALL.len());
    }

    #[test]
    fn scratchpad_resident_gemmini_includes_the_preload_trace() {
        let reg = Platform::table1_registry();
        let gem = reg
            .iter()
            .find(|p| p.name == "OSGemminiRocket32KB")
            .unwrap();
        let reports = verify_platform(gem, &dims());
        assert_eq!(reports.len(), KernelId::ALL.len() + 1);
        assert!(reports.iter().any(|r| r.trace == "workspace-preload"));
    }
}
