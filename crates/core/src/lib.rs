//! # soc-dse — design-space exploration for real-time optimal control
//!
//! The paper's primary contribution as a library: a framework that maps
//! the TinyMPC workload onto every hardware back-end in the design space
//! (scalar CPUs, Saturn vector configurations, Gemmini systolic arrays),
//! prices each kernel with the back-ends' cycle-level models, attaches the
//! calibrated ASAP7 area model, and produces the paper's comparisons —
//! per-kernel speedup breakdowns, random-size GEMV/GEMM speedup heatmaps,
//! end-to-end cycles-per-solve, and the area-vs-performance Pareto
//! frontier.
//!
//! ## Layout
//!
//! Back-end dispatch lives in the `soc-backend` crate: each family is a
//! [`soc_backend::BackendPipeline`] instance and
//! [`soc_backend::pipeline_for`] is the single point where a platform's
//! backend description resolves to behavior, and the configuration
//! registry (every Table I design point) is [`soc_backend::Platform`].
//! This crate consumes that seam:
//!
//! * [`experiments`] — runnable reproductions of each table and figure.
//! * [`workloads`] — random kernel-size generators for the heatmap
//!   sweeps.
//! * [`energy`] — a first-order energy model (an extension beyond the
//!   paper's published data; see its module docs).
//! * [`verify`] — sweeps the `soc-verify` static analyzer over every
//!   trace the pipelines feed their timing models.
//! * [`report`] — plain-text/markdown rendering of results.
//!
//! ## Quickstart
//!
//! ```
//! use soc_backend::Platform;
//! use soc_dse::experiments::solve_cycles;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rocket = Platform::rocket_eigen();
//! let outcome = solve_cycles(&rocket, 10)?;
//! assert!(outcome.result.converged);
//! assert!(outcome.result.total_cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod experiments;
pub mod report;
pub mod verify;
pub mod workloads;
