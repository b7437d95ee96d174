//! Umbrella crate re-exporting the workspace's public API, plus the
//! integration tests and examples that span crates.

#![forbid(unsafe_code)]

pub use matlib;
pub use soc_area;
pub use soc_backend;
pub use soc_bounds;
pub use soc_codegen;
pub use soc_cpu;
pub use soc_dse;
pub use soc_faults;
pub use soc_gemmini;
pub use soc_isa;
pub use soc_riscv;
pub use soc_scenarios;
pub use soc_serve;
pub use soc_sweep;
pub use soc_vector;
pub use soc_verify;
pub use tinympc;
