//! # soc-bench — benchmark harness regenerating every table and figure.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper; see
//! `DESIGN.md` §5 for the experiment index and `EXPERIMENTS.md` for
//! recorded paper-vs-measured outcomes.

#![forbid(unsafe_code)]
