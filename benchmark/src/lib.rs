//! `cpma-benchmark`: the repository's benchmark harness (see README.md).
//!
//! The binary is in `main.rs`; the pieces are a library so that
//! `tests/` can exercise the statistics, the span recorder and the seeded
//! input generation on their own.

pub mod aa;
pub mod calib;
pub mod inproc;
pub mod inputs;
pub mod obsd;
pub mod report;
pub mod run;
pub mod service;
pub mod spans;
pub mod stats;
