//! # midas-bench
//!
//! Criterion micro-benchmarks, the `repro_*` binaries that regenerate
//! every table and figure of the paper, and `repro_lint`, the workspace's
//! static-analysis gate. This tiny library holds their shared
//! formatting/reporting helpers. Nothing here times the system end to end
//! or gates a speed: that is `benchmark/` (bounds in `BENCHMARK.json`), and
//! correctness gates are `cargo test`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

pub use report::{print_table, write_json};
