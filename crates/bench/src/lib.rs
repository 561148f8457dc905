//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (Section 6).
//!
//! The `experiments` binary exposes one subcommand per table/figure; this
//! library holds the shared machinery: running a `Linker` over a
//! `DatasetPair`, scoring it with the paper's PC/PQ/RR measures, averaging
//! over trials, and emitting markdown + JSON reports.

pub mod report;
pub mod runner;

pub use report::{write_json, Table};
pub use runner::{average, run_linker, MethodResult};
