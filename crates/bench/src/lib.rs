//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (Section V).
//!
//! The [`datasets`] module builds the two evaluation datasets at a
//! configurable scale; [`experiments`] contains one driver per figure
//! (Fig. 5 through Fig. 12) plus the tables; [`report`] renders rows as
//! aligned text and CSV; [`observe`] threads optional JSONL tracing and
//! progress heartbeats through the drivers. The `repro` binary wires the
//! figure drivers to a CLI, and the Criterion benches under `benches/`
//! wrap the same drivers at reduced scale.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod datasets;
pub mod experiments;
pub mod observe;
pub mod report;

pub use datasets::{BenchDataset, DatasetKind, Scale};
pub use observe::Observe;
pub use report::Table;
