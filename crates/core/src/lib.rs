//! MPFCI — Mining Probabilistic Frequent Closed Itemsets.
//!
//! Implementation of *"Discovering Threshold-based Frequent Closed
//! Itemsets over Probabilistic Data"* (Tong, Chen & Ding, ICDE 2012).
//!
//! Given an uncertain transaction database (tuple-uncertainty model), a
//! minimum support `min_sup` and a probabilistic frequent closed threshold
//! `pfct`, the miner returns every itemset whose *frequent closed
//! probability* — the total probability of possible worlds in which the
//! itemset is a frequent closed itemset — exceeds `pfct`. Computing that
//! probability is #P-hard (the paper's Theorem 3.1, reproduced
//! constructively in [`hardness`]), so the miner combines:
//!
//! * a depth-first **Bounding–Pruning–Checking** search ([`mpfci`]),
//! * **Chernoff–Hoeffding** pruning of probabilistically infrequent
//!   candidates (Lemma 4.1),
//! * structural **superset/subset** prunings on tid-set containment
//!   (Lemmas 4.2/4.3),
//! * **frequent-closed-probability bounds** from de Caen / Kwerel union
//!   inequalities (Lemma 4.4) in [`events`],
//! * the **`ApproxFCP`** Karp–Luby FPRAS for the remaining itemsets
//!   (Fig. 2) in [`fcp`], alongside exact inclusion–exclusion and
//!   possible-world oracles.
//!
//! A breadth-first variant ([`bfs`]), the Naive baseline ([`naive`]) and
//! per-run instrumentation ([`stats`]) complete the experimental surface
//! of the paper's Section V. All of them front through the [`miner`]
//! builder — `Miner::new(&db).min_sup(2).pfct(0.8).run()` — and a
//! long-running process wraps the database in a [`snapshot::Snapshot`]
//! so concurrent queries share one bound-input [`cache`], and [`serve`]
//! exposes snapshots as a concurrent network service. The
//! [`trace`] module adds pluggable observability: attach a [`MinerSink`]
//! via [`Miner::sink`] to receive node/pruning/evaluation events, JSONL
//! run traces and per-phase wall-clock timings. The [`metrics`] module turns
//! that event stream into quantitative distributions — log-bucketed
//! latency/size [`Histogram`]s in a mergeable, JSON-exportable
//! [`MetricsRegistry`].
//!
//! # Quick start
//!
//! ```
//! use pfcim_core::prelude::*;
//!
//! // The paper's running example (Table II).
//! let db = UncertainDatabase::parse_symbolic(&[
//!     ("a b c d", 0.9),
//!     ("a b c", 0.6),
//!     ("a b c", 0.7),
//!     ("a b c d", 0.9),
//! ]);
//! let outcome = Miner::new(&db).min_sup(2).pfct(0.8).run();
//! // Exactly {a,b,c} (fcp 0.8754) and {a,b,c,d} (fcp 0.81) qualify.
//! assert_eq!(outcome.results.len(), 2);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod args;
pub mod bfs;
pub mod cache;
pub mod config;
pub(crate) mod evaluator;
pub mod events;
pub mod exact;
pub mod fcp;
pub mod hardness;
mod http;
pub mod metrics;
pub mod miner;
pub mod mpfci;
pub mod naive;
pub mod par;
pub mod prelude;
pub mod profile;
pub mod result;
pub mod serve;
pub mod snapshot;
pub mod stats;
pub mod stream;
pub mod telemetry;
pub mod trace;

pub use args::CommonArgs;
pub use cache::SharedEventCache;
pub use config::{FcpMethod, MinerConfig, PruningConfig, SearchStrategy, Variant};
pub use events::{BoundTier, EventTable, NonClosureEvents};
pub use exact::{exact_fcp_by_worlds, exact_fcp_inclusion_exclusion, exact_pfci_set};
pub use fcp::{approx_fcp, approx_fcp_adaptive, approx_fcp_chunked};
pub use http::http_get;
pub use metrics::{lint_prometheus, Histogram, HistogramSink, HistogramSummary, MetricsRegistry};
pub use miner::{Algorithm, Miner, SinkedMiner};
pub use par::{
    scatter_instrumented, PoolGauges, PoolGaugesSnapshot, PoolSpan, PoolSpanKind, PoolTrace,
    WorkerGauges, MAX_TRACKED_WORKERS,
};
pub use profile::{Span, SpanId, SpanKind, SpanProfiler};
pub use result::{MiningOutcome, PatternDelta, Pfci};
pub use serve::{Client, ServeConfig, Server};
pub use snapshot::{Snapshot, DEFAULT_SNAPSHOT_CACHE_CAPACITY};
pub use stats::{DpAudit, KernelStats, MinerStats, PhaseTimers, RunLedger, TimedStats};
pub use stream::{StreamConfig, StreamMiner, StreamStats, StreamStep};
pub use telemetry::{
    FlightRecorder, Telemetry, TelemetryConfig, TelemetryEvent, TelemetryEventKind,
    TelemetrySample, TelemetrySink, TelemetryState, WordRing,
};
pub use trace::{
    parse_jsonl, DpDecision, FcpEvalKind, JsonlSink, MinerSink, NullSink, Phase, ProgressSink,
    PruneKind, RecordingSink, ShardableSink, ShardedSink, Tee, TraceEvent,
};
