//! Observability plumbing for the experiment drivers.
//!
//! [`Observe`] bundles the optional run-level sinks the `repro` binary
//! can enable — a [`JsonlSink`] (`--trace FILE.jsonl`), a
//! [`ProgressSink`] (`--progress`) and a [`HistogramSink`]
//! (`--metrics FILE.json`) — and mediates every mining run the
//! drivers perform. It also sums those runs' [`RunLedger`]s, so a
//! written trace can be reconciled event-by-event against the printed
//! aggregates ([`Observe::finish`]).

use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};

use pfcim_core::trace::parse_jsonl;
use pfcim_core::{
    Algorithm, HistogramSink, JsonlSink, Miner, MinerConfig, MiningOutcome, ProgressSink,
    RunLedger, Tee, TelemetrySink,
};
use utdb::UncertainDatabase;

/// Optional per-run observers threaded through the experiment drivers,
/// plus the aggregate counters of every run they mediated.
#[derive(Default)]
pub struct Observe {
    trace: Option<(PathBuf, JsonlSink<BufWriter<File>>)>,
    progress: Option<ProgressSink>,
    metrics: Option<(PathBuf, HistogramSink)>,
    telemetry: Option<TelemetrySink>,
    /// Counter totals over every mediated run.
    pub ledger: RunLedger,
    /// Number of mining runs mediated.
    pub runs: u64,
}

impl Observe {
    /// No observers; runs are mediated (totals still accumulate) with
    /// zero callback overhead.
    pub fn none() -> Self {
        Self::default()
    }

    /// Stream a JSONL trace of every mediated run to `path`.
    pub fn with_trace(mut self, path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let sink = JsonlSink::create(&path)?;
        self.trace = Some((path, sink));
        Ok(self)
    }

    /// Print a throttled stderr heartbeat during mediated runs.
    pub fn with_progress(mut self) -> Self {
        self.progress = Some(ProgressSink::new());
        self
    }

    /// Feed every mediated run into a live-telemetry sink (`--telemetry
    /// ADDR` — the session itself, with its sampler and scrape endpoint,
    /// is owned by the binary; see
    /// [`CommonArgs::start_telemetry`](pfcim_core::CommonArgs::start_telemetry)).
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Accumulate every mediated run into a [`HistogramSink`] and write
    /// the registry snapshot (counters, latency/size histogram
    /// summaries, the DP decision audit) as one JSON object to `path`
    /// on [`Observe::finish`].
    pub fn with_metrics(mut self, path: impl AsRef<Path>) -> Self {
        self.metrics = Some((path.as_ref().to_path_buf(), HistogramSink::new()));
        self
    }

    /// True when a trace, progress, metrics or telemetry observer is
    /// attached.
    pub fn is_active(&self) -> bool {
        self.trace.is_some()
            || self.progress.is_some()
            || self.metrics.is_some()
            || self.telemetry.is_some()
    }

    /// The composed sink over whatever observers are attached.
    /// `Option<S>` sinks forward when `Some` and discard when `None`, so
    /// one expression covers all attachment combinations — with nothing
    /// attached, `is_enabled()` is false and the miners skip callbacks.
    #[allow(clippy::type_complexity)]
    fn sink(
        &mut self,
    ) -> Tee<
        Option<&mut TelemetrySink>,
        Tee<
            Option<&mut JsonlSink<BufWriter<File>>>,
            Tee<Option<&mut ProgressSink>, Option<&mut HistogramSink>>,
        >,
    > {
        Tee(
            self.telemetry.as_mut(),
            Tee(
                self.trace.as_mut().map(|(_, sink)| sink),
                Tee(
                    self.progress.as_mut(),
                    self.metrics.as_mut().map(|(_, sink)| sink),
                ),
            ),
        )
    }

    /// Run the configured miner (DFS/BFS per `cfg.search`) under the
    /// attached observers.
    pub fn run(&mut self, db: &UncertainDatabase, cfg: &MinerConfig) -> MiningOutcome {
        let outcome = Miner::new(db)
            .config(cfg.clone())
            .sink(&mut self.sink())
            .run();
        self.absorb(&outcome);
        outcome
    }

    /// Run the Naive baseline under the attached observers.
    pub fn run_naive(&mut self, db: &UncertainDatabase, cfg: &MinerConfig) -> MiningOutcome {
        let outcome = Miner::new(db)
            .config(cfg.clone())
            .algorithm(Algorithm::Naive)
            .sink(&mut self.sink())
            .run();
        self.absorb(&outcome);
        outcome
    }

    fn absorb(&mut self, outcome: &MiningOutcome) {
        self.ledger.absorb(&outcome.ledger());
        self.runs += 1;
    }

    /// Flush the trace (if any) and reconcile it: parse the file back,
    /// aggregate its events through a [`RunLedger`], and compare
    /// against the live totals. Returns a human-readable summary, or an
    /// error describing the flush/parse/reconciliation failure.
    ///
    /// Consumes the observer — call once, after the last run.
    pub fn finish(mut self) -> Result<Option<String>, String> {
        let mut summaries = Vec::new();
        if let Some((path, sink)) = self.metrics.take() {
            let json = sink.snapshot().to_json();
            std::fs::write(&path, json + "\n")
                .map_err(|e| format!("writing metrics {}: {e}", path.display()))?;
            summaries.push(format!(
                "metrics {}: snapshot over {} runs written",
                path.display(),
                sink.runs()
            ));
        }
        let Some((path, sink)) = self.trace.take() else {
            return Ok(if summaries.is_empty() {
                None
            } else {
                Some(summaries.join("\n# "))
            });
        };
        // A mid-run write failure is latched inside the sink and
        // surfaces here; the event count says how much trace survived.
        let written = sink.lines_written();
        sink.finish().map_err(|e| {
            format!(
                "trace {} failed after {written} events: {e}",
                path.display()
            )
        })?;
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("re-reading {}: {e}", path.display()))?;
        let events = parse_jsonl(&text).map_err(|e| e.to_string())?;
        let mut counted = RunLedger::default();
        for event in &events {
            counted.absorb_event(event);
        }
        if counted.stats != self.ledger.stats {
            return Err(format!(
                "trace/stats mismatch:\n  trace  {}\n  stats  {}",
                counted.stats, self.ledger.stats
            ));
        }
        summaries.push(format!(
            "trace {}: {} events over {} runs reconcile with live stats [{}]",
            path.display(),
            events.len(),
            self.runs,
            self.ledger.stats
        ));
        Ok(Some(summaries.join("\n# ")))
    }
}
