//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span has a name (the layer), start and end offsets from the
//! tracer's origin, its parent span and a request id shared by every
//! span of one request. Spans stay in memory until the run ends. A
//! disabled tracer records nothing, so untraced runs pay one branch per
//! boundary.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (see [`crate::report::LAYERS`]) or `bench` for the
    /// benchmark's own root spans.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Request id shared by the spans of one request.
    pub request: u64,
}

/// An in-memory span recorder for one thread.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An empty tracer with the same origin and setting, for another
    /// thread; merge it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.enabled, self.origin)
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, request);
        let out = f();
        self.exit();
        out
    }

    /// Append another thread's spans (same origin), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part of it its direct children cover (spans nest strictly).
    pub fn self_seconds(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .sum::<u64>() as f64
            * 1e-9
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.enter("core.miner", 1);
        t.span("core.events", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let total = (spans[0].end_ns - spans[0].start_ns) as f64 * 1e-9;
        let child = (spans[1].end_ns - spans[1].start_ns) as f64 * 1e-9;
        assert!((t.self_seconds("core.miner") - (total - child)).abs() < 1e-9);
        assert!(t.self_seconds("core.events") >= 0.005);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.span("core.miner", 1, || ());
        assert!(t.spans().is_empty());
    }
}
