//! `pfcim serve` — a long-running concurrent mining service over
//! [`Snapshot`]s.
//!
//! One process loads one or more immutable snapshots and answers many
//! queries with differing `min_sup`/`pfct`/`ε`/`δ`, sharing each
//! snapshot's bound-input [`crate::cache::SharedEventCache`] across all
//! of them. Every query runs on the same engine as the batch CLI
//! ([`Snapshot::miner`] → [`crate::Miner`]), so exact-mode service
//! answers are bit-identical to batch runs at every thread count.
//!
//! # Wire protocol
//!
//! Length-prefixed JSONL over TCP: each frame is an ASCII decimal byte
//! length terminated by `\n`, followed by exactly that many bytes of
//! UTF-8 JSON. Requests and responses use the same framing; one
//! connection may carry any number of request/response pairs in order.
//! The very first byte of a connection decides the dialect: a digit
//! starts the framed query protocol, anything else is treated as an
//! HTTP/1.1 request and answered with the mounted telemetry routes
//! (`GET /metrics`, `/healthz`, `/flight`) — one listener serves both.
//!
//! A request is one flat JSON object:
//!
//! ```text
//! {"snapshot": "t2", "min_sup": 2, "pfct": 0.8,
//!  "epsilon": 0.1, "delta": 0.1,            // optional, paper defaults
//!  "algorithm": "dfs",                      // optional: dfs|bfs|naive
//!  "fcp_method": "auto",                    // optional: auto|exact|approx|adaptive
//!  "threads": 0,                            // optional, 0 = auto
//!  "seed": 99471425,                        // optional
//!  "deadline_ms": 2000}                     // optional per-query deadline
//! ```
//!
//! The response carries the result set plus the full per-query
//! observability surface — [`crate::MinerStats`], [`crate::KernelStats`],
//! the [`crate::DpAudit`] and the snapshot cache totals:
//!
//! ```text
//! {"status": "ok", "snapshot": "t2", "carved": false, "timed_out": false,
//!  "elapsed_s": 0.0012,
//!  "results": [{"items": [0, 1, 2], "fcp": 0.875400, "pr_f": 0.969400}, …],
//!  "stats": {…}, "kernel": {…}, "audit": {…},
//!  "cache": {"snapshot_hits": 31, "snapshot_misses": 9}}
//! ```
//!
//! `status` is `"ok"`, `"deadline_exceeded"` (the results are then a
//! sound partial subset, possibly empty) or `"error"` (with an `error`
//! string and no results).
//!
//! # Monotonicity carve
//!
//! The server keeps a small MRU of completed outcomes keyed by
//! `(snapshot, everything-but-pfct)`. A query at a *stricter* threshold
//! whose parameters otherwise match a cached outcome is answered by
//! filtering that outcome's result set when
//! [`crate::MiningOutcome::carve`] proves it sound — no re-mining, and
//! the carved answer is bit-identical to a direct run. Such responses
//! set `"carved": true`.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use crate::config::{FcpMethod, MinerConfig};
use crate::http;
use crate::miner::Algorithm;
use crate::result::MiningOutcome;
use crate::snapshot::Snapshot;
use crate::telemetry::Telemetry;

/// Hard cap on a single frame's declared length — a garbage length line
/// must not convince the server to allocate gigabytes.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Cap on a frame's length line, newline included: room for any `usize`
/// in decimal plus `\r\n`. A peer that sends digits and never a newline
/// is cut off here instead of growing the line buffer without limit.
pub const MAX_LENGTH_LINE_BYTES: u64 = 32;

/// How many completed outcomes the server retains for the monotonicity
/// carve, most recently used first.
pub const RESULT_CACHE_CAPACITY: usize = 16;

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Admission and deadline policy of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Queries mining at once; excess queries queue at admission (their
    /// deadline keeps ticking while queued). `0` is lifted to `1`.
    pub max_concurrent: usize,
    /// Deadline applied to queries that do not send `deadline_ms`.
    /// `None` lets such queries run to completion.
    pub default_deadline: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_concurrent: 4,
            default_deadline: None,
        }
    }
}

// ---------------------------------------------------------------------
// Admission semaphore (std-only)
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Semaphore {
    permits: Mutex<usize>,
    cv: Condvar,
}

/// A taken admission permit; dropping it (also while unwinding from a
/// panicking query) gives the permit back.
struct Permit<'a>(&'a Semaphore);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *lock(&self.0.permits) += 1;
        self.0.cv.notify_one();
    }
}

impl Semaphore {
    fn new(permits: usize) -> Self {
        Self {
            permits: Mutex::new(permits.max(1)),
            cv: Condvar::new(),
        }
    }

    /// Take a permit, giving up at `deadline`. Returns `None` when the
    /// deadline passed while queued.
    fn acquire_until(&self, deadline: Option<Instant>) -> Option<Permit<'_>> {
        let mut permits = lock(&self.permits);
        loop {
            if *permits > 0 {
                *permits -= 1;
                return Some(Permit(self));
            }
            match deadline {
                None => {
                    permits = self
                        .cv
                        .wait(permits)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    let (guard, _) = self
                        .cv
                        .wait_timeout(permits, d - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    permits = guard;
                }
            }
        }
    }
}

/// Lock `mutex`, recovering the guard if a panicking thread poisoned it.
/// Every lock of the server guards a value each critical section leaves
/// consistent (a permit count; the result list and the snapshot table,
/// changed by single `Vec` and `BTreeMap` operations), so a poisoned
/// one is still safe to use.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read the snapshot table, recovering from poison (see [`lock`]).
fn read(
    table: &RwLock<BTreeMap<String, Snapshot>>,
) -> RwLockReadGuard<'_, BTreeMap<String, Snapshot>> {
    table.read().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Flat JSON (requests are one flat object; std-only parser)
// ---------------------------------------------------------------------

/// A scalar value in a flat JSON request object.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

/// Parse one *flat* JSON object (string/number/bool/null values only —
/// requests never nest). Returns `(key, value)` pairs in input order.
fn parse_flat_object(text: &str) -> Result<Vec<(String, Scalar)>, String> {
    let mut chars = text.char_indices().peekable();
    let mut pairs = Vec::new();
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>| {
        while matches!(chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            chars.next();
        }
    };
    let parse_string =
        |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>| -> Result<String, String> {
            match chars.next() {
                Some((_, '"')) => {}
                other => return Err(format!("expected string, found {other:?}")),
            }
            let mut s = String::new();
            loop {
                match chars.next() {
                    Some((_, '"')) => return Ok(s),
                    Some((_, '\\')) => match chars.next() {
                        Some((_, '"')) => s.push('"'),
                        Some((_, '\\')) => s.push('\\'),
                        Some((_, '/')) => s.push('/'),
                        Some((_, 'n')) => s.push('\n'),
                        Some((_, 't')) => s.push('\t'),
                        Some((_, 'r')) => s.push('\r'),
                        Some((_, c)) => return Err(format!("unsupported escape \\{c}")),
                        None => return Err("unterminated escape".into()),
                    },
                    Some((_, c)) => s.push(c),
                    None => return Err("unterminated string".into()),
                }
            }
        };
    skip_ws(&mut chars);
    match chars.next() {
        Some((_, '{')) => {}
        other => return Err(format!("expected '{{', found {other:?}")),
    }
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
        return Ok(pairs);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ':')) => {}
            other => return Err(format!("expected ':', found {other:?}")),
        }
        skip_ws(&mut chars);
        let value = match chars.peek().copied() {
            Some((_, '"')) => Scalar::Str(parse_string(&mut chars)?),
            Some((start, c)) if c == '-' || c.is_ascii_digit() => {
                let mut end = start;
                while let Some(&(i, c)) = chars.peek() {
                    if c == '-'
                        || c == '+'
                        || c == '.'
                        || c == 'e'
                        || c == 'E'
                        || c.is_ascii_digit()
                    {
                        end = i + c.len_utf8();
                        chars.next();
                    } else {
                        break;
                    }
                }
                let raw = &text[start..end];
                Scalar::Num(
                    raw.parse::<f64>()
                        .map_err(|e| format!("bad number {raw:?}: {e}"))?,
                )
            }
            Some((start, c)) if c.is_ascii_alphabetic() => {
                let mut end = start;
                while let Some(&(i, c)) = chars.peek() {
                    if c.is_ascii_alphabetic() {
                        end = i + c.len_utf8();
                        chars.next();
                    } else {
                        break;
                    }
                }
                match &text[start..end] {
                    "true" => Scalar::Bool(true),
                    "false" => Scalar::Bool(false),
                    "null" => Scalar::Null,
                    other => return Err(format!("unexpected literal {other:?}")),
                }
            }
            other => {
                return Err(format!(
                    "unsupported value start {other:?} (flat objects only)"
                ))
            }
        };
        pairs.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => break,
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
    Ok(pairs)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Write one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, body: &str) -> io::Result<()> {
    writeln!(w, "{}", body.len())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Read one length-prefixed frame; `Ok(None)` on a clean EOF at a frame
/// boundary.
pub fn read_frame<R: BufRead>(r: &mut R) -> io::Result<Option<String>> {
    let mut line = String::new();
    let read = r
        .by_ref()
        .take(MAX_LENGTH_LINE_BYTES)
        .read_line(&mut line)?;
    if read == 0 {
        return Ok(None);
    }
    if read as u64 == MAX_LENGTH_LINE_BYTES && !line.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length line exceeds {MAX_LENGTH_LINE_BYTES} bytes"),
        ));
    }
    let len: usize = line.trim().parse().map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {line:?}"),
        )
    })?;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

// ---------------------------------------------------------------------
// Query request
// ---------------------------------------------------------------------

/// A parsed, validated query.
#[derive(Debug, Clone)]
struct QueryRequest {
    snapshot: String,
    config: MinerConfig,
    algorithm: Algorithm,
    deadline_ms: Option<u64>,
}

impl QueryRequest {
    fn parse(body: &str) -> Result<Self, String> {
        let pairs = parse_flat_object(body)?;
        let mut snapshot = None;
        let mut min_sup = None;
        let mut pfct = None;
        let mut config = MinerConfig::new(1, 0.5);
        let mut algorithm = Algorithm::Dfs;
        let mut deadline_ms = None;
        let num = |v: &Scalar, key: &str| match v {
            Scalar::Num(n) => Ok(*n),
            other => Err(format!("{key} must be a number, got {other:?}")),
        };
        for (key, value) in &pairs {
            match key.as_str() {
                "snapshot" => match value {
                    Scalar::Str(s) => snapshot = Some(s.clone()),
                    other => return Err(format!("snapshot must be a string, got {other:?}")),
                },
                "min_sup" => {
                    let n = num(value, key)?;
                    if n < 1.0 || n.fract() != 0.0 {
                        return Err("min_sup must be a positive integer".into());
                    }
                    min_sup = Some(n as usize);
                }
                "pfct" => {
                    let p = num(value, key)?;
                    if !(0.0..1.0).contains(&p) {
                        return Err("pfct must lie in [0, 1)".into());
                    }
                    pfct = Some(p);
                }
                "epsilon" => {
                    let e = num(value, key)?;
                    if e <= 0.0 {
                        return Err("epsilon must be positive".into());
                    }
                    config.epsilon = e;
                }
                "delta" => {
                    let d = num(value, key)?;
                    if d <= 0.0 || d >= 1.0 {
                        return Err("delta must lie in (0, 1)".into());
                    }
                    config.delta = d;
                }
                "threads" => {
                    let t = num(value, key)?;
                    if t < 0.0 || t.fract() != 0.0 {
                        return Err("threads must be a non-negative integer".into());
                    }
                    config.threads = t as usize;
                }
                "seed" => {
                    let s = num(value, key)?;
                    if s < 0.0 || s.fract() != 0.0 {
                        return Err("seed must be a non-negative integer".into());
                    }
                    config.seed = s as u64;
                }
                "deadline_ms" => {
                    let d = num(value, key)?;
                    if d < 0.0 || d.fract() != 0.0 {
                        return Err("deadline_ms must be a non-negative integer".into());
                    }
                    deadline_ms = Some(d as u64);
                }
                "algorithm" => match value {
                    Scalar::Str(s) => {
                        algorithm = match s.as_str() {
                            "dfs" => Algorithm::Dfs,
                            "bfs" => Algorithm::Bfs,
                            "naive" => Algorithm::Naive,
                            other => return Err(format!("unknown algorithm {other:?}")),
                        }
                    }
                    other => return Err(format!("algorithm must be a string, got {other:?}")),
                },
                "fcp_method" => match value {
                    Scalar::Str(s) => {
                        config.fcp_method = match s.as_str() {
                            "auto" => FcpMethod::default(),
                            "exact" => FcpMethod::ExactOnly,
                            "approx" => FcpMethod::ApproxOnly,
                            "adaptive" => FcpMethod::ApproxAdaptive,
                            other => return Err(format!("unknown fcp_method {other:?}")),
                        }
                    }
                    other => return Err(format!("fcp_method must be a string, got {other:?}")),
                },
                other => return Err(format!("unknown request key {other:?}")),
            }
        }
        config.min_sup = min_sup.ok_or("missing required key min_sup")?;
        config.pfct = pfct.ok_or("missing required key pfct")?;
        Ok(Self {
            snapshot: snapshot.ok_or("missing required key snapshot")?,
            config,
            algorithm,
            deadline_ms,
        })
    }

    /// Everything that identifies the query *except* `pfct` — the result
    /// cache key the monotonicity carve matches on. Threads are excluded
    /// on purpose: a carve-eligible outcome is exact-mode, and exact
    /// output is thread-count independent. The snapshot's invalidation
    /// `generation` is part of the key, so entries mined before an
    /// [`Snapshot::invalidate`] (or a [`Server::install`] of new window
    /// contents) can never answer queries against the new data.
    fn carve_key(&self, generation: u64) -> String {
        format!(
            "{}@{}|{:?}|{}|{:016x}|{:016x}|{:016x}|{:?}",
            self.snapshot,
            generation,
            self.algorithm,
            self.config.min_sup,
            self.config.epsilon.to_bits(),
            self.config.delta.to_bits(),
            self.config.seed,
            self.config.fcp_method,
        )
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct ServeCounters {
    queries: AtomicU64,
    ok: AtomicU64,
    carved: AtomicU64,
    deadline_exceeded: AtomicU64,
    errors: AtomicU64,
    active_connections: AtomicU64,
}

struct CacheEntry {
    key: String,
    pfct: f64,
    outcome: Arc<MiningOutcome>,
}

struct ServerInner {
    snapshots: RwLock<BTreeMap<String, Snapshot>>,
    cfg: ServeConfig,
    telemetry: Telemetry,
    counters: ServeCounters,
    admission: Semaphore,
    results: Mutex<Vec<CacheEntry>>,
    stop: AtomicBool,
}

/// The mining service: a TCP listener answering framed queries and
/// telemetry HTTP requests (see the [module docs](self)).
///
/// [`Server::bind`] starts the accept loop on a background thread;
/// [`Server::wait`] blocks until [`Server::shutdown`] (daemon mode), and
/// dropping the server also shuts it down.
pub struct Server {
    inner: Arc<ServerInner>,
    local: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Server({}, {} snapshots)",
            self.local,
            read(&self.inner.snapshots).len()
        )
    }
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` — port 0 picks a free port), load
    /// `snapshots`, and start accepting connections on a background
    /// thread. Returns once the listener is live; the bound address is
    /// [`Server::local_addr`].
    pub fn bind(addr: &str, snapshots: Vec<Snapshot>, cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let max_concurrent = cfg.max_concurrent.max(1);
        let inner = Arc::new(ServerInner {
            snapshots: RwLock::new(
                snapshots
                    .into_iter()
                    .map(|s| (s.name().to_owned(), s))
                    .collect(),
            ),
            cfg,
            telemetry: Telemetry::start(),
            counters: ServeCounters::default(),
            admission: Semaphore::new(max_concurrent),
            results: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("pfcim-serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_inner))?;
        Ok(Server {
            inner,
            local,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// The loaded snapshots, name-sorted (for status output and tests).
    /// Clones are cheap (two `Arc` bumps).
    pub fn snapshots(&self) -> Vec<Snapshot> {
        read(&self.inner.snapshots).values().cloned().collect()
    }

    /// Load or replace a snapshot while the server runs — the publish
    /// half of a [`crate::stream::StreamMiner`]-backed snapshot: each
    /// window refresh hands its new contents here. Replacing a name
    /// carries the old snapshot's invalidation generation forward (plus
    /// one), so result-cache entries keyed on the old generation stop
    /// matching; the entries themselves are also dropped eagerly.
    pub fn install(&self, snapshot: Snapshot) {
        let mut snapshots = self
            .inner
            .snapshots
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let name = snapshot.name().to_owned();
        if let Some(old) = snapshots.get(&name) {
            while snapshot.generation() <= old.generation() {
                snapshot.invalidate();
            }
        }
        snapshots.insert(name.clone(), snapshot);
        drop(snapshots);
        self.purge_results(&name);
    }

    /// Invalidate a loaded snapshot by name: bump its generation, drop
    /// its memoized event tables, and purge its carve-cache entries.
    /// Returns `false` when no snapshot has that name.
    pub fn invalidate(&self, name: &str) -> bool {
        let snapshots = read(&self.inner.snapshots);
        let Some(snapshot) = snapshots.get(name) else {
            return false;
        };
        snapshot.invalidate();
        drop(snapshots);
        self.purge_results(name);
        true
    }

    /// Drop result-cache entries belonging to `name` (their keys start
    /// with `name@generation|`).
    fn purge_results(&self, name: &str) {
        let prefix = format!("{name}@");
        let mut cache = lock(&self.inner.results);
        cache.retain(|e| !e.key.starts_with(&prefix));
    }

    /// Block until the accept loop exits (i.e. until another thread
    /// calls [`Server::shutdown`] or the process dies) — daemon mode.
    pub fn wait(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Stop accepting, join the accept loop, and shut telemetry down.
    /// In-flight connection threads finish their current response and
    /// exit on their own.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<ServerInner>) {
    while !inner.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_inner = Arc::clone(inner);
                conn_inner
                    .counters
                    .active_connections
                    .fetch_add(1, Ordering::Relaxed);
                let _ = std::thread::Builder::new()
                    .name("pfcim-serve-conn".into())
                    .spawn(move || {
                        let _ = handle_connection(stream, &conn_inner);
                        conn_inner
                            .counters
                            .active_connections
                            .fetch_sub(1, Ordering::Relaxed);
                    });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_connection(stream: TcpStream, inner: &Arc<ServerInner>) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    // Peek the first byte to pick the dialect: frames start with an
    // ASCII digit (the length line), HTTP verbs never do.
    let mut first = [0u8; 1];
    let n = stream.peek(&mut first)?;
    if n == 0 {
        return Ok(());
    }
    if first[0].is_ascii_digit() {
        handle_query_connection(stream, inner)
    } else {
        handle_http_connection(stream, inner)
    }
}

fn handle_query_connection(stream: TcpStream, inner: &Arc<ServerInner>) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    while let Some(body) = read_frame(&mut reader)? {
        // A panicking query answers with an error frame; its permit is
        // released on unwind and the connection keeps serving.
        let response = QueryRequest::parse(&body)
            .and_then(|request| {
                catch_unwind(AssertUnwindSafe(|| answer_query(&request, inner)))
                    .map_err(|payload| format!("query panicked: {}", panic_message(&*payload)))
            })
            .unwrap_or_else(|e| {
                inner.counters.errors.fetch_add(1, Ordering::Relaxed);
                format!("{{\"status\":\"error\",\"error\":\"{}\"}}", json_escape(&e))
            });
        write_frame(&mut writer, &response)?;
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
    }
    Ok(())
}

/// The message of a panic payload (`panic!` with a literal or a format
/// string), or a placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload")
}

/// Execute one query end to end: admission, carve lookup, mining,
/// result-cache insertion, response rendering.
fn answer_query(request: &QueryRequest, inner: &Arc<ServerInner>) -> String {
    inner.counters.queries.fetch_add(1, Ordering::Relaxed);
    let start = Instant::now();
    let snapshot = read(&inner.snapshots).get(&request.snapshot).cloned();
    let Some(snapshot) = snapshot else {
        inner.counters.errors.fetch_add(1, Ordering::Relaxed);
        return format!(
            "{{\"status\":\"error\",\"error\":\"unknown snapshot {}\"}}",
            json_escape(&request.snapshot)
        );
    };
    let snapshot = &snapshot;
    let deadline_ms = request
        .deadline_ms
        .map(Duration::from_millis)
        .or(inner.cfg.default_deadline);
    let deadline = deadline_ms.map(|d| start + d);

    let deadline_response = |inner: &ServerInner| {
        inner
            .counters
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
        format!(
            "{{\"status\":\"deadline_exceeded\",\"snapshot\":\"{}\",\"queued\":true,\
             \"results\":[],\"elapsed_s\":{:.6}}}",
            json_escape(snapshot.name()),
            start.elapsed().as_secs_f64()
        )
    };
    // An already-expired deadline is refused deterministically — before
    // the carve lookup, so the outcome never depends on cache state.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return deadline_response(inner);
    }

    // Monotonicity carve: an already-mined looser-threshold outcome with
    // otherwise identical parameters answers the query by filtering.
    let key = request.carve_key(snapshot.generation());
    if let Some((cached_pfct, outcome)) = lookup_carve(inner, &key, request.config.pfct) {
        if let Some(results) = outcome.carve(cached_pfct, request.config.pfct) {
            inner.counters.carved.fetch_add(1, Ordering::Relaxed);
            inner.counters.ok.fetch_add(1, Ordering::Relaxed);
            let carved = MiningOutcome {
                results,
                elapsed: start.elapsed(),
                ..(*outcome).clone()
            };
            return render_response("ok", snapshot, &carved, true, start.elapsed());
        }
    }
    // Admission: bounded mining concurrency; the deadline keeps ticking
    // while queued.
    let Some(permit) = inner.admission.acquire_until(deadline) else {
        return deadline_response(inner);
    };
    #[cfg(test)]
    if snapshot.name() == tests::PANICKING_SNAPSHOT {
        panic!("injected panic in a query of {}", tests::PANICKING_SNAPSHOT);
    }
    let mut config = request.config.clone();
    if let Some(d) = deadline {
        let remaining = d.saturating_duration_since(Instant::now());
        config.time_budget = Some(match config.time_budget {
            Some(b) => b.min(remaining),
            None => remaining,
        });
    }
    let mut sink = inner.telemetry.sink();
    let outcome = snapshot
        .miner()
        .config(config)
        .algorithm(request.algorithm)
        .sink(&mut sink)
        .run();
    drop(permit);

    let outcome = Arc::new(outcome);
    insert_outcome(inner, key, request.config.pfct, Arc::clone(&outcome));
    let status = if outcome.timed_out {
        inner
            .counters
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
        "deadline_exceeded"
    } else {
        inner.counters.ok.fetch_add(1, Ordering::Relaxed);
        "ok"
    };
    render_response(status, snapshot, &outcome, false, start.elapsed())
}

/// Best carve donor for `key` at `pfct`, promoted to the front of the
/// MRU on a hit — a hot looser-threshold outcome must not age out under
/// eviction pressure while it is still answering stricter queries.
fn lookup_carve(inner: &ServerInner, key: &str, pfct: f64) -> Option<(f64, Arc<MiningOutcome>)> {
    let mut cache = lock(&inner.results);
    let pos = cache
        .iter()
        .enumerate()
        .filter(|(_, e)| e.key == key && e.pfct <= pfct && pfct < e.outcome.carve_ceiling)
        .max_by(|(_, a), (_, b)| a.pfct.total_cmp(&b.pfct))
        .map(|(i, _)| i)?;
    let entry = cache.remove(pos);
    let hit = (entry.pfct, Arc::clone(&entry.outcome));
    cache.insert(0, entry);
    Some(hit)
}

fn insert_outcome(inner: &ServerInner, key: String, pfct: f64, outcome: Arc<MiningOutcome>) {
    let mut cache = lock(&inner.results);
    cache.retain(|e| !(e.key == key && e.pfct == pfct));
    cache.insert(0, CacheEntry { key, pfct, outcome });
    cache.truncate(RESULT_CACHE_CAPACITY);
}

fn render_response(
    status: &str,
    snapshot: &Snapshot,
    outcome: &MiningOutcome,
    carved: bool,
    elapsed: Duration,
) -> String {
    let mut out = String::with_capacity(256 + outcome.results.len() * 64);
    out.push_str(&format!(
        "{{\"status\":\"{status}\",\"snapshot\":\"{}\",\"carved\":{carved},\
         \"timed_out\":{},\"elapsed_s\":{:.6},\"results\":[",
        json_escape(snapshot.name()),
        outcome.timed_out,
        elapsed.as_secs_f64(),
    ));
    for (i, p) in outcome.results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ids: Vec<String> = p.items.iter().map(|it| it.0.to_string()).collect();
        out.push_str(&format!(
            "{{\"items\":[{}],\"fcp\":{:.6},\"pr_f\":{:.6}}}",
            ids.join(","),
            p.fcp,
            p.frequent_probability,
        ));
    }
    out.push(']');
    for (key, named) in [
        ("stats", &outcome.stats.named()[..]),
        ("kernel", &outcome.kernel.named()[..]),
        ("audit", &outcome.audit.named()[..]),
    ] {
        out.push_str(&format!(",\"{key}\":{{"));
        for (i, (name, value)) in named.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{value}"));
        }
        out.push('}');
    }
    out.push_str(&format!(
        ",\"carve_ceiling\":{:.6},\"cache\":{{\"snapshot_hits\":{},\"snapshot_misses\":{}}}}}",
        outcome.carve_ceiling,
        snapshot.cache().hits(),
        snapshot.cache().misses(),
    ));
    out
}

// ---------------------------------------------------------------------
// HTTP dialect: the mounted telemetry routes + service counters
// ---------------------------------------------------------------------

fn serve_metrics_text(inner: &ServerInner) -> String {
    let mut text = inner.telemetry.metrics_text();
    let c = &inner.counters;
    let counter = |text: &mut String, name: &str, value: u64| {
        text.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
    };
    counter(
        &mut text,
        "pfcim_serve_queries_total",
        c.queries.load(Ordering::Relaxed),
    );
    counter(
        &mut text,
        "pfcim_serve_ok_total",
        c.ok.load(Ordering::Relaxed),
    );
    counter(
        &mut text,
        "pfcim_serve_carved_total",
        c.carved.load(Ordering::Relaxed),
    );
    counter(
        &mut text,
        "pfcim_serve_deadline_exceeded_total",
        c.deadline_exceeded.load(Ordering::Relaxed),
    );
    counter(
        &mut text,
        "pfcim_serve_errors_total",
        c.errors.load(Ordering::Relaxed),
    );
    text.push_str(&format!(
        "# TYPE pfcim_serve_active_connections gauge\npfcim_serve_active_connections {}\n",
        c.active_connections.load(Ordering::Relaxed)
    ));
    let snapshots = read(&inner.snapshots);
    text.push_str(&format!(
        "# TYPE pfcim_serve_snapshots gauge\npfcim_serve_snapshots {}\n",
        snapshots.len()
    ));
    text.push_str("# TYPE pfcim_serve_snapshot_cache_hits_total counter\n");
    for (name, snap) in snapshots.iter() {
        text.push_str(&format!(
            "pfcim_serve_snapshot_cache_hits_total{{snapshot=\"{}\"}} {}\n",
            name,
            snap.cache().hits()
        ));
    }
    text.push_str("# TYPE pfcim_serve_snapshot_cache_misses_total counter\n");
    for (name, snap) in snapshots.iter() {
        text.push_str(&format!(
            "pfcim_serve_snapshot_cache_misses_total{{snapshot=\"{}\"}} {}\n",
            name,
            snap.cache().misses()
        ));
    }
    text.push_str("# TYPE pfcim_serve_snapshot_cache_contended_total counter\n");
    for (name, snap) in snapshots.iter() {
        text.push_str(&format!(
            "pfcim_serve_snapshot_cache_contended_total{{snapshot=\"{}\"}} {}\n",
            name,
            snap.cache().contended()
        ));
    }
    text
}

fn handle_http_connection(mut stream: TcpStream, inner: &Arc<ServerInner>) -> io::Result<()> {
    http::serve_connection(&mut stream, |path| match path {
        "/metrics" => http::prometheus(serve_metrics_text(inner)),
        "/healthz" => (200, "application/json", inner.telemetry.healthz_json()),
        "/flight" => (200, "application/x-ndjson", inner.telemetry.flight_jsonl()),
        "/" => (
            200,
            "text/plain",
            "pfcim serve: framed queries + /metrics /healthz /flight\n".to_owned(),
        ),
        _ => http::not_found(),
    })
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A blocking client for the framed query protocol — used by
/// `pfcim query`, the benchmark harness and the tests.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<Client> {
        let sock = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "bad address"))?;
        let stream = TcpStream::connect_timeout(&sock, timeout)?;
        stream.set_read_timeout(Some(timeout.max(Duration::from_secs(1)) * 60))?;
        stream.set_write_timeout(Some(timeout))?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request frame and read the matching response frame.
    pub fn request(&mut self, body: &str) -> io::Result<String> {
        write_frame(&mut self.writer, body)?;
        read_frame(&mut self.reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))
    }
}

/// One-shot convenience: connect, send a single query, return the
/// response body.
pub fn query_once(addr: &str, body: &str, timeout: Duration) -> io::Result<String> {
    Client::connect(addr, timeout)?.request(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::lint_prometheus;
    use utdb::UncertainDatabase;

    fn table4() -> UncertainDatabase {
        UncertainDatabase::parse_symbolic(&[
            ("a b c d", 0.9),
            ("a b c", 0.6),
            ("a b c", 0.7),
            ("a b c d", 0.9),
            ("a b", 0.4),
            ("a", 0.4),
        ])
    }

    fn start_server() -> Server {
        Server::bind(
            "127.0.0.1:0",
            vec![Snapshot::new("t4", table4())],
            ServeConfig::default(),
        )
        .expect("bind")
    }

    fn get(resp: &str, key: &str) -> Option<String> {
        // Test helper: pull a scalar out of a (possibly nested) response
        // by string matching on the flat key.
        let marker = format!("\"{key}\":");
        let at = resp.find(&marker)? + marker.len();
        let rest = &resp[at..];
        let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
        Some(rest[..end].trim_matches('"').to_owned())
    }

    #[test]
    fn parse_flat_object_handles_scalars() {
        let pairs =
            parse_flat_object(r#"{"s": "x\"y", "n": -1.5e2, "b": true, "z": null}"#).unwrap();
        assert_eq!(pairs[0], ("s".into(), Scalar::Str("x\"y".into())));
        assert_eq!(pairs[1], ("n".into(), Scalar::Num(-150.0)));
        assert_eq!(pairs[2], ("b".into(), Scalar::Bool(true)));
        assert_eq!(pairs[3], ("z".into(), Scalar::Null));
        assert!(parse_flat_object(r#"{"nested": {"x": 1}}"#).is_err());
        assert!(parse_flat_object("[1]").is_err());
        assert!(parse_flat_object("{}").unwrap().is_empty());
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None);
        let mut bad = BufReader::new(&b"999999999999\nx"[..]);
        assert!(read_frame(&mut bad).is_err());
    }

    /// A reader that counts the bytes taken from it.
    struct Counting<R> {
        inner: R,
        taken: u64,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.taken += n as u64;
            Ok(n)
        }
    }

    #[test]
    fn an_endless_length_line_is_refused_at_the_cap() {
        // One byte of buffer, so what the reader hands out is exactly
        // what read_frame consumed.
        let mut r = BufReader::with_capacity(
            1,
            Counting {
                inner: io::repeat(b'7').take(1 << 20),
                taken: 0,
            },
        );
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            r.get_ref().taken <= MAX_LENGTH_LINE_BYTES,
            "{}",
            r.get_ref().taken
        );
        // A length line that fills the cap exactly still parses.
        let width = MAX_LENGTH_LINE_BYTES as usize - 1;
        let padded = format!("{:0>width$}\nhello", 5);
        let mut r = BufReader::new(padded.as_bytes());
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello"));
    }

    /// JSON punctuation, digits, literal letters, an escape, a newline and
    /// non-ASCII bytes: the byte soup a hostile peer could send.
    const SOUP: &[u8] = b"{}[]\":,\\ -+.0123456789eEtrufalsn\n\r\xc3\xa9\xff";

    fn soup(picks: Vec<u8>) -> Vec<u8> {
        picks
            .into_iter()
            .map(|i| SOUP[i as usize % SOUP.len()])
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Arbitrary bytes give a frame or an error, never a panic.
        #[test]
        fn read_frame_never_panics(
            picks in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
        ) {
            let bytes = soup(picks);
            let mut r = BufReader::new(&bytes[..]);
            while let Ok(Some(_)) = read_frame(&mut r) {}
        }

        /// Arbitrary text gives pairs or an error, never a panic.
        #[test]
        fn parse_flat_object_never_panics(
            picks in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
        ) {
            let text = String::from_utf8_lossy(&soup(picks)).into_owned();
            let _ = parse_flat_object(&text);
            // Behind a brace the soup reaches the key/value parser.
            let _ = parse_flat_object(&format!("{{{text}"));
        }
    }

    #[test]
    fn query_request_validates() {
        let ok = QueryRequest::parse(
            r#"{"snapshot":"t4","min_sup":2,"pfct":0.6,"fcp_method":"exact","threads":1}"#,
        )
        .unwrap();
        assert_eq!(ok.snapshot, "t4");
        assert_eq!(ok.config.min_sup, 2);
        assert_eq!(ok.config.fcp_method, FcpMethod::ExactOnly);
        assert!(QueryRequest::parse(r#"{"min_sup":2,"pfct":0.6}"#).is_err());
        assert!(QueryRequest::parse(r#"{"snapshot":"t4","min_sup":0,"pfct":0.6}"#).is_err());
        assert!(QueryRequest::parse(r#"{"snapshot":"t4","min_sup":2,"pfct":1.0}"#).is_err());
        assert!(
            QueryRequest::parse(r#"{"snapshot":"t4","min_sup":2,"pfct":0.6,"bogus":1}"#).is_err()
        );
    }

    #[test]
    fn service_answers_match_batch_runs() {
        let server = start_server();
        let addr = server.local_addr().to_string();
        let direct = Snapshot::new("t4", table4())
            .miner()
            .min_sup(2)
            .pfct(0.6)
            .fcp_method(FcpMethod::ExactOnly)
            .run();
        let resp = query_once(
            &addr,
            r#"{"snapshot":"t4","min_sup":2,"pfct":0.6,"fcp_method":"exact"}"#,
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(get(&resp, "status").as_deref(), Some("ok"));
        assert_eq!(get(&resp, "carved").as_deref(), Some("false"));
        for p in &direct.results {
            let frag = format!("\"fcp\":{:.6}", p.fcp);
            assert!(resp.contains(&frag), "{resp}");
        }
        server.shutdown();
    }

    #[test]
    fn carve_answers_stricter_thresholds_from_cache() {
        let server = start_server();
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr, Duration::from_secs(5)).unwrap();
        let loose = client
            .request(r#"{"snapshot":"t4","min_sup":2,"pfct":0.6,"fcp_method":"exact"}"#)
            .unwrap();
        assert_eq!(get(&loose, "carved").as_deref(), Some("false"));
        let strict = client
            .request(r#"{"snapshot":"t4","min_sup":2,"pfct":0.7,"fcp_method":"exact"}"#)
            .unwrap();
        assert_eq!(get(&strict, "status").as_deref(), Some("ok"), "{strict}");
        assert_eq!(get(&strict, "carved").as_deref(), Some("true"), "{strict}");
        // The carved answer is bit-identical to a direct strict run.
        let direct = Snapshot::new("t4", table4())
            .miner()
            .min_sup(2)
            .pfct(0.7)
            .fcp_method(FcpMethod::ExactOnly)
            .run();
        for p in &direct.results {
            let frag = format!("\"fcp\":{:.6}", p.fcp);
            assert!(strict.contains(&frag), "{strict}");
        }
        server.shutdown();
    }

    #[test]
    fn unknown_snapshot_and_garbage_are_errors() {
        let server = start_server();
        let addr = server.local_addr().to_string();
        let resp = query_once(
            &addr,
            r#"{"snapshot":"nope","min_sup":2,"pfct":0.6}"#,
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(get(&resp, "status").as_deref(), Some("error"));
        let resp = query_once(&addr, "not json", Duration::from_secs(5)).unwrap();
        assert_eq!(get(&resp, "status").as_deref(), Some("error"));
        server.shutdown();
    }

    #[test]
    fn http_routes_are_mounted_on_the_same_listener() {
        let server = start_server();
        let addr = server.local_addr().to_string();
        // Prime a query so serve counters are nonzero.
        let _ = query_once(
            &addr,
            r#"{"snapshot":"t4","min_sup":2,"pfct":0.6,"fcp_method":"exact"}"#,
            Duration::from_secs(5),
        )
        .unwrap();
        let (status, body) =
            crate::http::http_get(&addr, "/metrics", Duration::from_secs(5)).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(lint_prometheus(&body).is_ok(), "{body}");
        assert!(body.contains("pfcim_serve_queries_total 1"), "{body}");
        assert!(
            body.contains("pfcim_serve_snapshot_cache_misses_total{snapshot=\"t4\"}"),
            "{body}"
        );
        let (status, body) =
            crate::http::http_get(&addr, "/healthz", Duration::from_secs(5)).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"status\""), "{body}");
        let (status, _) = crate::http::http_get(&addr, "/nope", Duration::from_secs(5)).unwrap();
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn deadline_zero_is_exceeded_without_mining() {
        let server = start_server();
        let addr = server.local_addr().to_string();
        let resp = query_once(
            &addr,
            r#"{"snapshot":"t4","min_sup":2,"pfct":0.6,"deadline_ms":0}"#,
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(
            get(&resp, "status").as_deref(),
            Some("deadline_exceeded"),
            "{resp}"
        );
        // Refusal is independent of cache state: even after the same
        // query succeeded (and populated the carve cache), an expired
        // deadline is still refused, never answered from cache.
        let ok = query_once(
            &addr,
            r#"{"snapshot":"t4","min_sup":2,"pfct":0.6}"#,
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(get(&ok, "status").as_deref(), Some("ok"), "{ok}");
        let resp = query_once(
            &addr,
            r#"{"snapshot":"t4","min_sup":2,"pfct":0.6,"deadline_ms":0}"#,
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(
            get(&resp, "status").as_deref(),
            Some("deadline_exceeded"),
            "{resp}"
        );
        server.shutdown();
    }

    #[test]
    fn concurrent_queries_share_the_snapshot_cache() {
        let server = start_server();
        let addr = server.local_addr().to_string();
        // The exact-mode result payload: everything between "results": and
        // ,"stats" — counters legitimately differ per query with a shared
        // cache, the results must not.
        fn results_of(resp: &str) -> &str {
            let start = resp.find("\"results\":").expect("results");
            let end = resp.find(",\"stats\"").expect("stats");
            &resp[start..end]
        }
        // Distinct seeds defeat the server's carve cache (seed is part of
        // its key), so every query genuinely mines — the seed itself is
        // irrelevant in exact mode.
        let request = |seed: usize| {
            format!(
                "{{\"snapshot\":\"t4\",\"min_sup\":2,\"pfct\":0.6,\
                 \"fcp_method\":\"exact\",\"seed\":{seed}}}"
            )
        };
        let reference = query_once(&addr, &request(0), Duration::from_secs(5)).unwrap();
        assert_eq!(
            get(&reference, "status").as_deref(),
            Some("ok"),
            "{reference}"
        );
        let handles: Vec<_> = (1..=4)
            .map(|seed| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    query_once(&addr, &request(seed), Duration::from_secs(30)).unwrap()
                })
            })
            .collect();
        let mut hits = 0u64;
        for h in handles {
            let resp = h.join().unwrap();
            assert_eq!(get(&resp, "carved").as_deref(), Some("false"), "{resp}");
            // Bit-identical result payloads across concurrent queries.
            assert_eq!(results_of(&resp), results_of(&reference));
            hits += get(&resp, "bound_cache_hits")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
        }
        assert!(hits > 0, "no cross-query cache hits");
        // Snapshot totals stayed consistent with per-query kernels.
        let snap = server.snapshots().into_iter().next().unwrap();
        assert!(snap.cache().hits() > 0);
        server.shutdown();
    }

    #[test]
    fn invalidate_defeats_the_carve_cache() {
        let server = start_server();
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr, Duration::from_secs(5)).unwrap();
        let loose = client
            .request(r#"{"snapshot":"t4","min_sup":2,"pfct":0.6,"fcp_method":"exact"}"#)
            .unwrap();
        assert_eq!(get(&loose, "carved").as_deref(), Some("false"));
        assert!(server.invalidate("t4"));
        assert!(!server.invalidate("nope"));
        // The stricter query would have carved from the cached loose
        // outcome; after invalidation it must mine afresh.
        let strict = client
            .request(r#"{"snapshot":"t4","min_sup":2,"pfct":0.7,"fcp_method":"exact"}"#)
            .unwrap();
        assert_eq!(get(&strict, "status").as_deref(), Some("ok"), "{strict}");
        assert_eq!(get(&strict, "carved").as_deref(), Some("false"), "{strict}");
        let snap = server.snapshots().into_iter().next().unwrap();
        assert_eq!(snap.generation(), 1);
        server.shutdown();
    }

    #[test]
    fn install_replaces_a_snapshot_without_serving_stale_results() {
        let server = start_server();
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr, Duration::from_secs(5)).unwrap();
        let before = client
            .request(r#"{"snapshot":"t4","min_sup":2,"pfct":0.6,"fcp_method":"exact"}"#)
            .unwrap();
        assert_eq!(get(&before, "status").as_deref(), Some("ok"), "{before}");
        // Publish different contents under the same name — as a
        // StreamMiner does after each window refresh.
        let next = UncertainDatabase::parse_symbolic(&[
            ("a b", 0.9),
            ("a b", 0.9),
            ("a b", 0.9),
            ("c", 0.2),
        ]);
        let direct = Snapshot::new("t4", next.clone())
            .miner()
            .min_sup(2)
            .pfct(0.6)
            .fcp_method(FcpMethod::ExactOnly)
            .run();
        server.install(Snapshot::new("t4", next));
        let after = client
            .request(r#"{"snapshot":"t4","min_sup":2,"pfct":0.6,"fcp_method":"exact"}"#)
            .unwrap();
        assert_eq!(get(&after, "status").as_deref(), Some("ok"), "{after}");
        assert_eq!(get(&after, "carved").as_deref(), Some("false"), "{after}");
        for p in &direct.results {
            let frag = format!("\"fcp\":{:.6}", p.fcp);
            assert!(after.contains(&frag), "{after}");
        }
        assert_ne!(before, after, "new window contents must change the answer");
        let snap = server.snapshots().into_iter().next().unwrap();
        assert!(
            snap.generation() > 0,
            "installing over a live name advances the generation"
        );
        server.shutdown();
    }

    #[test]
    fn carve_hits_promote_their_donor_to_the_front() {
        let server = start_server();
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr, Duration::from_secs(5)).unwrap();
        // Prime a loose donor, then bury it under distinct-seed entries.
        let _ = client
            .request(r#"{"snapshot":"t4","min_sup":2,"pfct":0.6,"fcp_method":"exact"}"#)
            .unwrap();
        for seed in 1..RESULT_CACHE_CAPACITY {
            let _ = client
                .request(&format!(
                    "{{\"snapshot\":\"t4\",\"min_sup\":2,\"pfct\":0.6,\
                     \"fcp_method\":\"exact\",\"seed\":{seed}}}"
                ))
                .unwrap();
        }
        // A carve from the donor moves it to the MRU front...
        let strict = client
            .request(r#"{"snapshot":"t4","min_sup":2,"pfct":0.7,"fcp_method":"exact"}"#)
            .unwrap();
        assert_eq!(get(&strict, "carved").as_deref(), Some("true"), "{strict}");
        // ...so a further insertion evicts something else and the donor
        // still answers. Without move-to-front the donor would now be the
        // LRU tail and the next insert would evict it.
        let _ = client
            .request(&format!(
                "{{\"snapshot\":\"t4\",\"min_sup\":2,\"pfct\":0.6,\
                 \"fcp_method\":\"exact\",\"seed\":{}}}",
                RESULT_CACHE_CAPACITY
            ))
            .unwrap();
        let again = client
            .request(r#"{"snapshot":"t4","min_sup":2,"pfct":0.65,"fcp_method":"exact"}"#)
            .unwrap();
        assert_eq!(get(&again, "carved").as_deref(), Some("true"), "{again}");
        server.shutdown();
    }

    /// Queries of a snapshot by this name panic right after admission.
    pub(super) const PANICKING_SNAPSHOT: &str = "panics";

    /// The result payload of a response (between `"results":` and
    /// `,"stats"`).
    fn payload(resp: &str) -> &str {
        let start = resp.find("\"results\":").expect("results");
        let end = resp.find(",\"stats\"").expect("stats");
        &resp[start..end]
    }

    #[test]
    fn a_panicking_query_leaks_no_permit_and_disturbs_no_other_query() {
        // One permit: a leaked one would leave every later mine queued
        // until its deadline.
        let server = Server::bind(
            "127.0.0.1:0",
            vec![
                Snapshot::new("t4", table4()),
                Snapshot::new(PANICKING_SNAPSHOT, table4()),
            ],
            ServeConfig {
                max_concurrent: 1,
                default_deadline: None,
            },
        )
        .expect("bind");
        let addr = server.local_addr().to_string();
        // Distinct seeds miss the carve cache, so every query mines; even
        // seeds query the panicking snapshot.
        let request = |seed: usize| {
            let snapshot = if seed.is_multiple_of(2) {
                PANICKING_SNAPSHOT
            } else {
                "t4"
            };
            format!(
                "{{\"snapshot\":\"{snapshot}\",\"min_sup\":2,\"pfct\":0.6,\
                 \"fcp_method\":\"exact\",\"seed\":{seed},\"deadline_ms\":20000}}"
            )
        };
        let reference = query_once(&addr, &request(101), Duration::from_secs(5)).unwrap();
        assert_eq!(get(&reference, "status").as_deref(), Some("ok"));
        let check = |seed: usize, resp: &str| {
            if seed.is_multiple_of(2) {
                assert_eq!(get(resp, "status").as_deref(), Some("error"), "{resp}");
                assert!(resp.contains("query panicked: injected panic"), "{resp}");
            } else {
                assert_eq!(get(resp, "status").as_deref(), Some("ok"), "{resp}");
                assert_eq!(payload(resp), payload(&reference));
            }
        };
        let handles: Vec<_> = (1..=8)
            .map(|seed| {
                let (addr, body) = (addr.clone(), request(seed));
                std::thread::spawn(move || query_once(&addr, &body, Duration::from_secs(30)))
            })
            .collect();
        for (seed, h) in (1..=8).zip(handles) {
            check(seed, &h.join().unwrap().unwrap());
        }
        // A connection whose query panicked keeps serving.
        let mut client = Client::connect(&addr, Duration::from_secs(5)).unwrap();
        for seed in 10..14 {
            check(seed, &client.request(&request(seed)).unwrap());
        }
        assert_eq!(*lock(&server.inner.admission.permits), 1);
        server.shutdown();
    }

    #[test]
    fn poisoned_server_locks_keep_serving() {
        let server = start_server();
        let inner = Arc::clone(&server.inner);
        let poisoner = std::thread::spawn(move || {
            let _permits = inner.admission.permits.lock().unwrap();
            let _results = inner.results.lock().unwrap();
            let _snapshots = inner.snapshots.write().unwrap();
            panic!("poison every server lock");
        });
        assert!(poisoner.join().is_err());
        let inner = &server.inner;
        assert!(inner.admission.permits.is_poisoned());
        assert!(inner.results.is_poisoned() && inner.snapshots.is_poisoned());
        let addr = server.local_addr().to_string();
        let ask = |pfct: f64| {
            let body = format!(
                "{{\"snapshot\":\"t4\",\"min_sup\":2,\"pfct\":{pfct},\"fcp_method\":\"exact\"}}"
            );
            query_once(&addr, &body, Duration::from_secs(5)).unwrap()
        };
        let mined = ask(0.6);
        assert_eq!(get(&mined, "status").as_deref(), Some("ok"), "{mined}");
        let carved = ask(0.7);
        assert_eq!(get(&carved, "carved").as_deref(), Some("true"), "{carved}");
        server.install(Snapshot::new("t4", table4()));
        assert!(server.invalidate("t4"));
        assert_eq!(server.snapshots().len(), 1);
        server.shutdown();
    }
}
