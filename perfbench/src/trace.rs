//! In-memory spans recorded around every call the benchmark makes into a
//! layer, reduced to per-layer busy and self times when the run ends.
//!
//! Spans are recorded only while tracing is enabled; when it is off,
//! [`record`] is one relaxed atomic load and a direct call. Every span
//! carries the id of the request it belongs to (set per thread with
//! [`begin_request`]) and a workload-defined tag (engine × query class,
//! say), so spans of one request can be nested and their self time taken.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// What a span timed: one call into one layer's public API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// One workload-level request: a query, an audit, or a transfer.
    Request,
    /// `Cluster::begin`: cluster pin registration.
    ShardBegin,
    /// `ClusterTxn::commit`.
    ShardCommit,
    /// `ClusterSnapshot::read` / `ClusterTxn::read`: per-shard read guards.
    ShardReadGuard,
    /// `TxnManager::begin`: read lock plus pin registration.
    TxnBegin,
    /// `Transaction::snapshot`: the shared state lock.
    TxnSnapshot,
    /// `Transaction::commit`: validate, apply, log, publish, durable wait.
    TxnCommit,
    /// `BitemporalEngine::scan`.
    EngineScan,
    /// `BitemporalEngine::lookup_key`.
    EngineLookup,
    /// `insert` / `update` / `delete` / `overwrite_app_period`.
    EngineDml,
    /// `BitemporalEngine::commit`.
    EngineCommit,
    /// `Write::write` on the WAL sink.
    WalWrite,
    /// `WalSink::sync` on the WAL sink.
    WalSync,
}

/// One recorded span. Times are nanoseconds since the process's trace
/// epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Request id (0: outside any request).
    pub req: u64,
    /// Workload-defined tag of the request.
    pub tag: u32,
    /// What was called.
    pub kind: Kind,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Work the call reported.
    pub work: Work,
}

/// Work counted at a span's boundary: what an engine scan reported in its
/// `ScanOutput`, or what a sink call moved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Rows returned.
    pub rows: u64,
    /// Version records examined.
    pub visited: u64,
    /// Rows the chosen access paths were estimated to visit.
    pub planned: u64,
    /// Slots resolved through an index probe.
    pub probes: u64,
    /// Probed slots that survived every filter.
    pub hits: u64,
    /// Index entries examined while probing.
    pub node_visits: u64,
    /// Morsels a scan was split into (sequential scans only).
    pub morsels: u64,
    /// Bytes written (sink spans).
    pub bytes: u64,
}

impl Work {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Work) {
        self.rows += other.rows;
        self.visited += other.visited;
        self.planned += other.planned;
        self.probes += other.probes;
        self.hits += other.hits;
        self.node_visits += other.node_visits;
        self.morsels += other.morsels;
        self.bytes += other.bytes;
    }
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_REQ: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static CURRENT: Cell<(u64, u32)> = const { Cell::new((0, 0)) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// True while spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off (process-wide, including the WAL
/// flusher threads).
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// A fresh request id.
pub fn next_request_id() -> u64 {
    NEXT_REQ.fetch_add(1, Ordering::Relaxed)
}

/// Starts a new request on this thread: later spans recorded here carry its
/// id and `tag` until the next call.
pub fn begin_request(tag: u32) -> u64 {
    let id = next_request_id();
    CURRENT.with(|c| c.set((id, tag)));
    id
}

/// Records a span of `kind` around `f`, attributed to this thread's current
/// request.
pub fn record<T>(kind: Kind, f: impl FnOnce() -> T) -> T {
    record_work(kind, f, |_| Work::default())
}

/// [`record`], also storing the work `work` reads off the call's result.
pub fn record_work<T>(kind: Kind, f: impl FnOnce() -> T, work: impl FnOnce(&T) -> Work) -> T {
    if !enabled() {
        return f();
    }
    let (req, tag) = CURRENT.with(Cell::get);
    record_in(req, tag, kind, f, work)
}

/// Records a span around `f` attributed to an explicit request (used on
/// threads that serve many requests, like the WAL flusher).
pub fn record_in<T>(
    req: u64,
    tag: u32,
    kind: Kind,
    f: impl FnOnce() -> T,
    work: impl FnOnce(&T) -> Work,
) -> T {
    if !enabled() {
        return f();
    }
    let start = now_ns();
    let out = f();
    let end = now_ns();
    let work = work(&out);
    SPANS.lock().expect("span buffer poisoned").push(Span {
        req,
        tag,
        kind,
        start,
        end,
        work,
    });
    out
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// A span with its self time: its duration minus the part covered by the
/// spans of the same request nested inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reduced {
    /// The span.
    pub span: Span,
    /// Self time, ns.
    pub self_ns: u64,
}

/// Computes every span's self time. Spans of one request nest properly
/// (they are recorded around synchronous calls on one thread), so a stack
/// walk in start order finds each span's direct children.
pub fn reduce(mut spans: Vec<Span>) -> Vec<Reduced> {
    spans.sort_by(|a, b| {
        (a.req, a.start, std::cmp::Reverse(a.end), a.kind).cmp(&(
            b.req,
            b.start,
            std::cmp::Reverse(b.end),
            b.kind,
        ))
    });
    let mut out: Vec<Reduced> = spans
        .iter()
        .map(|&span| Reduced {
            span,
            self_ns: span.dur(),
        })
        .collect();
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..out.len() {
        let s = out[i].span;
        while let Some(&top) = stack.last() {
            let t = out[top].span;
            if t.req == s.req && s.start >= t.start && s.end <= t.end {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            out[parent].self_ns = out[parent].self_ns.saturating_sub(s.dur());
        }
        stack.push(i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: u64, kind: Kind, start: u64, end: u64) -> Span {
        Span {
            req,
            tag: 0,
            kind,
            start,
            end,
            work: Work::default(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(1, Kind::Request, 0, 100),
            span(1, Kind::TxnCommit, 10, 60),
            span(1, Kind::EngineDml, 20, 30),
            span(1, Kind::EngineCommit, 30, 35),
            span(1, Kind::EngineLookup, 70, 90),
            span(2, Kind::Request, 5, 50),
        ];
        let r = reduce(spans);
        let self_of = |req: u64, kind: Kind| {
            r.iter()
                .find(|x| x.span.req == req && x.span.kind == kind)
                .unwrap()
                .self_ns
        };
        assert_eq!(self_of(1, Kind::Request), 100 - 50 - 20);
        assert_eq!(self_of(1, Kind::TxnCommit), 50 - 10 - 5);
        assert_eq!(self_of(1, Kind::EngineDml), 10);
        assert_eq!(self_of(2, Kind::Request), 45);
    }
}
