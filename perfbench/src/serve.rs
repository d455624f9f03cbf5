//! Pieces the serving workloads share — the WAL they log to, the reduction
//! of commit spans, their metrics — and the verified, repeated recovery
//! timing every workload's `recover_ms` comes from.

use crate::metrics::{sys_label, Outcome};
use crate::probe::{SinkTally, TimedSink, FLUSH_TAG};
use crate::stats::{self, geomean, median, ratio, summarize};
use crate::trace::{Kind, Reduced, Work};
use bitempo_core::Result;
use bitempo_engine::api::TuningConfig;
use bitempo_engine::SystemKind;
use bitempo_wal::{canonical_state, DurabilityMode, TxnWal};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Commit durability of both serving workloads: group commit with a 2 ms
/// flush tick.
pub const DURABILITY: DurabilityMode = DurabilityMode::Batched(2);

/// Recoveries timed per engine (or cluster); `recover_ms` is their median.
pub const RECOVER_REPEATS: usize = 9;

/// Request tag of operation `op` (a workload's own numbering, below 4) on
/// engine `engine`.
pub fn tag(engine: usize, op: u32) -> u32 {
    engine as u32 * 4 + op
}

/// Creates a real-file WAL at `path` behind the benchmark's sink wrapper.
pub fn open_wal(path: &Path, tally: &Arc<SinkTally>) -> Result<TxnWal> {
    let file = std::fs::File::create(path)?;
    TxnWal::create(
        Box::new(TimedSink::new(file, Arc::clone(tally))),
        DURABILITY,
    )
}

/// Recovers `kind` from `wal` plus `checkpoints` and checks the result:
/// exactly `commits` transactions replayed and the state equal to
/// `served`. Returns the recovery's wall time in ms (excluding the check).
pub fn recover_verified(
    kind: SystemKind,
    wal: &[u8],
    checkpoints: &[Vec<u8>],
    tuning: &TuningConfig,
    commits: u64,
    served: &[String],
) -> std::result::Result<f64, String> {
    let t0 = Instant::now();
    let rec = bitempo_wal::recover(kind, wal, checkpoints, tuning).map_err(|e| e.to_string())?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if rec.report.commits != commits {
        return Err(format!(
            "{kind}: recovered {} of {commits} commits",
            rec.report.commits
        ));
    }
    let state = canonical_state(rec.engine.as_ref(), &rec.ids).map_err(|e| e.to_string())?;
    if state != served {
        return Err(format!(
            "{kind}: recovered state differs from the served state"
        ));
    }
    Ok(ms)
}

/// What one engine phase of a serving workload measured.
#[derive(Default)]
pub struct Phase {
    /// Untraced commit latencies, µs.
    pub commit_us: Vec<f64>,
    /// Traced commit latencies, µs.
    pub commit_us_traced: Vec<f64>,
    /// Wall time the writers ran.
    pub writer_secs: f64,
    /// When each commit returned.
    pub done_at: Vec<Instant>,
    /// Read latencies from issue, µs.
    pub read_us: Vec<f64>,
    /// Read latencies from when each read was due (open loop), µs; empty
    /// for closed-loop readers, whose reads are due when issued.
    pub read_due_us: Vec<f64>,
    /// Open-loop lateness at issue, µs.
    pub late_us: Vec<f64>,
    /// Lateness of the last read issued, µs.
    pub final_late_us: f64,
    /// Commits acknowledged.
    pub commits: u64,
    /// Bytes written to the WAL sink(s), stream header included.
    pub sink_bytes: u64,
    /// WAL syncs.
    pub syncs: u64,
}

/// Runs `recover` [`RECOVER_REPEATS`] times and returns the median of the
/// wall times it reports, in ms. A failed verification is recorded as a
/// failed output check and ends the repeats.
pub fn median_recovery(
    out: &mut Outcome,
    mut recover: impl FnMut() -> std::result::Result<f64, String>,
) -> f64 {
    let mut times = Vec::new();
    for _ in 0..RECOVER_REPEATS {
        match recover() {
            Ok(ms) => times.push(ms),
            Err(e) => {
                out.fail_check(e);
                break;
            }
        }
    }
    median(&times)
}

/// Median wall time, in ms, of [`RECOVER_REPEATS`] scans of each WAL
/// image with `bitempo_storage::wal::scan`.
pub fn median_scan_ms(images: &[&[u8]]) -> f64 {
    let times: Vec<f64> = (0..RECOVER_REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            for bytes in images {
                std::hint::black_box(bitempo_storage::wal::scan(bytes));
            }
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// One flusher batch: the writes and the sync that made them durable.
#[derive(Debug, Clone, Copy)]
struct Flush {
    /// Write + sync busy time, ns.
    busy: u64,
    /// When the sync returned.
    end: u64,
}

/// Per-engine commit-path breakdown from the spans of one engine phase.
#[derive(Debug, Default)]
pub struct CommitSplit {
    /// Apply (engine DML + commit) per commit, µs.
    pub apply_us: Vec<f64>,
    /// Commit time minus apply minus the covering flush, µs.
    pub wait_us: Vec<f64>,
    /// Sum of commit span time, ns.
    pub commit_ns: u64,
    /// Sum of apply time inside commits, ns.
    pub apply_ns: u64,
    /// Sync durations, µs.
    pub sync_us: Vec<f64>,
    /// `TxnManager::begin` / `Cluster::begin` durations, µs.
    pub begin_us: Vec<f64>,
    /// `Transaction::snapshot` / cluster read-guard durations, µs.
    pub snapshot_us: Vec<f64>,
    /// Engine key-lookup durations, µs.
    pub lookup_us: Vec<f64>,
    /// Work reported by engine scans and key lookups.
    pub engine_work: Work,
}

/// Splits the commits in `spans` (one engine's phase) into apply, flush and
/// wait. `commit_kind` is the span that a client-visible commit is timed
/// by (`TxnCommit` on one manager, `ShardCommit` on a cluster). A commit is
/// covered by the last flush whose sync returned before the commit did.
pub fn split_commits(spans: &[Reduced], commit_kind: Kind) -> CommitSplit {
    let mut out = CommitSplit::default();
    let mut flushes: BTreeMap<u64, Flush> = BTreeMap::new();
    let mut dml_by_req: BTreeMap<u64, u64> = BTreeMap::new();
    for r in spans {
        let s = r.span;
        match s.kind {
            Kind::WalWrite | Kind::WalSync if s.tag == FLUSH_TAG => {
                let f = flushes.entry(s.req).or_insert(Flush { busy: 0, end: 0 });
                f.busy += s.dur();
                if s.kind == Kind::WalSync {
                    f.end = s.end;
                    out.sync_us.push(s.dur() as f64 / 1e3);
                }
            }
            Kind::EngineDml | Kind::EngineCommit => {
                *dml_by_req.entry(s.req).or_default() += s.dur()
            }
            Kind::TxnBegin | Kind::ShardBegin => out.begin_us.push(s.dur() as f64 / 1e3),
            Kind::TxnSnapshot | Kind::ShardReadGuard => out.snapshot_us.push(s.dur() as f64 / 1e3),
            Kind::EngineLookup => {
                out.lookup_us.push(s.dur() as f64 / 1e3);
                out.engine_work.add(&s.work);
            }
            Kind::EngineScan => out.engine_work.add(&s.work),
            _ => {}
        }
    }
    let mut by_end: Vec<Flush> = flushes.into_values().filter(|f| f.end > 0).collect();
    by_end.sort_by_key(|f| f.end);
    for r in spans.iter().filter(|r| r.span.kind == commit_kind) {
        let s = r.span;
        let apply = dml_by_req.get(&s.req).copied().unwrap_or(0);
        let covering = match by_end.partition_point(|f| f.end <= s.end) {
            0 => 0,
            i => by_end[i - 1].busy,
        };
        out.commit_ns += s.dur();
        out.apply_ns += apply;
        out.apply_us.push(apply as f64 / 1e3);
        out.wait_us
            .push(s.dur().saturating_sub(apply).saturating_sub(covering) as f64 / 1e3);
    }
    out
}

/// Geometric mean over engines of each engine's percentile `pct` of
/// `pick(split)` (`pct` = 50 for medians); 0 when any engine has no
/// samples.
pub fn split_pct(
    splits: &mut [CommitSplit],
    pct: f64,
    pick: fn(&mut CommitSplit) -> &mut Vec<f64>,
) -> f64 {
    let vals: Vec<f64> = splits
        .iter_mut()
        .map(|s| {
            let v = pick(s);
            if pct == 50.0 {
                median(v)
            } else {
                let sm = summarize(v);
                crate::stats::percentile_sorted(v, pct.min(sm.tail_pct))
            }
        })
        .collect();
    geomean(&vals)
}

/// Commits per window of the throughput median.
const RATE_WINDOW: usize = 100;

/// Throughput as the median over consecutive windows of [`RATE_WINDOW`]
/// commits, so a stall in one stretch of the run does not set the figure.
fn windowed_rate(done_at: &[Instant]) -> f64 {
    let mut t = done_at.to_vec();
    t.sort();
    let rates: Vec<f64> = (RATE_WINDOW..t.len())
        .step_by(RATE_WINDOW)
        .map(|end| RATE_WINDOW as f64 / (t[end] - t[end - RATE_WINDOW]).as_secs_f64())
        .collect();
    median(&rates)
}

/// End-to-end metrics shared by the serving workloads, from each engine
/// phase's untraced commits and reads; `op` and `read` name them in the
/// sample-count notes.
pub fn serving_e2e(
    out: &mut Outcome,
    phases: &mut [(SystemKind, Phase)],
    recover_ms: &[f64],
    op: &str,
    read: &str,
) {
    let rates: Vec<f64> = phases
        .iter()
        .map(|(_, p)| windowed_rate(&p.done_at))
        .collect();
    let mut commits: Vec<Vec<f64>> = phases.iter().map(|(_, p)| p.commit_us.clone()).collect();
    let mut reads: Vec<Vec<f64>> = phases.iter().map(|(_, p)| p.read_us.clone()).collect();
    let (c, r) = (stats::across(&mut commits), stats::across(&mut reads));
    out.sample_note(&format!("op ({op})"), c.n, c.tail_pct);
    out.sample_note(&format!("read ({read})"), r.n, r.tail_pct);
    out.e2e("ops_per_s", geomean(&rates));
    out.e2e("op_p50_us", c.p50);
    out.e2e("read_p50_us", r.p50);
    out.e2e("recover_ms", geomean(recover_ms));
    let mut all: Vec<Vec<f64>> = phases
        .iter()
        .map(|(_, p)| [p.commit_us.as_slice(), &p.commit_us_traced].concat())
        .collect();
    out.tail("txn.commit_us.p99", stats::across(&mut all));
    let mut due: Vec<Vec<f64>> = phases
        .iter()
        .map(|(_, p)| {
            if p.read_due_us.is_empty() {
                p.read_us.clone()
            } else {
                p.read_due_us.clone()
            }
        })
        .collect();
    out.tail("gen.read_us.p99", stats::across(&mut due));
}

/// Per-layer metrics shared by the serving workloads.
pub fn serving_layers(
    out: &mut Outcome,
    phases: &[(SystemKind, Phase)],
    splits: &mut [CommitSplit],
    scan_ms: &[f64],
    conflict_pct: f64,
) {
    for ((kind, _), sp) in phases.iter().zip(splits.iter()) {
        out.layer(
            &format!("engine.{}.apply_us", sys_label(*kind)),
            median(&sp.apply_us),
        );
        out.layer(
            &format!("engine.{}.lookup_us", sys_label(*kind)),
            median(&sp.lookup_us),
        );
    }
    let mut work = Work::default();
    for s in splits.iter() {
        work.add(&s.engine_work);
    }
    out.engine_work(&work);
    out.layer(
        "txn.begin_us.p50",
        split_pct(splits, 50.0, |s| &mut s.begin_us),
    );
    out.layer(
        "txn.begin_us.p99",
        split_pct(splits, 99.0, |s| &mut s.begin_us),
    );
    out.layer(
        "txn.snapshot_us.p99",
        split_pct(splits, 99.0, |s| &mut s.snapshot_us),
    );
    out.layer(
        "txn.commit_wait_us.p50",
        split_pct(splits, 50.0, |s| &mut s.wait_us),
    );
    let shares: Vec<f64> = splits
        .iter()
        .map(|s| ratio(s.apply_ns, s.commit_ns))
        .collect();
    out.layer("txn.commit_apply_share", geomean(&shares));
    out.layer("txn.conflict_pct", conflict_pct);
    let syncs: u64 = phases.iter().map(|(_, p)| p.syncs).sum();
    let commits: u64 = phases.iter().map(|(_, p)| p.commits).sum();
    let bytes: u64 = phases.iter().map(|(_, p)| p.sink_bytes).sum();
    out.layer("wal.sync_count", syncs as f64);
    out.layer(
        "wal.sync_us.p50",
        split_pct(splits, 50.0, |s| &mut s.sync_us),
    );
    out.layer(
        "wal.sync_us.p99",
        split_pct(splits, 99.0, |s| &mut s.sync_us),
    );
    out.layer("wal.commits_per_sync", ratio(commits, syncs));
    out.layer("wal.bytes_per_commit", ratio(bytes, commits));
    out.layer("wal.scan_ms", geomean(scan_ms));
    let overhead: Vec<f64> = phases
        .iter()
        .map(|(_, p)| median(&p.commit_us_traced) / median(&p.commit_us))
        .collect();
    out.layer("trace.overhead_pct", (geomean(&overhead) - 1.0) * 100.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitempo_core::Key;
    use bitempo_engine::build_engine;
    use bitempo_engine::testutil::{bitemp_table, simple_row};
    use bitempo_txn::TxnManager;
    use bitempo_wal::{Checkpoint, SharedBuf};

    /// A served history of 30 commits: (WAL bytes, base checkpoint, served
    /// state).
    fn served(kind: SystemKind) -> (Vec<u8>, Vec<u8>, Vec<String>) {
        let mut engine = build_engine(kind);
        let table = engine.create_table(bitemp_table("t")).unwrap();
        engine.commit();
        let base = Checkpoint::capture(engine.as_mut(), &[table], 0)
            .unwrap()
            .encode();
        let buf = SharedBuf::new();
        let wal = TxnWal::create(Box::new(buf.clone()), DURABILITY).unwrap();
        let mgr = TxnManager::new(engine, vec![table], Some(wal)).unwrap();
        for i in 0..30 {
            let mut txn = mgr.begin().unwrap();
            txn.insert(table, simple_row(i, i), None).unwrap();
            if i > 0 {
                txn.delete(table, &Key::int(i - 1), None).unwrap();
            }
            txn.commit().unwrap();
        }
        let (engine, ids, _) = mgr.close().unwrap();
        let state = canonical_state(engine.as_ref(), &ids).unwrap();
        (buf.snapshot(), base, state)
    }

    /// The recovery check passes on the real bytes and fails the run on a
    /// corrupted or truncated log.
    #[test]
    fn corrupted_recovery_fails_the_check() {
        let tuning = TuningConfig::key_time().with_workers(1);
        for kind in SystemKind::ALL {
            let (wal, base, state) = served(kind);
            let check = |bytes: &[u8]| {
                recover_verified(
                    kind,
                    bytes,
                    std::slice::from_ref(&base),
                    &tuning,
                    30,
                    &state,
                )
            };
            assert!(check(&wal).is_ok(), "{kind}");
            let mut flipped = wal.clone();
            let at = flipped.len() - 3;
            flipped[at] ^= 0x40;
            assert!(check(&flipped).is_err(), "{kind}: a flipped byte must fail");
            assert!(
                check(&wal[..wal.len() - 1]).is_err(),
                "{kind}: a torn tail must fail"
            );
            let mut other = state.clone();
            other.pop();
            assert!(
                recover_verified(kind, &wal, std::slice::from_ref(&base), &tuning, 30, &other)
                    .is_err(),
                "{kind}: a different served state must fail"
            );
        }
    }

    #[test]
    fn commits_split_into_apply_flush_and_wait() {
        use crate::trace::{Span, Work};
        let span = |req, tag, kind, start, end| Span {
            req,
            tag,
            kind,
            start,
            end,
            work: Work::default(),
        };
        let spans = vec![
            span(1, 0, Kind::TxnCommit, 0, 1_000_000),
            span(1, 0, Kind::EngineDml, 10_000, 40_000),
            span(1, 0, Kind::EngineCommit, 40_000, 50_000),
            span(9, FLUSH_TAG, Kind::WalWrite, 600_000, 700_000),
            span(9, FLUSH_TAG, Kind::WalSync, 700_000, 900_000),
            span(8, FLUSH_TAG, Kind::WalSync, 1_100_000, 1_200_000),
        ];
        let split = split_commits(&crate::trace::reduce(spans), Kind::TxnCommit);
        assert_eq!(split.apply_us, vec![40.0]);
        // 1000 µs commit − 40 µs apply − 300 µs covering flush.
        assert_eq!(split.wait_us, vec![660.0]);
        let mut syncs = split.sync_us.clone();
        syncs.sort_by(f64::total_cmp);
        assert_eq!(syncs, vec![100.0, 200.0]);
    }
}
