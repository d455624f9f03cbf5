//! `live_history`: the archive's second half replayed as a live update
//! stream through one `TxnManager` per engine, with an open-loop reader
//! auditing customers at pinned past times.

use crate::metrics::{self, sys_label, Outcome};
use crate::probe::SinkTally;
use crate::serve::{self, split_commits, tag, Phase};
use crate::setup::{self, timed, SetupTimes};
use crate::stats::{geomean, median, ratio, summarize};
use crate::trace::{self, Kind, Reduced};
use crate::Args;
use bitempo_core::rng::Pcg32;
use bitempo_core::{Error, Key, Result, SysTime, TableId};
use bitempo_engine::api::{AppSpec, SysSpec};
use bitempo_engine::{BitemporalEngine, SystemKind};
use bitempo_histgen::{Op, Transaction as ArchiveTxn};
use bitempo_txn::{Transaction, TxnManager};
use bitempo_wal::{canonical_state, Checkpoint};
use bitempo_workloads::{key, tt, Ctx, QueryParams, TableIds};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reader schedule: audits per second.
const READ_RATE: f64 = 2_000.0;
/// Share of reads that are T1 time-travel aggregates instead of K1 audits.
const T1_SHARE: f64 = 0.05;
/// Commits per tracing block in a traced run (blocks alternate traced and
/// untraced, so one run also gives the tracing overhead).
const TRACE_BLOCK: usize = 50;
/// A reader whose final lateness exceeds this is reported as behind its
/// schedule.
const BEHIND_US: f64 = 50_000.0;

const TAG_COMMIT: u32 = 0;
const TAG_AUDIT: u32 = 1;
const TAG_T1: u32 = 2;

/// One engine, loaded and tuned, ready to serve.
struct Loaded {
    kind: SystemKind,
    engine: Box<dyn BitemporalEngine>,
    ids: Vec<TableId>,
    base: Vec<u8>,
}

fn build(args: &Args) -> Result<(Vec<Loaded>, setup::Inputs, SetupTimes)> {
    let mut times = SetupTimes::default();
    let (inputs, secs) = timed(|| setup::generate(args.seed));
    times.generate = secs;
    let half = inputs.history.archive.transactions.len() / 2;
    let first = setup::archive_prefix(&inputs.history.archive, half);
    let tuning = setup::tuning(setup::nproc(), true);
    let mut out = Vec::new();
    for kind in SystemKind::ALL {
        let (loaded, secs) = timed(|| -> Result<_> {
            let (mut engine, ids) = setup::load(kind, &inputs, &first)?;
            let base = Checkpoint::capture(engine.as_mut(), &ids, 0)?.encode();
            Ok((engine, ids, base))
        });
        times.load += secs;
        let (mut engine, ids, base) = loaded?;
        let (tuned, secs) = timed(|| engine.apply_tuning(&tuning));
        times.tune += secs;
        tuned?;
        out.push(Loaded {
            kind,
            engine,
            ids,
            base,
        });
    }
    Ok((out, inputs, times))
}

/// Buffers one archive operation on a serving-layer transaction.
fn buffer(txn: &mut Transaction<'_>, ids: &[TableId], op: &Op) -> Result<()> {
    let id = |t: &u8| ids[*t as usize];
    match op {
        Op::Insert { table, row, app } => txn.insert(id(table), row.clone(), *app),
        Op::Update {
            table,
            key,
            updates,
            portion,
        } => {
            let updates: Vec<_> = updates
                .iter()
                .map(|(c, v)| (*c as usize, v.clone()))
                .collect();
            txn.update(id(table), key, &updates, *portion)
        }
        Op::Delete {
            table,
            key,
            portion,
        } => txn.delete(id(table), key, *portion),
        Op::OverwriteApp { table, key, period } => {
            txn.overwrite_app_period(id(table), key, *period)
        }
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome> {
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..metrics::SETUP_REPEATS {
        let (loaded, inputs, times) = build(args)?;
        setups.push(times);
        built = Some((loaded, inputs));
    }
    let (loaded, inputs) = built.expect("at least one set-up");
    let half = inputs.history.archive.transactions.len() / 2;
    let stream = &inputs.history.archive.transactions[half..];
    let mut out = Outcome::new("live_history", args, &setups);
    out.env("durability", serve::DURABILITY.label());
    out.env("scan_workers", setup::nproc().to_string());
    out.env("writer_txns", stream.len().to_string());
    out.env("reader_rate_per_s", READ_RATE.to_string());
    std::fs::create_dir_all(args.workdir())?;
    let tuning = setup::tuning(setup::nproc(), true);

    let mut phases = Vec::new();
    let mut splits = Vec::new();
    let mut readers = Vec::new();
    let mut recover_ms = Vec::new();
    let mut scan_ms = Vec::new();
    for (ei, l) in loaded.into_iter().enumerate() {
        let params = QueryParams::derive(l.engine.as_ref())?;
        let t = TableIds::resolve(l.engine.as_ref())?;
        let customers = customer_keys(l.engine.as_ref(), &t)?;
        let path = args
            .workdir()
            .join(format!("live-{}.wal", sys_label(l.kind)));
        let tally = Arc::new(SinkTally::default());
        let wal = serve::open_wal(&path, &tally)?;
        let mgr = TxnManager::new(l.engine, l.ids.clone(), Some(wal))?;
        let ctx = Shared {
            mgr: &mgr,
            ids: &l.ids,
            t,
            params: &params,
            customers: &customers,
        };
        let phase = serve_phase(&ctx, ei, stream, args, &tally, &mut out)?;
        trace::set_enabled(false);
        if args.trace {
            let spans: Vec<_> = trace::reduce(trace::take());
            splits.push(split_commits(&spans, Kind::TxnCommit));
            readers.push(ReaderSplit::of(&spans, ei));
        }

        // Output checks: pins balance, the log acknowledged every commit,
        // and the WAL plus the base checkpoint recover the served state.
        let c = mgr.counters();
        let (pinned, released) = (
            c.snapshots.load(Ordering::Relaxed),
            c.released.load(Ordering::Relaxed),
        );
        if mgr.active_pins() != 0 || pinned != released {
            out.fail_check(format!(
                "{}: pins unbalanced ({} active, {pinned} pinned, {released} released)",
                l.kind,
                mgr.active_pins()
            ));
        }
        let (engine, ids, durable) = mgr.close()?;
        if durable != phase.commits {
            out.fail_check(format!(
                "{}: the log acknowledged {durable} of {} commits",
                l.kind, phase.commits
            ));
        }
        let served = canonical_state(engine.as_ref(), &ids)?;
        drop(engine);
        let bytes = std::fs::read(&path)?;
        recover_ms.push(serve::median_recovery(&mut out, || {
            let base = std::slice::from_ref(&l.base);
            serve::recover_verified(l.kind, &bytes, base, &tuning, phase.commits, &served)
        }));
        scan_ms.push(serve::median_scan_ms(&[&bytes]));
        std::fs::remove_file(&path)?;
        phases.push((l.kind, phase));
    }

    // End to end (untraced commits and reads).
    let mut late = Vec::new();
    for (kind, p) in &mut phases {
        let c = summarize(&mut p.commit_us);
        let r = summarize(&mut p.read_due_us);
        let l = summarize(&mut p.late_us);
        late.push(l.tail);
        out.note(format!(
            "{kind}: commits {} in {:.3}s ({:.1}/s), commit p50 {:.1}us p{} {:.1}us; \
             K1 audits from due n={} p50 {:.1}us p{} {:.1}us; reader lateness p{} {:.1}us, final {:.1}us",
            p.commits,
            p.writer_secs,
            p.commits as f64 / p.writer_secs,
            c.p50,
            c.tail_pct,
            c.tail,
            r.n,
            r.p50,
            r.tail_pct,
            r.tail,
            l.tail_pct,
            l.tail,
            p.final_late_us
        ));
        if p.final_late_us > BEHIND_US {
            out.note(format!(
                "{kind}: the open-loop reader fell behind its schedule by {:.1} ms",
                p.final_late_us / 1e3
            ));
        }
    }
    serve::serving_e2e(&mut out, &mut phases, &recover_ms, "commit", "K1 audit");

    if args.trace {
        serve::serving_layers(&mut out, &phases, &mut splits, &scan_ms, 0.0);
        out.layer("gen.read_late_us.p99", geomean(&late));
        let per_engine = |f: fn(&ReaderSplit) -> &[f64]| {
            geomean(&readers.iter().map(|r| median(f(r))).collect::<Vec<_>>())
        };
        out.layer("query.self_us", per_engine(|r| r.audit_self_us.as_slice()));
        out.layer("engine.t1_scan_us", per_engine(|r| r.t1_scan_us.as_slice()));
        let t1 = readers.iter().map(|r| r.t1_scan_us.len()).min();
        let morsels: u64 = readers.iter().map(|r| r.t1_morsels).sum();
        let scans: usize = readers.iter().map(|r| r.t1_scan_us.len()).sum();
        out.note(format!(
            "samples: engine.t1_scan_us: n={} traced T1 aggregates per engine (fewest), \
             {:.1} morsels each on {} scan workers",
            t1.unwrap_or(0),
            ratio(morsels, scans as u64),
            setup::nproc()
        ));
    }
    Ok(out)
}

/// Everything the writer and reader of one engine phase share.
struct Shared<'a> {
    mgr: &'a TxnManager,
    ids: &'a [TableId],
    t: TableIds,
    params: &'a QueryParams,
    customers: &'a [Key],
}

/// Current customer keys, the audit population.
fn customer_keys(engine: &dyn BitemporalEngine, t: &TableIds) -> Result<Vec<Key>> {
    let rows = engine
        .scan(t.customer, &SysSpec::Current, &AppSpec::All, &[])?
        .rows;
    let mut keys: Vec<i64> = rows
        .iter()
        .map(|r| r.get(bitempo_dbgen::col::customer::CUSTKEY).as_int())
        .collect::<Result<_>>()?;
    keys.sort_unstable();
    keys.dedup();
    Ok(keys.into_iter().map(Key::int).collect())
}

/// Runs the writer (this thread) and the open-loop reader (a scoped
/// thread) against one engine's manager.
fn serve_phase(
    s: &Shared<'_>,
    ei: usize,
    stream: &[ArchiveTxn],
    args: &Args,
    tally: &SinkTally,
    out: &mut Outcome,
) -> Result<Phase> {
    let done = AtomicBool::new(false);
    let mut phase = Phase::default();
    let reads = std::thread::scope(|scope| -> Result<Reads> {
        let handle = scope.spawn(|| read_loop(s, ei, args.seed, &done));
        let started = Instant::now();
        let writer = (|| -> Result<()> {
            for (i, txn_ops) in stream.iter().enumerate() {
                let traced = args.trace && (i / TRACE_BLOCK) % 2 == 1;
                trace::set_enabled(traced);
                trace::begin_request(tag(ei, TAG_COMMIT));
                let mut txn = trace::record(Kind::TxnBegin, || s.mgr.begin())?;
                for op in &txn_ops.ops {
                    buffer(&mut txn, s.ids, op)?;
                }
                let t0 = Instant::now();
                trace::record(Kind::TxnCommit, || txn.commit())?;
                phase.done_at.push(Instant::now());
                let us = t0.elapsed().as_secs_f64() * 1e6;
                if traced {
                    phase.commit_us_traced.push(us);
                } else {
                    phase.commit_us.push(us);
                }
                phase.commits += 1;
            }
            Ok(())
        })();
        phase.writer_secs = started.elapsed().as_secs_f64();
        done.store(true, Ordering::Relaxed);
        let reads = handle
            .join()
            .map_err(|_| Error::Internal("reader panicked".into()))?;
        writer?;
        Ok(reads)
    })?;
    (_, phase.sink_bytes, phase.syncs) = tally.get();
    phase.read_us = reads.service_us;
    phase.read_due_us = reads.due_us;
    phase.late_us = reads.late_us;
    phase.final_late_us = reads.final_late_us;
    out.attempted += phase.commits + reads.attempted;
    out.failed += reads.failed;
    Ok(phase)
}

/// The open-loop reader: K1 audits of random customers at random pinned
/// past times, plus a share of T1 aggregates, issued at [`READ_RATE`].
/// The reader sleeps until each read is due. Each K1 audit is timed both
/// from when it was issued (so the sleep's timer slack is not read
/// latency) and from when it was due; the lateness of every read at issue
/// is kept too.
fn read_loop(s: &Shared<'_>, ei: usize, seed: u64, done: &AtomicBool) -> Reads {
    let mut rng = Pcg32::new(seed ^ 0x4C49_5645, ei as u64);
    let period = Duration::from_secs_f64(1.0 / READ_RATE);
    let start = Instant::now();
    let mut r = Reads::default();
    let mut i: u32 = 0;
    while !done.load(Ordering::Relaxed) {
        let due = start + period * i;
        i += 1;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let issued = Instant::now();
        r.final_late_us = (issued - due).as_secs_f64() * 1e6;
        let is_t1 = rng.chance(T1_SHARE);
        let who = rng.pick(s.customers).clone();
        trace::begin_request(tag(ei, if is_t1 { TAG_T1 } else { TAG_AUDIT }));
        r.attempted += 1;
        let res = trace::record(Kind::Request, || -> Result<usize> {
            let txn = trace::record(Kind::TxnBegin, || s.mgr.begin())?;
            let at = SysTime(rng.int_range(1, txn.pin().0.max(1) as i64) as u64);
            let snap = trace::record(Kind::TxnSnapshot, || txn.snapshot());
            let view = snap.view();
            let ctx = Ctx {
                engine: &view,
                t: s.t,
            };
            let rows = if is_t1 {
                tt::t1(&ctx, SysSpec::AsOf(at), AppSpec::AsOf(s.params.app_mid))?
            } else {
                key::k1(&ctx, &who, SysSpec::AsOf(at), AppSpec::All)?
            };
            drop(snap);
            txn.rollback();
            Ok(rows.len())
        });
        match res {
            Ok(n) => {
                std::hint::black_box(n);
                if !is_t1 {
                    r.service_us.push(issued.elapsed().as_secs_f64() * 1e6);
                    r.due_us.push(due.elapsed().as_secs_f64() * 1e6);
                }
                r.late_us.push(r.final_late_us);
            }
            Err(_) => r.failed += 1,
        }
    }
    r
}

/// What the open-loop reader of one engine phase measured.
#[derive(Default)]
struct Reads {
    /// K1 audit latency from issue, µs.
    service_us: Vec<f64>,
    /// K1 audit latency from when it was due, µs.
    due_us: Vec<f64>,
    /// Lateness of every read at issue, µs.
    late_us: Vec<f64>,
    /// Lateness of the last read issued, µs.
    final_late_us: f64,
    attempted: u64,
    failed: u64,
}

/// The reader's own layers in one engine phase's traced spans.
#[derive(Default)]
struct ReaderSplit {
    /// Self time of each K1 audit: the audit's time outside `begin`,
    /// `snapshot` and the engine calls, which is the `key` workload's
    /// operators plus pin release, µs.
    audit_self_us: Vec<f64>,
    /// Engine scan time of each T1 aggregate, µs: on engines tuned with
    /// several scan workers this is the parallel morsel path.
    t1_scan_us: Vec<f64>,
    /// Morsels of those scans.
    t1_morsels: u64,
}

impl ReaderSplit {
    fn of(spans: &[Reduced], ei: usize) -> ReaderSplit {
        let mut r = ReaderSplit::default();
        let mut t1_scan_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for x in spans {
            let s = x.span;
            if s.kind == Kind::Request && s.tag == tag(ei, TAG_AUDIT) {
                r.audit_self_us.push(x.self_ns as f64 / 1e3);
            } else if s.kind == Kind::EngineScan && s.tag == tag(ei, TAG_T1) {
                *t1_scan_ns.entry(s.req).or_default() += s.dur();
                r.t1_morsels += s.work.morsels;
            }
        }
        r.t1_scan_us = t1_scan_ns.into_values().map(|ns| ns as f64 / 1e3).collect();
        r
    }
}
