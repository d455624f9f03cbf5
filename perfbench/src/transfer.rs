//! `shard_transfer`: balance-conserving customer transfers on a 2-shard
//! `Cluster` per engine, from two closed-loop clients that also run pinned
//! two-key audits and occasional full balance-sum audits.

use crate::metrics::{self, sys_label, Outcome};
use crate::probe::{SinkTally, TimedEngine};
use crate::serve::{self, split_commits, tag, Phase};
use crate::setup::{self, timed, SetupTimes};
use crate::stats::{geomean, ratio, summarize};
use crate::trace::{self, Kind};
use crate::Args;
use bitempo_core::rng::Pcg32;
use bitempo_core::{AppPeriod, Error, Key, Result, TableId, Value};
use bitempo_dbgen::col::customer::{ACCTBAL, CUSTKEY};
use bitempo_engine::api::{AppSpec, SysSpec};
use bitempo_engine::{build_engine, BitemporalEngine, SystemKind};
use bitempo_shard::{partition_checkpoint, recover_cluster, Cluster, ShardInput};
use bitempo_txn::TxnManager;
use bitempo_wal::{canonical_state, Checkpoint};
use bitempo_workloads::sharding::shard_of;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Shards per cluster.
const SHARDS: usize = 2;
/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Client 0 runs a full balance-sum audit every this many transfers.
const SUM_AUDIT_EVERY: usize = 100;
/// Transfers per tracing block of client 0 in a traced run.
const TRACE_BLOCK: usize = 50;
/// Transfers per second of `--seconds` (all engines, all clients).
const TRANSFERS_PER_SECOND: usize = 512;
/// Fewest transfers per client per engine: 1,000 commits per engine give a
/// p99.
const MIN_TRANSFERS: usize = 500;
/// Relative tolerance of the balance-sum check (float sums reorder).
const SUM_TOLERANCE: f64 = 1e-9;

const TAG_TRANSFER: u32 = 0;
const TAG_AUDIT: u32 = 1;
const TAG_SUM: u32 = 2;

/// The application-time day every balance lives on: transfers read and
/// write the version valid on this day.
fn balance_day() -> AppPeriod {
    let day = bitempo_dbgen::END_DATE.plus_days(400);
    AppPeriod::new(day, day.plus_days(1))
}

/// One engine's cluster, built and tuned, with what recovery needs.
struct Built {
    kind: SystemKind,
    cluster: Cluster,
    /// Encoded base checkpoint of each shard.
    bases: Vec<Vec<u8>>,
    wal_paths: Vec<PathBuf>,
    tallies: Vec<Arc<SinkTally>>,
    /// Customers with a version on the balance day, with their balance.
    accounts: Vec<(Key, f64)>,
}

fn build(args: &Args, dir: &std::path::Path) -> Result<(Vec<Built>, SetupTimes)> {
    let mut times = SetupTimes::default();
    let (inputs, secs) = timed(|| setup::generate(args.seed));
    times.generate = secs;
    let tuning = setup::tuning(1, false);
    let mut out = Vec::new();
    for kind in SystemKind::ALL {
        let (loaded, secs) = timed(|| -> Result<_> {
            let (mut engine, ids) = setup::load(kind, &inputs, &inputs.history.archive)?;
            let accounts = accounts(engine.as_ref(), engine.resolve("customer")?)?;
            let base = Checkpoint::capture(engine.as_mut(), &ids, 0)?;
            drop(engine);
            let mut engines = Vec::new();
            let mut bases = Vec::new();
            for part in partition_checkpoint(&base, SHARDS) {
                let mut e = TimedEngine::wrap(build_engine(kind));
                let ids = part.restore_into(e.as_mut())?;
                bases.push(part.encode());
                engines.push((e, ids));
            }
            Ok((engines, bases, accounts))
        });
        times.load += secs;
        let (mut engines, bases, accounts) = loaded?;
        let (tuned, secs) = timed(|| -> Result<()> {
            for (e, _) in &mut engines {
                e.apply_tuning(&tuning)?;
            }
            Ok(())
        });
        times.tune += secs;
        tuned?;
        let mut mgrs = Vec::new();
        let mut wal_paths = Vec::new();
        let mut tallies = Vec::new();
        for (si, (e, ids)) in engines.into_iter().enumerate() {
            let path = dir.join(format!("transfer-{}-{si}.wal", sys_label(kind)));
            let tally = Arc::new(SinkTally::default());
            let wal = serve::open_wal(&path, &tally)?;
            mgrs.push(TxnManager::new(e, ids, Some(wal))?);
            wal_paths.push(path);
            tallies.push(tally);
        }
        out.push(Built {
            kind,
            cluster: Cluster::from_managers(mgrs)?,
            bases,
            wal_paths,
            tallies,
            accounts,
        });
    }
    Ok((out, times))
}

/// Every customer's balance on the balance day, by key.
fn accounts(view: &dyn BitemporalEngine, customer: TableId) -> Result<Vec<(Key, f64)>> {
    let rows = view
        .scan(
            customer,
            &SysSpec::Current,
            &AppSpec::AsOf(balance_day().start),
            &[],
        )?
        .rows;
    let mut out = rows
        .iter()
        .map(|r| {
            Ok((
                Key::int(r.get(CUSTKEY).as_int()?),
                r.get(ACCTBAL).as_double()?,
            ))
        })
        .collect::<Result<Vec<_>>>()?;
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn balance_sum(accounts: &[(Key, f64)]) -> f64 {
    accounts.iter().map(|(_, b)| b).sum()
}

/// What the clients of one engine phase measured (per client, then merged).
#[derive(Default)]
struct Clients {
    /// Commit latencies of untraced / traced transfers, µs.
    commit_us: Vec<f64>,
    commit_us_traced: Vec<f64>,
    single_us: Vec<f64>,
    cross_us: Vec<f64>,
    /// Two-key audit latencies, µs.
    read_us: Vec<f64>,
    /// When each transfer committed.
    done_at: Vec<Instant>,
    retries: u64,
    audits: u64,
    sum_audits: u64,
    failed: u64,
    sum_errors: Vec<String>,
}

impl Clients {
    fn absorb(&mut self, o: Clients) {
        self.commit_us.extend(o.commit_us);
        self.commit_us_traced.extend(o.commit_us_traced);
        self.single_us.extend(o.single_us);
        self.cross_us.extend(o.cross_us);
        self.read_us.extend(o.read_us);
        self.done_at.extend(o.done_at);
        self.retries += o.retries;
        self.audits += o.audits;
        self.sum_audits += o.sum_audits;
        self.failed += o.failed;
        self.sum_errors.extend(o.sum_errors);
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome> {
    let dir = args.workdir();
    std::fs::create_dir_all(&dir)?;
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..metrics::SETUP_REPEATS {
        // Drop the previous set-up first: its WAL files are recreated.
        drop(built.take());
        let (b, times) = build(args, &dir)?;
        setups.push(times);
        built = Some(b);
    }
    let built = built.expect("at least one set-up");
    let mut out = Outcome::new("shard_transfer", args, &setups);
    out.env("durability", serve::DURABILITY.label());
    out.env("scan_workers", "1".into());
    out.env("shards", SHARDS.to_string());
    out.env("clients", CLIENTS.to_string());
    let tuning = setup::tuning(1, false);
    // Fixed work, sized from `--seconds`: the four engine phases together
    // take about that long on a 2-vCPU host.
    let transfers = (args.seconds as usize * TRANSFERS_PER_SECOND)
        .div_ceil(CLIENTS * built.len())
        .max(MIN_TRANSFERS);

    let mut phases = Vec::new();
    let mut splits = Vec::new();
    let mut recover_ms = Vec::new();
    let mut scan_ms = Vec::new();
    let (mut single, mut cross) = (Vec::new(), Vec::new());
    let (mut retries, mut committed) = (0u64, 0u64);
    let mut guard_p99 = Vec::new();
    for (ei, b) in built.into_iter().enumerate() {
        let total = balance_sum(&b.accounts);
        let started = Instant::now();
        let clients = serve_phase(&b, ei, total, transfers, args)?;
        trace::set_enabled(false);
        let mut phase = Phase {
            writer_secs: started.elapsed().as_secs_f64(),
            commits: (clients.single_us.len() + clients.cross_us.len()) as u64,
            commit_us: clients.commit_us,
            commit_us_traced: clients.commit_us_traced,
            read_us: clients.read_us,
            done_at: clients.done_at,
            ..Phase::default()
        };
        for t in &b.tallies {
            let (_, bytes, syncs) = t.get();
            phase.sink_bytes += bytes;
            phase.syncs += syncs;
        }
        if args.trace {
            let spans = trace::reduce(trace::take());
            let mut guards: Vec<f64> = spans
                .iter()
                .filter(|r| r.span.kind == Kind::ShardReadGuard)
                .map(|r| r.span.dur() as f64 / 1e3)
                .collect();
            guard_p99.push(summarize(&mut guards).tail);
            splits.push(split_commits(&spans, Kind::ShardCommit));
        }
        out.attempted += phase.commits + clients.audits + clients.sum_audits;
        out.failed += clients.failed;
        for e in &clients.sum_errors {
            out.fail_check(format!("{}: {e}", b.kind));
        }
        if clients.sum_audits == 0 {
            out.fail_check(format!("{}: no balance-sum audit ran", b.kind));
        }

        // Output checks: pins balance, and every shard recovers from its
        // base plus its WAL to exactly its served state.
        if b.cluster.active_pins() != 0 {
            out.fail_check(format!("{}: {} pins left", b.kind, b.cluster.active_pins()));
        }
        let mut served = Vec::new();
        for (engine, ids, _) in b.cluster.close()? {
            served.push(canonical_state(engine.as_ref(), &ids)?);
        }
        let inputs = b
            .wal_paths
            .iter()
            .zip(&b.bases)
            .map(|(p, base)| {
                Ok(ShardInput {
                    wal: std::fs::read(p)?,
                    checkpoints: vec![base.clone()],
                })
            })
            .collect::<Result<Vec<_>>>()?;
        recover_ms.push(serve::median_recovery(&mut out, || {
            recover_cluster_verified(b.kind, &inputs, &tuning, &served)
        }));
        let images: Vec<&[u8]> = inputs.iter().map(|i| i.wal.as_slice()).collect();
        scan_ms.push(serve::median_scan_ms(&images));
        for p in &b.wal_paths {
            std::fs::remove_file(p)?;
        }
        retries += clients.retries;
        committed += phase.commits;
        let (s, c) = (
            summarize(&mut clients.single_us.clone()),
            summarize(&mut clients.cross_us.clone()),
        );
        out.note(format!(
            "{}: transfers {} in {:.3}s ({:.1}/s), single-shard n={} p50 {:.1}us, cross-shard n={} p50 {:.1}us, \
             FCW retries {}, two-key audits {}, sum audits {}",
            b.kind,
            phase.commits,
            phase.writer_secs,
            phase.commits as f64 / phase.writer_secs,
            s.n,
            s.p50,
            c.n,
            c.p50,
            clients.retries,
            clients.audits,
            clients.sum_audits
        ));
        single.push(clients.single_us);
        cross.push(clients.cross_us);
        phases.push((b.kind, phase));
    }

    serve::serving_e2e(
        &mut out,
        &mut phases,
        &recover_ms,
        "transfer commit",
        "pinned two-key audit",
    );

    if args.trace {
        let conflict_pct = ratio(retries, retries + committed) * 100.0;
        serve::serving_layers(&mut out, &phases, &mut splits, &scan_ms, conflict_pct);
        let pick = |v: &mut [Vec<f64>], p50: bool| {
            geomean(
                &v.iter_mut()
                    .map(|s| {
                        let sm = summarize(s);
                        if p50 {
                            sm.p50
                        } else {
                            sm.tail
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        };
        out.layer("shard.commit_single_us.p50", pick(&mut single, true));
        out.layer("shard.commit_single_us.p99", pick(&mut single, false));
        out.layer("shard.commit_cross_us.p50", pick(&mut cross, true));
        out.layer("shard.commit_cross_us.p99", pick(&mut cross, false));
        out.layer("shard.read_guard_us.p99", geomean(&guard_p99));
        let n_cross: usize = cross.iter().map(Vec::len).sum();
        let n_single: usize = single.iter().map(Vec::len).sum();
        out.layer(
            "shard.cross_pct",
            ratio(n_cross as u64, (n_cross + n_single) as u64) * 100.0,
        );
    }
    Ok(out)
}

/// Recovers the cluster and checks every shard against its served state.
fn recover_cluster_verified(
    kind: SystemKind,
    inputs: &[ShardInput],
    tuning: &bitempo_engine::api::TuningConfig,
    served: &[Vec<String>],
) -> std::result::Result<f64, String> {
    let t0 = Instant::now();
    let rec = recover_cluster(kind, inputs, tuning).map_err(|e| e.to_string())?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if !rec.degraded.is_empty() {
        return Err(format!(
            "{kind}: recovery degraded shards {:?}",
            rec.degraded
        ));
    }
    for (si, (r, want)) in rec.shards.iter().zip(served).enumerate() {
        let got = canonical_state(r.engine.as_ref(), &r.ids).map_err(|e| e.to_string())?;
        if &got != want {
            return Err(format!(
                "{kind}: shard {si} recovered state differs from served"
            ));
        }
    }
    Ok(ms)
}

/// Runs `transfers` transfers per client against one engine's cluster.
fn serve_phase(b: &Built, ei: usize, total: f64, transfers: usize, args: &Args) -> Result<Clients> {
    let customer = b.cluster.snapshot().read()?.view().resolve("customer")?;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|ci| {
                scope.spawn(move || -> Result<Clients> {
                    let mut rng = Pcg32::new(args.seed ^ 0x5452_4E53, (ei * CLIENTS + ci) as u64);
                    let mut cl = Clients::default();
                    for i in 0..transfers {
                        if ci == 0 && args.trace {
                            trace::set_enabled((i / TRACE_BLOCK) % 2 == 1);
                        }
                        transfer(b, customer, ei, &mut rng, &mut cl)?;
                        two_key_audit(b, customer, ei, &mut rng, &mut cl);
                        if ci == 0 && i % SUM_AUDIT_EVERY == 0 {
                            sum_audit(b, customer, ei, total, &mut cl);
                        }
                    }
                    if ci == 0 {
                        sum_audit(b, customer, ei, total, &mut cl);
                    }
                    Ok(cl)
                })
            })
            .collect();
        let mut merged = Clients::default();
        for h in handles {
            merged.absorb(
                h.join()
                    .map_err(|_| Error::Internal("client panicked".into()))??,
            );
        }
        Ok(merged)
    })
}

/// Reads the balance of `key` on the balance day through `view`.
fn balance(view: &dyn BitemporalEngine, customer: TableId, key: &Key) -> Result<f64> {
    let out = view.lookup_key(
        customer,
        key,
        &SysSpec::Current,
        &AppSpec::AsOf(balance_day().start),
    )?;
    match out.rows.as_slice() {
        [row] => row.get(ACCTBAL).as_double(),
        rows => Err(Error::Invalid(format!(
            "customer {key} has {} versions on the balance day",
            rows.len()
        ))),
    }
}

/// One balance-conserving transfer between two distinct accounts, retried
/// until it wins first-committer-wins.
fn transfer(
    b: &Built,
    customer: TableId,
    ei: usize,
    rng: &mut Pcg32,
    cl: &mut Clients,
) -> Result<()> {
    let n = b.accounts.len() as i64;
    let x = rng.int_range(0, n - 1) as usize;
    let y = (x + rng.int_range(1, n - 1) as usize) % n as usize;
    let (from, to) = (&b.accounts[x].0, &b.accounts[y].0);
    let amount = rng.int_range(1, 10_000) as f64 / 100.0;
    let is_cross = shard_of(from, SHARDS) != shard_of(to, SHARDS);
    let day = Some(balance_day());
    loop {
        let traced = trace::enabled();
        trace::begin_request(tag(ei, TAG_TRANSFER));
        let res = trace::record(Kind::Request, || -> Result<Option<f64>> {
            let mut txn = trace::record(Kind::ShardBegin, || b.cluster.begin())?;
            let (bf, bt) = {
                let read = trace::record(Kind::ShardReadGuard, || txn.read())?;
                let view = read.view();
                (
                    balance(&view, customer, from)?,
                    balance(&view, customer, to)?,
                )
            };
            txn.update(
                customer,
                from,
                &[(ACCTBAL, Value::Double(bf - amount))],
                day,
            )?;
            txn.update(customer, to, &[(ACCTBAL, Value::Double(bt + amount))], day)?;
            let t0 = Instant::now();
            match trace::record(Kind::ShardCommit, || txn.commit()) {
                Ok(_) => Ok(Some(t0.elapsed().as_secs_f64() * 1e6)),
                Err(Error::Conflict(_)) => Ok(None),
                Err(e) => Err(e),
            }
        });
        match res {
            Ok(Some(us)) => {
                cl.done_at.push(Instant::now());
                if traced {
                    cl.commit_us_traced.push(us);
                } else {
                    cl.commit_us.push(us);
                }
                if is_cross {
                    cl.cross_us.push(us);
                } else {
                    cl.single_us.push(us);
                }
                return Ok(());
            }
            Ok(None) => cl.retries += 1,
            Err(e) => return Err(e),
        }
    }
}

/// A pinned read of two random balances.
fn two_key_audit(b: &Built, customer: TableId, ei: usize, rng: &mut Pcg32, cl: &mut Clients) {
    let x = &b.accounts[rng.int_range(0, b.accounts.len() as i64 - 1) as usize].0;
    let y = &b.accounts[rng.int_range(0, b.accounts.len() as i64 - 1) as usize].0;
    trace::begin_request(tag(ei, TAG_AUDIT));
    cl.audits += 1;
    let t0 = Instant::now();
    let res = trace::record(Kind::Request, || -> Result<f64> {
        let snap = b.cluster.snapshot();
        let read = trace::record(Kind::ShardReadGuard, || snap.read())?;
        let view = read.view();
        Ok(balance(&view, customer, x)? + balance(&view, customer, y)?)
    });
    match res {
        Ok(v) => {
            std::hint::black_box(v);
            cl.read_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        Err(_) => cl.failed += 1,
    }
}

/// Sums every balance at one cluster snapshot; the sum must equal the
/// pre-run total.
fn sum_audit(b: &Built, customer: TableId, ei: usize, total: f64, cl: &mut Clients) {
    trace::begin_request(tag(ei, TAG_SUM));
    cl.sum_audits += 1;
    let res = trace::record(Kind::Request, || -> Result<f64> {
        let snap = b.cluster.snapshot();
        let read = trace::record(Kind::ShardReadGuard, || snap.read())?;
        Ok(balance_sum(&accounts(&read.view(), customer)?))
    });
    match res {
        Ok(sum) if (sum - total).abs() <= SUM_TOLERANCE * total.abs().max(1.0) => {}
        Ok(sum) => cl
            .sum_errors
            .push(format!("balance sum {sum} at a snapshot, expected {total}")),
        Err(e) => {
            cl.failed += 1;
            cl.sum_errors.push(format!("balance-sum audit failed: {e}"));
        }
    }
}
