//! Loading histories into engines (paper §4.2, §5.8).
//!
//! Two paths:
//!
//! * [`replay`] — transaction-by-transaction execution of the archive
//!   through the engine's DML interface. This is the *only* correct way to
//!   build a history on engines that stamp system time at commit
//!   ("bulkloading of a history is not an option since it would result in a
//!   single timestamp for all involved tuples"). A `batch_size > 1` merges
//!   consecutive scenarios into one transaction (Fig 13).
//! * [`bulk_load`] — for engines with manual system time (System D), ships
//!   fully-stamped versions straight from the generator state, reproducing
//!   the paper's §5.8 observation that System D's load cost "is much lower
//!   since we can set the timestamps manually and perform a bulk load".

use crate::archive::Archive;
use crate::ops::{Op, ScenarioKind};
use crate::state::GenDb;
use bitempo_core::{Error, Result, SysTime, TableId, Value};
use bitempo_dbgen::TpchData;
use bitempo_engine::BitemporalEngine;
use std::path::Path;
use std::time::Instant;

/// Per-transaction load timing.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// `(first scenario of the transaction, wall nanoseconds)` per commit.
    pub timings: Vec<(ScenarioKind, u64)>,
    /// Total wall time of the replay, nanoseconds.
    pub total_nanos: u64,
    /// System time after the replay.
    pub version: SysTime,
}

impl LoadReport {
    /// Median latency in nanoseconds for one scenario kind (`None` = all).
    pub fn median_nanos(&self, kind: Option<ScenarioKind>) -> Option<u64> {
        percentile(self.filtered(kind), 0.50)
    }

    /// 97th-percentile latency in nanoseconds (the paper's Fig 16 metric).
    pub fn p97_nanos(&self, kind: Option<ScenarioKind>) -> Option<u64> {
        percentile(self.filtered(kind), 0.97)
    }

    fn filtered(&self, kind: Option<ScenarioKind>) -> Vec<u64> {
        self.timings
            .iter()
            .filter(|(k, _)| kind.is_none_or(|want| *k == want))
            .map(|(_, n)| *n)
            .collect()
    }
}

fn percentile(mut xs: Vec<u64>, q: f64) -> Option<u64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_unstable();
    let idx = ((xs.len() - 1) as f64 * q).round() as usize;
    Some(xs[idx])
}

/// Creates the eight tables and loads version 0 in a single transaction, so
/// every initial tuple shares one system timestamp (paper §4.1 "loading the
/// output of TPC-H dbgen as version 0").
pub fn load_initial(engine: &mut dyn BitemporalEngine, data: &TpchData) -> Result<Vec<TableId>> {
    let mut ids = Vec::with_capacity(data.tables.len());
    for table in &data.tables {
        ids.push(engine.create_table(table.def.clone())?);
    }
    for (idx, table) in data.tables.iter().enumerate() {
        for (row, app) in &table.rows {
            engine.insert(ids[idx], row.clone(), *app)?;
        }
    }
    engine.commit();
    Ok(ids)
}

/// Resolves an op's table index against the load-order `ids`. The index
/// comes from archive or WAL bytes, so it is range-checked rather than
/// trusted: a checksum-valid record naming a table that does not exist is
/// an error, not a panic.
pub fn table_id(ids: &[TableId], table: u8) -> Result<TableId> {
    ids.get(usize::from(table)).copied().ok_or_else(|| {
        Error::Archive(format!(
            "op names table index {table}, but only {} tables exist",
            ids.len()
        ))
    })
}

/// Applies one archive op to an open engine transaction. Public because
/// the durability WAL replays through exactly this dispatch — recovery and
/// the original load must interpret an op identically. Table indices and
/// update columns are range-checked, since both are decoded bytes.
pub fn apply_op(engine: &mut dyn BitemporalEngine, ids: &[TableId], op: &Op) -> Result<()> {
    match op {
        Op::Insert { table, row, app } => engine.insert(table_id(ids, *table)?, row.clone(), *app),
        Op::Update {
            table,
            key,
            updates,
            portion,
        } => {
            let id = table_id(ids, *table)?;
            let arity = engine.table_def(id).schema.arity();
            let mut assignments: Vec<(usize, Value)> = Vec::with_capacity(updates.len());
            for (c, v) in updates {
                let col = usize::from(*c);
                if col >= arity {
                    return Err(Error::Archive(format!(
                        "update column {col} out of range for table index {table} (arity {arity})"
                    )));
                }
                assignments.push((col, v.clone()));
            }
            engine.update(id, key, &assignments, *portion).map(|_| ())
        }
        Op::Delete {
            table,
            key,
            portion,
        } => engine
            .delete(table_id(ids, *table)?, key, *portion)
            .map(|_| ()),
        Op::OverwriteApp { table, key, period } => engine
            .overwrite_app_period(table_id(ids, *table)?, key, *period)
            .map(|_| ()),
    }
}

/// Replays the archive, committing every `batch_size` scenarios. Strict:
/// the first op failure aborts the whole replay.
pub fn replay(
    engine: &mut dyn BitemporalEngine,
    ids: &[TableId],
    archive: &Archive,
    batch_size: usize,
) -> Result<LoadReport> {
    // tblint: allow(TB001) load-latency percentiles are the experiment's measurement (Fig 16)
    let started = Instant::now();
    let mut timings = Vec::with_capacity(archive.transactions.len());
    for batch in archive.transactions.chunks(batch_size.max(1)) {
        let kind = batch[0]
            .scenarios
            .first()
            .copied()
            .unwrap_or(ScenarioKind::NewOrderExistingCustomer);
        // tblint: allow(TB001) per-batch wall-clock is the measured quantity here
        let t0 = Instant::now();
        for txn in batch {
            for op in &txn.ops {
                apply_op(engine, ids, op)?;
            }
        }
        engine.commit();
        timings.push((kind, t0.elapsed().as_nanos() as u64));
    }
    Ok(LoadReport {
        timings,
        total_nanos: started.elapsed().as_nanos() as u64,
        version: engine.now(),
    })
}

/// Loads an archive from `path`, retrying up to `attempts` times on
/// retryable ([`Error::is_retryable`]) failures — transient I/O hiccups a
/// benchmark campaign should survive. Corruption is never retried.
pub fn load_archive_with_retry(path: impl AsRef<Path>, attempts: usize) -> Result<Archive> {
    read_archive_with_retry(|| Archive::load(path.as_ref()), attempts)
}

/// Generic retry driver over any archive source (used by the fault tests
/// to wire a [`bitempo_core::FaultyReader`] behind the closure).
pub fn read_archive_with_retry(
    mut source: impl FnMut() -> Result<Archive>,
    attempts: usize,
) -> Result<Archive> {
    let mut last: Option<Error> = None;
    for _ in 0..attempts.max(1) {
        match source() {
            Ok(a) => return Ok(a),
            Err(e) if e.is_retryable() => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("at least one attempt"))
}

/// Bulk-loads a fully-evolved history into an engine with manual system
/// time. The engine must support it (System D); tables are created here.
pub fn bulk_load(engine: &mut dyn BitemporalEngine, db: &GenDb) -> Result<Vec<TableId>> {
    let mut ids = Vec::with_capacity(db.table_count());
    for idx in 0..db.table_count() {
        ids.push(engine.create_table(db.def(idx).clone())?);
    }
    for (idx, &id) in ids.iter().enumerate() {
        engine.bulk_load(id, db.all_versions(idx))?;
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistoryConfig;
    use bitempo_dbgen::ScaleConfig;
    use bitempo_engine::api::{AppSpec, SysSpec};
    use bitempo_engine::{build_engine, SystemKind};

    fn tiny_inputs() -> (TpchData, crate::History) {
        let data = bitempo_dbgen::generate(&ScaleConfig::tiny());
        let history = crate::generate_history(&data, &HistoryConfig::tiny());
        (data, history)
    }

    #[test]
    fn initial_load_is_one_version() {
        let (data, _) = tiny_inputs();
        let mut engine = build_engine(SystemKind::A);
        let ids = load_initial(engine.as_mut(), &data).unwrap();
        assert_eq!(engine.now(), SysTime(1));
        let orders = ids[6];
        let out = engine
            .scan(orders, &SysSpec::Current, &AppSpec::All, &[])
            .unwrap();
        assert_eq!(out.rows.len(), 1_500);
        // Every tuple was stamped with the same commit time.
        let arity = out.rows[0].arity();
        for row in &out.rows {
            assert_eq!(row.get(arity - 2), &Value::SysTime(SysTime(1)));
        }
    }

    #[test]
    fn replay_matches_generator_state_on_all_engines() {
        let (data, history) = tiny_inputs();
        for kind in SystemKind::ALL {
            let mut engine = build_engine(kind);
            let ids = load_initial(engine.as_mut(), &data).unwrap();
            let report = replay(engine.as_mut(), &ids, &history.archive, 1).unwrap();
            assert_eq!(
                report.version,
                history.db.now(),
                "{kind}: commit counts must line up"
            );
            engine.checkpoint();
            for (idx, &id) in ids.iter().enumerate() {
                let mut got = engine
                    .scan(id, &SysSpec::All, &AppSpec::All, &[])
                    .unwrap()
                    .rows;
                let mut want = history.db.scan(idx, &SysSpec::All, &AppSpec::All);
                got.sort();
                want.sort();
                assert_eq!(
                    got.len(),
                    want.len(),
                    "{kind}, table {}: version counts",
                    history.db.def(idx).name
                );
                assert_eq!(got, want, "{kind}, table {}", history.db.def(idx).name);
            }
        }
    }

    #[test]
    fn bulk_load_equals_replay_on_system_d() {
        let (data, history) = tiny_inputs();
        let mut replayed = build_engine(SystemKind::D);
        let ids = load_initial(replayed.as_mut(), &data).unwrap();
        replay(replayed.as_mut(), &ids, &history.archive, 1).unwrap();

        let mut bulk = build_engine(SystemKind::D);
        let bulk_ids = bulk_load(bulk.as_mut(), &history.db).unwrap();

        for (&a, &b) in ids.iter().zip(&bulk_ids) {
            let mut ra = replayed
                .scan(a, &SysSpec::All, &AppSpec::All, &[])
                .unwrap()
                .rows;
            let mut rb = bulk
                .scan(b, &SysSpec::All, &AppSpec::All, &[])
                .unwrap()
                .rows;
            ra.sort();
            rb.sort();
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn bulk_load_fails_without_manual_time() {
        let (_, history) = tiny_inputs();
        let mut engine = build_engine(SystemKind::A);
        assert!(bulk_load(engine.as_mut(), &history.db).is_err());
    }

    #[test]
    fn batched_replay_reaches_same_final_state() {
        let (data, history) = tiny_inputs();
        let mut one = build_engine(SystemKind::A);
        let ids1 = load_initial(one.as_mut(), &data).unwrap();
        replay(one.as_mut(), &ids1, &history.archive, 1).unwrap();

        let mut batched = build_engine(SystemKind::A);
        let ids2 = load_initial(batched.as_mut(), &data).unwrap();
        let report = replay(batched.as_mut(), &ids2, &history.archive, 16).unwrap();
        assert!(report.version < one.now(), "fewer commits when batching");

        // Current state is identical even though version timestamps differ.
        for (&a, &b) in ids1.iter().zip(&ids2) {
            let mut ra = one
                .scan(a, &SysSpec::Current, &AppSpec::All, &[])
                .unwrap()
                .rows;
            let mut rb = batched
                .scan(b, &SysSpec::Current, &AppSpec::All, &[])
                .unwrap()
                .rows;
            let arity = ra.first().map_or(0, |r| r.arity());
            // Strip the system-time columns (they legitimately differ).
            let strip = |rows: &mut Vec<bitempo_core::Row>| {
                if arity >= 2 {
                    for r in rows.iter_mut() {
                        *r = r.project(&(0..r.arity().saturating_sub(2)).collect::<Vec<_>>());
                    }
                }
            };
            strip(&mut ra);
            strip(&mut rb);
            ra.sort();
            rb.sort();
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn load_report_percentiles() {
        let report = LoadReport {
            timings: (1..=100)
                .map(|i| (ScenarioKind::DeliverOrder, i * 100))
                .collect(),
            total_nanos: 0,
            version: SysTime(0),
        };
        assert_eq!(report.median_nanos(None), Some(5_100));
        assert_eq!(report.p97_nanos(None), Some(9_700));
        assert_eq!(report.median_nanos(Some(ScenarioKind::CancelOrder)), None);
    }

    #[test]
    fn strict_replay_aborts_on_a_failed_op() {
        let (data, history) = tiny_inputs();
        // Poison a middle transaction with an update to a nonexistent key.
        let mut archive = history.archive.clone();
        let mid = archive.transactions.len() / 2;
        archive.transactions[mid].ops.insert(
            0,
            Op::OverwriteApp {
                table: 6,
                key: bitempo_core::Key::int(i64::MAX),
                period: bitempo_core::Period::new(
                    bitempo_core::AppDate(0),
                    bitempo_core::AppDate::MAX,
                ),
            },
        );
        let mut engine = build_engine(SystemKind::A);
        let ids = load_initial(engine.as_mut(), &data).unwrap();
        assert!(matches!(
            replay(engine.as_mut(), &ids, &archive, 1),
            Err(Error::KeyNotFound(_))
        ));
    }

    #[test]
    fn retry_recovers_from_transient_errors_only() {
        let (_, history) = tiny_inputs();
        let mut buf = Vec::new();
        history.archive.write_to(&mut buf).unwrap();

        let mut attempts = 0;
        let archive = read_archive_with_retry(
            || {
                attempts += 1;
                if attempts == 1 {
                    Err(Error::Transient("flaky mount".into()))
                } else {
                    Archive::read_from_slice(&buf)
                }
            },
            3,
        )
        .unwrap();
        assert_eq!(archive, history.archive);
        assert_eq!(attempts, 2);

        // Corruption is never retried.
        let mut calls = 0;
        let err = read_archive_with_retry(
            || {
                calls += 1;
                Err(Error::Archive("corrupt".into()))
            },
            5,
        )
        .unwrap_err();
        assert!(matches!(err, Error::Archive(_)));
        assert_eq!(calls, 1);

        // A stream that stays transient exhausts its attempts.
        let mut calls = 0;
        let err = read_archive_with_retry(
            || {
                calls += 1;
                Err(Error::Transient("still flaky".into()))
            },
            3,
        )
        .unwrap_err();
        assert!(err.is_retryable());
        assert_eq!(calls, 3);
    }
}
