//! The benchmark's seams into the program: an engine decorator and a WAL
//! sink wrapper. Both forward every call unchanged and, while tracing is
//! on, record a span around it with the work the call reported.

use crate::trace::{self, Kind, Work};
use bitempo_core::{AppPeriod, Key, Result, Row, SysPeriod, SysTime, TableDef, TableId, Value};
use bitempo_engine::api::{AppSpec, ColRange, ScanOutput, SysSpec, TableStats, TuningConfig};
use bitempo_engine::{BitemporalEngine, Version};
use bitempo_wal::WalSink;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn scan_work(out: &Result<ScanOutput>) -> Work {
    match out {
        Ok(o) => Work {
            rows: o.rows.len() as u64,
            visited: o.metrics.rows_visited,
            planned: o.metrics.planned_rows,
            probes: o.metrics.index_probes,
            hits: o.metrics.index_hits,
            node_visits: o.metrics.index_node_visits,
            morsels: o.metrics.morsels,
            bytes: 0,
        },
        Err(_) => Work::default(),
    }
}

/// A [`BitemporalEngine`] that times and counts the calls made into the
/// engine it wraps: scans and key lookups (with their `ScanOutput`
/// metrics), DML, and commit.
pub struct TimedEngine {
    inner: Box<dyn BitemporalEngine>,
}

impl TimedEngine {
    /// Wraps `inner`.
    pub fn wrap(inner: Box<dyn BitemporalEngine>) -> Box<dyn BitemporalEngine> {
        Box::new(TimedEngine { inner })
    }
}

impl BitemporalEngine for TimedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn architecture(&self) -> &'static str {
        self.inner.architecture()
    }

    fn create_table(&mut self, def: TableDef) -> Result<TableId> {
        self.inner.create_table(def)
    }

    fn resolve(&self, name: &str) -> Result<TableId> {
        self.inner.resolve(name)
    }

    fn table_names(&self) -> Vec<String> {
        self.inner.table_names()
    }

    fn table_def(&self, table: TableId) -> &TableDef {
        self.inner.table_def(table)
    }

    fn apply_tuning(&mut self, tuning: &TuningConfig) -> Result<()> {
        self.inner.apply_tuning(tuning)
    }

    fn insert(&mut self, table: TableId, row: Row, app: Option<AppPeriod>) -> Result<()> {
        trace::record(Kind::EngineDml, || self.inner.insert(table, row, app))
    }

    fn update(
        &mut self,
        table: TableId,
        key: &Key,
        updates: &[(usize, Value)],
        portion: Option<AppPeriod>,
    ) -> Result<usize> {
        trace::record(Kind::EngineDml, || {
            self.inner.update(table, key, updates, portion)
        })
    }

    fn delete(&mut self, table: TableId, key: &Key, portion: Option<AppPeriod>) -> Result<usize> {
        trace::record(Kind::EngineDml, || self.inner.delete(table, key, portion))
    }

    fn overwrite_app_period(
        &mut self,
        table: TableId,
        key: &Key,
        period: AppPeriod,
    ) -> Result<usize> {
        trace::record(Kind::EngineDml, || {
            self.inner.overwrite_app_period(table, key, period)
        })
    }

    fn commit(&mut self) -> SysTime {
        trace::record(Kind::EngineCommit, || self.inner.commit())
    }

    fn now(&self) -> SysTime {
        self.inner.now()
    }

    fn advance_clock(&mut self, to: SysTime) {
        self.inner.advance_clock(to);
    }

    fn scan(
        &self,
        table: TableId,
        sys: &SysSpec,
        app: &AppSpec,
        preds: &[ColRange],
    ) -> Result<ScanOutput> {
        trace::record_work(
            Kind::EngineScan,
            || self.inner.scan(table, sys, app, preds),
            scan_work,
        )
    }

    fn lookup_key(
        &self,
        table: TableId,
        key: &Key,
        sys: &SysSpec,
        app: &AppSpec,
    ) -> Result<ScanOutput> {
        trace::record_work(
            Kind::EngineLookup,
            || self.inner.lookup_key(table, key, sys, app),
            scan_work,
        )
    }

    fn stats(&self, table: TableId) -> TableStats {
        self.inner.stats(table)
    }

    fn temporal_index_footprint(&self) -> bitempo_tindex::IndexFootprint {
        self.inner.temporal_index_footprint()
    }

    fn supports_manual_system_time(&self) -> bool {
        self.inner.supports_manual_system_time()
    }

    fn bulk_load(
        &mut self,
        table: TableId,
        versions: Vec<(Row, AppPeriod, SysPeriod)>,
    ) -> Result<()> {
        self.inner.bulk_load(table, versions)
    }

    fn checkpoint(&mut self) {
        self.inner.checkpoint();
    }

    fn snapshot_versions(&self, table: TableId) -> Result<Vec<Version>> {
        self.inner.snapshot_versions(table)
    }

    fn restore(&mut self, table: TableId, versions: Vec<Version>, now: SysTime) -> Result<()> {
        self.inner.restore(table, versions, now)
    }
}

/// Totals a [`TimedSink`] keeps whether or not tracing is on: they cost
/// one relaxed add per sink call, next to a write or an fsync.
#[derive(Debug, Default)]
pub struct SinkTally {
    /// `write` calls.
    pub writes: AtomicU64,
    /// Bytes accepted by `write`.
    pub bytes: AtomicU64,
    /// `sync` calls.
    pub syncs: AtomicU64,
}

impl SinkTally {
    /// `(writes, bytes, syncs)` so far.
    pub fn get(&self) -> (u64, u64, u64) {
        (
            self.writes.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
            self.syncs.load(Ordering::Relaxed),
        )
    }
}

/// Request tag of WAL flushes (the writes and sync of one flusher batch
/// share a request id).
pub const FLUSH_TAG: u32 = u32::MAX;

/// A [`WalSink`] that times and counts `write`/`sync` calls and the bytes
/// written into the sink it wraps. The writes between two syncs form one
/// flush request.
pub struct TimedSink<S> {
    inner: S,
    tally: Arc<SinkTally>,
    flush_req: Option<u64>,
}

impl<S: WalSink> TimedSink<S> {
    /// Wraps `inner`; `tally` receives the totals.
    pub fn new(inner: S, tally: Arc<SinkTally>) -> TimedSink<S> {
        TimedSink {
            inner,
            tally,
            flush_req: None,
        }
    }

    fn flush_req(&mut self) -> u64 {
        *self.flush_req.get_or_insert_with(trace::next_request_id)
    }
}

impl<S: WalSink> Write for TimedSink<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let req = self.flush_req();
        let inner = &mut self.inner;
        let n = trace::record_in(
            req,
            FLUSH_TAG,
            Kind::WalWrite,
            || inner.write(buf),
            |r| Work {
                bytes: *r.as_ref().unwrap_or(&0) as u64,
                ..Work::default()
            },
        )?;
        self.tally.writes.fetch_add(1, Ordering::Relaxed);
        self.tally.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<S: WalSink> WalSink for TimedSink<S> {
    fn sync(&mut self) -> io::Result<()> {
        let req = self.flush_req();
        let inner = &mut self.inner;
        let out = trace::record_in(
            req,
            FLUSH_TAG,
            Kind::WalSync,
            || inner.sync(),
            |_| Work::default(),
        );
        self.flush_req = None;
        self.tally.syncs.fetch_add(1, Ordering::Relaxed);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitempo_dbgen::ScaleConfig;
    use bitempo_engine::build_engine;
    use bitempo_engine::testutil::{bitemp_table, simple_row};
    use bitempo_engine::SystemKind;
    use bitempo_histgen::{loader, HistoryConfig};
    use bitempo_txn::TxnManager;
    use bitempo_wal::{canonical_state, DurabilityMode, SharedBuf, TxnWal};
    use bitempo_workloads::{five_class_answers, five_class_diff, Ctx, QueryParams};

    fn loaded(
        engine: &mut dyn BitemporalEngine,
        data: &bitempo_dbgen::TpchData,
        history: &bitempo_histgen::History,
    ) {
        let ids = loader::load_initial(engine, data).unwrap();
        loader::replay(engine, &ids, &history.archive, 1).unwrap();
        engine.checkpoint();
        engine.apply_tuning(&crate::setup::tuning(2, true)).unwrap();
    }

    /// The decorator changes no answer: the five-class probe agrees exactly
    /// with the bare engine, with tracing on.
    #[test]
    fn timed_engine_answers_like_the_bare_engine() {
        let data = bitempo_dbgen::generate(&ScaleConfig::tiny());
        let history = bitempo_histgen::generate_history(&data, &HistoryConfig::tiny());
        trace::set_enabled(true);
        for kind in SystemKind::ALL {
            let mut bare = build_engine(kind);
            let mut timed = TimedEngine::wrap(build_engine(kind));
            loaded(bare.as_mut(), &data, &history);
            loaded(timed.as_mut(), &data, &history);
            let p = QueryParams::derive(bare.as_ref()).unwrap();
            let (b, t) = (
                Ctx::new(bare.as_ref()).unwrap(),
                Ctx::new(timed.as_ref()).unwrap(),
            );
            let (want, got) = (
                five_class_answers(&b, &p).unwrap(),
                five_class_answers(&t, &p).unwrap(),
            );
            assert_eq!(five_class_diff(&want, &got), None, "{kind}");
        }
        trace::set_enabled(false);
        assert!(trace::take().iter().any(|s| s.kind == Kind::EngineScan));
    }

    /// Both seams together are transparent to the serving layer: the same
    /// transactions through a decorated engine and a wrapped sink leave the
    /// same WAL bytes and the same state as through the bare ones.
    #[test]
    fn timed_sink_writes_the_same_wal_bytes() {
        for mode in [DurabilityMode::Batched(1), DurabilityMode::Strict] {
            let run = |wrap: bool| {
                let mut engine = build_engine(SystemKind::A);
                let table = engine.create_table(bitemp_table("t")).unwrap();
                engine.commit();
                let buf = SharedBuf::new();
                let tally = Arc::new(SinkTally::default());
                let (engine, sink): (Box<dyn BitemporalEngine>, Box<dyn WalSink>) = if wrap {
                    (
                        TimedEngine::wrap(engine),
                        Box::new(TimedSink::new(buf.clone(), Arc::clone(&tally))),
                    )
                } else {
                    (engine, Box::new(buf.clone()))
                };
                let mgr = TxnManager::new(
                    engine,
                    vec![table],
                    Some(TxnWal::create(sink, mode).unwrap()),
                )
                .unwrap();
                for i in 0..40 {
                    let mut txn = mgr.begin().unwrap();
                    txn.insert(table, simple_row(i, i), None).unwrap();
                    if i > 0 {
                        txn.update(table, &Key::int(i - 1), &[(1, Value::Int(-i))], None)
                            .unwrap();
                    }
                    txn.commit().unwrap();
                }
                let (engine, ids, durable) = mgr.close().unwrap();
                assert_eq!(durable, 40);
                let bytes = buf.snapshot();
                if wrap {
                    let (writes, written, syncs) = tally.get();
                    assert!(writes > 0 && syncs > 0);
                    assert_eq!(written, bytes.len() as u64);
                }
                (bytes, canonical_state(engine.as_ref(), &ids).unwrap())
            };
            assert_eq!(run(false), run(true), "{mode:?}");
        }
    }
}
