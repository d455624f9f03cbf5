//! # bitempo-txn
//!
//! The MVCC serving layer: interactive snapshot transactions over any of
//! the four engines, with first-committer-wins conflict detection and
//! WAL-backed durability (ROADMAP open item 1).
//!
//! The paper benchmarks single-threaded query streams, but its "ready for
//! the future" question is about serving concurrent mixed workloads. The
//! engines already are version stores ordered by commit time, so snapshot
//! isolation falls out of the bitemporal model itself: a transaction pins
//! the system time `T` of the latest commit at [`TxnManager::begin`], and
//! every read translates its system-time specification so only versions
//! committed at or before `T` are visible (`AS OF T` is the snapshot).
//!
//! **Concurrency model.** A [`std::sync::RwLock`] guards the engine:
//! snapshot reads share it, a committing writer takes it exclusively for
//! the short *validate → apply → log → commit* critical section — the
//! atomic publish point. Readers therefore never observe a partially
//! applied transaction: between commits there is no pending state at all,
//! and during one the writer holds the lock exclusively. Writes are
//! buffered in the [`Transaction`], so the writer's exclusive window is
//! proportional to the write set, never to the user's think time; the
//! expensive part of commit — waiting for group-commit durability — happens
//! *after* the lock is released, so concurrent committers amortize one
//! fsync ([`bitempo_wal::DurabilityWaiter`]).
//!
//! **Durable-log agreement.** Buffered ops are validated against the
//! cached [`TableDef`] as they are buffered (arity, temporal class, empty
//! periods, column bounds), so every deterministic apply failure surfaces
//! before commit even starts. At commit the ops are *applied first and
//! logged after*, still inside the exclusive section: a WAL record
//! therefore always describes a transaction that fully applied, which is
//! what lets [`bitempo_wal::recover`] replay every logged record. In both
//! failure directions the durable log and the reported outcome agree — a
//! failed apply logs nothing, and an append failure after apply poisons
//! the manager without a record, so recovery never resurrects a
//! transaction whose commit returned an error. This commit path is the
//! only writer of WAL records: archive replay with a log
//! ([`replay_logged`]) commits each archive transaction through it too.
//!
//! **First-committer-wins.** Each buffered write contributes a
//! `(table, key, application-period)` entry to the transaction's write
//! set. Commit validation scans the records of transactions that committed
//! after the snapshot was pinned; any entry with the same table and key
//! whose application period overlaps aborts the committer with
//! [`bitempo_core::Error::Conflict`] before anything is logged or applied.
//! The caller re-runs the transaction against a fresh snapshot.
//!
//! **Snapshot contract.** A pinned snapshot guarantees the *row set*: every
//! read returns exactly the rows of the commit-prefix state at `T`. The
//! rendered system-period end of a version closed after `T` reflects the
//! later close (the engines store one period per version); row visibility
//! is unaffected, which is the isolation property the oracle tests check.

// Tests may unwrap freely; production serving-layer code must not (tblint
// TB010 for lock results, `clippy::unwrap_used` in Cargo.toml for the rest).
#![cfg_attr(test, allow(clippy::unwrap_used))]

use bitempo_core::{AppPeriod, Error, Key, Result, Row, SysTime, TableDef, TableId, Value};
use bitempo_engine::api::{
    AppSpec, BitemporalEngine, ColRange, ScanOutput, SysSpec, TableStats, TuningConfig,
};
use bitempo_histgen::{apply_op, table_id, Op, Transaction as TxnOps};
use bitempo_wal::{Checkpoint, DurabilityWaiter, TxnWal};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard};

/// One write-set entry: the unit of first-committer-wins validation.
#[derive(Debug, Clone, PartialEq)]
struct WriteEntry {
    /// Table index (the archive's load-order index, as in [`Op`]).
    table: u8,
    /// Primary key touched.
    key: Key,
    /// Application-period range touched; two entries on the same key
    /// conflict only when these overlap (disjoint `FOR PORTION OF` writes
    /// to one key are serializable as-is).
    app: AppPeriod,
}

/// What one committed transaction wrote, kept for validating later
/// committers whose snapshots predate it.
#[derive(Debug, Clone)]
struct CommitRecord {
    /// Commit (system) time.
    ts: SysTime,
    /// The write set.
    writes: Vec<WriteEntry>,
}

/// Engine-side state under the manager's reader/writer lock.
struct EngineState {
    engine: Box<dyn BitemporalEngine>,
    ids: Vec<TableId>,
    /// Commit records newer than the oldest active pin, ascending by `ts`.
    commit_log: Vec<CommitRecord>,
    /// WAL records appended so far (0 when running without a WAL).
    applied_seq: u64,
    /// Set when an apply failed mid-transaction: the engine holds
    /// uncommitted partial state that has no rollback path. New
    /// transactions are refused and existing snapshots stop using the
    /// current-partition fast path (pending versions are visible there).
    poisoned: Option<String>,
}

/// Monotonic counters for the benchmark's `txn_*`/`conflict_*` series.
#[derive(Debug, Default)]
pub struct TxnCounters {
    /// Transactions committed (including read-only commits).
    pub committed: AtomicU64,
    /// Transactions aborted by first-committer-wins validation.
    pub conflicts: AtomicU64,
    /// Snapshots pinned by [`TxnManager::begin`].
    pub snapshots: AtomicU64,
    /// Snapshot pins released — by commit (at publish), rollback, or drop.
    /// Balances [`Self::snapshots`] once every transaction has resolved;
    /// the isolation suite asserts the two agree after each storm.
    pub released: AtomicU64,
}

/// The MVCC front-end over one engine. See the crate docs for the model.
pub struct TxnManager {
    state: RwLock<EngineState>,
    /// The commit log sink; `None` runs without durability (tests).
    wal: Mutex<Option<TxnWal>>,
    /// Active snapshot pins (`pin -> count`): the floor below which commit
    /// records can be pruned, maintained by [`Transaction`] drop.
    pins: Mutex<BTreeMap<SysTime, usize>>,
    /// Immutable table metadata, cached so write buffering never takes the
    /// state lock (a transaction may buffer while holding a [`Snapshot`],
    /// and `std`'s `RwLock` read-reentrancy can deadlock behind a queued
    /// writer).
    defs: Vec<TableDef>,
    /// Table ids in load order, mirroring `defs` (immutable).
    ids: Vec<TableId>,
    counters: TxnCounters,
}

impl TxnManager {
    /// Wraps a loaded engine. `ids` must be the engine's tables in archive
    /// load order (at most 256, the [`Op`] addressing limit); `wal`, when
    /// present, receives one record per committed writing transaction, in
    /// the archive op encoding [`bitempo_wal::recover`] replays.
    ///
    /// A non-empty `wal` is adopted, not reset: sequence numbering
    /// continues from its last appended record, so checkpoints taken from
    /// this manager stay labelled with the exact WAL seq they cover. The
    /// caller must hand over an engine that already contains the effects
    /// of every record in the log (the WAL only ever records applied
    /// transactions).
    pub fn new(
        engine: Box<dyn BitemporalEngine>,
        ids: Vec<TableId>,
        wal: Option<TxnWal>,
    ) -> Result<TxnManager> {
        if ids.len() > 256 {
            return Err(Error::Invalid(format!(
                "op encoding addresses at most 256 tables, got {}",
                ids.len()
            )));
        }
        let defs = ids.iter().map(|&id| engine.table_def(id).clone()).collect();
        let applied_seq = wal.as_ref().map_or(0, |w| w.submitted_seq());
        Ok(TxnManager {
            state: RwLock::new(EngineState {
                engine,
                ids: ids.clone(),
                commit_log: Vec::new(),
                applied_seq,
                poisoned: None,
            }),
            wal: Mutex::new(wal),
            pins: Mutex::new(BTreeMap::new()),
            defs,
            ids,
            counters: TxnCounters::default(),
        })
    }

    /// The commit counters.
    pub fn counters(&self) -> &TxnCounters {
        &self.counters
    }

    /// Table ids in load order (the same order as at construction).
    pub fn table_ids(&self) -> &[TableId] {
        &self.ids
    }

    /// System time of the latest commit.
    pub fn now(&self) -> SysTime {
        self.state.read().expect("txn state poisoned").engine.now()
    }

    /// Begins a transaction pinned to the latest commit time. Reads through
    /// [`Transaction::snapshot`] see exactly that commit-prefix state;
    /// writes buffer locally until [`Transaction::commit`].
    pub fn begin(&self) -> Result<Transaction<'_>> {
        let pin = {
            let st = self.state.read().expect("txn state poisoned");
            if let Some(why) = &st.poisoned {
                return Err(Error::Internal(format!("txn manager poisoned: {why}")));
            }
            let pin = st.engine.now();
            // Register the pin while still holding the read lock, so no
            // concurrent committer can prune past it in between. The pin
            // registry is the innermost lock in the manager's hierarchy
            // (state -> wal -> pins); naming the guard keeps its region
            // explicit to readers and to tblint's guard-region scanner.
            let mut pins = self.pins.lock().expect("pin registry poisoned");
            *pins.entry(pin).or_insert(0) += 1;
            drop(pins);
            pin
        };
        self.counters.snapshots.fetch_add(1, Ordering::Relaxed);
        Ok(Transaction {
            mgr: self,
            pin,
            ops: Vec::new(),
            writes: Vec::new(),
            unpinned: false,
        })
    }

    /// Opens a read-only snapshot pinned at an explicit system time,
    /// without registering a pin or creating a [`Transaction`]. This is
    /// the cross-shard read seam: a cluster snapshot pins every shard at
    /// one oracle timestamp and reads each through the same sys-spec
    /// translation interactive snapshots use. Reading *committed history*
    /// needs no pin bookkeeping — pins only guard the first-committer-wins
    /// log, which read-only views never consult. `pin` may exceed the
    /// shard's local watermark (the shard simply has nothing newer yet);
    /// visibility is still exactly the commit-prefix at `pin`.
    pub fn snapshot_at(&self, pin: SysTime) -> Result<Snapshot<'_>> {
        let guard = self.state.read().expect("txn state poisoned");
        Ok(Snapshot {
            now: guard.engine.now(),
            degraded: guard.poisoned.is_some(),
            guard,
            pin,
        })
    }

    /// Captures a durability checkpoint of the current committed state,
    /// labelled with the exact WAL sequence number it covers. Runs under
    /// the *write* lock: a checkpoint can never interleave with a commit,
    /// so the transaction committing concurrently with checkpoint capture
    /// is either fully inside it (and `seq` covers its WAL record) or fully
    /// after it (and recovery replays it) — never half-captured.
    pub fn checkpoint(&self) -> Result<Checkpoint> {
        let mut st = self.state.write().expect("txn state poisoned");
        let EngineState {
            engine,
            ids,
            applied_seq,
            ..
        } = &mut *st;
        engine.checkpoint();
        Checkpoint::capture(engine.as_mut(), ids, *applied_seq)
    }

    /// Shuts the manager down: closes the WAL (surfacing any sink failure
    /// and the durable watermark) and returns the engine with its ids.
    pub fn close(self) -> Result<(Box<dyn BitemporalEngine>, Vec<TableId>, u64)> {
        let wal = self.wal.into_inner().expect("wal lock poisoned");
        let durable = match wal {
            Some(w) => w.close()?,
            None => 0,
        };
        let st = self.state.into_inner().expect("txn state poisoned");
        Ok((st.engine, st.ids, durable))
    }

    /// Number of currently registered snapshot pins (the pruning floor's
    /// population). Zero once every transaction has committed, rolled
    /// back, or dropped — the balance the isolation suite asserts.
    pub fn active_pins(&self) -> usize {
        let pins = self.pins.lock().expect("pin registry poisoned");
        pins.values().sum()
    }

    fn unpin(&self, pin: SysTime) {
        let mut pins = self.pins.lock().expect("pin registry poisoned");
        if let Some(n) = pins.get_mut(&pin) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&pin);
            }
        }
        drop(pins);
        self.counters.released.fetch_add(1, Ordering::Relaxed);
    }

    fn def_index(&self, table: TableId) -> Result<usize> {
        self.ids
            .iter()
            .position(|&id| id == table)
            .ok_or_else(|| Error::Invalid(format!("table {table:?} is not managed here")))
    }
}

/// An open transaction: a pinned snapshot plus locally buffered writes.
/// Dropping it without committing is a rollback.
pub struct Transaction<'a> {
    mgr: &'a TxnManager,
    pin: SysTime,
    /// Buffered operations, in execution order.
    ops: Vec<Op>,
    /// The write set the buffered ops will be validated under.
    writes: Vec<WriteEntry>,
    unpinned: bool,
}

impl<'a> Transaction<'a> {
    /// The snapshot's pinned system time.
    pub fn pin(&self) -> SysTime {
        self.pin
    }

    /// Opens the pinned snapshot for reading. Holds the manager's shared
    /// lock for the guard's lifetime — queries on it never block each
    /// other, and a committer waits only for guards currently open, not
    /// for the transaction's think time.
    pub fn snapshot(&self) -> Snapshot<'_> {
        let guard = self.mgr.state.read().expect("txn state poisoned");
        Snapshot {
            now: guard.engine.now(),
            degraded: guard.poisoned.is_some(),
            guard,
            pin: self.pin,
        }
    }

    fn def_for(&self, table: TableId) -> Result<(u8, &TableDef)> {
        let idx = self.mgr.def_index(table)?;
        Ok((idx as u8, &self.mgr.defs[idx]))
    }

    /// Buffers an insert of `row` valid for `app`.
    pub fn insert(&mut self, table: TableId, row: Row, app: Option<AppPeriod>) -> Result<()> {
        let (t, def) = self.def_for(table)?;
        if row.arity() != def.schema.arity() {
            return Err(Error::Invalid(format!(
                "arity {} vs schema {} for {}",
                row.arity(),
                def.schema.arity(),
                def.name
            )));
        }
        check_app_period(def, app.as_ref(), "application period")?;
        self.writes.push(WriteEntry {
            table: t,
            key: Key::from_row(&row, &def.key),
            app: app.unwrap_or(AppPeriod::ALL),
        });
        self.ops.push(Op::Insert { table: t, row, app });
        Ok(())
    }

    /// Buffers a sequenced update of `key` for `portion`.
    pub fn update(
        &mut self,
        table: TableId,
        key: &Key,
        updates: &[(usize, Value)],
        portion: Option<AppPeriod>,
    ) -> Result<()> {
        let (t, def) = self.def_for(table)?;
        for (col, _) in updates {
            if *col >= def.schema.arity() {
                return Err(Error::Invalid(format!(
                    "update column {col} out of range for {} (arity {})",
                    def.name,
                    def.schema.arity()
                )));
            }
        }
        check_portion(def, portion.as_ref())?;
        self.writes.push(WriteEntry {
            table: t,
            key: key.clone(),
            app: portion.unwrap_or(AppPeriod::ALL),
        });
        self.ops.push(Op::Update {
            table: t,
            key: key.clone(),
            updates: updates
                .iter()
                .map(|(c, v)| (*c as u16, v.clone()))
                .collect(),
            portion,
        });
        Ok(())
    }

    /// Buffers a sequenced delete of `key` for `portion`.
    pub fn delete(&mut self, table: TableId, key: &Key, portion: Option<AppPeriod>) -> Result<()> {
        let (t, def) = self.def_for(table)?;
        check_portion(def, portion.as_ref())?;
        self.writes.push(WriteEntry {
            table: t,
            key: key.clone(),
            app: portion.unwrap_or(AppPeriod::ALL),
        });
        self.ops.push(Op::Delete {
            table: t,
            key: key.clone(),
            portion,
        });
        Ok(())
    }

    /// Buffers an application-period overwrite of `key`. Conservatively
    /// conflicts with any concurrent write to the key: the overwrite
    /// rewrites every visible version's period, so no portion is safe.
    pub fn overwrite_app_period(
        &mut self,
        table: TableId,
        key: &Key,
        period: AppPeriod,
    ) -> Result<()> {
        let (t, def) = self.def_for(table)?;
        check_app_period(def, Some(&period), "application-period overwrite")?;
        self.writes.push(WriteEntry {
            table: t,
            key: key.clone(),
            app: AppPeriod::ALL,
        });
        self.ops.push(Op::OverwriteApp {
            table: t,
            key: key.clone(),
            period,
        });
        Ok(())
    }

    /// Buffers one archive op through the validated method for its kind
    /// ([`Self::insert`], [`Self::update`], [`Self::delete`],
    /// [`Self::overwrite_app_period`]). The op's table index is
    /// range-checked exactly as [`apply_op`] checks it on replay.
    pub fn buffer(&mut self, op: &Op) -> Result<()> {
        let ids = &self.mgr.ids;
        match op {
            Op::Insert { table, row, app } => {
                self.insert(table_id(ids, *table)?, row.clone(), *app)
            }
            Op::Update {
                table,
                key,
                updates,
                portion,
            } => {
                let sets: Vec<(usize, Value)> = updates
                    .iter()
                    .map(|(c, v)| (usize::from(*c), v.clone()))
                    .collect();
                self.update(table_id(ids, *table)?, key, &sets, *portion)
            }
            Op::Delete {
                table,
                key,
                portion,
            } => self.delete(table_id(ids, *table)?, key, *portion),
            Op::OverwriteApp { table, key, period } => {
                self.overwrite_app_period(table_id(ids, *table)?, key, *period)
            }
        }
    }

    /// Discards the buffered writes and releases the snapshot pin —
    /// explicitly, so the release is symmetric with [`Self::commit`]'s
    /// release-at-publish rather than deferred to a later drop.
    pub fn rollback(mut self) {
        self.ops.clear();
        self.writes.clear();
        self.unpinned = true;
        self.mgr.unpin(self.pin);
    }

    /// Validates, applies, logs and publishes the buffered writes, then
    /// waits for the WAL's durability contract *outside* the publish lock.
    /// Returns the commit's system time (the pin itself for a read-only
    /// transaction, which neither validates nor logs anything).
    ///
    /// On [`Error::Conflict`] nothing was logged or applied; re-run the
    /// whole transaction against a fresh snapshot. On any other error,
    /// one of three states holds and the error says which: nothing applied
    /// (the validation and preflight paths); the manager is poisoned *and
    /// the WAL holds no record of this transaction* (apply/submit
    /// failures — recovery never replays a transaction whose commit
    /// reported failure); or, rarest, the record was published and written
    /// but the durability wait itself failed — the manager poisons
    /// fail-stop, because whether that tail survives a crash is unknown.
    pub fn commit(self) -> Result<SysTime> {
        let (ts, wait) = self.commit_submit(None)?;
        if let Some(wait) = wait {
            wait.wait()?;
        }
        Ok(ts)
    }

    /// [`Self::commit`] stamped with a cluster-issued global commit
    /// timestamp: the engine clock is advanced so the commit lands at
    /// exactly `gts`, and the WAL record carries `gts` so recovery
    /// re-stamps it identically. Returns the publish time plus the
    /// durability wait still owed — the sharded cluster publishes, drops
    /// its shard gate, and *then* waits, so one shard's fsync never
    /// serializes the others. Callers without their own locks to escape
    /// can simply `wait()` immediately.
    pub fn commit_at(self, gts: u64) -> Result<(SysTime, Option<CommitWait<'a>>)> {
        self.commit_submit(Some(gts))
    }

    /// The validate → preflight → apply → log → publish section shared by
    /// [`Self::commit`] and [`Self::commit_at`]; returns without waiting
    /// for durability.
    fn commit_submit(mut self, gts: Option<u64>) -> Result<(SysTime, Option<CommitWait<'a>>)> {
        if self.ops.is_empty() {
            self.mgr.counters.committed.fetch_add(1, Ordering::Relaxed);
            let pin = self.pin;
            self.unpinned = true;
            self.mgr.unpin(pin);
            return Ok((pin, None));
        }
        let ops = std::mem::take(&mut self.ops);
        let writes = std::mem::take(&mut self.writes);

        let mut st = self.mgr.state.write().expect("txn state poisoned");
        if let Some(why) = &st.poisoned {
            return Err(Error::Internal(format!("txn manager poisoned: {why}")));
        }

        // First-committer-wins: compare against every record committed
        // after this snapshot was pinned (the log is ascending in `ts`).
        for rec in st.commit_log.iter().rev() {
            if rec.ts <= self.pin {
                break;
            }
            for theirs in &rec.writes {
                for ours in &writes {
                    if theirs.table == ours.table
                        && theirs.key == ours.key
                        && theirs.app.overlaps(&ours.app)
                    {
                        self.mgr.counters.conflicts.fetch_add(1, Ordering::Relaxed);
                        return Err(Error::Conflict(format!(
                            "table {} key {} app {:?}: written by the transaction \
                             committed at {} after this snapshot's pin {}",
                            theirs.table, theirs.key, theirs.app, rec.ts, self.pin
                        )));
                    }
                }
            }
        }

        // Pre-flight the sequenced ops so the overwhelmingly common apply
        // failure — a vanished key — aborts *before* the engine is touched
        // (the engines have no rollback). Keys this transaction inserts
        // itself count as present.
        preflight(&st, &ops)?;

        // Encode the WAL payload up front: encoding is pure on the
        // buffered ops, so a failure here aborts cleanly, pre-apply.
        let payload = {
            let wal = self.mgr.wal.lock().expect("wal lock poisoned");
            match wal.as_ref() {
                Some(_) => {
                    let body = TxnOps {
                        scenarios: Vec::new(),
                        ops: ops.clone(),
                    };
                    // A plain commit keeps the raw archive framing PR 7
                    // recovery already replays; a cluster commit wraps it
                    // so recovery re-stamps the commit at `gts`.
                    Some(match gts {
                        Some(g) => bitempo_wal::encode_committed_at(g, &body)?,
                        None => bitempo_histgen::encode_txn(&body)?,
                    })
                }
                None => None,
            }
        };

        // Apply before logging: a record only enters the WAL once its
        // transaction has fully applied, so recovery can replay every
        // logged record. An apply failure past preflight leaves
        // unpublishable partial state (no rollback), so it poisons the
        // manager — with nothing logged, the durable history still agrees
        // with the reported failure.
        let EngineState {
            engine,
            ids,
            poisoned,
            applied_seq,
            ..
        } = &mut *st;
        // Cluster commits land at the oracle's global timestamp: advance
        // the shard clock first so the ops' version stamps (`now.next()`)
        // and the commit itself all carry `gts`, byte-identical to a
        // single-engine serial history at the same timestamps.
        if let Some(g) = gts {
            debug_assert!(
                g > engine.now().0,
                "oracle timestamps are unique and ascending"
            );
            engine.advance_clock(SysTime(g.saturating_sub(1)));
        }
        for op in &ops {
            if let Err(e) = apply_op(engine.as_mut(), ids, op) {
                *poisoned = Some(format!("apply failed mid-transaction: {e}"));
                return Err(Error::Internal(format!(
                    "transaction half-applied, manager poisoned: {e}"
                )));
            }
        }

        // Log after apply, still inside the exclusive section, so WAL
        // order is commit order (recovery replays every record through the
        // same `apply_op` dispatch). `submit` writes the frame without syncing:
        // the fsync belongs to the waiter below, *outside* every lock, so
        // a strict-mode sync never serializes readers behind the disk
        // (tblint TB008). A submit failure here poisons: the applied state
        // cannot be rolled back and must not publish as committed, and
        // since the record never landed, recovery excludes the transaction
        // exactly as the returned error reports.
        let mut waiter: Option<(DurabilityWaiter, u64)> = None;
        if let Some(payload) = payload {
            let mut wal = self.mgr.wal.lock().expect("wal lock poisoned");
            let w = wal.as_mut().expect("wal vanished mid-commit");
            match w.submit(&payload) {
                Ok(seq) => {
                    debug_assert_eq!(seq, *applied_seq + 1, "WAL order must be commit order");
                    waiter = Some((w.waiter(), seq));
                }
                Err(e) => {
                    *poisoned = Some(format!("WAL submit failed after apply: {e}"));
                    return Err(Error::Internal(format!(
                        "transaction applied but not logged, manager poisoned: {e}"
                    )));
                }
            }
        }
        let ts = engine.commit();
        debug_assert!(
            gts.is_none_or(|g| ts.0 == g),
            "a cluster commit must land exactly at its oracle timestamp"
        );
        *applied_seq = match &waiter {
            Some((_, seq)) => *seq,
            None => *applied_seq + 1,
        };
        st.commit_log.push(CommitRecord { ts, writes });

        // Prune commit records no active snapshot can still conflict with.
        let floor = {
            let pins = self.mgr.pins.lock().expect("pin registry poisoned");
            pins.keys().next().copied().unwrap_or(ts)
        };
        if st.commit_log.first().is_some_and(|r| r.ts <= floor) {
            st.commit_log.retain(|r| r.ts > floor);
        }
        drop(st);

        // Release the snapshot pin at publish, not at drop: the pin is a
        // pruning floor, and the durability wait ahead can be as long as
        // an fsync. Rollback and drop release the same way, so pin
        // accounting stays balanced on every path (the isolation suite
        // asserts released == snapshots after each storm).
        self.unpinned = true;
        self.mgr.unpin(self.pin);
        self.mgr.counters.committed.fetch_add(1, Ordering::Relaxed);
        // The durability wait belongs outside every lock. Under `Batched`,
        // concurrent committers park in `wait()` together and one flusher
        // fsync acks them all; under `Strict`, the waiter performs the
        // deferred fsync itself — still amortized, because one waiter's
        // sync covers everything submitted before it ran. Either way
        // readers are never stuck behind the disk.
        let wait = waiter.map(|(waiter, seq)| CommitWait {
            mgr: self.mgr,
            waiter,
            seq,
        });
        Ok((ts, wait))
    }

    /// First half of a cross-shard two-phase commit on this shard:
    /// validates and preflights the buffered ops exactly as commit would,
    /// then logs a *prepare* record — the full op payload tagged with the
    /// global transaction id and its oracle commit timestamp — without
    /// applying anything. The caller must hold this shard's commit gate
    /// from before `prepare` until the decision, wait on
    /// [`PreparedTxn::wait_prepared`] for every participant, and only then
    /// decide. An undecided prepare is *presumed aborted* by recovery, so
    /// crashing here loses nothing and resurrects nothing.
    ///
    /// `gts` doubles as the global transaction id: oracle timestamps are
    /// unique, and carrying the same value in the prepare and decision
    /// records is what lets recovery match them up.
    pub fn prepare(mut self, gts: u64) -> Result<PreparedTxn<'a>> {
        if self.ops.is_empty() {
            return Err(Error::Invalid(
                "nothing to prepare: this shard is not a participant".into(),
            ));
        }
        let ops = std::mem::take(&mut self.ops);
        let writes = std::mem::take(&mut self.writes);

        {
            let st = self.mgr.state.read().expect("txn state poisoned");
            if let Some(why) = &st.poisoned {
                return Err(Error::Internal(format!("txn manager poisoned: {why}")));
            }
            // First-committer-wins against this shard's own log — under a
            // held gate this can't fire, but prepare keeps the same
            // defensive contract as commit.
            for rec in st.commit_log.iter().rev() {
                if rec.ts <= self.pin {
                    break;
                }
                for theirs in &rec.writes {
                    for ours in &writes {
                        if theirs.table == ours.table
                            && theirs.key == ours.key
                            && theirs.app.overlaps(&ours.app)
                        {
                            self.mgr.counters.conflicts.fetch_add(1, Ordering::Relaxed);
                            return Err(Error::Conflict(format!(
                                "table {} key {} app {:?}: written at {} after pin {}",
                                theirs.table, theirs.key, theirs.app, rec.ts, self.pin
                            )));
                        }
                    }
                }
            }
            preflight(&st, &ops)?;
        }

        // Log the prepare record. Unlike a commit record this describes a
        // transaction that has *not* applied — that is the point: it makes
        // the ops durable before any shard applies, so a crash between
        // shards can always finish (or presume-abort) the transaction.
        let mut logged = None;
        let payload = {
            let wal = self.mgr.wal.lock().expect("wal lock poisoned");
            match wal.as_ref() {
                Some(_) => Some(bitempo_wal::encode_prepare(
                    gts,
                    gts,
                    &TxnOps {
                        scenarios: Vec::new(),
                        ops: ops.clone(),
                    },
                )?),
                None => None,
            }
        };
        if let Some(payload) = payload {
            let mut wal = self.mgr.wal.lock().expect("wal lock poisoned");
            let w = wal.as_mut().expect("wal vanished mid-prepare");
            match w.submit(&payload) {
                Ok(seq) => logged = Some((w.waiter(), seq)),
                Err(e) => {
                    // Nothing applied, but the WAL stream's integrity is
                    // now unknown (a torn frame mid-log would silently
                    // truncate every later record at recovery). Fail-stop,
                    // exactly like a commit-path submit failure.
                    drop(wal);
                    let mut st = self.mgr.state.write().expect("txn state poisoned");
                    if st.poisoned.is_none() {
                        st.poisoned = Some(format!("WAL submit failed during prepare: {e}"));
                    }
                    return Err(Error::Internal(format!(
                        "prepare not logged, manager poisoned: {e}"
                    )));
                }
            }
        }
        let pin = self.pin;
        self.unpinned = true; // ownership of the pin moves to PreparedTxn
        Ok(PreparedTxn {
            mgr: self.mgr,
            pin,
            gts,
            ops,
            writes,
            logged,
            unpinned: false,
        })
    }
}

/// What a [`replay_logged`] run produced.
#[derive(Debug)]
pub struct LoggedReplay {
    /// Archive transactions committed (each applied, then logged).
    pub commits: u64,
    /// Encoded checkpoints from [`TxnManager::checkpoint`], oldest first.
    /// Index 0 is the state the manager held before the replay.
    pub checkpoints: Vec<Vec<u8>>,
    /// `Some(reason)` if a commit failed and the run stopped there. With
    /// one committer and a validated archive, only the WAL sink can fail a
    /// commit, so this is the simulated crash: the manager is poisoned and
    /// the log bytes are all that survive.
    pub crashed: Option<String>,
}

/// Replays archive transactions through `mgr`, one `begin` / `buffer` /
/// `commit` per transaction, capturing a checkpoint before the first
/// commit and after every `checkpoint_every` commits (0 = only the first).
/// Every record is therefore written by the same apply-then-log commit
/// path that serves interactive traffic. A buffer error is a hard error
/// (the archive is trusted input); a commit error stops the run and is
/// reported in [`LoggedReplay::crashed`]. The caller closes the manager.
pub fn replay_logged(
    mgr: &TxnManager,
    txns: &[TxnOps],
    checkpoint_every: u64,
) -> Result<LoggedReplay> {
    let mut checkpoints = vec![mgr.checkpoint()?.encode()];
    let mut commits = 0u64;
    let mut crashed = None;
    for archived in txns {
        let mut txn = mgr.begin()?;
        for op in &archived.ops {
            txn.buffer(op)?;
        }
        if let Err(e) = txn.commit() {
            crashed = Some(e.to_string());
            break;
        }
        commits += 1;
        if checkpoint_every > 0 && commits.is_multiple_of(checkpoint_every) {
            checkpoints.push(mgr.checkpoint()?.encode());
        }
    }
    Ok(LoggedReplay {
        commits,
        checkpoints,
        crashed,
    })
}

/// The durability wait a publish still owes. Dropping it without calling
/// [`Self::wait`] skips the wait entirely — callers that need the
/// durability contract must call it.
#[must_use = "the commit is published but not yet durable: call wait()"]
pub struct CommitWait<'a> {
    mgr: &'a TxnManager,
    waiter: DurabilityWaiter,
    seq: u64,
}

impl CommitWait<'_> {
    /// The WAL sequence number the wait covers.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Blocks until the record is durable under the WAL's mode. On
    /// failure the record is published and written but its durability is
    /// unknown (the fsync failed or the flusher died), so the in-memory
    /// state may be ahead of what the log preserves. Fail-stop: the
    /// manager poisons rather than letting later commits build on a
    /// possibly-lost prefix — the one honest ambiguity in the protocol.
    pub fn wait(self) -> Result<()> {
        if let Err(e) = self.waiter.wait_for(self.seq) {
            let mut st = self.mgr.state.write().expect("txn state poisoned");
            if st.poisoned.is_none() {
                st.poisoned = Some(format!("durability wait failed after publish: {e}"));
            }
            return Err(Error::Internal(format!(
                "commit published but durability is unknown, manager poisoned: {e}"
            )));
        }
        Ok(())
    }
}

/// A transaction prepared on this shard: ops validated and durably
/// logged, nothing applied. Resolved by [`Self::commit`] or
/// [`Self::abort`]; dropping it unresolved releases the pin but logs no
/// decision — recovery then presumes abort, which is also what
/// [`Self::abort`] makes explicit.
pub struct PreparedTxn<'a> {
    mgr: &'a TxnManager,
    pin: SysTime,
    gts: u64,
    ops: Vec<Op>,
    writes: Vec<WriteEntry>,
    /// Prepare-record durability handle (`None` without a WAL).
    logged: Option<(DurabilityWaiter, u64)>,
    unpinned: bool,
}

impl<'a> PreparedTxn<'a> {
    /// The global commit timestamp (and transaction id) this prepare
    /// carries.
    pub fn gts(&self) -> u64 {
        self.gts
    }

    /// Blocks until the prepare record is durable under the shard's WAL
    /// mode — the barrier every participant must pass before any shard
    /// may decide commit. A failure here is clean: nothing applied, no
    /// decision logged, the caller aborts all participants.
    pub fn wait_prepared(&self) -> Result<()> {
        if let Some((waiter, seq)) = &self.logged {
            waiter
                .wait_for(*seq)
                .map_err(|e| Error::Internal(format!("prepare durability wait failed: {e}")))?;
        }
        Ok(())
    }

    /// Applies the prepared ops, logs the commit decision, and publishes
    /// at exactly the prepared `gts`. Mirrors the single-shard commit
    /// tail: apply failures poison fail-stop (the decision stands on
    /// shards that already committed — this shard is the casualty, not
    /// the transaction).
    pub fn commit(mut self) -> Result<(SysTime, Option<CommitWait<'a>>)> {
        let ops = std::mem::take(&mut self.ops);
        let writes = std::mem::take(&mut self.writes);
        let gts = self.gts;

        let mut st = self.mgr.state.write().expect("txn state poisoned");
        if let Some(why) = &st.poisoned {
            return Err(Error::Internal(format!("txn manager poisoned: {why}")));
        }
        let EngineState {
            engine,
            ids,
            poisoned,
            applied_seq,
            ..
        } = &mut *st;
        engine.advance_clock(SysTime(gts.saturating_sub(1)));
        for op in &ops {
            if let Err(e) = apply_op(engine.as_mut(), ids, op) {
                *poisoned = Some(format!("apply failed mid-decision: {e}"));
                return Err(Error::Internal(format!(
                    "decision half-applied, manager poisoned: {e}"
                )));
            }
        }
        // The decision record follows apply, like a commit record: it only
        // lands once this shard holds the transaction's full effects.
        let mut waiter = None;
        if self.logged.is_some() {
            let mut wal = self.mgr.wal.lock().expect("wal lock poisoned");
            let w = wal.as_mut().expect("wal vanished mid-decision");
            match w.submit(&bitempo_wal::encode_decision(gts, gts, true)) {
                Ok(seq) => {
                    *applied_seq = seq;
                    waiter = Some((w.waiter(), seq));
                }
                Err(e) => {
                    *poisoned = Some(format!("WAL submit failed for commit decision: {e}"));
                    return Err(Error::Internal(format!(
                        "decision applied but not logged, manager poisoned: {e}"
                    )));
                }
            }
        }
        let ts = engine.commit();
        debug_assert_eq!(ts.0, gts, "decisions land exactly at the oracle timestamp");
        st.commit_log.push(CommitRecord { ts, writes });
        let floor = {
            let pins = self.mgr.pins.lock().expect("pin registry poisoned");
            pins.keys().next().copied().unwrap_or(ts)
        };
        if st.commit_log.first().is_some_and(|r| r.ts <= floor) {
            st.commit_log.retain(|r| r.ts > floor);
        }
        drop(st);

        self.unpinned = true;
        self.mgr.unpin(self.pin);
        self.mgr.counters.committed.fetch_add(1, Ordering::Relaxed);
        let wait = waiter.map(|(waiter, seq)| CommitWait {
            mgr: self.mgr,
            waiter,
            seq,
        });
        Ok((ts, wait))
    }

    /// Logs an explicit abort decision (recovery would presume it anyway;
    /// the record just spares the scan) and releases the pin. Applies
    /// nothing.
    pub fn abort(self) -> Result<()> {
        if self.logged.is_some() {
            let mut wal = self.mgr.wal.lock().expect("wal lock poisoned");
            let w = wal.as_mut().expect("wal vanished mid-abort");
            match w.submit(&bitempo_wal::encode_decision(self.gts, self.gts, false)) {
                Ok(seq) => {
                    drop(wal);
                    let mut st = self.mgr.state.write().expect("txn state poisoned");
                    st.applied_seq = seq;
                }
                Err(e) => {
                    drop(wal);
                    let mut st = self.mgr.state.write().expect("txn state poisoned");
                    if st.poisoned.is_none() {
                        st.poisoned = Some(format!("WAL submit failed for abort decision: {e}"));
                    }
                    return Err(Error::Internal(format!(
                        "abort decision not logged, manager poisoned: {e}"
                    )));
                }
            }
        }
        Ok(())
    }
}

impl Drop for PreparedTxn<'_> {
    fn drop(&mut self) {
        if !self.unpinned {
            self.unpinned = true;
            self.mgr.unpin(self.pin);
        }
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        if !self.unpinned {
            self.unpinned = true;
            self.mgr.unpin(self.pin);
        }
    }
}

/// Buffer-time twin of the engines' deterministic period validation: a
/// given period on a table without application time is [`Error::Unsupported`],
/// an empty one is [`Error::EmptyPeriod`]. Running this before an op enters
/// the buffer means a malformed op can never reach the apply loop, where a
/// deterministic failure would poison the manager.
fn check_app_period(def: &TableDef, period: Option<&AppPeriod>, what: &str) -> Result<()> {
    match period {
        Some(_) if def.temporal != bitempo_core::TemporalClass::Bitemporal => {
            Err(Error::Unsupported(format!(
                "{what} on table {} without application time",
                def.name
            )))
        }
        Some(p) if p.is_empty() => Err(Error::EmptyPeriod(format!("{p}"))),
        _ => Ok(()),
    }
}

/// The portion variant of [`check_app_period`]: sequenced DML with an empty
/// portion is an engine-level no-op (it overlaps nothing), not an error, so
/// only the temporal-class check applies here.
fn check_portion(def: &TableDef, portion: Option<&AppPeriod>) -> Result<()> {
    if portion.is_some() && def.temporal != bitempo_core::TemporalClass::Bitemporal {
        return Err(Error::Unsupported(format!(
            "FOR PORTION OF on table {} without application time",
            def.name
        )));
    }
    Ok(())
}

/// Checks that every sequenced op's key is visible (or created earlier in
/// the same transaction), so apply cannot fail on a vanished key.
fn preflight(st: &EngineState, ops: &[Op]) -> Result<()> {
    let mut fresh: Vec<(u8, &Key)> = Vec::new();
    let mut fresh_rows: Vec<(u8, Key)> = Vec::new();
    for op in ops {
        match op {
            Op::Insert { table, row, .. } => {
                let def = st.engine.table_def(st.ids[*table as usize]);
                fresh_rows.push((*table, Key::from_row(row, &def.key)));
            }
            Op::Update { table, key, .. }
            | Op::Delete { table, key, .. }
            | Op::OverwriteApp { table, key, .. } => {
                let created = fresh.iter().any(|(t, k)| t == table && *k == key)
                    || fresh_rows.iter().any(|(t, k)| t == table && k == key);
                if !created {
                    let out = st.engine.lookup_key(
                        st.ids[*table as usize],
                        key,
                        &SysSpec::Current,
                        &AppSpec::All,
                    )?;
                    if out.rows.is_empty() {
                        return Err(Error::KeyNotFound(format!("{key} in table index {table}")));
                    }
                    fresh.push((*table, key));
                }
            }
        }
    }
    Ok(())
}

/// A read guard over the pinned snapshot. Obtain per query burst and drop
/// promptly: open guards are what a committer waits for.
pub struct Snapshot<'a> {
    guard: RwLockReadGuard<'a, EngineState>,
    pin: SysTime,
    /// The engine's commit watermark while this guard is held (constant:
    /// the guard excludes writers).
    now: SysTime,
    degraded: bool,
}

impl Snapshot<'_> {
    /// True when the owning manager is poisoned. The snapshot still
    /// serves the committed prefix (with the current-partition fast path
    /// disabled), but a poisoned *shard* may sit on the wrong side of a
    /// decided cross-shard commit its healthy siblings already show —
    /// cluster readers must treat a degraded member as fail-stop rather
    /// than assemble a non-atomic cut from it.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// The read-only engine view at the pinned time. Implements the full
    /// [`BitemporalEngine`] read surface, so the workload query classes run
    /// on a snapshot exactly as they run on a raw engine.
    pub fn view(&self) -> SnapshotView<'_> {
        SnapshotView {
            engine: self.guard.engine.as_ref(),
            pin: self.pin,
            // The current-partition fast path is sound only when the pin
            // is at (or past — a shard lagging the global oracle clock)
            // the newest commit and no poisoned pending state lingers.
            current_ok: self.pin >= self.now && !self.degraded,
        }
    }
}

/// [`BitemporalEngine`] adapter that rewrites every system-time
/// specification to the pinned snapshot. DML and schema changes are
/// rejected — writes go through [`Transaction`] buffering.
pub struct SnapshotView<'a> {
    engine: &'a dyn BitemporalEngine,
    pin: SysTime,
    current_ok: bool,
}

impl SnapshotView<'_> {
    /// Rewrites `sys` so only versions committed at or before the pin are
    /// visible. See the crate docs for the row-visibility argument.
    fn sys_at_pin(&self, sys: &SysSpec) -> SysSpec {
        let t = self.pin;
        match sys {
            SysSpec::Current => {
                if self.current_ok {
                    SysSpec::Current
                } else {
                    SysSpec::AsOf(t)
                }
            }
            SysSpec::AsOf(x) => SysSpec::AsOf((*x).min(t)),
            // Half-open: end `t.next()` includes versions committed at
            // exactly `t` and excludes everything later.
            SysSpec::All => SysSpec::Range(bitempo_core::Period::new(SysTime::ZERO, t.next())),
            SysSpec::Range(p) => {
                let end = p.end.min(t.next());
                SysSpec::Range(bitempo_core::Period::new(p.start.min(end), end))
            }
        }
    }

    fn read_only_err<T>(&self, what: &str) -> Result<T> {
        Err(Error::Unsupported(format!(
            "{what} on a pinned snapshot: buffer writes on the Transaction instead"
        )))
    }
}

impl BitemporalEngine for SnapshotView<'_> {
    fn name(&self) -> &'static str {
        self.engine.name()
    }

    fn architecture(&self) -> &'static str {
        self.engine.architecture()
    }

    fn create_table(&mut self, _def: TableDef) -> Result<TableId> {
        self.read_only_err("create_table")
    }

    fn resolve(&self, name: &str) -> Result<TableId> {
        self.engine.resolve(name)
    }

    fn table_names(&self) -> Vec<String> {
        self.engine.table_names()
    }

    fn table_def(&self, table: TableId) -> &TableDef {
        self.engine.table_def(table)
    }

    fn apply_tuning(&mut self, _tuning: &TuningConfig) -> Result<()> {
        self.read_only_err("apply_tuning")
    }

    fn insert(&mut self, _table: TableId, _row: Row, _app: Option<AppPeriod>) -> Result<()> {
        self.read_only_err("insert")
    }

    fn update(
        &mut self,
        _table: TableId,
        _key: &Key,
        _updates: &[(usize, Value)],
        _portion: Option<AppPeriod>,
    ) -> Result<usize> {
        self.read_only_err("update")
    }

    fn delete(
        &mut self,
        _table: TableId,
        _key: &Key,
        _portion: Option<AppPeriod>,
    ) -> Result<usize> {
        self.read_only_err("delete")
    }

    fn overwrite_app_period(
        &mut self,
        _table: TableId,
        _key: &Key,
        _period: AppPeriod,
    ) -> Result<usize> {
        self.read_only_err("overwrite_app_period")
    }

    /// A snapshot has nothing to commit; its "commit time" is the pin.
    fn commit(&mut self) -> SysTime {
        self.pin
    }

    /// The snapshot's frozen notion of "now" — the pin, so any query that
    /// derives parameters from the commit watermark stays inside it.
    fn now(&self) -> SysTime {
        self.pin
    }

    fn scan(
        &self,
        table: TableId,
        sys: &SysSpec,
        app: &AppSpec,
        preds: &[ColRange],
    ) -> Result<ScanOutput> {
        self.engine.scan(table, &self.sys_at_pin(sys), app, preds)
    }

    fn lookup_key(
        &self,
        table: TableId,
        key: &Key,
        sys: &SysSpec,
        app: &AppSpec,
    ) -> Result<ScanOutput> {
        self.engine
            .lookup_key(table, key, &self.sys_at_pin(sys), app)
    }

    fn stats(&self, table: TableId) -> TableStats {
        self.engine.stats(table)
    }

    fn snapshot_versions(&self, _table: TableId) -> Result<Vec<bitempo_engine::version::Version>> {
        self.read_only_err("snapshot_versions")
    }

    fn restore(
        &mut self,
        _table: TableId,
        _versions: Vec<bitempo_engine::version::Version>,
        _now: SysTime,
    ) -> Result<()> {
        self.read_only_err("restore")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitempo_core::fault::{FaultKind, FaultPlan, FaultyWriter};
    use bitempo_core::AppDate;
    use bitempo_engine::testutil::{bitemp_table, plain_table, simple_row};
    use bitempo_engine::{build_engine, SystemKind};
    use bitempo_histgen::encode_txn;
    use bitempo_storage::DurabilityMode;
    use bitempo_wal::{canonical_state, recover, SharedBuf};

    /// One bitemporal table with rows (1, 10) and (2, 20), committed.
    fn manager(kind: SystemKind, wal: Option<TxnWal>) -> TxnManager {
        let mut engine = build_engine(kind);
        let t = engine.create_table(bitemp_table("t")).unwrap();
        engine.insert(t, simple_row(1, 10), None).unwrap();
        engine.insert(t, simple_row(2, 20), None).unwrap();
        engine.commit();
        TxnManager::new(engine, vec![t], wal).unwrap()
    }

    fn current_ids(view: &SnapshotView<'_>, t: TableId) -> Vec<i64> {
        let mut ids: Vec<i64> = view
            .scan(t, &SysSpec::Current, &AppSpec::All, &[])
            .unwrap()
            .rows
            .iter()
            .map(|r| match r.get(0) {
                Value::Int(i) => *i,
                other => panic!("unexpected key {other:?}"),
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    #[test]
    fn snapshot_is_stable_across_a_concurrent_commit() {
        for kind in SystemKind::ALL {
            let mgr = manager(kind, None);
            let t = mgr.table_ids()[0];
            let reader = mgr.begin().unwrap();

            let mut writer = mgr.begin().unwrap();
            writer.insert(t, simple_row(3, 30), None).unwrap();
            let ts = writer.commit().unwrap();
            assert!(ts > reader.pin(), "{kind}: commit advanced system time");

            // The old snapshot still answers from its pin...
            let snap = reader.snapshot();
            assert_eq!(current_ids(&snap.view(), t), vec![1, 2], "{kind}");
            drop(snap);
            // ...while a fresh one sees the commit.
            let fresh = mgr.begin().unwrap();
            let snap = fresh.snapshot();
            assert_eq!(current_ids(&snap.view(), t), vec![1, 2, 3], "{kind}");
        }
    }

    #[test]
    fn first_committer_wins_and_the_loser_aborts_cleanly() {
        let mgr = manager(SystemKind::A, None);
        let t = mgr.table_ids()[0];

        let mut first = mgr.begin().unwrap();
        let mut second = mgr.begin().unwrap();
        first
            .update(t, &Key::int(1), &[(1, Value::Int(11))], None)
            .unwrap();
        second
            .update(t, &Key::int(1), &[(1, Value::Int(12))], None)
            .unwrap();
        first.commit().unwrap();
        match second.commit() {
            Err(Error::Conflict(_)) => {}
            other => panic!("expected a conflict, got {other:?}"),
        }
        assert_eq!(mgr.counters().conflicts.load(Ordering::Relaxed), 1);

        // The aborted write never published: the winner's value stands.
        let txn = mgr.begin().unwrap();
        let snap = txn.snapshot();
        let out = snap
            .view()
            .lookup_key(t, &Key::int(1), &SysSpec::Current, &AppSpec::All)
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].get(1), &Value::Int(11));
    }

    #[test]
    fn disjoint_portions_of_one_key_do_not_conflict() {
        let mgr = manager(SystemKind::A, None);
        let t = mgr.table_ids()[0];
        let early = AppPeriod::new(AppDate(0), AppDate(10));
        let late = AppPeriod::new(AppDate(10), AppDate(20));

        let mut a = mgr.begin().unwrap();
        let mut b = mgr.begin().unwrap();
        a.update(t, &Key::int(2), &[(1, Value::Int(21))], Some(early))
            .unwrap();
        b.update(t, &Key::int(2), &[(1, Value::Int(22))], Some(late))
            .unwrap();
        a.commit().unwrap();
        b.commit().unwrap();
        assert_eq!(mgr.counters().conflicts.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn snapshot_translation_caps_every_sys_spec_at_the_pin() {
        let mgr = manager(SystemKind::B, None);
        let t = mgr.table_ids()[0];
        let pinned = mgr.begin().unwrap();

        let mut w = mgr.begin().unwrap();
        w.insert(t, simple_row(3, 30), None).unwrap();
        w.commit().unwrap();

        let snap = pinned.snapshot();
        let view = snap.view();
        // AS OF a future time clamps to the pin.
        let future = SysSpec::AsOf(SysTime(u64::MAX - 1));
        let rows = view.scan(t, &future, &AppSpec::All, &[]).unwrap().rows;
        assert_eq!(rows.len(), 2, "the post-pin insert stays invisible");
        // ALL and RANGE are right-clamped the same way.
        let rows = view
            .scan(t, &SysSpec::All, &AppSpec::All, &[])
            .unwrap()
            .rows;
        assert_eq!(rows.len(), 2);
        let range = SysSpec::Range(bitempo_core::Period::new(SysTime::ZERO, SysTime(u64::MAX)));
        let rows = view.scan(t, &range, &AppSpec::All, &[]).unwrap().rows;
        assert_eq!(rows.len(), 2);
        // now() is frozen at the pin.
        assert_eq!(view.now(), pinned.pin());
    }

    #[test]
    fn snapshot_view_rejects_dml_and_schema_changes() {
        let mgr = manager(SystemKind::C, None);
        let t = mgr.table_ids()[0];
        let txn = mgr.begin().unwrap();
        let snap = txn.snapshot();
        let mut view = snap.view();
        assert!(matches!(
            view.insert(t, simple_row(9, 9), None),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(
            view.delete(t, &Key::int(1), None),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(
            view.create_table(bitemp_table("u")),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn vanished_key_aborts_before_anything_applies() {
        let mgr = manager(SystemKind::A, None);
        let t = mgr.table_ids()[0];
        let mut txn = mgr.begin().unwrap();
        txn.insert(t, simple_row(7, 70), None).unwrap();
        txn.update(t, &Key::int(999), &[(1, Value::Int(0))], None)
            .unwrap();
        match txn.commit() {
            Err(Error::KeyNotFound(_)) => {}
            other => panic!("expected KeyNotFound, got {other:?}"),
        }
        // The insert buffered before the bad op must not have leaked.
        let txn = mgr.begin().unwrap();
        let snap = txn.snapshot();
        assert_eq!(current_ids(&snap.view(), t), vec![1, 2]);
    }

    #[test]
    fn read_only_commit_returns_the_pin_without_logging() {
        let buf = SharedBuf::new();
        let wal = TxnWal::create(Box::new(buf.clone()), DurabilityMode::Strict).unwrap();
        let mgr = manager(SystemKind::D, Some(wal));
        let txn = mgr.begin().unwrap();
        let pin = txn.pin();
        assert_eq!(txn.commit().unwrap(), pin);
        let (_, _, durable) = mgr.close().unwrap();
        assert_eq!(durable, 0, "read-only commits write no WAL records");
    }

    #[test]
    fn interactive_commits_recover_from_the_wal() {
        for mode in [DurabilityMode::Strict, DurabilityMode::Batched(1)] {
            let buf = SharedBuf::new();
            let wal = TxnWal::create(Box::new(buf.clone()), mode).unwrap();
            let mgr = manager(SystemKind::A, Some(wal));
            let t = mgr.table_ids()[0];
            let base = mgr.checkpoint().unwrap().encode();

            for i in 0..5i64 {
                let mut txn = mgr.begin().unwrap();
                txn.insert(t, simple_row(10 + i, i), None).unwrap();
                txn.update(t, &Key::int(1), &[(1, Value::Int(100 + i))], None)
                    .unwrap();
                txn.commit().unwrap();
            }

            let (engine, ids, durable) = mgr.close().unwrap();
            assert_eq!(durable, 5);
            let rec = recover(
                SystemKind::A,
                &buf.snapshot(),
                &[base],
                &TuningConfig::none(),
            )
            .unwrap();
            assert_eq!(rec.report.replayed, 5);
            assert_eq!(
                canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
                canonical_state(engine.as_ref(), &ids).unwrap(),
                "{mode:?}: recovered state matches the served state"
            );
        }
    }

    /// Deterministic apply failures — arity, temporal class, empty
    /// periods, bad update columns — must surface when the op is buffered,
    /// never poison the manager, and never leave a WAL record that
    /// recovery cannot replay.
    #[test]
    fn malformed_ops_are_rejected_at_buffer_time() {
        let buf = SharedBuf::new();
        let wal = TxnWal::create(Box::new(buf.clone()), DurabilityMode::Strict).unwrap();
        let mut engine = build_engine(SystemKind::A);
        let t = engine.create_table(bitemp_table("t")).unwrap();
        let p = engine.create_table(plain_table("p")).unwrap();
        engine.insert(t, simple_row(1, 10), None).unwrap();
        engine.insert(p, simple_row(1, 10), None).unwrap();
        engine.commit();
        let mgr = TxnManager::new(engine, vec![t, p], Some(wal)).unwrap();
        let base = mgr.checkpoint().unwrap().encode();

        let empty = AppPeriod::new(AppDate(7), AppDate(7));
        let some = AppPeriod::new(AppDate(0), AppDate(10));
        let mut txn = mgr.begin().unwrap();
        assert!(matches!(
            txn.insert(t, Row::new(vec![Value::Int(9)]), None),
            Err(Error::Invalid(_))
        ));
        assert!(matches!(
            txn.insert(t, simple_row(9, 90), Some(empty)),
            Err(Error::EmptyPeriod(_))
        ));
        assert!(matches!(
            txn.insert(p, simple_row(9, 90), Some(some)),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(
            txn.update(t, &Key::int(1), &[(7, Value::Int(0))], None),
            Err(Error::Invalid(_))
        ));
        assert!(matches!(
            txn.update(p, &Key::int(1), &[(1, Value::Int(0))], Some(some)),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(
            txn.delete(p, &Key::int(1), Some(some)),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(
            txn.overwrite_app_period(t, &Key::int(1), empty),
            Err(Error::EmptyPeriod(_))
        ));
        assert!(matches!(
            txn.overwrite_app_period(p, &Key::int(1), some),
            Err(Error::Unsupported(_))
        ));

        // The rejections buffered nothing and poisoned nothing: the same
        // transaction still commits its valid write, and the WAL replays.
        txn.insert(t, simple_row(2, 20), None).unwrap();
        txn.commit().unwrap();
        let (engine, ids, durable) = mgr.close().unwrap();
        assert_eq!(durable, 1, "only the valid commit was logged");
        let rec = recover(
            SystemKind::A,
            &buf.snapshot(),
            &[base],
            &TuningConfig::none(),
        )
        .unwrap();
        assert!(rec.report.unreplayable.is_none());
        assert_eq!(rec.report.replayed, 1);
        assert_eq!(
            canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
            canonical_state(engine.as_ref(), &ids).unwrap()
        );
    }

    /// A WAL append failure after apply poisons the manager, and the
    /// failed transaction is absent from the durable log: recovery
    /// reproduces exactly the acknowledged commit prefix, never a
    /// transaction whose commit returned an error.
    #[test]
    fn wal_append_failure_poisons_and_leaves_no_ghost_record() {
        let buf = SharedBuf::new();
        let sink = FaultyWriter::new(
            buf.clone(),
            FaultPlan::none().with(FaultKind::TruncateAt(220)),
        );
        let wal = TxnWal::create(Box::new(sink), DurabilityMode::Strict).unwrap();
        let mgr = manager(SystemKind::A, Some(wal));
        let t = mgr.table_ids()[0];
        let base = mgr.checkpoint().unwrap().encode();

        let mut acknowledged = 0i64;
        let mut failure = None;
        for i in 0..64i64 {
            let mut txn = mgr.begin().unwrap();
            txn.insert(t, simple_row(100 + i, i), None).unwrap();
            match txn.commit() {
                Ok(_) => acknowledged += 1,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        let failure = failure.expect("the byte cut must fire");
        assert!(matches!(failure, Error::Internal(_)), "{failure:?}");
        assert!(acknowledged >= 1, "need an acknowledged prefix to verify");
        // Poisoned: the manager stops serving rather than lying.
        assert!(matches!(mgr.begin(), Err(Error::Internal(_))));

        // A fault-free twin serving the same acknowledged prefix is the
        // oracle for what the durable history may contain.
        let twin = manager(SystemKind::A, None);
        let tt = twin.table_ids()[0];
        for i in 0..acknowledged {
            let mut txn = twin.begin().unwrap();
            txn.insert(tt, simple_row(100 + i, i), None).unwrap();
            txn.commit().unwrap();
        }
        let (twin_engine, twin_ids, _) = twin.close().unwrap();

        let rec = recover(
            SystemKind::A,
            &buf.snapshot(),
            &[base],
            &TuningConfig::none(),
        )
        .unwrap();
        assert_eq!(rec.report.commits, acknowledged as u64);
        assert!(rec.report.unreplayable.is_none());
        assert_eq!(
            canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
            canonical_state(twin_engine.as_ref(), &twin_ids).unwrap(),
            "recovery serves exactly the acknowledged prefix"
        );
    }

    /// A manager constructed over a non-empty WAL continues its sequence
    /// numbering, so checkpoints stay labelled with the exact WAL seq they
    /// cover — the drop/double-replay boundary guarantee.
    #[test]
    fn manager_adopts_a_non_empty_wal_sequence() {
        let buf = SharedBuf::new();
        let mut wal = TxnWal::create(Box::new(buf.clone()), DurabilityMode::Strict).unwrap();

        // A prior serving run: base state (rows 1, 2), then one applied
        // and logged transaction (row 3).
        let mut engine = build_engine(SystemKind::A);
        let t = engine.create_table(bitemp_table("t")).unwrap();
        engine.insert(t, simple_row(1, 10), None).unwrap();
        engine.insert(t, simple_row(2, 20), None).unwrap();
        engine.commit();
        let ids = vec![t];
        let base = Checkpoint::capture(engine.as_mut(), &ids, 0)
            .unwrap()
            .encode();
        let prior = TxnOps {
            scenarios: Vec::new(),
            ops: vec![Op::Insert {
                table: 0,
                row: simple_row(3, 30),
                app: None,
            }],
        };
        for op in &prior.ops {
            apply_op(engine.as_mut(), &ids, op).unwrap();
        }
        engine.commit();
        wal.submit(&encode_txn(&prior).unwrap()).unwrap();

        // Adoption: the next commit is record 2, not record 1.
        let mgr = TxnManager::new(engine, ids, Some(wal)).unwrap();
        let t = mgr.table_ids()[0];
        let mut txn = mgr.begin().unwrap();
        txn.insert(t, simple_row(4, 40), None).unwrap();
        txn.commit().unwrap();
        let ckpt = mgr.checkpoint().unwrap();
        assert_eq!(ckpt.seq, 2, "checkpoint labelled with the adopted seq");

        let (engine, ids, durable) = mgr.close().unwrap();
        assert_eq!(durable, 2);
        // From the late checkpoint nothing replays; from the base, both
        // records replay — either way the served state is reproduced.
        let late = recover(
            SystemKind::A,
            &buf.snapshot(),
            &[base.clone(), ckpt.encode()],
            &TuningConfig::none(),
        )
        .unwrap();
        assert_eq!(late.report.checkpoint_seq, 2);
        assert_eq!(late.report.replayed, 0);
        assert_eq!(
            canonical_state(late.engine.as_ref(), &late.ids).unwrap(),
            canonical_state(engine.as_ref(), &ids).unwrap()
        );
        let full = recover(
            SystemKind::A,
            &buf.snapshot(),
            &[base],
            &TuningConfig::none(),
        )
        .unwrap();
        assert_eq!(full.report.replayed, 2);
        assert_eq!(
            canonical_state(full.engine.as_ref(), &full.ids).unwrap(),
            canonical_state(engine.as_ref(), &ids).unwrap()
        );
    }

    #[test]
    fn commit_log_is_pruned_once_no_snapshot_needs_it() {
        let mgr = manager(SystemKind::A, None);
        let t = mgr.table_ids()[0];
        for i in 0..20i64 {
            let mut txn = mgr.begin().unwrap();
            txn.insert(t, simple_row(100 + i, i), None).unwrap();
            txn.commit().unwrap();
        }
        let st = mgr.state.read().unwrap();
        assert!(
            st.commit_log.len() <= 1,
            "with no pinned snapshots the log must not grow, got {}",
            st.commit_log.len()
        );
    }

    /// A sink whose `sync` parks on a gate: `entered` flips when a sync is
    /// in flight, and the sync does not return until `release` flips.
    struct GateSink {
        inner: SharedBuf,
        entered: std::sync::Arc<std::sync::atomic::AtomicBool>,
        release: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl std::io::Write for GateSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            std::io::Write::write(&mut self.inner, buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            std::io::Write::flush(&mut self.inner)
        }
    }

    impl bitempo_wal::WalSink for GateSink {
        fn sync(&mut self) -> std::io::Result<()> {
            self.entered
                .store(true, std::sync::atomic::Ordering::SeqCst);
            while !self.release.load(std::sync::atomic::Ordering::SeqCst) {
                std::thread::yield_now();
            }
            self.inner.sync()
        }
    }

    /// Regression for the TB008 finding this PR fixed: a strict-mode
    /// commit's fsync used to run inside the `state` write lock, so a
    /// slow disk stalled every reader. Now the fsync is deferred to the
    /// durability waiter, outside all manager locks — a reader must be
    /// able to begin, snapshot and scan while a committer is stuck
    /// mid-fsync.
    #[test]
    fn readers_are_not_blocked_while_a_strict_fsync_is_in_flight() {
        use std::sync::atomic::{AtomicBool, Ordering as AtOrd};
        let entered = std::sync::Arc::new(AtomicBool::new(false));
        let release = std::sync::Arc::new(AtomicBool::new(false));
        let sink = GateSink {
            inner: SharedBuf::new(),
            entered: std::sync::Arc::clone(&entered),
            release: std::sync::Arc::clone(&release),
        };
        let wal = TxnWal::create(Box::new(sink), DurabilityMode::Strict).unwrap();
        let mgr = manager(SystemKind::A, Some(wal));
        let t = mgr.table_ids()[0];

        std::thread::scope(|scope| {
            let committer = scope.spawn(|| {
                let mut txn = mgr.begin().unwrap();
                txn.insert(t, simple_row(3, 30), None).unwrap();
                txn.commit().unwrap();
            });

            // Wait until the committer is provably inside the fsync.
            while !entered.load(AtOrd::SeqCst) {
                std::thread::yield_now();
            }

            // With the gate still closed, a reader gets a full snapshot
            // read done. Before the fix this deadlocked: the fsync ran
            // under the state write lock, and begin() needs the read lock.
            let reader = mgr.begin().unwrap();
            let snap = reader.snapshot();
            let ids = current_ids(&snap.view(), t);
            assert!(
                ids == vec![1, 2] || ids == vec![1, 2, 3],
                "reader saw a consistent prefix either side of the publish, got {ids:?}"
            );
            drop(snap);
            drop(reader);

            release.store(true, AtOrd::SeqCst);
            committer.join().expect("committer thread");
        });
    }

    /// A sink whose `sync` always fails (writes succeed).
    struct FailingSyncSink(SharedBuf);

    impl std::io::Write for FailingSyncSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            std::io::Write::write(&mut self.0, buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            std::io::Write::flush(&mut self.0)
        }
    }

    impl bitempo_wal::WalSink for FailingSyncSink {
        fn sync(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("simulated fsync failure"))
        }
    }

    /// The deferred strict fsync creates one genuinely ambiguous outcome:
    /// the commit published and its record was written, but the sync
    /// failed, so whether the record survives a crash is unknown. The
    /// manager must fail-stop — the commit errors and nothing further is
    /// accepted.
    #[test]
    fn a_failed_durability_wait_after_publish_poisons_the_manager() {
        let wal = TxnWal::create(
            Box::new(FailingSyncSink(SharedBuf::new())),
            DurabilityMode::Strict,
        )
        .unwrap();
        let mgr = manager(SystemKind::A, Some(wal));
        let t = mgr.table_ids()[0];

        let mut txn = mgr.begin().unwrap();
        txn.insert(t, simple_row(3, 30), None).unwrap();
        match txn.commit() {
            Err(Error::Internal(msg)) => {
                assert!(
                    msg.contains("durability is unknown"),
                    "commit must report the ambiguity, got: {msg}"
                );
            }
            other => panic!("expected a fail-stop internal error, got {other:?}"),
        }
        match mgr.begin() {
            Err(Error::Internal(msg)) => {
                assert!(msg.contains("poisoned"), "begin must refuse, got: {msg}");
            }
            Err(other) => panic!("expected the manager to be poisoned, got {other:?}"),
            Ok(_) => panic!("expected the manager to be poisoned, but begin succeeded"),
        };
    }
}
