//! Crash recovery: checkpoint + WAL tail = the uncrashed engine.
//!
//! Every WAL record is written by `bitempo_txn::TxnManager`, which applies
//! a transaction *before* it logs it, so each record describes a
//! transaction that fully applied. Checkpoints come from
//! `TxnManager::checkpoint`, labelled with the exact WAL sequence number
//! they cover.
//!
//! [`recover`] rebuilds from those survivors: it scans the WAL (keeping the
//! longest valid prefix, truncating at the first torn or corrupt record),
//! picks the newest checkpoint that still decodes (falling back past
//! corrupt ones), restores the engine from it, and replays the WAL records
//! after the checkpoint through [`apply_logged`] — the same
//! [`bitempo_histgen::apply_op`] dispatch as the original load. Tuning is
//! re-applied afterwards, like a cold load. The crash tests assert the
//! result is query-equivalent to a plain `loader::replay` of the same
//! prefix on all five query classes.

use crate::checkpoint::Checkpoint;
use crate::record::{decode_payload, WalPayload};
use bitempo_core::{Error, Result, SysTime, TableId};
use bitempo_engine::{build_engine, BitemporalEngine, SystemKind, TuningConfig};
use bitempo_histgen::{apply_op, Transaction};
use bitempo_storage::wal;

/// Applies one logged transaction and commits it: the clock is first
/// advanced to `gts − 1` when the record carries a global commit
/// timestamp, so the ops and the commit land at exactly `gts`. On an apply
/// failure nothing is committed and the engine holds the partial pending
/// state (the engines have no rollback); the caller decides whether to
/// rebuild or mark the engine degraded.
pub fn apply_logged(
    engine: &mut dyn BitemporalEngine,
    ids: &[TableId],
    gts: Option<u64>,
    txn: &Transaction,
) -> Result<SysTime> {
    if let Some(g) = gts {
        engine.advance_clock(SysTime(g.saturating_sub(1)));
    }
    for op in &txn.ops {
        apply_op(engine, ids, op)?;
    }
    Ok(engine.commit())
}

/// How a recovery went: what was salvaged, from where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint recovery started from.
    pub checkpoint_seq: u64,
    /// Checkpoints that failed to decode and were skipped (newest first
    /// is tried first, so these were all newer than the one used).
    pub checkpoints_rejected: usize,
    /// Valid records found in the WAL prefix.
    pub wal_records: u64,
    /// Records actually replayed on top of the checkpoint.
    pub replayed: u64,
    /// Why the WAL tail was truncated, if it was ([`wal::WalScan::torn`]).
    pub torn: Option<String>,
    /// Byte length of the valid WAL prefix — the clean truncation point.
    pub wal_valid_len: u64,
    /// Committed transactions represented in the recovered state.
    pub commits: u64,
    /// `Some(reason)` if a structurally valid record failed to decode or
    /// apply: replay stopped at its boundary (state continuity past a
    /// skipped record would be fiction) and the recovered state covers
    /// only the records before it. The serving layer logs a commit record
    /// only after its transaction applied, so this indicates corruption
    /// that slipped past the frame checksums.
    pub unreplayable: Option<String>,
    /// Prepares left undecided at the end of the valid prefix and
    /// therefore *presumed aborted* (not applied). A cluster recovery may
    /// still commit them from [`Recovered::pending`] when a sibling
    /// shard's WAL holds the commit decision.
    pub presumed_aborted: u64,
}

/// A prepared-but-undecided transaction salvaged from the WAL tail: its
/// full op payload, as durable as the prepare record that carried it.
#[derive(Debug, Clone)]
pub struct PendingPrepare {
    /// Global transaction id.
    pub gid: u64,
    /// Oracle commit timestamp the transaction would land at.
    pub gts: u64,
    /// The prepared ops.
    pub txn: bitempo_histgen::Transaction,
}

/// A recovered engine with its table ids and the recovery accounting.
pub struct Recovered {
    /// The rebuilt engine, tuned and checkpointed.
    pub engine: Box<dyn BitemporalEngine>,
    /// Table ids in creation order (same order as the original run).
    pub ids: Vec<TableId>,
    /// What was salvaged.
    pub report: RecoveryReport,
    /// Undecided prepares, presumed aborted locally. The sharded cluster's
    /// recovery resolves them against every shard's decisions: a commit
    /// decision found anywhere commits the prepare here too.
    pub pending: Vec<PendingPrepare>,
    /// Gids of *commit* decisions present in this WAL's valid prefix —
    /// the evidence cluster recovery unions across shards.
    pub decided_commits: Vec<u64>,
}

/// Rebuilds an engine of `kind` from the newest valid checkpoint in
/// `checkpoints` plus the valid prefix of `wal_bytes`, then re-applies
/// `tuning` exactly as the bench runner does after a cold load.
///
/// Corruption is handled, not propagated: a torn WAL tail is truncated at
/// the last clean record boundary, a corrupt checkpoint falls back to the
/// next older one, and a record that fails to decode or apply truncates
/// replay at its boundary ([`RecoveryReport::unreplayable`]) instead of
/// failing the whole recovery. Only a *total* loss — no decodable
/// checkpoint at all — is an error.
pub fn recover(
    kind: SystemKind,
    wal_bytes: &[u8],
    checkpoints: &[Vec<u8>],
    tuning: &TuningConfig,
) -> Result<Recovered> {
    let scan = wal::scan(wal_bytes);
    let mut rejected = 0;
    let mut chosen = None;
    for encoded in checkpoints.iter().rev() {
        match Checkpoint::decode(encoded) {
            Ok(c) => {
                chosen = Some(c);
                break;
            }
            Err(_) => rejected += 1,
        }
    }
    let ckpt = chosen.ok_or_else(|| {
        Error::Archive(format!(
            "recovery found no valid checkpoint among {}",
            checkpoints.len()
        ))
    })?;
    // Decode every record past the checkpoint before touching the engine:
    // a record that fails to decode truncates replay at its boundary
    // (reported, not propagated — the same philosophy as the torn-tail
    // scan), and decode failures caught here can never leave partial
    // pending state behind.
    let mut items: Vec<(u64, WalPayload)> = Vec::new();
    let mut unreplayable = None;
    for rec in &scan.records {
        if rec.seq <= ckpt.seq {
            continue;
        }
        match decode_payload(&rec.payload) {
            Ok(p) => items.push((rec.seq, p)),
            Err(e) => {
                unreplayable = Some(format!("record {} failed to decode: {e}", rec.seq));
                break;
            }
        }
    }
    // Commit decisions anywhere in the valid prefix: cluster recovery
    // unions these across shards to resolve sibling prepares.
    let decided_commits: Vec<u64> = items
        .iter()
        .filter_map(|(_, p)| match p {
            WalPayload::Decision {
                gid, commit: true, ..
            } => Some(*gid),
            _ => None,
        })
        .collect();
    let mut engine = build_engine(kind);
    let ids = ckpt.restore_into(engine.as_mut())?;
    let (replayed, pending) = match replay_items(engine.as_mut(), &ids, &items) {
        Ok(done) => done,
        Err((idx, e)) => {
            // The failing record left partial pending state; rebuild from
            // the checkpoint and replay only the known-good prefix (those
            // records are deterministic and already applied once).
            unreplayable = Some(format!("record {} failed to apply: {e}", items[idx].0));
            engine = build_engine(kind);
            let restored = ckpt.restore_into(engine.as_mut())?;
            debug_assert_eq!(restored, ids, "checkpoint restore must be deterministic");
            replay_items(engine.as_mut(), &ids, &items[..idx]).map_err(|(_, e)| e)?
        }
    };
    engine.apply_tuning(tuning)?;
    engine.checkpoint();
    // Record seqs are dense and 1-based, so for a pure commit-record log
    // (every single-engine WAL) the recovered state covers exactly the
    // checkpoint plus every replayed record. Shard WALs interleave
    // prepare/decision records, so their commit accounting lives with the
    // cluster, not here.
    let commits = ckpt.seq + replayed;
    Ok(Recovered {
        engine,
        ids,
        report: RecoveryReport {
            checkpoint_seq: ckpt.seq,
            checkpoints_rejected: rejected,
            wal_records: scan.records.len() as u64,
            replayed,
            torn: scan.torn,
            wal_valid_len: scan.valid_len,
            commits,
            unreplayable,
            presumed_aborted: pending.len() as u64,
        },
        pending,
        decided_commits,
    })
}

/// Replays decoded records in order: commits apply and land (at their
/// carried `gts` when stamped), prepares stash, decisions resolve their
/// stash entry. Returns the number of commits applied plus the prepares
/// still undecided at the end (presumed aborted). On an apply failure the
/// engine holds partial state; the caller rebuilds and replays the prefix
/// before the failing index.
fn replay_items(
    engine: &mut dyn BitemporalEngine,
    ids: &[TableId],
    items: &[(u64, WalPayload)],
) -> std::result::Result<(u64, Vec<PendingPrepare>), (usize, Error)> {
    let mut replayed = 0u64;
    let mut stash: Vec<PendingPrepare> = Vec::new();
    for (idx, (_, item)) in items.iter().enumerate() {
        match item {
            WalPayload::Commit { gts, txn } => {
                apply_logged(engine, ids, *gts, txn).map_err(|e| (idx, e))?;
                replayed += 1;
            }
            WalPayload::Prepare { gid, gts, txn } => {
                stash.push(PendingPrepare {
                    gid: *gid,
                    gts: *gts,
                    txn: txn.clone(),
                });
            }
            WalPayload::Decision { gid, gts, commit } => {
                let pos = stash.iter().position(|p| p.gid == *gid);
                match (pos, commit) {
                    (Some(pos), true) => {
                        let p = stash.remove(pos);
                        apply_logged(engine, ids, Some(*gts), &p.txn).map_err(|e| (idx, e))?;
                        replayed += 1;
                    }
                    (Some(pos), false) => {
                        stash.remove(pos);
                    }
                    (None, true) => {
                        // A decision always lands right after its prepare
                        // on the same shard (the gate excludes anything in
                        // between), so an orphaned commit decision means
                        // the log lies — truncate here, like any other
                        // unreplayable record.
                        return Err((
                            idx,
                            Error::Archive(format!("commit decision for unknown prepare {gid}")),
                        ));
                    }
                    // An abort for a prepare the checkpoint already covers
                    // (label advanced past the prepare) decides nothing.
                    (None, false) => {}
                }
            }
        }
    }
    Ok((replayed, stash))
}

/// A canonical, order-independent rendering of an engine's entire logical
/// state: every table's versions, sorted. Two engines of the same kind
/// are state-equivalent iff these match — the strongest equivalence the
/// crash tests assert, on top of the per-query-class checks.
pub fn canonical_state(engine: &dyn BitemporalEngine, ids: &[TableId]) -> Result<Vec<String>> {
    let mut out = Vec::new();
    for &id in ids {
        let name = engine.table_def(id).name.clone();
        let mut lines: Vec<String> = engine
            .snapshot_versions(id)?
            .iter()
            .map(|v| format!("{name}|{v:?}"))
            .collect();
        lines.sort();
        out.extend(lines);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::TxnWal;
    use crate::sink::SharedBuf;
    use bitempo_histgen::encode_txn;
    use bitempo_storage::DurabilityMode;

    /// A structurally valid record whose transaction cannot apply must
    /// truncate replay at its boundary — everything before it recovers,
    /// nothing after it is half-applied, and the report says why — instead
    /// of failing (or panicking) the whole recovery and taking every
    /// previously committed transaction down with it. Three poisons: an
    /// overwrite of a key the state never held, an op naming a table that
    /// does not exist, and an update of an existing key at a column past
    /// the table's arity. The last two are decoded bytes no checksum
    /// vouches for semantically, so they must be range-checked, not
    /// indexed.
    #[test]
    fn unreplayable_record_truncates_replay_instead_of_failing() {
        use bitempo_core::{AppDate, Key, Period, Value};
        use bitempo_engine::testutil::{bitemp_table, simple_row};
        use bitempo_histgen::Op;

        let mut engine = build_engine(SystemKind::A);
        let t = engine.create_table(bitemp_table("t")).unwrap();
        engine.insert(t, simple_row(1, 10), None).unwrap();
        engine.commit();
        let ids = vec![t];
        let base = Checkpoint::capture(engine.as_mut(), &ids, 0)
            .unwrap()
            .encode();

        let txn = |op: Op| Transaction {
            scenarios: Vec::new(),
            ops: vec![op],
        };
        let insert = |id: i64| {
            txn(Op::Insert {
                table: 0,
                row: simple_row(id, id * 10),
                app: None,
            })
        };
        let poisons = [
            Op::OverwriteApp {
                table: 0,
                key: Key::int(i64::MAX),
                period: Period::new(AppDate(0), AppDate::MAX),
            },
            Op::Insert {
                table: 9,
                row: simple_row(9, 90),
                app: None,
            },
            Op::Update {
                table: 0,
                key: Key::int(1),
                updates: vec![(99, Value::Int(0))],
                portion: None,
            },
        ];
        for poison in poisons {
            let label = format!("{poison:?}");
            let buf = SharedBuf::new();
            let mut log = TxnWal::create(Box::new(buf.clone()), DurabilityMode::Strict).unwrap();
            for record in [insert(2), txn(poison), insert(3)] {
                log.submit(&encode_txn(&record).unwrap()).unwrap();
            }
            log.close().unwrap();

            let rec = recover(
                SystemKind::A,
                &buf.snapshot(),
                std::slice::from_ref(&base),
                &TuningConfig::none(),
            )
            .unwrap();
            assert_eq!(
                rec.report.replayed, 1,
                "{label}: only the good prefix replays"
            );
            assert_eq!(rec.report.commits, 1, "{label}");
            let reason = rec.report.unreplayable.as_deref().unwrap();
            assert!(reason.contains("record 2"), "{label}: got {reason}");
            // The recovered state is exactly the prefix: rows 1 and 2, no
            // partial residue of the poisoned record, nothing after it.
            use bitempo_engine::api::{AppSpec, SysSpec};
            let rows = rec
                .engine
                .scan(rec.ids[0], &SysSpec::Current, &AppSpec::All, &[])
                .unwrap()
                .rows;
            let mut keys: Vec<i64> = rows
                .iter()
                .map(|r| match r.get(0) {
                    Value::Int(i) => *i,
                    other => panic!("unexpected key {other:?}"),
                })
                .collect();
            keys.sort_unstable();
            assert_eq!(keys, vec![1, 2], "{label}");
        }
    }

    #[test]
    fn no_valid_checkpoint_is_a_hard_error() {
        let res = recover(
            SystemKind::A,
            &wal::header_bytes(),
            &[vec![1, 2, 3]],
            &TuningConfig::none(),
        );
        match res {
            Err(Error::Archive(_)) => {}
            Err(other) => panic!("wrong error kind: {other}"),
            Ok(_) => panic!("recovery without a checkpoint must fail"),
        }
    }
}
