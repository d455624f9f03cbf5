//! Crash–recovery equivalence, end to end, verified by fault injection.
//!
//! The contract under test (DESIGN.md §10): for any crash point in the WAL
//! stream, recovery from the surviving bytes plus the captured checkpoints
//! rebuilds an engine whose state is equivalent to an uncrashed oracle that
//! replayed exactly the recovered prefix — on every engine, under both
//! durability modes that acknowledge before the end of the run. Every log
//! here is written the way production writes it: archive transactions
//! committed one by one through a `TxnManager` (apply, then log), with
//! checkpoints from `TxnManager::checkpoint`. The oracle is a plain
//! `loader::replay` of the prefix, with no log at all. Equivalence is
//! asserted twice per cell: full canonical state (every version of every
//! table) and the five-class query probe from `bitempo_workloads::suite`.
//!
//! The torn-tail fuzz below is satellite coverage for the byte layer: a log
//! truncated at *every* offset of its final record, and 100 seeded single
//! bit-flips anywhere in the stream, must never panic, and must yield either
//! the exact clean prefix or a clean truncation report.

use bitempo_core::fault::{FaultKind, FaultPlan, FaultyWriter};
use bitempo_core::{Pcg32, TableId};
use bitempo_dbgen::{ScaleConfig, TpchData};
use bitempo_engine::api::TuningConfig;
use bitempo_engine::{build_engine, BitemporalEngine, SystemKind};
use bitempo_histgen::{generate_history, load_initial, loader, Archive, HistoryConfig};
use bitempo_storage::wal::{self, DurabilityMode, WAL_HEADER_LEN};
use bitempo_txn::{replay_logged, LoggedReplay, TxnManager};
use bitempo_wal::{canonical_state, recover, SharedBuf, TxnWal, WalSink};
use bitempo_workloads::{five_class_answers, five_class_diff, Ctx, QueryParams};
use std::sync::OnceLock;

/// Checkpoint cadence used throughout: small enough that every crash point
/// exercises a checkpoint + WAL-tail recovery, not a full replay.
const CHECKPOINT_EVERY: u64 = 25;

fn world() -> &'static (TpchData, Archive) {
    static WORLD: OnceLock<(TpchData, Archive)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let data = bitempo_dbgen::generate(&ScaleConfig {
            h: 0.0004,
            seed: 0xCAFE,
        });
        let hist = generate_history(
            &data,
            &HistoryConfig {
                m: 0.0001, // 100 scenario transactions
                seed: 0x5EED,
                scenarios_per_day: 4,
            },
        );
        (data, hist.archive)
    })
}

/// Loads version 0 into a fresh `kind` engine and replays the whole
/// archive through a `TxnManager` logging to `sink` under `mode`. Returns
/// the run and the still-open manager; the caller closes it.
fn logged_run(
    kind: SystemKind,
    sink: Box<dyn WalSink>,
    mode: DurabilityMode,
    checkpoint_every: u64,
) -> (LoggedReplay, TxnManager) {
    let (data, archive) = world();
    let mut engine = build_engine(kind);
    let ids = load_initial(engine.as_mut(), data).unwrap();
    let wal = TxnWal::create(sink, mode).unwrap();
    let mgr = TxnManager::new(engine, ids, Some(wal)).unwrap();
    let run = replay_logged(&mgr, &archive.transactions, checkpoint_every)
        .unwrap_or_else(|e| panic!("{kind}/{}: replay errored hard: {e}", mode.label()));
    (run, mgr)
}

/// [`logged_run`] on a sink that fails once `cut` bytes are written: the
/// simulated crash. Returns the run and the surviving log bytes.
fn crashed_run(
    kind: SystemKind,
    mode: DurabilityMode,
    checkpoint_every: u64,
    cut: u64,
) -> (LoggedReplay, Vec<u8>) {
    let buf = SharedBuf::new();
    let sink = FaultyWriter::new(
        buf.clone(),
        FaultPlan::none().with(FaultKind::TruncateAt(cut)),
    );
    let (run, mgr) = logged_run(kind, Box::new(sink), mode, checkpoint_every);
    // The sink is dead, so closing reports the failure; only the bytes
    // that made it out matter to recovery.
    let _ = mgr.close();
    (run, buf.snapshot())
}

/// The uncrashed oracle: version 0 plus a plain `loader::replay` of the
/// first `commits` archive transactions, tuned like a recovered engine.
fn replay_prefix(
    kind: SystemKind,
    commits: u64,
    tuning: &TuningConfig,
) -> (Box<dyn BitemporalEngine>, Vec<TableId>) {
    let (data, archive) = world();
    let prefix = Archive {
        transactions: archive.transactions[..commits as usize].to_vec(),
        ..archive.clone()
    };
    let mut engine = build_engine(kind);
    let ids = load_initial(engine.as_mut(), data).unwrap();
    loader::replay(engine.as_mut(), &ids, &prefix, 1).unwrap();
    engine.apply_tuning(tuning).unwrap();
    engine.checkpoint();
    (engine, ids)
}

/// A clean (uncrashed, strict-mode) run on System A: the full log bytes,
/// the captured checkpoints, and the commit count. The WAL bytes are
/// engine-independent (they encode archive transactions, not engine
/// state), so the fuzz tests can corrupt this one stream.
fn clean_log() -> &'static (Vec<u8>, Vec<Vec<u8>>, u64) {
    static CLEAN: OnceLock<(Vec<u8>, Vec<Vec<u8>>, u64)> = OnceLock::new();
    CLEAN.get_or_init(|| {
        let buf = SharedBuf::new();
        let (run, mgr) = logged_run(
            SystemKind::A,
            Box::new(buf.clone()),
            DurabilityMode::Strict,
            CHECKPOINT_EVERY,
        );
        assert!(run.crashed.is_none());
        mgr.close().unwrap();
        (buf.snapshot(), run.checkpoints, run.commits)
    })
}

/// The full fault matrix of the issue's acceptance criterion: seeded crash
/// points mid-stream × all four engines × both acknowledged-durability
/// modes. Every cell must recover a prefix that the oracle confirms, with
/// zero skipped operations.
#[test]
fn crash_recovery_matches_the_oracle_on_every_engine_and_mode() {
    let tuning = TuningConfig::none().with_workers(1);
    let clean_len = clean_log().0.len() as u64;
    let mut rng = Pcg32::new(0xC4A5_4B17, 0xD0);
    for kind in SystemKind::ALL {
        for mode in [DurabilityMode::Strict, DurabilityMode::Batched(5)] {
            for _ in 0..2 {
                // Crash strictly inside the record stream, past the header.
                let cut = rng.int_range(WAL_HEADER_LEN as i64 + 1, clean_len as i64 - 1) as u64;
                let label = format!("{kind}/{}/cut={cut}", mode.label());

                let (run, bytes) = crashed_run(kind, mode, CHECKPOINT_EVERY, cut);
                assert!(run.crashed.is_some(), "{label}: the cut must fire");

                let rec = recover(kind, &bytes, &run.checkpoints, &tuning)
                    .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
                // Both modes acknowledge a commit only after its durability
                // wait, so recovery must restore every acknowledged commit.
                assert_eq!(rec.report.commits, run.commits, "{label}");
                // Zero skips: everything between the checkpoint and the end
                // of the valid WAL prefix was replayed.
                assert_eq!(
                    rec.report.replayed,
                    rec.report.commits - rec.report.checkpoint_seq,
                    "{label}: replay skipped records"
                );

                let (oracle, oracle_ids) = replay_prefix(kind, rec.report.commits, &tuning);
                assert_eq!(
                    canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
                    canonical_state(oracle.as_ref(), &oracle_ids).unwrap(),
                    "{label}: full state diverges from the oracle"
                );

                let params = QueryParams::derive(oracle.as_ref()).unwrap();
                let oracle_ctx = Ctx::new(oracle.as_ref()).unwrap();
                let recovered_ctx = Ctx::new(rec.engine.as_ref()).unwrap();
                let want = five_class_answers(&oracle_ctx, &params).unwrap();
                let got = five_class_answers(&recovered_ctx, &params).unwrap();
                if let Some(diff) = five_class_diff(&got, &want) {
                    panic!("{label}: query class diverges: {diff}");
                }
            }
        }
    }
}

/// Satellite 3a: truncate the WAL at every byte offset of the final record.
/// The scan layer must always salvage exactly the first `commits - 1`
/// records — the exact prefix — and report a clean cut only at the record
/// boundary itself. A seeded sample of offsets goes through full recovery.
#[test]
fn truncating_anywhere_in_the_final_record_keeps_the_exact_prefix() {
    let (bytes, checkpoints, commits) = clean_log();
    let full = wal::scan(bytes);
    assert!(full.is_clean());
    assert_eq!(full.records.len() as u64, *commits);
    // Chopping one byte off invalidates exactly the final record, so the
    // valid prefix of that scan ends where the final record starts.
    let last_start = wal::scan(&bytes[..bytes.len() - 1]).valid_len as usize;
    assert!(last_start > WAL_HEADER_LEN && last_start < bytes.len());

    for cut in last_start..bytes.len() {
        let scan = wal::scan(&bytes[..cut]);
        assert_eq!(
            scan.records.len() as u64,
            *commits - 1,
            "cut at {cut}: wrong record count"
        );
        assert_eq!(
            scan.valid_len as usize, last_start,
            "cut at {cut}: wrong truncation point"
        );
        if cut == last_start {
            assert!(scan.is_clean(), "cut at the boundary is a clean log");
        } else {
            assert!(scan.torn.is_some(), "cut at {cut}: tear not reported");
        }
    }

    // End to end on a seeded sample: recovery restores exactly the prefix.
    // The clean run's final checkpoint snapshots the *complete* state (the
    // commit count is a cadence multiple), which would let recovery ignore
    // the WAL tail entirely — drop it so the tail is load-bearing.
    let checkpoints = &checkpoints[..checkpoints.len() - 1];
    let tuning = TuningConfig::none().with_workers(1);
    let mut rng = Pcg32::new(0xF0_22, 7);
    for _ in 0..6 {
        let cut = rng.int_range(last_start as i64, bytes.len() as i64 - 1) as usize;
        let rec = recover(SystemKind::A, &bytes[..cut], checkpoints, &tuning)
            .unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        assert_eq!(rec.report.commits, *commits - 1, "cut at {cut}");
        assert_eq!(
            rec.report.replayed,
            rec.report.commits - rec.report.checkpoint_seq,
            "cut at {cut}: replay skipped records"
        );
    }
}

/// Satellite 3b: 100 seeded single bit-flips anywhere in the stream. The
/// scan must never panic, must never fabricate records, and every record it
/// keeps must be byte-identical to the clean log's prefix; full recovery
/// from the corrupt bytes must either succeed with a verified prefix or —
/// never — fail.
#[test]
fn seeded_bit_flips_never_panic_and_salvage_a_true_prefix() {
    let (bytes, checkpoints, commits) = clean_log();
    let clean = wal::scan(bytes);
    let tuning = TuningConfig::none().with_workers(1);
    let mut rng = Pcg32::new(0xB17_F11D, 3);
    for trial in 0..100 {
        let mut corrupt = bytes.clone();
        let offset = rng.int_range(0, corrupt.len() as i64 - 1) as usize;
        let mask = rng.int_range(1, 255) as u8;
        corrupt[offset] ^= mask;
        let label = format!("trial {trial}: flip {mask:#04x} at {offset}");

        let scan = wal::scan(&corrupt);
        assert!(
            scan.records.len() as u64 <= *commits,
            "{label}: fabricated records"
        );
        for (i, rec) in scan.records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64 + 1, "{label}: sequence gap");
            assert_eq!(
                rec.payload, clean.records[i].payload,
                "{label}: salvaged record {i} differs from the clean log"
            );
        }

        let rec = recover(SystemKind::A, &corrupt, checkpoints, &tuning)
            .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
        assert!(rec.report.commits <= *commits, "{label}");
        assert_eq!(
            rec.report.replayed,
            rec.report.commits - rec.report.checkpoint_seq,
            "{label}: replay skipped records"
        );
    }
}

/// A clean run recovers from its newest checkpoint plus the WAL tail to
/// exactly the served engine's state.
#[test]
fn clean_run_recovers_identically() {
    let (_, archive) = world();
    let tuning = TuningConfig::none().with_workers(1);
    let buf = SharedBuf::new();
    let (run, mgr) = logged_run(
        SystemKind::A,
        Box::new(buf.clone()),
        DurabilityMode::Strict,
        50,
    );
    assert!(run.crashed.is_none());
    assert_eq!(run.commits, archive.transactions.len() as u64);
    assert_eq!(run.checkpoints.len(), 1 + (run.commits / 50) as usize);
    let (engine, ids, durable_seq) = mgr.close().unwrap();
    assert_eq!(durable_seq, run.commits);

    let rec = recover(SystemKind::A, &buf.snapshot(), &run.checkpoints, &tuning).unwrap();
    assert!(rec.report.torn.is_none());
    assert_eq!(rec.report.commits, run.commits);
    assert!(rec.report.checkpoint_seq >= 50, "used a late checkpoint");
    assert_eq!(
        canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
        canonical_state(engine.as_ref(), &ids).unwrap()
    );
}

#[test]
fn corrupt_newest_checkpoint_falls_back_to_an_older_one() {
    let tuning = TuningConfig::none().with_workers(1);
    let buf = SharedBuf::new();
    let (run, mgr) = logged_run(
        SystemKind::A,
        Box::new(buf.clone()),
        DurabilityMode::Async,
        40,
    );
    assert!(run.checkpoints.len() >= 3, "need checkpoints to corrupt");
    let (engine, ids, _) = mgr.close().unwrap();

    let mut checkpoints = run.checkpoints.clone();
    let last = checkpoints.len() - 1;
    let mid = checkpoints[last].len() / 2;
    checkpoints[last][mid] ^= 0xFF;

    let rec = recover(SystemKind::A, &buf.snapshot(), &checkpoints, &tuning).unwrap();
    assert_eq!(rec.report.checkpoints_rejected, 1);
    assert_eq!(rec.report.commits, run.commits, "the WAL covers the gap");
    assert_eq!(
        canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
        canonical_state(engine.as_ref(), &ids).unwrap()
    );
}

/// Byte offset of the exact frame boundary after record `k` of a clean
/// run's WAL bytes. Frames are deterministic given the payload sequence,
/// so re-encoding the scanned payloads reproduces the sizes.
fn boundary_after(clean_wal: &[u8], k: usize) -> u64 {
    let scan = wal::scan(clean_wal);
    assert!(scan.is_clean() && scan.records.len() > k);
    let mut appender = wal::WalAppender::new();
    let mut off = wal::header_bytes().len() as u64;
    for rec in &scan.records[..k] {
        let (_, frame) = appender.encode(&rec.payload);
        off += frame.len() as u64;
    }
    off
}

/// The checkpoint/WAL boundary: a crash *exactly* at the frame boundary
/// after the checkpointed commit must recover precisely that commit count
/// — the checkpointed transaction is neither dropped (off-by-one toward
/// the past) nor replayed twice (checkpoint label drifting below the WAL
/// seq it actually covers).
#[test]
fn crash_exactly_on_the_checkpoint_boundary() {
    let tuning = TuningConfig::none().with_workers(1);

    // Cut at the boundary right after record 32 — the same commit the
    // cadence checkpoints — and two bytes into record 33 (torn tail).
    // Checkpoints write no WAL records, so the clean log sizes the cuts.
    for extra in [0u64, 2] {
        let cut = boundary_after(&clean_log().0, 32) + extra;
        let (run, bytes) = crashed_run(SystemKind::A, DurabilityMode::Strict, 32, cut);
        assert!(run.crashed.is_some());
        assert_eq!(run.commits, 32, "strict mode stops at the cut");

        let rec = recover(SystemKind::A, &bytes, &run.checkpoints, &tuning).unwrap();
        assert_eq!(rec.report.checkpoint_seq, 32, "newest checkpoint wins");
        assert_eq!(rec.report.replayed, 0, "nothing may be replayed twice");
        assert_eq!(rec.report.commits, 32, "nothing may be dropped");
        let (oracle, oracle_ids) = replay_prefix(SystemKind::A, 32, &tuning);
        assert_eq!(
            canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
            canonical_state(oracle.as_ref(), &oracle_ids).unwrap()
        );
    }
}

/// A crash a few commits past a checkpoint replays exactly the records
/// after the checkpoint's recorded seq — the straddling transaction is
/// covered by the checkpoint, not double-applied from the WAL.
#[test]
fn recovery_replays_only_records_past_the_checkpoint_seq() {
    let tuning = TuningConfig::none().with_workers(1);
    let cut = boundary_after(&clean_log().0, 35);
    let (run, bytes) = crashed_run(SystemKind::A, DurabilityMode::Strict, 32, cut);
    assert_eq!(run.commits, 35);

    let rec = recover(SystemKind::A, &bytes, &run.checkpoints, &tuning).unwrap();
    assert_eq!(rec.report.checkpoint_seq, 32);
    assert_eq!(rec.report.replayed, 3, "records 33..=35, each exactly once");
    assert_eq!(rec.report.commits, 35);
    let (oracle, oracle_ids) = replay_prefix(SystemKind::A, 35, &tuning);
    assert_eq!(
        canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
        canonical_state(oracle.as_ref(), &oracle_ids).unwrap()
    );
}
