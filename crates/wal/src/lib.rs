//! # bitempo-wal
//!
//! The durability subsystem: a write-ahead log of committed transactions,
//! periodic engine checkpoints, and a crash-recovery path that restores any
//! engine to a state equivalent to an uncrashed run.
//!
//! The paper benchmarks systems whose durability cost is baked into every
//! commit; to reproduce that trade-off honestly the benchmark needs its own
//! log. The split of responsibilities:
//!
//! * **`bitempo-storage::wal`** owns the byte format (record framing,
//!   checksums, torn-tail scan) — shared vocabulary, no I/O;
//! * [`sink`] abstracts *where* bytes go ([`sink::WalSink`]: a file, a
//!   shared in-memory buffer for tests, a fault-injecting writer);
//! * [`log`] owns *when* bytes become durable ([`log::TxnWal`]): `fsync`
//!   per commit (`dur_strict`), a group-commit flusher thread
//!   (`dur_batched_Nms`: a batch goes out N ms after the last sync began,
//!   or at once when the log is idle or commits queued up during a sync),
//!   or never until close (`dur_async`);
//! * [`checkpoint`] serializes a quiesced engine's full version set so
//!   recovery never replays the whole history;
//! * [`recover`] rebuilds an engine from the newest valid checkpoint plus
//!   the WAL tail, truncating at the first torn or corrupt record.
//!
//! This crate never decides *what* is logged. There is one write contract:
//! `bitempo_txn::TxnManager` applies a transaction, then submits its
//! record, so the log only ever holds transactions that fully applied —
//! archive replay with a WAL (`bitempo_txn::replay_logged`) goes through
//! the same manager as interactive traffic.
//!
//! Fault injection reuses [`bitempo_core::fault`]: wrapping the sink in a
//! `FaultyWriter` simulates a crash at an arbitrary byte of the log, and
//! the recovery tests assert the recovered engine answers all five query
//! classes identically to an uncrashed replay of the same prefix.

// Tests may unwrap freely; production durability code must not (tblint
// TB010 for lock results, `clippy::unwrap_used` in Cargo.toml for the rest).
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod checkpoint;
pub mod log;
pub mod record;
pub mod recover;
pub mod sink;

pub use bitempo_storage::DurabilityMode;
pub use checkpoint::Checkpoint;
pub use log::{DurabilityWaiter, TxnWal};
pub use record::{
    decode_payload, encode_committed_at, encode_decision, encode_prepare, WalPayload,
};
pub use recover::{
    apply_logged, canonical_state, recover, PendingPrepare, Recovered, RecoveryReport,
};
pub use sink::{NullSink, SharedBuf, WalSink};
