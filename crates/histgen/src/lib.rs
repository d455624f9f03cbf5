//! # bitempo-histgen
//!
//! The TPC-BiH **Bitemporal Data Generator** (paper §3.2, §4.1): evolves the
//! dbgen version-0 population through `m × 1 000 000` executions of nine
//! update scenarios (Table 1), producing:
//!
//! * a system-independent **generator archive** — the ordered list of
//!   transactions that every engine replays one by one (system time cannot
//!   be bulk-set, §4.2), with optional batching of scenarios into larger
//!   transactions (Fig 13);
//! * the generator's own **in-memory bitemporal state** ([`state::GenDb`]),
//!   which doubles as a correctness oracle for the engines and as the
//!   source of pre-stamped versions for System D's bulk load (§5.8);
//! * per-table **operation statistics** reproducing Table 2.
//!
//! Scenario probabilities follow Table 1. Where the OCR of the paper is
//! ambiguous (see DESIGN.md §6) we use: New Order 0.30 (half with a new
//! customer), Cancel 0.05, Deliver 0.25, Receive Payment 0.20, Update Stock
//! 0.05, Delay Availability 0.05, Change Price 0.05, Update Supplier 0.04,
//! Manipulate Order Data 0.01 — summing to 1.0.

pub mod archive;
pub mod loader;
pub mod ops;
pub mod scenario;
pub mod state;
pub mod stats;

pub use archive::{decode_txn, encode_txn, Archive};
pub use loader::{
    apply_op, load_archive_with_retry, load_initial, read_archive_with_retry, replay, table_id,
    LoadReport,
};
pub use ops::{Op, ScenarioKind, Transaction};
pub use state::GenDb;
pub use stats::{HistoryStats, TableOps};

use bitempo_dbgen::TpchData;

/// History generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct HistoryConfig {
    /// History scale: `m = 1.0` means one million scenario executions.
    pub m: f64,
    /// Seed for the scenario stream (independent of the dbgen seed).
    pub seed: u64,
    /// Scenarios per application-time day (the paper's history spans months
    /// of simulated business on top of the TPC-H epoch).
    pub scenarios_per_day: u64,
}

impl HistoryConfig {
    /// A laptop-scale default: `m = 0.0005` → 500 scenarios.
    pub fn tiny() -> HistoryConfig {
        HistoryConfig {
            m: 0.0005,
            seed: 0x415C,
            scenarios_per_day: 4,
        }
    }

    /// A configuration with the given `m` and default seed.
    pub fn with_m(m: f64) -> HistoryConfig {
        HistoryConfig {
            m,
            seed: 0x415C,
            scenarios_per_day: 4,
        }
    }

    /// Number of scenario executions.
    pub fn scenarios(&self) -> u64 {
        ((self.m * 1_000_000.0).round() as u64).max(1)
    }
}

/// Output of a full history generation run.
#[derive(Debug)]
pub struct History {
    /// The replayable transaction archive.
    pub archive: Archive,
    /// The generator's final bitemporal state (current + invalidated).
    pub db: GenDb,
    /// Operation statistics (Table 2).
    pub stats: HistoryStats,
}

/// Runs the update scenarios against the version-0 data.
pub fn generate_history(data: &TpchData, config: &HistoryConfig) -> History {
    scenario::run(data, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_count_scaling() {
        assert_eq!(HistoryConfig::with_m(1.0).scenarios(), 1_000_000);
        assert_eq!(HistoryConfig::with_m(0.001).scenarios(), 1_000);
        assert_eq!(HistoryConfig::tiny().scenarios(), 500);
        assert_eq!(HistoryConfig::with_m(0.0).scenarios(), 1, "never zero");
    }
}
