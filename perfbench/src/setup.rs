//! Set-up: generate the seeded inputs, load them into every engine, tune.
//! Each phase is timed from outside, by wall clock around its calls.

use crate::probe::TimedEngine;
use bitempo_core::{Result, TableId};
use bitempo_dbgen::{ScaleConfig, TpchData};
use bitempo_engine::api::TuningConfig;
use bitempo_engine::{build_engine, BitemporalEngine, SystemKind};
use bitempo_histgen::{loader, Archive, History, HistoryConfig};
use std::time::Instant;

/// TPC-H scale `h` of every workload.
pub const SCALE_H: f64 = 0.002;
/// History scale `m` (2,000 single-scenario transactions).
pub const SCALE_M: f64 = 0.002;

/// Wall time of each set-up phase, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// dbgen + histgen.
    pub generate: f64,
    /// Version 0 plus archive replay (and checkpoint capture/partitioning).
    pub load: f64,
    /// `apply_tuning`.
    pub tune: f64,
}

impl SetupTimes {
    /// Total set-up seconds.
    pub fn total(&self) -> f64 {
        self.generate + self.load + self.tune
    }
}

/// Runs `f`, returning its result and its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The generated inputs of one seed.
pub struct Inputs {
    /// Version 0.
    pub data: TpchData,
    /// The update history.
    pub history: History,
}

/// Generates version 0 and the history from `seed`. dbgen and histgen get
/// distinct streams derived from the one seed.
pub fn generate(seed: u64) -> Inputs {
    let data = bitempo_dbgen::generate(&ScaleConfig {
        h: SCALE_H,
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xDB6E,
    });
    let history = bitempo_histgen::generate_history(
        &data,
        &HistoryConfig {
            seed: seed.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ 0x415C,
            ..HistoryConfig::with_m(SCALE_M)
        },
    );
    Inputs { data, history }
}

/// The first `n` transactions of `archive`, as an archive of their own.
pub fn archive_prefix(archive: &Archive, n: usize) -> Archive {
    Archive {
        dbgen_seed: archive.dbgen_seed,
        hist_seed: archive.hist_seed,
        transactions: archive.transactions[..n.min(archive.transactions.len())].to_vec(),
    }
}

/// One engine behind the benchmark's decorator, loaded with version 0 plus
/// `archive` and checkpointed (staged state folded in). Returns the engine
/// with its table ids in load order.
pub fn load(
    kind: SystemKind,
    inputs: &Inputs,
    archive: &Archive,
) -> Result<(Box<dyn BitemporalEngine>, Vec<TableId>)> {
    let mut engine = TimedEngine::wrap(build_engine(kind));
    let ids = loader::load_initial(engine.as_mut(), &inputs.data)?;
    loader::replay(engine.as_mut(), &ids, archive, 1)?;
    engine.checkpoint();
    Ok((engine, ids))
}

/// Key+Time B-Trees with `workers` scan workers; `temporal` adds the
/// temporal index.
pub fn tuning(workers: usize, temporal: bool) -> TuningConfig {
    TuningConfig::key_time()
        .with_temporal_index(temporal)
        .with_workers(workers)
}

/// Available hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
