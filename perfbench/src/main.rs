//! `perfbench`: the bitempo stack's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <live_history|shard_transfer> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human report and, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits non-zero
//! when any output check fails. See `perfbench/README.md`.

mod live;
mod metrics;
mod probe;
mod serve;
mod setup;
mod stats;
mod trace;
mod transfer;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: feeds dbgen, histgen and every client RNG.
    pub seed: u64,
    /// Run length: sizes the measured work (`shard_transfer` transfers) to
    /// about this many seconds on a 2-vCPU host; `live_history` replays its
    /// fixed stream.
    pub seconds: u64,
    /// Traced run: report per-layer metrics.
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = num()?,
                "--seconds" => args.seconds = num()?.max(1),
                "--trace" => args.trace = num()? != 0,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(args)
    }

    /// A per-run scratch directory inside the working directory (the
    /// checkout the benchmark runs from), unique to this process.
    pub fn workdir(&self) -> PathBuf {
        PathBuf::from(".perfbench_work").join(format!(
            "{}-{}-{}",
            self.workload,
            self.seed,
            std::process::id()
        ))
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "live_history" => live::run(&args),
        "shard_transfer" => transfer::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(args.workdir());
    let _ = std::fs::remove_dir(".perfbench_work");
    match result {
        Ok(out) => {
            print!("{}", out.render());
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
