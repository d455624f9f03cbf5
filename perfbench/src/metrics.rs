//! Metric names and units, the per-run outcome, and its output: a human
//! report followed by one JSON object on the last line.

use crate::setup::SetupTimes;
use crate::stats::median;
use crate::Args;
use bitempo_engine::SystemKind;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;

/// End-to-end metrics (reported with tracing off), in output order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("read_p50_us", "us"),
    ("recover_ms", "ms"),
];

/// `sys_a` .. `sys_d`.
pub fn sys_label(kind: SystemKind) -> &'static str {
    match kind {
        SystemKind::A => "sys_a",
        SystemKind::B => "sys_b",
        SystemKind::C => "sys_c",
        SystemKind::D => "sys_d",
    }
}

/// Per-layer metrics (reported by a traced run), in output order, as
/// `(name, unit, the end-to-end metric it moves)`. A layer a workload does
/// not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    const OP: &str = "op_p50_us";
    const READ: &str = "read_p50_us";
    let mut m: Vec<(String, &'static str, &'static str)> = vec![
        ("setup.generate_s".into(), "s", "setup_s"),
        ("setup.load_s".into(), "s", "setup_s"),
        ("setup.tune_s".into(), "s", "setup_s"),
    ];
    for kind in SystemKind::ALL {
        m.push((format!("engine.{}.apply_us", sys_label(kind)), "us", OP));
        m.push((format!("engine.{}.lookup_us", sys_label(kind)), "us", READ));
    }
    for (name, unit, moves) in [
        ("engine.rows_visited_per_row", "ratio", READ),
        ("engine.index_hit_ratio", "ratio", READ),
        ("engine.index_node_visits_per_probe", "ratio", READ),
        ("optimizer.planned_per_visited", "ratio", READ),
        ("query.self_us", "us", READ),
        ("engine.t1_scan_us", "us", OP),
        ("txn.commit_us.p99", "us", OP),
        ("gen.read_us.p99", "us", READ),
        ("txn.begin_us.p50", "us", READ),
        ("txn.begin_us.p99", "us", READ),
        ("txn.snapshot_us.p99", "us", READ),
        ("txn.commit_wait_us.p50", "us", OP),
        ("txn.commit_apply_share", "ratio", OP),
        ("txn.conflict_pct", "%", "ops_per_s"),
        ("wal.sync_count", "count", "ops_per_s"),
        ("wal.sync_us.p50", "us", OP),
        ("wal.sync_us.p99", "us", OP),
        ("wal.commits_per_sync", "ratio", "ops_per_s"),
        ("wal.bytes_per_commit", "bytes", OP),
        ("wal.scan_ms", "ms", "recover_ms"),
        ("shard.commit_single_us.p50", "us", OP),
        ("shard.commit_single_us.p99", "us", OP),
        ("shard.commit_cross_us.p50", "us", OP),
        ("shard.commit_cross_us.p99", "us", OP),
        ("shard.read_guard_us.p99", "us", READ),
        ("shard.cross_pct", "%", OP),
        ("gen.read_late_us.p99", "us", READ),
        ("trace.overhead_pct", "%", "all"),
    ] {
        m.push((name.into(), unit, moves));
    }
    m
}

/// What one run produced.
pub struct Outcome {
    workload: &'static str,
    trace: bool,
    /// Output checks that failed; any makes the run incorrect.
    checks_failed: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (retried first-committer-wins conflicts are
    /// not failures).
    pub failed: u64,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<String, f64>,
    env: Vec<(String, String)>,
    notes: Vec<String>,
}

impl Outcome {
    /// A fresh outcome; records the environment and the set-up times.
    pub fn new(workload: &'static str, args: &Args, setups: &[SetupTimes]) -> Outcome {
        let mut out = Outcome {
            workload,
            trace: args.trace,
            checks_failed: Vec::new(),
            attempted: 0,
            failed: 0,
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            env: Vec::new(),
            notes: Vec::new(),
        };
        out.env("workload", workload.to_string());
        out.env("seed", args.seed.to_string());
        out.env("seconds", args.seconds.to_string());
        out.env("trace", u8::from(args.trace).to_string());
        out.env("nproc", crate::setup::nproc().to_string());
        out.env("arch", std::env::consts::ARCH.to_string());
        out.env(
            "commit",
            std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unrecorded".into()),
        );
        out.env(
            "scale",
            format!("h={} m={}", crate::setup::SCALE_H, crate::setup::SCALE_M),
        );
        out.env("setup_repeats", setups.len().to_string());
        let pick = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        out.e2e("setup_s", pick(SetupTimes::total));
        out.layer("setup.generate_s", pick(|t| t.generate));
        out.layer("setup.load_s", pick(|t| t.load));
        out.layer("setup.tune_s", pick(|t| t.tune));
        out
    }

    /// Records an environment fact.
    pub fn env(&mut self, key: &str, value: String) {
        self.env.push((key.to_string(), value));
    }

    /// Adds a line to the human report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Notes the sample count and tail percentile behind a latency metric.
    pub fn sample_note(&mut self, what: &str, n: usize, tail_pct: f64) {
        self.note(format!(
            "samples: {what}: n={n} per engine, tail = p{tail_pct}"
        ));
    }

    /// Records a failed output check.
    pub fn fail_check(&mut self, why: String) {
        self.checks_failed.push(why);
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
        self.e2e.insert(name, value);
    }

    /// Records a latency tail (geometric mean over engines of each engine's
    /// highest supported percentile) as the per-layer metric `name`, and
    /// notes it in the report of every run.
    pub fn tail(&mut self, name: &str, a: crate::stats::Across) {
        self.note(format!(
            "{name} (p{} of n>={} per engine) = {:.1} us",
            a.tail_pct, a.n, a.tail
        ));
        self.layer(name, a.tail);
    }

    /// The engine work ratios, from the work the engine scans and key
    /// lookups of a run reported.
    pub fn engine_work(&mut self, w: &crate::trace::Work) {
        use crate::stats::ratio;
        self.layer("engine.rows_visited_per_row", ratio(w.visited, w.rows));
        self.layer("engine.index_hit_ratio", ratio(w.hits, w.probes));
        self.layer(
            "engine.index_node_visits_per_probe",
            ratio(w.node_visits, w.probes),
        );
        self.layer("optimizer.planned_per_visited", ratio(w.planned, w.visited));
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.checks_failed.is_empty()
    }

    /// The human report and, last, the JSON result line.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# perfbench {}", self.workload);
        for (k, v) in &self.env {
            let _ = writeln!(s, "env {k}: {v}");
        }
        for n in &self.notes {
            let _ = writeln!(s, "{n}");
        }
        for c in &self.checks_failed {
            let _ = writeln!(s, "CHECK FAILED: {c}");
        }
        let _ = writeln!(
            s,
            "attempted {} failed {} error_pct {:.4}",
            self.attempted,
            self.failed,
            if self.attempted == 0 {
                0.0
            } else {
                self.failed as f64 * 100.0 / self.attempted as f64
            }
        );
        let mut metrics = Vec::new();
        if self.trace {
            for (name, unit, moves) in per_layer() {
                let v = self.layers.get(&name).copied().unwrap_or(0.0);
                let _ = writeln!(s, "layer {name} = {v} {unit}  (moves {moves})");
                metrics.push((name, v, unit));
            }
        } else {
            for (name, unit) in END_TO_END {
                let v = self.e2e.get(name).copied().unwrap_or(0.0);
                let _ = writeln!(s, "e2e {name} = {v} {unit}");
                metrics.push((name.to_string(), v, unit));
            }
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        let _ = writeln!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        s
    }
}

/// A JSON number with all its digits (non-finite values become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names the program prints are exactly the ones
    /// `BENCHMARK.json` declares, with the same units.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{section}\"")).expect(section);
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section end")];
            body.split('{')
                .skip(1)
                .map(|obj| {
                    let field = |k: &str| {
                        let at = obj.find(&format!("\"{k}\"")).expect(k) + k.len() + 2;
                        let rest = &obj[at..];
                        let open = rest.find('"').expect("value") + 1;
                        let close = rest[open..].find('"').expect("value end") + open;
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u, _)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }
}

#[cfg(test)]
mod outcome_tests {
    use super::*;

    fn args(trace: bool) -> Args {
        Args {
            workload: "live_history".into(),
            seed: 7,
            seconds: 1,
            trace,
        }
    }

    #[test]
    fn a_failed_check_makes_the_result_incorrect() {
        let mut out = Outcome::new("live_history", &args(false), &[SetupTimes::default()]);
        assert!(out.correct());
        out.fail_check("recovered state differs".into());
        assert!(!out.correct());
        let text = out.render();
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": false, "), "{last}");
    }

    #[test]
    fn result_line_lists_every_metric_of_the_mode() {
        for trace in [false, true] {
            let out = Outcome::new("live_history", &args(trace), &[SetupTimes::default()]);
            let text = out.render();
            let last = text.lines().last().unwrap();
            let names: Vec<String> = if trace {
                per_layer().into_iter().map(|(n, _, _)| n).collect()
            } else {
                END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
            };
            for n in &names {
                assert!(last.contains(&format!("\"{n}\": {{\"value\": ")), "{n}");
            }
            assert_eq!(last.matches("\"unit\"").count(), names.len());
        }
    }
}
