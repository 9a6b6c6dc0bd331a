//! The panda benchmark: one command that generates a workload's inputs
//! from a seed, drives the system through its public library and HTTP
//! surfaces, checks the outputs, and prints every metric by name.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload develop|deploy|ide_serve --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! traced decomposition and prints the per-layer metrics. The last line
//! of standard output is the result object; the line before it holds the
//! machine fingerprint, the output digests and every timing with its
//! sample count. METRICS.md documents each metric.

mod http;
mod ide;
mod offline;
mod opmix;
mod serve;
mod stats;
mod sysinfo;
mod trace;

use serde::Value;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("pairs_per_s", "1/s"),
    ("f1", "ratio"),
    ("ops_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_mean_ms", "ms"),
    ("edit_mean_ms", "ms"),
    ("edit_p75_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a
/// metric of a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("embed.candidates_s", "s"),
    ("embed.embed_tables_s", "s"),
    ("embed.candidates", "count"),
    ("embed.pair_completeness", "ratio"),
    ("autolf.generate_s", "s"),
    ("autolf.lfs_kept", "count"),
    ("lf.apply_s", "s"),
    ("lf.votes_per_s", "1/s"),
    ("lf.coverage", "ratio"),
    ("lf.column_s.title_overlap", "s"),
    ("lf.column_s.title_3gram", "s"),
    ("lf.column_s.authors_me", "s"),
    ("lf.column_s.year_unmatch", "s"),
    ("lf.add_column_ms", "ms"),
    ("model.fit_s", "s"),
    ("model.transitivity_build_s", "s"),
    ("model.triangles", "count"),
    ("model.score_pair_us", "us"),
    ("session.query_us", "us"),
    ("session.glue_s", "s"),
    ("serve.healthz_us", "us"),
    ("serve.read_overhead_us", "us"),
    ("serve.edit_overhead_ms", "ms"),
    ("serve.reads_behind_edit_share", "ratio"),
    ("serve.read_behind_edit_p50_ms", "ms"),
    ("persist.bytes_per_edit", "B"),
    ("obs.trace_overhead", "ratio"),
];

/// Workload names, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 3] = ["develop", "deploy", "ide_serve"];

/// `panda_exec` workers for every workload (recorded in the fingerprint).
pub const EXEC_WORKERS: usize = 1;

/// Set-up is repeated at least `SETUP_MIN_REPS` times per run, and again
/// while less than `SETUP_BUDGET` has been spent on it (at most
/// `SETUP_MAX_REPS` times); the median is reported. A set-up of a few ms
/// thus gets a median of over a hundred.
pub const SETUP_MIN_REPS: usize = 5;
pub const SETUP_MAX_REPS: usize = 400;
pub const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Whether to set up once more after `done` set-ups that took `spent`.
pub fn another_setup(done: usize, spent: Duration) -> bool {
    done < SETUP_MIN_REPS || (done < SETUP_MAX_REPS && spent < SETUP_BUDGET)
}

/// What one run was asked to do.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Fingerprint extras, digests and timing summaries.
    pub detail: Vec<(String, Value)>,
    /// Recorded spans (traced runs only).
    pub spans: Option<Value>,
}

impl Outcome {
    /// A run that has passed every check so far, recording the telemetry
    /// state the program ran with.
    pub fn new(telemetry: &str) -> Outcome {
        let mut out = Outcome {
            correct: true,
            ..Outcome::default()
        };
        out.detail("telemetry", Value::Str(telemetry.to_string()));
        out
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    pub fn detail(&mut self, key: &str, value: Value) {
        self.detail.push((key.to_string(), value));
    }

    /// Record a failed output check; the run then reports `correct: false`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

fn parse_args() -> Result<RunArgs, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    Ok(RunArgs {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

fn fingerprint(args: &RunArgs) -> Value {
    Value::Object(vec![
        ("cpu".into(), Value::Str(sysinfo::cpu_model())),
        ("nproc".into(), Value::UInt(sysinfo::nproc() as u64)),
        ("kernel".into(), Value::Str(sysinfo::kernel())),
        (
            "exec_workers".into(),
            Value::UInt(panda_exec::worker_count() as u64),
        ),
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::UInt(args.seconds.as_secs())),
        ("trace".into(), Value::Bool(args.trace)),
    ])
}

/// JSON text of a value tree.
pub fn json(v: Value) -> String {
    struct Tree(Value);
    impl serde::Serialize for Tree {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string(&Tree(v)).expect("a value tree always serializes")
}

/// Where run artefacts (span dumps, the serve state directory) go:
/// `perfbench/out/` in the checkout the benchmark runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // One compute worker: on a shared 2-core machine, runs of the same
    // seed with two workers spread 15% in `pipeline_s`, with one 2%.
    // Outputs do not depend on the worker count.
    panda_exec::set_worker_override(Some(EXEC_WORKERS));
    let mut out = match args.workload.as_str() {
        "develop" => offline::develop(&args),
        "deploy" => offline::deploy(&args),
        _ => serve::ide_serve(&args),
    };

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let value = out.metrics.iter().find(|(n, _)| n == name).map(|m| m.1);
        let value = match value {
            Some(v) if v.is_finite() => v,
            // A layer this workload does not exercise.
            None if args.trace => 0.0,
            other => {
                out.check(false, || format!("metric {name} not measured: {other:?}"));
                0.0
            }
        };
        metrics.push((
            name.to_string(),
            Value::Object(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(unit.to_string())),
            ]),
        ));
    }
    if let Some(spans) = out.spans.take() {
        let dir = out_dir();
        let path = dir.join(format!("spans-{}-{}.json", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json(spans)));
        out.check(written.is_ok(), || {
            format!("writing {}: {written:?}", path.display())
        });
    }
    let mut detail = vec![("fingerprint".to_string(), fingerprint(&args))];
    detail.append(&mut out.detail);
    println!("{}", json(Value::Object(detail)));
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(out.correct)),
        ("attempted".into(), Value::UInt(out.attempted.max(1))),
        ("failed".into(), Value::UInt(out.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", json(result));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json lists the metrics later changes cite; the names and
    /// units this program prints must be exactly the ones it declares.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::parse_value(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Array(items)) = doc.get_field(key) else {
                panic!("{key} missing");
            };
            items
                .iter()
                .map(|m| match (m.get_field("name"), m.get_field("unit")) {
                    (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                    _ => panic!("{key} entry without name/unit"),
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let Some(Value::Array(workloads)) = doc.get_field("workloads") else {
            panic!("workloads missing");
        };
        let names: Vec<_> = workloads
            .iter()
            .map(|w| match w.get_field("name") {
                Some(Value::Str(n)) => n.clone(),
                _ => panic!("workload without name"),
            })
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn setup_repeats_until_the_budget_is_spent() {
        let ms = Duration::from_millis;
        assert!(another_setup(0, ms(5000)), "at least the minimum");
        assert!(!another_setup(SETUP_MIN_REPS, SETUP_BUDGET));
        assert!(another_setup(SETUP_MIN_REPS, ms(10)), "budget left");
        assert!(!another_setup(SETUP_MAX_REPS, ms(10)), "capped");
    }

    #[test]
    fn curated_deploy_lfs_have_column_metrics() {
        for lf in panda_bench::curated_lfs(panda_datasets::DatasetFamily::CoraDedup) {
            let name = format!("lf.column_s.{}", lf.name());
            assert!(
                PER_LAYER.iter().any(|(n, _)| *n == name),
                "{name} missing from PER_LAYER"
            );
        }
    }
}
