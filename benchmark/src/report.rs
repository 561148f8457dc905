//! What one run reports: gated metrics, ungated diagnostics, the
//! attempted/failed tally, failed correctness checks, and machine facts.

use crate::stats::{median, median_rate, percentile_us, Passes};
use crate::workload::Spec;
use serde_json::{json, Value};
use std::path::{Path, PathBuf};

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Recorded in the run file but never gated: tail percentiles, sample
    /// counts, deterministic work counts.
    pub diagnostics: Vec<(String, Value)>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed correctness check; any entry fails the run.
    pub errors: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Reports a throughput read over repeated passes of the same slices:
    /// the median over slices of `size ÷ best time` ([`Passes`]). The same
    /// median over every pass's slices, and the pass count, go beside it.
    pub fn rate_over_passes(
        &mut self,
        name: &'static str,
        unit: &'static str,
        passes: &Passes,
        sizes: &[usize],
    ) {
        self.metric(name, median_rate(&passes.best(), sizes), unit);
        self.diag(
            &format!("{name}_all_passes"),
            median_rate(&passes.all(), sizes),
        );
        let per_pass: Vec<f64> = passes
            .each()
            .iter()
            .map(|pass| median_rate(pass, sizes))
            .collect();
        self.diag(&format!("{name}_per_pass"), per_pass);
        self.diag(&format!("{name}_passes"), passes.count());
    }

    /// Reports `probe_p50_us`, read over repeated passes of the same
    /// single-record probes. In process (`over_the_wire` false) a probe's
    /// time is its work plus whatever the machine added, so the metric is
    /// the median over probes of each probe's best time. Over the wire most
    /// of a probe's time is four thread wake-ups, whose time is a
    /// distribution with no floor to find — the best of forty passes was
    /// 37 to 78 µs over ten runs whose pass medians were 130 to 138 µs — so
    /// there the metric is the median over passes of the pass's median.
    /// Both readings, p90 and the tail percentiles over every sample of
    /// every pass are recorded.
    pub fn latency_over_passes(&mut self, passes: &Passes, over_the_wire: bool) {
        let (best, all) = (passes.best(), passes.all());
        let per_pass: Vec<f64> = passes
            .each()
            .iter()
            .map(|pass| percentile_us(pass, 50.0))
            .collect();
        let (best_p50, typical_p50) = (percentile_us(&best, 50.0), median(&per_pass));
        let p50 = if over_the_wire { typical_p50 } else { best_p50 };
        self.metric("probe_p50_us", p50, "us");
        self.diag("probe_p50_us_best_of_passes", best_p50);
        self.diag("probe_p50_us_median_pass", typical_p50);
        self.diag("probe_p90_us_best_of_passes", percentile_us(&best, 90.0));
        for p in [50.0, 90.0, 99.0, 99.9] {
            self.diag(&format!("probe_all_passes_p{p}_us"), percentile_us(&all, p));
        }
        self.diag("probe_p50_us_per_pass", per_pass);
        self.diag("probe_samples", all.len());
        self.diag("probe_passes", passes.count());
    }

    pub fn diag(&mut self, name: &str, value: impl Into<DiagValue>) {
        self.diagnostics.push((name.to_string(), value.into().0));
    }

    /// Records a correctness check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Tallies operations sent to the program under test.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The value of a metric reported earlier in this run (0 if absent).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    fn metrics_value(&self) -> Value {
        Value::Object(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        json!({"value": m.value, "unit": m.unit}),
                    )
                })
                .collect(),
        )
    }

    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let v = json!({
            "correct": self.correct(),
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": self.metrics_value(),
        });
        serde_json::to_string(&v).expect("result line serializes")
    }

    /// The run file: the result line's content plus everything needed to
    /// compare two runs or to tell why they differ.
    pub fn run_file(&self, spec: &Spec, seed: u64, seconds: f64, lite: bool, trace: bool) -> Value {
        json!({
            "workload": spec.name,
            "seed": seed,
            "seconds": seconds,
            "lite": lite,
            "trace": trace,
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "metrics": self.metrics_value(),
            "diagnostics": Value::Object(self.diagnostics.clone()),
            "sizes": json!({
                "records": spec.records,
                "link_probes": spec.link_probes,
                "quality_probes": spec.quality_probes,
                "latency_probes": spec.latency_probes,
                "serve_records": spec.serve_records,
                "mixed_records": spec.mixed_records,
                "open_rate": spec.open_rate,
                "trace_probes": spec.trace_probes,
            }),
            "machine": machine_facts(),
        })
    }
}

/// The member `key` of a JSON object, if `v` is one and has it.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A diagnostic value: numbers, strings and booleans convert into it.
pub struct DiagValue(Value);

impl From<f64> for DiagValue {
    fn from(v: f64) -> Self {
        DiagValue(Value::F64(v))
    }
}
impl From<u64> for DiagValue {
    fn from(v: u64) -> Self {
        DiagValue(Value::U64(v))
    }
}
impl From<usize> for DiagValue {
    fn from(v: usize) -> Self {
        DiagValue(Value::U64(v as u64))
    }
}
impl From<bool> for DiagValue {
    fn from(v: bool) -> Self {
        DiagValue(Value::Bool(v))
    }
}
impl From<Vec<f64>> for DiagValue {
    fn from(v: Vec<f64>) -> Self {
        DiagValue(Value::Array(v.into_iter().map(Value::F64).collect()))
    }
}
impl From<String> for DiagValue {
    fn from(v: String) -> Self {
        DiagValue(Value::String(v))
    }
}

/// Directory run files, traces and the child servers' data live in:
/// `benchmark/out` under the directory the command is run from (the
/// repository root), or `$RL_BENCH_OUT`.
pub fn out_dir() -> PathBuf {
    match std::env::var_os("RL_BENCH_OUT") {
        Some(dir) => PathBuf::from(dir),
        None => Path::new("benchmark").join("out"),
    }
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Facts about the machine and the source a run was made on. Anything
/// that cannot be read is recorded as `null`, never guessed.
fn machine_facts() -> Value {
    let mem_total_kb = read_trimmed("/proc/meminfo").and_then(|m| {
        m.lines()
            .find_map(|l| l.strip_prefix("MemTotal:"))
            .and_then(|s| s.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
    });
    json!({
        // CPUs this process may run on (affinity mask and cgroup quota).
        "cpus_allowed": std::thread::available_parallelism().ok().map(|n| n.get()),
        "nproc": read_trimmed("/proc/cpuinfo")
            .map(|c| c.lines().filter(|l| l.starts_with("processor")).count()),
        "mem_total_kb": mem_total_kb,
        "kernel": read_trimmed("/proc/sys/kernel/osrelease"),
        "rustc": command_line("rustc", &["--version"]),
        "git_sha": command_line("git", &["rev-parse", "HEAD"]),
    })
}
