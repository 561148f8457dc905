//! `compare <run files A…> --against <run files B…>`: per workload and
//! metric, the medians and quartiles of two sets of runs and B's relative
//! change against the metric's bound.
//!
//! Exits non-zero when B is worse than A beyond a bound, when a count that
//! must repeat exactly differs between runs of the same seed, when a run of
//! B failed its checks, or when B has no usable run of a workload A has.
//! Names, directions and bounds are read from `BENCHMARK.json`, the one
//! place they are defined.

use crate::report::field as get;
use crate::stats::quartiles;
use serde_json::Value;
use std::collections::BTreeMap;

/// Counts that the same code must reproduce exactly for the same seed.
/// They compare work done, not time, so any difference is a finding.
const EXACT: [&str; 5] = [
    "candidates_per_probe",
    "matched",
    "match_hash",
    "serve.wal_bytes_per_rec",
    "lsh.keys_per_rec",
];

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(f) => Some(f),
        Value::U64(u) => Some(u as f64),
        Value::I64(i) => Some(i as f64),
        _ => None,
    }
}

fn text(v: &Value) -> Option<&str> {
    match v {
        Value::String(s) => Some(s),
        _ => None,
    }
}

/// A metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    lower_is_better: bool,
    /// `None` for per-layer metrics, which are shown but never gated.
    bound: Option<f64>,
}

fn declared(path: &str) -> Result<Vec<Declared>, String> {
    let text_ = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = serde_json::value_from_str(&text_).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        let Some(Value::Array(items)) = get(&doc, section) else {
            return Err(format!("{path}: no `{section}` list"));
        };
        for item in items {
            out.push(Declared {
                name: get(item, "name")
                    .and_then(text)
                    .unwrap_or_default()
                    .to_string(),
                lower_is_better: get(item, "better").and_then(text) == Some("lower"),
                bound: get(item, "bound").and_then(number),
            });
        }
    }
    Ok(out)
}

/// One run file, reduced to what is compared.
struct Run {
    file: String,
    workload: String,
    seed: u64,
    lite: bool,
    trace: bool,
    /// Every check passed and no operation failed.
    correct: bool,
    /// The open-loop generator kept its schedule (`serve.rs`); a run whose
    /// generator fell behind measured its own CPU being taken away.
    on_time: bool,
    values: BTreeMap<String, f64>,
    exact: BTreeMap<String, String>,
}

fn load(path: &str) -> Result<Run, String> {
    let text_ = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = serde_json::value_from_str(&text_).map_err(|e| format!("{path}: {e}"))?;
    let flag = |key: &str| matches!(get(&doc, key), Some(Value::Bool(true)));
    let diagnostics = get(&doc, "diagnostics");
    let mut values = BTreeMap::new();
    let mut exact = BTreeMap::new();
    if let Some(Value::Object(metrics)) = get(&doc, "metrics") {
        for (name, m) in metrics {
            if let Some(v) = get(m, "value").and_then(number) {
                values.insert(name.clone(), v);
                if EXACT.contains(&name.as_str()) {
                    exact.insert(name.clone(), format!("{v}"));
                }
            }
        }
    }
    for name in EXACT {
        if let Some(v) = diagnostics.and_then(|d| get(d, name)) {
            let shown = text(v)
                .map(str::to_string)
                .or_else(|| number(v).map(|n| format!("{n}")));
            if let Some(shown) = shown {
                exact.insert(name.to_string(), shown);
            }
        }
    }
    let on_time = !matches!(
        diagnostics.and_then(|d| get(d, "open_loop_valid")),
        Some(Value::Bool(false))
    );
    Ok(Run {
        file: path.to_string(),
        workload: get(&doc, "workload")
            .and_then(text)
            .unwrap_or_default()
            .to_string(),
        seed: get(&doc, "seed").and_then(number).unwrap_or(0.0) as u64,
        lite: flag("lite"),
        trace: flag("trace"),
        correct: flag("correct"),
        on_time,
        values,
        exact,
    })
}

impl Run {
    /// Whether the run's numbers describe a working program on a machine
    /// that let the generator run.
    fn usable(&self) -> bool {
        self.correct && self.on_time
    }
}

/// The usable runs of one workload, traced or not.
fn pick<'a>(set: &'a [Run], workload: &str, trace: bool) -> Vec<&'a Run> {
    set.iter()
        .filter(|r| r.usable() && r.workload == workload && r.trace == trace)
        .collect()
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let (mut a_files, mut b_files) = (Vec::new(), Vec::new());
    let mut into_b = false;
    for arg in args {
        match arg.as_str() {
            "--against" => into_b = true,
            file if into_b => b_files.push(file.to_string()),
            file => a_files.push(file.to_string()),
        }
    }
    if a_files.is_empty() || b_files.is_empty() {
        return Err("usage: compare <run files A…> --against <run files B…>".into());
    }
    // Run from the repository root, like the benchmark itself.
    let metrics = declared("BENCHMARK.json")?;
    let a: Vec<Run> = a_files.iter().map(|f| load(f)).collect::<Result<_, _>>()?;
    let b: Vec<Run> = b_files.iter().map(|f| load(f)).collect::<Result<_, _>>()?;
    let all = || a.iter().chain(&b);
    if all().any(|r| r.lite) && all().any(|r| !r.lite) {
        return Err("refusing to compare lite runs with full-size runs".into());
    }
    let mut ok = true;
    for (side, runs) in [("A", &a), ("B", &b)] {
        for r in runs.iter().filter(|r| !r.usable()) {
            let why = if r.correct {
                "its open-loop generator ran late"
            } else {
                "it failed its checks"
            };
            println!("{side}: leaving out {}: {why}", r.file);
        }
    }
    // A change that breaks the program must not pass for lack of numbers.
    if b.iter().any(|r| !r.correct) {
        ok = false;
        println!("B has runs that failed their checks");
    }

    let workloads: std::collections::BTreeSet<(&str, bool)> =
        all().map(|r| (r.workload.as_str(), r.trace)).collect();
    for (workload, trace) in workloads {
        let (ra, rb) = (pick(&a, workload, trace), pick(&b, workload, trace));
        let traced = if trace { " (traced)" } else { "" };
        if rb.is_empty() {
            ok = false;
            println!("\n{workload}{traced}: B has no usable run of it");
            continue;
        }
        if ra.is_empty() {
            println!("\n{workload}{traced}: A has no usable run of it, nothing to compare");
            continue;
        }
        println!(
            "\n{workload}{traced}: {} run(s) against {}",
            ra.len(),
            rb.len()
        );
        println!(
            "  {:<44} {:>14} {:>22} {:>14} {:>22} {:>9} {:>7}",
            "metric", "A median", "A q1..q3", "B median", "B q1..q3", "change", "bound"
        );
        for m in &metrics {
            let column = |runs: &[&Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.values.get(&m.name).copied())
                    .collect()
            };
            let (va, vb) = (column(&ra), column(&rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let [a1, a2, a3] = quartiles(&va);
            let [b1, b2, b3] = quartiles(&vb);
            // Positive = B is worse, whichever way the metric points.
            let change = if a2 == 0.0 {
                0.0
            } else if m.lower_is_better {
                (b2 - a2) / a2
            } else {
                (a2 - b2) / a2
            };
            let verdict = match m.bound {
                Some(bound) if change > bound => {
                    ok = false;
                    "  WORSE"
                }
                _ => "",
            };
            println!(
                "  {:<44} {:>14.4} {:>22} {:>14.4} {:>22} {:>+8.1}% {:>7}{verdict}",
                m.name,
                a2,
                format!("{a1:.4}..{a3:.4}"),
                b2,
                format!("{b1:.4}..{b3:.4}"),
                change * 100.0,
                m.bound
                    .map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0)),
            );
        }
        // Exact counts, seed by seed.
        for x in &ra {
            for y in rb.iter().filter(|y| y.seed == x.seed) {
                for (name, va) in &x.exact {
                    if let Some(vb) = y.exact.get(name) {
                        if va != vb {
                            ok = false;
                            println!("  seed {}: {name} differs: {va} against {vb}", x.seed);
                        }
                    }
                }
            }
        }
    }
    println!(
        "\n{}",
        if ok {
            "no regression beyond a bound, exact counts agree, no failed run in B"
        } else {
            "REGRESSION"
        }
    );
    Ok(ok)
}
