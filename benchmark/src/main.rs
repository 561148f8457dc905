//! The repository's benchmark. One invocation runs one workload for one
//! seed and prints every metric; see README.md.
//!
//! ```text
//! rl-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--lite]
//! rl-benchmark compare <run files A…> --against <run files B…>
//! ```

mod alloc;
mod batch;
mod child;
mod compare;
mod durable;
mod mixed;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use report::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Data, Spec, Stage, PLAN_SEED, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The set-up is repeated at least `SETUPS.0` times, and then until it has
/// taken `SETUP_SECONDS` in all or been made `SETUPS.1` times. It does
/// identical work every time, so `setup_s` is read like every other timed
/// unit (`stats::Passes`): the best of its repetitions. Between two sets of
/// ten same-code runs made the same afternoon the median over runs moved by 13 %
/// read this way and by 22 % read as the median of the repetitions.
const SETUPS: (usize, usize) = (3, 15);
const SETUP_SECONDS: f64 = 3.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    lite: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 42,
        seconds: 18.0,
        trace: false,
        lite: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => out.trace = value()? == "1",
            "--lite" => out.lite = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.seconds.is_nan() || out.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(out)
}

/// Everything that exists before the first measured phase.
pub struct Setup {
    pub data: Data,
    pub pipeline: cbv_hb::pipeline::LinkagePipeline,
    /// The read-only server: traced runs only.
    pub probe_server: Option<child::Child>,
    /// The durable server: `serve_durable`, and traced runs.
    pub durable: Option<child::Durable>,
    /// Scratch directory of this run, removed at its end.
    pub work: PathBuf,
}

/// Data generation, schema fit, pipeline construction, and the child
/// servers this run uses up and listening.
fn set_up(spec: &Spec, seed: u64, work: &Path, trace: bool) -> Result<Setup, String> {
    let io = |e: std::io::Error| e.to_string();
    let data = Data::generate(spec, seed);
    let pipeline = batch::new_pipeline(spec, &data);
    // A fresh directory every time: the durable server must start empty.
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work).map_err(io)?;
    let probe_server = if trace {
        let probe_spec = work.join("probe.json");
        child::write_spec(&probe_spec, &data.schema, &spec.config(), PLAN_SEED, None)
            .map_err(io)?;
        Some(child::Child::spawn(&probe_spec).map_err(io)?)
    } else {
        None
    };
    let durable = if trace || spec.stage == Stage::DurableServer {
        Some(durable::spawn_fresh(spec, &data, work, 0)?)
    } else {
        None
    };
    Ok(Setup {
        data,
        pipeline,
        probe_server,
        durable,
        work: work.to_path_buf(),
    })
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = Spec::named(&args.workload, args.lite).ok_or_else(|| {
        format!(
            "unknown workload {:?}; one of {}",
            args.workload,
            WORKLOADS.join(", ")
        )
    })?;
    // `--lite`: a tenth of the records (in `Spec::named`) and a fifth of
    // the measured time, for smoke-testing the harness.
    let seconds = if args.lite {
        args.seconds / 5.0
    } else {
        args.seconds
    };
    let out = report::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let work = out.join(format!("work-{}-{}", spec.name, args.seed));
    let mut report = Report::default();

    let mut setup_times = Vec::new();
    let mut setup = None;
    let setting_up = Instant::now();
    while setup_times.len() < SETUPS.0
        || (setup_times.len() < SETUPS.1 && setting_up.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(set_up(&spec, args.seed, &work, args.trace)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("the set-up is made at least once");

    let kind = if args.trace {
        trace::run(&spec, setup, args.seed, seconds, &out, &mut report)?;
        "trace"
    } else {
        let best = setup_times.iter().copied().fold(f64::INFINITY, f64::min);
        report.metric("setup_s", best, "s");
        report.diag("setup_s_median", stats::median(&setup_times));
        report.diag("setup_s_values", setup_times);
        let Setup {
            data,
            pipeline,
            durable,
            work,
            ..
        } = setup;
        match (spec.stage, durable) {
            (Stage::DurableServer, Some(server)) => {
                durable::run(&spec, &data, server, &work, seconds, &mut report)?
            }
            _ => batch::run(&spec, &data, pipeline, seconds, &mut report),
        }
        "run"
    };
    let _ = std::fs::remove_dir_all(&work);

    let file = out.join(format!("{kind}-{}-{}.json", spec.name, args.seed));
    let doc = report.run_file(&spec, args.seed, seconds, args.lite, args.trace);
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&file, text).map_err(|e| format!("{}: {e}", file.display()))?;

    for m in &report.metrics {
        eprintln!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for e in &report.errors {
        eprintln!("FAILED CHECK: {e}");
    }
    eprintln!(
        "attempted {} failed {} -> {}",
        report.attempted,
        report.failed,
        file.display()
    );
    println!("{}", report.result_line());
    Ok(report.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("serve-child") => match args.get(1) {
            Some(spec) => child::serve(spec).map(|()| true),
            None => Err("serve-child needs a spec file".into()),
        },
        Some("compare") => compare::run(&args[1..]),
        _ => parse_args(&args).and_then(|a| run(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rl-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
