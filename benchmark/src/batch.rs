//! The untraced run of the in-process workloads: `LinkagePipeline::index`,
//! `LinkagePipeline::link` over slices, and single-record probes, in rounds.
//!
//! A round builds a fresh pipeline, indexes all of A slice by slice, links
//! the probe slices, and times the single-record probes; rounds repeat until
//! `--seconds` have passed. Every round does identical work, so each slice
//! and each probe is timed once per round and read as `stats::Passes` says.
//! Running whole rounds, rather than each phase on its own, spreads every
//! phase's passes over the whole run.

use crate::alloc;
use crate::report::Report;
use crate::stats::Passes;
use crate::workload::{Blocking, Data, Spec, PLAN_SEED, THETA};
use cbv_hb::pipeline::LinkagePipeline;
use cbv_hb::Record;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Probes whose served answer is compared with the in-process oracle.
pub const ORACLE_PROBES: usize = 2_000;
/// Rounds every run makes, however short `--seconds` is.
pub const MIN_ROUNDS: usize = 3;
/// Time the link passes and the single-record probes get in a round, as
/// shares of what the round's index pass took.
const LINK_SHARE: f64 = 1.0;
const LATENCY_SHARE: f64 = 0.4;

/// Builds the pipeline every stage's plan is a copy of.
pub fn new_pipeline(spec: &Spec, data: &Data) -> LinkagePipeline {
    let mut rng = StdRng::seed_from_u64(PLAN_SEED);
    LinkagePipeline::new(data.schema.clone(), spec.config(), &mut rng)
        .expect("the workload's blocking configuration is valid")
}

/// Order-independent hash of a match relation.
pub fn match_hash(pairs: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    pairs
        .into_iter()
        .map(|(a, b)| {
            let mut z = a.rotate_left(32) ^ b ^ 0x9e37_79b9_7f4a_7c15;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .fold(0u64, u64::wrapping_add)
}

pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Reports `pairs_completeness` of `matches`, the answer to `probes` with
/// all of A indexed, and checks it: the paper's 1 − δ under record-level and
/// rule-aware blocking, zero false negatives within θ under covering.
pub fn check_quality(
    spec: &Spec,
    data: &Data,
    probes: &[Record],
    matches: &[(u64, u64)],
    report: &mut Report,
) {
    let found: HashSet<(u64, u64)> = matches.iter().copied().collect();
    // Every A-record is indexed, so each probe that has a partner counts.
    let truth: Vec<(u64, u64)> = probes
        .iter()
        .filter_map(|p| data.partner.get(&p.id).map(|&a| (a, p.id)))
        .collect();
    let hit = truth.iter().filter(|p| found.contains(p)).count();
    let completeness = hit as f64 / truth.len().max(1) as f64;
    report.metric("pairs_completeness", completeness, "share");
    report.diag("truth_pairs_sent", truth.len());
    report.diag("matched", matches.len());
    report.diag(
        "match_hash",
        format!("{:016x}", match_hash(matches.iter().copied())),
    );

    if spec.blocking == Blocking::Covering {
        // CoveringLSH guarantees zero false negatives within θ: every
        // ground-truth pair whose embedded total distance is ≤ θ must be
        // found, not merely 1 − δ of them.
        let by_id: HashMap<u64, &Record> = probes.iter().map(|p| (p.id, p)).collect();
        let (mut within, mut missed) = (0u64, 0u64);
        for &(a, b) in &truth {
            let ea = data.schema.embed(&data.a[a as usize]);
            let eb = data.schema.embed(by_id[&b]);
            if let (Ok(ea), Ok(eb)) = (ea, eb) {
                if ea.total_distance(&eb) <= THETA {
                    within += 1;
                    missed += u64::from(!found.contains(&(a, b)));
                }
            }
        }
        report.diag("covering_pairs_within_theta", within);
        report.check(missed == 0, || {
            format!("covering backend missed {missed} of {within} ground-truth pairs within θ = {THETA}")
        });
    } else {
        // The paper's guarantee: each truly similar pair is formulated
        // with probability ≥ 1 − δ, δ = 0.1.
        report.check(completeness >= 0.9, || {
            format!("pairs_completeness {completeness:.4} is below 1 − δ = 0.9")
        });
    }
}

/// Repeats `pass` — one timing of every unit of a phase — until `window`
/// has passed, at least once.
pub fn passes_for(window: Duration, into: &mut Passes, mut pass: impl FnMut() -> Vec<u64>) {
    let phase = Instant::now();
    loop {
        into.push(pass());
        if phase.elapsed() >= window {
            break;
        }
    }
}

/// Runs the rounds and reports every end-to-end metric but `setup_s`.
/// `first` is the empty pipeline the set-up built; later rounds build
/// their own.
pub fn run(spec: &Spec, data: &Data, first: LinkagePipeline, seconds: f64, report: &mut Report) {
    let index_slices: Vec<&[Record]> = data.a.chunks(spec.index_slice).collect();
    let quality = &data.probes[..spec.quality_probes.min(data.probes.len())];
    let link_slices: Vec<&[Record]> = quality[..spec.link_probes.min(quality.len())]
        .chunks(spec.link_slice)
        .collect();
    let singles = &data.probes[..spec.latency_probes.min(data.probes.len())];

    let (mut index, mut link, mut latency) =
        (Passes::default(), Passes::default(), Passes::default());
    // The first round's answer to the quality probes and what indexing
    // cost it, and the hash of what the timed slices matched: every later
    // pass must reproduce that hash.
    let mut answer: Vec<(u64, u64)> = Vec::new();
    let (mut candidates, mut index_bytes) = (0u64, 0i64);
    let mut slices_hash = None;
    let mut repeats = true;

    let mut pipeline = Some(first);
    let start = Instant::now();
    let mut rounds = 0usize;
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let mut p = pipeline.take().unwrap_or_else(|| new_pipeline(spec, data));

        let mut times = Vec::with_capacity(index_slices.len());
        let live = alloc::live_bytes() as i64;
        let indexing = Instant::now();
        for slice in &index_slices {
            let t = Instant::now();
            let ok = p.index(slice).is_ok();
            times.push(ns_since(t));
            report.ops(slice.len() as u64, if ok { 0 } else { slice.len() as u64 });
        }
        let indexing = indexing.elapsed();
        index.push(times);
        if rounds == 0 {
            index_bytes = alloc::live_bytes() as i64 - live;
            match p.link(quality) {
                Ok(r) => {
                    report.ops(quality.len() as u64, 0);
                    candidates = r.stats.candidates;
                    answer = r.matches;
                }
                Err(_) => report.ops(quality.len() as u64, quality.len() as u64),
            }
        }

        passes_for(indexing.mul_f64(LINK_SHARE), &mut link, || {
            let mut times = Vec::with_capacity(link_slices.len());
            let mut matches = Vec::new();
            for slice in &link_slices {
                let t = Instant::now();
                let result = p.link(slice);
                times.push(ns_since(t));
                match result {
                    Ok(r) => {
                        report.ops(slice.len() as u64, 0);
                        matches.extend(r.matches);
                    }
                    Err(_) => report.ops(slice.len() as u64, slice.len() as u64),
                }
            }
            let hash = match_hash(matches);
            repeats &= *slices_hash.get_or_insert(hash) == hash;
            times
        });

        passes_for(indexing.mul_f64(LATENCY_SHARE), &mut latency, || {
            let mut times = Vec::with_capacity(singles.len());
            for probe in singles {
                let t = Instant::now();
                let ok = p.link(std::slice::from_ref(probe)).is_ok();
                times.push(ns_since(t));
                report.ops(1, u64::from(!ok));
            }
            times
        });
        rounds += 1;
    }
    report.diag("rounds", rounds);
    report.diag("stage_rounds_s", start.elapsed().as_secs_f64());

    let sizes = |slices: &[&[Record]]| slices.iter().map(|s| s.len()).collect::<Vec<_>>();
    report.rate_over_passes("index_rec_per_s", "rec/s", &index, &sizes(&index_slices));
    report.rate_over_passes("link_rec_per_s", "rec/s", &link, &sizes(&link_slices));
    report.latency_over_passes(&latency, false);
    report.metric(
        "index_bytes_per_rec",
        index_bytes as f64 / data.a.len() as f64,
        "B/rec",
    );
    report.diag(
        "candidates_per_probe",
        candidates as f64 / quality.len().max(1) as f64,
    );
    report.check(repeats, || {
        "a later pass over the timed slices matched differently from the first".into()
    });
    check_quality(spec, data, quality, &answer, report);
}
