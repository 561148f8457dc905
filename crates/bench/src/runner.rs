//! Running linkers over generated data-set pairs and scoring them.

use cbv_hb::metrics::{evaluate, LinkageQuality};
use rl_baselines::{LinkOutcome, Linker};
use rl_datagen::DatasetPair;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// One method's scored result on one data-set pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodResult {
    /// Method name.
    pub name: String,
    /// Quality measures against the pair's ground truth.
    pub quality: LinkageQuality,
    /// Embedding time, seconds.
    pub embed_secs: f64,
    /// Blocking time, seconds.
    pub block_secs: f64,
    /// Matching time, seconds.
    pub match_secs: f64,
    /// Total running time, seconds.
    pub total_secs: f64,
}

fn secs(nanos: u128) -> f64 {
    nanos as f64 / 1e9
}

/// Scores a raw [`LinkOutcome`] against ground truth.
pub fn score(
    name: &str,
    outcome: &LinkOutcome,
    ground_truth: &HashSet<(u64, u64)>,
    cross_size: u128,
) -> MethodResult {
    let quality = evaluate(
        &outcome.matches,
        ground_truth,
        outcome.candidates,
        cross_size,
    );
    MethodResult {
        name: name.to_string(),
        quality,
        embed_secs: secs(outcome.embed_nanos),
        block_secs: secs(outcome.block_nanos),
        match_secs: secs(outcome.match_nanos),
        total_secs: secs(outcome.total_nanos()),
    }
}

/// Runs a linker over a pair and scores it.
pub fn run_linker<L: Linker>(linker: &mut L, pair: &DatasetPair) -> MethodResult {
    let outcome = linker.link(&pair.a, &pair.b);
    score(
        linker.name(),
        &outcome,
        &pair.ground_truth,
        pair.cross_size(),
    )
}

/// Averages several trials of the same method.
pub fn average(results: &[MethodResult]) -> MethodResult {
    assert!(!results.is_empty(), "need at least one trial");
    let n = results.len() as f64;
    let mut pc = 0.0;
    let mut pq = 0.0;
    let mut rr = 0.0;
    let mut found = 0u64;
    let mut truth = 0u64;
    let mut cand = 0u64;
    let mut ident = 0u64;
    let (mut e, mut bl, mut m, mut t) = (0.0, 0.0, 0.0, 0.0);
    for r in results {
        pc += r.quality.pc;
        pq += r.quality.pq;
        rr += r.quality.rr;
        found += r.quality.true_matches_found;
        truth += r.quality.ground_truth_size;
        cand += r.quality.candidates;
        ident += r.quality.identified_unique;
        e += r.embed_secs;
        bl += r.block_secs;
        m += r.match_secs;
        t += r.total_secs;
    }
    MethodResult {
        name: results[0].name.clone(),
        quality: LinkageQuality {
            pc: pc / n,
            pq: pq / n,
            rr: rr / n,
            true_matches_found: found / results.len() as u64,
            ground_truth_size: truth / results.len() as u64,
            candidates: cand / results.len() as u64,
            identified_unique: ident / results.len() as u64,
        },
        embed_secs: e / n,
        block_secs: bl / n,
        match_secs: m / n,
        total_secs: t / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_hb::metrics::LinkageQuality;

    fn result(name: &str, pc: f64, total: f64) -> MethodResult {
        MethodResult {
            name: name.into(),
            quality: LinkageQuality {
                pc,
                pq: 0.5,
                rr: 0.9,
                true_matches_found: 10,
                ground_truth_size: 20,
                candidates: 40,
                identified_unique: 12,
            },
            embed_secs: 0.1,
            block_secs: 0.2,
            match_secs: 0.3,
            total_secs: total,
        }
    }

    #[test]
    fn average_of_two() {
        let avg = average(&[result("x", 0.9, 1.0), result("x", 0.7, 3.0)]);
        assert!((avg.quality.pc - 0.8).abs() < 1e-12);
        assert!((avg.total_secs - 2.0).abs() < 1e-12);
        assert_eq!(avg.name, "x");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn average_of_none_panics() {
        let _ = average(&[]);
    }
}
