//! BfH (Karapiperis & Verykios, TKDE 2015) — Hamming LSH blocking over
//! field-level Bloom filters, as configured in Section 6.1.
//!
//! Each field becomes a 500-bit Bloom filter (15 hash functions per
//! bigram); the record-level filter is their concatenation. Blocking is the
//! standard record-level HB with `K = 30` and `δ = 0.1`; `L` follows
//! Equation 2 from the record-level threshold (the sum of the per-field
//! thresholds). The per-field thresholds (45 per name field, 90 for the
//! heavy-perturbed field) are applied **only during the matching step**, as
//! the paper notes.
//!
//! The filters are fixed-width bit vectors, so a record is one row of the
//! concatenated filter ([`RowLayout::push_row`]) and BfH blocks and matches
//! through the engine: a record-level [`BlockingPlan`] over that
//! [`RowLayout`] ([`BfhLinker::plan`]), a [`RecordSlab`] of A's rows
//! ([`index_row`]), and [`match_batch`] classifying B's candidates by the
//! per-field thresholds.

use crate::bloom::BloomEncoder;
use crate::common::{LinkOutcome, Linker};
use cbv_hb::blocking::{BlockingPlan, ProbeScratch, TableCount};
use cbv_hb::matcher::{index_row, match_batch, Classifier, MatchStats, RecordSlab};
use cbv_hb::schema::RowLayout;
use cbv_hb::{Record, Rule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl_bitvec::BitVec;
use std::time::Instant;
use textdist::Alphabet;

/// Configuration and state of a BfH run.
#[derive(Debug, Clone)]
pub struct BfhLinker {
    /// Bloom filter width per field (paper: 500).
    pub field_bits: usize,
    /// Hash functions per bigram (paper: 15).
    pub num_hashes: usize,
    /// Base bit-samples per composite key (paper: K = 30).
    pub k: u32,
    /// Failure budget δ (paper: 0.1).
    pub delta: f64,
    /// Record-level Hamming threshold used only for the `L` computation.
    pub block_theta: u32,
    /// Per-field Hamming thresholds for the matching step.
    ///
    /// Calibration note: the paper states `θ_PL = 45`, yet its own example
    /// measures a *single* error at ≈ 54 bits (`JOHN`/`JAHN`), under which
    /// θ = 45 would reject most true matches — inconsistent with the high
    /// BfH accuracy of Figure 9. We calibrate to 70 per light-perturbed
    /// field (a substitute flips ≤ 4 bigrams ≤ 60 bits) and 140 for the
    /// doubly-perturbed field, preserving the intended behaviour.
    pub thetas: Vec<u32>,
    /// RNG seed.
    pub seed: u64,
}

impl BfhLinker {
    /// The PL configuration: one error somewhere in the record, so the
    /// blocking threshold covers one error (≈ 60 bits) and every field's
    /// matching threshold admits one error.
    pub fn paper_pl(num_fields: usize, seed: u64) -> Self {
        Self {
            field_bits: 500,
            num_hashes: 15,
            k: 30,
            delta: 0.1,
            block_theta: 60,
            thetas: vec![70; num_fields],
            seed,
        }
    }

    /// The PH configuration: four errors across the first three fields
    /// (≈ 220 bits record-level), with the doubly-perturbed third field at
    /// twice the per-field budget.
    pub fn paper_ph(num_fields: usize, seed: u64) -> Self {
        let mut thetas = vec![70; num_fields];
        if num_fields > 2 {
            thetas[2] = 140;
        }
        Self {
            field_bits: 500,
            num_hashes: 15,
            k: 30,
            delta: 0.1,
            block_theta: 220,
            thetas,
            seed,
        }
    }

    /// One `field_bits`-bit filter per field, concatenated: the
    /// record-level filter BfH blocks on.
    fn layout(&self) -> RowLayout {
        RowLayout::from_widths(vec![self.field_bits; self.thetas.len()])
    }

    /// The record-level plan BfH blocks with: keys of `K` bits sampled from
    /// the concatenated filter, `L` from Equation 2 for `block_theta` and δ.
    ///
    /// # Panics
    /// Panics if the configuration admits no plan (`block_theta` beyond the
    /// concatenated width, `K` beyond 128).
    pub fn plan<R: Rng + ?Sized>(&self, rng: &mut R) -> BlockingPlan {
        let tables = TableCount::Equation2 {
            delta: self.delta,
            flips: 0,
        };
        BlockingPlan::record_level_over(&self.layout(), self.block_theta, self.k, tables, rng)
            .expect("BfH presets admit a record-level plan")
    }
}

impl Linker for BfhLinker {
    fn name(&self) -> &'static str {
        "BfH"
    }

    fn link(&mut self, a: &[Record], b: &[Record]) -> LinkOutcome {
        let num_fields = self.thetas.len();
        assert!(
            a.iter().chain(b).all(|r| r.fields.len() == num_fields),
            "records must have {num_fields} fields"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let alphabet = Alphabet::linkage();
        let encoders: Vec<BloomEncoder> = (0..num_fields)
            .map(|_| {
                BloomEncoder::random(
                    alphabet.clone(),
                    2,
                    self.field_bits,
                    self.num_hashes,
                    &mut rng,
                )
            })
            .collect();
        let mut out = LinkOutcome::default();
        let layout = self.layout();
        let w = layout.words();

        let t0 = Instant::now();
        let rows_a = rows(&encoders, &layout, a);
        let rows_b = rows(&encoders, &layout, b);
        out.embed_nanos = t0.elapsed().as_nanos();

        // Record-level HB over the concatenated filter; A is indexed under
        // record positions, so ids may repeat.
        let t1 = Instant::now();
        let mut plan = self.plan(&mut rng);
        let mut slab = RecordSlab::new(layout);
        for (pos, row) in rows_a.chunks_exact(w).enumerate() {
            index_row(&mut plan, &mut slab, pos as u64, row)
                .expect("A fits a record store (2^32 - 1 records)");
        }
        out.block_nanos = t1.elapsed().as_nanos();

        // The per-field thresholds apply only here, in the matching step.
        let t2 = Instant::now();
        let preds = self
            .thetas
            .iter()
            .enumerate()
            .map(|(i, &t)| Rule::pred(i, t));
        let probes = rows_b
            .chunks_exact(w)
            .enumerate()
            .map(|(pos, row)| (pos as u64, row));
        let (mut pairs, mut stats) = (Vec::new(), MatchStats::default());
        match_batch(
            &plan,
            &slab,
            probes,
            &Classifier::Rule(Rule::and(preds)),
            &mut ProbeScratch::default(),
            &mut stats,
            &mut pairs,
        );
        out.candidates = stats.candidates;
        out.matches = pairs
            .into_iter()
            .map(|(pa, pb)| (a[pa as usize].id, b[pb as usize].id))
            .collect();
        out.match_nanos = t2.elapsed().as_nanos();
        out
    }
}

/// The records' field filters, each record's concatenated into one row.
fn rows(encoders: &[BloomEncoder], layout: &RowLayout, records: &[Record]) -> Vec<u64> {
    let mut rows = Vec::with_capacity(records.len() * layout.words());
    for rec in records {
        let filters: Vec<BitVec> = encoders
            .iter()
            .zip(&rec.fields)
            .map(|(e, v)| e.encode(v))
            .collect();
        layout
            .push_row(&filters, &mut rows)
            .expect("a filter has the field width");
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, f: [&str; 4]) -> Record {
        Record::new(id, f)
    }

    #[test]
    fn each_preset_blocks_with_the_l_of_equation_2() {
        use rl_lsh::params::{base_success_probability, optimal_l};
        // The plan `link` builds, over 4 × 500 filter bits at K = 30, δ = 0.1.
        for (preset, l) in [
            (BfhLinker::paper_pl(4, 1), 5),
            (BfhLinker::paper_ph(4, 1), 75),
        ] {
            let p = base_success_probability(preset.block_theta, 4 * preset.field_bits);
            let equation_2 = optimal_l(p.powi(preset.k as i32), preset.delta);
            let plan = preset.plan(&mut StdRng::seed_from_u64(0));
            assert_eq!(
                plan.total_tables(),
                equation_2,
                "θ = {}",
                preset.block_theta
            );
            assert_eq!(equation_2, l);
        }
    }

    #[test]
    fn finds_identical_and_perturbed() {
        let mut l = BfhLinker::paper_pl(4, 1);
        let a = vec![
            rec(1, ["JOHN", "SMITH", "12 OAK STREET", "DURHAM"]),
            rec(2, ["MARY", "JONES", "4 ELM AVENUE", "RALEIGH"]),
        ];
        let b = vec![
            rec(10, ["JOHN", "SMYTH", "12 OAK STREET", "DURHAM"]),
            rec(11, ["AGNES", "WINTERBOTTOM", "900 PINE COURT", "BOONE"]),
        ];
        let out = l.link(&a, &b);
        assert_eq!(out.matches, vec![(1, 10)]);
        assert!(out.candidates >= 1);
    }

    #[test]
    fn per_field_thresholds_reject_heavy_errors_under_pl() {
        let mut l = BfhLinker::paper_pl(4, 2);
        let a = vec![rec(1, ["JOHN", "SMITH", "12 OAK STREET", "DURHAM"])];
        // Five errors in the last name blow well past θ = 45 bits.
        let b = vec![rec(10, ["JOHN", "BRAXW", "12 OAK STREET", "DURHAM"])];
        let out = l.link(&a, &b);
        assert!(out.matches.is_empty());
    }

    #[test]
    fn ph_config_has_looser_third_field() {
        let l = BfhLinker::paper_ph(4, 3);
        assert_eq!(l.thetas, vec![70, 70, 140, 70]);
        assert!(l.block_theta > BfhLinker::paper_pl(4, 3).block_theta);
    }

    #[test]
    fn timings_populate() {
        let mut l = BfhLinker::paper_pl(4, 4);
        let a = vec![rec(1, ["JOHN", "SMITH", "12 OAK STREET", "DURHAM"])];
        let b = vec![rec(10, ["JOHN", "SMITH", "12 OAK STREET", "DURHAM"])];
        let out = l.link(&a, &b);
        assert!(out.embed_nanos > 0 && out.block_nanos > 0);
        assert_eq!(out.matches.len(), 1);
    }
}
