//! The four workloads: what each one runs, at what size, and the seeded
//! data they draw from. README.md has the table with the reason for each.

use cbv_hb::pipeline::LinkageConfig;
use cbv_hb::{AttributeSpec, Record, RecordSchema, Rule};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rl_datagen::{DatasetPair, NcvrSource, PairConfig, PerturbationScheme, RecordSource};
use std::collections::HashMap;
use textdist::Alphabet;

/// Which blocking configuration a workload links under.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Blocking {
    /// Record-level HB, θ = 4, K = 30, δ = 0.1 (L = 6): the paper's §6 setting.
    RecordLevel,
    /// Rule-aware blocking compiled from C1 (L = 244).
    RuleAware,
    /// CoveringLSH record-level blocking, θ = 4 (L = 31).
    Covering,
}

/// Where the program under test runs in the untraced run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// `LinkagePipeline`, in this process (`batch.rs`).
    InProcess,
    /// A durable child server over loopback (`durable.rs`).
    DurableServer,
}

/// Record-level Hamming radius of the record-level and covering modes.
pub const THETA: u32 = 4;

/// Configuration and sizes of one workload.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub blocking: Blocking,
    pub scheme: PerturbationScheme,
    pub stage: Stage,
    /// |A| = |B| generated; the untraced run indexes all of A.
    pub records: usize,
    /// Records per timed index slice: one `LinkagePipeline::index` call, or
    /// a fenced run of 500-record insert requests.
    pub index_slice: usize,
    /// Probe records of the throughput phase, and records per timed slice.
    pub link_probes: usize,
    pub link_slice: usize,
    /// Probe records answered once, untimed, for `pairs_completeness` and
    /// the oracle check; the throughput phase's probes are a prefix of them.
    pub quality_probes: usize,
    /// Single-record probes of the latency phase.
    pub latency_probes: usize,
    /// Traced run: prefix of A bulk-loaded into the read-only server.
    pub serve_records: usize,
    /// Traced run: prefix of A bulk-loaded (durably) into the mixed server.
    pub mixed_records: usize,
    /// Traced run: open-loop arrival rate, requests per second. The two
    /// diagnostic rates are half and double this.
    pub open_rate: u32,
    /// Traced run: probes replayed layer by layer.
    pub trace_probes: usize,
}

pub const WORKLOADS: [&str; 4] = ["batch_pl", "batch_rule", "batch_covering", "serve_durable"];

impl Spec {
    /// The named workload at full size, or at a tenth of it under `--lite`.
    pub fn named(name: &str, lite: bool) -> Option<Self> {
        use Blocking::*;
        use PerturbationScheme::{Heavy, Light};
        let mut s = match name {
            "batch_pl" => Spec {
                name: "batch_pl",
                blocking: RecordLevel,
                scheme: Light,
                stage: Stage::InProcess,
                records: 100_000,
                index_slice: 250,
                link_probes: 5_000,
                link_slice: 250,
                quality_probes: 30_000,
                latency_probes: 1_000,
                serve_records: 50_000,
                mixed_records: 20_000,
                open_rate: 4_000,
                trace_probes: 20_000,
            },
            "batch_rule" => Spec {
                name: "batch_rule",
                blocking: RuleAware,
                scheme: Heavy,
                stage: Stage::InProcess,
                records: 8_000,
                index_slice: 10,
                link_probes: 300,
                link_slice: 5,
                quality_probes: 1_500,
                latency_probes: 300,
                serve_records: 4_000,
                mixed_records: 2_000,
                open_rate: 1_000,
                trace_probes: 2_000,
            },
            "batch_covering" => Spec {
                name: "batch_covering",
                blocking: Covering,
                scheme: Light,
                stage: Stage::InProcess,
                records: 40_000,
                index_slice: 100,
                link_probes: 5_000,
                link_slice: 125,
                quality_probes: 40_000,
                latency_probes: 1_000,
                serve_records: 20_000,
                mixed_records: 8_000,
                open_rate: 4_000,
                trace_probes: 20_000,
            },
            "serve_durable" => Spec {
                name: "serve_durable",
                blocking: RecordLevel,
                scheme: Light,
                stage: Stage::DurableServer,
                records: 50_000,
                index_slice: 500,
                // 24 pipelined calls of 32 requests × 16 records.
                link_probes: 12_288,
                link_slice: 512,
                quality_probes: 24_576,
                latency_probes: 1_000,
                serve_records: 50_000,
                mixed_records: 50_000,
                open_rate: 4_000,
                trace_probes: 20_000,
            },
            _ => return None,
        };
        if lite {
            for n in [
                &mut s.records,
                &mut s.quality_probes,
                &mut s.latency_probes,
                &mut s.serve_records,
                &mut s.mixed_records,
                &mut s.trace_probes,
            ] {
                *n = (*n / 10).max(1);
            }
        }
        Some(s)
    }

    /// The classification rule C1 = f0 ≤ 4 ∧ f1 ≤ 4 ∧ f2 ≤ 8.
    pub fn rule() -> Rule {
        Rule::and([Rule::pred(0, 4), Rule::pred(1, 4), Rule::pred(2, 8)])
    }

    pub fn config(&self) -> LinkageConfig {
        match self.blocking {
            Blocking::RecordLevel => LinkageConfig::record_level(Self::rule(), THETA, 30),
            Blocking::RuleAware => LinkageConfig::rule_aware(Self::rule()),
            Blocking::Covering => LinkageConfig::covering(Self::rule(), THETA),
        }
    }
}

/// Everything generated from the seed before the first measured phase.
pub struct Data {
    /// Data set A, ids `0..records`; stages index prefixes of it.
    pub a: Vec<Record>,
    /// Data set B in a seeded shuffle, so any prefix mixes perturbed copies
    /// of A-records with fresh non-matching records half and half.
    pub probes: Vec<Record>,
    /// Ground truth: for each B-record that is a perturbed copy, the id of
    /// the A-record it was copied from.
    pub partner: HashMap<u64, u64>,
    pub schema: RecordSchema,
}

/// Seed of the RNG the blocking plan is drawn from. The pipeline, the
/// child servers and the traced replay all seed from it, which is what
/// makes their hash functions — and so their results — identical.
///
/// It does not depend on `--seed`, and neither does [`SCHEMA_SEED`]: the
/// hash functions are configuration of the program under test, drawn once
/// per deployment, while `--seed` varies the records it is given. An
/// unlucky draw of 30 sampled bits changes candidates per probe — and so
/// link throughput — by a factor of three, which would drown every
/// run-to-run comparison across seeds.
pub const PLAN_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Seed of the reference sample the schema is fitted on and of the c-vector
/// hash coefficients `RecordSchema::build` draws.
pub const SCHEMA_SEED: u64 = 0x2545_f491_4f6c_dd1d;

impl Data {
    /// Generates the NCVR-like pair from `seed`, and fits the schema the way
    /// `experiments.rs::fitted_schema` does (q = 2, unpadded, ρ = 1,
    /// r = 1/3, K = 5/5/10/10) — on a reference sample drawn from
    /// [`SCHEMA_SEED`], not on the seeded records: fitted on those, an
    /// attribute's width moves by a bit from seed to seed, and with it the
    /// matches per probe by half.
    pub fn generate(spec: &Spec, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = PairConfig::new(spec.records, spec.scheme).with_duplicates(0.1);
        let pair = DatasetPair::generate(&NcvrSource, cfg, &mut rng);
        let mut schema_rng = StdRng::seed_from_u64(SCHEMA_SEED);
        let sample = NcvrSource.sample_many(5_000, &mut schema_rng);
        let ks = [5u32, 5, 10, 10];
        let specs: Vec<AttributeSpec> = (0..4)
            .map(|f| {
                let values = sample.iter().map(|r| r.field(f));
                AttributeSpec::fitted(format!("f{f}"), 2, values, 1.0, 1.0 / 3.0, false, ks[f])
            })
            .collect();
        let schema = RecordSchema::build(Alphabet::linkage(), specs, &mut schema_rng);
        let mut probes = pair.b;
        for i in (1..probes.len()).rev() {
            probes.swap(i, rng.random_range(0..=i));
        }
        Data {
            a: pair.a,
            probes,
            partner: pair.ground_truth.iter().map(|&(a, b)| (b, a)).collect(),
            schema,
        }
    }
}
