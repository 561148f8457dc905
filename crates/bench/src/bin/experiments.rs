//! Experiment harness: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments <subcommand> [--records N] [--trials T] [--seed S] [--out DIR]
//!
//! subcommands:
//!   table3       attribute statistics b, m_opt, K (Table 3)
//!   fig6         rule-aware vs standard blocking: PC/PQ for C1, C2, C3
//!   fig7         PC versus confidence ratio r (K = 35)
//!   fig8a        running time versus K (PL and PH)
//!   fig8b        embedding time per method
//!   fig9         Pairs Completeness per method (also emits fig10/fig12 data;
//!                fig10 is an alias)
//!   fig11        PC per perturbation operation (PL and PH)
//!   fig12        RR/PC and total running time per method
//!   missing      extension: PC under missing values (rule-aware OR helps)
//!   guarantee    extension: measured PC against the 1 − δ guarantee
//!   rho          extension: sensitivity to the collision tolerance ρ
//!   jw           extension: compact Hamming vs Jaro–Winkler on names
//!   privacy      extension: keyed embeddings and dictionary attacks
//!   kopt         extension: predicted optimal K from a cost model
//!   scale        extension: records sweep, sequential vs parallel
//!   multiprobe   extension: flipped-key probing vs more tables
//!   traditional  extension: sorted neighbourhood and canopy vs cBV-HB
//!   qsweep       extension: bigrams vs trigrams
//!   nonstd       extension: abbreviated addresses under two rules
//!   covering     extension: CoveringLSH vs random sampling at matched L
//!   ablations    design ablations: position table vs g per q-gram,
//!                allocation order vs a shuffled batch, popcount vs per-bit
//!                vs edit distance, Algorithm 2's unique collection on/off,
//!                q-gram sparsity (exits non-zero unless its exact counts
//!                hold and every embed agrees)
//!   all          everything above
//! ```

use cbv_hb::{
    cvector::optimal_m, metrics::evaluate, AttributeSpec, LinkageConfig, LinkagePipeline, Record,
    RecordSchema, Rule,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_baselines::{BfhLinker, CbvHbLinker, HarraLinker, SmEbLinker};
use rl_bench::report::{f3, secs, write_json, Table};
use rl_bench::runner::{average, run_linker, MethodResult};
use rl_datagen::perturb::apply_op;
use rl_datagen::{
    DatasetPair, DblpSource, NcvrSource, Op, PairConfig, PerturbationScheme, RecordSource,
};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::time::Instant;
use textdist::Alphabet;

#[derive(Debug, Clone)]
struct Opts {
    records: usize,
    trials: u64,
    seed: u64,
    out: PathBuf,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("usage: experiments <table3|fig6|fig7|fig8a|fig8b|fig9|fig11|fig12|missing|guarantee|rho|jw|privacy|kopt|scale|multiprobe|traditional|qsweep|nonstd|covering|ablations|all> [--records N] [--trials T] [--seed S] [--out DIR]");
        std::process::exit(2);
    };
    let mut opts = Opts {
        records: 5_000,
        trials: 3,
        seed: 42,
        out: PathBuf::from("."),
    };
    let rest: Vec<String> = args.collect();
    let mut i = 0;
    while i < rest.len() {
        let need = |i: usize| {
            rest.get(i + 1)
                .unwrap_or_else(|| panic!("missing value for {}", rest[i]))
        };
        match rest[i].as_str() {
            "--records" => opts.records = need(i).parse().expect("--records N"),
            "--trials" => opts.trials = need(i).parse().expect("--trials T"),
            "--seed" => opts.seed = need(i).parse().expect("--seed S"),
            "--out" => opts.out = PathBuf::from(need(i)),
            other => panic!("unknown flag {other}"),
        }
        i += 2;
    }
    match cmd.as_str() {
        "table3" => table3(&opts),
        "fig6" => fig6(&opts),
        "fig7" => fig7(&opts),
        "fig8a" => fig8a(&opts),
        "fig8b" => fig8b(&opts),
        "fig9" | "fig10" => compare(&opts),
        "fig11" => fig11(&opts),
        "fig12" => compare(&opts),
        "missing" => missing(&opts),
        "guarantee" => guarantee(&opts),
        "rho" => rho_sweep(&opts),
        "jw" => jw_study(&opts),
        "privacy" => privacy(&opts),
        "kopt" => kopt(&opts),
        "scale" => scale(&opts),
        "multiprobe" => multiprobe(&opts),
        "traditional" => traditional(&opts),
        "qsweep" => qsweep(&opts),
        "nonstd" => nonstd(&opts),
        "covering" => covering(&opts),
        "ablations" => ablations(&opts),
        "all" => {
            table3(&opts);
            fig6(&opts);
            fig7(&opts);
            fig8a(&opts);
            fig8b(&opts);
            compare(&opts);
            fig11(&opts);
            missing(&opts);
            guarantee(&opts);
            rho_sweep(&opts);
            jw_study(&opts);
            privacy(&opts);
            kopt(&opts);
            scale(&opts);
            multiprobe(&opts);
            traditional(&opts);
            qsweep(&opts);
            nonstd(&opts);
            covering(&opts);
            ablations(&opts);
        }
        other => {
            eprintln!("unknown subcommand {other}");
            std::process::exit(2);
        }
    }
}

// ---------------------------------------------------------------- helpers

/// Table 3's per-attribute K values.
fn paper_ks() -> Vec<u32> {
    vec![5, 5, 10, 10]
}

/// Fits the paper-style schema (ρ = 1, r = 1/3, unpadded bigrams) on a pair.
fn fitted_schema(pair: &DatasetPair, ks: &[u32], r: f64, rng: &mut StdRng) -> RecordSchema {
    let specs: Vec<AttributeSpec> = (0..4)
        .map(|f| {
            let sample = pair.a.iter().chain(&pair.b).take(5_000).map(|x| x.field(f));
            AttributeSpec::fitted(format!("f{f}"), 2, sample, 1.0, r, false, ks[f])
        })
        .collect();
    RecordSchema::build(Alphabet::linkage(), specs, rng)
}

/// Within-set near-duplicate rate used across experiments: voter-roll-like
/// data contains near-identical records that are not cross-set matches.
const DUP_RATE: f64 = 0.1;

fn ncvr_pair(records: usize, scheme: PerturbationScheme, seed: u64) -> DatasetPair {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = PairConfig::new(records, scheme).with_duplicates(DUP_RATE);
    DatasetPair::generate(&NcvrSource, cfg, &mut rng)
}

fn dblp_pair(records: usize, scheme: PerturbationScheme, seed: u64) -> DatasetPair {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = PairConfig::new(records, scheme).with_duplicates(DUP_RATE);
    DatasetPair::generate(&DblpSource, cfg, &mut rng)
}

/// Runs a core pipeline over a pair and scores it against `truth`.
fn run_pipeline(
    schema: RecordSchema,
    config: LinkageConfig,
    pair: &DatasetPair,
    truth: &HashSet<(u64, u64)>,
    rng: &mut StdRng,
) -> (MethodResult, f64) {
    let t0 = Instant::now();
    let mut p = LinkagePipeline::new(schema, config, rng).expect("valid config");
    p.index(&pair.a).expect("well-formed records");
    let r = p.link(&pair.b).expect("well-formed records");
    let total = t0.elapsed().as_secs_f64();
    let quality = evaluate(&r.matches, truth, r.stats.candidates, pair.cross_size());
    (
        MethodResult {
            name: "cBV-HB".into(),
            quality,
            embed_secs: (p.index_timings().embed_nanos + r.timings.embed_nanos) as f64 / 1e9,
            block_secs: p.index_timings().block_nanos as f64 / 1e9,
            match_secs: r.timings.match_nanos as f64 / 1e9,
            total_secs: total,
        },
        total,
    )
}

// ---------------------------------------------------------------- table 3

fn table3(opts: &Opts) {
    println!("\n## Table 3 — attribute-level parameters (ρ = 1, r = 1/3)");
    let mut out_rows = Vec::new();
    let mut t = Table::new(
        "Table 3 reproduction",
        [
            "source",
            "attribute",
            "b (measured)",
            "m_opt",
            "K",
            "b (paper)",
            "m_opt (paper)",
        ],
    );
    let paper = [
        (
            "NCVR",
            ["FirstName", "LastName", "Address", "Town"],
            [5.1, 5.0, 20.0, 7.2],
            [15usize, 15, 68, 22],
        ),
        (
            "DBLP",
            ["FirstName", "LastName", "Title", "Year"],
            [4.8, 6.2, 64.8, 3.0],
            [14, 19, 226, 8],
        ),
    ];
    for (src, names, b_paper, m_paper) in paper {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let records: Vec<Record> = if src == "NCVR" {
            NcvrSource.sample_many(opts.records.max(2_000), &mut rng)
        } else {
            DblpSource.sample_many(opts.records.max(2_000), &mut rng)
        };
        let mut total_m = 0usize;
        for f in 0..4 {
            let b = cbv_hb::schema::measure_b(records.iter().map(|r| r.field(f)), 2, false);
            let m = optimal_m(b, 1.0, 1.0 / 3.0);
            total_m += m;
            let k = paper_ks()[f];
            t.row([
                src.to_string(),
                names[f].to_string(),
                format!("{b:.1}"),
                m.to_string(),
                k.to_string(),
                format!("{:.1}", b_paper[f]),
                m_paper[f].to_string(),
            ]);
            out_rows.push(serde_json::json!({
                "source": src, "attribute": names[f], "b": b, "m_opt": m,
                "b_paper": b_paper[f], "m_opt_paper": m_paper[f],
            }));
        }
        t.row([
            src.to_string(),
            "TOTAL".into(),
            String::new(),
            total_m.to_string(),
            String::new(),
            String::new(),
            if src == "NCVR" {
                "120".into()
            } else {
                "267".to_string()
            },
        ]);
    }
    t.print();
    write_json(&opts.out, "table3", &out_rows);
}

// ---------------------------------------------------------------- figure 6

/// The three experimental rules of Section 6.2 over thresholds
/// θ⁰ = θ¹ = 4, θ² = 8.
fn rule_c1() -> Rule {
    Rule::and([Rule::pred(0, 4), Rule::pred(1, 4), Rule::pred(2, 8)])
}
fn rule_c2() -> Rule {
    Rule::or([
        Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]),
        Rule::pred(2, 8),
    ])
}
fn rule_c3() -> Rule {
    Rule::and([Rule::pred(0, 4), Rule::not(Rule::pred(1, 4))])
}

/// Perturbs A-records so the resulting pairs satisfy C3: one light error on
/// f0 and a *replaced* last name (a different corpus surname, far beyond
/// θ¹ = 4 — the married-name tracing scenario NOT rules model).
fn c3_pair(records: usize, seed: u64) -> DatasetPair {
    use rand::RngExt;
    let mut pair = ncvr_pair(records, PerturbationScheme::SingleOp(Op::Substitute), seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC3);
    let a_by_id: HashMap<u64, Record> = pair.a.iter().map(|r| (r.id, r.clone())).collect();
    let mut gt: Vec<(u64, u64)> = pair.ground_truth.iter().copied().collect();
    gt.sort_unstable(); // HashSet order varies per process; keep rng stream stable
    let surnames = rl_datagen::corpus::LAST_NAMES;
    for (ia, ib) in gt {
        let src = &a_by_id[&ia];
        let mut fields = src.fields.clone();
        let (v0, _) = apply_op(&fields[0], Op::Substitute, &mut rng);
        fields[0] = v0;
        fields[1] = loop {
            let cand = surnames[rng.random_range(0..surnames.len())];
            if cand != src.field(1) {
                break cand.to_string();
            }
        };
        let slot = pair.b.iter_mut().find(|r| r.id == ib).expect("b record");
        slot.fields = fields;
    }
    pair
}

fn fig6(opts: &Opts) {
    println!("\n## Figure 6 — attribute-level (rule-aware) vs standard LSH blocking");
    let mut t = Table::new(
        "Figure 6 reproduction (NCVR)",
        ["rule", "approach", "PC", "PQ"],
    );
    let mut json = Vec::new();
    for (name, rule, make_pair) in [
        ("C1", rule_c1(), ncvr_heavy as fn(usize, u64) -> DatasetPair),
        ("C2", rule_c2(), ncvr_heavy),
        ("C3", rule_c3(), c3_pair),
    ] {
        let mut attr_results = Vec::new();
        let mut std_results = Vec::new();
        for trial in 0..opts.trials {
            let seed = opts.seed + trial;
            let pair = make_pair(opts.records, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF16);
            let schema = fitted_schema(&pair, &paper_ks(), 1.0 / 3.0, &mut rng);
            // Ground truth: origin pairs that satisfy the rule on the shared
            // embedding (both approaches classify with this same rule).
            let truth = rule_truth(&schema, &pair, &rule);
            let (attr, _) = run_pipeline(
                schema.clone(),
                LinkageConfig::rule_aware(rule.clone()),
                &pair,
                &truth,
                &mut rng,
            );
            // Standard approach: record-level sampling; θ = sum of the
            // positive predicates' thresholds (the rule-unaware budget).
            let theta: u32 = positive_theta_sum(&rule);
            let (std_r, _) = run_pipeline(
                schema,
                LinkageConfig::record_level(rule.clone(), theta, 30),
                &pair,
                &truth,
                &mut rng,
            );
            attr_results.push(attr);
            std_results.push(std_r);
        }
        let attr = average(&attr_results);
        let std_r = average(&std_results);
        for (approach, r) in [("attribute-level", &attr), ("standard", &std_r)] {
            t.row([
                name.to_string(),
                approach.to_string(),
                f3(r.quality.pc),
                f3(r.quality.pq),
            ]);
            json.push(serde_json::json!({
                "rule": name, "approach": approach,
                "pc": r.quality.pc, "pq": r.quality.pq,
            }));
        }
    }
    t.print();
    write_json(&opts.out, "fig6", &json);
}

fn ncvr_heavy(records: usize, seed: u64) -> DatasetPair {
    ncvr_pair(records, PerturbationScheme::Heavy, seed)
}

/// Origin pairs that satisfy `rule` on their embedded distances.
fn rule_truth(schema: &RecordSchema, pair: &DatasetPair, rule: &Rule) -> HashSet<(u64, u64)> {
    let a_by_id: HashMap<u64, &Record> = pair.a.iter().map(|r| (r.id, r)).collect();
    let b_by_id: HashMap<u64, &Record> = pair.b.iter().map(|r| (r.id, r)).collect();
    pair.ground_truth
        .iter()
        .filter(|(ia, ib)| {
            let ea = schema.embed(a_by_id[ia]).expect("well-formed");
            let eb = schema.embed(b_by_id[ib]).expect("well-formed");
            rule.evaluate(&ea.distances(&eb))
        })
        .copied()
        .collect()
}

fn positive_theta_sum(rule: &Rule) -> u32 {
    match rule {
        Rule::Pred(p) => p.theta,
        Rule::And(rs) | Rule::Or(rs) => rs
            .iter()
            .filter(|r| !matches!(r, Rule::Not(_)))
            .map(positive_theta_sum)
            .sum(),
        Rule::Not(_) => 0,
    }
}

// ---------------------------------------------------------------- figure 7

fn fig7(opts: &Opts) {
    println!("\n## Figure 7 — PC versus confidence ratio r (K = 35, fixed L)");
    // Equation 2 would re-derive L for every r and flatten the curve; the
    // figure's point is the embedding geometry, so L is pinned at the
    // r = 1/3 design point and K = 35 as in the paper.
    let k = 35u32;
    let theta = 4u32;
    let l_design = {
        let pair = ncvr_pair(opts.records, PerturbationScheme::Light, opts.seed);
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let schema = fitted_schema(&pair, &paper_ks(), 1.0 / 3.0, &mut rng);
        let p = rl_lsh::params::base_success_probability(theta, schema.total_size());
        rl_lsh::params::optimal_l(p.powi(k as i32), 0.1)
    };
    let mut t = Table::new(
        "Figure 7 reproduction (NCVR, PL, record-level HB)",
        ["r", "m̄_opt", "PC"],
    );
    let mut json = Vec::new();
    for r_val in [0.5, 0.4, 1.0 / 3.0, 0.25, 0.2] {
        let mut results = Vec::new();
        let mut mbar = 0usize;
        for trial in 0..opts.trials {
            let seed = opts.seed + trial;
            let pair = ncvr_pair(opts.records, PerturbationScheme::Light, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF17);
            let schema = fitted_schema(&pair, &paper_ks(), r_val, &mut rng);
            mbar = schema.total_size();
            let rule = Rule::and((0..4).map(|i| Rule::pred(i, theta)));
            let config = LinkageConfig {
                delta: 0.1,
                mode: cbv_hb::pipeline::BlockingMode::RecordLevelFixedL {
                    theta,
                    k,
                    l: l_design,
                },
                rule,
                block: Default::default(),
            };
            let (res, _) =
                run_pipeline(schema, config, &pair, &pair.ground_truth.clone(), &mut rng);
            results.push(res);
        }
        let avg = average(&results);
        t.row([format!("{r_val:.3}"), mbar.to_string(), f3(avg.quality.pc)]);
        json.push(serde_json::json!({
            "r": r_val, "m_bar": mbar, "pc": avg.quality.pc, "l": l_design, "k": k,
        }));
    }
    t.print();
    write_json(&opts.out, "fig7", &json);
}

// ---------------------------------------------------------------- figure 8

fn fig8a(opts: &Opts) {
    println!("\n## Figure 8(a) — running time versus K");
    let mut t = Table::new(
        "Figure 8(a) reproduction (NCVR)",
        ["K", "scheme", "L", "total time", "PC"],
    );
    let mut json = Vec::new();
    // Small K exposes bucket over-population (few, crowded buckets); large
    // K grows L via Equation 2. The U-shape's left branch only materializes
    // once buckets hold many records, i.e. at larger --records.
    for k in [5u32, 10, 15, 20, 25, 30, 35, 40] {
        for (scheme_name, scheme, theta) in [
            ("PL", PerturbationScheme::Light, 4u32),
            ("PH", PerturbationScheme::Heavy, 16),
        ] {
            if scheme_name == "PH" && k > 35 {
                continue; // L explodes past a thousand tables
            }
            let mut results = Vec::new();
            let mut l_used = 0usize;
            for trial in 0..opts.trials {
                let seed = opts.seed + trial;
                let pair = ncvr_pair(opts.records, scheme, seed);
                let mut rng = StdRng::seed_from_u64(seed ^ u64::from(k));
                let schema = fitted_schema(&pair, &paper_ks(), 1.0 / 3.0, &mut rng);
                let rule = Rule::and(
                    (0..4)
                        .map(|i| Rule::pred(i, if i == 2 && scheme_name == "PH" { 8 } else { 4 })),
                );
                let config = LinkageConfig::record_level(rule, theta, k);
                let t0 = Instant::now();
                let mut p = LinkagePipeline::new(schema, config, &mut rng).expect("valid");
                l_used = p.plan().total_tables();
                p.index(&pair.a).expect("ok");
                let r = p.link(&pair.b).expect("ok");
                let total = t0.elapsed().as_secs_f64();
                let q = evaluate(
                    &r.matches,
                    &pair.ground_truth,
                    r.stats.candidates,
                    pair.cross_size(),
                );
                results.push(MethodResult {
                    name: "cBV-HB".into(),
                    quality: q,
                    embed_secs: 0.0,
                    block_secs: 0.0,
                    match_secs: 0.0,
                    total_secs: total,
                });
            }
            let avg = average(&results);
            t.row([
                k.to_string(),
                scheme_name.to_string(),
                l_used.to_string(),
                secs(avg.total_secs),
                f3(avg.quality.pc),
            ]);
            json.push(serde_json::json!({
                "k": k, "scheme": scheme_name, "l": l_used,
                "total_secs": avg.total_secs, "pc": avg.quality.pc,
            }));
        }
    }
    t.print();
    write_json(&opts.out, "fig8a", &json);
}

fn fig8b(opts: &Opts) {
    println!("\n## Figure 8(b) — embedding time per method");
    let mut t = Table::new(
        "Figure 8(b) reproduction (NCVR, PL)",
        ["method", "embedding time"],
    );
    let mut json = Vec::new();
    let pair = ncvr_pair(opts.records, PerturbationScheme::Light, opts.seed);
    let results = run_all_methods(&pair, PerturbationScheme::Light, opts.seed);
    for r in &results {
        t.row([r.name.clone(), secs(r.embed_secs)]);
        json.push(serde_json::json!({"method": r.name, "embed_secs": r.embed_secs}));
    }
    t.print();
    write_json(&opts.out, "fig8b", &json);
}

// ------------------------------------------------- figures 9, 10, 12

fn run_all_methods(pair: &DatasetPair, scheme: PerturbationScheme, seed: u64) -> Vec<MethodResult> {
    let heavy = matches!(
        scheme,
        PerturbationScheme::Heavy | PerturbationScheme::HeavyOp(_)
    );
    let mut out = Vec::new();
    let mut cbv: CbvHbLinker = if heavy {
        CbvHbLinker::paper_ph(4, seed)
    } else {
        CbvHbLinker::paper_pl(4, seed)
    };
    out.push(run_linker(&mut cbv, pair));
    let mut bfh = if heavy {
        BfhLinker::paper_ph(4, seed)
    } else {
        BfhLinker::paper_pl(4, seed)
    };
    out.push(run_linker(&mut bfh, pair));
    let mut harra = if heavy {
        HarraLinker::paper_ph(seed)
    } else {
        HarraLinker::paper_pl(seed)
    };
    out.push(run_linker(&mut harra, pair));
    let mut smeb = if heavy {
        SmEbLinker::paper_ph(4, seed)
    } else {
        SmEbLinker::paper_pl(4, seed)
    };
    out.push(run_linker(&mut smeb, pair));
    out
}

fn compare(opts: &Opts) {
    println!("\n## Figures 9 / 10 / 12 — method comparison");
    let mut by_cell: HashMap<(String, String, String), MethodResult> = HashMap::new();
    for (src_name, make) in [
        (
            "NCVR",
            ncvr_pair as fn(usize, PerturbationScheme, u64) -> DatasetPair,
        ),
        ("DBLP", dblp_pair),
    ] {
        for (scheme_name, scheme) in [
            ("PL", PerturbationScheme::Light),
            ("PH", PerturbationScheme::Heavy),
        ] {
            let mut per_method: HashMap<String, Vec<MethodResult>> = HashMap::new();
            for trial in 0..opts.trials {
                let seed = opts.seed + trial;
                let pair = make(opts.records, scheme, seed);
                for r in run_all_methods(&pair, scheme, seed) {
                    per_method.entry(r.name.clone()).or_default().push(r);
                }
            }
            for (m, rs) in per_method {
                by_cell.insert(
                    (m.clone(), src_name.to_string(), scheme_name.to_string()),
                    average(&rs),
                );
            }
        }
    }
    let methods = ["cBV-HB", "BfH", "HARRA", "SM-EB"];
    let cells = [
        ("NCVR", "PL"),
        ("NCVR", "PH"),
        ("DBLP", "PL"),
        ("DBLP", "PH"),
    ];
    let mut fig9 = Table::new(
        "Figure 9 — Pairs Completeness",
        ["method", "NCVR PL", "NCVR PH", "DBLP PL", "DBLP PH"],
    );
    let mut fig10 = Table::new(
        "Figure 10 — Pairs Quality",
        ["method", "NCVR PL", "NCVR PH", "DBLP PL", "DBLP PH"],
    );
    let mut fig12a = Table::new(
        "Figure 12(a) — RR and PC (NCVR, PL)",
        ["method", "RR", "PC"],
    );
    let mut fig12b = Table::new(
        "Figure 12(b) — total running time (NCVR)",
        ["method", "PL", "PH"],
    );
    let mut json = Vec::new();
    for m in methods {
        let get = |src: &str, sch: &str| {
            by_cell
                .get(&(m.to_string(), src.to_string(), sch.to_string()))
                .expect("cell computed")
        };
        fig9.row(
            std::iter::once(m.to_string())
                .chain(cells.iter().map(|(s, c)| f3(get(s, c).quality.pc))),
        );
        fig10.row(
            std::iter::once(m.to_string())
                .chain(cells.iter().map(|(s, c)| f3(get(s, c).quality.pq))),
        );
        let pl = get("NCVR", "PL");
        fig12a.row([m.to_string(), f3(pl.quality.rr), f3(pl.quality.pc)]);
        fig12b.row([
            m.to_string(),
            secs(pl.total_secs),
            secs(get("NCVR", "PH").total_secs),
        ]);
        for (s, c) in cells {
            let r = get(s, c);
            json.push(serde_json::json!({
                "method": m, "source": s, "scheme": c,
                "pc": r.quality.pc, "pq": r.quality.pq, "rr": r.quality.rr,
                "embed_secs": r.embed_secs, "total_secs": r.total_secs,
                "candidates": r.quality.candidates,
            }));
        }
    }
    fig9.print();
    fig10.print();
    fig12a.print();
    fig12b.print();
    write_json(&opts.out, "fig9_10_12", &json);
}

// ---------------------------------------------------------------- figure 11

fn fig11(opts: &Opts) {
    println!("\n## Figure 11 — PC per perturbation operation");
    let mut t = Table::new(
        "Figure 11 reproduction (NCVR)",
        ["scheme", "operation", "cBV-HB", "BfH", "HARRA", "SM-EB"],
    );
    let mut json = Vec::new();
    for (scheme_name, make_scheme) in [
        (
            "PL",
            PerturbationScheme::SingleOp as fn(Op) -> PerturbationScheme,
        ),
        ("PH", PerturbationScheme::HeavyOp),
    ] {
        for op in Op::ALL {
            let mut per_method: HashMap<String, Vec<MethodResult>> = HashMap::new();
            for trial in 0..opts.trials {
                let seed = opts.seed + trial;
                let scheme = make_scheme(op);
                let pair = ncvr_pair(opts.records, scheme, seed);
                for r in run_all_methods(&pair, scheme, seed) {
                    per_method.entry(r.name.clone()).or_default().push(r);
                }
            }
            let cell = |m: &str| f3(average(&per_method[m]).quality.pc);
            t.row([
                scheme_name.to_string(),
                op.label().to_string(),
                cell("cBV-HB"),
                cell("BfH"),
                cell("HARRA"),
                cell("SM-EB"),
            ]);
            for m in ["cBV-HB", "BfH", "HARRA", "SM-EB"] {
                json.push(serde_json::json!({
                    "scheme": scheme_name, "op": op.label(), "method": m,
                    "pc": average(&per_method[m]).quality.pc,
                }));
            }
        }
    }
    t.print();
    write_json(&opts.out, "fig11", &json);
}

// ------------------------------------------------------- missing values

fn missing(opts: &Opts) {
    println!("\n## Extension — PC under missing values (paper §7 future work)");
    let mut t = Table::new(
        "Missing-value robustness (NCVR, PL + blanked attribute)",
        ["missing rate", "AND rule PC", "compound OR rule PC"],
    );
    let mut json = Vec::new();
    let and_rule = Rule::and((0..4).map(|i| Rule::pred(i, 4)));
    let or_rule = Rule::or([
        Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]),
        Rule::and([Rule::pred(2, 8), Rule::pred(3, 4)]),
    ]);
    for rate in [0.0, 0.1, 0.2, 0.3] {
        let mut and_pc = Vec::new();
        let mut or_pc = Vec::new();
        for trial in 0..opts.trials {
            let seed = opts.seed + trial;
            let mut pair = ncvr_pair(opts.records, PerturbationScheme::Light, seed);
            blank_values(&mut pair, rate, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x1551);
            let schema = fitted_schema(&pair, &paper_ks(), 1.0 / 3.0, &mut rng);
            let (ra, _) = run_pipeline(
                schema.clone(),
                LinkageConfig::rule_aware(and_rule.clone()),
                &pair,
                &pair.ground_truth.clone(),
                &mut rng,
            );
            let (ro, _) = run_pipeline(
                schema,
                LinkageConfig::rule_aware(or_rule.clone()),
                &pair,
                &pair.ground_truth.clone(),
                &mut rng,
            );
            and_pc.push(ra);
            or_pc.push(ro);
        }
        let a = average(&and_pc).quality.pc;
        let o = average(&or_pc).quality.pc;
        t.row([format!("{rate:.1}"), f3(a), f3(o)]);
        json.push(serde_json::json!({"rate": rate, "and_pc": a, "or_pc": o}));
    }
    t.print();
    write_json(&opts.out, "missing", &json);
}

/// Blanks one random attribute of `rate`·|B| matched records.
fn blank_values(pair: &mut DatasetPair, rate: f64, seed: u64) {
    use rand::RngExt;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB1A);
    let matched: HashSet<u64> = pair.ground_truth.iter().map(|&(_, b)| b).collect();
    for rec in &mut pair.b {
        if matched.contains(&rec.id) && rng.random::<f64>() < rate {
            let f = rng.random_range(0..rec.fields.len());
            rec.fields[f].clear();
        }
    }
}

// ------------------------------------------------------- extension: δ sweep

/// Verifies Equation 2's recall guarantee empirically: for each failure
/// budget δ, the measured PC must be at least 1 − δ.
fn guarantee(opts: &Opts) {
    println!("\n## Extension — empirical recall versus the 1 − δ guarantee");
    let mut t = Table::new(
        "Recall guarantee sweep (NCVR, PL, record-level HB, K = 30)",
        ["δ", "L", "guarantee 1-δ", "measured PC"],
    );
    let mut json = Vec::new();
    for delta in [0.01, 0.05, 0.1, 0.2, 0.4] {
        let mut results = Vec::new();
        let mut l_used = 0usize;
        for trial in 0..opts.trials {
            let seed = opts.seed + trial;
            let pair = ncvr_pair(opts.records, PerturbationScheme::Light, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD017A);
            let schema = fitted_schema(&pair, &paper_ks(), 1.0 / 3.0, &mut rng);
            let rule = Rule::and((0..4).map(|i| Rule::pred(i, 4)));
            let config = LinkageConfig {
                delta,
                mode: cbv_hb::pipeline::BlockingMode::RecordLevel { theta: 4, k: 30 },
                rule,
                block: Default::default(),
            };
            let t0 = Instant::now();
            let mut p = LinkagePipeline::new(schema, config, &mut rng).expect("valid");
            l_used = p.plan().total_tables();
            p.index(&pair.a).expect("ok");
            let r = p.link(&pair.b).expect("ok");
            let _ = t0;
            let q = evaluate(
                &r.matches,
                &pair.ground_truth,
                r.stats.candidates,
                pair.cross_size(),
            );
            results.push(MethodResult {
                name: "cBV-HB".into(),
                quality: q,
                embed_secs: 0.0,
                block_secs: 0.0,
                match_secs: 0.0,
                total_secs: 0.0,
            });
        }
        let avg = average(&results);
        t.row([
            format!("{delta:.2}"),
            l_used.to_string(),
            f3(1.0 - delta),
            f3(avg.quality.pc),
        ]);
        json.push(serde_json::json!({
            "delta": delta, "l": l_used, "guarantee": 1.0 - delta, "pc": avg.quality.pc,
        }));
    }
    t.print();
    write_json(&opts.out, "guarantee", &json);
}

// ------------------------------------------------------- extension: ρ sweep

/// Sensitivity of accuracy and size to the collision tolerance ρ of
/// Theorem 1 (the paper fixes ρ = 1 without exploring it).
fn rho_sweep(opts: &Opts) {
    println!("\n## Extension — collision tolerance ρ sensitivity (Theorem 1)");
    let mut t = Table::new(
        "ρ sweep (NCVR, PL, record-level HB, K = 30, r = 1/3)",
        ["ρ", "m̄_opt", "PC"],
    );
    let mut json = Vec::new();
    for rho in [0.0, 0.5, 1.0, 2.0, 4.0] {
        let mut results = Vec::new();
        let mut mbar = 0usize;
        for trial in 0..opts.trials {
            let seed = opts.seed + trial;
            let pair = ncvr_pair(opts.records, PerturbationScheme::Light, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x0470);
            let ks = paper_ks();
            let specs: Vec<AttributeSpec> = (0..4)
                .map(|f| {
                    let sample = pair.a.iter().chain(&pair.b).take(5_000).map(|x| x.field(f));
                    AttributeSpec::fitted(format!("f{f}"), 2, sample, rho, 1.0 / 3.0, false, ks[f])
                })
                .collect();
            let schema = RecordSchema::build(Alphabet::linkage(), specs, &mut rng);
            mbar = schema.total_size();
            let rule = Rule::and((0..4).map(|i| Rule::pred(i, 4)));
            let (res, _) = run_pipeline(
                schema,
                LinkageConfig::record_level(rule, 4, 30),
                &pair,
                &pair.ground_truth.clone(),
                &mut rng,
            );
            results.push(res);
        }
        let avg = average(&results);
        t.row([format!("{rho:.1}"), mbar.to_string(), f3(avg.quality.pc)]);
        json.push(serde_json::json!({"rho": rho, "m_bar": mbar, "pc": avg.quality.pc}));
    }
    t.print();
    write_json(&opts.out, "rho", &json);
}

// ----------------------------------------- extension: Jaro-Winkler study

/// The paper's named future direction (§7): how well do compact Hamming
/// distances track the Jaro–Winkler metric on person names? We sample
/// matched (single-error) and unmatched name pairs, and measure the
/// agreement between a Hamming threshold rule (u_Ĥ ≤ 4) and a
/// Jaro–Winkler threshold rule (d_JW ≤ 0.15).
fn jw_study(opts: &Opts) {
    use rl_datagen::sources::RecordSource;
    use textdist::jaro_winkler_distance;
    println!("\n## Extension — Jaro–Winkler correspondence (paper §7 future work)");
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let records = NcvrSource.sample_many(opts.records.max(2_000), &mut rng);
    let names: Vec<&str> = records.iter().map(|r| r.field(1)).collect();
    let embedder = cbv_hb::CVectorEmbedder::random(Alphabet::linkage(), 2, 15, false, &mut rng);

    let mut matched_jw = Vec::new();
    let mut matched_h = Vec::new();
    let mut unmatched_jw = Vec::new();
    let mut unmatched_h = Vec::new();
    use rand::RngExt;
    for i in 0..2_000usize {
        let a = names[i % names.len()];
        // Matched pair: one random edit.
        let (b, _) = apply_op(a, Op::random(&mut rng), &mut rng);
        matched_jw.push(jaro_winkler_distance(a, &b));
        matched_h.push(f64::from(embedder.embed(a).hamming(&embedder.embed(&b))));
        // Unmatched pair: a different random name.
        let c = loop {
            let c = names[rng.random_range(0..names.len())];
            if c != a {
                break c;
            }
        };
        unmatched_jw.push(jaro_winkler_distance(a, c));
        unmatched_h.push(f64::from(embedder.embed(a).hamming(&embedder.embed(c))));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;

    // Agreement between the two rules.
    let mut agree = 0usize;
    let mut total = 0usize;
    for (jw, h) in matched_jw
        .iter()
        .zip(&matched_h)
        .chain(unmatched_jw.iter().zip(&unmatched_h))
    {
        let jw_says = *jw <= 0.15;
        let h_says = *h <= 4.0;
        if jw_says == h_says {
            agree += 1;
        }
        total += 1;
    }

    let mut t = Table::new(
        "Jaro–Winkler vs compact Hamming (LastName, single edits)",
        ["pair kind", "mean d_JW", "mean u_Ĥ"],
    );
    t.row([
        "matched (1 edit)".to_string(),
        f3(mean(&matched_jw)),
        f3(mean(&matched_h)),
    ]);
    t.row([
        "unmatched".to_string(),
        f3(mean(&unmatched_jw)),
        f3(mean(&unmatched_h)),
    ]);
    t.print();
    let agreement = agree as f64 / total as f64;
    println!("rule agreement (d_JW<=0.15 vs u_Ĥ<=4): {agreement:.3}");
    write_json(
        &opts.out,
        "jw",
        &serde_json::json!({
            "matched_mean_jw": mean(&matched_jw),
            "matched_mean_h": mean(&matched_h),
            "unmatched_mean_jw": mean(&unmatched_jw),
            "unmatched_mean_h": mean(&unmatched_h),
            "rule_agreement": agreement,
        }),
    );
}

// ------------------------------------------------- extension: privacy

/// Privacy adaptation (§7): linkage quality of keyed embeddings plus the
/// dictionary-attack risk with and without the shared key.
fn privacy(opts: &Opts) {
    use rl_datagen::sources::RecordSource;
    use rl_pprl::keyed::KeyedAttribute;
    use rl_pprl::{DataCustodian, EncodedDataset, KeyedEmbedder, LinkageUnit, SecretKey};

    println!("\n## Extension — privacy-preserving linkage (paper §7)");
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let n = opts.records.min(3_000);
    let pair = ncvr_pair(n, PerturbationScheme::Light, opts.seed);

    // Shared parameters agreed between the custodians.
    let key = SecretKey::from_words([
        opts.seed,
        opts.seed ^ 0xA11CE,
        opts.seed ^ 0xB0B,
        opts.seed ^ 0xC4A12,
    ]);
    let attrs = vec![
        KeyedAttribute {
            m: 15,
            q: 2,
            padded: false,
        },
        KeyedAttribute {
            m: 15,
            q: 2,
            padded: false,
        },
        KeyedAttribute {
            m: 68,
            q: 2,
            padded: false,
        },
        KeyedAttribute {
            m: 22,
            q: 2,
            padded: false,
        },
    ];
    let make_embedder = |key: SecretKey, seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        KeyedEmbedder::new(key, Alphabet::linkage(), attrs.clone(), &mut rng)
    };
    let shared_seed = opts.seed ^ 0x5EED;
    let alice = DataCustodian::new("alice", make_embedder(key.clone(), shared_seed));
    let bob = DataCustodian::new("bob", make_embedder(key.clone(), shared_seed));

    // Quality of the private protocol.
    let enc_a = alice.encode(&pair.a);
    let enc_b = bob.encode(&pair.b);
    let enc_a = EncodedDataset::from_bytes(&enc_a.to_bytes()).expect("wire roundtrip");
    let charlie = LinkageUnit::with_thetas(vec![4, 4, 8, 4]);
    let (matches, stats) = charlie.link(&enc_a, &enc_b, &mut rng).expect("link");
    let q = evaluate(
        &matches,
        &pair.ground_truth,
        stats.candidates,
        pair.cross_size(),
    );

    // Dictionary attack on the last-name attribute (index 1).
    let victim = make_embedder(key.clone(), shared_seed);
    let sample = NcvrSource.sample_many(500, &mut StdRng::seed_from_u64(opts.seed ^ 7));
    let values: Vec<&str> = sample.iter().map(|r| r.field(1)).collect();
    let dictionary = rl_datagen::corpus::LAST_NAMES;
    // Insider attacker: knows everything including the key.
    let insider = make_embedder(key.clone(), shared_seed);
    let (with_key, _) = rl_pprl::risk::attack_attribute(
        &values,
        1,
        &victim,
        |v| insider.embed_value(1, v),
        dictionary,
    );
    // Outside attacker (Charlie): right public parameters, wrong key.
    let outsider = make_embedder(SecretKey::from_words([1, 2, 3, 4]), shared_seed);
    let (without_key, _) = rl_pprl::risk::attack_attribute(
        &values,
        1,
        &victim,
        |v| outsider.embed_value(1, v),
        dictionary,
    );

    // Frequency attack: keying does not hide value frequencies.
    let observed: Vec<(String, rl_bitvec::BitVec)> = values
        .iter()
        .map(|v| ((*v).to_string(), victim.embed_value(1, v)))
        .collect();
    // Rank the dictionary by observed frequency in the sample (a public
    // census ranking in a real attack).
    let mut freq: HashMap<&str, usize> = HashMap::new();
    for v in &values {
        *freq.entry(v).or_default() += 1;
    }
    let mut ranked: Vec<&str> = dictionary.to_vec();
    ranked.sort_by_key(|v| std::cmp::Reverse(freq.get(v).copied().unwrap_or(0)));
    let freq_attack = rl_pprl::risk::frequency_attack(&observed, &ranked);

    let mut t = Table::new(
        "Private linkage quality and re-identification risk",
        ["measure", "value"],
    );
    t.row(["PC (keyed protocol)".to_string(), f3(q.pc)]);
    t.row(["PQ (keyed protocol)".to_string(), f3(q.pq)]);
    t.row([
        "dictionary-attack accuracy WITH key".to_string(),
        f3(with_key.accuracy),
    ]);
    t.row([
        "dictionary-attack accuracy WITHOUT key".to_string(),
        f3(without_key.accuracy),
    ]);
    t.row([
        "frequency-attack accuracy (no key needed)".to_string(),
        f3(freq_attack.accuracy),
    ]);
    t.print();
    println!(
        "note: deterministic encodings leak frequency ranks; mitigate with \
         record salting or dummy records"
    );
    write_json(
        &opts.out,
        "privacy",
        &serde_json::json!({
            "pc": q.pc, "pq": q.pq,
            "attack_with_key": with_key.accuracy,
            "attack_without_key": without_key.accuracy,
            "frequency_attack": freq_attack.accuracy,
        }),
    );
}

// ------------------------------------------------- extension: K selection

/// Predicted optimal K from the cost model of the paper's cited method
/// \[16\], with `p_dissimilar` estimated from sampled record pairs — shown
/// at several scales to explain where Figure 8(a)'s minimum sits.
fn kopt(opts: &Opts) {
    use rl_lsh::params::{estimate_p_dissimilar, KCostModel};
    println!("\n## Extension — predicted optimal K (cost model of [16])");
    let pair = ncvr_pair(
        opts.records.max(1_000),
        PerturbationScheme::Light,
        opts.seed,
    );
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x40B7);
    let schema = fitted_schema(&pair, &paper_ks(), 1.0 / 3.0, &mut rng);
    let m = schema.total_size();
    // Sample dissimilar-pair distances.
    use rand::RngExt;
    let embedded: Vec<_> = pair
        .a
        .iter()
        .take(500)
        .map(|r| schema.embed(r).expect("ok"))
        .collect();
    let mut dists = Vec::new();
    for _ in 0..2_000 {
        let i = rng.random_range(0..embedded.len());
        let j = rng.random_range(0..embedded.len());
        if i != j {
            dists.push(embedded[i].total_distance(&embedded[j]));
        }
    }
    let p_dis = estimate_p_dissimilar(&dists, m);
    let mut t = Table::new(
        "Predicted optimal K versus data-set size",
        ["n", "predicted K*", "L at K*"],
    );
    let mut json = Vec::new();
    for n in [1_000usize, 10_000, 100_000, 1_000_000] {
        let model = KCostModel {
            n,
            m,
            theta: 4,
            delta: 0.1,
            p_dissimilar: p_dis,
            verify_cost: 1.0,
        };
        let k_star = model.optimal_k(5..=45);
        let p = rl_lsh::params::base_success_probability(4, m);
        let l = rl_lsh::params::optimal_l(p.powi(k_star as i32), 0.1);
        t.row([n.to_string(), k_star.to_string(), l.to_string()]);
        json.push(serde_json::json!({"n": n, "k_star": k_star, "l": l, "p_dissimilar": p_dis}));
    }
    t.print();
    println!("estimated p_dissimilar = {p_dis:.3} (mean dissimilar distance over m = {m})");
    write_json(&opts.out, "kopt", &json);
}

// ------------------------------------------------- extension: scaling

/// Records sweep: total time and PC as the data sets grow, sequential vs
/// 4-way parallel probing.
fn scale(opts: &Opts) {
    use cbv_hb::pipeline::BlockingMode;
    println!("\n## Extension — scaling (records sweep, sequential vs parallel)");
    let mut t = Table::new(
        "Scaling (NCVR, PL, record-level HB, K = 30)",
        ["records", "PC", "sequential", "parallel x4"],
    );
    let mut json = Vec::new();
    for n in [1_000usize, 2_000, 5_000, 10_000, 20_000] {
        if n > opts.records.max(20_000) {
            continue;
        }
        let pair = ncvr_pair(n, PerturbationScheme::Light, opts.seed);
        let mut rng = StdRng::seed_from_u64(opts.seed ^ n as u64);
        let schema = fitted_schema(&pair, &paper_ks(), 1.0 / 3.0, &mut rng);
        let rule = Rule::and((0..4).map(|i| Rule::pred(i, 4)));
        let config = LinkageConfig {
            delta: 0.1,
            mode: BlockingMode::RecordLevel { theta: 4, k: 30 },
            rule,
            block: Default::default(),
        };
        let mut p = LinkagePipeline::new(schema, config, &mut rng).expect("valid");
        p.index(&pair.a).expect("ok");
        let t_seq = Instant::now();
        let r = p.link(&pair.b).expect("ok");
        let seq = t_seq.elapsed().as_secs_f64();
        let t_par = Instant::now();
        let rp = p.link_parallel(&pair.b, 4).expect("ok");
        let par = t_par.elapsed().as_secs_f64();
        assert_eq!(r.stats.candidates, rp.stats.candidates);
        let q = evaluate(
            &r.matches,
            &pair.ground_truth,
            r.stats.candidates,
            pair.cross_size(),
        );
        t.row([n.to_string(), f3(q.pc), secs(seq), secs(par)]);
        json.push(serde_json::json!({
            "records": n, "pc": q.pc, "seq_secs": seq, "par_secs": par,
        }));
    }
    t.print();
    let cores = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    println!("host exposes {cores} core(s); parallel gains require >1");
    write_json(&opts.out, "scale", &json);
}

// ------------------------------------------------- extension: multiprobe

/// Multi-probe ablation: probing flipped keys trades per-probe lookups for
/// far fewer hash tables at the same recall guarantee.
fn multiprobe(opts: &Opts) {
    use cbv_hb::blocking::{BlockingPlan, ProbeScratch, TableCount};
    use cbv_hb::matcher::RecordSlab;
    println!("\n## Extension — multi-probe LSH (flip budget t)");
    let mut t = Table::new(
        "Multi-probe (NCVR, PL, record-level, K = 30, δ = 0.1)",
        ["t", "L", "PC", "candidates", "total time"],
    );
    let mut json = Vec::new();
    for flips in [0u32, 1, 2] {
        let mut pcs = Vec::new();
        let mut cands = 0u64;
        let mut l_used = 0usize;
        let mut time = 0.0f64;
        for trial in 0..opts.trials {
            let seed = opts.seed + trial;
            let pair = ncvr_pair(opts.records, PerturbationScheme::Light, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x3117);
            let schema = fitted_schema(&pair, &paper_ks(), 1.0 / 3.0, &mut rng);
            let t0 = Instant::now();
            let tables = TableCount::Equation2 { delta: 0.1, flips };
            let mut plan =
                BlockingPlan::record_level_over(&schema.layout(), 4, 30, tables, &mut rng)
                    .expect("valid");
            l_used = plan.total_tables();
            let mut store = RecordSlab::new(schema.layout());
            let mut row = vec![0; schema.row_words()];
            for r in &pair.a {
                schema.embed_row(r, &mut row).expect("ok");
                let slot = store.insert(r.id, &row).expect("ok");
                plan.insert_row(u64::from(slot), &row);
            }
            let rule = Rule::and((0..4).map(|i| Rule::pred(i, 4)));
            let mut matches = Vec::new();
            let mut n_cands = 0u64;
            let mut scratch = ProbeScratch::default();
            for r in &pair.b {
                schema.embed_row(r, &mut row).expect("ok");
                plan.candidates_into_row(&row, |slot| store.row_at(slot), &mut scratch);
                n_cands += scratch.candidates().len() as u64;
                for &slot in scratch.candidates() {
                    if let Some(a) = store.row_at(slot) {
                        if rule.evaluate_with(&|attr| store.layout().distance(a, &row, attr)) {
                            matches.push((store.id_at(slot), r.id));
                        }
                    }
                }
            }
            time += t0.elapsed().as_secs_f64();
            cands += n_cands;
            let q = evaluate(&matches, &pair.ground_truth, n_cands, pair.cross_size());
            pcs.push(q.pc);
        }
        let pc = pcs.iter().sum::<f64>() / pcs.len() as f64;
        let avg_c = cands / opts.trials;
        let avg_t = time / opts.trials as f64;
        t.row([
            flips.to_string(),
            l_used.to_string(),
            f3(pc),
            avg_c.to_string(),
            secs(avg_t),
        ]);
        json.push(serde_json::json!({
            "flips": flips, "l": l_used, "pc": pc,
            "candidates": avg_c, "total_secs": avg_t,
        }));
    }
    t.print();
    write_json(&opts.out, "multiprobe", &json);
}

// ------------------------------------------------- extension: traditional

/// Pre-LSH blocking classics from the paper's related work (Sorted
/// Neighborhood, Canopy Clustering) versus cBV-HB: no-guarantee methods
/// against the guaranteed one.
fn traditional(opts: &Opts) {
    use rl_baselines::{CanopyLinker, SortedNeighborhoodLinker, StandardBlockingLinker};
    println!("\n## Extension — traditional blocking (related-work classics)");
    // Canopy growth is quadratic; cap the scale.
    let n = opts.records.min(2_000);
    let mut t = Table::new(
        "Traditional blocking vs cBV-HB (NCVR, PL)",
        ["method", "PC", "PQ", "RR", "total time"],
    );
    let mut json = Vec::new();
    let mut rows: Vec<MethodResult> = Vec::new();
    {
        let mut per: HashMap<String, Vec<MethodResult>> = HashMap::new();
        for trial in 0..opts.trials {
            let seed = opts.seed + trial;
            let pair = ncvr_pair(n, PerturbationScheme::Light, seed);
            let mut cbv = CbvHbLinker::paper_pl(4, seed);
            per.entry("cBV-HB".into())
                .or_default()
                .push(run_linker(&mut cbv, &pair));
            let mut snm = SortedNeighborhoodLinker::standard(4);
            per.entry("SNM".into())
                .or_default()
                .push(run_linker(&mut snm, &pair));
            let mut canopy = CanopyLinker::standard(4);
            per.entry("Canopy".into())
                .or_default()
                .push(run_linker(&mut canopy, &pair));
            let mut std_block = StandardBlockingLinker::on_last_name(4);
            per.entry("StdBlock".into())
                .or_default()
                .push(run_linker(&mut std_block, &pair));
        }
        for name in ["cBV-HB", "SNM", "Canopy", "StdBlock"] {
            rows.push(average(&per[name]));
        }
    }
    for r in &rows {
        t.row([
            r.name.clone(),
            f3(r.quality.pc),
            f3(r.quality.pq),
            f3(r.quality.rr),
            secs(r.total_secs),
        ]);
        json.push(serde_json::json!({
            "method": r.name, "pc": r.quality.pc, "pq": r.quality.pq,
            "rr": r.quality.rr, "total_secs": r.total_secs,
        }));
    }
    t.print();
    write_json(&opts.out, "traditional", &json);
}

// ------------------------------------------------- extension: q sweep

/// q-gram length sweep: the paper's §5.1 analysis "holds for any q ≥ 2";
/// verify bigrams vs trigrams on sizes and accuracy.
fn qsweep(opts: &Opts) {
    println!("\n## Extension — q-gram length sweep (bigrams vs trigrams)");
    let mut t = Table::new(
        "q sweep (NCVR, PL, record-level HB, K = 30)",
        ["q", "m̄_opt", "θ", "PC"],
    );
    let mut json = Vec::new();
    for q in [2usize, 3] {
        // One edit touches ≤ 2q q-grams of each string → θ = 2q per error
        // is the conservative per-attribute budget (4 for bigrams, 6 for
        // trigrams).
        let theta = (2 * q) as u32;
        let mut results = Vec::new();
        let mut mbar = 0usize;
        for trial in 0..opts.trials {
            let seed = opts.seed + trial;
            let pair = ncvr_pair(opts.records, PerturbationScheme::Light, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ q as u64);
            let ks = paper_ks();
            let specs: Vec<AttributeSpec> = (0..4)
                .map(|f| {
                    let sample = pair.a.iter().chain(&pair.b).take(5_000).map(|x| x.field(f));
                    AttributeSpec::fitted(format!("f{f}"), q, sample, 1.0, 1.0 / 3.0, false, ks[f])
                })
                .collect();
            let schema = RecordSchema::build(Alphabet::linkage(), specs, &mut rng);
            mbar = schema.total_size();
            let rule = Rule::and((0..4).map(|i| Rule::pred(i, theta)));
            let (res, _) = run_pipeline(
                schema,
                LinkageConfig::record_level(rule, theta, 30),
                &pair,
                &pair.ground_truth.clone(),
                &mut rng,
            );
            results.push(res);
        }
        let avg = average(&results);
        t.row([
            q.to_string(),
            mbar.to_string(),
            theta.to_string(),
            f3(avg.quality.pc),
        ]);
        json.push(serde_json::json!({"q": q, "m_bar": mbar, "theta": theta, "pc": avg.quality.pc}));
    }
    t.print();
    write_json(&opts.out, "qsweep", &json);
}

// ------------------------------------------------- extension: nonstd

/// Non-standardized values (paper §7): B's addresses are abbreviated
/// (`STREET` → `ST`), a multi-character "error" that blows per-error
/// thresholds on that attribute. A compound rule that can fall back on the
/// other attributes recovers the loss.
fn nonstd(opts: &Opts) {
    use rl_datagen::standardize::abbreviate_attribute;
    println!("\n## Extension — non-standardized values (address abbreviation)");
    let and_rule = Rule::and((0..4).map(|i| Rule::pred(i, 4)));
    let compound = Rule::or([
        Rule::and([Rule::pred(0, 4), Rule::pred(1, 4), Rule::pred(3, 4)]),
        Rule::and([Rule::pred(2, 8), Rule::pred(3, 4)]),
    ]);
    let mut t = Table::new(
        "Abbreviated addresses in B (NCVR, PL + abbreviation)",
        ["rule", "PC"],
    );
    let mut json = Vec::new();
    for (name, rule) in [
        ("AND over all attributes", &and_rule),
        ("compound OR", &compound),
    ] {
        let mut results = Vec::new();
        for trial in 0..opts.trials {
            let seed = opts.seed + trial;
            let mut pair = ncvr_pair(opts.records, PerturbationScheme::Light, seed);
            // Abbreviate the address of every matched B record.
            let matched: HashSet<u64> = pair.ground_truth.iter().map(|&(_, b)| b).collect();
            for rec in &mut pair.b {
                if matched.contains(&rec.id) {
                    *rec = abbreviate_attribute(rec, 2);
                }
            }
            let mut rng = StdRng::seed_from_u64(seed ^ 0x0A5D);
            let schema = fitted_schema(&pair, &paper_ks(), 1.0 / 3.0, &mut rng);
            let (res, _) = run_pipeline(
                schema,
                LinkageConfig::rule_aware(rule.clone()),
                &pair,
                &pair.ground_truth.clone(),
                &mut rng,
            );
            results.push(res);
        }
        let pc = average(&results).quality.pc;
        t.row([name.to_string(), f3(pc)]);
        json.push(serde_json::json!({"rule": name, "pc": pc}));
    }
    t.print();
    write_json(&opts.out, "nonstd", &json);
}

// ------------------------------------------------- extension: covering

/// CoveringLSH against random bit sampling at the same number of tables,
/// `L = 2^{θ+1} − 1` (docs/THEORY.md §9): how many of the cross pairs
/// within record-level distance θ each backend co-blocks, and at what
/// candidate cost. Counts only — identical flags write identical JSON.
/// Exits non-zero unless the covering plan co-blocks every pair within θ
/// (recall 1, its zero-false-negative guarantee).
fn covering(opts: &Opts) {
    use cbv_hb::blocking::{BlockingPlan, TableCount};
    println!("\n## Extension — CoveringLSH vs random sampling at matched L");
    let theta = 4u32;
    let pair = ncvr_pair(opts.records, PerturbationScheme::Light, opts.seed);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    // Fixed 4 × 48-bit c-vectors: wide enough for realistic covering
    // groups, small enough that light perturbations stay within θ.
    let specs = (0..4)
        .map(|f| AttributeSpec::new(format!("f{f}"), 2, 48, false, 30))
        .collect();
    let schema = RecordSchema::build(Alphabet::linkage(), specs, &mut rng);
    let enc_a = schema.embed_all(&pair.a).expect("embed A");
    let enc_b = schema.embed_all(&pair.b).expect("embed B");
    // Brute force keeps the recall denominator exact: per B record, the
    // A records within θ that both backends promise to co-block.
    let within: Vec<Vec<u64>> = enc_b
        .iter()
        .map(|b| {
            let near = enc_a.iter().filter(|a| a.total_distance(b) <= theta);
            near.map(|a| a.id).collect()
        })
        .collect();
    let within_pairs: usize = within.iter().map(Vec::len).sum();

    let matched_l = (1usize << (theta + 1)) - 1;
    let plan_rng = || StdRng::seed_from_u64(opts.seed ^ 0xC0FE);
    let config = LinkageConfig::covering(Rule::and((0..4).map(|f| Rule::pred(f, theta))), theta);
    let plans = [
        (
            "covering",
            BlockingPlan::from_config(&schema, &config, &mut plan_rng()),
        ),
        (
            "random",
            BlockingPlan::record_level_over(
                &schema.layout(),
                theta,
                30,
                TableCount::Fixed(matched_l),
                &mut plan_rng(),
            ),
        ),
    ];
    let mut t = Table::new(
        "Covering vs random blocking (NCVR, PL, θ = 4, matched L)",
        [
            "backend",
            "L",
            "key bits",
            "within-θ pairs",
            "co-blocked",
            "recall",
            "candidate pairs",
        ],
    );
    let mut json = Vec::new();
    let mut missed = 0;
    for (backend, plan) in plans {
        let mut plan = plan.expect("valid plan");
        let stats = plan.stats();
        let (l, key_bits) = (stats[0].l, stats[0].key_bits);
        plan.insert_all(&enc_a);
        let (mut co_blocked, mut candidate_pairs) = (0usize, 0usize);
        for (rec, near) in enc_b.iter().zip(&within) {
            let cands = plan.candidates(rec);
            candidate_pairs += cands.len();
            co_blocked += near.iter().filter(|a| cands.contains(a)).count();
        }
        let recall = if within_pairs == 0 {
            1.0
        } else {
            co_blocked as f64 / within_pairs as f64
        };
        if backend == "covering" {
            missed = within_pairs - co_blocked;
        }
        t.row([
            backend.to_string(),
            l.to_string(),
            key_bits.to_string(),
            within_pairs.to_string(),
            co_blocked.to_string(),
            format!("{recall:.4}"),
            candidate_pairs.to_string(),
        ]);
        json.push(serde_json::json!({
            "backend": backend, "theta": theta, "l": l, "key_bits": key_bits,
            "within_theta_pairs": within_pairs, "co_blocked": co_blocked,
            "recall": recall, "candidate_pairs": candidate_pairs,
        }));
    }
    t.print();
    write_json(&opts.out, "covering", &json);
    if missed > 0 {
        eprintln!("covering: {missed} of {within_pairs} pairs within θ = {theta} not co-blocked");
        std::process::exit(1);
    }
}

// ------------------------------------------------- design ablations

/// Timing rounds per measurement; a timing is the median round.
const ROUNDS: usize = 11;

/// Median over [`ROUNDS`] rounds of `round`'s wall time, in ns per `ops`
/// (the operations one round performs).
fn median_ns(ops: usize, mut round: impl FnMut()) -> f64 {
    let mut ns: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            round();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[ROUNDS / 2]
}

/// The design choices behind the paper's claims that no figure isolates,
/// each timed beside the exact counts that explain it: the embedder's
/// position table against `g` evaluated per q-gram (§5.2), the 120-bit
/// popcount distance against the per-bit loop and the edit distance it
/// replaces (§1), Algorithm 2's unique-id collection on and off, and bit
/// sampling over full q-gram vectors against c-vectors (§5.2). The
/// position-table kernel is timed twice: over records in allocation order,
/// and over the same records moved into a seeded shuffle. Exits non-zero
/// unless the counts bear the claims out, the two embed kernels write
/// identical rows, and each record gets the same row in both orders.
fn ablations(opts: &Opts) {
    use cbv_hb::blocking::{BlockingPlan, TableCount};
    use cbv_hb::matcher::{index_row, match_structure_literal, Classifier, MatchStats, RecordSlab};
    use cbv_hb::qvector::QGramVectorEmbedder;
    use cbv_hb::schema::RowLayout;
    use cbv_hb::CVectorEmbedder;
    use rl_bitvec::{naive_hamming, BitVec};
    use std::hint::black_box;
    use textdist::{for_each_qgram_index, levenshtein};
    println!("\n## Design ablations — embed kernel, distance kernel, unique collection, sparsity");
    let pair = ncvr_pair(opts.records, PerturbationScheme::Light, opts.seed);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    // The paper's NCVR record: 15 + 15 + 68 + 22 = 120 bits.
    let schema = RecordSchema::build(
        Alphabet::linkage(),
        vec![
            AttributeSpec::new("FirstName", 2, 15, false, 5),
            AttributeSpec::new("LastName", 2, 15, false, 5),
            AttributeSpec::new("Address", 2, 68, false, 10),
            AttributeSpec::new("Town", 2, 22, false, 10),
        ],
        &mut rng,
    );
    let (layout, w) = (schema.layout(), schema.row_words());
    let (mut rows_a, mut rows_b) = (Vec::new(), Vec::new());
    schema.embed_rows(&pair.a, &mut rows_a).expect("embed A");
    schema.embed_rows(&pair.b, &mut rows_b).expect("embed B");
    let mut failures = Vec::new();

    // The embed kernels over every record of A and B: the embedders'
    // position tables (`embed_rows`) against `g` evaluated per q-gram.
    let records: Vec<Record> = pair.a.iter().chain(&pair.b).cloned().collect();
    let embed_by_eval = |rows: &mut Vec<u64>| {
        rows.clear();
        rows.resize(records.len() * w, 0);
        for (r, row) in records.iter().zip(rows.chunks_exact_mut(w)) {
            let mut offset = 0;
            for (f, e) in schema.embedders().iter().enumerate() {
                for_each_qgram_index(r.field(f), e.q(), e.alphabet(), e.padded(), |x| {
                    let at = offset + e.hash().eval(x) as usize;
                    row[at / 64] |= 1 << (at % 64);
                });
                offset += e.size();
            }
        }
    };
    let (mut by_table, mut by_eval) = (Vec::new(), Vec::new());
    schema.embed_rows(&records, &mut by_table).expect("embed");
    embed_by_eval(&mut by_eval);
    let identical = by_table == by_eval;
    if !identical {
        failures.push("the position table and g evaluated per q-gram embed differently".into());
    }
    let table_ns = median_ns(records.len(), || {
        schema
            .embed_rows(black_box(&records), &mut by_table)
            .expect("embed");
        black_box(&by_table);
    });
    let eval_ns = median_ns(records.len(), || {
        embed_by_eval(&mut by_eval);
        black_box(&by_eval);
    });
    // The same records moved into a seeded shuffle: each keeps the strings
    // it was allocated with, so `embed_rows` meets them out of memory
    // order, as a probe batch does. Batch position `j` holds record
    // `order[j]` and must get its row.
    let mut order: Vec<usize> = (0..records.len()).collect();
    let mut shuffle = StdRng::seed_from_u64(opts.seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rand::RngExt::random_range(&mut shuffle, 0..=i));
    }
    let mut moved: Vec<Option<Record>> = records.into_iter().map(Some).collect();
    let scattered: Vec<Record> = order
        .iter()
        .map(|&i| moved[i].take().expect("a permutation"))
        .collect();
    let mut by_scattered = Vec::new();
    schema
        .embed_rows(&scattered, &mut by_scattered)
        .expect("embed");
    let same_in_both_orders = order
        .iter()
        .zip(by_scattered.chunks_exact(w))
        .all(|(&i, row)| row == &by_table[i * w..(i + 1) * w]);
    if !same_in_both_orders {
        failures.push("embed_rows gives a record another row in a shuffled batch".into());
    }
    let scattered_ns = median_ns(scattered.len(), || {
        schema
            .embed_rows(black_box(&scattered), &mut by_scattered)
            .expect("embed");
        black_box(&by_scattered);
    });
    let mut t = Table::new(
        "Embedding a record (NCVR, PL, 120-bit row)",
        ["kernel", "ns / record", "× table", "rows identical"],
    );
    for (kernel, ns, same) in [
        ("position table", table_ns, identical),
        ("g per q-gram", eval_ns, identical),
        (
            "position table, shuffled batch",
            scattered_ns,
            same_in_both_orders,
        ),
    ] {
        t.row([
            kernel.to_string(),
            format!("{ns:.1}"),
            format!("{:.2}", ns / table_ns),
            same.to_string(),
        ]);
    }
    t.print();
    let embed = serde_json::json!({
        "records": scattered.len(), "rounds": ROUNDS,
        "table_ns_per_record": table_ns, "eval_ns_per_record": eval_ns,
        "eval_over_table": eval_ns / table_ns, "identical_rows": identical,
        "shuffled_ns_per_record": scattered_ns,
        "shuffled_over_table": scattered_ns / table_ns,
        "identical_rows_shuffled": same_in_both_orders,
    });

    // The distance kernels over the true-match pairs.
    // Row `i` of `rows` as one 120-bit vector.
    let bitvec = |rows: &[u64], i: usize| {
        let bit = |b: &usize| rows[i * w + b / 64] >> (b % 64) & 1 == 1;
        BitVec::from_positions(layout.bits(), (0..layout.bits()).filter(bit))
    };
    let pos_a: HashMap<u64, usize> = pair.a.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    let pos_b: HashMap<u64, usize> = pair.b.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    let mut truth: Vec<(u64, u64)> = pair.ground_truth.iter().copied().collect();
    truth.sort_unstable();
    let pairs: Vec<(usize, usize)> = truth.iter().map(|(a, b)| (pos_a[a], pos_b[b])).collect();
    let records: Vec<(&Record, &Record)> = pairs
        .iter()
        .map(|&(a, b)| (&pair.a[a], &pair.b[b]))
        .collect();
    let vecs: Vec<(BitVec, BitVec)> = pairs
        .iter()
        .map(|&(a, b)| (bitvec(&rows_a, a), bitvec(&rows_b, b)))
        .collect();
    // Each round makes at least 50 000 distance computations.
    let passes = 50_000usize.div_ceil(pairs.len().max(1));
    let ops = passes * pairs.len();
    /// `d`'s median ns a pair over `passes` passes of `pairs` a round, and
    /// its sum over `pairs`.
    fn kernel<T>(pairs: &[(T, T)], passes: usize, d: impl Fn(&T, &T) -> u64) -> (f64, u64) {
        let sum = pairs.iter().map(|(a, b)| d(a, b)).sum();
        let ns = median_ns(passes * pairs.len(), || {
            for _ in 0..passes {
                for (a, b) in pairs {
                    black_box(d(black_box(a), black_box(b)));
                }
            }
        });
        (ns, sum)
    }
    let (packed_ns, packed_sum) = kernel(&vecs, passes, |a, b| u64::from(a.hamming(b)));
    let (naive_ns, naive_sum) = kernel(&vecs, passes, |a, b| u64::from(naive_hamming(a, b)));
    let (edit_ns, edit_sum) = kernel(&records, passes, |a, b| {
        (0..4)
            .map(|f| levenshtein(a.field(f), b.field(f)) as u64)
            .sum()
    });
    if packed_sum != naive_sum {
        failures.push(format!(
            "packed and per-bit distances disagree: {packed_sum} vs {naive_sum}"
        ));
    }
    let mut t = Table::new(
        "Distance of a true-match pair (NCVR, PL, 120-bit record c-vector)",
        ["kernel", "ns / pair", "× packed", "Σ distance"],
    );
    for (kernel, ns, sum) in [
        ("packed popcount", packed_ns, packed_sum),
        ("per-bit loop", naive_ns, naive_sum),
        ("edit distance, 4 fields", edit_ns, edit_sum),
    ] {
        t.row([
            kernel.to_string(),
            format!("{ns:.1}"),
            format!("{:.1}", ns / packed_ns),
            sum.to_string(),
        ]);
    }
    t.print();
    let distance = serde_json::json!({
        "pairs": pairs.len(), "bits": layout.bits(), "rounds": ROUNDS,
        "computations_per_round": ops,
        "packed_popcount_ns": packed_ns, "per_bit_ns": naive_ns,
        "edit_distance_4_fields_ns": edit_ns,
        "per_bit_over_packed": naive_ns / packed_ns,
        "edit_over_packed": edit_ns / packed_ns,
        "hamming_sum": packed_sum, "edit_sum": edit_sum,
    });

    // Algorithm 2 over one rule-aware structure, probed with every B record.
    let rule = Rule::and((0..4).map(|i| Rule::pred(i, 4)));
    let config = LinkageConfig::rule_aware(rule.clone());
    let mut plan = BlockingPlan::from_config(&schema, &config, &mut rng).expect("valid rule");
    let mut store = RecordSlab::new(layout.clone());
    for (id, row) in schema.rows_of(&pair.a, &rows_a) {
        index_row(&mut plan, &mut store, id, row).expect("index A");
    }
    let classifier = Classifier::Rule(rule);
    let structure = &plan.structures()[0];
    let probe_all = |dedup: bool| {
        let mut stats = MatchStats::default();
        for probe in rows_b.chunks_exact(w) {
            black_box(match_structure_literal(
                structure,
                &store,
                probe,
                &classifier,
                dedup,
                &mut stats,
            ));
        }
        stats
    };
    let (with, without) = (probe_all(true), probe_all(false));
    // With the collection, one computation per unique candidate, at most
    // the computations without it.
    if with.distance_computations != with.candidates
        || with.candidates > without.distance_computations
    {
        failures.push(format!(
            "{} distance computations with the collection for {} unique candidates, {} without",
            with.distance_computations, with.candidates, without.distance_computations
        ));
    }
    let probes = pair.b.len().max(1);
    let mut t = Table::new(
        &format!(
            "Algorithm 2 with and without the unique collection (L = {})",
            structure.l()
        ),
        [
            "unique collection",
            "ns / probe",
            "distance computations / probe",
            "matched",
        ],
    );
    let mut algorithm2 = Vec::new();
    for (collection, stats) in [(true, &with), (false, &without)] {
        let ns = median_ns(probes, || {
            black_box(probe_all(collection));
        });
        let per_probe = stats.distance_computations as f64 / probes as f64;
        t.row([
            if collection { "on" } else { "off" }.to_string(),
            format!("{ns:.0}"),
            format!("{per_probe:.2}"),
            stats.matched.to_string(),
        ]);
        algorithm2.push(serde_json::json!({
            "unique_collection": collection, "l": structure.l(), "probes": probes,
            "ns_per_probe": ns, "distance_computations": stats.distance_computations,
            "distance_computations_per_probe": per_probe,
            "unique_candidates": with.candidates, "matched": stats.matched,
        }));
    }
    t.print();

    // One K = 10 table over the last names alone, as full q-gram vectors
    // and as 15-bit c-vectors.
    let full = QGramVectorEmbedder::new(Alphabet::linkage(), 2, false);
    let compact = CVectorEmbedder::random(Alphabet::linkage(), 2, 15, false, &mut rng);
    type Embed<'a> = &'a dyn Fn(&str) -> BitVec;
    let vectors: [(&str, usize, Embed); 2] = [
        ("full q-gram vector", full.size(), &|v| full.embed(v)),
        ("c-vector", 15, &|v| compact.embed(v)),
    ];
    let mut t = Table::new(
        "Bit sampling over last names (one table, K = 10)",
        [
            "vector",
            "bits",
            "buckets",
            "largest bucket",
            "entries touched / probe",
            "ns / probe",
        ],
    );
    let (mut sparsity, mut largest) = (Vec::new(), Vec::new());
    for (vector, m, embed) in vectors {
        let layout = RowLayout::from_widths([m]);
        let mut plan =
            BlockingPlan::record_level_over(&layout, 0, 10, TableCount::Fixed(1), &mut rng)
                .expect("a one-table plan");
        let rows = |records: &[Record]| {
            let mut rows = Vec::new();
            for r in records {
                let v = embed(r.field(1));
                layout.push_row(&[v], &mut rows).expect("one attribute");
            }
            rows
        };
        let w = layout.words();
        for (pos, row) in rows(&pair.a).chunks_exact(w).enumerate() {
            plan.insert_row(pos as u64, row);
        }
        let probe_rows = rows(&pair.b);
        let structure = &plan.structures()[0];
        let touch = || {
            let (mut keys, mut met, mut touched) = (Vec::new(), Vec::new(), 0);
            for row in probe_rows.chunks_exact(w) {
                structure.keys_into_row(row, &mut keys);
                met.clear();
                structure.probe_key_into(0, keys[0], &mut met);
                touched += met.len();
            }
            touched
        };
        let touched = touch() as f64 / probes as f64;
        let ns = median_ns(probes, || {
            black_box(touch());
        });
        t.row([
            vector.to_string(),
            m.to_string(),
            structure.num_buckets().to_string(),
            structure.max_bucket().to_string(),
            format!("{touched:.1}"),
            format!("{ns:.0}"),
        ]);
        sparsity.push(serde_json::json!({
            "vector": vector, "bits": m, "k": 10, "records": pair.a.len(), "probes": probes,
            "buckets": structure.num_buckets(), "max_bucket": structure.max_bucket(),
            "entries_touched_per_probe": touched, "ns_per_probe": ns,
        }));
        largest.push(structure.max_bucket());
    }
    t.print();
    if largest[0] <= largest[1] {
        failures.push(format!(
            "the full-vector table's largest bucket ({}) does not exceed the c-vector table's ({})",
            largest[0], largest[1]
        ));
    }

    write_json(
        &opts.out,
        "ablations",
        &serde_json::json!({
            "records": opts.records, "seed": opts.seed, "embed": embed,
            "distance": distance, "algorithm2": algorithm2, "sparsity": sparsity,
        }),
    );
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("ablations: {f}");
        }
        std::process::exit(1);
    }
}
