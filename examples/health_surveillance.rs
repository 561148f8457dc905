//! Health-surveillance streaming scenario (the paper's §1 motivation):
//! a surveillance system continuously integrates patient records arriving
//! from hospitals and pharmacy stores and must flag, in near real time,
//! records that refer to the same person.
//!
//! The 120-bit record embeddings make per-arrival matching a handful of
//! hash probes plus a few popcount distance computations. Each arrival is
//! linked against everything seen so far, then indexed — what the server's
//! stream handler does per event.
//!
//! ```text
//! cargo run --release --example health_surveillance
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use record_linkage::cbv_hb::AttributeSpec;
use record_linkage::datagen::{NcvrSource, PerturbationScheme, RecordSource};
use record_linkage::prelude::*;
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);

    // Patients are described by name and address attributes.
    let schema = RecordSchema::build(
        Alphabet::linkage(),
        vec![
            AttributeSpec::sized_for("FirstName", 2, 5.1, 1.0, 1.0 / 3.0, false, 5),
            AttributeSpec::sized_for("LastName", 2, 5.0, 1.0, 1.0 / 3.0, false, 5),
            AttributeSpec::sized_for("Address", 2, 20.0, 1.0, 1.0 / 3.0, false, 10),
            AttributeSpec::sized_for("Town", 2, 7.2, 1.0, 1.0 / 3.0, false, 10),
        ],
        &mut rng,
    );
    let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4), Rule::pred(2, 8)]);
    let mut pipeline = LinkagePipeline::new(schema, LinkageConfig::rule_aware(rule), &mut rng)
        .expect("valid configuration");

    // Simulate an interleaved event stream: hospital admissions produce
    // clean records; pharmacy sales later produce dirty copies of half of
    // them (typos at the counter).
    let source = NcvrSource;
    let n = 5_000usize;
    let hospital = source.sample_many(n, &mut rng);
    let scheme = PerturbationScheme::Light;
    let mut stream: Vec<(&'static str, Record)> = Vec::new();
    for (i, rec) in hospital.iter().enumerate() {
        stream.push(("hospital", rec.clone()));
        if i % 2 == 0 {
            let dirty = scheme.apply(rec, (n + i) as u64, &mut rng).record;
            stream.push(("pharmacy", dirty));
        }
    }

    let t0 = Instant::now();
    let (mut alerts, mut distance_computations) = (0usize, 0u64);
    for (origin, rec) in &stream {
        let event = std::slice::from_ref(rec);
        let hits = pipeline.link(event).expect("well-formed record");
        pipeline.index(event).expect("well-formed record");
        distance_computations += hits.stats.distance_computations;
        if !hits.matches.is_empty() && *origin == "pharmacy" {
            alerts += 1;
        }
    }
    let elapsed = t0.elapsed();
    let per_event = elapsed.as_micros() as f64 / stream.len() as f64;

    println!("events processed : {}", stream.len());
    println!("alerts raised    : {alerts}");
    println!("elapsed          : {elapsed:?} ({per_event:.1} µs/event)");
    println!(
        "distance computations per event: {:.2}",
        distance_computations as f64 / stream.len() as f64
    );
    let expected = stream.iter().filter(|(o, _)| *o == "pharmacy").count();
    let recall = alerts as f64 / expected as f64;
    println!("stream recall    : {recall:.3}");
    assert!(
        recall > 0.9,
        "stream matching should catch most dirty copies"
    );
}
