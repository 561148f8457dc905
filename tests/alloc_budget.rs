//! Allocation budget of the probe path.
//!
//! A `LinkagePipeline::link(&[one record])` against a built index may
//! allocate for what it returns and for buffers whose size the data
//! decides — the batch's buffer of packed rows (one row here), the key
//! buffer, the candidate buffer as it grows, the match list — and for
//! nothing per attribute, per q-gram, per table or per candidate pair. This test counts, with its own counting allocator, the
//! heap allocations of each call over a few hundred probes on the three
//! in-process benchmark configurations and holds the worst call to the
//! committed count. A count that rises means something on the path began
//! to allocate per item again; lower the pin when it falls.
//!
//! A `ShardedPipeline::link` runs on the calling thread too, so the same
//! counter sees all of it: on two shards it may spend what the single
//! pipeline spends plus [`SHARDED_EXTRA`], and nothing per shard walked:
//! the key buffer and the candidate buffer of the first shard serve the
//! second.
//!
//! A `link` of a 250-record slice — the benchmark's link slice — may
//! allocate for the same buffers, grown to the slice, and for nothing per
//! probe or per probe group: the grouped probe loop keeps its buffers in
//! the call's scratch, so its pin holds only if a group's buffers are
//! reused from group to group.
//!
//! The counter is per thread, and each test runs on a thread of its own.

use rand::rngs::StdRng;
use rand::SeedableRng;
use record_linkage::cbv_hb::matcher::Classifier;
use record_linkage::cbv_hb::sharded::ShardedPipeline;
use record_linkage::cbv_hb::{AttributeSpec, Record, RecordSchema};
use record_linkage::datagen::{DatasetPair, NcvrSource, PairConfig, PerturbationScheme};
use record_linkage::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers to `System` for every operation; the counter is a
// const-initialized thread-local `Cell`, which neither allocates nor runs a
// destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What a two-shard `ShardedPipeline::link` may allocate beyond the
/// `LinkagePipeline` budget of the same configuration (same hash draws,
/// same records): the vector holding the shards' read guards, and one more
/// step of the candidate buffer's growth — a shard's buckets are half the
/// single index's, so on `batch_rule` (178 tables of this schema before the
/// de-duplication) the buffer reaches its size in smaller appends.
const SHARDED_EXTRA: u64 = 2;

/// C1 = f0 ≤ 4 ∧ f1 ≤ 4 ∧ f2 ≤ 8, the benchmark's classification rule.
fn c1() -> Rule {
    Rule::and([Rule::pred(0, 4), Rule::pred(1, 4), Rule::pred(2, 8)])
}

/// The test data, the paper's 120-bit NCVR schema, and the generator.
fn setup() -> (DatasetPair, RecordSchema, StdRng) {
    let mut rng = StdRng::seed_from_u64(42);
    let cfg = PairConfig::new(1_500, PerturbationScheme::Light).with_duplicates(0.1);
    let pair = DatasetPair::generate(&NcvrSource, cfg, &mut rng);
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
    (pair, schema, rng)
}

#[test]
fn a_single_record_link_stays_within_its_allocation_budget() {
    let (pair, schema, mut rng) = setup();
    // (configuration, committed worst-case allocations of one call).
    let budgets = [
        // One for the rows of the batch of one, one for the keys, one for
        // the matches, the rest the candidate buffer doubling to its size.
        // (With an `EmbeddedRecord` per probe: 11 / 18 / 13.)
        ("batch_pl", LinkageConfig::record_level(c1(), 4, 30), 6u64),
        ("batch_rule", LinkageConfig::rule_aware(c1()), 13),
        ("batch_covering", LinkageConfig::covering(c1(), 4), 8),
    ];
    let probes = &pair.b[..300];
    // Worst and mean allocations of one call of `link`, which returns the
    // number of pairs it matched.
    let spend = |name: &str, link: &dyn Fn(&Record) -> usize| {
        let (mut worst, mut total, mut matched) = (0u64, 0u64, 0usize);
        for probe in probes {
            let before = ALLOCATIONS.with(Cell::get);
            matched += link(probe);
            let spent = ALLOCATIONS.with(Cell::get) - before;
            worst = worst.max(spent);
            total += spent;
        }
        assert!(matched > 100, "{name}: only {matched} pairs matched");
        (worst, total as f64 / probes.len() as f64)
    };
    for (name, config, budget) in budgets {
        let mut pipeline = LinkagePipeline::new(schema.clone(), config, &mut rng).unwrap();
        // The same hash draws on both engines, so the same candidates.
        let (plan, classifier) = (pipeline.plan().clone(), Classifier::Rule(c1()));
        let mut sharded = ShardedPipeline::from_parts(schema.clone(), plan, classifier, 2).unwrap();
        pipeline.index(&pair.a).unwrap();
        let (worst, mean) = spend(name, &|probe| {
            let result = pipeline.link(std::slice::from_ref(probe)).unwrap();
            result.matches.len()
        });
        assert!(
            worst <= budget,
            "{name}: a single-record link allocated {worst} times (mean {mean:.1}); the budget is {budget}",
        );

        sharded.index(&pair.a).unwrap();
        let (worst, mean) = spend(name, &|probe| {
            let (pairs, _) = sharded.link(std::slice::from_ref(probe)).unwrap();
            pairs.len()
        });
        let budget = budget + SHARDED_EXTRA;
        assert!(
            worst <= budget,
            "{name}: a single-record link over two shards allocated {worst} times (mean {mean:.1}); the budget is {budget}",
        );
    }
}

/// Probes in a link slice: the benchmark's `link_slice`.
const SLICE: usize = 250;

#[test]
fn a_link_slice_stays_within_its_allocation_budget() {
    let (pair, schema, mut rng) = setup();
    // (configuration, committed worst-case allocations of one slice). The
    // single-record buffers grown to the slice, the match list, and the two
    // buffers a group's candidate sets pass between, each doubling to its
    // size once: 13 / 269 / 15 before probes were grouped. `batch_rule`
    // also grows the unique collection's bitmap as its candidates' range
    // widens; it spent 278 while its plan's AND of one child built a list
    // of candidate sets each probe. A buffer each group grew afresh would
    // cost 15 or more on each configuration (a slice is 16 to 250 groups).
    let budgets = [
        ("batch_pl", LinkageConfig::record_level(c1(), 4, 30), 17u64),
        ("batch_rule", LinkageConfig::rule_aware(c1()), 29),
        ("batch_covering", LinkageConfig::covering(c1(), 4), 20),
    ];
    for (name, config, budget) in budgets {
        let mut pipeline = LinkagePipeline::new(schema.clone(), config, &mut rng).unwrap();
        pipeline.index(&pair.a).unwrap();
        let (mut worst, mut matched) = (0u64, 0usize);
        for slice in pair.b.chunks_exact(SLICE) {
            let before = ALLOCATIONS.with(Cell::get);
            matched += pipeline.link(slice).unwrap().matches.len();
            worst = worst.max(ALLOCATIONS.with(Cell::get) - before);
        }
        assert!(matched > 500, "{name}: only {matched} pairs matched");
        assert!(
            worst <= budget,
            "{name}: a {SLICE}-record link allocated {worst} times; the budget is {budget}",
        );
    }
}
