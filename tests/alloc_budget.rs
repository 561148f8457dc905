//! Allocation budget of the probe path.
//!
//! A `LinkagePipeline::link(&[one record])` against a built index takes the
//! calling thread's probe buffers (`cbv_hb::buffers`): the batch's rows,
//! the keys, the candidate and group buffers and the match list, all grown
//! by the thread's earlier calls. So once a thread has probed, a call
//! allocates for what it returns — the match list, copied out of the
//! thread's buffer at its exact size — and for nothing else: nothing per
//! attribute, per q-gram, per table or per candidate pair, and no buffer
//! grown afresh. This test counts, with its own counting allocator, the
//! heap allocations of each call over a few hundred probes on the three
//! in-process benchmark configurations, after one pass over the same
//! probes has grown the buffers, and holds the worst call to the committed
//! count. A count that rises means something on the path began to
//! allocate per call again; lower the pin when it falls.
//!
//! A `ShardedPipeline::link` runs on the calling thread too, so the same
//! counter sees all of it: on two shards it may spend what the single
//! pipeline spends plus [`SHARDED_EXTRA`], and nothing per shard walked:
//! the buffers of the first shard serve the second, and the shards' read
//! guards are held on the stack.
//!
//! A `link` of a 250-record slice — the benchmark's link slice — may
//! allocate for the same match list, and for nothing per probe or per
//! probe group: the grouped probe loop keeps its buffers in the thread's
//! scratch, so its pin holds only if a group's buffers are reused from
//! group to group.
//!
//! The counter is per thread, and each test runs on a thread of its own.

use rand::rngs::StdRng;
use rand::SeedableRng;
use record_linkage::cbv_hb::buffers::{largest_retained_bytes, RETAIN_BYTES};
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
/// same records): nothing. Its read guards are on the stack, its buffers
/// the thread's, and its match list, like the pipeline's, one exact copy.
const SHARDED_EXTRA: u64 = 0;

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
    // (configuration, committed worst-case allocations of one call). The
    // one allocation is the returned match list (none when nothing
    // matched). With a fresh `ProbeScratch` and rows buffer a call: 6 / 13
    // / 8; with an `EmbeddedRecord` per probe: 11 / 18 / 13.
    let budgets = [
        ("batch_pl", LinkageConfig::record_level(c1(), 4, 30), 1u64),
        ("batch_rule", LinkageConfig::rule_aware(c1()), 1),
        ("batch_covering", LinkageConfig::covering(c1(), 4), 1),
    ];
    let probes = &pair.b[..300];
    // Worst and mean allocations of one call of `link`, which returns the
    // number of pairs it matched, after a pass that grows the thread's
    // buffers.
    let spend = |name: &str, link: &dyn Fn(&Record) -> usize| {
        for probe in probes {
            link(probe);
        }
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
    // (configuration, committed worst-case allocations of one slice, after
    // a pass over the slices has grown the thread's buffers): the match
    // list. With the buffers grown afresh each call: 17 / 29 / 20; 13 / 269
    // / 15 before probes were grouped. A buffer each group grew afresh
    // would cost 16 or more on each configuration (a slice is 16 to 250
    // groups).
    let budgets = [
        ("batch_pl", LinkageConfig::record_level(c1(), 4, 30), 1u64),
        ("batch_rule", LinkageConfig::rule_aware(c1()), 1),
        ("batch_covering", LinkageConfig::covering(c1(), 4), 1),
    ];
    for (name, config, budget) in budgets {
        let mut pipeline = LinkagePipeline::new(schema.clone(), config, &mut rng).unwrap();
        pipeline.index(&pair.a).unwrap();
        for slice in pair.b.chunks_exact(SLICE) {
            pipeline.link(slice).unwrap();
        }
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

/// A 20 000-record `link` grows the thread's row buffer past the retention
/// bound; the call drops it on return, and a single-record `link` after it
/// finds and keeps buffers of its own size. On both engines.
#[test]
fn a_huge_batch_leaves_no_probe_buffer_above_the_retention_bound() {
    let (pair, _, mut rng) = setup();
    // The NCVR schema with a 512-bit address: 9 words a row.
    let schema = RecordSchema::build(
        Alphabet::linkage(),
        vec![
            AttributeSpec::new("FirstName", 2, 15, false, 5),
            AttributeSpec::new("LastName", 2, 15, false, 5),
            AttributeSpec::new("Address", 2, 512, false, 10),
            AttributeSpec::new("Town", 2, 22, false, 10),
        ],
        &mut rng,
    );
    let huge: Vec<Record> = (0..20_000u64)
        .map(|id| Record {
            id,
            fields: pair.b[id as usize % pair.b.len()].fields.clone(),
        })
        .collect();
    let rows_bytes = huge.len() * schema.row_words() * std::mem::size_of::<u64>();
    assert!(
        rows_bytes > RETAIN_BYTES,
        "the batch's rows stay under the bound"
    );
    let config = LinkageConfig::record_level(c1(), 4, 30);
    let mut pipeline = LinkagePipeline::new(schema.clone(), config, &mut rng).unwrap();
    let (plan, classifier) = (pipeline.plan().clone(), Classifier::Rule(c1()));
    let mut sharded = ShardedPipeline::from_parts(schema, plan, classifier, 2).unwrap();
    pipeline.index(&pair.a).unwrap();
    sharded.index(&pair.a).unwrap();
    type Link<'a> = &'a dyn Fn(&[Record]) -> usize;
    let links: [(&str, Link); 2] = [
        ("LinkagePipeline", &|b| {
            pipeline.link(b).unwrap().matches.len()
        }),
        ("ShardedPipeline", &|b| sharded.link(b).unwrap().0.len()),
    ];
    for (name, link) in links {
        assert!(link(&huge) > 1_000, "{name}: the huge batch matched little");
        let kept = largest_retained_bytes();
        assert!(
            kept <= RETAIN_BYTES,
            "{name}: {kept} B kept after the huge batch"
        );
        link(&huge[..1]);
        let kept = largest_retained_bytes();
        assert!(
            kept <= RETAIN_BYTES,
            "{name}: {kept} B kept after one record"
        );
        assert!(kept > 0, "{name}: the single-record link kept no buffer");
    }
}
