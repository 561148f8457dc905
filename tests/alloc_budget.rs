//! Allocation budget of the probe path.
//!
//! A `LinkagePipeline::link(&[one record])` against a built index may
//! allocate for what it returns and for buffers whose size the data
//! decides — the embedded record (one vector per attribute and the list of
//! them), the batch of one, the key buffer, the candidate buffer as it
//! grows, the match list — and for nothing per q-gram, per table or per
//! candidate pair. This test counts, with its own counting allocator, the
//! heap allocations of each call over a few hundred probes on the three
//! in-process benchmark configurations and holds the worst call to the
//! committed count. A count that rises means something on the path began
//! to allocate per item again; lower the pin when it falls.
//!
//! One test function: the counter is per thread, and nothing else runs on
//! this one.

use rand::rngs::StdRng;
use rand::SeedableRng;
use record_linkage::cbv_hb::{AttributeSpec, RecordSchema};
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

/// C1 = f0 ≤ 4 ∧ f1 ≤ 4 ∧ f2 ≤ 8, the benchmark's classification rule.
fn c1() -> Rule {
    Rule::and([Rule::pred(0, 4), Rule::pred(1, 4), Rule::pred(2, 8)])
}

#[test]
fn a_single_record_link_stays_within_its_allocation_budget() {
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
    // (configuration, committed worst-case allocations of one call).
    let budgets = [
        // Six for the embedded batch of one, one for the keys, one for the
        // matches, the rest the candidate buffer doubling to its size.
        ("batch_pl", LinkageConfig::record_level(c1(), 4, 30), 11u64),
        ("batch_rule", LinkageConfig::rule_aware(c1()), 18),
        ("batch_covering", LinkageConfig::covering(c1(), 4), 13),
    ];
    for (name, config, budget) in budgets {
        let mut pipeline = LinkagePipeline::new(schema.clone(), config, &mut rng).unwrap();
        pipeline.index(&pair.a).unwrap();
        let (mut worst, mut total, mut matched) = (0u64, 0u64, 0usize);
        let probes = &pair.b[..300];
        for probe in probes {
            let before = ALLOCATIONS.with(Cell::get);
            let result = pipeline.link(std::slice::from_ref(probe)).unwrap();
            let spent = ALLOCATIONS.with(Cell::get) - before;
            matched += result.matches.len();
            worst = worst.max(spent);
            total += spent;
        }
        assert!(matched > 100, "{name}: only {matched} pairs matched");
        assert!(
            worst <= budget,
            "{name}: a single-record link allocated {worst} times (mean {:.1}); the budget is {budget}",
            total as f64 / probes.len() as f64
        );
    }
}
