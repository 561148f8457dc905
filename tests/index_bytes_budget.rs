//! Byte budget of the index.
//!
//! The paper's record is ~120 bits and a block is a handful of ids; what a
//! record costs on the heap is what the blocking tables and the record store
//! make of that. This test measures, with its own counting allocator, the
//! live heap bytes `LinkagePipeline::index` adds per record on the three
//! in-process benchmark configurations (at the sizes `alloc_budget.rs`
//! uses) and holds each to the committed pin. The figure is exact run to
//! run: hashbrown's capacity and the table arenas' growth depend on how
//! many keys and ids arrive and in what order, not on the process's hash
//! key. A figure that rises means a layout began to spend more per entry;
//! lower the pin when it falls.
//!
//! It also holds `StructureStats::heap_bytes` (the `rl_block_heap_bytes`
//! gauge) to within a tenth of what the allocator saw the tables take: the
//! same records inserted into a copy of the empty plan, tables only. What
//! `index` added beyond that is the record store — packed rows, a slot → id
//! column and an id → slot map — which has a budget of its own and its own
//! gauge
//! (`LinkagePipeline::record_heap_bytes`, `rl_record_heap_bytes`), held to
//! the same tenth.
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
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn moved(by: i64) {
    LIVE.with(|n| n.set(n.get() + by));
}

struct Counting;

// SAFETY: defers to `System` for every operation; the counter is a
// const-initialized thread-local `Cell`, which neither allocates nor runs a
// destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        moved(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        moved(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        moved(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        moved(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live bytes `f` left behind.
fn gained(f: impl FnOnce()) -> i64 {
    let before = LIVE.with(Cell::get);
    f();
    LIVE.with(Cell::get) - before
}

/// C1 = f0 ≤ 4 ∧ f1 ≤ 4 ∧ f2 ≤ 8, the benchmark's classification rule.
fn c1() -> Rule {
    Rule::and([Rule::pred(0, 4), Rule::pred(1, 4), Rule::pred(2, 8)])
}

#[test]
fn indexing_a_record_stays_within_its_byte_budget() {
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
    let records = pair.a.len() as i64;
    // (configuration, committed heap bytes per indexed record): two to
    // three per cent above the 200 / 4 553 / 885 measured with directories
    // of narrow keys (144 / 4 498 / 829 of it tables, 56 the record store;
    // the covering plan widens 9 of its 31 tables). 16-byte keys in every
    // directory read 266 / 6 443 / 1 126 (210 / 6 387 / 1 070 tables);
    // tables of client ids 320 / 8 404 / 1 453 (275 / 8 358 / 1 408
    // tables, 45 the store); an `EmbeddedRecord` per record in a map 499 /
    // 8 582 / 1 632; the `HashMap<u128, Vec<u64>>` tables before that
    // 803 / 16 198 / 3 259.
    let budgets = [
        ("batch_pl", LinkageConfig::record_level(c1(), 4, 30), 205i64),
        ("batch_rule", LinkageConfig::rule_aware(c1()), 4_650),
        ("batch_covering", LinkageConfig::covering(c1(), 4), 905),
    ];
    // The record store's share, whatever the tables: a 16-byte row, its
    // 8-byte id in the slot → id column, a 17-byte map slot at a load of
    // 7/16 to 7/8, and `Vec` doubling.
    const STORE_BUDGET: i64 = 64;
    for (name, config, budget) in budgets {
        let mut pipeline = LinkagePipeline::new(schema.clone(), config, &mut rng).unwrap();
        let reported = |p: &LinkagePipeline| -> i64 {
            p.plan().stats().iter().map(|s| s.heap_bytes as i64).sum()
        };
        // The tables alone: the same inserts into a copy of the empty plan.
        let mut tables = pipeline.plan().clone();
        let embedded = pipeline.schema().embed_all(&pair.a).unwrap();
        let table_bytes = gained(|| tables.insert_all(&embedded));
        drop((tables, embedded));

        let empty = reported(&pipeline);
        let index_bytes = gained(|| pipeline.index(&pair.a).unwrap());
        let per_record = index_bytes / records;
        assert!(
            per_record <= budget,
            "{name}: indexing costs {per_record} B a record ({} B of it tables); the budget is {budget}",
            table_bytes / records,
        );
        let reported = reported(&pipeline) - empty;
        assert!(
            (reported - table_bytes).abs() * 10 <= table_bytes,
            "{name}: heap_bytes grew by {reported}, the allocator saw the tables take {table_bytes}",
        );
        // The pipeline's tables took what the copy's did, so the rest is
        // the record store.
        let store_bytes = index_bytes - table_bytes;
        assert!(
            store_bytes <= STORE_BUDGET * records,
            "{name}: the record store costs {} B a record; the budget is {STORE_BUDGET}",
            store_bytes / records,
        );
        let reported = pipeline.record_heap_bytes() as i64;
        assert!(
            (reported - store_bytes).abs() * 10 <= store_bytes,
            "{name}: record_heap_bytes is {reported}, the allocator saw the store take {store_bytes}",
        );
    }
}
