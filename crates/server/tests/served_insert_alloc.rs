//! Allocations of a served insert.
//!
//! A binary `Insert` reaches a pool worker as one copy of its records'
//! bytes: the reactor checks the body in place and copies it whole, and the
//! worker reads each record where that copy holds it — schema check, WAL
//! append, embedding — with no `String` per field. This test drives that
//! path (`Server::execute_pooled`, which runs the reactor's and the
//! worker's part on the calling thread) with its own counting allocator
//! against a durable server, and holds a steady-state insert — one that
//! re-inserts records an earlier request indexed, so no table or slab has
//! to grow — of 500 records and of 50 to the same small number of
//! allocations, which does not grow with the records or their fields.
//!
//! The counter is per thread; the server's own threads sit idle meanwhile.

use cbv_hb::sharded::ShardedPipeline;
use cbv_hb::{AttributeSpec, LinkageConfig, Record, RecordSchema, Rule};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rl_server::protocol::wire::{decode_response, encode_request, TAG_RESPONSE};
use rl_server::{DurabilityConfig, Reply, Request, Response, Server, ServerConfig, SyncPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use textdist::Alphabet;

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

/// Fields per record.
const FIELDS: usize = 5;

/// Most allocations a steady-state insert may make, whatever its size: the
/// one copy of its records' bytes that the reactor hands a worker.
/// Decoding the 500-record insert into owned records made 3 001 (a `Vec`
/// per record and a `String` per field).
const BUDGET: u64 = 1;

fn name(rng: &mut StdRng) -> String {
    const SYLLABLES: [&str; 12] = [
        "AN", "BEL", "CO", "DRA", "EL", "FI", "GRE", "HAN", "IS", "JO", "KER", "LU",
    ];
    (0..rng.random_range(2..4))
        .map(|_| SYLLABLES[rng.random_range(0..SYLLABLES.len())])
        .collect()
}

fn pipeline() -> ShardedPipeline {
    let mut rng = StdRng::seed_from_u64(42);
    let specs = (0..FIELDS)
        .map(|i| AttributeSpec::new(format!("f{i}"), 2, 40, false, 5))
        .collect();
    let schema = RecordSchema::build(Alphabet::linkage(), specs, &mut rng);
    let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4), Rule::pred(2, 4)]);
    ShardedPipeline::new(schema, LinkageConfig::rule_aware(rule), 2, &mut rng).unwrap()
}

/// The payload of a binary `Insert` of `n` records, ids from `first`.
fn insert(rng: &mut StdRng, first: u64, n: u64) -> Vec<u8> {
    let records = (first..first + n)
        .map(|id| Record::new(id, (0..FIELDS).map(|_| name(rng))))
        .collect();
    let mut payload = Vec::new();
    encode_request(first, &Request::Insert { records }, &mut payload).unwrap();
    payload
}

/// The records the one `Indexed` response frame in `outbox` accepted.
fn accepted_in(outbox: &[u8]) -> usize {
    let (tag, payload, consumed) = rl_wire::peek_frame(outbox, rl_wire::DEFAULT_MAX_FRAME)
        .unwrap()
        .unwrap();
    assert_eq!((tag, consumed), (TAG_RESPONSE, outbox.len()));
    match decode_response(payload).unwrap().1 {
        Response::Ok(Reply::Indexed { accepted, .. }) => accepted,
        other => panic!("expected indexed, got {other:?}"),
    }
}

#[test]
fn a_steady_state_served_insert_allocates_a_few_times_whatever_its_size() {
    let dir = std::env::temp_dir().join(format!("rl-insert-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        slow_request_threshold: None,
        durability: Some(DurabilityConfig {
            data_dir: dir.clone(),
            sync: SyncPolicy::Never,
            checkpoint_every: None,
        }),
        ..ServerConfig::default()
    };
    let server = Server::spawn_durable(|| Ok(pipeline()), config).unwrap();
    let mut rng = StdRng::seed_from_u64(43);
    let payloads = [insert(&mut rng, 0, 500), insert(&mut rng, 1_000, 50)];
    let mut outbox = Vec::new();
    // Index each batch, then re-insert it once: every buffer on the path
    // has grown to its size.
    for payload in payloads.iter().chain(&payloads) {
        assert!(server.execute_pooled(payload, &mut outbox));
        outbox.clear();
    }
    for (payload, records) in payloads.iter().zip([500, 50]) {
        let mut worst = 0;
        for _ in 0..5 {
            let before = ALLOCATIONS.with(Cell::get);
            assert!(server.execute_pooled(payload, &mut outbox));
            worst = u64::max(worst, ALLOCATIONS.with(Cell::get) - before);
            assert_eq!(accepted_in(&outbox), records);
            outbox.clear();
        }
        println!("a {records}-record insert of {FIELDS} fields: {worst} allocations");
        assert!(
            worst <= BUDGET,
            "a {records}-record insert allocated {worst} times"
        );
    }
    server.shutdown();
    server.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}
