//! Allocations of a served single-record probe.
//!
//! The reactor answers a lone single-record probe itself: it decodes the
//! request frame in place (the record's fields are read where the frame
//! holds them, not copied into `String`s), probes the sharded index with
//! the thread's probe buffers, and encodes the matched pairs through the
//! thread's reply buffer straight into the connection's outbox. This test
//! drives that path (`Server::probe_inline`, which runs it on the calling
//! thread) with its own counting allocator, and holds a steady-state probe
//! — one whose buffers an earlier probe of the thread has grown, into an
//! outbox with room — to zero allocations, on a record-level and a
//! rule-aware plan.
//!
//! The counter is per thread; the server's own threads sit idle meanwhile.

use cbv_hb::sharded::ShardedPipeline;
use cbv_hb::{AttributeSpec, LinkageConfig, Record, RecordSchema, Rule};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rl_server::protocol::wire::{decode_response, encode_request, TAG_RESPONSE};
use rl_server::{Reply, Request, Response, Server, ServerConfig};
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

fn name(rng: &mut StdRng) -> String {
    const SYLLABLES: [&str; 12] = [
        "AN", "BEL", "CO", "DRA", "EL", "FI", "GRE", "HAN", "IS", "JO", "KER", "LU",
    ];
    (0..rng.random_range(2..4))
        .map(|_| SYLLABLES[rng.random_range(0..SYLLABLES.len())])
        .collect()
}

/// A thousand indexed records, and a probe per record: its twin with the
/// last letter of the first name changed.
fn data() -> (Vec<Record>, Vec<Record>) {
    let mut rng = StdRng::seed_from_u64(41);
    let a: Vec<Record> = (0..1_000u64)
        .map(|id| Record::new(id, [name(&mut rng), name(&mut rng), name(&mut rng)]))
        .collect();
    let b = (a.iter())
        .map(|r| {
            let mut first = r.fields[0].clone();
            first.pop();
            first.push('Z');
            Record::new(
                r.id + 10_000,
                [first, r.fields[1].clone(), r.fields[2].clone()],
            )
        })
        .collect();
    (a, b)
}

fn schema(rng: &mut StdRng) -> RecordSchema {
    let spec = |name| AttributeSpec::new(name, 2, 40, false, 5);
    let specs = vec![spec("First"), spec("Last"), spec("Town")];
    RecordSchema::build(Alphabet::linkage(), specs, rng)
}

#[test]
fn a_steady_state_served_probe_allocates_nothing() {
    let (a, b) = data();
    let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4), Rule::pred(2, 4)]);
    let configs = [
        (
            "record-level",
            LinkageConfig::record_level(rule.clone(), 4, 30),
        ),
        ("rule-aware", LinkageConfig::rule_aware(rule)),
    ];
    let payloads: Vec<Vec<u8>> = (b.iter())
        .map(|r| {
            let probe = Request::Probe {
                records: vec![r.clone()],
            };
            let mut payload = Vec::new();
            encode_request(r.id, &probe, &mut payload).unwrap();
            payload
        })
        .collect();
    for (name, config) in configs {
        let mut rng = StdRng::seed_from_u64(42);
        let mut pipeline = ShardedPipeline::new(schema(&mut rng), config, 2, &mut rng).unwrap();
        pipeline.index(&a).unwrap();
        let config = ServerConfig {
            slow_request_threshold: None,
            ..ServerConfig::default()
        };
        let server = Server::spawn(pipeline, config).unwrap();
        let mut outbox = Vec::new();
        for payload in &payloads {
            assert!(
                server.probe_inline(payload, &mut outbox),
                "{name}: declined"
            );
            outbox.clear();
        }
        let (mut worst, mut matched) = (0, 0);
        for payload in &payloads {
            let before = ALLOCATIONS.with(Cell::get);
            assert!(
                server.probe_inline(payload, &mut outbox),
                "{name}: declined"
            );
            worst = u64::max(worst, ALLOCATIONS.with(Cell::get) - before);
            matched += matches_in(&outbox);
            outbox.clear();
        }
        assert!(
            matched > b.len() / 2,
            "{name}: only {matched} pairs matched"
        );
        assert_eq!(worst, 0, "{name}: a served probe allocated {worst} times");
        server.shutdown();
        server.wait();
    }
}

/// The pairs of the one `Matches` response frame in `outbox`.
fn matches_in(outbox: &[u8]) -> usize {
    let (tag, payload, consumed) = rl_wire::peek_frame(outbox, rl_wire::DEFAULT_MAX_FRAME)
        .unwrap()
        .unwrap();
    assert_eq!((tag, consumed), (TAG_RESPONSE, outbox.len()));
    match decode_response(payload).unwrap().1 {
        Response::Ok(Reply::Matches { pairs, .. }) => pairs.len(),
        other => panic!("expected matches, got {other:?}"),
    }
}
