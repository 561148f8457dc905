//! Bytes read off a socket cannot panic a decoder. Every request, response,
//! replicated-WAL and ack payload below — the ones `record_body_golden.rs`
//! pins, plus one of each body format — is cut at every length, has each
//! byte flipped, and has its body-format byte set to every value; the
//! binary decoders and the `Upgrade` line's JSON parse must answer each
//! variant with `Ok` or `Err`. A seeded round of random overwrites follows.
//!
//! On every one of those byte strings, and on every single-byte rewrite of
//! a multi-record probe, index and insert, the server's borrowed decoder
//! (`decode_request_ref`, a binary body's records read in place) agrees
//! with `decode_request`: it accepts exactly what that accepts, with the
//! same id and verb, and reads the same records — ids and field bytes —
//! where it does not copy them.

use cbv_hb::matcher::MatchStats;
use cbv_hb::{Record, RecordView};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rl_server::protocol::wire::{
    decode_ack, decode_request, decode_request_ref, decode_response, decode_wal, encode_ack,
    encode_request, encode_response, encode_wal, RequestRef, Verb, TAG_WAL, TAG_WAL_E,
};
use rl_server::protocol::PROTOCOL_VERSION;
use rl_server::{
    ErrorCode, LateArrival, Reply, Request, RequestError, ReshardOp, Response, WindowSpec,
};
use rl_store::{WalFrame, WalOp, WAL_FRAME_EPOCH_TAG};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn record() -> Record {
    Record::new(0x0102_0304_0506_0708, ["ANN", "", "LÉE"])
}

/// One request of each body format, then JSON-bodied verbs that carry data.
fn requests() -> Vec<Request> {
    let records = vec![record(), Record::new(2, ["BO", "LÉE"])];
    vec![
        Request::Probe {
            records: vec![record()],
        },
        Request::Index {
            records: records.clone(),
        },
        Request::Insert { records },
        Request::Stream { record: record() },
        Request::Stats,
        Request::Delete { ids: vec![1, 9] },
        Request::Snapshot {
            path: Some("/tmp/index.snap".into()),
        },
        Request::Subscribe {
            from_seq: 3,
            epoch: 2,
        },
        Request::SubscribeMatches {
            rule: "0<=2 & (1<=4 | !2<=1)".into(),
            window: WindowSpec::Count(100),
            late: LateArrival::Drop,
            cap: 8,
        },
        Request::Reshard {
            op: ReshardOp::Merge {
                source: 2,
                target: 1,
            },
        },
        Request::Upgrade {
            max_version: PROTOCOL_VERSION,
        },
    ]
}

/// One response of each body format.
fn responses() -> Vec<Response> {
    vec![
        Response::Ok(Reply::Matches {
            pairs: vec![(1, 10), (2, 10)],
            stats: MatchStats {
                candidates: 7,
                distance_computations: 5,
                matched: 2,
                truncated: 1,
            },
            notes: Vec::new(),
        }),
        Response::Ok(Reply::Indexed {
            accepted: 2,
            total_indexed: 9,
            applied_seq: 4,
        }),
        Response::Ok(Reply::Observed {
            matches: vec![3, 8],
            applied_seq: 5,
        }),
        Response::Ok(Reply::WalFrame {
            seq: 6,
            op: WalOp::Delete(3),
            epoch: 1,
        }),
        Response::Err(RequestError {
            code: ErrorCode::NotPrimary,
            message: "read-only follower".into(),
            primary_addr: Some("127.0.0.1:7878".into()),
        }),
    ]
}

/// The replicated frames: `seq ‖` the payload of each op frame (and of the
/// marker) in `record_body_golden.rs`'s segment, under the tag it ships as.
fn wal_payloads() -> Vec<(u8, Vec<u8>)> {
    let ops = [
        (0, WalOp::Insert(Record::new(1, ["ANN", "LEE"]))),
        (0, WalOp::Delete(9)),
        (2, WalOp::Observe(Record::new(2, ["BO", "LÉE"]))),
        (2, WalOp::Delete(1)),
    ];
    let mut shipped = Vec::new();
    for (seq, (epoch, op)) in ops.iter().enumerate() {
        let mut frame = Vec::new();
        let wal_tag = WalFrame::encode_op(*epoch, &mut frame, |out| op.encode_bin(out));
        let mut payload = Vec::new();
        let tag = encode_wal(seq as u64 + 1, wal_tag, &frame, &mut payload);
        shipped.push((tag, payload));
    }
    let mut marker = Vec::new();
    encode_wal(5, WAL_FRAME_EPOCH_TAG, &2u64.to_le_bytes(), &mut marker);
    shipped.push((TAG_WAL_E, marker));
    shipped
}

/// Every payload a peer could send, encoded by this build.
fn payloads() -> Vec<Vec<u8>> {
    let mut all = Vec::new();
    for (id, req) in requests().iter().enumerate() {
        let mut payload = Vec::new();
        encode_request(id as u64 + 1, req, &mut payload).unwrap();
        all.push(payload);
    }
    for (id, resp) in responses().iter().enumerate() {
        let mut payload = Vec::new();
        encode_response(id as u64 + 1, resp, &mut payload).unwrap();
        all.push(payload);
    }
    all.extend(wal_payloads().into_iter().map(|(_, payload)| payload));
    let mut ack = Vec::new();
    encode_ack(11, &mut ack);
    all.push(ack);
    let upgrade = Request::Upgrade {
        max_version: PROTOCOL_VERSION,
    };
    all.push(serde_json::to_vec(&upgrade).unwrap());
    all
}

/// Runs every decoder over `bytes`; a panic fails the test naming them.
fn decode_all(bytes: &[u8]) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _ = decode_request(bytes);
        let _ = decode_response(bytes);
        let _ = decode_wal(TAG_WAL, bytes);
        let _ = decode_wal(TAG_WAL_E, bytes);
        let _ = decode_ack(bytes);
        let _ = serde_json::from_slice::<Request>(bytes);
        borrowed_decoder_agrees(bytes);
    }));
    assert!(outcome.is_ok(), "a decoder panicked on {bytes:02x?}");
}

/// A record as the test compares it: its id and its field bytes.
type Read = (u64, Vec<Vec<u8>>);

/// The verb and records of a request that carries records.
fn owned_records(request: &Request) -> Option<(&'static str, Vec<Read>)> {
    let (verb, records) = match request {
        Request::Probe { records } => ("Probe", records),
        Request::Index { records } => ("Index", records),
        Request::Insert { records } => ("Insert", records),
        _ => return None,
    };
    let read = records.iter().map(|r| {
        let fields = r.fields.iter().map(|f| f.as_bytes().to_vec()).collect();
        (r.id, fields)
    });
    Some((verb, read.collect()))
}

/// The verb and records of a request whose records are read in place.
fn borrowed_records(request: &RequestRef<'_>) -> Option<(&'static str, Vec<Read>)> {
    let (verb, records) = match request {
        RequestRef::Records(Verb::Probe, records) => ("Probe", records),
        RequestRef::Records(Verb::Index, records) => ("Index", records),
        RequestRef::Records(Verb::Insert, records) => ("Insert", records),
        RequestRef::Other(_) => return None,
    };
    assert_eq!(records.len(), records.into_iter().len());
    let read = records.into_iter().map(|r| {
        let fields = r.fields().map(|f| f.as_bytes().to_vec()).collect();
        (r.id(), fields)
    });
    Some((verb, read.collect()))
}

/// `decode_request_ref` accepts `bytes` iff `decode_request` does, with the
/// same id and request; a body's records, read in place, have the same
/// verb, ids and field bytes. Returns whether `bytes` decoded as a
/// request that carries records.
fn borrowed_decoder_agrees(bytes: &[u8]) -> bool {
    let (owned, borrowed) = (decode_request(bytes), decode_request_ref(bytes));
    let verdicts = (owned.is_ok(), borrowed.is_ok());
    assert_eq!(verdicts.0, verdicts.1, "verdicts differ on {bytes:02x?}");
    let (Ok((id, request)), Ok((borrowed_id, borrowed))) = (owned, borrowed) else {
        return false;
    };
    assert_eq!(id, borrowed_id, "{bytes:02x?}");
    let expected = owned_records(&request);
    match borrowed_records(&borrowed) {
        Some(read) => assert_eq!(Some(read), expected, "{bytes:02x?}"),
        None => {
            let RequestRef::Other(borrowed) = borrowed else {
                unreachable!("every in-place request reads records")
            };
            assert_eq!(borrowed, request, "{bytes:02x?}");
        }
    }
    expected.is_some()
}

/// Rewrites each byte of `request`'s payload to every value; both decoders
/// must agree on each rewrite ([`borrowed_decoder_agrees`]).
fn every_byte_rewrite_agrees(request: &Request) {
    let mut payload = Vec::new();
    encode_request(5, request, &mut payload).unwrap();
    assert!(borrowed_decoder_agrees(&payload));
    let (mut accepted, mut variants) = (0, 0);
    for i in 0..payload.len() {
        for value in 0..=u8::MAX {
            let mut rewritten = payload.clone();
            rewritten[i] = value;
            accepted += usize::from(borrowed_decoder_agrees(&rewritten));
            variants += 1;
        }
    }
    // Field bytes may take many values and still be UTF-8; lengths, counts
    // and continuation bytes mostly may not.
    assert!(
        accepted > 1_000 && accepted < variants / 2,
        "{request:?}: {accepted} of {variants}"
    );
}

fn three_records() -> Vec<Record> {
    vec![
        record(),
        Record::new(2, ["BO", "LÉE", ""]),
        Record::new(3, ["Ω"; 3]),
    ]
}

#[test]
fn every_byte_rewrite_of_a_probe_decodes_alike_borrowed_and_owned() {
    every_byte_rewrite_agrees(&Request::Probe {
        records: three_records(),
    });
}

#[test]
fn every_byte_rewrite_of_an_index_or_insert_decodes_alike_borrowed_and_owned() {
    every_byte_rewrite_agrees(&Request::Index {
        records: three_records(),
    });
    every_byte_rewrite_agrees(&Request::Insert {
        records: three_records(),
    });
}

#[test]
fn the_unmutated_payloads_decode() {
    for (i, req) in requests().iter().enumerate() {
        let mut payload = Vec::new();
        encode_request(7, req, &mut payload).unwrap();
        assert_eq!(decode_request(&payload).unwrap(), (7, req.clone()), "{i}");
    }
    for (i, resp) in responses().iter().enumerate() {
        let mut payload = Vec::new();
        encode_response(7, resp, &mut payload).unwrap();
        assert!(decode_response(&payload).is_ok(), "response {i}");
    }
    for (tag, payload) in wal_payloads().iter().take(4) {
        assert!(decode_wal(*tag, payload).is_ok());
    }
    let (tag, marker) = wal_payloads().pop().unwrap();
    assert!(decode_wal(tag, &marker).is_err(), "a marker is not an op");
}

#[test]
fn no_cut_flip_or_format_byte_panics_a_decoder() {
    let mut variants = 0;
    for payload in payloads() {
        for len in 0..=payload.len() {
            decode_all(&payload[..len]);
            variants += 1;
        }
        for i in 0..payload.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut flipped = payload.clone();
                flipped[i] ^= mask;
                decode_all(&flipped);
                variants += 1;
            }
        }
        // The byte after the 8-byte id or seq: a request's or response's
        // body format, a stamped frame's first epoch byte.
        if payload.len() > 8 {
            for format in 0..=u8::MAX {
                let mut reformatted = payload.clone();
                reformatted[8] = format;
                decode_all(&reformatted);
                variants += 1;
            }
        }
    }
    assert!(variants > 5_000, "{variants} variants");
}

#[test]
fn random_overwrites_never_panic_a_decoder() {
    let mut rng = StdRng::seed_from_u64(0x6a);
    let payloads = payloads();
    for _ in 0..20_000 {
        let mut bytes = payloads[rng.random_range(0..payloads.len())].clone();
        for _ in 0..rng.random_range(1..5) {
            if bytes.is_empty() {
                break;
            }
            let at = rng.random_range(0..bytes.len());
            bytes[at] = rng.random();
        }
        let cut = rng.random_range(0..=bytes.len());
        decode_all(&bytes[..cut]);
    }
}
