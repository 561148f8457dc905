//! Golden bytes of the record body `id u64 | nfields u16 | (len u32 | bytes)*`
//! in its two carriers: a binary WAL op and a binary `Probe` request. Both
//! are persisted or sent to peers of other builds, so their bytes are fixed.

use cbv_hb::Record;
use rl_server::protocol::wire::{decode_request, encode_request};
use rl_server::protocol::Request;
use rl_store::WalOp;

fn record() -> Record {
    Record::new(0x0102_0304_0506_0708, ["ANN", "", "LÉE"])
}

/// The body of [`record`]: id, three fields, the last one non-ASCII.
const BODY: &[u8] = &[
    0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // id
    3, 0, // nfields
    3, 0, 0, 0, b'A', b'N', b'N', // "ANN"
    0, 0, 0, 0, // ""
    4, 0, 0, 0, b'L', 0xC3, 0x89, b'E', // "LÉE"
];

#[test]
fn a_wal_insert_is_its_tag_then_the_record_body() {
    let op = WalOp::Insert(record());
    let mut bytes = Vec::new();
    op.encode_bin(&mut bytes);
    let mut golden = vec![1u8]; // OP_INSERT
    golden.extend_from_slice(BODY);
    assert_eq!(bytes, golden);
    assert_eq!(WalOp::decode_bin(&bytes).unwrap(), op);
}

#[test]
fn a_probe_request_is_its_id_format_and_count_then_the_record_bodies() {
    let req = Request::Probe {
        records: vec![record()],
    };
    let mut bytes = Vec::new();
    encode_request(9, &req, &mut bytes).unwrap();
    let mut golden = vec![9, 0, 0, 0, 0, 0, 0, 0]; // request id
    golden.push(1); // BODY_PROBE
    golden.extend_from_slice(&[1, 0, 0, 0]); // record count
    golden.extend_from_slice(BODY);
    assert_eq!(bytes, golden);
    let (id, decoded) = decode_request(&bytes).unwrap();
    assert_eq!(id, 9);
    assert_eq!(decoded, req);
}
