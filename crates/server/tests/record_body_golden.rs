//! Golden bytes of the record body `id u64 | nfields u16 | (len u32 | bytes)*`
//! in its two carriers: a binary WAL op and a binary `Probe` request. Both
//! are persisted or sent to peers of other builds, so their bytes are fixed.
//! A binary `Insert` sent to a durable server lands in its WAL as that op.
//!
//! The same holds one level up: a WAL segment holding un-stamped frames, an
//! epoch marker and stamped frames, and the `TAG_WAL` / `TAG_WAL_E` payloads
//! a primary streams to a follower for the same ops.

use cbv_hb::pipeline::LinkageConfig;
use cbv_hb::sharded::ShardedPipeline;
use cbv_hb::{AttributeSpec, Record, RecordSchema, Rule};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_server::protocol::wire::{decode_request, encode_request, TAG_REQUEST, TAG_RESPONSE};
use rl_server::protocol::{Request, PROTOCOL_VERSION};
use rl_server::{Client, DurabilityConfig, ReplRole, Reply, Server, ServerConfig, SyncPolicy};
use rl_store::{segment_path, Wal, WalOp, WAL_MAGIC};
use rl_wire::FrameReader;
use std::io::{Read, Write};
use std::net::TcpStream;
use textdist::Alphabet;

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

/// The ops of [`SEGMENT`], each with the epoch it is written under. A
/// marker raising the epoch to 2 sits between the second and the third.
fn segment_ops() -> Vec<(u64, WalOp)> {
    vec![
        (0, WalOp::Insert(Record::new(1, ["ANN", "LEE"]))),
        (0, WalOp::Delete(9)),
        (2, WalOp::Observe(Record::new(2, ["BO", "LÉE"]))),
        (2, WalOp::Delete(1)),
    ]
}

/// The payloads of [`SEGMENT`]'s frames, in order.
const PAYLOADS: [&[u8]; 5] = [
    // Un-stamped insert: OP_INSERT, then the record body.
    &[
        1, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 3, 0, 0, 0, b'A', b'N', b'N', 3, 0, 0, 0, b'L', b'E', b'E',
    ],
    // Un-stamped delete: OP_DELETE, then the id.
    &[3, 9, 0, 0, 0, 0, 0, 0, 0],
    // Epoch marker: the epoch alone.
    &[2, 0, 0, 0, 0, 0, 0, 0],
    // Stamped observe: the epoch, OP_OBSERVE, then the record body.
    &[
        2, 0, 0, 0, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 2, 0, 0, 0, b'B', b'O', 4, 0, 0,
        0, b'L', 0xC3, 0x89, b'E',
    ],
    // Stamped delete: the epoch, OP_DELETE, then the id.
    &[2, 0, 0, 0, 0, 0, 0, 0, 3, 1, 0, 0, 0, 0, 0, 0, 0],
];

/// The `rl-wire` headers of [`SEGMENT`]'s frames: magic, version, tag (1
/// un-stamped op, 3 marker, 2 stamped op), payload length, CRC-32.
const HEADERS: [[u8; 12]; 5] = [
    [82, 87, 1, 1, 25, 0, 0, 0, 201, 199, 29, 87],
    [82, 87, 1, 1, 9, 0, 0, 0, 127, 20, 112, 82],
    [82, 87, 1, 3, 8, 0, 0, 0, 252, 133, 87, 181],
    [82, 87, 1, 2, 33, 0, 0, 0, 35, 202, 23, 185],
    [82, 87, 1, 2, 17, 0, 0, 0, 254, 58, 166, 50],
];

/// The segment: `RLWAL2\0\0`, then each header followed by its payload.
fn segment() -> Vec<u8> {
    let mut bytes = b"RLWAL2\0\0".to_vec();
    for (header, payload) in HEADERS.iter().zip(PAYLOADS) {
        bytes.extend_from_slice(header);
        bytes.extend_from_slice(payload);
    }
    bytes
}

/// Writes [`segment_ops`] through [`Wal`] as the first segment of `dir`.
fn write_segment(dir: &std::path::Path) -> std::path::PathBuf {
    let path = segment_path(dir, 1);
    let mut wal = Wal::create(&path, SyncPolicy::Always).unwrap();
    for (i, (epoch, op)) in segment_ops().into_iter().enumerate() {
        if i == 2 {
            wal.append_marker(epoch).unwrap();
        }
        wal.append(&op).unwrap();
    }
    path
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rl-golden-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_wal_segment_is_its_magic_then_unstamped_frames_a_marker_and_stamped_frames() {
    assert_eq!(&segment()[..8], &WAL_MAGIC);
    let dir = scratch("segment");
    let path = write_segment(&dir);
    assert_eq!(std::fs::read(&path).unwrap(), segment());
    let replayed = rl_store::replay_from_epoch(&path, 0).unwrap();
    let ops: Vec<WalOp> = segment_ops().into_iter().map(|(_, op)| op).collect();
    assert_eq!(replayed.ops, ops);
    assert_eq!((replayed.max_epoch, replayed.torn_bytes), (2, 0));
    std::fs::remove_dir_all(&dir).unwrap();
}

fn pipeline() -> ShardedPipeline {
    let mut rng = StdRng::seed_from_u64(7);
    let schema = RecordSchema::build(
        Alphabet::linkage(),
        vec![
            AttributeSpec::new("FirstName", 2, 64, false, 5),
            AttributeSpec::new("LastName", 2, 64, false, 5),
        ],
        &mut rng,
    );
    let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
    ShardedPipeline::new(schema, LinkageConfig::rule_aware(rule), 2, &mut rng).unwrap()
}

/// Opens a raw connection, upgrades it, and subscribes from op 0: what a
/// follower does, with the frames left undecoded.
fn raw_subscription(server: &Server) -> FrameReader<TcpStream> {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let upgrade = serde_json::to_string(&Request::Upgrade {
        max_version: PROTOCOL_VERSION,
    })
    .unwrap();
    stream.write_all(format!("{upgrade}\n").as_bytes()).unwrap();
    // The reply line is read byte by byte: the next byte is framed.
    let mut byte = [0u8; 1];
    while byte[0] != b'\n' {
        stream.read_exact(&mut byte).unwrap();
    }
    let mut payload = Vec::new();
    let subscribe = Request::Subscribe {
        from_seq: 0,
        epoch: 0,
    };
    encode_request(1, &subscribe, &mut payload).unwrap();
    let mut frame = Vec::new();
    rl_wire::encode_frame_into(TAG_REQUEST, &payload, &mut frame);
    stream.write_all(&frame).unwrap();
    FrameReader::new(stream)
}

#[test]
fn a_replicated_wal_frame_is_its_seq_then_the_wal_frame_payload() {
    let dir = scratch("wire");
    write_segment(&dir);
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        repl_role: ReplRole::Primary,
        durability: Some(DurabilityConfig {
            data_dir: dir.clone(),
            sync: SyncPolicy::Always,
            checkpoint_every: None,
        }),
        ..ServerConfig::default()
    };
    let server = Server::spawn_durable(|| Ok(pipeline()), config).unwrap();

    // TAG_WAL (3) for an un-stamped frame, TAG_WAL_E (5) for a stamped one;
    // the marker is not shipped. Op seqs count from 1.
    let op_payloads = [PAYLOADS[0], PAYLOADS[1], PAYLOADS[3], PAYLOADS[4]];
    let tags = [3u8, 3, 5, 5];
    let mut frames = raw_subscription(&server);
    let mut shipped = Vec::new();
    while shipped.len() < op_payloads.len() {
        let (tag, payload) = frames.read_frame().unwrap().unwrap();
        if tag != TAG_RESPONSE {
            shipped.push((tag, payload.to_vec()));
        }
    }
    drop(frames);
    for (i, (tag, payload)) in shipped.iter().enumerate() {
        let mut golden = (i as u64 + 1).to_le_bytes().to_vec();
        golden.extend_from_slice(op_payloads[i]);
        assert_eq!((*tag, payload), (tags[i], &golden), "frame {i}");
    }

    // A follower's client decodes them back into the ops and their epochs.
    let mut sub = Client::connect(server.local_addr()).unwrap();
    sub.send(&Request::Subscribe {
        from_seq: 0,
        epoch: 0,
    })
    .unwrap();
    let mut received = Vec::new();
    while received.len() < op_payloads.len() {
        match sub.recv().unwrap() {
            Reply::WalFrame { seq, op, epoch } => received.push((seq, epoch, op)),
            Reply::Heartbeat { .. } => {}
            other => panic!("unexpected stream reply: {other:?}"),
        }
    }
    let expected: Vec<(u64, u64, WalOp)> = segment_ops()
        .into_iter()
        .enumerate()
        .map(|(i, (epoch, op))| (i as u64 + 1, epoch, op))
        .collect();
    assert_eq!(received, expected);
    drop(sub);

    let control = Client::connect(server.local_addr()).unwrap();
    control.shutdown().unwrap();
    server.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

fn three_field_pipeline() -> ShardedPipeline {
    let mut rng = StdRng::seed_from_u64(7);
    let spec = |name| AttributeSpec::new(name, 2, 64, false, 5);
    let schema = RecordSchema::build(
        Alphabet::linkage(),
        vec![spec("FirstName"), spec("MiddleName"), spec("LastName")],
        &mut rng,
    );
    let rule = Rule::and([Rule::pred(0, 4), Rule::pred(2, 4)]);
    ShardedPipeline::new(schema, LinkageConfig::rule_aware(rule), 2, &mut rng).unwrap()
}

#[test]
fn a_served_binary_insert_is_logged_as_its_tag_then_the_record_body() {
    let dir = scratch("served-insert");
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        durability: Some(DurabilityConfig {
            data_dir: dir.clone(),
            sync: SyncPolicy::Always,
            checkpoint_every: None,
        }),
        ..ServerConfig::default()
    };
    let server = Server::spawn_durable(|| Ok(three_field_pipeline()), config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.insert(&[record()]).unwrap(), (1, 1));
    client.shutdown().unwrap();
    server.wait();

    // `RLWAL2\0\0`, then one un-stamped frame: its header (magic, version,
    // tag 1, payload length 30, CRC-32), OP_INSERT, and the record body.
    let mut golden = WAL_MAGIC.to_vec();
    golden.extend_from_slice(&[82, 87, 1, 1, 30, 0, 0, 0, 45, 33, 111, 195]);
    golden.push(1); // OP_INSERT
    golden.extend_from_slice(BODY);
    let segments: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    assert_eq!(segments.len(), 1, "{segments:?}");
    assert_eq!(std::fs::read(&segments[0]).unwrap(), golden);
    std::fs::remove_dir_all(&dir).unwrap();
}
