//! The one transport over real TCP: the `Upgrade` handshake and its
//! refusals, frames split across TCP segments, malformed frame bodies,
//! the full typed API, pipelined probes, and corrupt / truncated frame
//! handling on the client side.

mod common;

use common::{pipeline, records};
use record_linkage::cbv_hb::Record;
use record_linkage::server::protocol::wire;
use record_linkage::server::{
    Client, ClientError, ErrorCode, Reply, Request, Response, Server, ServerConfig,
};
use rl_wire::FrameReader;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Sends `first_line` on a fresh connection and returns the one line the
/// server answers it with, plus the connection.
fn open_with(addr: SocketAddr, first_line: &str) -> (Response, BufReader<TcpStream>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    stream.write_all(first_line.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response =
        serde_json::from_str(&line).unwrap_or_else(|e| panic!("not a response line ({e}): {line}"));
    (response, reader)
}

/// A raw framed connection: the handshake done by hand, then frames.
fn raw_connect(addr: SocketAddr) -> (TcpStream, FrameReader<TcpStream>) {
    let (response, reader) = open_with(addr, "{\"Upgrade\":{\"max_version\":11}}\n");
    assert_eq!(response, Response::Ok(Reply::Upgraded { version: 11 }));
    assert!(
        reader.buffer().is_empty(),
        "nothing follows the ack unasked"
    );
    let stream = reader.into_inner();
    let frames = FrameReader::new(stream.try_clone().unwrap());
    (stream, frames)
}

fn request_frame(id: u64, request: &Request) -> Vec<u8> {
    let mut payload = Vec::new();
    wire::encode_request(id, request, &mut payload).unwrap();
    let mut frame = Vec::new();
    rl_wire::encode_frame_into(wire::TAG_REQUEST, &payload, &mut frame);
    frame
}

fn read_response(frames: &mut FrameReader<TcpStream>) -> (u64, Response) {
    let (tag, payload) = frames.read_frame().unwrap().expect("a response frame");
    assert_eq!(tag, wire::TAG_RESPONSE);
    wire::decode_response(payload).unwrap()
}

fn assert_refused_then_closed(addr: SocketAddr, first_line: &str, code: ErrorCode) -> String {
    let (response, mut reader) = open_with(addr, first_line);
    let Response::Err(err) = response else {
        panic!("{first_line:?} must be refused, got {response:?}")
    };
    assert_eq!(err.code, code, "{}", err.message);
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "exactly one line, then EOF: {rest:?}");
    err.message
}

#[test]
fn non_upgrade_first_line_gets_one_typed_error_line_then_eof() {
    let server = Server::spawn(pipeline(60, 1), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    // Garbage, and a well-formed request of the retired line protocol.
    assert_refused_then_closed(addr, "this is not json\n", ErrorCode::Parse);
    let message = assert_refused_then_closed(addr, "{\"Stats\":null}\n", ErrorCode::Parse);
    assert!(message.contains("Upgrade"), "says what to send: {message}");
    Client::connect(addr).unwrap().shutdown().unwrap();
    server.wait();
}

#[test]
fn upgrade_below_the_first_binary_version_is_refused() {
    let server = Server::spawn(pipeline(61, 1), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let message = assert_refused_then_closed(
        addr,
        "{\"Upgrade\":{\"max_version\":6}}\n",
        ErrorCode::Unavailable,
    );
    assert!(message.contains("version 6"), "{message}");
    Client::connect(addr).unwrap().shutdown().unwrap();
    server.wait();
}

#[test]
fn client_surfaces_a_refused_handshake_as_the_typed_error() {
    // A peer that answers the `Upgrade` line with an error (a pre-framing
    // server did, with `Parse`): the client reports it; there is no
    // second transport to fall back to.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mock = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("Upgrade"),
            "client must negotiate before anything else, got: {line}"
        );
        let out = "{\"Err\":{\"code\":\"Parse\",\"message\":\"bad request: unknown variant `Upgrade`\"}}\n";
        (&stream).write_all(out.as_bytes()).unwrap();
    });
    match Client::connect(addr) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Parse),
        other => panic!("expected the typed refusal, got {:?}", other.err()),
    }
    mock.join().unwrap();
}

#[test]
fn frame_split_across_tcp_segments_survives_poll_timeouts() {
    // The reactor's poll times out every 100 ms with nothing to read;
    // bytes of a partial frame must ride in the connection buffer across
    // those wake-ups, wherever the split falls.
    let server = Server::spawn(pipeline(66, 1), ServerConfig::default()).unwrap();
    let (mut stream, mut frames) = raw_connect(server.local_addr());
    let frame = request_frame(7, &Request::Stats);
    let mid_header = rl_wire::HEADER_LEN / 2;
    let mid_payload = rl_wire::HEADER_LEN + (frame.len() - rl_wire::HEADER_LEN) / 2;
    for (id, cut) in [(7, mid_header), (8, mid_payload)] {
        let frame = request_frame(id, &Request::Stats);
        stream.write_all(&frame[..cut]).unwrap();
        std::thread::sleep(Duration::from_millis(350));
        stream.write_all(&frame[cut..]).unwrap();
        match read_response(&mut frames) {
            (got, Response::Ok(Reply::Stats(stats))) => {
                assert_eq!(got, id);
                assert_eq!(stats.protocol_version, 11);
            }
            other => panic!("split frame was not answered as one request: {other:?}"),
        }
    }
    stream
        .write_all(&request_frame(9, &Request::Shutdown))
        .unwrap();
    assert_eq!(
        read_response(&mut frames),
        (9, Response::Ok(Reply::ShuttingDown))
    );
    assert!(
        frames.read_frame().unwrap().is_none(),
        "the Shutdown ack closes the connection"
    );
    server.wait();
}

#[test]
fn malformed_frame_body_gets_typed_parse_and_the_connection_survives() {
    let server = Server::spawn(pipeline(67, 1), ServerConfig::default()).unwrap();
    let (mut stream, mut frames) = raw_connect(server.local_addr());
    // A well-framed (CRC-valid) request whose body is not a request: id,
    // the JSON body format byte, then text that is not JSON.
    let mut payload = 5u64.to_le_bytes().to_vec();
    payload.push(0);
    payload.extend_from_slice(b"this is not json");
    let mut frame = Vec::new();
    rl_wire::encode_frame_into(wire::TAG_REQUEST, &payload, &mut frame);
    stream.write_all(&frame).unwrap();
    match read_response(&mut frames) {
        (_, Response::Err(e)) => assert_eq!(e.code, ErrorCode::Parse, "{}", e.message),
        other => panic!("expected a typed Parse error, got {other:?}"),
    }
    // Framing was intact, so the stream is still in sync.
    stream
        .write_all(&request_frame(6, &Request::Stats))
        .unwrap();
    assert!(matches!(
        read_response(&mut frames),
        (6, Response::Ok(Reply::Stats(_)))
    ));
    // A frame that fails its CRC has no resync point: the server closes.
    let mut corrupt = request_frame(7, &Request::Stats);
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x40;
    stream.write_all(&corrupt).unwrap();
    assert!(frames.read_frame().unwrap().is_none(), "closed, no reply");
    Client::connect(server.local_addr())
        .unwrap()
        .shutdown()
        .unwrap();
    server.wait();
}

/// A JSON body nested past the parser's recursion limit of 128 — a 40 KB
/// `[[[…]]]` 20 000 deep, which overflowed the reactor thread's stack and
/// aborted the server before the limit — is refused with a typed `Parse`
/// error, and the connection and the server keep serving.
#[test]
fn a_deeply_nested_json_body_is_a_typed_parse_error() {
    let server = Server::spawn(pipeline(68, 1), ServerConfig::default()).unwrap();
    let (mut stream, mut frames) = raw_connect(server.local_addr());
    let mut payload = 8u64.to_le_bytes().to_vec();
    payload.push(0);
    payload.extend_from_slice("[".repeat(20_000).as_bytes());
    payload.extend_from_slice("]".repeat(20_000).as_bytes());
    let mut frame = Vec::new();
    rl_wire::encode_frame_into(wire::TAG_REQUEST, &payload, &mut frame);
    stream.write_all(&frame).unwrap();
    match read_response(&mut frames) {
        (_, Response::Err(e)) => {
            assert_eq!(e.code, ErrorCode::Parse, "{}", e.message);
            assert!(e.message.contains("recursion limit"), "{}", e.message);
        }
        other => panic!("expected a typed Parse error, got {other:?}"),
    }
    stream
        .write_all(&request_frame(9, &Request::Stats))
        .unwrap();
    assert!(matches!(
        read_response(&mut frames),
        (9, Response::Ok(Reply::Stats(_)))
    ));
    drop((stream, frames));
    Client::connect(server.local_addr())
        .unwrap()
        .shutdown()
        .unwrap();
    server.wait();
}

#[test]
fn binary_session_serves_the_full_typed_api() {
    let server = Server::spawn(pipeline(62, 2), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    client.index(&records(4, 0, 100)).unwrap();
    let (pairs, _) = client.probe(&records(4, 1000, 100)).unwrap();
    // Every identity pair must match (a rare extra hash-collision pair is
    // fine — this asserts the transport, not the matcher).
    for i in 0..100 {
        assert!(pairs.contains(&(i, 1000 + i)), "missing identity pair {i}");
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.indexed, 100);
    assert!(client.metrics().is_ok());
    let matches = client
        .stream(&Record::new(5000, ["NOSUCH", "PERSON"]))
        .unwrap();
    assert!(matches.is_empty());

    // (`stream` above indexed its record, hence 101.)
    assert_eq!(client.stats().unwrap().indexed, 101);

    // Typed errors survive the frame envelope.
    let err = client.probe(&[Record::new(1, ["ONLY"])]).unwrap_err();
    match err {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::Linkage),
        other => panic!("expected typed server error, got {other:?}"),
    }
    assert_eq!(client.stats().unwrap().indexed, 101, "connection survives");

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn pipelined_probes_match_sequential_results() {
    let server = Server::spawn(pipeline(63, 2), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.index(&records(7, 0, 200)).unwrap();

    let batches: Vec<Vec<Record>> = (0..16).map(|b| records(7, 5000 + b * 100, 10)).collect();
    let sequential: Vec<_> = batches.iter().map(|b| client.probe(b).unwrap()).collect();
    let pipelined = client.probe_pipelined(&batches, 4).unwrap();
    assert_eq!(pipelined.len(), batches.len());
    for (i, (seq, pipe)) in sequential.iter().zip(&pipelined).enumerate() {
        assert_eq!(
            seq.0, pipe.0,
            "batch {i} pairs must not depend on pipelining"
        );
    }

    // Depth 1 degenerates to lockstep; same answers.
    let lockstep = client.probe_pipelined(&batches, 1).unwrap();
    assert_eq!(lockstep.len(), pipelined.len());
    for (a, b) in pipelined.iter().zip(&lockstep) {
        assert_eq!(a.0, b.0);
    }

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn pipelined_error_is_typed_and_connection_survives() {
    let server = Server::spawn(pipeline(64, 1), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.index(&records(9, 0, 50)).unwrap();

    // One malformed batch (wrong field count) in the middle: the call
    // reports the typed error after draining every in-flight reply, so
    // the connection is immediately reusable.
    let mut batches: Vec<Vec<Record>> = (0..6).map(|b| records(9, 2000 + b * 50, 5)).collect();
    batches[2] = vec![Record::new(1, ["ONLY"])];
    let err = client.probe_pipelined(&batches, 3).unwrap_err();
    match err {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::Linkage),
        other => panic!("expected typed server error, got {other:?}"),
    }
    assert_eq!(client.stats().unwrap().indexed, 50, "no desync after error");

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn an_acknowledged_insert_is_searchable_from_any_connection() {
    let server = Server::spawn(pipeline(66, 3), ServerConfig::default()).unwrap();
    let mut writer = Client::connect(server.local_addr()).unwrap();
    let mut reader = Client::connect(server.local_addr()).unwrap();
    // One record, a handful, and a bulk request spread over every shard:
    // `Indexed` means searchable for each, so the other connection needs
    // no fence after the acknowledgement.
    let mut next = 0u64;
    for size in [1u64, 7, 900] {
        let batch = records(12, next, size);
        // `records` names by position, so these are the batch's twins.
        let twins = records(12, 50_000 + next, size);
        next += size;
        assert_eq!(writer.insert(&batch).unwrap().0, batch.len());
        let (pairs, _) = reader.probe(&twins).unwrap();
        for (rec, twin) in batch.iter().zip(&twins) {
            assert!(
                pairs.contains(&(rec.id, twin.id)),
                "record {} of a {size}-record insert was acknowledged but not found",
                rec.id
            );
        }
    }
    drop(reader);
    writer.shutdown().unwrap();
    server.wait();
}

#[test]
fn a_connection_stalled_mid_frame_is_no_company_for_a_lone_probe() {
    let server = Server::spawn(pipeline(67, 2), ServerConfig::default()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();
    b.index(&records(13, 0, 20)).unwrap();
    // (executed on the reactor, passed to the pool for company in the turn)
    let probe_paths = |client: &mut Client| {
        let m = client.metrics().unwrap();
        let count = |name, label| m.counter_value(name, label).unwrap();
        (
            count("rl_probes_inline_total", None),
            count("rl_probes_inline_declined_total", Some("not_alone")),
        )
    };

    // A sends half a frame and stops. The `Metrics` round trip that
    // follows it puts those bytes in the reactor's buffer, where they
    // stay, turn after turn.
    let (mut a, mut a_frames) = raw_connect(server.local_addr());
    let frame = request_frame(1, &Request::Stats);
    a.write_all(&frame[..frame.len() / 2]).unwrap();
    assert_eq!(probe_paths(&mut b), (0, 0));

    let twins = records(13, 900, 3);
    for twin in &twins {
        b.probe(std::slice::from_ref(twin)).unwrap();
    }
    assert_eq!(
        probe_paths(&mut b),
        (twins.len() as u64, 0),
        "half a frame on another connection is not a request"
    );

    a.write_all(&frame[frame.len() / 2..]).unwrap();
    assert!(matches!(
        read_response(&mut a_frames),
        (1, Response::Ok(Reply::Stats(_)))
    ));
    drop((a, a_frames));
    b.shutdown().unwrap();
    server.wait();
}

/// Accepts one connection, performs the JSON upgrade handshake, then
/// hands the raw stream to `after` for byte-level misbehaviour.
fn mock_v7_server(
    after: impl FnOnce(std::net::TcpStream) + Send + 'static,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("Upgrade"));
        let ack = serde_json::to_string(&Response::Ok(Reply::Upgraded { version: 11 })).unwrap();
        (&stream).write_all(format!("{ack}\n").as_bytes()).unwrap();
        after(stream);
    });
    (addr, handle)
}

#[test]
fn mid_frame_close_is_frame_corrupt() {
    let (addr, mock) = mock_v7_server(|stream| {
        // Read the client's Stats frame, then answer with a frame header
        // that promises more payload than will ever arrive and close.
        let mut buf = [0u8; 1024];
        let _ = (&stream).read(&mut buf).unwrap();
        let mut frame = Vec::new();
        rl_wire::encode_frame_into(2, b"this payload is cut off", &mut frame);
        (&stream).write_all(&frame[..frame.len() - 10]).unwrap();
        drop(stream);
    });
    let mut client = Client::connect(addr).unwrap();
    client.send(&Request::Stats).unwrap();
    match client.recv() {
        Err(ClientError::FrameCorrupt(_)) => {}
        other => panic!("mid-frame close must be FrameCorrupt, got {other:?}"),
    }
    mock.join().unwrap();
}

#[test]
fn bit_flipped_frame_is_frame_corrupt_not_misparse() {
    let (addr, mock) = mock_v7_server(|stream| {
        let mut buf = [0u8; 1024];
        let _ = (&stream).read(&mut buf).unwrap();
        // A complete, well-formed response frame with one payload bit
        // flipped: the CRC must reject it; it must never decode.
        let mut payload = Vec::new();
        record_linkage::server::protocol::wire::encode_response(
            1,
            &Response::Ok(Reply::ShuttingDown),
            &mut payload,
        )
        .unwrap();
        let mut frame = Vec::new();
        rl_wire::encode_frame_into(2, &payload, &mut frame);
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        (&stream).write_all(&frame).unwrap();
        drop(stream);
    });
    let mut client = Client::connect(addr).unwrap();
    client.send(&Request::Stats).unwrap();
    match client.recv() {
        Err(ClientError::FrameCorrupt(_)) => {}
        other => panic!("a bit flip must be FrameCorrupt, got {other:?}"),
    }
    mock.join().unwrap();
}

#[test]
fn silence_after_the_handshake_is_a_timeout_not_a_hang() {
    let (addr, mock) = mock_v7_server(|stream| {
        // Swallow the request, answer nothing, hold the socket open.
        let mut buf = [0u8; 1024];
        let _ = (&stream).read(&mut buf).unwrap();
        std::thread::sleep(Duration::from_secs(1));
        drop(stream);
    });
    let mut client = Client::connect_with_timeout(addr, Some(Duration::from_millis(200))).unwrap();
    let t0 = std::time::Instant::now();
    match client.call(&Request::Snapshot { path: None }) {
        Err(ClientError::Timeout) => {}
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_millis(900),
        "returned promptly"
    );
    mock.join().unwrap();
}

#[test]
fn shutdown_round_trips() {
    let server = Server::spawn(pipeline(65, 1), ServerConfig::default()).unwrap();
    let client = Client::connect(server.local_addr()).unwrap();
    client.shutdown().unwrap();
    server.wait();
}

/// The options that selected the deleted paths are gone from the CLI, not
/// silently ignored; so is a flag of another subcommand (`--workers` is
/// `serve`'s, `--record-level` `link`'s, `--blocking` `link`'s and
/// `serve`'s).
#[test]
fn cli_rejects_the_retired_transport_flags() {
    for args in [
        &["serve", "--rule", "0<=4", "--fields", "1", "--no-reactor"][..],
        &["client", "--json", "--cmd", "stats"][..],
        &[
            "serve",
            "--rule",
            "0<=4",
            "--fields",
            "1",
            "--block-compact-ratio",
            "0.3",
        ][..],
        &[
            "link",
            "--a",
            "a.csv",
            "--b",
            "b.csv",
            "--rule",
            "0<=4",
            "--out",
            "m.csv",
            "--workers",
            "4",
        ][..],
        &[
            "serve",
            "--rule",
            "0<=4",
            "--fields",
            "1",
            "--record-level",
            "4:5",
        ][..],
        &[
            "dedup",
            "--input",
            "d.csv",
            "--rule",
            "0<=4",
            "--out",
            "c.csv",
            "--blocking",
            "covering",
        ][..],
        &[
            "link",
            "--a",
            "a.csv",
            "--b",
            "b.csv",
            "--rule",
            "0<=4",
            "--out",
            "m.csv",
            "--block-store",
            "mmap",
        ][..],
        &["calibrate", "--input", "d.csv", "--header]"][..],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_rl"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
    }
}
