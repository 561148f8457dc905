//! What a connection's responses travel through: the outbox a reactor
//! connection's workers complete into, and the blocking frame writer a
//! streaming verb uses once it owns its connection.

use crate::metrics::ReqType;
use crate::protocol::{wire, ErrorCode, Request, RequestError, Response};
use crate::server::Inner;
use cbv_hb::buffers::RETAIN_BYTES;
use parking_lot::Mutex;
use rl_store::ReadFrame;
use std::cell::Cell;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The worker-visible half of a reactor connection: response bytes go
/// into `outbox`, `in_flight` gates close and detach, and `wake` pokes
/// the reactor's poll loop so it notices bytes a worker put there. The
/// reactor's own pushes (handshake lines, refusals, replies it computed
/// itself) need no poke: it flushes the outbox in the same turn.
pub(crate) struct ConnShared {
    pub(crate) outbox: Mutex<Vec<u8>>,
    pub(crate) in_flight: AtomicUsize,
    wake: Box<dyn Fn() + Send + Sync>,
}

impl ConnShared {
    pub(crate) fn new(wake: Box<dyn Fn() + Send + Sync>) -> Self {
        Self {
            outbox: Mutex::new(Vec::new()),
            in_flight: AtomicUsize::new(0),
            wake,
        }
    }

    /// Reactor thread: appends already-serialized bytes (a handshake
    /// line) to the outbox.
    pub(crate) fn push_bytes(&self, bytes: &[u8]) {
        self.outbox.lock().extend_from_slice(bytes);
    }

    /// Appends one response frame to the outbox.
    pub(crate) fn push_response(&self, id: u64, response: &Response) {
        self.push_with(|payload| encode_reply(id, response, payload));
    }

    /// Appends the response payload `encode` writes as one frame to the
    /// outbox ([`push_reply`]).
    pub(crate) fn push_with(&self, encode: impl FnOnce(&mut Vec<u8>)) {
        push_reply(&self.outbox, |payload| {
            encode(payload);
            Some(())
        });
    }

    /// Worker thread, after it pushed a job's response: the in-flight
    /// decrement and the wake, in that order. The reactor only closes a
    /// drained connection once `in_flight` is zero AND the outbox is empty,
    /// so the response bytes must be visible before the counter drops.
    pub(crate) fn complete(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        (self.wake)();
    }
}

thread_local! {
    /// The calling thread's response payload buffer ([`push_reply`]).
    static PAYLOAD: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Runs `encode` with the thread's response payload buffer, empty, and —
/// if it returns `Some` — appends the payload it left there to `outbox` as
/// one response frame. The buffer is kept for the thread's next reply
/// unless it grew past [`RETAIN_BYTES`], as the engine keeps its probe
/// buffers: a steady-state reply allocates nothing, and the frame lands in
/// the outbox without a buffer of its own.
pub(crate) fn push_reply<T>(
    outbox: &Mutex<Vec<u8>>,
    encode: impl FnOnce(&mut Vec<u8>) -> Option<T>,
) -> Option<T> {
    let mut payload = PAYLOAD.try_with(Cell::take).unwrap_or_default();
    payload.clear();
    let encoded = encode(&mut payload);
    if encoded.is_some() {
        rl_wire::encode_frame_into(wire::TAG_RESPONSE, &payload, &mut outbox.lock());
    }
    if payload.capacity() > RETAIN_BYTES {
        payload = Vec::new();
    }
    let _ = PAYLOAD.try_with(move |slot| slot.set(payload));
    encoded
}

/// Encodes `response` under `id` into `payload` (cleared first); a
/// response that does not encode becomes a typed `Parse` error.
pub(crate) fn encode_reply(id: u64, response: &Response, payload: &mut Vec<u8>) {
    if wire::encode_response(id, response, payload).is_err() {
        let fallback = Response::Err(RequestError::new(ErrorCode::Parse, "encode"));
        let _ = wire::encode_response(id, &fallback, payload);
    }
}

/// The write half of a connection a streaming verb owns. `id` is the
/// originating request's id: every response (stream pushes included)
/// carries it, so the client can attribute stream frames to the call
/// that opened them.
pub(crate) struct StreamWriter {
    stream: TcpStream,
    id: u64,
    payload: Vec<u8>,
    frame: Vec<u8>,
}

impl StreamWriter {
    fn new(stream: TcpStream, id: u64) -> Self {
        Self {
            stream,
            id,
            payload: Vec::new(),
            frame: Vec::new(),
        }
    }

    /// The underlying socket (timeout configuration, and the read half
    /// follower acks arrive on).
    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    fn write_frame(&mut self) -> std::io::Result<()> {
        self.stream.write_all(&self.frame)?;
        self.stream.flush()
    }

    /// Writes one response frame.
    pub(crate) fn write_response(&mut self, response: &Response) -> std::io::Result<()> {
        encode_reply(self.id, response, &mut self.payload);
        self.frame.clear();
        rl_wire::encode_frame_into(wire::TAG_RESPONSE, &self.payload, &mut self.frame);
        self.write_frame()
    }

    /// Ships one WAL op frame as the segment holds it: a
    /// [`wire::TAG_WAL`] / [`wire::TAG_WAL_E`] frame whose payload is `seq
    /// ‖` the frame's payload.
    pub(crate) fn write_wal(&mut self, seq: u64, frame: &ReadFrame<'_>) -> std::io::Result<()> {
        let tag = wire::encode_wal(seq, frame.tag, frame.payload, &mut self.payload);
        self.frame.clear();
        rl_wire::encode_frame_into(tag, &self.payload, &mut self.frame);
        self.write_frame()
    }

    /// Ships one checkpoint chunk as the raw bytes of a
    /// [`wire::TAG_CHUNK`] frame.
    pub(crate) fn write_chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        self.frame.clear();
        rl_wire::encode_frame_into(wire::TAG_CHUNK, data, &mut self.frame);
        self.write_frame()
    }
}

/// True for the verbs [`serve_stream`] handles: they answer with many
/// frames and so cannot round-trip through the one-reply job queue.
pub(crate) fn is_streaming(request: &Request) -> bool {
    matches!(
        request,
        Request::FetchCheckpoint | Request::Subscribe { .. } | Request::SubscribeMatches { .. }
    )
}

/// Body of the dedicated thread a streaming connection is detached to
/// (`stream` is already back in blocking mode): serves `request`, one of
/// the [`is_streaming`] verbs, and closes the connection when the stream
/// ends — whether it ran to completion, was refused with a single error
/// frame, or the peer went away. A stream has no framing left to
/// resynchronize on, so the connection never returns to request/reply
/// service.
pub(crate) fn serve_stream(inner: &Arc<Inner>, stream: TcpStream, request: Request, id: u64) {
    let mut writer = StreamWriter::new(stream, id);
    match request {
        Request::FetchCheckpoint => {
            inner.metrics.record_streaming(ReqType::FetchCheckpoint);
            crate::repl::serve_fetch_checkpoint(inner, &mut writer);
        }
        Request::Subscribe { from_seq, epoch } => {
            inner.metrics.record_streaming(ReqType::Subscribe);
            crate::repl::serve_subscribe(inner, &mut writer, from_seq, epoch);
        }
        Request::SubscribeMatches {
            rule,
            window,
            late,
            cap,
        } => {
            inner.metrics.record_streaming(ReqType::SubscribeMatches);
            crate::subs::serve_subscribe_matches(inner, &mut writer, &rule, window, late, cap);
        }
        _ => {}
    }
}
