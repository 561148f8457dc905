//! The readiness-driven connection reactor.
//!
//! One thread owns every request/reply connection: a `poll(2)` loop over
//! the listener, a self-pipe waker, and all live sockets. Connections
//! cost a buffer each, not a thread each, and a connection may have many
//! requests in flight at once — the reactor keeps parsing frames while
//! workers execute earlier ones, and workers push each response into the
//! connection's outbox as it completes (correlated by request id, so
//! out-of-order completion is fine).
//!
//! A connection opens with one JSON line, `{"Upgrade":{"max_version":N}}`,
//! answered with one JSON `Upgraded` line; everything after it is
//! `rl-wire` frames. Any other first line, or a `max_version` below
//! [`FIRST_BINARY_VERSION`], gets one typed JSON error line and a close.
//!
//! Streaming verbs (`FetchCheckpoint`, `Subscribe`, `SubscribeMatches`)
//! are long-lived and blocking by design; the reactor *detaches* such a
//! connection — flushes its outbox, flips the socket back to blocking,
//! and hands it to a dedicated thread that owns it until the stream ends
//! ([`crate::conn::serve_stream`]). The reactor never blocks on anyone,
//! and joins every such thread before [`Reactor::run`] returns.
//!
//! One kind of request the reactor executes itself rather than enqueue:
//! a single-record `Probe` that is alone in its turn of the loop and finds
//! every lock free (the rule and its bound are in [`crate::server`]'s
//! module docs; [`probe_inline`]). Its reply goes straight into the
//! outbox this thread flushes before it polls again.
//!
//! Pinned behaviours: partial requests ride in the connection buffer
//! until complete; a `Shutdown` ack is written and then the connection
//! closes; a full job queue answers typed `Backpressure` immediately;
//! shutdown finishes in-flight requests and flushes outboxes before
//! closing; a connection whose peer pipelines requests without reading
//! the replies stops being read once [`MAX_BUFFERED`] bytes are waiting
//! in either direction.

use crate::conn::{encode_reply, is_streaming, push_reply, serve_stream, ConnShared};
use crate::handlers::try_probe;
use crate::metrics::ReqType;
use crate::protocol::wire::{self, RequestRef, Verb};
use crate::protocol::{
    ErrorCode, Reply, Request, RequestError, Response, FIRST_BINARY_VERSION, PROTOCOL_VERSION,
};
use crate::server::{account, begin_shutdown, guarded, Inner, Job, Work};
use cbv_hb::RecordView;
use crossbeam::channel::{Sender, TrySendError};
use parking_lot::Mutex;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Poll timeout: the cadence at which the reactor re-checks the shutdown
/// flag even with no socket activity (the waker usually wakes it first).
const POLL_TIMEOUT_MS: c_int = 100;

/// Stop reading (and parsing) a connection holding this many bytes in
/// either direction — unparsed input, or responses its peer has not read;
/// both resume once the backlog drains. Bounds memory against a client
/// that floods pipelined requests faster than the workers drain them, or
/// never reads what it asked for.
const MAX_BUFFERED: usize = 4 * 1024 * 1024;

/// Longest handshake line accepted (the real one is ~30 bytes).
const MAX_HANDSHAKE_LINE: usize = 1024;

/// How long shutdown waits for in-flight responses to flush before
/// force-closing connections (mirrors the streaming write timeout).
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(10);

/// What connection parsing decided beyond ordinary dispatch.
enum Parsed {
    /// Keep the connection in the reactor.
    Keep,
    /// Unrecoverable framing/socket state: drop the connection.
    Close,
    /// Hand the connection to a dedicated blocking thread to serve this
    /// streaming request, answering under the given request id.
    Detach(Request, u64),
}

struct Conn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    /// Bytes read but not yet parsed; `rpos` is the consumed prefix.
    rbuf: Vec<u8>,
    rpos: usize,
    /// The `Upgrade` handshake is done; input is frames from here on.
    upgraded: bool,
    /// Peer closed its write half; serve what's buffered, then close.
    eof: bool,
    /// Stop parsing (Shutdown acked, or handshake refused); close once
    /// the outbox has drained.
    closing: bool,
    dead: bool,
}

impl Conn {
    fn unparsed(&self) -> usize {
        self.rbuf.len() - self.rpos
    }

    fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    fn outbox_len(&self) -> usize {
        self.shared.outbox.lock().len()
    }

    /// Drained and finished: nothing buffered in, nothing pending out.
    fn done(&self) -> bool {
        (self.eof || self.closing) && self.in_flight() == 0 && self.outbox_len() == 0
    }

    /// Whether this turn's parse will find something to act on: a whole
    /// frame (or handshake line) buffered, and no gate that skips the
    /// parse. A frame still arriving — a stalled client's, or a large
    /// insert's over many turns — is nobody's request yet.
    fn has_request(&self) -> bool {
        let buf = &self.rbuf[self.rpos..];
        let whole = if self.upgraded {
            rl_wire::frame_buffered(buf)
        } else {
            buf.contains(&b'\n')
        };
        whole && !self.dead && !self.closing && self.outbox_len() <= MAX_BUFFERED
    }

    fn push(&self, id: u64, response: &Response) {
        self.shared.push_response(id, response);
    }

    /// Answers the handshake: one JSON line, the only one a connection
    /// ever carries in this direction.
    fn push_line(&self, response: &Response) {
        let mut line = serde_json::to_string(response)
            .unwrap_or_else(|_| "{\"Err\":{\"code\":\"Parse\",\"message\":\"encode\"}}".into());
        line.push('\n');
        self.shared.push_bytes(line.as_bytes());
    }

    /// Refuses the handshake: one typed error line, then close once it
    /// has been written.
    fn refuse(&mut self, code: ErrorCode, message: &str) -> Parsed {
        self.push_line(&Response::Err(RequestError::new(code, message)));
        self.closing = true;
        Parsed::Keep
    }
}

/// Whether the reactor should take more input from a connection: not
/// after EOF or a close decision, and not while [`MAX_BUFFERED`] bytes
/// are already waiting to be parsed or to be read by the peer.
fn wants_input(eof: bool, closing: bool, unparsed: usize, outbox_len: usize) -> bool {
    !eof && !closing && unparsed < MAX_BUFFERED && outbox_len <= MAX_BUFFERED
}

/// The listener and the self-pipe waker, set up (fallibly) before the
/// reactor thread starts so a socket that cannot go nonblocking is an
/// error from `Server::spawn*`, not a server that silently serves nothing.
pub(crate) struct Reactor {
    listener: TcpListener,
    wake_rx: UnixStream,
    wake_tx: Arc<UnixStream>,
}

impl Reactor {
    pub(crate) fn new(listener: TcpListener) -> std::io::Result<Self> {
        listener.set_nonblocking(true)?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        Ok(Self {
            listener,
            wake_rx,
            wake_tx: Arc::new(wake_tx),
        })
    }

    /// Runs until shutdown has drained every connection, then joins the
    /// streaming threads it detached: when this returns, nothing the
    /// reactor started is still writing to a socket or reading the WAL.
    pub(crate) fn run(self, inner: &Arc<Inner>, job_tx: &Sender<Job>) {
        let mut streams: Vec<JoinHandle<()>> = Vec::new();
        self.serve(inner, job_tx, &mut streams);
        for handle in streams {
            let _ = handle.join();
        }
    }

    fn serve(&self, inner: &Arc<Inner>, job_tx: &Sender<Job>, streams: &mut Vec<JoinHandle<()>>) {
        let (listener, wake_tx) = (&self.listener, &self.wake_tx);
        // `Read` is implemented for `&UnixStream`; reading needs it `mut`.
        let mut wake_rx = &self.wake_rx;
        let mut conns: Vec<Conn> = Vec::new();
        let mut pollfds: Vec<PollFd> = Vec::new();
        let mut scratch = vec![0u8; 64 * 1024];
        let mut drain_deadline: Option<Instant> = None;

        loop {
            let shutting = inner.shutdown.load(Ordering::SeqCst);
            conns.retain(|c| !c.dead && !c.done());
            if shutting {
                if conns.is_empty() {
                    return;
                }
                // In-flight requests always run to completion, however long
                // the worker takes; the drain deadline only bounds how long
                // we wait for peers to *read* their already-computed
                // responses.
                if conns.iter().all(|c| c.in_flight() == 0) {
                    let deadline =
                        *drain_deadline.get_or_insert_with(|| Instant::now() + SHUTDOWN_DRAIN);
                    if Instant::now() >= deadline {
                        return;
                    }
                } else {
                    drain_deadline = None;
                }
            }

            // fds: [0] listener (while accepting), [1] waker, then conns.
            pollfds.clear();
            pollfds.push(PollFd {
                fd: listener.as_raw_fd(),
                events: if shutting { 0 } else { POLLIN },
                revents: 0,
            });
            pollfds.push(PollFd {
                fd: wake_rx.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            for conn in &conns {
                let outbox_len = conn.outbox_len();
                let mut events = 0;
                if wants_input(conn.eof, conn.closing, conn.unparsed(), outbox_len) {
                    events |= POLLIN;
                }
                if outbox_len > 0 {
                    events |= POLLOUT;
                }
                pollfds.push(PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
            }
            let rc = unsafe {
                poll(
                    pollfds.as_mut_ptr(),
                    pollfds.len() as c_ulong,
                    POLL_TIMEOUT_MS,
                )
            };
            if rc < 0 {
                let err = std::io::Error::last_os_error();
                if err.kind() != ErrorKind::Interrupted {
                    eprintln!("rl-server: reactor poll failed: {err}");
                    return;
                }
                continue;
            }

            // Drain the waker (workers poke it once per completed response).
            if pollfds[1].revents & POLLIN != 0 {
                while matches!(wake_rx.read(&mut scratch[..256]), Ok(n) if n > 0) {}
            }

            // Accept everything pending.
            if !shutting && pollfds[0].revents & POLLIN != 0 {
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            stream.set_nodelay(true).ok();
                            let tx = Arc::clone(wake_tx);
                            let shared = Arc::new(ConnShared::new(Box::new(move || {
                                let _ = (&*tx).write(&[1]);
                            })));
                            conns.push(Conn {
                                stream,
                                shared,
                                rbuf: Vec::new(),
                                rpos: 0,
                                upgraded: false,
                                eof: false,
                                closing: false,
                                dead: false,
                            });
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    }
                }
            }

            // Read every ready connection before parsing any: whether a
            // request is alone in this turn shows only once all of the
            // turn's input is in.
            for (i, conn) in conns.iter_mut().enumerate() {
                let revents = pollfds.get(2 + i).map(|p| p.revents).unwrap_or(0);
                if revents & (POLLERR | POLLHUP) != 0 {
                    // Half-closed peers still get their pending responses;
                    // POLLHUP with unread data keeps POLLIN set too, so only
                    // treat it as EOF, not instant death.
                    conn.eof = true;
                }
                if revents & POLLIN != 0 {
                    read_into(conn, &mut scratch);
                }
            }
            // True until the turn's first request has been parsed, and
            // only if a single connection has one.
            let mut lone = conns.iter().filter(|c| c.has_request()).count() == 1;

            // Parse/dispatch and flush each connection. Parsing runs every
            // iteration (not only on POLLIN): a worker completion, or the
            // peer reading its replies, can lift a gate with no new socket
            // bytes.
            let mut detached: Vec<(usize, Request, u64)> = Vec::new();
            for (i, conn) in conns.iter_mut().enumerate() {
                if conn.dead {
                    continue;
                }
                // Parsing continues during shutdown drain: handle_request
                // answers new work with a typed ShuttingDown error.
                if !conn.closing {
                    match parse_and_dispatch(inner, job_tx, conn, &mut lone) {
                        Parsed::Keep => {}
                        Parsed::Close => conn.dead = true,
                        Parsed::Detach(request, id) => {
                            detached.push((i, request, id));
                            continue;
                        }
                    }
                }
                flush_outbox(conn);
            }

            // Detach streaming connections (highest index first so removal
            // doesn't shift earlier ones).
            detached.sort_by_key(|d| std::cmp::Reverse(d.0));
            for (i, request, id) in detached {
                let conn = conns.remove(i);
                streams.retain(|h| !h.is_finished());
                streams.extend(detach(inner, conn, request, id));
            }
        }
    }
}

/// Nonblocking read into the connection buffer; flags EOF and errors.
fn read_into(conn: &mut Conn, scratch: &mut [u8]) {
    loop {
        match (&conn.stream).read(scratch) {
            Ok(0) => {
                conn.eof = true;
                return;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&scratch[..n]);
                if n < scratch.len() {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Parses and dispatches every complete request buffered, after the
/// handshake line that must come first. Compacts the consumed prefix
/// before returning. `lone`: no other connection has a request this turn
/// and none has been parsed in it yet.
fn parse_and_dispatch(
    inner: &Arc<Inner>,
    job_tx: &Sender<Job>,
    conn: &mut Conn,
    lone: &mut bool,
) -> Parsed {
    let result = loop {
        if conn.outbox_len() > MAX_BUFFERED {
            // The peer is not reading its replies; producing more would
            // grow the outbox without bound. Resume once it drains.
            break Parsed::Keep;
        }
        let step = if conn.upgraded {
            parse_frame(inner, job_tx, conn, lone)
        } else {
            parse_handshake(inner, conn)
        };
        match step {
            Ok(Some(parsed)) => break parsed,
            Ok(None) => {}
            Err(()) => break Parsed::Keep,
        }
    };
    if conn.rpos > 0 {
        conn.rbuf.drain(..conn.rpos);
        conn.rpos = 0;
    }
    result
}

/// The line that opens every connection: `Ok(Some)` ends parsing with a
/// verdict, `Ok(None)` consumed it and parsing may continue, `Err(())`
/// means it has not fully arrived.
fn parse_handshake(inner: &Arc<Inner>, conn: &mut Conn) -> Result<Option<Parsed>, ()> {
    const EXPECTED: &str = "a connection opens with the line {\"Upgrade\":{\"max_version\":N}}";
    let buf = &conn.rbuf[conn.rpos..];
    let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
        // A line that long, or one cut short by EOF, can never complete.
        if buf.len() > MAX_HANDSHAKE_LINE || (conn.eof && !buf.is_empty()) {
            return Ok(Some(conn.refuse(ErrorCode::Parse, EXPECTED)));
        }
        return Err(());
    };
    let line = serde_json::from_slice::<Request>(&buf[..nl]);
    conn.rpos += nl + 1;
    match line {
        Ok(Request::Upgrade { max_version }) if max_version >= FIRST_BINARY_VERSION => {
            inner.metrics.record_streaming(ReqType::Upgrade);
            let version = max_version.min(PROTOCOL_VERSION);
            conn.push_line(&Response::Ok(Reply::Upgraded { version }));
            conn.upgraded = true;
            Ok(None)
        }
        Ok(Request::Upgrade { max_version }) => Ok(Some(conn.refuse(
            ErrorCode::Unavailable,
            &format!(
                "protocol version {max_version} is the JSON-lines transport, which is no \
                 longer served; negotiate version {FIRST_BINARY_VERSION} or later (rl-wire frames)"
            ),
        ))),
        Ok(_) | Err(_) => Ok(Some(conn.refuse(ErrorCode::Parse, EXPECTED))),
    }
}

/// One frame (same contract as [`parse_handshake`]).
fn parse_frame(
    inner: &Arc<Inner>,
    job_tx: &Sender<Job>,
    conn: &mut Conn,
    lone: &mut bool,
) -> Result<Option<Parsed>, ()> {
    let buf = &conn.rbuf[conn.rpos..];
    let (tag, payload, consumed) = match rl_wire::peek_frame(buf, rl_wire::DEFAULT_MAX_FRAME) {
        Ok(Some(frame)) => frame,
        Ok(None) => {
            // A partial frame when the peer already closed can never
            // complete.
            if conn.eof && !buf.is_empty() {
                return Ok(Some(Parsed::Close));
            }
            return Err(());
        }
        // Corrupt framing has no resync point.
        Err(_) => return Ok(Some(Parsed::Close)),
    };
    if tag != wire::TAG_REQUEST {
        return Ok(Some(Parsed::Close));
    }
    // Alone in the turn: the first request parsed in it, no other
    // connection has one, and nothing is behind it in this one's buffer.
    let alone = std::mem::take(lone) && consumed == buf.len();
    let decoded = wire::decode_request_ref(payload);
    let (id, request) = match decoded {
        Ok(pair) => pair,
        Err(e) => {
            conn.rpos += consumed;
            conn.push(
                wire::PUSH_ID,
                &Response::Err(RequestError::new(
                    ErrorCode::Parse,
                    format!("bad request: {e}"),
                )),
            );
            return Ok(None);
        }
    };
    if matches!(&request, RequestRef::Other(r) if is_streaming(r)) && conn.in_flight() > 0 {
        // Detaching moves the socket to a blocking thread; in-flight
        // responses must land in the outbox first. Leave the frame
        // unconsumed and retry once the pipeline drains.
        return Err(());
    }
    let inline = probe_inline(inner, &conn.shared.outbox, id, &request, alone);
    let work = match request {
        _ if inline => None,
        RequestRef::Records(verb, records) => Some(Work::Records(verb, records.to_buf())),
        RequestRef::Other(request) => Some(Work::Request(request)),
    };
    conn.rpos += consumed;
    match work {
        Some(work) => handle_request(inner, job_tx, conn, work, id),
        None => Ok(None),
    }
}

/// Routes one parsed request that [`probe_inline`] did not answer: inline
/// (Shutdown), detach (streaming verbs), or worker dispatch.
fn handle_request(
    inner: &Arc<Inner>,
    job_tx: &Sender<Job>,
    conn: &mut Conn,
    work: Work,
    id: u64,
) -> Result<Option<Parsed>, ()> {
    match work {
        // (`parse_frame` checked in_flight == 0 before consuming it.)
        Work::Request(request) if is_streaming(&request) => Ok(Some(Parsed::Detach(request, id))),
        // Shutdown only flips an atomic — answered here so a saturated
        // job queue can never reject it with Backpressure.
        Work::Request(Request::Shutdown) => {
            begin_shutdown(inner);
            conn.push(id, &Response::Ok(Reply::ShuttingDown));
            conn.closing = true;
            Ok(Some(Parsed::Keep))
        }
        work => {
            if inner.shutdown.load(Ordering::SeqCst) {
                conn.push(
                    id,
                    &Response::Err(RequestError::new(
                        ErrorCode::ShuttingDown,
                        "server is shutting down",
                    )),
                );
                return Ok(None);
            }
            conn.shared.in_flight.fetch_add(1, Ordering::SeqCst);
            let job = Job {
                work,
                conn: Arc::clone(&conn.shared),
                id,
                enqueued: Instant::now(),
            };
            match job_tx.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    conn.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                    inner.metrics.rejected_backpressure.inc();
                    conn.push(
                        id,
                        &Response::Err(RequestError::new(
                            ErrorCode::Backpressure,
                            format!(
                                "work queue full ({} pending); retry later",
                                inner.config.queue_capacity
                            ),
                        )),
                    );
                }
                Err(TrySendError::Disconnected(_)) => {
                    conn.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                    conn.push(
                        id,
                        &Response::Err(RequestError::new(
                            ErrorCode::ShuttingDown,
                            "worker pool stopped",
                        )),
                    );
                }
            }
            Ok(None)
        }
    }
}

/// Executes a probe on the reactor thread if the inline rule allows it:
/// one record, `alone` in its turn, the server not shutting down, and every
/// lock free without waiting. The reply goes straight into `outbox`; a
/// binary probe's record is embedded from the frame ([`RequestRef`]).
/// `false`, with nothing answered, sends it to the pool (counted by reason
/// when it was one record). An inline probe is booked like any other — one
/// queue-wait sample (zero: it never queued) and one exec sample.
fn probe_inline(
    inner: &Inner,
    outbox: &Mutex<Vec<u8>>,
    id: u64,
    request: &RequestRef<'_>,
    alone: bool,
) -> bool {
    match request {
        RequestRef::Records(Verb::Probe, records) => {
            probe_inline_records(inner, outbox, id, *records, alone)
        }
        RequestRef::Other(Request::Probe { records }) => {
            probe_inline_records(inner, outbox, id, records, alone)
        }
        RequestRef::Records(..) | RequestRef::Other(_) => false,
    }
}

fn probe_inline_records<R>(
    inner: &Inner,
    outbox: &Mutex<Vec<u8>>,
    id: u64,
    records: R,
    alone: bool,
) -> bool
where
    R: IntoIterator,
    R::IntoIter: Clone + ExactSizeIterator,
    R::Item: RecordView,
{
    let records = records.into_iter();
    if records.len() != 1 || inner.shutdown.load(Ordering::SeqCst) {
        return false;
    }
    let metrics = &inner.metrics;
    if !alone {
        metrics.probes_declined_not_alone.inc();
        return false;
    }
    let t0 = Instant::now();
    let answered = push_reply(outbox, |payload| {
        match guarded(metrics, || try_probe(inner, records, id, payload)) {
            Ok(ok) => ok,
            Err(panicked) => {
                encode_reply(id, &Response::Err(panicked), payload);
                Some(false)
            }
        }
    });
    let Some(ok) = answered else {
        metrics.probes_declined_busy.inc();
        return false;
    };
    metrics.probes_inline.inc();
    account(inner, ReqType::Probe, Duration::ZERO, t0.elapsed(), ok);
    true
}

/// Runs one request payload through the reactor's inline probe path —
/// decode in place, [`try_probe`], encode into `outbox` — on the calling
/// thread, as for a lone request ([`crate::Server::probe_inline`]).
pub(crate) fn probe_inline_payload(inner: &Inner, payload: &[u8], outbox: &mut Vec<u8>) -> bool {
    let Ok((id, request)) = wire::decode_request_ref(payload) else {
        return false;
    };
    let shared = Mutex::new(std::mem::take(outbox));
    let inline = probe_inline(inner, &shared, id, &request, true);
    *outbox = shared.into_inner();
    inline
}

/// Writes as much of the outbox as the socket accepts right now.
fn flush_outbox(conn: &mut Conn) {
    let mut outbox = conn.shared.outbox.lock();
    while !outbox.is_empty() {
        match (&conn.stream).write(&outbox) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                outbox.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    // A Shutdown ack or a handshake refusal closes the connection once
    // written.
    if conn.closing {
        conn.eof = true;
    }
}

/// Moves a connection off the reactor onto a dedicated blocking thread
/// that serves `request` and then closes it. Returns the thread's handle
/// (`None` when the connection died first) for [`Reactor::run`] to join.
fn detach(inner: &Arc<Inner>, conn: Conn, request: Request, id: u64) -> Option<JoinHandle<()>> {
    // The outbox must flush before the stream handler writes anything.
    // in_flight is 0 (detach precondition), so these bytes are complete
    // responses; write them out in blocking mode.
    conn.stream.set_nonblocking(false).ok()?;
    {
        let mut outbox = conn.shared.outbox.lock();
        if !outbox.is_empty() {
            let _ = conn.stream.set_write_timeout(Some(SHUTDOWN_DRAIN));
            (&conn.stream).write_all(&outbox).ok()?;
            let _ = conn.stream.set_write_timeout(None);
            outbox.clear();
        }
    }
    let inner = Arc::clone(inner);
    let stream = conn.stream;
    let spawned = std::thread::Builder::new()
        .name("rl-conn".into())
        .spawn(move || serve_stream(&inner, stream, request, id));
    if spawned.is_err() {
        eprintln!("rl-server: could not spawn a streaming connection thread");
    }
    spawned.ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_interest_stops_at_either_buffer_bound() {
        assert!(wants_input(false, false, 0, 0));
        assert!(wants_input(false, false, MAX_BUFFERED - 1, MAX_BUFFERED));
        // A client that pipelines requests and never reads its replies:
        // once the outbox passes the bound the reactor stops reading (and
        // therefore producing) until the peer drains it.
        assert!(!wants_input(false, false, 0, MAX_BUFFERED + 1));
        assert!(!wants_input(false, false, MAX_BUFFERED, 0));
        assert!(!wants_input(true, false, 0, 0), "nothing follows EOF");
        assert!(!wants_input(false, true, 0, 0), "closing stops parsing");
    }
}
