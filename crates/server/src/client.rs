//! A typed client for the rl-server protocol.
//!
//! One [`Client`] owns one TCP connection, opened with the one-line JSON
//! `Upgrade` handshake and speaking length-prefixed, CRC-checked
//! `rl-wire` frames from then on. Typed methods are synchronous (send one
//! request, read its reply); the connection is persistent, so a client
//! can issue many requests without reconnecting. Requests and responses
//! are correlated by id, which is what [`Client::probe_pipelined`] builds
//! on: up to `depth` probe batches in flight on one connection,
//! overlapping server-side execution with the wire round-trip instead of
//! paying one full RTT per probe.
//!
//! Every socket operation carries a timeout (default
//! [`Client::DEFAULT_TIMEOUT`]): a server that accepts the connection but
//! never answers — or stalls mid-reply — surfaces as a typed
//! [`ClientError::Timeout`] instead of hanging the caller forever. A
//! frame that fails its CRC, or a connection closed mid-frame, surfaces
//! as [`ClientError::FrameCorrupt`] — never as a misparsed response.
//!
//! ## Retry policy
//!
//! **Idempotent reads** (`Probe`, `Stats`, `Metrics`, `DedupStatus`,
//! `ReplStatus`) are retried **once** after a short backoff
//! ([`Client::RETRY_BACKOFF`]) when the failure is transient — a timeout
//! or a dropped connection — reconnecting first. **Mutations are never
//! auto-retried**: a timeout leaves the outcome unknown (the server may
//! have applied and WAL-logged the op before the reply was lost), and a
//! blind resend could double-apply. Callers who know their mutations are
//! idempotent at the application level can resend explicitly.
//!
//! ## Follower redirects (protocol v5)
//!
//! A read replica answers mutations with a typed `NotPrimary` error that
//! carries the primary's address. The client follows it transparently —
//! reconnects to the primary and resends, up to [`Client::MAX_REDIRECT_HOPS`]
//! hops per call (a failover can legitimately chain two redirects while
//! cluster state settles; an endless chain means the cluster is
//! partitioned and surfaces as [`ClientError::RedirectLoop`]). This is
//! safe for mutations too: every hop's rejection was issued without
//! applying.
//!
//! ## Read-your-writes (protocol v8)
//!
//! Mutation replies carry `applied_seq` — the WAL position the mutation
//! landed at. The client remembers the highest one as its session token;
//! when a later `Probe` or `Stats` — through [`Client::probe`],
//! [`Client::stats`] or [`Client::call`] alike — hits a follower
//! that has not yet applied that position, the client briefly waits for
//! the follower to catch up and, failing that, redirects the read to the
//! primary. Reads on this client therefore always observe this client's
//! own completed writes, even through a load-balanced replica. The check
//! (one `ReplStatus` round trip) runs only on a connection that has not
//! confirmed the token: a write's reply confirms it on the connection it
//! came on, and a reconnect — a redirect, or the retry of a read — starts
//! unconfirmed.

use crate::protocol::wire::Outgoing;
use crate::protocol::{
    wire, ErrorCode, ReplStatusReply, Reply, Request, RequestError, Response, ShardMapReply,
    StatsReply, PROTOCOL_VERSION,
};
use cbv_hb::matcher::MatchStats;
use cbv_hb::Record;
use rl_streamrule::{LateArrival, WindowSpec};
use rl_wire::{FrameReader, WireError};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Connection or socket failure.
    Io(std::io::Error),
    /// The server did not answer (or finish answering) within the
    /// configured timeout.
    Timeout,
    /// The server's response did not decode, or the reply kind did not
    /// match the request.
    Protocol(String),
    /// A frame failed its CRC / framing checks, or the connection closed
    /// in the middle of a frame. The stream has no resync point;
    /// reconnect to continue.
    FrameCorrupt(String),
    /// The server rejected the request (typed: backpressure, parse, …).
    Server(RequestError),
    /// `NotPrimary` redirects chained past [`Client::MAX_REDIRECT_HOPS`]
    /// hops without reaching a node that accepts writes — the cluster has
    /// no settled primary (mid-failover, or a partition). The request was
    /// never applied anywhere; retry once the cluster converges.
    RedirectLoop(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection: {e}"),
            ClientError::Timeout => write!(f, "timed out waiting for the server"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ClientError::FrameCorrupt(msg) => write!(f, "corrupt frame: {msg}"),
            ClientError::Server(e) => write!(f, "server: {e}"),
            ClientError::RedirectLoop(msg) => write!(f, "redirect loop: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        // WouldBlock is what a socket read/write timeout surfaces as on
        // Unix; TimedOut on Windows (and from connect_timeout).
        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            ClientError::Timeout
        } else {
            ClientError::Io(e)
        }
    }
}

/// One framed connection. The buffers live across calls — the
/// `FrameReader`'s read buffer and the encode scratch — so a busy client
/// allocates nothing per request once warmed up.
struct Conn {
    frames: FrameReader<TcpStream>,
    writer: TcpStream,
    /// Request-envelope scratch (id + body), reused per send.
    payload: Vec<u8>,
    /// Frame-encode scratch (header + payload), reused per send.
    wbuf: Vec<u8>,
    /// Next request id; ids start at 1 (0 is the server-push id).
    next_id: u64,
}

/// One decoded frame, owned (detached from the reader's buffer).
enum BinMsg {
    /// An id-enveloped [`Response`], or a replicated WAL frame from a
    /// `Subscribe` stream as a pushed [`Reply::WalFrame`].
    Response(u64, Response),
    /// Raw checkpoint bytes from a `FetchCheckpoint` transfer.
    Chunk(Vec<u8>),
}

/// One probe batch's outcome: sorted `(id_A, id_B)` pairs plus matching
/// counters.
pub type ProbeOutcome = (Vec<(u64, u64)>, MatchStats);

/// A connected client.
pub struct Client {
    conn: Conn,
    /// Resolved server addresses, kept for reconnects and replaced when a
    /// `NotPrimary` redirect points elsewhere.
    addrs: Vec<SocketAddr>,
    timeout: Option<Duration>,
    /// Read-your-writes session token: the highest `applied_seq` any
    /// mutation reply on this client has carried (protocol v8).
    session_seq: u64,
    /// The session token already confirmed applied on the current
    /// connection's node: by a mutation reply read on it, or by the
    /// catch-up poll. Reads skip the poll while `session_seq` hasn't
    /// advanced past it. Reset on every reconnect, redirects included.
    session_checked: u64,
}

impl Client {
    /// Default read/write timeout for [`Client::connect`].
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

    /// Pause before the single retry of an idempotent read.
    pub const RETRY_BACKOFF: Duration = Duration::from_millis(50);

    /// Most `NotPrimary` redirects followed per call before giving up
    /// with [`ClientError::RedirectLoop`]. A mid-failover cluster can
    /// legitimately chain two (old primary → stale pointer → new
    /// primary); three nodes each pointing elsewhere means nobody holds
    /// the write role.
    pub const MAX_REDIRECT_HOPS: usize = 3;

    /// Longest a read blocks waiting for a follower to catch up to this
    /// client's session token before falling back to the primary.
    pub const READ_YOUR_WRITES_WAIT: Duration = Duration::from_secs(1);

    /// Connects to a running server with [`Self::DEFAULT_TIMEOUT`] on
    /// reads and writes.
    ///
    /// # Errors
    /// See [`Self::connect_with_timeout`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        Self::connect_with_timeout(addr, Some(Self::DEFAULT_TIMEOUT))
    }

    /// Connects with an explicit per-operation read/write timeout (`None`
    /// blocks forever) and performs the `Upgrade` handshake.
    ///
    /// # Errors
    /// [`ClientError::Io`] when the connection cannot be made,
    /// [`ClientError::Timeout`] when the server accepts but never answers
    /// the handshake, [`ClientError::Server`] when it refuses it.
    pub fn connect_with_timeout<A: ToSocketAddrs>(
        addr: A,
        timeout: Option<Duration>,
    ) -> Result<Self, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        Ok(Self {
            conn: open_connection(&addrs, timeout)?,
            addrs,
            timeout,
            session_seq: 0,
            session_checked: 0,
        })
    }

    /// [`Self::connect_with_timeout`] under the name it had while a JSON
    /// transport existed beside the framed one. The repository's frozen
    /// benchmark calls it; the rename is a ROADMAP item.
    ///
    /// # Errors
    /// See [`Self::connect_with_timeout`].
    pub fn connect_binary_with_timeout<A: ToSocketAddrs>(
        addr: A,
        timeout: Option<Duration>,
    ) -> Result<Self, ClientError> {
        Self::connect_with_timeout(addr, timeout)
    }

    /// Drops the current connection and dials the server again (same
    /// resolved addresses, same timeout). The new connection may reach
    /// another node, so the next read re-checks read-your-writes.
    ///
    /// # Errors
    /// See [`Self::connect_with_timeout`].
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        self.session_checked = 0;
        self.conn = open_connection(&self.addrs, self.timeout)?;
        Ok(())
    }

    /// Changes the per-operation timeout on the live connection.
    ///
    /// # Errors
    /// Returns [`ClientError::Io`] if the socket rejects the setting.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        // Reader and writer are clones of one socket; the options apply
        // to both.
        self.conn.writer.set_read_timeout(timeout)?;
        self.conn.writer.set_write_timeout(timeout)?;
        Ok(())
    }

    /// Sends one request and reads its reply, applying the module-level
    /// retry and redirect policy. Exposed so callers can drive the raw
    /// protocol (the bench and the backpressure test do).
    ///
    /// # Errors
    /// Returns [`ClientError::Server`] for typed rejections, otherwise
    /// I/O or protocol errors.
    pub fn call(&mut self, request: &Request) -> Result<Reply, ClientError> {
        self.call_outgoing(request.into())
    }

    /// [`Self::call`] on the borrowed form the typed methods build: a
    /// retry or a redirect encodes the caller's records again rather than
    /// a copy kept for the purpose.
    fn call_outgoing(&mut self, request: Outgoing<'_>) -> Result<Reply, ClientError> {
        let gated = reads_own_writes(request);
        if gated {
            self.ensure_read_your_writes()?;
        }
        match self.call_once(request) {
            Ok(reply) => Ok(reply),
            Err(ClientError::Server(err)) => self.follow_redirect(request, err),
            Err(e) if is_idempotent_read(request) && is_transient(&e) => {
                std::thread::sleep(Self::RETRY_BACKOFF);
                self.reconnect()?;
                if gated {
                    self.ensure_read_your_writes()?;
                }
                match self.call_once(request) {
                    Ok(reply) => Ok(reply),
                    Err(ClientError::Server(err)) => self.follow_redirect(request, err),
                    Err(e) => Err(e),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// One request/response exchange, no retries.
    fn call_once(&mut self, request: Outgoing<'_>) -> Result<Reply, ClientError> {
        self.send_inner(request)?;
        self.recv_reply()
    }

    /// Reads the next *reply*, skipping `Heartbeat` and `MatchEvent`
    /// pushes, which are never the answer to a request. Streaming
    /// consumers that *want* every frame (the replication follower, the
    /// watch loop) use [`Self::recv`] directly. Pushes do not extend the
    /// wait: a reply that has not come one timeout after the first push
    /// is [`ClientError::Timeout`], as it is when nothing arrives at all.
    fn recv_reply(&mut self) -> Result<Reply, ClientError> {
        let mut deadline = None;
        loop {
            match self.recv()? {
                Reply::Heartbeat { .. } | Reply::MatchEvent { .. } => {
                    let Some(timeout) = self.timeout else {
                        continue;
                    };
                    if Instant::now() >= *deadline.get_or_insert_with(|| Instant::now() + timeout) {
                        return Err(ClientError::Timeout);
                    }
                }
                reply => return Ok(reply),
            }
        }
    }

    /// Follows `NotPrimary { primary_addr }` rejections to the primary
    /// and resends, up to [`Self::MAX_REDIRECT_HOPS`] hops — during a
    /// failover the first target may itself answer `NotPrimary` while
    /// roles settle. Nodes endlessly pointing at each other surface as
    /// [`ClientError::RedirectLoop`] instead of an unbounded chase. Safe
    /// for mutations: every hop's rejection was issued without applying.
    /// Any other server error passes through.
    fn follow_redirect(
        &mut self,
        request: Outgoing<'_>,
        mut err: RequestError,
    ) -> Result<Reply, ClientError> {
        let mut visited: Vec<String> = Vec::new();
        for _ in 0..Self::MAX_REDIRECT_HOPS {
            if err.code != ErrorCode::NotPrimary {
                return Err(ClientError::Server(err));
            }
            let Some(primary) = err.primary_addr.clone() else {
                return Err(ClientError::Server(err));
            };
            visited.push(primary.clone());
            let Ok(addrs) = primary.to_socket_addrs().map(Vec::from_iter) else {
                return Err(ClientError::Server(err));
            };
            self.addrs = addrs;
            self.reconnect()?;
            match self.call_once(request) {
                Ok(reply) => return Ok(reply),
                Err(ClientError::Server(next)) => err = next,
                Err(e) => return Err(e),
            }
        }
        if err.code != ErrorCode::NotPrimary {
            return Err(ClientError::Server(err));
        }
        Err(ClientError::RedirectLoop(format!(
            "gave up after {} NotPrimary hops ({}); no node accepts writes",
            Self::MAX_REDIRECT_HOPS,
            visited.join(" -> ")
        )))
    }

    /// Writes one request without reading a reply. With [`Self::recv`],
    /// this drives the protocol's streaming requests (`FetchCheckpoint`,
    /// `Subscribe`), whose responses span many frames.
    ///
    /// # Errors
    /// I/O, timeout, or encoding failures.
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        self.send_inner(request.into()).map(|_| ())
    }

    /// Sends a request and returns the id it was assigned.
    fn send_inner(&mut self, request: Outgoing<'_>) -> Result<u64, ClientError> {
        let conn = &mut self.conn;
        let id = conn.next_id;
        conn.next_id += 1;
        wire::encode_outgoing(id, request, &mut conn.payload)
            .map_err(|e| ClientError::Protocol(format!("encode request: {e}")))?;
        conn.send_frame(wire::TAG_REQUEST)?;
        Ok(id)
    }

    /// Reads one response. Pairs with [`Self::send`] to consume streaming
    /// responses; a replicated WAL frame comes back as
    /// [`Reply::WalFrame`].
    ///
    /// # Errors
    /// Returns [`ClientError::Server`] for typed rejections, otherwise
    /// I/O or protocol errors.
    pub fn recv(&mut self) -> Result<Reply, ClientError> {
        match read_bin_msg(&mut self.conn.frames)? {
            BinMsg::Response(_, response) => response.into_result().map_err(ClientError::Server),
            BinMsg::Chunk(_) => Err(ClientError::Protocol(
                "unexpected checkpoint chunk frame outside a transfer".into(),
            )),
        }
    }

    /// Probes many batches with up to `depth` requests in flight on this
    /// connection. The serving path executes request *n* while request
    /// *n+1* is still on the wire, so throughput is not bounded by one
    /// round-trip per batch. Results come back in `batches` order
    /// regardless of completion order (responses are correlated by id).
    ///
    /// # Errors
    /// The first typed server rejection (after all in-flight replies are
    /// drained, so the connection stays usable), or I/O / timeout /
    /// framing errors (after which the caller should reconnect).
    pub fn probe_pipelined(
        &mut self,
        batches: &[Vec<Record>],
        depth: usize,
    ) -> Result<Vec<ProbeOutcome>, ClientError> {
        let depth = depth.max(1);
        let mut results: Vec<Option<ProbeOutcome>> = Vec::new();
        results.resize_with(batches.len(), || None);
        let mut in_flight: HashMap<u64, usize> = HashMap::new();
        let mut first_err: Option<ClientError> = None;
        let mut next = 0;
        while next < batches.len() || !in_flight.is_empty() {
            while next < batches.len() && in_flight.len() < depth && first_err.is_none() {
                let id = self.send_inner(Outgoing::Probe(&batches[next]))?;
                in_flight.insert(id, next);
                next += 1;
            }
            if in_flight.is_empty() {
                break;
            }
            match read_bin_msg(&mut self.conn.frames)? {
                BinMsg::Response(id, response) => {
                    let Some(slot) = in_flight.remove(&id) else {
                        // A push (heartbeat from an earlier subscription)
                        // or a stale reply from an aborted pipeline run.
                        continue;
                    };
                    match response.into_result() {
                        Ok(Reply::Matches { pairs, stats, .. }) => {
                            results[slot] = Some((pairs, stats));
                        }
                        Ok(other) => {
                            first_err.get_or_insert(unexpected("Matches", &other));
                        }
                        Err(e) => {
                            first_err.get_or_insert(ClientError::Server(e));
                        }
                    }
                }
                BinMsg::Chunk(..) => {
                    return Err(ClientError::Protocol(
                        "unexpected stream frame during pipelined probes".into(),
                    ));
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        // Without an error every batch was sent and its reply filled its
        // slot; an empty one would be a reply the loop lost.
        results.into_iter().collect::<Option<_>>().ok_or_else(|| {
            ClientError::Protocol("a pipelined probe was left without its reply".into())
        })
    }

    /// Downloads the primary's checkpoint document as raw bytes:
    /// `FetchCheckpoint`, the `CheckpointMeta` reply, then the raw chunk
    /// frames. The caller parses/validates the bytes. The server closes
    /// the connection once the transfer (or its refusal) is written;
    /// [`Self::reconnect`] before the next request.
    ///
    /// # Errors
    /// Typed server rejections, transfer truncation (as
    /// [`ClientError::Protocol`]), or I/O / framing errors.
    pub fn fetch_checkpoint_raw(&mut self) -> Result<Vec<u8>, ClientError> {
        self.send(&Request::FetchCheckpoint)?;
        let (len, chunks) = match self.recv_reply()? {
            Reply::CheckpointMeta { len, chunks } => (len, chunks),
            other => return Err(unexpected("CheckpointMeta", &other)),
        };
        // `len` is the server's claim; let the chunks size the buffer.
        let mut bytes: Vec<u8> = Vec::new();
        for expected in 0..chunks {
            match read_bin_msg(&mut self.conn.frames)? {
                BinMsg::Chunk(data) => bytes.extend_from_slice(&data),
                BinMsg::Response(_, response) => {
                    let reply = response.into_result().map_err(ClientError::Server)?;
                    return Err(ClientError::Protocol(format!(
                        "expected chunk frame {expected}, got {reply:?}"
                    )));
                }
            }
        }
        if bytes.len() as u64 != len {
            return Err(ClientError::Protocol(format!(
                "checkpoint transfer truncated: got {} of {len} bytes",
                bytes.len()
            )));
        }
        Ok(bytes)
    }

    /// Indexes records into data set A. Returns `(accepted, total_indexed)`.
    ///
    /// # Errors
    /// See [`Self::call`].
    pub fn index(&mut self, records: &[Record]) -> Result<(usize, usize), ClientError> {
        self.call_indexed(Outgoing::Index(records))
    }

    /// Durable insert (protocol v4): like [`Self::index`], but a server
    /// running with a data dir acknowledges only after the mutation is in
    /// the write-ahead log. Returns `(accepted, total_indexed)`.
    ///
    /// # Errors
    /// See [`Self::call`].
    pub fn insert(&mut self, records: &[Record]) -> Result<(usize, usize), ClientError> {
        self.call_indexed(Outgoing::Insert(records))
    }

    fn call_indexed(&mut self, request: Outgoing<'_>) -> Result<(usize, usize), ClientError> {
        match self.call_outgoing(request)? {
            Reply::Indexed {
                accepted,
                total_indexed,
                applied_seq,
            } => {
                self.note_applied(applied_seq);
                Ok((accepted, total_indexed))
            }
            other => Err(unexpected("Indexed", &other)),
        }
    }

    /// Durable delete (protocol v4): removes records by id; unknown ids
    /// are ignored. Returns `(removed, total_indexed)`.
    ///
    /// # Errors
    /// See [`Self::call`].
    pub fn delete(&mut self, ids: &[u64]) -> Result<(usize, usize), ClientError> {
        match self.call(&Request::Delete { ids: ids.to_vec() })? {
            Reply::Deleted {
                removed,
                total_indexed,
                applied_seq,
            } => {
                self.note_applied(applied_seq);
                Ok((removed, total_indexed))
            }
            other => Err(unexpected("Deleted", &other)),
        }
    }

    /// Probes records against the index. Returns sorted `(id_A, id_B)`
    /// pairs plus matching counters.
    ///
    /// # Errors
    /// See [`Self::call`].
    pub fn probe(
        &mut self,
        records: &[Record],
    ) -> Result<(Vec<(u64, u64)>, MatchStats), ClientError> {
        match self.call_outgoing(Outgoing::Probe(records))? {
            Reply::Matches { pairs, stats, .. } => Ok((pairs, stats)),
            other => Err(unexpected("Matches", &other)),
        }
    }

    /// Streaming observe: returns ids of previously indexed records that
    /// match, then the record joins the index.
    ///
    /// # Errors
    /// See [`Self::call`].
    pub fn stream(&mut self, record: &Record) -> Result<Vec<u64>, ClientError> {
        match self.call(&Request::Stream {
            record: record.clone(),
        })? {
            Reply::Observed {
                matches,
                applied_seq,
            } => {
                self.note_applied(applied_seq);
                Ok(matches)
            }
            other => Err(unexpected("Observed", &other)),
        }
    }

    /// Duplicate clusters accumulated from streaming matches.
    ///
    /// # Errors
    /// See [`Self::call`].
    pub fn dedup_status(&mut self) -> Result<Vec<Vec<u64>>, ClientError> {
        match self.call(&Request::DedupStatus)? {
            Reply::DedupStatus { clusters, .. } => Ok(clusters),
            other => Err(unexpected("DedupStatus", &other)),
        }
    }

    /// Service counters.
    ///
    /// # Errors
    /// See [`Self::call`].
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        match self.call(&Request::Stats)? {
            Reply::Stats(stats) => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Records a mutation reply's `applied_seq` as the session token. A
    /// zero means the server predates v8 or runs without a WAL — nothing
    /// to track. The reply also confirms the token on this connection: the
    /// node that sent it applied the write, and every one before it, first.
    fn note_applied(&mut self, applied_seq: u64) {
        self.session_seq = self.session_seq.max(applied_seq);
        self.session_checked = self.session_checked.max(applied_seq);
    }

    /// The read-your-writes session token: the WAL position of this
    /// client's latest acknowledged mutation (0 before any mutation, or
    /// against a pre-v8 / WAL-less server).
    pub fn session_seq(&self) -> u64 {
        self.session_seq
    }

    /// Read-your-writes gate: when this client has written past what it
    /// last confirmed on the connected node, make sure the node has
    /// applied up to the session token before the read goes out. A write
    /// acknowledged on this connection confirms itself, so the gate costs
    /// a `ReplStatus` round trip only on a connection that has not seen
    /// the token: after a reconnect or a redirect. A lagging follower gets
    /// [`Self::READ_YOUR_WRITES_WAIT`] to catch up; if it is still
    /// behind, the read is redirected to the primary it names.
    fn ensure_read_your_writes(&mut self) -> Result<(), ClientError> {
        let token = self.session_seq;
        if token <= self.session_checked {
            return Ok(());
        }
        let deadline = Instant::now() + Self::READ_YOUR_WRITES_WAIT;
        loop {
            let status = self.repl_status()?;
            if status.role != "follower" || status.applied_seq >= token {
                self.session_checked = token;
                return Ok(());
            }
            if Instant::now() >= deadline {
                // Still behind: hop to the primary, which by definition
                // has everything this client wrote.
                let Some(primary) = status.primary_addr else {
                    // No primary to fall back to (it is down and failover
                    // has not settled); serve the stale read rather than
                    // failing it.
                    self.session_checked = token;
                    return Ok(());
                };
                let Ok(addrs) = primary.to_socket_addrs().map(Vec::from_iter) else {
                    self.session_checked = token;
                    return Ok(());
                };
                self.addrs = addrs;
                self.reconnect()?;
                self.session_checked = token;
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Sends a durability ack ([`wire::TAG_ACK`]) up a `Subscribe`
    /// stream: this follower has applied and WAL-logged through `seq`.
    /// The primary counts it toward `--sync-replicas` quorums.
    ///
    /// # Errors
    /// I/O or timeout writing the frame.
    pub fn send_ack(&mut self, seq: u64) -> Result<(), ClientError> {
        wire::encode_ack(seq, &mut self.conn.payload);
        self.conn.send_frame(wire::TAG_ACK)
    }

    /// Full metrics snapshot (protocol v3): request counters and latency
    /// histograms, renderable with [`rl_obs::encode_prometheus`].
    ///
    /// # Errors
    /// See [`Self::call`].
    pub fn metrics(&mut self) -> Result<rl_obs::MetricsSnapshot, ClientError> {
        match self.call(&Request::Metrics)? {
            Reply::Metrics(snapshot) => Ok(snapshot),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// Persists the index; `path` overrides the server's configured
    /// snapshot path. Returns the path written.
    ///
    /// # Errors
    /// See [`Self::call`].
    pub fn snapshot(&mut self, path: Option<&str>) -> Result<String, ClientError> {
        match self.call(&Request::Snapshot {
            path: path.map(str::to_owned),
        })? {
            Reply::Snapshotted { path, .. } => Ok(path),
            other => Err(unexpected("Snapshotted", &other)),
        }
    }

    /// Replication role and lag of the connected node (protocol v5).
    ///
    /// # Errors
    /// See [`Self::call`].
    pub fn repl_status(&mut self) -> Result<ReplStatusReply, ClientError> {
        match self.call(&Request::ReplStatus)? {
            Reply::ReplStatus(status) => Ok(status),
            other => Err(unexpected("ReplStatus", &other)),
        }
    }

    /// Single-shot [`Self::repl_status`]: one request, one reply, no
    /// reconnect-and-retry on a transient failure. For liveness probes
    /// (failover elections) where a hung peer must cost at most one
    /// timeout, not a retry's worth on top.
    ///
    /// # Errors
    /// Any transport or server error, verbatim.
    pub fn repl_status_once(&mut self) -> Result<ReplStatusReply, ClientError> {
        match self.call_once(Outgoing::Other(&Request::ReplStatus))? {
            Reply::ReplStatus(status) => Ok(status),
            other => Err(unexpected("ReplStatus", &other)),
        }
    }

    /// Promotes the connected follower to primary (protocol v5).
    /// Idempotent on a node that is already primary. Returns
    /// `(head_seq, was_follower, epoch)` — a fresh promotion bumps the
    /// primary epoch (protocol v8), fencing the old primary's frames.
    ///
    /// # Errors
    /// See [`Self::call`].
    pub fn promote(&mut self) -> Result<(u64, bool, u64), ClientError> {
        match self.call(&Request::Promote)? {
            Reply::Promoted {
                head_seq,
                was_follower,
                epoch,
            } => Ok((head_seq, was_follower, epoch)),
            other => Err(unexpected("Promoted", &other)),
        }
    }

    /// The server's shard map (protocol v10): epoch, range assignments,
    /// per-shard record counts, and any in-flight migration.
    ///
    /// # Errors
    /// See [`Self::call`]. A pre-v10 server rejects the verb with `Parse`.
    pub fn shard_map(&mut self) -> Result<ShardMapReply, ClientError> {
        match self.call(&Request::GetShardMap)? {
            Reply::ShardMap(map) => Ok(map),
            other => Err(unexpected("ShardMap", &other)),
        }
    }

    /// Starts an online reshard (protocol v10): a split of `source`'s
    /// widest keyspace range into a brand-new shard, or a merge of
    /// `source` onto an existing target. Returns `(kind, source, target,
    /// total)` from the `ReshardStarted` acknowledgement; the copy runs in
    /// the background — poll [`Self::migration_status`] for completion and
    /// watch the shard-map epoch bump at cutover.
    ///
    /// # Errors
    /// Typed rejections (follower, migration already in flight, an
    /// unsplittable or unknown shard), I/O, or protocol errors.
    pub fn reshard(
        &mut self,
        op: rl_reshard::ReshardOp,
    ) -> Result<(String, usize, usize, u64), ClientError> {
        match self.call(&Request::Reshard { op })? {
            Reply::ReshardStarted {
                kind,
                source,
                target,
                total,
            } => Ok((kind, source, target, total)),
            other => Err(unexpected("ReshardStarted", &other)),
        }
    }

    /// Progress of the in-flight migration, if any (protocol v10).
    ///
    /// # Errors
    /// See [`Self::call`]. A pre-v10 server rejects the verb with `Parse`.
    pub fn migration_status(&mut self) -> Result<rl_reshard::MigrationStatus, ClientError> {
        match self.call(&Request::MigrationStatus)? {
            Reply::Migration(status) => Ok(status),
            other => Err(unexpected("Migration", &other)),
        }
    }

    /// Opens a match subscription (protocol v6): the stream owns the
    /// connection, so this client should only be used with
    /// [`Self::next_watch_event`] from here on (use a second client for
    /// requests). Returns `(sub_id, tables)` from the `Subscribed`
    /// greeting.
    ///
    /// # Errors
    /// Typed server rejections (bad rule, subscription limit), I/O, or
    /// protocol errors. The server closes the connection after a refusal
    /// too; [`Self::reconnect`] before reusing this client.
    pub fn subscribe_matches(
        &mut self,
        rule: &str,
        window: WindowSpec,
        late: LateArrival,
        cap: u64,
    ) -> Result<(u64, u64), ClientError> {
        self.send(&Request::SubscribeMatches {
            rule: rule.to_string(),
            window,
            late,
            cap,
        })?;
        match self.recv()? {
            Reply::Subscribed { sub_id, tables } => Ok((sub_id, tables)),
            other => Err(unexpected("Subscribed", &other)),
        }
    }

    /// Reads the next event from a subscription stream opened with
    /// [`Self::subscribe_matches`], skipping heartbeat keep-alives.
    /// [`WatchEvent::Lagged`] is terminal: the server has stopped the
    /// stream and the client must resubscribe.
    ///
    /// `within` bounds the wait for the event itself; heartbeats do not
    /// extend it, and it is checked as each one arrives, so a lost event
    /// fails within `within` plus one heartbeat interval. `None` waits for
    /// as long as the server stays alive, as a watch that runs until it is
    /// stopped does.
    ///
    /// # Errors
    /// I/O, protocol errors, or [`ClientError::Timeout`]: no event within
    /// `within`, or no heartbeat within the read timeout (the server is
    /// gone).
    pub fn next_watch_event(
        &mut self,
        within: Option<Duration>,
    ) -> Result<WatchEvent, ClientError> {
        let deadline = within.map(|d| Instant::now() + d);
        loop {
            match self.recv()? {
                Reply::Heartbeat { .. } => {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Err(ClientError::Timeout);
                    }
                }
                Reply::MatchEvent {
                    sub_id,
                    record_id,
                    matched,
                } => {
                    return Ok(WatchEvent::Match {
                        sub_id,
                        record_id,
                        matched,
                    })
                }
                Reply::SubscriptionLagged { dropped } => return Ok(WatchEvent::Lagged { dropped }),
                other => return Err(unexpected("MatchEvent", &other)),
            }
        }
    }

    /// Cancels a match subscription by id (protocol v6), from any
    /// request/reply connection. Returns whether the id named a live
    /// subscription.
    ///
    /// # Errors
    /// See [`Self::call`].
    pub fn unsubscribe(&mut self, sub_id: u64) -> Result<bool, ClientError> {
        match self.call(&Request::Unsubscribe { sub_id })? {
            Reply::Unsubscribed { removed } => Ok(removed),
            other => Err(unexpected("Unsubscribed", &other)),
        }
    }

    /// Asks the server to shut down gracefully; consumes the client (the
    /// server closes this connection after acknowledging).
    ///
    /// # Errors
    /// See [`Self::call`].
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Reply::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

/// Reads and decodes one frame, detaching it from the reader's buffer.
/// CRC failures, framing garbage, and a mid-frame close all surface as
/// [`ClientError::FrameCorrupt`] — a corrupt length prefix could point
/// anywhere, so the stream has no resync point and must be reconnected.
fn read_bin_msg(frames: &mut FrameReader<TcpStream>) -> Result<BinMsg, ClientError> {
    match frames.read_frame() {
        Ok(Some((wire::TAG_RESPONSE, payload))) => {
            let (id, response) = wire::decode_response(payload)
                .map_err(|e| ClientError::Protocol(format!("decode response: {e}")))?;
            Ok(BinMsg::Response(id, response))
        }
        Ok(Some((tag @ (wire::TAG_WAL | wire::TAG_WAL_E), payload))) => {
            let (seq, epoch, op) = wire::decode_wal(tag, payload)
                .map_err(|e| ClientError::Protocol(format!("decode wal frame: {e}")))?;
            let reply = Reply::WalFrame { seq, op, epoch };
            Ok(BinMsg::Response(wire::PUSH_ID, Response::Ok(reply)))
        }
        Ok(Some((wire::TAG_CHUNK, payload))) => Ok(BinMsg::Chunk(payload.to_vec())),
        Ok(Some((tag, _))) => Err(ClientError::Protocol(format!("unexpected frame tag {tag}"))),
        Ok(None) => Err(ClientError::Protocol("server closed the connection".into())),
        Err(e) if e.is_would_block() => Err(ClientError::Timeout),
        Err(WireError::Io(e)) => Err(ClientError::Io(e)),
        Err(e) => Err(ClientError::FrameCorrupt(e.to_string())),
    }
}

/// One line of a match-subscription stream, as seen by
/// [`Client::next_watch_event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchEvent {
    /// A newly ingested record matched records inside the subscription's
    /// window.
    Match {
        /// The subscription that fired.
        sub_id: u64,
        /// The record whose ingestion triggered the event.
        record_id: u64,
        /// Window records satisfying the rule, ascending.
        matched: Vec<u64>,
    },
    /// Terminal: the subscriber fell behind its bounded event queue and
    /// `dropped` events were lost. Resubscribe to continue watching.
    Lagged {
        /// Events dropped since the subscriber last kept up.
        dropped: u64,
    },
}

impl Conn {
    /// Frames `self.payload` under `tag` and writes it out.
    fn send_frame(&mut self, tag: u8) -> Result<(), ClientError> {
        self.wbuf.clear();
        rl_wire::encode_frame_into(tag, &self.payload, &mut self.wbuf);
        self.writer.write_all(&self.wbuf)?;
        self.writer.flush()?;
        Ok(())
    }
}

/// Dials the first reachable address and performs the handshake.
fn open_connection(addrs: &[SocketAddr], timeout: Option<Duration>) -> Result<Conn, ClientError> {
    let mut last_err = std::io::Error::new(ErrorKind::InvalidInput, "address resolved to nothing");
    for addr in addrs {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(timeout)?;
                stream.set_write_timeout(timeout)?;
                return handshake(stream);
            }
            Err(e) => last_err = e,
        }
    }
    Err(ClientError::Io(last_err))
}

/// The one JSON exchange a connection carries: the `Upgrade` line out,
/// the `Upgraded` (or typed error) line back. The reply is read byte by
/// byte — the next byte already belongs to the framed stream.
fn handshake(mut stream: TcpStream) -> Result<Conn, ClientError> {
    /// Longest reply line accepted (a refusal is ~200 bytes).
    const MAX_REPLY_LINE: usize = 4096;
    let upgrade = Request::Upgrade {
        max_version: PROTOCOL_VERSION,
    };
    let mut line = serde_json::to_string(&upgrade)
        .map_err(|e| ClientError::Protocol(format!("encode request: {e}")))?;
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    let mut reply = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte)? {
            0 => return Err(ClientError::Protocol("server closed the connection".into())),
            _ if byte[0] == b'\n' => break,
            _ if reply.len() == MAX_REPLY_LINE => {
                return Err(ClientError::Protocol("handshake reply too long".into()))
            }
            _ => reply.push(byte[0]),
        }
    }
    let response: Response = serde_json::from_slice(&reply)
        .map_err(|e| ClientError::Protocol(format!("decode handshake reply: {e}")))?;
    match response.into_result().map_err(ClientError::Server)? {
        Reply::Upgraded { .. } => Ok(Conn {
            frames: FrameReader::new(stream.try_clone()?),
            writer: stream,
            payload: Vec::new(),
            wbuf: Vec::new(),
            next_id: 1,
        }),
        other => Err(unexpected("Upgraded", &other)),
    }
}

/// Requests whose retry cannot change server state: reads answered from
/// the in-memory index and counters. Everything else — mutations, but
/// also `Snapshot` (writes a file) and `Shutdown` — is excluded.
fn is_idempotent_read(request: Outgoing<'_>) -> bool {
    matches!(
        request,
        Outgoing::Probe(_)
            | Outgoing::Other(
                Request::Stats | Request::Metrics | Request::DedupStatus | Request::ReplStatus
            )
    )
}

/// Reads that must observe this client's own writes: [`Client::call`]
/// runs [`Client::ensure_read_your_writes`] before each send of one.
fn reads_own_writes(request: Outgoing<'_>) -> bool {
    matches!(
        request,
        Outgoing::Probe(_) | Outgoing::Other(Request::Stats)
    )
}

/// Failures worth one reconnect-and-retry: the server never answered
/// (timeout), the connection dropped mid-exchange (cleanly or mid-frame),
/// or it was closed before the reply arrived.
fn is_transient(error: &ClientError) -> bool {
    match error {
        ClientError::Timeout => true,
        ClientError::Io(e) => matches!(
            e.kind(),
            ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
                | ErrorKind::BrokenPipe
                | ErrorKind::UnexpectedEof
                | ErrorKind::NotConnected
        ),
        ClientError::Protocol(msg) => msg == "server closed the connection",
        ClientError::FrameCorrupt(_) => true,
        ClientError::Server(_) | ClientError::RedirectLoop(_) => false,
    }
}

fn unexpected(expected: &str, got: &Reply) -> ClientError {
    ClientError::Protocol(format!("expected {expected} reply, got {got:?}"))
}
