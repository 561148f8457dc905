//! Primary-side replication: roles, shared replication state, and the
//! streaming `FetchCheckpoint` / `Subscribe` handlers.
//!
//! Replication ships the durable WAL. A subscription is served straight
//! off the data directory — the sender opens the retained segments with
//! [`rl_store::WalReader`] and tails them — so a follower only ever
//! receives frames that are already on the primary's disk, and the sender
//! needs no registration in the append path (mutations never block on a
//! slow follower). The cost is a small polling latency (the
//! [`SUBSCRIBE_POLL`] interval) between an append landing and the frame
//! going out.
//!
//! The follower half (bootstrap, apply loop, reconnect/backoff, promote
//! helpers) lives in the `rl-repl` crate, driving the server through
//! [`crate::ReplHandle`].

use crate::background::run_checkpoint;
use crate::conn::StreamWriter;
use crate::protocol::{wire, ErrorCode, Reply, RequestError, Response};
use crate::server::Inner;
use parking_lot::Mutex;
use rl_store::{scan_segments, segment_path, Store, StoreError, WalReader, CHECKPOINT_FILE};
use rl_wire::FrameReader;
use std::collections::HashMap;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often an idle subscription emits a [`Reply::Heartbeat`].
pub const HEARTBEAT_EVERY: Duration = Duration::from_millis(500);

/// How often the sender re-polls the active segment when caught up.
const SUBSCRIBE_POLL: Duration = Duration::from_millis(20);

/// Bytes per checkpoint chunk frame.
const CHECKPOINT_CHUNK: usize = 192 * 1024;

/// If a follower stops draining its socket for this long, the sender
/// drops the connection rather than blocking a thread forever.
const SUBSCRIBE_WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Why [`crate::ReplHandle::apply`] rejected a streamed frame,
/// split by what the follower's apply loop must do about it.
#[derive(Debug)]
pub enum ApplyError {
    /// Transient or ordering problem (sequence gap, local WAL write
    /// failure, role flip): drop the subscription and resubscribe from
    /// [`crate::ReplHandle::op_seq`]. Nothing was made durable,
    /// so resuming from the durable position loses nothing.
    Retry(String),
    /// The local WAL and the in-memory index disagree (an op the primary
    /// validated was rejected here, or an op already durable locally
    /// failed to apply): resubscribing from `op_seq` would either loop on
    /// the same frame or silently skip a durable op forever. Only a fresh
    /// checkpoint re-bootstrap ([`crate::ReplHandle::resync`])
    /// restores a consistent pair.
    Resync(String),
    /// The frame's epoch is below what this follower has already seen
    /// (protocol v8): a demoted or restarted old primary's zombie stream.
    /// Nothing was applied. Drop the subscription and keep backing off —
    /// reconnects keep failing until the sender is fenced or a lease
    /// election installs a new primary.
    StaleEpoch(String),
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::Retry(msg) | ApplyError::Resync(msg) | ApplyError::StaleEpoch(msg) => {
                f.write_str(msg)
            }
        }
    }
}

impl std::error::Error for ApplyError {}

/// What a node is in the replication topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplRole {
    /// Not replicating: mutations accepted, `Subscribe` rejected. The
    /// default, and the only role available without a data directory.
    Standalone,
    /// Accepts mutations and serves checkpoint transfers + WAL
    /// subscriptions to followers.
    Primary,
    /// Read-only: applies the primary's WAL stream, redirects mutations
    /// with a typed `NotPrimary { primary_addr }` error. Flips to
    /// `Primary` on `Promote`.
    Follower {
        /// Where mutations should go instead (the redirect target).
        primary_addr: String,
    },
}

impl ReplRole {
    /// True for [`ReplRole::Primary`].
    pub fn is_primary(&self) -> bool {
        matches!(self, ReplRole::Primary)
    }

    /// True for [`ReplRole::Follower`].
    pub fn is_follower(&self) -> bool {
        matches!(self, ReplRole::Follower { .. })
    }

    /// The role's wire label (`ReplStatus.role`).
    pub fn label(&self) -> &'static str {
        match self {
            ReplRole::Standalone => "standalone",
            ReplRole::Primary => "primary",
            ReplRole::Follower { .. } => "follower",
        }
    }
}

/// Shared replication state hanging off the server. The role is the only
/// mutexed field (promote flips it under the state write lock); the
/// counters are atomics so status reads and gauge updates never contend
/// with the apply path.
///
/// Lock order: `state` → `role` → `store` — promote takes all three in
/// that order, the apply path takes `state` then `role` then `store`, and
/// mutation serving takes `state` then `role`.
pub struct ReplState {
    pub(crate) role: Mutex<ReplRole>,
    /// Newest primary op sequence this node knows of (followers: from the
    /// subscription stream).
    pub(crate) head_seq: AtomicU64,
    /// Global op sequence applied locally (mirrors the store's `op_seq`;
    /// kept as an atomic so lag math never needs the store lock).
    pub(crate) applied_seq: AtomicU64,
    /// WAL bytes between this follower's position and the primary head.
    pub(crate) lag_bytes: AtomicU64,
    /// Subscription reconnects since startup.
    pub(crate) reconnects: AtomicU64,
    /// Live `Subscribe` streams served (primaries).
    pub(crate) followers: AtomicU64,
    /// The node's primary epoch (protocol v8): mirrors the store's epoch
    /// so role/staleness checks never need the store lock. Bumped by
    /// promote, raised by followers adopting stream epochs.
    pub(crate) epoch: AtomicU64,
    /// Set while a follower replaces its state from a fetched checkpoint
    /// (bootstrap / resync, including the network transfer). Promote
    /// refuses with `Unavailable` while it is up rather than racing the
    /// recovery load.
    pub(crate) resyncing: AtomicBool,
    /// Per-subscription durable positions reported by follower acks
    /// ([`wire::TAG_ACK`]), keyed by [`FollowerGuard`] id. Quorum writes
    /// wait on `ack_cv` until enough entries reach their seq.
    /// (std primitives: the vendored `parking_lot` shim has no condvar.)
    pub(crate) acks: std::sync::Mutex<HashMap<u64, u64>>,
    pub(crate) ack_cv: std::sync::Condvar,
    next_follower_id: AtomicU64,
}

impl ReplState {
    pub(crate) fn new(role: ReplRole, applied_seq: u64, epoch: u64) -> Self {
        Self {
            role: Mutex::new(role),
            head_seq: AtomicU64::new(applied_seq),
            applied_seq: AtomicU64::new(applied_seq),
            lag_bytes: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            followers: AtomicU64::new(0),
            epoch: AtomicU64::new(epoch),
            resyncing: AtomicBool::new(false),
            acks: std::sync::Mutex::new(HashMap::new()),
            ack_cv: std::sync::Condvar::new(),
            next_follower_id: AtomicU64::new(1),
        }
    }

    /// The node's current role.
    pub fn role(&self) -> ReplRole {
        self.role.lock().clone()
    }

    /// The node's current primary epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }
}

/// Records one follower's durable position and wakes quorum waiters.
pub(crate) fn publish_ack(inner: &Inner, follower_id: u64, seq: u64) {
    let mut acks = inner.repl.acks.lock().unwrap_or_else(|e| e.into_inner());
    let slot = acks.entry(follower_id).or_insert(0);
    if seq <= *slot {
        return;
    }
    *slot = seq;
    drop(acks);
    inner.repl.ack_cv.notify_all();
}

/// Blocks until `sync_replicas` followers have acked durability through
/// `seq`, or the quorum timeout passes. Called *after* the local
/// append+apply released the state lock: the mutation IS durable locally
/// either way; a timeout only means its replication is unconfirmed.
pub(crate) fn await_quorum(inner: &Inner, seq: u64) -> Result<(), RequestError> {
    let need = inner.config.sync_replicas;
    if need == 0 || seq == 0 || inner.store.is_none() {
        return Ok(());
    }
    if !inner.repl.role.lock().is_primary() {
        return Ok(());
    }
    let deadline = Instant::now() + inner.config.quorum_timeout;
    let mut acks = inner.repl.acks.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        let confirmed = acks.values().filter(|&&s| s >= seq).count();
        if confirmed >= need {
            return Ok(());
        }
        let now = Instant::now();
        if inner.shutdown.load(Ordering::SeqCst) || now >= deadline {
            return Err(RequestError::new(
                ErrorCode::QuorumTimeout,
                format!(
                    "mutation is durable locally at op seq {seq}, but only {confirmed} of \
                     {need} replica ack(s) arrived within {:?}",
                    inner.config.quorum_timeout
                ),
            ));
        }
        let (guard, _timeout) = inner
            .repl
            .ack_cv
            .wait_timeout(acks, deadline - now)
            .unwrap_or_else(|e| e.into_inner());
        acks = guard;
    }
}

/// Serves one `FetchCheckpoint` request: a `CheckpointMeta` response,
/// then the document as raw chunk frames. A primary with no committed
/// checkpoint takes one first, so a follower can always bootstrap.
/// Protocol-level failures are written as a single error response. The
/// caller closes the connection afterwards either way.
pub(crate) fn serve_fetch_checkpoint(inner: &Arc<Inner>, writer: &mut StreamWriter) {
    // Same bound Subscribe uses: a follower that stops draining
    // mid-transfer must not pin this connection thread forever.
    let _ = writer
        .stream()
        .set_write_timeout(Some(SUBSCRIBE_WRITE_TIMEOUT));
    // A write error means the follower went away; nothing left to tell it.
    let _ = send_checkpoint(inner, writer);
}

fn send_checkpoint(inner: &Arc<Inner>, writer: &mut StreamWriter) -> std::io::Result<()> {
    if let Some(err) = require_primary(inner, "checkpoint transfer") {
        return writer.write_response(&Response::Err(err));
    }
    let Some(store) = &inner.store else {
        return writer.write_response(&Response::Err(RequestError::new(
            ErrorCode::Unavailable,
            "checkpoint transfer requires a data directory",
        )));
    };
    let ckpt_path = store.lock().dir().join(CHECKPOINT_FILE);
    if !ckpt_path.exists() {
        if let Err(e) = run_checkpoint(inner) {
            return writer.write_response(&Response::Err(RequestError::new(
                ErrorCode::Storage,
                format!("could not take a bootstrap checkpoint: {e}"),
            )));
        }
    }
    let bytes = match std::fs::read(&ckpt_path) {
        Ok(b) => b,
        Err(e) => {
            return writer.write_response(&Response::Err(RequestError::new(
                ErrorCode::Storage,
                format!("could not read {}: {e}", ckpt_path.display()),
            )));
        }
    };
    let chunks: Vec<&[u8]> = bytes.chunks(CHECKPOINT_CHUNK).collect();
    writer.write_response(&Response::Ok(Reply::CheckpointMeta {
        len: bytes.len() as u64,
        chunks: chunks.len() as u64,
    }))?;
    for chunk in chunks {
        writer.write_chunk(chunk)?;
    }
    Ok(())
}

/// Why a subscription stream ended.
enum StreamEnd {
    /// The requested position is outside the retained log (or a segment
    /// was pruned mid-stream); the follower must re-bootstrap.
    Resync(u64),
    /// The retained log could not be read/decoded where it must be valid.
    Corrupt(String),
    /// The follower hung up (or stopped draining for too long).
    Gone,
    /// The server is shutting down or was demoted.
    Closed,
}

/// Serves one `Subscribe { from_seq, epoch }` request: streams WAL
/// frames from the retained log, heartbeating while caught up, until
/// either side goes away.
pub(crate) fn serve_subscribe(
    inner: &Arc<Inner>,
    writer: &mut StreamWriter,
    from_seq: u64,
    epoch: u64,
) {
    if let Some(err) = require_primary(inner, "subscription") {
        let _ = writer.write_response(&Response::Err(err));
        return;
    }
    // A subscriber that has seen a higher epoch than this node proves this
    // node's primacy ended: refuse instead of streaming a stale fork.
    let our_epoch = inner.repl.epoch();
    if epoch > our_epoch {
        let _ = writer.write_response(&Response::Err(RequestError::new(
            ErrorCode::StaleEpoch,
            format!(
                "subscriber is at epoch {epoch} but this node is at {our_epoch}; \
                 this primary is stale and must stand down"
            ),
        )));
        return;
    }
    let Some(store) = &inner.store else {
        let _ = writer.write_response(&Response::Err(RequestError::new(
            ErrorCode::Unavailable,
            "subscription requires a data directory",
        )));
        return;
    };
    let _ = writer
        .stream()
        .set_write_timeout(Some(SUBSCRIBE_WRITE_TIMEOUT));
    let guard = FollowerGuard::new(inner);
    match stream_frames(inner, store, writer, from_seq, guard.id) {
        StreamEnd::Resync(base_ops) => {
            let _ = writer.write_response(&Response::Ok(Reply::ResyncRequired { base_ops }));
        }
        StreamEnd::Corrupt(msg) => {
            eprintln!("rl-server: subscription aborted: {msg}");
            let _ =
                writer.write_response(&Response::Err(RequestError::new(ErrorCode::Storage, msg)));
        }
        StreamEnd::Gone | StreamEnd::Closed => {}
    }
}

/// The sender loop: position in the retained log by counting frames from
/// the checkpoint watermark, then ship every frame past `from_seq`,
/// advancing across rotations and polling the active segment's tail.
fn stream_frames(
    inner: &Arc<Inner>,
    store: &Mutex<Store>,
    writer: &mut StreamWriter,
    from_seq: u64,
    follower_id: u64,
) -> StreamEnd {
    let (dir, base, head) = {
        let store = store.lock();
        (store.dir().to_path_buf(), store.base_ops(), store.op_seq())
    };
    if from_seq < base || from_seq > head {
        return StreamEnd::Resync(base);
    }
    // Subscribers send durability acks ([`wire::TAG_ACK`]) back up this
    // connection; poll for them on a cloned read half while caught up.
    // The short read timeout doubles as the tail-poll sleep.
    let Ok(ack_half) = writer.stream().try_clone() else {
        return StreamEnd::Gone;
    };
    let _ = ack_half.set_read_timeout(Some(SUBSCRIBE_POLL));
    let mut ack_frames = FrameReader::new(ack_half);
    // Tell the follower the head immediately: with no traffic it would
    // otherwise wait a full heartbeat interval to learn its lag is 0.
    if write_heartbeat(inner, writer, &dir, None).is_err() {
        return StreamEnd::Gone;
    }
    let segs = match scan_segments(&dir) {
        Ok(s) => s,
        Err(e) => return StreamEnd::Corrupt(format!("scan segments: {e}")),
    };
    let Some(&first) = segs.first() else {
        return StreamEnd::Resync(base);
    };
    // A checkpoint committing between the locked `base` read above and
    // this scan prunes segments and advances `base_ops`, so the oldest
    // segment just scanned would no longer start at op `base + 1` and
    // every label below would be wrong. `base_ops` moves (under the store
    // lock) *before* any pruning, so an unchanged value proves the scan
    // is consistent with `base`.
    let base_now = refresh_base(inner);
    if base_now != base {
        return StreamEnd::Resync(base_now);
    }
    let mut cur_seg = first;
    let mut reader = match open_segment(&dir, cur_seg) {
        Ok(r) => r,
        Err(Some(end)) => return end,
        Err(None) => return StreamEnd::Resync(refresh_base(inner)),
    };
    // Global seq of the last frame before the reader's cursor: the first
    // frame of the oldest retained segment is op `base + 1`.
    let mut last_seq = base;
    let mut next = from_seq + 1;
    let mut last_heartbeat = Instant::now();
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return StreamEnd::Closed;
        }
        match reader.next_frame() {
            Ok(Some(frame)) => {
                last_seq += 1;
                if last_seq >= next {
                    if writer.write_wal(last_seq, &frame).is_err() {
                        return StreamEnd::Gone;
                    }
                    next = last_seq + 1;
                }
            }
            Ok(None) => {
                // Nothing more in this segment right now. If a later
                // segment exists the WAL rotated and this one is final.
                let later = match scan_segments(&dir) {
                    Ok(s) => s.into_iter().filter(|&s| s > cur_seg).min(),
                    Err(e) => return StreamEnd::Corrupt(format!("scan segments: {e}")),
                };
                match later {
                    Some(next_seg) => {
                        // Rotation numbers segments contiguously, so a gap
                        // means segments were pruned under us (a follower
                        // lagging past a checkpoint, still draining a
                        // deleted-but-open segment) or quarantined by
                        // recovery. Counting frames across the gap would
                        // attach the missing ops' sequence numbers to
                        // later ops — silent divergence the follower's
                        // `seq == expected` check cannot catch. Resync.
                        if next_seg != cur_seg + 1 {
                            return StreamEnd::Resync(refresh_base(inner));
                        }
                        match reader.file_len() {
                            // Fully consumed; move to the next segment.
                            Ok(len) if reader.pos() >= len => {}
                            // A rotated segment should hold only complete
                            // frames; trailing bytes we cannot decode mean
                            // this reader's view is broken — resync.
                            Ok(_) => return StreamEnd::Resync(refresh_base(inner)),
                            Err(e) => return StreamEnd::Corrupt(format!("stat segment: {e}")),
                        }
                        cur_seg = next_seg;
                        reader = match open_segment(&dir, cur_seg) {
                            Ok(r) => r,
                            Err(Some(end)) => return end,
                            Err(None) => return StreamEnd::Resync(refresh_base(inner)),
                        };
                    }
                    None => {
                        // Caught up on the active segment: heartbeat, poll.
                        if !inner.repl.role.lock().is_primary() {
                            return StreamEnd::Closed;
                        }
                        if last_heartbeat.elapsed() >= HEARTBEAT_EVERY {
                            if write_heartbeat(inner, writer, &dir, Some((cur_seg, reader.pos())))
                                .is_err()
                            {
                                return StreamEnd::Gone;
                            }
                            last_heartbeat = Instant::now();
                        }
                        // The blocking-with-timeout ack read IS the tail
                        // poll: frames wake it immediately, the timeout
                        // caps the poll latency.
                        if drain_acks(inner, &mut ack_frames, follower_id).is_err() {
                            return StreamEnd::Gone;
                        }
                    }
                }
            }
            Err(e) => return StreamEnd::Corrupt(format!("read frame: {e}")),
        }
    }
}

/// Drains every follower ack currently readable on the subscription's
/// read half, publishing the newest durable position for quorum waiters.
/// `Err(())` means the follower hung up or broke framing (end the
/// stream). The final read blocks up to the socket's read timeout, which
/// is what paces the caught-up tail poll.
fn drain_acks(
    inner: &Inner,
    frames: &mut FrameReader<TcpStream>,
    follower_id: u64,
) -> Result<(), ()> {
    loop {
        match frames.read_frame() {
            Ok(Some((tag, payload))) if tag == wire::TAG_ACK => {
                if let Ok(seq) = wire::decode_ack(payload) {
                    publish_ack(inner, follower_id, seq);
                }
            }
            // A subscriber must only send acks after subscribing; any
            // other tag is a framing bug with no resync point.
            Ok(Some(_)) => return Err(()),
            Ok(None) => return Err(()),
            Err(e) if e.is_would_block() => return Ok(()),
            Err(_) => return Err(()),
        }
    }
}

/// Opens a segment for tailing. `Err(None)` means the file vanished (a
/// checkpoint pruned it under us — resync); `Err(Some(end))` is a real
/// failure.
fn open_segment(dir: &Path, seg: u64) -> Result<WalReader, Option<StreamEnd>> {
    match WalReader::open(&segment_path(dir, seg)) {
        Ok(r) => Ok(r),
        Err(StoreError::Io { ref source, .. }) if source.kind() == std::io::ErrorKind::NotFound => {
            Err(None)
        }
        Err(e) => Err(Some(StreamEnd::Corrupt(format!("open segment {seg}: {e}")))),
    }
}

fn refresh_base(inner: &Inner) -> u64 {
    inner
        .store
        .as_ref()
        .map(|s| s.lock().base_ops())
        .unwrap_or(0)
}

/// Emits one heartbeat: the store's head op seq plus the byte distance
/// from the subscriber's position (`at`) to the end of the retained log.
/// `None` for `at` means the subscriber is at the head (initial greeting).
fn write_heartbeat(
    inner: &Inner,
    writer: &mut StreamWriter,
    dir: &Path,
    at: Option<(u64, u64)>,
) -> std::io::Result<()> {
    let head_seq = inner.store.as_ref().map(|s| s.lock().op_seq()).unwrap_or(0);
    let lag_bytes = match at {
        None => 0,
        Some((cur_seg, pos)) => {
            let mut lag = std::fs::metadata(segment_path(dir, cur_seg))
                .map(|m| m.len().saturating_sub(pos))
                .unwrap_or(0);
            if let Ok(segs) = scan_segments(dir) {
                for seg in segs.into_iter().filter(|&s| s > cur_seg) {
                    lag += std::fs::metadata(segment_path(dir, seg))
                        .map(|m| m.len())
                        .unwrap_or(0);
                }
            }
            lag
        }
    };
    writer.write_response(&Response::Ok(Reply::Heartbeat {
        head_seq,
        lag_bytes,
        epoch: inner.repl.epoch(),
        // The lease grant (protocol v8): a follower running with
        // --auto-failover may elect a new primary once this many
        // milliseconds pass without stream progress. 0 = no lease.
        lease_ms: inner.config.lease_ms,
    }))
}

fn require_primary(inner: &Inner, what: &str) -> Option<RequestError> {
    let role = inner.repl.role.lock();
    match &*role {
        ReplRole::Primary => None,
        ReplRole::Follower { primary_addr } => Some(
            RequestError::new(
                ErrorCode::NotPrimary,
                format!("{what} must go to the primary"),
            )
            .with_primary(primary_addr.clone()),
        ),
        ReplRole::Standalone => Some(RequestError::new(
            ErrorCode::Unavailable,
            format!("{what} requires a replicating primary (start with --allow-replicas)"),
        )),
    }
}

/// Tracks one live subscription in the followers gauge and owns its slot
/// in the quorum-ack map.
struct FollowerGuard<'a> {
    inner: &'a Arc<Inner>,
    id: u64,
}

impl<'a> FollowerGuard<'a> {
    fn new(inner: &'a Arc<Inner>) -> Self {
        let n = inner.repl.followers.fetch_add(1, Ordering::SeqCst) + 1;
        inner.metrics.repl_followers.set(n as i64);
        let id = inner.repl.next_follower_id.fetch_add(1, Ordering::SeqCst);
        Self { inner, id }
    }
}

impl Drop for FollowerGuard<'_> {
    fn drop(&mut self) {
        let n = self.inner.repl.followers.fetch_sub(1, Ordering::SeqCst) - 1;
        self.inner.metrics.repl_followers.set(n as i64);
        // Wake quorum waiters counting on this follower: its acks are
        // gone, and they should re-evaluate (and eventually time out)
        // rather than sleep the full bound.
        self.inner
            .repl
            .acks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.id);
        self.inner.repl.ack_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_predicates_and_labels() {
        let follower = ReplRole::Follower {
            primary_addr: "a:1".into(),
        };
        assert!(ReplRole::Primary.is_primary());
        assert!(!ReplRole::Primary.is_follower());
        assert!(follower.is_follower());
        assert!(!ReplRole::Standalone.is_primary());
        assert_eq!(ReplRole::Standalone.label(), "standalone");
        assert_eq!(ReplRole::Primary.label(), "primary");
        assert_eq!(follower.label(), "follower");
    }
}
