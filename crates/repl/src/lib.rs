//! # rl-repl — WAL-shipping replication for the linkage service
//!
//! Runs a **read replica**: a durable `rl-server` in
//! [`ReplRole::Follower`] whose data directory is seeded from the
//! primary's checkpoint and then kept current by tailing the primary's
//! write-ahead log over the wire (protocol v5).
//!
//! ```text
//!  primary (rl-server --allow-replicas)          follower (this crate)
//!  ───────────────────────────────────           ─────────────────────
//!  WAL segments on disk ──▶ Subscribe stream ──▶ apply loop
//!    (FetchCheckpoint bootstraps; WalFrame per op; Heartbeat when idle)
//! ```
//!
//! The follower applies each frame through the same tombstone-aware path
//! recovery uses, **write-ahead logging it locally first** — so its data
//! directory is a faithful clone of the primary's history, restarts
//! resume from the local WAL without re-bootstrapping, and `Promote` is
//! just a role flip plus a segment rotation.
//!
//! Shipping is asynchronous by default: the primary acknowledges writers
//! without waiting for any follower (`--sync-replicas N` upgrades that to
//! quorum acks, see `docs/REPLICATION.md`). Protocol v8 adds
//! self-healing: the primary grants **leases** on its heartbeats, and a
//! follower running with [`FollowerConfig::auto_failover`] holds a
//! deterministic **election** when its lease expires — the reachable
//! follower with the highest applied sequence (ties broken by smallest
//! address) promotes itself, bumping the **primary epoch** so the old
//! primary's frames are fenced everywhere if it comes back.

use rl_server::{
    ApplyError, Client, ClientError, DurabilityConfig, ReplHandle, ReplRole, Reply, Request,
    Server, ServerConfig,
};
use rl_store::{install_checkpoint, scan_segments, Checkpoint, CHECKPOINT_FILE};
use std::io::ErrorKind;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Follower tuning. Wraps the embedded server's own config (which must
/// carry a [`DurabilityConfig`]: the local WAL is what makes restarts and
/// promotion cheap).
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// The primary's address (host:port), also handed to clients in
    /// `NotPrimary` redirects.
    pub primary_addr: String,
    /// Configuration for the embedded read-only server. Its `repl_role`
    /// is overwritten with `Follower { primary_addr }`.
    pub server: ServerConfig,
    /// Socket timeout for primary connections. Also the staleness bound:
    /// the primary heartbeats twice a second, so a read that hits this
    /// timeout means the primary is gone and triggers a reconnect.
    pub request_timeout: Duration,
    /// First reconnect delay; doubles per failure (plus jitter).
    pub backoff_base: Duration,
    /// Reconnect delay ceiling.
    pub backoff_cap: Duration,
    /// Connection attempts for the initial checkpoint bootstrap before
    /// `spawn` gives up (each retry backs off like a reconnect).
    pub bootstrap_attempts: u32,
    /// Hold an election when the primary's lease expires (protocol v8).
    /// Off by default: without it, failover stays a manual `rl promote`.
    pub auto_failover: bool,
    /// The other replica addresses (host:port) consulted during an
    /// election. The follower only promotes itself when no reachable peer
    /// is already primary or better positioned (higher applied sequence,
    /// ties broken by smallest address). Its own address is skipped.
    pub peers: Vec<String>,
}

impl FollowerConfig {
    /// Follower of `primary_addr` serving on `server`, with default
    /// timeouts (5 s requests, 100 ms–5 s reconnect backoff).
    pub fn new(primary_addr: impl Into<String>, server: ServerConfig) -> Self {
        Self {
            primary_addr: primary_addr.into(),
            server,
            request_timeout: Duration::from_secs(5),
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
            bootstrap_attempts: 10,
            auto_failover: false,
            peers: Vec::new(),
        }
    }
}

/// A running read replica: the embedded server plus its apply loop.
pub struct Follower {
    server: Server,
    apply: Option<std::thread::JoinHandle<()>>,
}

impl Follower {
    /// Boots a follower: seeds the data directory from the primary's
    /// checkpoint when it is empty, starts the embedded server in
    /// follower role (recovering any local WAL tail), and spawns the
    /// apply loop that subscribes to the primary and applies its frames.
    ///
    /// # Errors
    /// Config without durability, an unreachable primary during
    /// bootstrap, a checkpoint the local pipeline rejects, or any server
    /// spawn failure.
    pub fn spawn(config: FollowerConfig) -> std::io::Result<Self> {
        let mut server_config = config.server.clone();
        server_config.repl_role = ReplRole::Follower {
            primary_addr: config.primary_addr.clone(),
        };
        let Some(durability) = server_config.durability.clone() else {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "a follower requires durability (its local WAL mirrors the primary)",
            ));
        };
        // A bootstrap is live contact with the primary, so it doubles as
        // the first lease grant: without it, a primary that dies before
        // the subscription's first heartbeat would leave the lease unset
        // and auto-failover permanently inert.
        let seed_lease_ms = if needs_bootstrap(&durability) {
            bootstrap(&config, &durability)?
        } else {
            0
        };
        let server = Server::spawn_durable(
            || {
                Err(std::io::Error::other(
                    "follower bootstrap left no checkpoint in the data directory",
                ))
            },
            server_config,
        )?;
        let handle = server.repl_handle();
        let self_addr = server.local_addr().to_string();
        // Without its apply loop the server stops; its threads see the
        // flag and exit.
        let apply = std::thread::Builder::new()
            .name("rl-repl-apply".into())
            .spawn(move || apply_loop(&handle, &config, &self_addr, seed_lease_ms))
            .inspect_err(|_| server.shutdown())?;
        Ok(Self {
            server,
            apply: Some(apply),
        })
    }

    /// The follower's own listening address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// The embedded server (e.g. for [`Server::repl_handle`]).
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Begins shutdown of the embedded server; the apply loop notices
    /// within one backoff slice.
    pub fn shutdown(&self) {
        self.server.shutdown();
    }

    /// Blocks until the apply loop and the embedded server have stopped.
    pub fn wait(mut self) {
        if let Some(handle) = self.apply.take() {
            let _ = handle.join();
        }
        self.server.wait();
    }
}

/// A directory bootstraps only when it carries no history at all: with a
/// checkpoint or any WAL segment, startup recovery rebuilds locally and
/// the subscription resumes from the recovered op sequence.
fn needs_bootstrap(durability: &DurabilityConfig) -> bool {
    let dir = &durability.data_dir;
    !dir.join(CHECKPOINT_FILE).exists() && scan_segments(dir).map_or(true, |s| s.is_empty())
}

/// Fetches the primary's checkpoint and installs it as the data
/// directory's starting point, retrying with backoff while the primary
/// is unreachable. Returns the primary's lease grant (`lease_ms`, 0 if
/// it grants none) so the caller can start the failover clock from this
/// contact.
fn bootstrap(config: &FollowerConfig, durability: &DurabilityConfig) -> std::io::Result<u64> {
    let mut backoff = Backoff::new(config.backoff_base, config.backoff_cap);
    let mut last_err = String::new();
    for attempt in 0..config.bootstrap_attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(backoff.next_delay());
        }
        let mut client = match Client::connect_with_timeout(
            config.primary_addr.as_str(),
            Some(config.request_timeout),
        ) {
            Ok(c) => c,
            Err(e) => {
                last_err = format!("connect {}: {e}", config.primary_addr);
                continue;
            }
        };
        // Asked before the transfer, because the transfer ends with the
        // primary closing the connection. Best effort: an error here just
        // means the lease gets seeded on the first subscription instead.
        let grant = client.repl_status().map(|s| s.lease_ms).unwrap_or(0);
        match fetch_checkpoint(&mut client) {
            Ok((bytes, ckpt)) => {
                install_checkpoint(&durability.data_dir, &bytes)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                eprintln!(
                    "rl-repl: bootstrapped from {} (checkpoint at op seq {})",
                    config.primary_addr, ckpt.ops
                );
                return Ok(grant);
            }
            Err(e) => last_err = e,
        }
    }
    Err(std::io::Error::other(format!(
        "bootstrap from {} failed after {} attempt(s): {last_err}",
        config.primary_addr, config.bootstrap_attempts
    )))
}

/// Downloads the primary's checkpoint over an open connection (which
/// the primary closes afterwards). The client handles the transfer
/// framing; [`Checkpoint::from_bytes`] parses and validates the document.
/// Returns the bytes as received with the document they hold.
fn fetch_checkpoint(client: &mut Client) -> Result<(Vec<u8>, Checkpoint), String> {
    let bytes = client
        .fetch_checkpoint_raw()
        .map_err(|e| format!("checkpoint transfer: {e}"))?;
    let ckpt =
        Checkpoint::from_bytes(&bytes, None).map_err(|e| format!("checkpoint invalid: {e}"))?;
    Ok((bytes, ckpt))
}

/// The primary's lease, as granted on its stream heartbeats. Any applied
/// frame or heartbeat from the primary renews it; when it runs out and
/// the session is down, the primary is presumed dead and (under
/// `auto_failover`) an election runs.
struct Lease {
    /// Last grant size seen (0 = the primary grants no leases, so
    /// automatic failover never triggers).
    lease_ms: u64,
    deadline: Option<Instant>,
}

impl Lease {
    fn new() -> Self {
        Self {
            lease_ms: 0,
            deadline: None,
        }
    }

    /// Renews from a heartbeat grant (`lease_ms > 0` replaces the grant
    /// size) or from frame progress (`lease_ms == 0` reuses the last
    /// grant).
    fn renew(&mut self, lease_ms: u64) {
        if lease_ms > 0 {
            self.lease_ms = lease_ms;
        }
        if self.lease_ms > 0 {
            self.deadline = Some(Instant::now() + Duration::from_millis(self.lease_ms));
        }
    }

    /// True only when a grant existed and has run out.
    fn expired(&self) -> bool {
        matches!(self.deadline, Some(d) if Instant::now() >= d)
    }
}

/// An election's outcome, from this follower's point of view.
enum Election {
    /// This node promoted itself (the new epoch is logged by the caller).
    Promoted,
    /// Another node is (or is becoming) primary at this address —
    /// re-point the subscription there.
    Retarget(String),
    /// Someone better positioned should win, or nobody is reachable;
    /// keep reconnecting and re-electing.
    Defer,
}

/// The follower's long-running loop: subscribe, apply, and on any
/// failure reconnect with capped exponential backoff. Exits when the
/// server shuts down or the node stops being a follower (promote —
/// manual, or won here when `auto_failover` is on and the primary's
/// lease lapses).
fn apply_loop(handle: &ReplHandle, config: &FollowerConfig, self_addr: &str, seed_lease_ms: u64) {
    let mut backoff = Backoff::new(config.backoff_base, config.backoff_cap);
    let mut lease = Lease::new();
    // The bootstrap's grant, if any: the failover clock starts at the
    // last live contact, which may predate the first subscription.
    lease.renew(seed_lease_ms);
    // The subscription target: starts at the configured primary, moves
    // when an election (or a promoted peer) says the role did.
    let mut primary_addr = config.primary_addr.clone();
    let mut first = true;
    while !handle.is_shutdown() && handle.role().is_follower() {
        if !first {
            handle.note_reconnect();
            if sleep_checking_shutdown(handle, backoff.next_delay()) {
                break;
            }
        }
        first = false;
        match run_session(handle, config, &primary_addr, &mut backoff, &mut lease) {
            Ok(()) => break, // clean exit: shutdown or promoted
            Err(e) => {
                if handle.is_shutdown() {
                    break;
                }
                eprintln!("rl-repl: session with {primary_addr} ended: {e}");
                if config.auto_failover && lease.expired() {
                    match run_election(handle, config, self_addr, &primary_addr) {
                        Election::Promoted => break,
                        Election::Retarget(addr) => {
                            eprintln!("rl-repl: following new primary at {addr}");
                            primary_addr = addr;
                            lease = Lease::new();
                            backoff.reset();
                        }
                        Election::Defer => {}
                    }
                }
            }
        }
    }
}

/// Decides who should be primary now that the lease on `primary_addr`
/// has expired, by polling actual replication state rather than voting:
/// the reachable node with the highest applied sequence must win (it has
/// the most acknowledged history), ties broken by smallest address so
/// every participant picks the same winner. Polls are best-effort with
/// short timeouts; an unreachable peer simply doesn't count — worst case
/// two nodes promote and the epoch bump fences the loser's writers away.
fn run_election(
    handle: &ReplHandle,
    config: &FollowerConfig,
    self_addr: &str,
    primary_addr: &str,
) -> Election {
    let started = Instant::now();
    let poll_timeout = config.request_timeout.min(Duration::from_secs(1));
    // The lease can lapse on a blip the TCP session didn't survive; if
    // the primary still answers as primary, this was not its death.
    if let Some(status) = peer_status(primary_addr, poll_timeout) {
        if status.role != "follower" {
            return Election::Defer;
        }
    }
    let my_applied = handle.op_seq();
    for peer in &config.peers {
        if peer == self_addr || peer == primary_addr {
            continue;
        }
        let Some(status) = peer_status(peer, poll_timeout) else {
            continue;
        };
        if status.role == "primary" {
            return Election::Retarget(peer.clone());
        }
        let better_seq = status.applied_seq > my_applied;
        let tie_break = status.applied_seq == my_applied && peer.as_str() < self_addr;
        if status.role == "follower" && (better_seq || tie_break) {
            // The better-positioned peer runs the same deterministic
            // rule and will promote itself; a later election round
            // finds it as primary and retargets.
            return Election::Defer;
        }
    }
    // Nobody reachable beats this node: promote through the local server
    // (the same path a manual `rl promote` takes, so every invariant —
    // resync window, epoch bump, segment rotation — holds).
    match Client::connect_with_timeout(self_addr, Some(poll_timeout)).and_then(|mut c| c.promote())
    {
        Ok((head_seq, _, epoch)) => {
            eprintln!(
                "rl-repl: lease expired; won election in {:?} — promoted to primary at op \
                 seq {head_seq} (epoch {epoch})",
                started.elapsed()
            );
            Election::Promoted
        }
        Err(e) => {
            eprintln!("rl-repl: self-promote failed ({e}); will retry");
            Election::Defer
        }
    }
}

/// One best-effort `ReplStatus` poll of a peer. Single-shot: a hung or
/// half-dead peer (e.g. a dying primary whose listen backlog still
/// accepts) costs one `timeout`, never a retry's worth on top.
fn peer_status(addr: &str, timeout: Duration) -> Option<rl_server::ReplStatusReply> {
    let mut client = Client::connect_with_timeout(addr, Some(timeout)).ok()?;
    client.repl_status_once().ok()
}

/// Fetches a fresh checkpoint over a reconnected client and installs it,
/// with the resync window flagged so a concurrent `Promote` is refused
/// rather than crowning a half-loaded store. Both the stream that ended
/// and the transfer leave a closed connection behind, hence the two
/// reconnects; the client comes back ready to resubscribe.
fn resync_from_primary(handle: &ReplHandle, client: &mut Client) -> Result<(), String> {
    let reconnect = |client: &mut Client| client.reconnect().map_err(|e| format!("reconnect: {e}"));
    handle.set_resyncing(true);
    let result = reconnect(client)
        .and_then(|()| fetch_checkpoint(client))
        .and_then(|(bytes, ckpt)| handle.resync(&bytes, ckpt));
    handle.set_resyncing(false);
    result.and_then(|()| reconnect(client))
}

/// One connected session: subscribe from the local op sequence and apply
/// the stream, resyncing from a fresh checkpoint when the primary's
/// retained log no longer reaches back to our position.
///
/// The reconnect backoff resets only on *progress* — an applied frame, or
/// a heartbeat after the stream's greeting heartbeat. The greeting
/// arrives before the primary has validated our position at all, so
/// counting it as progress would let a doomed session (one that dies
/// right after greeting, every time) hot-loop reconnects at the base
/// delay forever.
fn run_session(
    handle: &ReplHandle,
    config: &FollowerConfig,
    primary_addr: &str,
    backoff: &mut Backoff,
    lease: &mut Lease,
) -> Result<(), String> {
    // A granted lease caps how long the primary may go silent, so it
    // also caps how long this follower waits on it: a hung-but-listening
    // primary (frozen process, dying listener whose backlog still
    // accepts) must not stall the reconnect — and therefore the election
    // behind it — for the full request timeout. Floored at 1 s so a
    // short lease never times out the stream between 500 ms heartbeats.
    let contact_timeout = if lease.lease_ms > 0 {
        config
            .request_timeout
            .min(Duration::from_millis(lease.lease_ms).max(Duration::from_secs(1)))
    } else {
        config.request_timeout
    };
    let mut client = Client::connect_with_timeout(primary_addr, Some(contact_timeout))
        .map_err(|e| format!("connect: {e}"))?;
    // Seed the lease on first contact rather than waiting for a stream
    // heartbeat: a primary can die right after a follower attaches, and
    // a grant learned only from heartbeats would never start ticking —
    // leaving auto-failover inert in exactly the crash it exists for.
    if config.auto_failover {
        let status = client.repl_status().map_err(|e| format!("status: {e}"))?;
        lease.renew(status.lease_ms);
    }
    loop {
        if handle.is_shutdown() || !handle.role().is_follower() {
            return Ok(());
        }
        client
            .send(&Request::Subscribe {
                from_seq: handle.op_seq(),
                epoch: handle.epoch(),
            })
            .map_err(|e| format!("subscribe: {e}"))?;
        let mut greeted = false;
        loop {
            if handle.is_shutdown() || !handle.role().is_follower() {
                return Ok(());
            }
            match client.recv() {
                Ok(Reply::WalFrame { seq, op, epoch }) => {
                    match handle.apply(seq, &op, epoch) {
                        Ok(()) => {
                            backoff.reset();
                            lease.renew(0);
                            // Durable and applied: report it upstream for
                            // `--sync-replicas` quorums. A write failure
                            // will resurface on the next recv.
                            let _ = client.send_ack(seq);
                        }
                        Err(ApplyError::Retry(e)) => return Err(e),
                        Err(ApplyError::StaleEpoch(e)) => {
                            // The sender is a fenced ex-primary; its whole
                            // stream is poison, not just this frame.
                            return Err(e);
                        }
                        Err(ApplyError::Resync(e)) => {
                            // The local WAL and index disagree (e.g. an op
                            // went durable but failed to apply); a plain
                            // resubscribe from `op_seq` would skip it
                            // forever. Re-bootstrap resets both from a
                            // fresh primary checkpoint.
                            eprintln!("rl-repl: {e}; re-bootstrapping from a fresh checkpoint");
                            resync_from_primary(handle, &mut client)?;
                            break;
                        }
                    }
                }
                Ok(Reply::Heartbeat {
                    head_seq,
                    lag_bytes,
                    epoch,
                    lease_ms,
                }) => {
                    let known = handle.epoch();
                    if epoch < known {
                        return Err(format!(
                            "heartbeat carries epoch {epoch} but this follower has \
                             observed epoch {known}; the sender is a fenced ex-primary"
                        ));
                    }
                    if epoch > known {
                        handle
                            .observe_epoch(epoch)
                            .map_err(|e| format!("epoch adoption failed: {e}"))?;
                    }
                    handle.update_lag(head_seq, lag_bytes);
                    lease.renew(lease_ms);
                    if greeted {
                        backoff.reset();
                    }
                    greeted = true;
                }
                Ok(Reply::ResyncRequired { base_ops }) => {
                    eprintln!(
                        "rl-repl: position {} fell out of the primary's retained log \
                         (base {base_ops}); re-bootstrapping from a fresh checkpoint",
                        handle.op_seq()
                    );
                    // The primary closes the subscription after this
                    // frame; fetch the checkpoint over a new connection,
                    // then resubscribe on a third.
                    resync_from_primary(handle, &mut client)?;
                    break;
                }
                Ok(other) => return Err(format!("unexpected stream reply: {other:?}")),
                Err(ClientError::Server(e)) => return Err(format!("subscription refused: {e}")),
                Err(e) => return Err(format!("stream: {e}")),
            }
        }
    }
}

/// Sleeps `total` in short slices, returning `true` (and early) once the
/// server begins shutdown.
fn sleep_checking_shutdown(handle: &ReplHandle, total: Duration) -> bool {
    let slice = Duration::from_millis(50);
    let mut remaining = total;
    while remaining > Duration::ZERO {
        if handle.is_shutdown() {
            return true;
        }
        let step = remaining.min(slice);
        std::thread::sleep(step);
        remaining -= step;
    }
    handle.is_shutdown()
}

/// Capped exponential backoff with jitter. The jitter source is the
/// clock's subsecond nanos — good enough to de-synchronize a fleet of
/// followers without pulling a PRNG dependency into this crate.
struct Backoff {
    base: Duration,
    cap: Duration,
    next: Duration,
}

impl Backoff {
    fn new(base: Duration, cap: Duration) -> Self {
        let base = base.max(Duration::from_millis(1));
        Self {
            base,
            cap: cap.max(base),
            next: base,
        }
    }

    /// The delay to sleep before the next attempt; doubles (up to the
    /// cap) each call, with up to +25% jitter.
    fn next_delay(&mut self) -> Duration {
        let delay = self.next;
        self.next = (self.next * 2).min(self.cap);
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let jitter = delay.mul_f64(f64::from(nanos % 1000) / 4000.0);
        (delay + jitter).min(self.cap)
    }

    /// Healthy traffic resets the ladder.
    fn reset(&mut self) {
        self.next = self.base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_to_cap_and_resets() {
        let mut b = Backoff::new(Duration::from_millis(100), Duration::from_millis(450));
        let d1 = b.next_delay();
        assert!(d1 >= Duration::from_millis(100) && d1 <= Duration::from_millis(125));
        let d2 = b.next_delay();
        assert!(d2 >= Duration::from_millis(200) && d2 <= Duration::from_millis(250));
        let d3 = b.next_delay();
        assert!(d3 >= Duration::from_millis(400) && d3 <= Duration::from_millis(450));
        let d4 = b.next_delay();
        assert!(d4 <= Duration::from_millis(450), "capped");
        b.reset();
        let d5 = b.next_delay();
        assert!(d5 <= Duration::from_millis(125), "reset to base");
    }

    #[test]
    fn follower_config_defaults() {
        let cfg = FollowerConfig::new("127.0.0.1:7001", ServerConfig::default());
        assert_eq!(cfg.primary_addr, "127.0.0.1:7001");
        assert_eq!(cfg.request_timeout, Duration::from_secs(5));
        assert!(cfg.backoff_base < cfg.backoff_cap);
        assert!(cfg.bootstrap_attempts > 0);
    }

    #[test]
    fn bootstrap_detection_requires_empty_dir() {
        let dir = std::env::temp_dir().join(format!("rl-repl-bootstrap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durability = DurabilityConfig::new(&dir);
        assert!(needs_bootstrap(&durability), "missing dir bootstraps");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(needs_bootstrap(&durability), "empty dir bootstraps");
        std::fs::write(dir.join(CHECKPOINT_FILE), b"{}").unwrap();
        assert!(
            !needs_bootstrap(&durability),
            "a checkpoint means local recovery, not bootstrap"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
