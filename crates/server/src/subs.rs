//! Streaming match subscriptions (protocol v6).
//!
//! A `SubscribeMatches` request compiles its rule into a pruned blocking
//! plan (via [`rl_streamrule::WindowedEngine`]) and switches the
//! connection into a push stream: every mutation the server ingests is
//! fanned out to the live subscriptions, and each one that matches inside
//! its window becomes a [`Reply::MatchEvent`] line, interleaved with
//! [`Reply::Heartbeat`] keep-alives while idle.
//!
//! Delivery is decoupled from ingestion by a **bounded** per-subscription
//! event queue ([`SUB_QUEUE_CAPACITY`]): the mutation path never blocks on
//! a slow subscriber — it drops the event, and the subscriber's stream is
//! terminated with a typed [`Reply::SubscriptionLagged`] telling it how
//! many events it lost and that it must resubscribe. This mirrors
//! replication's `ResyncRequired` contract: the server never buffers
//! unboundedly on behalf of a consumer that cannot keep up.
//!
//! The engine holds nothing while no subscription is live (a server
//! nobody watches pays one uncontended lock per ingested record), so a
//! window only covers records ingested after its subscription existed.
//! Each subscription compiles its own rule; the server's classifier plays
//! no part, so any pipeline serves subscriptions. Explicit `Delete`
//! requests are forwarded so removed records stop matching immediately.

use crate::conn::StreamWriter;
use crate::protocol::{ErrorCode, Reply, RequestError, Response};
use crate::repl::HEARTBEAT_EVERY;
use crate::server::Inner;
use cbv_hb::schema::RecordSchema;
use cbv_hb::{parse_rule, RecordView};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_streamrule::{LateArrival, SubscriptionSpec, WindowSpec, WindowedEngine};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Events a subscription may hold undelivered before it is declared
/// lagged. Small on purpose: the queue absorbs scheduling jitter, not
/// sustained slowness.
pub(crate) const SUB_QUEUE_CAPACITY: usize = 64;

/// How often the serving loop wakes to heartbeat, run time-window
/// eviction ticks, and notice shutdown while no events are flowing.
const SUB_POLL: Duration = Duration::from_millis(20);

/// If a subscriber stops draining its socket for this long, the sender
/// drops the connection rather than blocking a thread forever.
const SUB_WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// One undelivered match event: the wire line plus when the mutation
/// produced it (for the observe-to-delivery latency histogram).
type Event = (Reply, Instant);

/// The hub's per-subscription delivery state. The engine holds the
/// matching state under the same id.
struct SubConn {
    tx: Sender<Event>,
    /// Events dropped because the queue was full; non-zero means the
    /// serving loop must terminate the stream with `SubscriptionLagged`.
    dropped: Arc<AtomicU64>,
}

/// Shared state for all live match subscriptions.
pub(crate) struct SubHub {
    engine: WindowedEngine,
    conns: Mutex<HashMap<u64, SubConn>>,
    max_subscriptions: usize,
    /// Monotone milliseconds since the hub was created — the event-time
    /// source for windows and lateness (server-assigned ingestion time).
    started: Instant,
    /// Seed source for per-subscription plan compilation.
    seed: AtomicU64,
}

impl SubHub {
    pub(crate) fn new(schema: RecordSchema, max_subscriptions: usize) -> Self {
        Self {
            engine: WindowedEngine::new(schema),
            conns: Mutex::new(HashMap::new()),
            max_subscriptions: max_subscriptions.max(1),
            started: Instant::now(),
            seed: AtomicU64::new(0x5eed_0006),
        }
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Whether any subscription is open: with none, a record needs no
    /// fan-out.
    pub(crate) fn any_open(&self) -> bool {
        self.engine.subscriptions() > 0
    }

    /// Live subscriptions (for tests and the `Unavailable` cap check).
    pub(crate) fn live(&self) -> usize {
        self.conns.lock().len()
    }

    /// Fans one ingested record out to every live subscription. Called
    /// from the mutation path under the state write lock, so event order
    /// matches mutation order. Never blocks: a full queue drops the event
    /// and marks the subscription lagged.
    pub(crate) fn observe(
        &self,
        metrics: &crate::metrics::ServerMetrics,
        record: &impl RecordView,
    ) {
        let outcome = match self.engine.observe(record, self.now_ms()) {
            Ok(outcome) => outcome,
            // The pipeline already validated the record; an error here is
            // a schema drift bug worth surfacing, not worth failing the
            // (already applied) mutation over.
            Err(e) => {
                eprintln!(
                    "rl-server: subscription fan-out skipped record {}: {e}",
                    record.id()
                );
                return;
            }
        };
        if outcome.evicted > 0 {
            metrics.window_evictions.add(outcome.evicted);
        }
        if outcome.events.is_empty() {
            return;
        }
        let produced = Instant::now();
        let conns = self.conns.lock();
        for ev in outcome.events {
            let Some(conn) = conns.get(&ev.sub) else {
                continue;
            };
            let line = Reply::MatchEvent {
                sub_id: ev.sub,
                record_id: ev.record_id,
                matched: ev.matched,
            };
            match conn.tx.try_send((line, produced)) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    conn.dropped.fetch_add(1, Ordering::Relaxed);
                }
                // Serving loop is tearing down; it will unregister itself.
                Err(TrySendError::Disconnected(_)) => {}
            }
        }
    }

    /// Forwards an explicit delete so the record stops matching in every
    /// window immediately (not just at eviction).
    pub(crate) fn remove(&self, id: u64) {
        self.engine.remove(id);
    }

    /// Cancels a subscription by id from any connection. Dropping the
    /// sender ends the serving loop's stream cleanly.
    pub(crate) fn unsubscribe(&self, sub_id: u64) -> bool {
        let conn = self.conns.lock().remove(&sub_id);
        self.engine.unsubscribe(sub_id);
        conn.is_some()
    }
}

/// Unregisters the subscription and keeps the `rl_subs_active` gauge
/// honest however the serving loop exits (lag, hangup, shutdown,
/// unsubscribe).
struct SubGuard<'a> {
    inner: &'a Arc<Inner>,
    sub_id: u64,
}

impl<'a> SubGuard<'a> {
    fn new(inner: &'a Arc<Inner>, sub_id: u64) -> Self {
        inner.metrics.subs_active.set(inner.subs.live() as i64);
        Self { inner, sub_id }
    }
}

impl Drop for SubGuard<'_> {
    fn drop(&mut self) {
        self.inner.subs.unsubscribe(self.sub_id);
        self.inner
            .metrics
            .subs_active
            .set(self.inner.subs.live() as i64);
    }
}

/// Serves one `SubscribeMatches` request: the event stream, or a single
/// error response when the subscription is refused. The caller closes
/// the connection afterwards either way.
pub(crate) fn serve_subscribe_matches(
    inner: &Arc<Inner>,
    writer: &mut StreamWriter,
    rule: &str,
    window: WindowSpec,
    late: LateArrival,
    cap: u64,
) {
    let refuse = |writer: &mut StreamWriter, err: RequestError| {
        let _ = writer.write_response(&Response::Err(err));
    };
    if inner.shutdown.load(Ordering::SeqCst) {
        return refuse(
            writer,
            RequestError::new(ErrorCode::ShuttingDown, "server is shutting down"),
        );
    }
    let rule = match parse_rule(rule) {
        Ok(rule) => rule,
        Err(e) => {
            return refuse(
                writer,
                RequestError::new(ErrorCode::Parse, format!("bad rule: {e}")),
            )
        }
    };
    let engine = &inner.subs.engine;
    // Register under the conns lock so two racing subscribes cannot both
    // squeeze past the limit.
    let (sub_id, rx, dropped) = {
        let mut conns = inner.subs.conns.lock();
        if conns.len() >= inner.subs.max_subscriptions {
            return refuse(
                writer,
                RequestError::new(
                    ErrorCode::Unavailable,
                    format!(
                        "subscription limit reached ({}); raise --max-subscriptions",
                        inner.subs.max_subscriptions
                    ),
                ),
            );
        }
        let mut spec = SubscriptionSpec::new(rule, window);
        spec.late = late;
        spec.cap = cap as usize;
        let mut rng = StdRng::seed_from_u64(inner.subs.seed.fetch_add(1, Ordering::Relaxed));
        let sub_id = match engine.subscribe(spec, &mut rng) {
            Ok(id) => id,
            Err(e) => {
                drop(conns);
                return refuse(writer, RequestError::new(ErrorCode::Linkage, e.to_string()));
            }
        };
        let (tx, rx) = bounded::<Event>(SUB_QUEUE_CAPACITY);
        let dropped = Arc::new(AtomicU64::new(0));
        conns.insert(
            sub_id,
            SubConn {
                tx,
                dropped: Arc::clone(&dropped),
            },
        );
        (sub_id, rx, dropped)
    };
    let guard = SubGuard::new(inner, sub_id);
    let tables = engine.sub_tables(sub_id).unwrap_or(0) as u64;
    let _ = writer.stream().set_write_timeout(Some(SUB_WRITE_TIMEOUT));
    if writer
        .write_response(&Response::Ok(Reply::Subscribed { sub_id, tables }))
        .is_ok()
    {
        stream_events(inner, writer, &rx, &dropped);
    }
    drop(guard);
}

/// The serving loop: drains the subscription's queue onto the socket,
/// heartbeats while idle, runs time-window eviction ticks, and terminates
/// with `SubscriptionLagged` the moment any event was dropped.
fn stream_events(
    inner: &Arc<Inner>,
    writer: &mut StreamWriter,
    rx: &Receiver<Event>,
    dropped: &AtomicU64,
) {
    let mut last_heartbeat = Instant::now();
    let mut last_evict = Instant::now();
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let lost = dropped.load(Ordering::Relaxed);
        if lost > 0 {
            // The stream has a hole; deliver the contract line and stop.
            // Draining the queue first would only widen the gap's age.
            inner.metrics.sub_lagged.inc();
            let _ =
                writer.write_response(&Response::Ok(Reply::SubscriptionLagged { dropped: lost }));
            return;
        }
        match rx.recv_timeout(SUB_POLL) {
            Ok((line, produced)) => {
                if writer.write_response(&Response::Ok(line)).is_err() {
                    return;
                }
                inner.metrics.sub_events.inc();
                inner
                    .metrics
                    .sub_deliver
                    .observe_duration(produced.elapsed());
                last_heartbeat = Instant::now();
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                if last_heartbeat.elapsed() >= HEARTBEAT_EVERY {
                    let line = Reply::Heartbeat {
                        head_seq: 0,
                        lag_bytes: 0,
                        epoch: 0,
                        lease_ms: 0,
                    };
                    if writer.write_response(&Response::Ok(line)).is_err() {
                        return;
                    }
                    last_heartbeat = Instant::now();
                }
                // Idle streams still expire time windows.
                if last_evict.elapsed() >= HEARTBEAT_EVERY {
                    let evicted = inner.subs.engine.evict_due(inner.subs.now_ms());
                    if evicted > 0 {
                        inner.metrics.window_evictions.add(evicted);
                    }
                    last_evict = Instant::now();
                }
            }
            // Unsubscribed (sender dropped): clean end of stream.
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
        }
    }
}
