//! Traced run, serving figures: the read-only child server over loopback —
//! bulk index, oracle check, then the timed probe phases, a part of each in
//! every round: closed loop, saturating closed loop, open loop at fixed
//! rates. None of these is gated (README.md, "What is not gated").
//!
//! The load generator is this one process with at most two client threads
//! or connections: the box has two cores.

use crate::batch::{ns_since, ORACLE_PROBES};
use crate::child::Child;
use crate::report::Report;
use crate::stats::{median, window_rates, Done, Latencies};
use crate::workload::{Data, Spec};
use cbv_hb::Record;
use rl_server::client::Client;
use rl_server::protocol::{wire, Reply, Request, Response, PROTOCOL_VERSION};
use rl_wire::FrameReader;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(20);
/// Shares of a round's timed seconds: closed-loop probes, saturating
/// probes, open loop (all three rates); `mixed::MIX_SHARE` is the fourth.
const CLOSED_SHARE: f64 = 0.25;
const SATURATING_SHARE: f64 = 0.15;
const OPEN_SHARE: f64 = 0.25;
/// Windows one round of a throughput phase is cut into.
pub const RATE_WINDOWS: usize = 4;
/// The open loop's gated percentiles are p50 and p90, so it is the
/// generator's p90 that has to be on time: a run whose generator was later
/// than this at p90 is flagged `open_loop_valid: false`. (Latency is timed
/// from the due time, so lateness can only make the server look worse.)
const MAX_LATENESS_P90_US: f64 = 50.0;
/// Latency limit the diagnostic "highest rate that meets it" is read against.
const OPEN_P99_LIMIT_US: f64 = 250.0;

pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect_binary_with_timeout(addr, Some(CLIENT_TIMEOUT)).map_err(|e| e.to_string())
}

/// Head of a timed window discarded as warm-up.
pub fn warmup(window: Duration) -> Duration {
    (window / 10).min(Duration::from_secs(1))
}

/// Loads `records` in requests of `request` records, returning the time in
/// nanoseconds each slice of `slice_requests` requests took to become
/// searchable. `ShardedPipeline::index` acknowledges before the shard
/// threads have inserted, so every slice ends with a one-record probe: it
/// queues behind the inserts on both shards, and its reply is the moment
/// the slice is searchable.
pub fn bulk_load(
    client: &mut Client,
    records: &[Record],
    request: usize,
    slice_requests: usize,
    durable: bool,
    report: &mut Report,
) -> Vec<u64> {
    let mut times = Vec::new();
    for slice in records.chunks(request * slice_requests.max(1)) {
        let t = Instant::now();
        let mut failed = 0u64;
        for req in slice.chunks(request) {
            let sent = if durable {
                client.insert(req)
            } else {
                client.index(req)
            };
            if !matches!(sent, Ok((n, _)) if n == req.len()) {
                failed += req.len() as u64;
            }
        }
        let fence = client.probe(&slice[..1]).is_ok();
        times.push(ns_since(t));
        report.ops(slice.len() as u64 + 1, failed + u64::from(!fence));
    }
    times
}

/// Percentile `p` over the samples of all rounds together, in microseconds.
pub fn all_rounds_us(rounds: &[Latencies], p: f64) -> f64 {
    let mut all = Latencies::default();
    rounds.iter().for_each(|r| all.merge(r));
    all.percentile_us(p)
}

/// Sample count and tail percentiles over the samples of all rounds
/// together, recorded as diagnostics.
pub fn latency_diags(report: &mut Report, name: &str, rounds: &[Latencies]) {
    let mut all = Latencies::default();
    for r in rounds {
        all.merge(r);
    }
    report.diag(&format!("{name}_samples"), all.count());
    for (label, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0), ("p99.9", 99.9)] {
        report.diag(&format!("{name}_all_{label}_us"), all.percentile_us(p));
    }
}

/// A negotiated binary connection in non-blocking mode, as the open loop's
/// single polling thread needs it.
fn raw_connect(addr: SocketAddr) -> Result<(TcpStream, FrameReader<TcpStream>), String> {
    let e = |e: std::io::Error| e.to_string();
    let mut stream = TcpStream::connect(addr).map_err(e)?;
    stream.set_nodelay(true).map_err(e)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).map_err(e)?;
    let upgrade = Request::Upgrade {
        max_version: PROTOCOL_VERSION,
    };
    let mut line = serde_json::to_string(&upgrade).map_err(|e| e.to_string())?;
    line.push('\n');
    stream.write_all(line.as_bytes()).map_err(e)?;
    // Byte by byte: nothing past the reply line may be consumed, the next
    // byte already belongs to the framed stream.
    let mut reply = Vec::new();
    let mut byte = [0u8; 1];
    while byte[0] != b'\n' {
        stream.read_exact(&mut byte).map_err(e)?;
        reply.push(byte[0]);
    }
    match serde_json::from_slice::<Response>(&reply).map_err(|e| e.to_string())? {
        Response::Ok(Reply::Upgraded { .. }) => {}
        other => return Err(format!("upgrade refused: {other:?}")),
    }
    stream.set_nonblocking(true).map_err(e)?;
    let reader = FrameReader::new(stream.try_clone().map_err(e)?);
    Ok((stream, reader))
}

/// What the open loop saw at one arrival rate.
struct OpenRate {
    rate: u32,
    /// Share of the open-loop window this rate gets.
    share: f64,
    gated: bool,
    /// Latency from the due time, one entry per round.
    latency: Vec<Latencies>,
    lateness: Latencies,
    sent: u64,
    failed: u64,
}

impl OpenRate {
    /// Open loop: single-record probes due at a fixed rate regardless of
    /// replies, each timed from the moment it was *due*, so a stall is
    /// charged to every request it delays.
    ///
    /// One thread does both directions and never blocks: it writes a
    /// request the moment it falls due and polls the socket for replies in
    /// between. A sender that sleeps overshoots by tens of microseconds,
    /// and a separate receiver thread would have to fight the sender for
    /// the generator's CPU.
    fn run(&mut self, addr: SocketAddr, probes: &[Record], window: Duration) -> Result<(), String> {
        let total = (f64::from(self.rate) * window.as_secs_f64()) as usize;
        let interval_ns = 1e9 / f64::from(self.rate);
        let due = |i: usize| (i as f64 * interval_ns) as u64;
        // Frames are encoded ahead of time so that sending is one write.
        let mut frames: Vec<Vec<u8>> = Vec::with_capacity(total);
        let mut payload = Vec::new();
        for (i, probe) in probes.iter().cycle().take(total).enumerate() {
            let request = Request::Probe {
                records: vec![probe.clone()],
            };
            wire::encode_request(i as u64 + 1, &request, &mut payload)?;
            let mut frame = Vec::new();
            rl_wire::encode_frame_into(wire::TAG_REQUEST, &payload, &mut frame);
            frames.push(frame);
        }
        let (mut writer, mut reader) = raw_connect(addr)?;
        let mut latency = Latencies::default();
        let warm = warmup(window).as_nanos() as u64;
        let (mut next, mut answered, mut answered_measured) = (0usize, 0usize, 0u64);
        let give_up = window + CLIENT_TIMEOUT;
        let start = Instant::now();
        while answered < total && start.elapsed() < give_up {
            let now = ns_since(start);
            if next < total && now >= due(next) {
                // Frames are ~100 bytes against a socket buffer of
                // megabytes: a short or refused write means the
                // connection is gone.
                match writer.write(&frames[next]) {
                    Ok(n) if n == frames[next].len() => {}
                    _ => break,
                }
                self.lateness.push(now - due(next));
                next += 1;
                continue;
            }
            match reader.read_frame() {
                Ok(Some((tag, body))) => {
                    let at = ns_since(start);
                    if tag != wire::TAG_RESPONSE {
                        continue;
                    }
                    if let Ok((id, Response::Ok(Reply::Matches { .. }))) =
                        wire::decode_response(body)
                    {
                        answered += 1;
                        let due_at = due(id as usize - 1);
                        if due_at >= warm {
                            answered_measured += 1;
                            latency.push(at.saturating_sub(due_at));
                        }
                    }
                }
                Ok(None) => break,
                Err(e) if e.is_would_block() => std::hint::spin_loop(),
                Err(_) => break,
            }
        }
        let sent = (0..total).filter(|&i| due(i) >= warm).count() as u64;
        self.sent += sent;
        self.failed += sent - answered_measured.min(sent);
        self.latency.push(latency);
        Ok(())
    }
}

/// The read-only server, loaded, and what its timed phases have measured
/// so far.
pub struct ProbeSide<'a> {
    addr: SocketAddr,
    client: Client,
    saturating: Vec<Client>,
    probes: &'a [Record],
    batches: Vec<Vec<Record>>,
    /// The served pairs for the oracle probes, sorted.
    served: Vec<(u64, u64)>,
    /// Where the closed loop continues in `probes` next round.
    cursor: usize,
    closed: Vec<Latencies>,
    closed_ops: (u64, u64),
    saturating_rates: Vec<f64>,
    saturating_ops: (u64, u64),
    open: [OpenRate; 3],
}

const SAT_DEPTH: usize = 16;
const SAT_PER_REQUEST: usize = 16;
const SAT_CONNECTIONS: usize = 2;

impl<'a> ProbeSide<'a> {
    /// Bulk-indexes the serve prefix of A and takes the served answer for
    /// the oracle probes.
    pub fn load(
        spec: &Spec,
        data: &'a Data,
        server: &Child,
        report: &mut Report,
    ) -> Result<Self, String> {
        let mut client = connect(server.addr)?;
        let loaded = &data.a[..spec.serve_records];
        bulk_load(&mut client, loaded, 1_000, 5, false, report);

        let mut served = Vec::new();
        for batch in data.probes[..ORACLE_PROBES.min(data.probes.len())].chunks(100) {
            match client.probe(batch) {
                Ok((pairs, _)) => {
                    report.ops(batch.len() as u64, 0);
                    served.extend(pairs);
                }
                Err(_) => report.ops(batch.len() as u64, batch.len() as u64),
            }
        }
        served.sort_unstable();

        let probes = &data.probes[ORACLE_PROBES.min(data.probes.len() / 2)..];
        let batches: Vec<Vec<Record>> = probes
            .chunks(SAT_PER_REQUEST)
            .map(<[Record]>::to_vec)
            .collect();
        if batches.len() < SAT_CONNECTIONS {
            return Err("too few probe records for the saturating phase".into());
        }
        let mut saturating = Vec::new();
        for _ in 0..SAT_CONNECTIONS {
            saturating.push(connect(server.addr)?);
        }
        let open = |rate, share, gated| OpenRate {
            rate,
            share,
            gated,
            latency: Vec::new(),
            lateness: Latencies::default(),
            sent: 0,
            failed: 0,
        };
        Ok(ProbeSide {
            addr: server.addr,
            client,
            saturating,
            probes,
            batches,
            served,
            cursor: 0,
            closed: Vec::new(),
            closed_ops: (0, 0),
            saturating_rates: Vec::new(),
            saturating_ops: (0, 0),
            // The workload's rate is gated and gets most of the window;
            // half and double that rate are diagnostics.
            open: [
                open(spec.open_rate / 2, 0.2, false),
                open(spec.open_rate, 0.6, true),
                open(spec.open_rate * 2, 0.2, false),
            ],
        })
    }

    /// One round of the three timed phases; `seconds` is the timed time of
    /// one round.
    pub fn round(&mut self, seconds: f64) -> Result<(), String> {
        let window = |share: f64| Duration::from_secs_f64(seconds * share);
        self.closed_loop(window(CLOSED_SHARE));
        self.saturate(window(SATURATING_SHARE));
        for i in 0..self.open.len() {
            let w = window(OPEN_SHARE * self.open[i].share);
            let (addr, probes) = (self.addr, self.probes);
            self.open[i].run(addr, probes, w)?;
        }
        Ok(())
    }

    /// Closed loop, one connection, one request in flight, one record each.
    fn closed_loop(&mut self, window: Duration) {
        let mut latency = Latencies::default();
        let start = Instant::now();
        let warm = warmup(window);
        loop {
            let t = Instant::now();
            if t.duration_since(start) >= window {
                break;
            }
            let probe = &self.probes[self.cursor % self.probes.len()];
            self.cursor += 1;
            let ok = self.client.probe(std::slice::from_ref(probe)).is_ok();
            let took = t.elapsed();
            if t.duration_since(start) >= warm {
                self.closed_ops.0 += 1;
                if ok {
                    latency.push(took.as_nanos() as u64);
                } else {
                    self.closed_ops.1 += 1;
                }
            }
        }
        self.closed.push(latency);
    }

    /// Closed loop that saturates the server: two connections, sixteen
    /// requests of sixteen records in flight on each.
    fn saturate(&mut self, window: Duration) {
        let start = Instant::now();
        let per_thread = self.batches.len() / SAT_CONNECTIONS;
        let batches = &self.batches;
        let results: Vec<(Vec<Done>, u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .saturating
                .iter_mut()
                .enumerate()
                .map(|(i, client)| {
                    let mine = &batches[i * per_thread..(i + 1) * per_thread];
                    scope.spawn(move || {
                        let mut events = Vec::new();
                        let (mut attempted, mut failed) = (0u64, 0u64);
                        for call in mine.chunks(2 * SAT_DEPTH).cycle() {
                            if start.elapsed() >= window {
                                break;
                            }
                            let count: u64 = call.iter().map(|b| b.len() as u64).sum();
                            attempted += count;
                            let from = ns_since(start);
                            match client.probe_pipelined(call, SAT_DEPTH) {
                                Ok(_) => events.push(Done {
                                    from,
                                    to: ns_since(start),
                                    count,
                                }),
                                Err(_) => failed += count,
                            }
                        }
                        (events, attempted, failed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("saturating client thread panicked"))
                .collect()
        });
        let mut events = Vec::new();
        for (ev, attempted, failed) in results {
            events.extend(ev);
            self.saturating_ops.0 += attempted;
            self.saturating_ops.1 += failed;
        }
        let from = warmup(window).as_nanos() as u64;
        self.saturating_rates.extend(window_rates(
            &events,
            from,
            window.as_nanos() as u64,
            RATE_WINDOWS,
        ));
    }

    /// Checks the served answer against the oracle, reports the phases
    /// and shuts the server down.
    pub fn finish(self, oracle: &[(u64, u64)], report: &mut Report) -> Result<(), String> {
        report.check(self.served == oracle, || {
            format!(
                "served pairs differ from the in-process oracle ({} served, {} expected)",
                self.served.len(),
                oracle.len()
            )
        });

        report.ops(self.closed_ops.0, self.closed_ops.1);
        report.metric(
            "serve.probe_p50_us",
            all_rounds_us(&self.closed, 50.0),
            "us",
        );
        report.metric(
            "serve.probe_p90_us",
            all_rounds_us(&self.closed, 90.0),
            "us",
        );
        latency_diags(report, "serve.probe", &self.closed);

        report.ops(self.saturating_ops.0, self.saturating_ops.1);
        report.metric(
            "serve.probe_rec_per_s",
            median(&self.saturating_rates),
            "rec/s",
        );

        let mut best_rate = 0u32;
        let mut valid = true;
        for open in &self.open {
            let name = format!("serve.open_{}", open.rate);
            for (label, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)] {
                report.diag(
                    &format!("{name}_lateness_{label}_us"),
                    open.lateness.percentile_us(p),
                );
            }
            report.diag(&format!("{name}_failed"), open.failed);
            latency_diags(report, &name, &open.latency);
            if open.gated {
                report.ops(open.sent, open.failed);
                report.metric(
                    "serve.open_p50_us",
                    all_rounds_us(&open.latency, 50.0),
                    "us",
                );
                report.metric(
                    "serve.open_p90_us",
                    all_rounds_us(&open.latency, 90.0),
                    "us",
                );
                valid &= open.lateness.percentile_us(90.0) <= MAX_LATENESS_P90_US;
            }
            let mut all = Latencies::default();
            open.latency.iter().for_each(|r| all.merge(r));
            if open.failed == 0 && all.percentile_us(99.0) <= OPEN_P99_LIMIT_US {
                best_rate = best_rate.max(open.rate);
            }
        }
        report.diag(
            "serve.open_best_rate_p99_within_250us",
            u64::from(best_rate),
        );
        report.diag("open_loop_valid", valid);
        self.client.shutdown().map_err(|e| e.to_string())
    }
}
