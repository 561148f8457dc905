//! Traced run, serving figures: the durable child server — bulk insert,
//! then in every round a part of the seeded probe/insert/delete mix and one
//! timed SIGKILL → restart, and at the end a last restart with an audit of
//! everything that was acknowledged. None of these is gated (README.md,
//! "What is not gated").

use crate::batch::{ns_since, ORACLE_PROBES};
use crate::child::{write_spec, Child, Durable};
use crate::report::Report;
use crate::serve::{all_rounds_us, bulk_load, connect, latency_diags, warmup, RATE_WINDOWS};
use crate::stats::{median, window_rates, Done, Latencies};
use crate::workload::{Data, Spec, PLAN_SEED};
use cbv_hb::Record;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rl_server::client::Client;
use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// The mix's share of a round's timed seconds (`serve.rs` has the others).
const MIX_SHARE: f64 = 0.35;
/// Closed-loop client connections of the mix, one request in flight each.
const CONNECTIONS: usize = 2;
/// Bulk-loaded records self-probed after the last restart, on top of every
/// record the mix inserted or deleted; bounds the audit's time, not its
/// strictness.
const AUDIT_CAP: usize = 1_000;
/// Bulk-loaded records self-probed after each timed restart.
const QUICK_AUDIT: usize = 200;

/// The records the mix draws from, all beyond the oracle prefix of B.
struct Pools<'a> {
    /// Bulk-loaded prefix of A; deletes take ids from it.
    loaded: &'a [Record],
    probes: &'a [Record],
    inserts: &'a [Record],
    /// Indices into `inserts` of perturbed copies of loaded records, and
    /// of fresh records: inserts alternate between the two.
    copies: Vec<usize>,
    fresh: Vec<usize>,
}

/// One client connection of the mix: its position in each pool, and what
/// it did and was acknowledged for.
struct MixClient {
    client: Client,
    rng: StdRng,
    /// Each client owns every [`CONNECTIONS`]-th element of each pool, so
    /// no id is inserted or deleted twice.
    next_probe: usize,
    next_insert: [usize; 2],
    next_delete: usize,
    turn: usize,
    /// Latencies of the round being run.
    probe: Latencies,
    insert: Latencies,
    inserted: Vec<usize>,
    deleted: Vec<u64>,
    attempted: u64,
    failed: u64,
    /// Inserts turned into probes because both insert pools were spent.
    starved: u64,
}

impl MixClient {
    /// Runs the 70 % probe / 25 % insert / 5 % delete mix for `window`,
    /// returning the completed operations for the throughput windows.
    fn run(&mut self, pools: &Pools, window: Duration) -> Vec<Done> {
        let mut events = Vec::new();
        let start = Instant::now();
        let warm = warmup(window);
        while start.elapsed() < window {
            let x: f64 = self.rng.random();
            let measured = start.elapsed() >= warm;
            let t0 = Instant::now();
            let ok;
            // Alternate copies and fresh records; take from the other pool
            // once one is spent, and probe instead once both are.
            let mut to_insert = None;
            if x < 0.25 {
                for k in 0..2 {
                    let which = (self.turn + k) % 2;
                    let from = if which == 0 {
                        &pools.copies
                    } else {
                        &pools.fresh
                    };
                    if let Some(&i) = from.get(self.next_insert[which]) {
                        self.next_insert[which] += CONNECTIONS;
                        to_insert = Some(i);
                        break;
                    }
                }
                self.turn += 1;
                self.starved += u64::from(to_insert.is_none());
            }
            if let Some(i) = to_insert {
                ok = self
                    .client
                    .insert(std::slice::from_ref(&pools.inserts[i]))
                    .is_ok();
                if ok {
                    self.inserted.push(i);
                    if measured {
                        self.insert.push(t0.elapsed().as_nanos() as u64);
                    }
                }
            } else if (0.25..0.30).contains(&x) && self.next_delete < pools.loaded.len() {
                let id = pools.loaded[self.next_delete].id;
                self.next_delete += CONNECTIONS;
                ok = matches!(self.client.delete(&[id]), Ok((1, _)));
                if ok {
                    self.deleted.push(id);
                }
            } else {
                let probe = &pools.probes[self.next_probe % pools.probes.len()];
                self.next_probe += CONNECTIONS;
                ok = self.client.probe(std::slice::from_ref(probe)).is_ok();
                if ok && measured {
                    self.probe.push(t0.elapsed().as_nanos() as u64);
                }
            }
            self.attempted += 1;
            self.failed += u64::from(!ok);
            if ok {
                events.push(Done {
                    from: t0.duration_since(start).as_nanos() as u64,
                    to: ns_since(start),
                    count: 1,
                });
            }
        }
        events
    }
}

/// The durable server, loaded, and what the rounds have measured so far.
pub struct MixedSide<'a> {
    data: &'a Data,
    pools: Pools<'a>,
    clients: Vec<MixClient>,
    /// A second durable server on a copy of the bulk load's WAL, whose only
    /// job is to be killed and to recover: every restart replays exactly
    /// the bulk load — a stated op count — however far the mix has got.
    recovering: Durable,
    recoveries: Vec<f64>,
    rates: Vec<f64>,
    /// Per round, both clients' samples together.
    probe: Vec<Latencies>,
    insert: Vec<Latencies>,
}

impl<'a> MixedSide<'a> {
    /// Bulk-inserts the mixed prefix of A durably, reads the WAL size, and
    /// starts the recovering server on a copy of the directory.
    pub fn load(
        spec: &Spec,
        data: &'a Data,
        durable: &Durable,
        seed: u64,
        report: &mut Report,
    ) -> Result<Self, String> {
        let io = |e: std::io::Error| e.to_string();
        let mut loader = connect(durable.server.addr)?;
        let loaded = &data.a[..spec.mixed_records];
        bulk_load(&mut loader, loaded, 500, 5, true, report);
        report.metric(
            "serve.wal_bytes_per_rec",
            dir_bytes(&durable.dir) as f64 / loaded.len() as f64,
            "B/rec",
        );
        drop(loader);
        report.diag("recovery_replayed_ops", loaded.len());

        // Every insert above was acknowledged, so it is in the files.
        let work = durable
            .dir
            .parent()
            .ok_or("the WAL directory has no parent")?;
        let copy = work.join("wal-recovery");
        copy_files(&durable.dir, &copy).map_err(io)?;
        let copy_spec = work.join("recovery.json");
        write_spec(
            &copy_spec,
            &data.schema,
            &spec.config(),
            PLAN_SEED,
            Some(&copy),
        )
        .map_err(io)?;
        let recovering = Durable {
            server: Child::spawn(&copy_spec).map_err(io)?,
            spec: copy_spec,
            dir: copy,
        };

        let pool = &data.probes[ORACLE_PROBES.min(data.probes.len() / 2)..];
        // Probes cycle through their third; inserts are consumed, so they
        // get the rest.
        let (probes, inserts) = pool.split_at(pool.len() / 3);
        let is_copy = |r: &Record| {
            data.partner
                .get(&r.id)
                .is_some_and(|&a| (a as usize) < loaded.len())
        };
        let (copies, fresh) = (0..inserts.len()).partition(|&i| is_copy(&inserts[i]));
        let mut clients = Vec::new();
        for c in 0..CONNECTIONS {
            clients.push(MixClient {
                client: connect(durable.server.addr)?,
                rng: StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(c as u64)),
                next_probe: c,
                next_insert: [c, c],
                next_delete: c,
                turn: 0,
                probe: Latencies::default(),
                insert: Latencies::default(),
                inserted: Vec::new(),
                deleted: Vec::new(),
                attempted: 0,
                failed: 0,
                starved: 0,
            });
        }
        Ok(MixedSide {
            data,
            pools: Pools {
                loaded,
                probes,
                inserts,
                copies,
                fresh,
            },
            clients,
            recovering,
            recoveries: Vec::new(),
            rates: Vec::new(),
            probe: Vec::new(),
            insert: Vec::new(),
        })
    }

    /// One round: the mix for its share of the round's timed `seconds`,
    /// then one SIGKILL → restart → first successful probe of the
    /// recovering server.
    pub fn round(&mut self, seconds: f64, round: usize, report: &mut Report) -> Result<(), String> {
        let window = Duration::from_secs_f64(seconds * MIX_SHARE);
        let pools = &self.pools;
        let results: Vec<Vec<Done>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|c| scope.spawn(move || c.run(pools, window)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("mix client thread panicked"))
                .collect()
        });
        let events: Vec<Done> = results.into_iter().flatten().collect();
        let from = warmup(window).as_nanos() as u64;
        self.rates.extend(window_rates(
            &events,
            from,
            window.as_nanos() as u64,
            RATE_WINDOWS,
        ));
        let (mut probe, mut insert) = (Latencies::default(), Latencies::default());
        for c in &mut self.clients {
            probe.merge(&std::mem::take(&mut c.probe));
            insert.merge(&std::mem::take(&mut c.insert));
        }
        self.probe.push(probe);
        self.insert.push(insert);

        let t = Instant::now();
        self.recovering
            .restart()
            .map_err(|e| format!("restart {round}: {e}"))?;
        let mut client = connect(self.recovering.server.addr)?;
        let first = client.probe(&self.data.probes[..1]);
        self.recoveries.push(t.elapsed().as_secs_f64());
        report.ops(1, u64::from(first.is_err()));
        let quick: Vec<&Record> = self.pools.loaded.iter().take(QUICK_AUDIT).collect();
        audit(&mut client, &quick, true, round, report);
        Ok(())
    }

    /// Reports the mix and the recoveries, then SIGKILLs the server the mix
    /// ran against, restarts it and audits what was acknowledged: every
    /// insert not later deleted must answer a self-probe, every delete must
    /// not. This is process-crash durability: the operating system's cache
    /// survives SIGKILL.
    pub fn finish(self, mut durable: Durable, report: &mut Report) -> Result<(), String> {
        let MixedSide {
            data,
            pools,
            clients,
            recovering,
            recoveries,
            rates,
            probe,
            insert,
            ..
        } = self;
        drop(recovering);
        report.metric("serve.recovery_s", median(&recoveries), "s");
        report.diag("serve.recovery_s_values", recoveries);
        let (mut inserted, mut deleted) = (Vec::new(), Vec::new());
        let mut starved = 0u64;
        for c in clients {
            report.ops(c.attempted, c.failed);
            starved += c.starved;
            inserted.extend(c.inserted);
            deleted.extend(c.deleted);
        }
        report.metric("serve.insert_p50_us", all_rounds_us(&insert, 50.0), "us");
        report.metric("serve.insert_p90_us", all_rounds_us(&insert, 90.0), "us");
        report.metric(
            "serve.mixed_probe_p50_us",
            all_rounds_us(&probe, 50.0),
            "us",
        );
        latency_diags(report, "serve.insert", &insert);
        latency_diags(report, "serve.mixed_probe", &probe);
        report.metric("serve.mixed_ops_per_s", median(&rates), "1/s");
        report.diag("mixed_inserted", inserted.len());
        report.diag("mixed_deleted", deleted.len());
        report.diag("mixed_inserts_starved", starved);

        let gone: HashSet<u64> = deleted.iter().copied().collect();
        let mut must_answer: Vec<&Record> = inserted.iter().map(|&i| &pools.inserts[i]).collect();
        must_answer.extend(
            pools
                .loaded
                .iter()
                .filter(|r| !gone.contains(&r.id))
                .take(AUDIT_CAP),
        );
        let must_not: Vec<&Record> = deleted.iter().map(|&id| &data.a[id as usize]).collect();
        let t = Instant::now();
        durable
            .restart()
            .map_err(|e| format!("last restart: {e}"))?;
        let mut client = connect(durable.server.addr)?;
        let first = client.probe(&pools.probes[..1]);
        report.diag("recovery_after_mix_s", t.elapsed().as_secs_f64());
        report.ops(1, u64::from(first.is_err()));
        audit(&mut client, &must_answer, true, usize::MAX, report);
        audit(&mut client, &must_not, false, usize::MAX, report);
        client.shutdown().map_err(|e| e.to_string())
    }
}

/// Self-probes `records`: each must (`present`) or must not answer with
/// the pair of its own id.
fn audit(
    client: &mut Client,
    records: &[&Record],
    present: bool,
    round: usize,
    report: &mut Report,
) {
    let mut wrong = 0usize;
    for batch in records.chunks(256) {
        let owned: Vec<Record> = batch.iter().map(|&r| r.clone()).collect();
        match client.probe(&owned) {
            Ok((pairs, _)) => {
                report.ops(owned.len() as u64, 0);
                let own: HashSet<u64> = pairs
                    .iter()
                    .filter(|(a, b)| a == b)
                    .map(|&(a, _)| a)
                    .collect();
                wrong += owned
                    .iter()
                    .filter(|r| own.contains(&r.id) != present)
                    .count();
            }
            Err(_) => report.ops(owned.len() as u64, owned.len() as u64),
        }
    }
    report.check(wrong == 0, || {
        let what = if present {
            "acknowledged inserts did not answer a self-probe"
        } else {
            "acknowledged deletes still answered a self-probe"
        };
        let which = if round == usize::MAX {
            "the last restart".to_string()
        } else {
            format!("restart {round}")
        };
        format!("after {which}: {wrong} of {} {what}", records.len())
    });
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Copies the regular files directly inside `from` into a fresh `to`.
pub fn copy_files(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.metadata()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
