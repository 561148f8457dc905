//! The untraced run of `serve_durable`: a durable child server over
//! loopback, in rounds.
//!
//! A round starts a fresh server on an empty directory (group-commit WAL,
//! 2 shards, 2 workers, reactor, binary frames), bulk-inserts all of A
//! durably in fenced slices, then probes it read-only: pipelined calls that
//! keep the server saturated, then single-record probes one at a time. The
//! server is killed and the next round starts over, until `--seconds` have
//! passed. Every round does identical work, so each slice, call and probe is
//! timed once per pass and read as `stats::Passes` says.
//!
//! The load generator is this process's one thread on one connection: the
//! box has two cores and the server's five threads need them.

use crate::batch::{check_quality, match_hash, new_pipeline, ns_since, passes_for, MIN_ROUNDS};
use crate::child::{write_spec, Child, Durable};
use crate::report::Report;
use crate::serve::{bulk_load, connect};
use crate::stats::Passes;
use crate::workload::{Data, Spec, PLAN_SEED};
use cbv_hb::Record;
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

/// Records per probe request and requests in flight of a pipelined call;
/// `Spec::link_slice` records make one call.
const PER_REQUEST: usize = 16;
const DEPTH: usize = 16;
/// Time the pipelined calls and the single-record probes get in a round,
/// as shares of what the round's bulk load took.
const LINK_SHARE: f64 = 0.6;
const LATENCY_SHARE: f64 = 0.6;

/// A fresh durable server on an empty directory under `work`.
pub fn spawn_fresh(spec: &Spec, data: &Data, work: &Path, tag: usize) -> Result<Durable, String> {
    let io = |e: std::io::Error| e.to_string();
    let dir = work.join(format!("wal-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(io)?;
    let spec_file = work.join(format!("durable-{tag}.json"));
    write_spec(
        &spec_file,
        &data.schema,
        &spec.config(),
        PLAN_SEED,
        Some(&dir),
    )
    .map_err(io)?;
    Ok(Durable {
        server: Child::spawn(&spec_file).map_err(io)?,
        spec: spec_file,
        dir,
    })
}

/// Records self-probed after the restart; bounds the audit's time, not its
/// strictness.
const AUDIT: usize = 2_000;

/// SIGKILL → restart on the same directory → first successful probe, then
/// every `AUDIT`-th part of the acknowledged bulk load must answer a
/// self-probe. This is process-crash durability: the operating system's
/// cache survives SIGKILL.
fn crash_and_audit(durable: &mut Durable, data: &Data, report: &mut Report) -> Result<(), String> {
    let t = Instant::now();
    durable.restart().map_err(|e| format!("restart: {e}"))?;
    let mut client = connect(durable.server.addr)?;
    let first = client.probe(&data.probes[..1]);
    report.diag("recovery_s", t.elapsed().as_secs_f64());
    report.diag("recovery_replayed_ops", data.a.len());
    report.ops(1, u64::from(first.is_err()));
    let step = (data.a.len() / AUDIT).max(1);
    let sample: Vec<Record> = data.a.iter().step_by(step).cloned().collect();
    let mut missing = 0usize;
    for batch in sample.chunks(256) {
        match client.probe(batch) {
            Ok((pairs, _)) => {
                report.ops(batch.len() as u64, 0);
                let own: HashSet<u64> = pairs
                    .iter()
                    .filter(|(a, b)| a == b)
                    .map(|&(a, _)| a)
                    .collect();
                missing += batch.iter().filter(|r| !own.contains(&r.id)).count();
            }
            Err(_) => report.ops(batch.len() as u64, batch.len() as u64),
        }
    }
    report.check(missing == 0, || {
        format!(
            "after SIGKILL and restart {missing} of {} acknowledged inserts did not answer a self-probe",
            sample.len()
        )
    });
    Ok(())
}

/// Runs the rounds and reports every end-to-end metric but `setup_s`.
/// `first` is the empty server the set-up started; later rounds start
/// their own.
pub fn run(
    spec: &Spec,
    data: &Data,
    first: Durable,
    work: &Path,
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    let quality = &data.probes[..spec.quality_probes.min(data.probes.len())];
    let requests: Vec<Vec<Record>> = quality
        .chunks(PER_REQUEST)
        .map(<[Record]>::to_vec)
        .collect();
    let all_calls: Vec<&[Vec<Record>]> = requests.chunks(spec.link_slice / PER_REQUEST).collect();
    let calls = &all_calls[..(spec.link_probes / spec.link_slice).clamp(1, all_calls.len())];
    let call_sizes: Vec<usize> = calls.iter().map(|c| c.iter().map(Vec::len).sum()).collect();
    let singles = &data.probes[..spec.latency_probes.min(data.probes.len())];
    let request = spec.index_slice.min(500);
    let index_sizes: Vec<usize> = data
        .a
        .chunks(spec.index_slice)
        .map(<[Record]>::len)
        .collect();

    let (mut index, mut link, mut latency) =
        (Passes::default(), Passes::default(), Passes::default());
    // The first round's served answer to the quality probes, and the hash
    // of what the timed calls matched: every later pass must reproduce it.
    let mut answer: Vec<(u64, u64)> = Vec::new();
    let mut heap_gain = 0i64;
    let mut calls_hash = None;
    let mut repeats = true;

    let mut server = Some(first);
    let start = Instant::now();
    let mut rounds = 0usize;
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let mut durable = match server.take() {
            Some(first) => first,
            None => spawn_fresh(spec, data, work, rounds)?,
        };
        let mut client = connect(durable.server.addr)?;

        let heap = durable.server.heap_bytes().map_err(|e| e.to_string())?;
        let loading = Instant::now();
        index.push(bulk_load(
            &mut client,
            &data.a,
            request,
            spec.index_slice / request,
            true,
            report,
        ));
        let loading = loading.elapsed();
        if rounds == 0 {
            let after = durable.server.heap_bytes().map_err(|e| e.to_string())?;
            heap_gain = after as i64 - heap as i64;
            for call in &all_calls {
                let size: usize = call.iter().map(Vec::len).sum();
                match client.probe_pipelined(call, DEPTH) {
                    Ok(reply) => {
                        report.ops(size as u64, 0);
                        answer.extend(reply.into_iter().flat_map(|(pairs, _)| pairs));
                    }
                    Err(_) => report.ops(size as u64, size as u64),
                }
            }
        }

        // Saturating: one pipelined call after another.
        passes_for(loading.mul_f64(LINK_SHARE), &mut link, || {
            let mut times = Vec::with_capacity(calls.len());
            let mut served = Vec::new();
            for (call, &size) in calls.iter().zip(&call_sizes) {
                let t = Instant::now();
                let reply = client.probe_pipelined(call, DEPTH);
                times.push(ns_since(t));
                match reply {
                    Ok(reply) => {
                        report.ops(size as u64, 0);
                        served.extend(reply.into_iter().flat_map(|(pairs, _)| pairs));
                    }
                    Err(_) => report.ops(size as u64, size as u64),
                }
            }
            let hash = match_hash(served);
            repeats &= *calls_hash.get_or_insert(hash) == hash;
            times
        });

        // Closed loop: one connection, one single-record probe in flight.
        passes_for(loading.mul_f64(LATENCY_SHARE), &mut latency, || {
            let mut times = Vec::with_capacity(singles.len());
            for probe in singles {
                let t = Instant::now();
                let ok = client.probe(std::slice::from_ref(probe)).is_ok();
                times.push(ns_since(t));
                report.ops(1, u64::from(!ok));
            }
            times
        });
        drop(client);
        if rounds == 0 {
            crash_and_audit(&mut durable, data, report)?;
        }
        drop(durable.server);
        let _ = std::fs::remove_dir_all(&durable.dir);
        rounds += 1;
    }
    report.diag("rounds", rounds);
    report.diag("stage_rounds_s", start.elapsed().as_secs_f64());

    report.rate_over_passes("index_rec_per_s", "rec/s", &index, &index_sizes);
    report.rate_over_passes("link_rec_per_s", "rec/s", &link, &call_sizes);
    report.latency_over_passes(&latency, true);
    report.metric(
        "index_bytes_per_rec",
        heap_gain as f64 / data.a.len() as f64,
        "B/rec",
    );
    report.check(repeats, || {
        "a later pass over the timed calls was served differently from the first".into()
    });

    // What an in-process `LinkagePipeline` answers for the same probes with
    // the same records indexed: the served pairs must be exactly these.
    let mut oracle = new_pipeline(spec, data);
    let expected = oracle
        .index(&data.a)
        .and_then(|()| oracle.link(quality))
        .map(|r| r.matches)
        .unwrap_or_default();
    drop(oracle);
    let sorted = |pairs: &[(u64, u64)]| {
        let mut v = pairs.to_vec();
        v.sort_unstable();
        v
    };
    report.check(sorted(&answer) == sorted(&expected), || {
        format!(
            "served pairs differ from the in-process oracle ({} served, {} expected)",
            answer.len(),
            expected.len()
        )
    });
    check_quality(spec, data, quality, &answer, report);
    Ok(())
}
