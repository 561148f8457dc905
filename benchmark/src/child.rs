//! The server under test runs as a child process: the benchmark binary
//! re-executed with the hidden `serve-child` subcommand, which only calls
//! `rl_server::Server::spawn` / `spawn_durable`. A separate process makes
//! SIGKILL real and keeps client and server CPU time apart. Nothing is
//! pinned: the server's threads run wherever the scheduler puts them, so
//! shards and workers can run in parallel on whatever cores there are.

use cbv_hb::pipeline::LinkageConfig;
use cbv_hb::{RecordSchema, ShardedPipeline};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_server::server::{DurabilityConfig, Server, ServerConfig};
use rl_store::SyncPolicy;
use serde_json::{json, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

pub const SHARDS: usize = 2;
pub const WORKERS: usize = 2;
/// The stated WAL flush policy of the durable server, the same on every
/// run: group commit, fsync at most every 5 ms.
pub const WAL_SYNC: Duration = Duration::from_millis(5);

/// Writes the file a child reads its schema and configuration from. The
/// child receives the fitted schema rather than the records it was fitted
/// on, so it never sees more of the workload than a server would.
pub fn write_spec(
    path: &Path,
    schema: &RecordSchema,
    config: &LinkageConfig,
    plan_seed: u64,
    data_dir: Option<&Path>,
) -> std::io::Result<()> {
    let spec = json!({
        "schema": schema,
        "config": config,
        "plan_seed": plan_seed,
        "data_dir": data_dir.map(|d| d.to_string_lossy().into_owned()),
    });
    std::fs::write(
        path,
        serde_json::to_string(&spec).map_err(std::io::Error::other)?,
    )
}

fn field(spec: &Value, name: &str) -> Value {
    crate::report::field(spec, name)
        .cloned()
        .unwrap_or(Value::Null)
}

/// Body of `serve-child <spec file>`: serve until told to shut down or
/// until the parent goes away (its end of our stdin closes).
pub fn serve(spec_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = serde_json::value_from_str(&text).map_err(|e| e.to_string())?;
    let schema: RecordSchema =
        serde_json::from_value(field(&spec, "schema")).map_err(|e| e.to_string())?;
    let config: LinkageConfig =
        serde_json::from_value(field(&spec, "config")).map_err(|e| e.to_string())?;
    let plan_seed: u64 =
        serde_json::from_value(field(&spec, "plan_seed")).map_err(|e| e.to_string())?;
    let data_dir: Option<String> =
        serde_json::from_value(field(&spec, "data_dir")).map_err(|e| e.to_string())?;

    let fresh = move || {
        let mut rng = StdRng::seed_from_u64(plan_seed);
        ShardedPipeline::new(schema, config, SHARDS, &mut rng).map_err(std::io::Error::other)
    };
    let mut server_config = ServerConfig {
        workers: WORKERS,
        // Deep enough for the saturating phase's 2 × 16 requests in flight
        // and the open loop's transient backlog; a refusal is a failure.
        queue_capacity: 1024,
        slow_request_threshold: None,
        ..ServerConfig::default()
    };
    let server = match data_dir {
        Some(dir) => {
            server_config.durability = Some(DurabilityConfig {
                data_dir: PathBuf::from(dir),
                sync: SyncPolicy::GroupCommit(WAL_SYNC),
                // No background checkpointer: every recovery replays the
                // whole WAL, so its work is the same on every run.
                checkpoint_every: None,
            });
            Server::spawn_durable(fresh, server_config)
        }
        None => fresh().and_then(|p| Server::spawn(p, server_config)),
    }
    .map_err(|e| e.to_string())?;
    println!("LISTEN {}", server.local_addr());

    // The parent's end of our stdin: a `heap` line asks for this process's
    // live heap bytes (the counting allocator's, the benchmark's own side
    // channel), and its closing means the parent has gone away.
    std::thread::spawn(|| {
        for line in std::io::stdin().lock().lines() {
            match line.as_deref() {
                Ok("heap") => println!("HEAP {}", crate::alloc::live_bytes()),
                Ok(_) => {}
                Err(_) => break,
            }
        }
        std::process::exit(0);
    });
    server.wait();
    Ok(())
}

/// A running child server. Dropping it kills the process and reaps it.
pub struct Child {
    proc: std::process::Child,
    stdout: BufReader<std::process::ChildStdout>,
    pub addr: SocketAddr,
}

impl Child {
    /// Starts a child on `spec_path` and waits until it listens — for a
    /// durable child that is after recovery has finished.
    pub fn spawn(spec_path: &Path) -> std::io::Result<Child> {
        let mut proc = Command::new(std::env::current_exe()?)
            .arg("serve-child")
            .arg(spec_path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(proc.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("LISTEN ")
            .and_then(|a| a.parse().ok());
        match addr {
            Some(addr) => Ok(Child { proc, stdout, addr }),
            None => {
                let _ = proc.kill();
                let _ = proc.wait();
                Err(std::io::Error::other(format!(
                    "child server did not start (said {line:?})"
                )))
            }
        }
    }

    /// Heap bytes live in the child right now, by its counting allocator.
    pub fn heap_bytes(&mut self) -> std::io::Result<u64> {
        let stdin = self.proc.stdin.as_mut().expect("stdin was piped");
        stdin.write_all(b"heap\n")?;
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        line.trim()
            .strip_prefix("HEAP ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("child said {line:?} for its heap")))
    }

    /// SIGKILL, then reap. The operating system's cache survives this, so
    /// what the restart test shows is process-crash durability.
    pub fn kill_and_reap(&mut self) {
        let _ = self.proc.kill();
        let _ = self.proc.wait();
    }
}

/// The durable child together with what restarting it needs.
pub struct Durable {
    pub server: Child,
    /// The spec file a restart is spawned on.
    pub spec: PathBuf,
    /// The data directory holding the WAL.
    pub dir: PathBuf,
}

impl Durable {
    /// SIGKILLs the server and starts a new one on the same directory,
    /// returning once it listens, i.e. once it has recovered.
    pub fn restart(&mut self) -> std::io::Result<()> {
        self.server.kill_and_reap();
        self.server = Child::spawn(&self.spec)?;
        Ok(())
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        self.kill_and_reap();
    }
}
