//! End-to-end golden test of the `rl` binary: every subcommand a user runs
//! the paper with, from the generator through linkage, deduplication and
//! calibration to a served index that is written, probed and resharded.
//! Output files and stdout are pinned byte for byte against the copies in
//! `tests/golden/cli/`, and so is stderr wherever it is deterministic.

mod common;

use common::{fresh_dir, spawn_rl_serve};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output};

/// The four-attribute NCVR rule the offline commands link under.
const RULE: &str = "0<=4 & 1<=4 & 2<=8 & 3<=4";

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/cli")
        .join(name)
}

/// Runs `rl` with `args` in `dir` and asserts that it exits 0.
fn rl(dir: &Path, args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_rl"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn rl");
    assert!(
        out.status.success(),
        "rl {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Asserts that `actual` equals the golden copy `name` byte for byte.
fn pin(name: &str, actual: &[u8]) {
    let want = std::fs::read(golden(name)).unwrap_or_else(|e| panic!("golden {name}: {e}"));
    assert!(
        actual == want.as_slice(),
        "{name} differs from tests/golden/cli/{name}; got:\n{}",
        String::from_utf8_lossy(actual)
    );
}

/// Pins a command's stdout and stderr as `<name>.stdout` / `<name>.stderr`.
fn pin_output(name: &str, out: &Output) {
    pin(&format!("{name}.stdout"), &out.stdout);
    pin(&format!("{name}.stderr"), &out.stderr);
}

/// Pins the file `file` that a command wrote into `dir`.
fn pin_file(dir: &Path, file: &str) {
    let bytes = std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    pin(file, &bytes);
}

/// Seeded NCVR pair of 300 records a side, ground truth included.
fn generate(dir: &Path) -> Output {
    rl(
        dir,
        &[
            "generate",
            "--source",
            "ncvr",
            "--records",
            "300",
            "--scheme",
            "pl",
            "--seed",
            "7",
            "--out-a",
            "a.csv",
            "--out-b",
            "b.csv",
            "--out-truth",
            "truth.csv",
        ],
    )
}

#[test]
fn offline_commands_reproduce_their_golden_outputs() {
    let dir = fresh_dir("cli-golden-offline");
    pin_output("generate", &generate(&dir));
    for file in ["a.csv", "b.csv", "truth.csv"] {
        pin_file(&dir, file);
    }

    let linked = |name: &str, extra: &[&str]| {
        let out_file = format!("{name}.csv");
        let mut args = vec![
            "link",
            "--a",
            "a.csv",
            "--b",
            "b.csv",
            "--header",
            "--id-column",
            "0",
            "--out",
            &out_file,
        ];
        args.extend_from_slice(extra);
        pin_output(name, &rl(&dir, &args));
        pin_file(&dir, &out_file);
    };
    linked("link-rule", &["--rule", RULE, "--k", "5,5,10,10"]);
    linked(
        "link-record-level",
        &["--rule", RULE, "--record-level", "12:6"],
    );
    linked(
        "link-covering",
        &["--rule", "0<=2 & 1<=2", "--blocking", "covering"],
    );
    linked(
        "link-threads",
        &[
            "--rule",
            RULE,
            "--k",
            "5,5,10,10",
            "--threads",
            "2",
            "--report",
        ],
    );

    // Both sides in one file: every true pair is a duplicate cluster.
    let a = std::fs::read_to_string(dir.join("a.csv")).unwrap();
    let b = std::fs::read_to_string(dir.join("b.csv")).unwrap();
    let b_rows = b.split_once('\n').unwrap().1;
    std::fs::write(dir.join("ab.csv"), format!("{a}{b_rows}")).unwrap();
    let dedup = rl(
        &dir,
        &[
            "dedup",
            "--input",
            "ab.csv",
            "--header",
            "--id-column",
            "0",
            "--rule",
            RULE,
            "--k",
            "5,5,10,10",
            "--out",
            "dedup.csv",
        ],
    );
    pin_output("dedup", &dedup);
    pin_file(&dir, "dedup.csv");

    let calibrate = rl(
        &dir,
        &[
            "calibrate",
            "--input",
            "ab.csv",
            "--header",
            "--id-column",
            "0",
            "--theta",
            "6",
            "--delta",
            "0.05",
            "--seed",
            "3",
        ],
    );
    pin_output("calibrate", &calibrate);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kills the served `rl` if the test fails before shutting it down.
struct Served(Child);

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Keeps the id and the first two attributes of each line: the served
/// index takes two fields.
fn two_fields(csv: &str) -> String {
    csv.lines()
        .map(|line| {
            let cols: Vec<&str> = line.splitn(4, ',').take(3).collect();
            format!("{}\n", cols.join(","))
        })
        .collect()
}

#[test]
fn client_and_reshard_drive_a_served_index() {
    let dir = fresh_dir("cli-golden-served");
    generate(&dir);
    for side in ["a", "b"] {
        let csv = std::fs::read_to_string(dir.join(format!("{side}.csv"))).unwrap();
        std::fs::write(dir.join(format!("{side}2.csv")), two_fields(&csv)).unwrap();
    }
    let data = dir.join("data");
    std::fs::create_dir_all(&data).unwrap();
    let (child, addr) = spawn_rl_serve(&data, &[]);
    let mut served = Served(child);
    let client = |name: &str, args: &[&str]| {
        let mut all = vec!["client", "--addr", addr.as_str()];
        all.extend_from_slice(args);
        pin_output(name, &rl(&dir, &all));
    };
    let csv_args = ["--header", "--id-column", "0"];

    let insert = [&["--cmd", "insert", "--input", "a2.csv"][..], &csv_args[..]].concat();
    client("client-insert", &insert);
    let probe = [&["--cmd", "probe", "--input", "b2.csv"][..], &csv_args[..]].concat();
    client("client-probe", &probe);
    client("client-delete", &["--cmd", "delete", "--ids", "1,4,5,999"]);
    client("client-probe-after-delete", &probe);

    let reshard = rl(
        &dir,
        &[
            "reshard", "--addr", &addr, "--mode", "split", "--source", "0",
        ],
    );
    pin("reshard.stdout", &reshard.stdout);
    // The progress lines depend on how far the copy got between polls.
    let stderr = String::from_utf8(reshard.stderr).unwrap();
    let settled: String = stderr
        .lines()
        .filter(|line| !line.starts_with("  copying:"))
        .map(|line| format!("{line}\n"))
        .collect();
    pin("reshard.stderr", settled.as_bytes());

    client("client-shard-map", &["--cmd", "shard-map"]);
    client("client-probe-after-reshard", &probe);

    rl(&dir, &["client", "--addr", &addr, "--cmd", "shutdown"]);
    assert!(served.0.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}
