//! `rl calibrate` names each attribute after its own header column,
//! wherever the id column sits.

mod common;

use common::{fresh_dir, synth_name};
use std::process::Command;

#[test]
fn calibrate_reads_the_same_attributes_wherever_the_id_column_is() {
    let dir = fresh_dir("cli-calibrate");
    let names = ["FirstName", "LastName", "Town"];
    let reports: Vec<String> = [0, 1, 3]
        .into_iter()
        .map(|id_column| {
            let row = |id: String, attrs: [String; 3]| {
                let mut cols = attrs.to_vec();
                cols.insert(id_column, id);
                format!("{}\n", cols.join(","))
            };
            let mut csv = row("id".into(), names.map(String::from));
            for i in 0..60 {
                csv.push_str(&row(i.to_string(), [0, 1, 2].map(|s| synth_name(s, i))));
            }
            let path = dir.join(format!("id{id_column}.csv"));
            std::fs::write(&path, csv).unwrap();
            let out = Command::new(env!("CARGO_BIN_EXE_rl"))
                .args(["calibrate", "--header", "--id-column"])
                .arg(id_column.to_string())
                .arg("--input")
                .arg(&path)
                .output()
                .unwrap();
            assert!(out.status.success(), "{out:?}");
            String::from_utf8(out.stdout).unwrap()
        })
        .collect();
    let attributes: Vec<&str> = reports[0]
        .lines()
        .filter(|line| line.contains(" b = "))
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    assert_eq!(attributes, names);
    for report in &reports[1..] {
        assert_eq!(report, &reports[0], "the id column moved the report");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
