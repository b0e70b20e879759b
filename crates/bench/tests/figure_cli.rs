//! Binary-level tests of the `figure` and `merge` command lines:
//!
//! * two sequential `figure domain --shard-id` processes sharing one store,
//!   folded by `merge`, give the cells of a local `figure domain --json`;
//! * a missing or unknown figure name is a usage error listing the names;
//! * `merge --metrics FILE LOG` keeps the flag's value (it is not taken for
//!   an event log) and appends one telemetry snapshot.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use simkit::json::{self, Json};

fn temp_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    let dir = std::env::temp_dir().join(format!(
        "muontrap-figure-cli-{tag}-{}-{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .env_remove("MUONTRAP_STORE")
        .output()
        .unwrap_or_else(|e| panic!("{binary} spawns: {e}"))
}

fn run_json(binary: &str, args: &[&str]) -> Json {
    let output = run(binary, args);
    assert!(
        output.status.success(),
        "{binary} {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    json::parse(std::str::from_utf8(&output.stdout).expect("utf-8 stdout")).expect("JSON stdout")
}

fn path(p: &Path) -> &str {
    p.to_str().expect("temp paths are UTF-8")
}

/// A report's cells without their store provenance, which depends on the
/// run, for comparing a merged report with a local one.
fn cells_without_provenance(report: &Json) -> Vec<Json> {
    let Some(Json::Arr(cells)) = report.get("cells") else {
        panic!("report has no cells array: {report:?}");
    };
    cells
        .iter()
        .map(|cell| match cell {
            Json::Obj(fields) => Json::Obj(
                fields
                    .iter()
                    .filter(|(key, _)| key != "cached")
                    .cloned()
                    .collect(),
            ),
            other => panic!("cell is not an object: {other:?}"),
        })
        .collect()
}

#[test]
fn two_sequential_domain_shards_merge_to_the_local_figure_cells() {
    let dir = temp_dir("shards");
    let store = dir.join("store");
    let logs = [dir.join("e0.jsonl"), dir.join("e1.jsonl")];
    let summaries: Vec<Json> = logs
        .iter()
        .enumerate()
        .map(|(shard, log)| {
            let shard = shard.to_string();
            run_json(
                env!("CARGO_BIN_EXE_figure"),
                &[
                    "domain",
                    "--scale",
                    "tiny",
                    "--shard-id",
                    &shard,
                    "--shard-count",
                    "2",
                    "--store",
                    path(&store),
                    "--run-id",
                    "figure-cli",
                    "--events",
                    path(log),
                ],
            )
        })
        .collect();
    // The first shard simulated everything (work stealing), so the second
    // resolved its whole walk from the store.
    let cached = summaries[1].get("units_cached").and_then(Json::as_u64);
    assert!(
        cached > Some(0),
        "second shard cached nothing: {summaries:?}"
    );

    let merged = run_json(
        env!("CARGO_BIN_EXE_merge"),
        &[
            "--figure",
            "domain",
            "--scale",
            "tiny",
            path(&logs[0]),
            path(&logs[1]),
        ],
    );
    let local = run_json(
        env!("CARGO_BIN_EXE_figure"),
        &["domain", "--json", "--scale", "tiny"],
    );
    assert_eq!(
        cells_without_provenance(&merged),
        cells_without_provenance(&local),
        "the merged shards must reproduce the local run's cells"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_missing_or_unknown_figure_name_exits_2_and_lists_the_figures() {
    for args in [&["--scale", "tiny"][..], &["fig12", "--scale", "tiny"][..]] {
        let output = run(env!("CARGO_BIN_EXE_figure"), args);
        assert_eq!(output.status.code(), Some(2), "figure {args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        for name in bench::FIGURE_NAMES {
            assert!(stderr.contains(name), "`{name}` missing from:\n{stderr}");
        }
    }
}

#[test]
fn merge_metrics_flag_keeps_its_value_and_appends_one_snapshot() {
    let dir = temp_dir("metrics");
    let log = dir.join("events.jsonl");
    let metrics = dir.join("m.jsonl");
    run_json(
        env!("CARGO_BIN_EXE_figure"),
        &[
            "domain",
            "--json",
            "--scale",
            "tiny",
            "--events",
            path(&log),
        ],
    );
    let merged = run_json(
        env!("CARGO_BIN_EXE_merge"),
        &[
            "--figure",
            "domain",
            "--scale",
            "tiny",
            "--metrics",
            path(&metrics),
            path(&log),
        ],
    );
    assert!(merged.get("cells").is_some(), "merge printed a report");
    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    assert_eq!(text.lines().count(), 1, "one snapshot line: {text}");
    json::parse(text.trim()).expect("the snapshot is one JSON object");
    std::fs::remove_dir_all(&dir).ok();
}
