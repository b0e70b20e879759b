//! Binary-level tests of the `figure` and `merge` command lines:
//!
//! * `merge` of a `figure domain --events` log gives that run's cells and a
//!   nonzero wall clock, and `merge --watch --once` reads it as done;
//! * a `figure fig5` run killed mid-grid and re-run on the same store
//!   simulates only the units the killed run did not persist;
//! * `merge` takes exactly one log, and an unknown event name fails naming
//!   the file and line;
//! * a missing or unknown figure name is a usage error listing the names;
//! * `merge --metrics FILE LOG` keeps the flag's value (it is not taken for
//!   an event log) and appends one telemetry snapshot.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use simkit::json::{self, Json};
use simsys::store::ResultStore;

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

fn wall_clock_ms(report: &Json) -> f64 {
    report
        .get("wall_clock_ms")
        .and_then(Json::as_f64)
        .expect("reports record a wall clock")
}

fn sims_executed(report: &Json) -> u64 {
    report
        .get("sims_executed")
        .and_then(Json::as_u64)
        .expect("reports count their simulations")
}

#[test]
fn a_local_domain_log_merges_to_the_figure_cells_and_wall_clock() {
    let dir = temp_dir("local-log");
    let store = dir.join("store");
    let log = dir.join("events.jsonl");
    let direct = run_json(
        env!("CARGO_BIN_EXE_figure"),
        &[
            "domain",
            "--json",
            "--scale",
            "tiny",
            "--store",
            path(&store),
            "--events",
            path(&log),
        ],
    );
    let merged = run_json(
        env!("CARGO_BIN_EXE_merge"),
        &["--figure", "domain", "--scale", "tiny", path(&log)],
    );
    assert_eq!(
        merged.get("cells"),
        direct.get("cells"),
        "the merged log must reproduce the run's cells"
    );
    assert_eq!(sims_executed(&merged), sims_executed(&direct));
    // The merged wall clock is the log's first-to-last span: nonzero, and
    // never longer than the run that wrote it (plus the millisecond the
    // integer stamps may round up).
    let (merged_ms, direct_ms) = (wall_clock_ms(&merged), wall_clock_ms(&direct));
    assert!(
        merged_ms > 0.0 && merged_ms <= direct_ms + 1.0,
        "merged {merged_ms} ms against the direct run's {direct_ms} ms"
    );

    let frame = run(
        env!("CARGO_BIN_EXE_merge"),
        &[
            "--figure",
            "domain",
            "--scale",
            "tiny",
            "--watch",
            "--once",
            path(&log),
        ],
    );
    let frame = String::from_utf8_lossy(&frame.stdout);
    assert!(
        frame.contains("(100%)") && frame.contains("· done"),
        "{frame}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_killed_local_run_resumes_on_the_same_store_and_loses_nothing() {
    let dir = temp_dir("resume");
    let store = dir.join("store");
    let log = dir.join("events.jsonl");
    let args = [
        "fig5",
        "--json",
        "--scale",
        "tiny",
        "--threads",
        "2",
        "--store",
        path(&store),
        "--events",
        path(&log),
    ];
    // Kill the run (SIGKILL: no chance to clean up) once it has streamed
    // at least 20 completed simulations.
    let mut child = Command::new(env!("CARGO_BIN_EXE_figure"))
        .args(args)
        .env_remove("MUONTRAP_STORE")
        .stdout(Stdio::null())
        .spawn()
        .expect("figure spawns");
    loop {
        let completed = std::fs::read_to_string(&log)
            .unwrap_or_default()
            .matches(r#""event":"completed""#)
            .count();
        if completed >= 20 {
            break;
        }
        assert!(
            child.try_wait().expect("poll figure").is_none(),
            "the run finished before it could be killed"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    child.kill().expect("kill figure");
    child.wait().expect("reap figure");
    let persisted = ResultStore::open(&store).expect("store opens").len() as u64;
    assert!(persisted >= 20, "{persisted} entries persisted");

    let resumed = run_json(env!("CARGO_BIN_EXE_figure"), &args);
    let cold = run_json(
        env!("CARGO_BIN_EXE_figure"),
        &[
            "fig5",
            "--json",
            "--scale",
            "tiny",
            "--threads",
            "2",
            "--store",
            path(&dir.join("cold")),
        ],
    );
    assert!(persisted < sims_executed(&cold), "the kill came too late");
    assert_eq!(
        sims_executed(&resumed) + persisted,
        sims_executed(&cold),
        "the re-run must simulate exactly what the killed run did not persist"
    );
    assert_eq!(
        cells_without_provenance(&resumed),
        cells_without_provenance(&cold)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_takes_one_log_and_names_the_line_of_an_unknown_event() {
    let dir = temp_dir("merge-args");
    let log = dir.join("events.jsonl");
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
    let merge = |logs: &[&Path]| {
        let mut args = vec!["--figure", "domain", "--scale", "tiny"];
        args.extend(logs.iter().map(|log| path(log)));
        run(env!("CARGO_BIN_EXE_merge"), &args)
    };
    let two = merge(&[&log, &log]);
    assert_eq!(two.status.code(), Some(2), "a second log is a usage error");
    assert!(String::from_utf8_lossy(&two.stderr).contains("unexpected argument"));

    // A line the retired multi-process runner wrote, as line 2.
    let text = std::fs::read_to_string(&log).unwrap();
    let (first, rest) = text.split_once('\n').unwrap();
    let old = dir.join("old.jsonl");
    std::fs::write(
        &old,
        format!("{first}\n{{\"event\":\"claimed\",\"shard\":0}}\n{rest}"),
    )
    .unwrap();
    let output = merge(&[&old]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(path(&old))
            && stderr.contains("line 2")
            && stderr.contains(r#"unknown event "claimed""#),
        "{stderr}"
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
