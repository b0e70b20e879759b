//! Integration tests for the runner: the streaming JSONL event log must
//! round-trip through the merge, and read-only stores must serve grids
//! without writing.

use muontrap_repro::prelude::*;
use simsys::runner::{self, UnitKind};
use workloads::domain_switch_suite;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    std::env::temp_dir().join(format!(
        "muontrap-runner-test-{tag}-{}-{nanos}",
        std::process::id()
    ))
}

/// A small mixed grid: an explicit Unprotected column (the derived-cell
/// path), two real defenses, two workloads.
fn grid(store: Option<&std::path::Path>) -> ExperimentSession {
    let session = ExperimentSession::new()
        .title("runner integration grid")
        .scale(Scale::Tiny)
        .workloads(spec_suite(Scale::Tiny).into_iter().take(2))
        .defenses([
            DefenseKind::Unprotected,
            DefenseKind::MuonTrap,
            DefenseKind::SttSpectre,
        ])
        .config(SystemConfig::small_test())
        .threads(2);
    match store {
        Some(path) => session.with_store(path),
        None => session,
    }
}

#[test]
fn event_logs_round_trip_through_jsonl_and_merge() {
    let dir = temp_dir("roundtrip");
    let session = grid(Some(&dir));
    let plan = session.plan();
    let mut log: Vec<u8> = Vec::new();
    let report = session.run_with_events(Some(&mut log));

    // Every JSONL line parses, re-serialises identically, and the parsed
    // stream merges into a complete report.
    let text = String::from_utf8(log.clone()).expect("logs are UTF-8 JSONL");
    let events = runner::read_events(log.as_slice()).expect("every line parses");
    assert_eq!(text.lines().count(), events.len());
    for (line, event) in text.lines().zip(&events) {
        let reparsed: RunEvent = {
            use simkit::json;
            RunEvent::from_json(&json::parse(line).unwrap()).unwrap()
        };
        assert_eq!(&reparsed, event);
        assert_eq!(event.to_json().to_string_compact(), line);
    }
    // Every unit resolves exactly once, and every event is stamped.
    assert_eq!(events.len(), plan.baselines.len() + plan.cells.len());
    assert!(events.iter().all(|e| e.t_ms().is_some()));
    let resolved: Vec<_> = events.iter().map(RunEvent::unit).collect();
    for cell in &plan.cells {
        assert!(
            resolved.contains(&(UnitKind::Cell, cell.index)),
            "cell {} must appear in the stream",
            cell.index
        );
    }

    let merged = runner::merge_events(&plan, events, report.wall_clock_ms)
        .expect("parsed log rebuilds the report");
    assert_eq!(merged, report, "the log rebuilds the run's own report");
    // And the merged report matches a plain in-process rerun served from the
    // same (now warm) store.
    let warm = grid(Some(&dir)).run();
    assert_eq!(merged.cells.len(), warm.cells.len());
    for (a, b) in merged.cells.iter().zip(&warm.cells) {
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.normalized_time, b.normalized_time);
        assert_eq!(a.stats, b.stats);
    }
    assert_eq!(warm.sims_executed, 0, "the logged run left the store warm");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn read_only_stores_serve_figure_grids_without_writing() {
    let dir = temp_dir("readonly");
    // Fill the store with a normal run.
    let cold = grid(Some(&dir)).run();
    assert!(cold.sims_executed > 0);
    let entries_after_fill = ResultStore::open(&dir).unwrap().len();

    // A read-only rerun of the same grid is fully warm and writes nothing.
    let ro = ResultStore::read_only(&dir);
    let warm = grid(None).store(Some(ro)).run();
    assert_eq!(warm.sims_executed, 0);
    assert_eq!(warm.cache_hit_rate(), 1.0);

    // A *larger* grid on the same read-only store simulates the new cells
    // but still writes nothing.
    let bigger = ExperimentSession::new()
        .title("readonly bigger grid")
        .workloads(domain_switch_suite(Scale::Tiny))
        .defenses([DefenseKind::MuonTrap])
        .config(SystemConfig::small_test())
        .threads(2)
        .store(Some(ResultStore::read_only(&dir)))
        .run();
    assert!(bigger.sims_executed > 0, "misses simulate");
    assert_eq!(
        ResultStore::open(&dir).unwrap().len(),
        entries_after_fill,
        "a read-only store must never grow"
    );
    std::fs::remove_dir_all(&dir).ok();
}
