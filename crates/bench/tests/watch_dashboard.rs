//! Acceptance tests for the live dashboard (`merge --watch`):
//!
//! * golden single-frame snapshots over synthetic event logs (regenerate
//!   with `MUONTRAP_REGEN_WATCH_GOLDENS=1`);
//! * seeded property tests: frames are NaN/inf-free for arbitrary event
//!   interleavings, empty views render, a silent unfinished run is flagged
//!   while a finished one reads `done`, and [`LogTail`] reassembles logs
//!   delivered in mid-line fragments exactly as a strict whole-file parse
//!   would.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use bench::watch::{render_frame, LogTail, RunView, WatchOptions};
use simkit::config::SystemConfig;
use simkit::json::ToJson;
use simkit::rng::SimRng;
use simsys::runner::{self, Plan, RunEvent, WorkUnit};
use workloads::Scale;

fn temp_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    let dir = std::env::temp_dir().join(format!(
        "muontrap-watch-{tag}-{}-{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

fn check_golden(name: &str, produced: &str) {
    let path = golden_path(name);
    if std::env::var_os("MUONTRAP_REGEN_WATCH_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, produced).expect("write golden");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with MUONTRAP_REGEN_WATCH_GOLDENS=1",
            path.display()
        )
    });
    assert!(
        produced == golden,
        "{name} diverges from its golden snapshot. If the change is intentional, \
         regenerate with MUONTRAP_REGEN_WATCH_GOLDENS=1 and review the diff.\n\
         produced:\n{produced}\ngolden:\n{golden}"
    );
}

/// The plan every scenario runs against: the domain-switch figure at tiny
/// scale — the same derivation `merge --figure domain --scale tiny` makes.
fn domain_plan() -> Plan {
    let config = SystemConfig::paper_default();
    bench::figure_session("domain", Scale::Tiny, &config, 2, None)
        .expect("domain figure is registered")
        .plan()
}

fn completed(unit: &WorkUnit, t_ms: u64) -> RunEvent {
    RunEvent::Completed {
        shard: 0,
        kind: unit.kind,
        index: unit.index,
        fingerprint: unit.fingerprint,
        cell: None,
        t_ms: Some(t_ms),
        sim_ms: None,
    }
}

fn cached(unit: &WorkUnit, t_ms: u64) -> RunEvent {
    RunEvent::Cached {
        shard: 0,
        kind: unit.kind,
        index: unit.index,
        fingerprint: unit.fingerprint,
        cell: None,
        t_ms: Some(t_ms),
    }
}

fn write_log(path: &Path, events: &[RunEvent]) {
    let mut text = String::new();
    for event in events {
        text.push_str(&event.to_json().to_string_compact());
        text.push('\n');
    }
    std::fs::write(path, text).expect("write event log");
}

/// Runs `merge --figure domain --scale tiny --watch` with `flags` over the
/// log and returns the frame it prints.
fn watch_frame(log: &Path, flags: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_merge"))
        .args(["--figure", "domain", "--scale", "tiny", "--watch"])
        .args(flags)
        .arg(log)
        .output()
        .expect("merge binary runs");
    assert!(
        output.status.success(),
        "merge --watch {flags:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 frame")
}

/// The (deterministic) `merge --watch --once` frame over the log.
fn once_frame(log: &Path) -> String {
    watch_frame(log, &["--once"])
}

/// Every unit of the plan, baselines first, completed 500 ms apart.
fn complete_log(plan: &Plan) -> Vec<RunEvent> {
    plan.baselines
        .iter()
        .chain(&plan.cells)
        .enumerate()
        .map(|(i, unit)| completed(unit, 500 * (i as u64 + 1) + 100))
        .collect()
}

// ---------------------------------------------------------------------------
// Golden single-frame snapshots.
// ---------------------------------------------------------------------------

#[test]
fn once_frame_midrun_with_a_stalled_shard_matches_its_golden() {
    let plan = domain_plan();

    // Two baselines came from the store, then half the cells simulated; the
    // run went silent at t=6s. At "now" = 60s that is 54s of silence
    // against a 15s stall threshold. (`--once` pins "now" to the newest
    // stamp, where no run is ever silent, so this frame is rendered through
    // the library with an explicit "now".)
    let mut events: Vec<RunEvent> = plan
        .baselines
        .iter()
        .take(2)
        .enumerate()
        .map(|(i, unit)| cached(unit, 1_000 + i as u64 * 250))
        .collect();
    for (i, unit) in plan.cells.iter().take(plan.cells.len() / 2).enumerate() {
        events.push(completed(unit, 2_000 + i as u64 * 1_000));
    }
    let opts = WatchOptions {
        now_ms: Some(60_000),
        ..WatchOptions::default()
    };
    let frame = render_frame(&RunView::fold(&plan, &events, &opts), &opts);
    assert!(frame.contains("STALLED (54s silent)"), "{frame}");
    check_golden("watch_midrun_stalled.txt", &frame);
}

#[test]
fn once_frame_for_a_complete_fleet_matches_its_golden() {
    let dir = temp_dir("golden-complete");
    let log = dir.join("events.jsonl");
    write_log(&log, &complete_log(&domain_plan()));
    let frame = once_frame(&log);
    assert!(frame.contains("(100%)"), "run complete: {frame}");
    assert!(
        frame.contains("· done"),
        "a complete run reads done: {frame}"
    );
    check_golden("watch_complete.txt", &frame);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn once_frame_over_an_empty_log_matches_its_golden() {
    let dir = temp_dir("golden-empty");
    let log = dir.join("events.jsonl");
    std::fs::write(&log, "").expect("empty log");
    let frame = once_frame(&log);
    assert!(
        frame.contains("waiting for events"),
        "empty log renders the waiting state: {frame}"
    );
    check_golden("watch_empty.txt", &frame);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_finished_log_reads_done_however_long_it_has_been_silent() {
    // A live watch of a finished run: the clock is far past the last stamp
    // (these stamps are from 1970), yet the frame reads `done` and the
    // watch exits after it instead of waiting.
    let dir = temp_dir("finished");
    let log = dir.join("events.jsonl");
    let plan = domain_plan();
    let events = complete_log(&plan);
    write_log(&log, &events);
    let frame = watch_frame(&log, &["--stall-ms", "500"]);
    assert!(frame.contains("· done"), "{frame}");
    assert!(!frame.contains("STALLED"), "{frame}");

    // The same log missing its last unit is silent *and* unfinished.
    write_log(&log, &events[..events.len() - 1]);
    let frame = watch_frame(&log, &["--once"]);
    assert!(
        frame.contains("· running"),
        "--once never reads stalled: {frame}"
    );
    let opts = WatchOptions {
        stall_after_ms: 500,
        now_ms: Some(60_000),
        ..WatchOptions::default()
    };
    let view = RunView::fold(&plan, &events[..events.len() - 1], &opts);
    assert!(view.state_label(500).starts_with("STALLED"));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Seeded property tests over the fold and renderer.
// ---------------------------------------------------------------------------

/// A pseudo-random soup of events: arbitrary kinds, indices and
/// timestamps (some missing), executed or cached, in any order.
fn random_events(rng: &mut SimRng, plan: &Plan) -> Vec<RunEvent> {
    let mut events = Vec::new();
    for _ in 0..rng.below(60) {
        let t_ms = (rng.below(4) > 0).then(|| rng.below(100_000));
        let from_cells = !plan.cells.is_empty() && rng.below(2) == 0;
        let unit = if from_cells {
            &plan.cells[rng.below(plan.cells.len() as u64) as usize]
        } else {
            &plan.baselines[rng.below(plan.baselines.len() as u64) as usize]
        };
        events.push(if rng.below(2) == 0 {
            RunEvent::Cached {
                shard: 0,
                kind: unit.kind,
                index: unit.index,
                fingerprint: unit.fingerprint,
                cell: None,
                t_ms,
            }
        } else {
            RunEvent::Completed {
                shard: 0,
                kind: unit.kind,
                index: unit.index,
                fingerprint: unit.fingerprint,
                cell: None,
                t_ms,
                sim_ms: (rng.below(2) == 0).then(|| rng.below(600_000)),
            }
        });
    }
    events
}

#[test]
fn frames_never_leak_nan_or_inf_for_arbitrary_event_soups() {
    let plan = domain_plan();
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from(seed);
        let events = random_events(&mut rng, &plan);
        let opts = WatchOptions {
            now_ms: Some(rng.below(200_000)),
            ..WatchOptions::default()
        };
        let view = RunView::fold(&plan, &events, &opts);
        let frame = render_frame(&view, &opts);
        assert!(
            !frame.contains("NaN") && !frame.contains("inf"),
            "seed {seed}: non-finite value leaked into the frame:\n{frame}"
        );
        if let Some(eta) = view.eta_ms() {
            assert!(eta < u64::MAX / 2, "seed {seed}: ETA overflowed: {eta}");
        }
    }
}

#[test]
fn a_view_with_no_events_renders_and_reports_incomplete() {
    let plan = domain_plan();
    let opts = WatchOptions {
        now_ms: Some(0),
        ..WatchOptions::default()
    };
    let view = RunView::fold(&plan, &[], &opts);
    assert!(!view.complete());
    assert_eq!(view.resolved_units, 0);
    assert!(view.eta_ms().is_none(), "no rate, no ETA");
    let frame = render_frame(&view, &opts);
    assert!(frame.contains("waiting for events"));
    assert!(!frame.contains("NaN"));
}

#[test]
fn a_dead_shard_reads_as_stalled_and_a_timestampless_one_never_does() {
    let plan = domain_plan();
    let unit = &plan.baselines[0];
    let opts = WatchOptions {
        stall_after_ms: 5_000,
        now_ms: Some(60_000),
        ..WatchOptions::default()
    };
    // A run that last spoke at t=1s, 59s before "now", is stalled.
    let view = RunView::fold(&plan, &[completed(unit, 1_000)], &opts);
    let stalled = view.state_label(opts.stall_after_ms);
    assert!(stalled.starts_with("STALLED"), "got {stalled}");
    // A legacy log's events carry no stamps at all, so it has no liveness
    // signal to age out.
    let legacy = RunEvent::Completed {
        shard: 0,
        kind: unit.kind,
        index: unit.index,
        fingerprint: unit.fingerprint,
        cell: None,
        t_ms: None,
        sim_ms: None,
    };
    let view = RunView::fold(&plan, &[legacy], &opts);
    assert_eq!(view.state_label(opts.stall_after_ms), "running");
}

#[test]
fn shard_sim_latency_percentiles_fold_and_render_only_when_reported() {
    let plan = domain_plan();
    let opts = WatchOptions {
        now_ms: Some(1_000),
        ..WatchOptions::default()
    };
    // A log reporting timings (100..=2000ms).
    let unit = &plan.baselines[0];
    let events: Vec<RunEvent> = (1..=20u64)
        .map(|i| RunEvent::Completed {
            shard: 0,
            kind: unit.kind,
            index: unit.index,
            fingerprint: unit.fingerprint,
            cell: None,
            t_ms: Some(i * 10),
            sim_ms: Some(i * 100),
        })
        .collect();
    let view = RunView::fold(&plan, &events, &opts);
    let (p50, p95) = view
        .sim_latency_p50_p95()
        .expect("a timed log has percentiles");
    assert!((900..=1100).contains(&p50), "p50 near the median: {p50}");
    assert!(p95 >= 1900, "p95 in the tail: {p95}");
    let frame = render_frame(&view, &opts);
    assert_eq!(frame.matches("sim p50/p95").count(), 1, "{frame}");

    // A log without `sim_ms` renders no latency figure.
    let untimed = [completed(unit, 900)];
    let view = RunView::fold(&plan, &untimed, &opts);
    assert_eq!(view.sim_latency_p50_p95(), None);
    assert!(!render_frame(&view, &opts).contains("sim p50/p95"));
}

#[test]
fn log_tail_reassembles_fragmented_writes_exactly_like_a_strict_parse() {
    let dir = temp_dir("tail");
    let plan = domain_plan();
    for seed in 0..16u64 {
        let mut rng = SimRng::seed_from(0xF00D + seed);
        let events = random_events(&mut rng, &plan);
        let mut text = String::new();
        for event in &events {
            text.push_str(&event.to_json().to_string_compact());
            text.push('\n');
        }
        let path = dir.join(format!("frag-{seed}.jsonl"));
        let mut tail = LogTail::new(&path);
        assert_eq!(tail.poll().expect("missing file is fine"), 0);

        // Deliver the log in random-sized fragments — including cuts in the
        // middle of a JSON line — polling after every append, the way a
        // watcher races a live writer.
        let bytes = text.as_bytes();
        let mut written = 0usize;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("open log for append");
        while written < bytes.len() {
            let chunk = (rng.below(40) as usize + 1).min(bytes.len() - written);
            file.write_all(&bytes[written..written + chunk])
                .expect("append");
            file.flush().expect("flush");
            written += chunk;
            tail.poll().expect("poll");
        }

        let strict = runner::read_events(std::io::BufReader::new(
            std::fs::File::open(&path).expect("reopen"),
        ))
        .expect("strict parse of the complete log");
        assert_eq!(tail.events.len(), events.len(), "seed {seed}");
        assert_eq!(tail.malformed, 0, "seed {seed}");
        assert_eq!(
            tail.events
                .iter()
                .map(|e| e.to_json().to_string_compact())
                .collect::<Vec<_>>(),
            strict
                .iter()
                .map(|e| e.to_json().to_string_compact())
                .collect::<Vec<_>>(),
            "seed {seed}: tail and strict parse disagree"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn log_tail_resets_when_the_file_shrinks_and_skips_garbage_lines() {
    let dir = temp_dir("tail-reset");
    let plan = domain_plan();
    let path = dir.join("log.jsonl");
    let unit = &plan.baselines[0];

    let line = |e: &RunEvent| format!("{}\n", e.to_json().to_string_compact());
    std::fs::write(
        &path,
        format!(
            "{}not json\n{}",
            line(&completed(unit, 1)),
            line(&cached(unit, 2))
        ),
    )
    .expect("write");
    let mut tail = LogTail::new(&path);
    tail.poll().expect("poll");
    assert_eq!(tail.events.len(), 2);
    assert_eq!(tail.malformed, 1, "the garbage line is counted, not fatal");

    // A re-run truncates its log: the tail must drop everything it
    // believed and re-read from scratch.
    std::fs::write(&path, line(&completed(unit, 9))).expect("truncate");
    tail.poll().expect("poll after shrink");
    assert_eq!(tail.events.len(), 1);
    assert_eq!(tail.malformed, 0);
    assert_eq!(tail.events[0].t_ms(), Some(9));
    std::fs::remove_dir_all(&dir).ok();
}
