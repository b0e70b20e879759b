//! Acceptance tests for the live dashboard (`merge --watch`):
//!
//! * golden single-frame snapshots of `merge --watch --once` over synthetic
//!   shard logs (regenerate with `MUONTRAP_REGEN_WATCH_GOLDENS=1`);
//! * seeded property tests: frames are NaN/inf-free for arbitrary event
//!   interleavings, zero-shard views render, stalled shards are flagged, and
//!   [`LogTail`] reassembles logs delivered in mid-line fragments exactly as
//!   a strict whole-file parse would.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::Command;

use bench::watch::{render_frame, FleetView, LogTail, WatchOptions};
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

fn claimed(unit: &WorkUnit, shard: usize, stolen: bool, t_ms: u64) -> RunEvent {
    RunEvent::Claimed {
        shard,
        kind: unit.kind,
        index: unit.index,
        fingerprint: unit.fingerprint,
        stolen,
        t_ms: Some(t_ms),
    }
}

fn completed(unit: &WorkUnit, shard: usize, t_ms: u64) -> RunEvent {
    RunEvent::Completed {
        shard,
        kind: unit.kind,
        index: unit.index,
        fingerprint: unit.fingerprint,
        cell: None,
        t_ms: Some(t_ms),
        sim_ms: None,
    }
}

fn cached(unit: &WorkUnit, shard: usize, t_ms: u64) -> RunEvent {
    RunEvent::Cached {
        shard,
        kind: unit.kind,
        index: unit.index,
        fingerprint: unit.fingerprint,
        cell: None,
        t_ms: Some(t_ms),
    }
}

fn write_log(path: &PathBuf, events: &[RunEvent]) {
    let mut text = String::new();
    for event in events {
        text.push_str(&event.to_json().to_string_compact());
        text.push('\n');
    }
    std::fs::write(path, text).expect("write event log");
}

/// Runs `merge --figure domain --scale tiny --watch --once` over the logs
/// and returns the (deterministic) frame it prints.
fn once_frame(logs: &[&PathBuf]) -> String {
    let mut args = vec![
        "--figure".to_string(),
        "domain".to_string(),
        "--scale".to_string(),
        "tiny".to_string(),
        "--watch".to_string(),
        "--once".to_string(),
    ];
    args.extend(logs.iter().map(|p| p.to_str().unwrap().to_string()));
    let output = Command::new(env!("CARGO_BIN_EXE_merge"))
        .args(&args)
        .output()
        .expect("merge binary runs");
    assert!(
        output.status.success(),
        "merge --watch --once failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 frame")
}

// ---------------------------------------------------------------------------
// Golden single-frame snapshots of `merge --watch --once`.
// ---------------------------------------------------------------------------

#[test]
fn once_frame_midrun_with_a_stalled_shard_matches_its_golden() {
    let dir = temp_dir("golden-midrun");
    let plan = domain_plan();

    // Shard 0 works steadily and is still alive at the frame's pinned "now"
    // (the newest stamp, 60s). Shard 1 resolved two baselines from cache,
    // stole a lease doing so, then went silent at t=2.5s — 57.5s of silence
    // against a 15s stall threshold.
    let mut shard0 = Vec::new();
    let half = plan.cells.len() / 2;
    for (i, unit) in plan.cells.iter().take(half).enumerate() {
        let t = 1_000 * (i as u64 + 1);
        shard0.push(claimed(unit, 0, false, t));
        shard0.push(completed(unit, 0, t + 200));
    }
    shard0.push(RunEvent::Heartbeat {
        shard: 0,
        units_done: half,
        units_total: plan.baselines.len() + plan.cells.len(),
        t_ms: Some(60_000),
    });

    let mut shard1 = Vec::new();
    for (i, unit) in plan.baselines.iter().take(2).enumerate() {
        shard1.push(claimed(unit, 1, i == 0, 2_000 + i as u64 * 250));
        shard1.push(cached(unit, 1, 2_000 + i as u64 * 250 + 50));
    }

    let log0 = dir.join("shard0.jsonl");
    let log1 = dir.join("shard1.jsonl");
    write_log(&log0, &shard0);
    write_log(&log1, &shard1);

    let frame = once_frame(&[&log0, &log1]);
    assert!(frame.contains("STALLED"), "shard 1 went silent: {frame}");
    assert!(frame.contains("running"), "shard 0 is alive: {frame}");
    check_golden("watch_midrun_stalled.txt", &frame);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn once_frame_for_a_complete_fleet_matches_its_golden() {
    let dir = temp_dir("golden-complete");
    let plan = domain_plan();

    // Both shards walk disjoint halves to completion and sign off.
    let mut shard0 = Vec::new();
    let mut shard1 = Vec::new();
    let units: Vec<&WorkUnit> = plan.baselines.iter().chain(plan.cells.iter()).collect();
    for (i, unit) in units.iter().enumerate() {
        let shard = i % 2;
        let t = 500 * (i as u64 + 1);
        let log = if shard == 0 { &mut shard0 } else { &mut shard1 };
        log.push(claimed(unit, shard, false, t));
        log.push(completed(unit, shard, t + 100));
    }
    shard0.push(RunEvent::ShardDone {
        shard: 0,
        sims_executed: shard0.len() / 2,
        wall_clock_ms: 4_200.0,
        t_ms: Some(9_000),
    });
    shard1.push(RunEvent::ShardDone {
        shard: 1,
        sims_executed: shard1.len() / 2,
        wall_clock_ms: 3_900.0,
        t_ms: Some(9_100),
    });

    let log0 = dir.join("shard0.jsonl");
    let log1 = dir.join("shard1.jsonl");
    write_log(&log0, &shard0);
    write_log(&log1, &shard1);

    let frame = once_frame(&[&log0, &log1]);
    assert_eq!(
        frame.matches("done (").count(),
        2,
        "both shards signed off with a wall clock: {frame}"
    );
    assert!(frame.contains("(100%)"), "fleet complete: {frame}");
    check_golden("watch_complete.txt", &frame);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn once_frame_over_an_empty_log_matches_its_golden() {
    let dir = temp_dir("golden-empty");
    let log = dir.join("shard0.jsonl");
    std::fs::write(&log, "").expect("empty log");
    let frame = once_frame(&[&log]);
    assert!(
        frame.contains("no shard activity yet"),
        "empty log renders the waiting line: {frame}"
    );
    check_golden("watch_empty.txt", &frame);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Seeded property tests over the fold and renderer.
// ---------------------------------------------------------------------------

/// A pseudo-random soup of events: arbitrary shards, kinds, indices,
/// timestamps (some missing), steals, heartbeats and sign-offs.
fn random_events(rng: &mut SimRng, plan: &Plan) -> Vec<RunEvent> {
    let mut events = Vec::new();
    for _ in 0..rng.below(60) {
        let shard = rng.below(4) as usize;
        let t_ms = (rng.below(4) > 0).then(|| rng.below(100_000));
        let from_cells = !plan.cells.is_empty() && rng.below(2) == 0;
        let unit = if from_cells {
            &plan.cells[rng.below(plan.cells.len() as u64) as usize]
        } else {
            &plan.baselines[rng.below(plan.baselines.len() as u64) as usize]
        };
        events.push(match rng.below(5) {
            0 => RunEvent::Claimed {
                shard,
                kind: unit.kind,
                index: unit.index,
                fingerprint: unit.fingerprint,
                stolen: rng.below(3) == 0,
                t_ms,
            },
            1 => RunEvent::Heartbeat {
                shard,
                units_done: rng.below(20) as usize,
                units_total: plan.baselines.len() + plan.cells.len(),
                t_ms,
            },
            2 => RunEvent::ShardDone {
                shard,
                sims_executed: rng.below(20) as usize,
                wall_clock_ms: rng.next_f64() * 10_000.0,
                t_ms,
            },
            3 => RunEvent::Cached {
                shard,
                kind: unit.kind,
                index: unit.index,
                fingerprint: unit.fingerprint,
                cell: None,
                t_ms,
            },
            _ => RunEvent::Completed {
                shard,
                kind: unit.kind,
                index: unit.index,
                fingerprint: unit.fingerprint,
                cell: None,
                t_ms,
                sim_ms: (rng.below(2) == 0).then(|| rng.below(600_000)),
            },
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
        let view = FleetView::fold(&plan, &events, &opts);
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
    let view = FleetView::fold(&plan, &[], &opts);
    assert!(!view.complete());
    assert_eq!(view.resolved_units, 0);
    assert!(view.shards.is_empty());
    assert!(view.eta_ms().is_none(), "no rate, no ETA");
    let frame = render_frame(&view, &opts);
    assert!(frame.contains("no shard activity yet"));
    assert!(!frame.contains("NaN"));
}

#[test]
fn a_dead_shard_reads_as_stalled_and_a_timestampless_one_never_does() {
    let plan = domain_plan();
    let unit = &plan.baselines[0];
    // Shard 0 last spoke at t=1s; shard 1's events carry no stamps at all
    // (a legacy log) so it has no liveness signal to age out.
    let events = vec![
        completed(unit, 0, 1_000),
        RunEvent::Completed {
            shard: 1,
            kind: unit.kind,
            index: unit.index,
            fingerprint: unit.fingerprint,
            cell: None,
            t_ms: None,
            sim_ms: None,
        },
    ];
    let opts = WatchOptions {
        stall_after_ms: 5_000,
        now_ms: Some(60_000),
        ..WatchOptions::default()
    };
    let view = FleetView::fold(&plan, &events, &opts);
    let stalled = view.shards[&0].state_label(view.now_ms, opts.stall_after_ms);
    assert!(stalled.starts_with("STALLED"), "got {stalled}");
    assert_eq!(
        view.shards[&1].state_label(view.now_ms, opts.stall_after_ms),
        "running"
    );
}

#[test]
fn shard_sim_latency_percentiles_fold_and_render_only_when_reported() {
    let plan = domain_plan();
    let unit = &plan.baselines[0];
    let timed = |shard: usize, t_ms: u64, sim_ms: u64| RunEvent::Completed {
        shard,
        kind: unit.kind,
        index: unit.index,
        fingerprint: unit.fingerprint,
        cell: None,
        t_ms: Some(t_ms),
        sim_ms: Some(sim_ms),
    };
    // Shard 0 reports timings (100..=2000ms); shard 1 is a legacy stream.
    let mut events: Vec<RunEvent> = (1..=20u64).map(|i| timed(0, i * 10, i * 100)).collect();
    events.push(completed(unit, 1, 900));
    let opts = WatchOptions {
        now_ms: Some(1_000),
        ..WatchOptions::default()
    };
    let view = FleetView::fold(&plan, &events, &opts);
    let (p50, p95) = view.shards[&0]
        .sim_latency_p50_p95()
        .expect("timed shard has percentiles");
    assert!((900..=1100).contains(&p50), "p50 near the median: {p50}");
    assert!(p95 >= 1900, "p95 in the tail: {p95}");
    assert_eq!(view.shards[&1].sim_latency_p50_p95(), None);
    let frame = render_frame(&view, &opts);
    assert_eq!(
        frame.matches("sim p50/p95").count(),
        1,
        "only the timed shard shows latency: {frame}"
    );
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
            line(&completed(unit, 0, 1)),
            line(&cached(unit, 0, 2))
        ),
    )
    .expect("write");
    let mut tail = LogTail::new(&path);
    tail.poll().expect("poll");
    assert_eq!(tail.events.len(), 2);
    assert_eq!(tail.malformed, 1, "the garbage line is counted, not fatal");

    // A restarted shard truncates its log: the tail must drop everything it
    // believed and re-read from scratch.
    std::fs::write(&path, line(&completed(unit, 3, 9))).expect("truncate");
    tail.poll().expect("poll after shrink");
    assert_eq!(tail.events.len(), 1);
    assert_eq!(tail.malformed, 0);
    assert_eq!(tail.events[0].shard(), 3);
    std::fs::remove_dir_all(&dir).ok();
}
