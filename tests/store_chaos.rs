//! Chaos suite: local runs over a store under seeded fault injection.
//!
//! Each case runs two figures over one store whose backend is a
//! [`FaultBackend`]: every read, write and removal may suffer a torn write,
//! a stale read, a transient I/O error or injected latency, with the mix
//! drawn from a seeded [`SimRng`](simkit) stream. Each figure runs twice on
//! the same store, the way an operator resumes a killed run: the second
//! pass reads back whatever the first managed to persist, torn entries
//! included.
//!
//! The acceptance bar, per seed and pass:
//! * the report covers the grid — **no lost cells** and **no duplicated
//!   cells** (checked explicitly);
//! * the report is **byte-identical to the unfaulted run** after
//!   canonicalisation. Canonical form zeroes wall-clock and the
//!   executed/cached *provenance* tallies: a failed write legitimately
//!   turns a cache hit on the second pass into a re-simulation, so
//!   provenance may flip under faults — but the figure payload (cycles,
//!   normalised time, baselines) must never move by a byte.
//!
//! A failing seed prints its number and the full injected-fault log as a
//! `(op, fault)` script; feeding that to [`FaultBackend::scripted`] replays
//! the exact interleaving (see `a_seeded_run_replays_exactly_from_its_
//! script`), which is how any future failure gets pinned as a regression
//! test instead of a flake.
//!
//! The default sweep keeps `cargo test` quick; the 110-seed sweep behind
//! `#[ignore]` is what the CI `store-chaos` job runs with
//! `--release -- --include-ignored`.

use std::sync::Arc;

use muontrap_repro::prelude::*;
use simsys::store::{Fault, FaultBackend, FaultConfig, FaultRecord, MemBackend, StoreBackend};

/// Figure A: an explicit Unprotected column (the derived-cell path) and two
/// real defenses.
fn figure_a(store: &ResultStore, threads: usize) -> ExperimentSession {
    ExperimentSession::new()
        .title("chaos figure A")
        .scale(Scale::Tiny)
        .workloads(spec_suite(Scale::Tiny).into_iter().take(2))
        .defenses([
            DefenseKind::Unprotected,
            DefenseKind::MuonTrap,
            DefenseKind::SttSpectre,
        ])
        .config(SystemConfig::small_test())
        .threads(threads)
        .store(Some(store.clone()))
}

/// Figure B: two more workloads, sharing no unit with figure A.
fn figure_b(store: &ResultStore, threads: usize) -> ExperimentSession {
    ExperimentSession::new()
        .title("chaos figure B")
        .scale(Scale::Tiny)
        .workloads(spec_suite(Scale::Tiny).into_iter().skip(2).take(2))
        .defenses([DefenseKind::MuonTrap, DefenseKind::SttSpectre])
        .config(SystemConfig::small_test())
        .threads(threads)
        .store(Some(store.clone()))
}

/// Canonical report form for fault-tolerant byte comparison: wall clock and
/// execution/cache provenance zeroed (see the module docs for why those may
/// legitimately flip under faults), figure payload untouched.
fn canonical(mut report: RunReport) -> String {
    report.wall_clock_ms = 0.0;
    report.sims_executed = 0;
    report.baseline_sims = 0;
    for cell in &mut report.cells {
        cell.cached = false;
    }
    report.to_json().to_string_pretty()
}

/// Asserts the no-lost/no-duplicate invariants on one report, with
/// `context` (seed + fault log) attached to any failure, and returns its
/// canonical form.
fn checked(report: RunReport, context: &dyn Fn() -> String) -> String {
    let mut seen = std::collections::BTreeSet::new();
    for cell in &report.cells {
        assert!(
            seen.insert((cell.workload.clone(), cell.column.clone())),
            "duplicated cell {}/{}\n{}",
            cell.workload,
            cell.column,
            context()
        );
    }
    assert_eq!(
        report.cells.len(),
        report.workloads.len() * report.columns.len(),
        "grid incomplete\n{}",
        context()
    );
    canonical(report)
}

/// One full chaos case over a seeded faulty store. Returns the canonical
/// reports of both passes of both figures and the injected-fault log.
fn chaos_run(seed: u64, config: &FaultConfig) -> (Vec<String>, Vec<FaultRecord>) {
    let faulty = Arc::new(FaultBackend::seeded(
        Arc::new(MemBackend::new()),
        seed,
        config.clone(),
    ));
    run_over(seed, &faulty)
}

/// The harness body, shared by seeded and scripted runs: figure A twice,
/// then figure B twice, one thread each so the operation sequence — and
/// with it every injection point — is reproducible.
fn run_over(seed: u64, faulty: &Arc<FaultBackend>) -> (Vec<String>, Vec<FaultRecord>) {
    let store = ResultStore::with_backend(Arc::clone(faulty) as Arc<dyn StoreBackend>);
    let log = Arc::clone(faulty);
    let context = move || {
        let script: Vec<(u64, String)> = log
            .injected()
            .iter()
            .map(|r| (r.op, format!("{:?}", r.fault)))
            .collect();
        format!("seed {seed:#x}; replay script (op, fault): {script:?}")
    };
    let mut reports = Vec::new();
    for build in [figure_a, figure_b] {
        for _pass in 0..2 {
            reports.push(checked(build(&store, 1).run(), &context));
        }
    }
    (reports, faulty.injected())
}

/// The unfaulted truth, canonicalised, in [`run_over`]'s report order.
fn reference() -> Vec<String> {
    let store = ResultStore::in_memory();
    let a = canonical(figure_a(&store, 1).run());
    let b = canonical(figure_b(&store, 1).run());
    vec![a.clone(), a, b.clone(), b]
}

fn sweep(seeds: std::ops::Range<u64>) {
    let want = reference();
    let config = FaultConfig::chaos();
    let mut injected_total = 0usize;
    for seed in seeds {
        let (got, injected) = chaos_run(seed, &config);
        injected_total += injected.len();
        for (pass, (got, want)) in got.iter().zip(&want).enumerate() {
            assert_eq!(got, want, "report {pass} diverged under seed {seed:#x}");
        }
    }
    assert!(
        injected_total > 0,
        "the chaos config never fired — the sweep tested nothing"
    );
}

#[test]
fn chaos_seeds_converge_to_the_unfaulted_report() {
    sweep(0..16);
}

/// The full 110-seed acceptance sweep; slow in debug, so CI's `store-chaos`
/// job runs it with `--release -- --include-ignored`.
#[test]
#[ignore = "110-seed sweep; run in release via CI's store-chaos job"]
fn chaos_hundred_plus_seed_sweep() {
    sweep(16..126);
}

#[test]
fn a_seeded_run_replays_exactly_from_its_script() {
    // The regression-replay mode: take any seeded run's injected-fault log,
    // feed it back as a script over a fresh store, and the runs walk the
    // *identical* interleaving — same injections at the same operation
    // indices, same report bytes. This is how a failing seed from the sweep
    // above gets pinned forever.
    // The first seed whose run tears an entry among at least three faults.
    let (seed, seeded, injected) = (0u64..)
        .map(|seed| {
            let (reports, injected) = chaos_run(seed, &FaultConfig::chaos());
            (seed, reports, injected)
        })
        .find(|(_, _, injected)| {
            injected.len() >= 3 && injected.iter().any(|r| r.fault == Fault::TornWrite)
        })
        .expect("some seed injects faults");

    let script: Vec<(u64, Fault)> = injected.iter().map(|r| (r.op, r.fault)).collect();
    let replayed = Arc::new(FaultBackend::scripted(
        Arc::new(MemBackend::new()),
        script.iter().copied(),
    ));
    let (replay, replay_log) = run_over(seed, &replayed);
    assert_eq!(replay, seeded);
    let as_pairs = |log: &[FaultRecord]| -> Vec<(u64, Fault)> {
        log.iter().map(|r| (r.op, r.fault)).collect()
    };
    assert_eq!(
        as_pairs(&replay_log),
        script,
        "the replay must fire exactly the recorded faults at the recorded ops"
    );
}

#[test]
fn concurrently_racing_faulted_shards_still_converge() {
    // The real-concurrency variant: two runs of figure A, two worker
    // threads each, race over one faulted store, writing the same entries.
    // The interleaving is nondeterministic, so there is no byte-level
    // replay here — the invariants (nothing lost, nothing duplicated,
    // canonical bytes equal the unfaulted run) must hold for *every*
    // interleaving.
    let want = canonical(figure_a(&ResultStore::in_memory(), 2).run());
    for seed in 0..4u64 {
        let faulty = Arc::new(FaultBackend::seeded(
            Arc::new(MemBackend::new()),
            seed,
            FaultConfig::chaos(),
        ));
        let store = ResultStore::with_backend(Arc::clone(&faulty) as Arc<dyn StoreBackend>);
        let context = {
            let faulty = Arc::clone(&faulty);
            move || format!("seed {seed:#x}; injected: {:?}", faulty.injected())
        };
        let reports: Vec<RunReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| figure_a(&store, 2).run()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for report in reports {
            assert_eq!(checked(report, &context), want, "{}", context());
        }
    }
}
