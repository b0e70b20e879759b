//! Cross-crate performance integration tests: sanity-check the *shape* of the
//! headline results on a reduced scale. These are not the paper's numbers
//! (the figure binaries in the `bench` crate regenerate those); they guard
//! against regressions that would flip the qualitative conclusions.
//!
//! All grids run through [`ExperimentSession`], so baselines are shared and
//! cells run in parallel.

use muontrap_repro::prelude::*;

fn config() -> SystemConfig {
    SystemConfig::paper_default()
}

#[test]
fn every_workload_completes_under_every_defense_at_tiny_scale() {
    let cfg = SystemConfig::small_test();
    let kinds = [
        DefenseKind::Unprotected,
        DefenseKind::InsecureL0,
        DefenseKind::MuonTrap,
        DefenseKind::MuonTrapClearOnMisspeculate,
        DefenseKind::InvisiSpecSpectre,
        DefenseKind::InvisiSpecFuture,
        DefenseKind::SttSpectre,
        DefenseKind::SttFuture,
    ];
    for suite in [
        spec_suite(Scale::Tiny),
        parsec_suite(Scale::Tiny, cfg.cores),
    ] {
        let report = ExperimentSession::new()
            .workloads(suite)
            .defenses(kinds)
            .config(cfg.clone())
            .run();
        for cell in &report.cells {
            assert!(
                cell.completed,
                "{} did not complete under {}",
                cell.workload, cell.column
            );
            assert!(cell.committed > 0);
        }
    }
}

#[test]
fn muontrap_overhead_stays_in_a_plausible_band_on_spec_like_kernels() {
    // The paper's headline: 4% average slowdown on SPEC CPU2006, with a worst
    // case of 47% and some speedups. At Tiny scale we only require each kernel
    // to stay within a generous band and the geomean to stay close to 1.
    let report = ExperimentSession::new()
        .workloads(spec_suite(Scale::Tiny))
        .defenses([DefenseKind::MuonTrap])
        .config(config())
        .run();
    for cell in &report.cells {
        assert!(
            cell.normalized_time > 0.4 && cell.normalized_time < 1.9,
            "{}: normalised time {} far outside the plausible band",
            cell.workload,
            cell.normalized_time
        );
    }
    let geomean = report.geomeans()[0];
    assert!(
        geomean > 0.8 && geomean < 1.35,
        "SPEC-like geomean {geomean} should be close to 1 (paper: 1.04)"
    );
}

#[test]
fn protection_mechanisms_accumulate_without_catastrophic_slowdown() {
    // Figure 8/9 shape: each successively enabled mechanism changes
    // performance only modestly on a representative kernel.
    let suite = spec_suite(Scale::Tiny);
    let workload = suite
        .iter()
        .find(|w| w.name == "hmmer")
        .expect("kernel exists");
    let report = ExperimentSession::new()
        .workloads([workload.clone()])
        .defenses_labeled(bench_configs().into_iter().map(|(l, k)| (l.to_string(), k)))
        .config(config())
        .run();
    for cell in &report.cells {
        assert!(
            cell.normalized_time > 0.4 && cell.normalized_time < 2.0,
            "{}: normalised time {} out of band",
            cell.column,
            cell.normalized_time
        );
    }
}

/// The cumulative configurations of figures 8/9, reconstructed here so this
/// test does not depend on the bench crate.
fn bench_configs() -> Vec<(&'static str, DefenseKind)> {
    let fcache_only = ProtectionConfig {
        secure_filter: true,
        ..ProtectionConfig::insecure_l0()
    };
    let full = ProtectionConfig::muontrap_default();
    vec![
        ("insecure-l0", DefenseKind::InsecureL0),
        ("fcache-only", DefenseKind::MuonTrapCustom(fcache_only)),
        ("full", DefenseKind::MuonTrapCustom(full)),
        ("clear-misspec", DefenseKind::MuonTrapClearOnMisspeculate),
        ("parallel-l1", DefenseKind::MuonTrapParallelL1),
    ]
}

#[test]
fn parallel_l1_lookup_is_not_slower_than_serial_lookup() {
    let suite = spec_suite(Scale::Tiny);
    let workload = suite
        .iter()
        .find(|w| w.name == "omnetpp")
        .expect("kernel exists");
    let report = ExperimentSession::new()
        .workloads([workload.clone()])
        .defenses([DefenseKind::MuonTrap, DefenseKind::MuonTrapParallelL1])
        .config(config())
        .run();
    let serial = report.cell(0, 0).normalized_time;
    let parallel = report.cell(0, 1).normalized_time;
    assert!(
        parallel <= serial + 0.02,
        "parallel L0/L1 lookup ({parallel}) must not be slower than serial ({serial})"
    );
}

#[test]
fn undersized_filter_caches_hurt_cache_sensitive_parallel_workloads() {
    // Figure 5 shape: a one-line filter cache is substantially worse than the
    // 2 KiB default for at least one Parsec-like kernel. The sweep shares one
    // baseline per workload, so this costs 3 simulations, not 4.
    let cfg = config();
    let suite = parsec_suite(Scale::Tiny, cfg.cores);
    let workload = suite
        .iter()
        .find(|w| w.name == "streamcluster")
        .expect("kernel exists");
    let report = ExperimentSession::new()
        .workloads([workload.clone()])
        .config_sweep(
            DefenseKind::MuonTrap,
            [
                ("64 B".to_string(), cfg.with_data_filter(64, 1)),
                ("2 KiB".to_string(), cfg.with_data_filter(2048, 32)),
            ],
        )
        .run();
    assert_eq!(report.baseline_sims, 1);
    let tiny = report.cell(0, 0).normalized_time;
    let default = report.cell(0, 1).normalized_time;
    assert!(
        tiny >= default,
        "a 64 B filter cache ({tiny}) should not beat the 2 KiB one ({default})"
    );
}

#[test]
fn context_switch_flush_cost_appears_in_time_sliced_runs() {
    // Two processes sharing one core force regular filter flushes; the run
    // still completes and the flush counters line up with the switches.
    let mut cfg = SystemConfig::small_test();
    cfg.cores = 1;
    cfg.scheduler_quantum = 5_000;
    let suite = spec_suite(Scale::Tiny);
    let a = suite.iter().find(|w| w.name == "hmmer").unwrap();
    let model = DefenseKind::MuonTrap.build(&cfg);
    let mut system = System::new(&cfg, model);
    let pid_a = system.add_process();
    let pid_b = system.add_process();
    system.add_thread(pid_a, a.thread_programs[0].clone());
    system.add_thread(pid_b, a.thread_programs[0].clone());
    let report = system.run(60_000_000);
    assert!(report.completed);
    assert!(report.context_switches > 2);
    assert!(
        report.stats.counter("muontrap.context_switch_flushes") >= report.context_switches,
        "every context switch must flush the filter caches"
    );
}

#[test]
fn warm_result_store_regenerates_a_mixed_grid_without_simulating() {
    // End-to-end store check at the facade level: a grid mixing named and
    // custom defenses (the hardest keying case — custom kinds share a label
    // and differ only in their ProtectionConfig payload) regenerates from a
    // warm store with zero simulations and identical numbers.
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    let dir =
        std::env::temp_dir().join(format!("muontrap-e2e-store-{}-{nanos}", std::process::id()));
    let suite = spec_suite(Scale::Tiny);
    let grid = || {
        ExperimentSession::new()
            .workloads(suite.iter().take(2).cloned())
            .defenses_labeled(bench_configs().into_iter().map(|(l, k)| (l.to_string(), k)))
            .config(SystemConfig::small_test())
            .with_store(&dir)
    };
    let cold = grid().run();
    assert_eq!(cold.sims_executed, cold.total_sims());
    assert_eq!(cold.cached_cells(), 0);

    let warm = grid().run();
    assert_eq!(warm.sims_executed, 0, "warm store must satisfy the grid");
    assert_eq!(warm.cached_cells(), warm.cells.len());
    for (a, b) in cold.cells.iter().zip(&warm.cells) {
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.normalized_time, b.normalized_time);
        assert_eq!(a.stats, b.stats);
    }
    std::fs::remove_dir_all(&dir).ok();
}
