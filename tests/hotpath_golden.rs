//! Golden-equivalence proof for the hot-loop overhaul.
//!
//! The allocation-free, event-skipping simulator loop is a pure performance
//! change: every `RunReport` (cells, cycle counts, normalised times, the full
//! per-core `CoreStats` and memory-model statistics) must be **bit-identical**
//! to the naive one-tick-per-cycle loop it replaced. These tests pin that
//! down two ways:
//!
//! 1. **Recorded goldens.** `tests/goldens/hotpath/<figure>-<scale>.json`
//!    were recorded *before* the optimisation landed (naive loop, per-cycle
//!    allocations, quadratic ROB scans). Every [`bench::FIGURE_NAMES`] entry
//!    is re-run through the optimised loop and compared against its golden
//!    with the wall clock zeroed — cycle-skipping must be invisible in every
//!    reported number. The tiny-scale sweep runs in the default test suite;
//!    the small-scale sweep is `#[ignore]`d (minutes of simulation) and runs
//!    in the CI perf-smoke job under `--release`.
//! 2. **Live tick-vs-event comparison.** `fast_forward_is_invisible`
//!    (below) re-runs workloads in the same binary, once through the
//!    event-driven `System::run` and once driven by `System::tick` (every
//!    running core, every cycle), and asserts the reports match
//!    field-for-field — so the equivalence also holds on whatever machine
//!    the tests run on, not just the recording host.
//!
//! Regenerate the goldens (only after an *intentional* semantic change, with
//! a store-format bump) with:
//!
//! ```text
//! MUONTRAP_REGEN_GOLDENS=1 cargo test --release --test hotpath_golden -- --include-ignored
//! ```

use std::path::PathBuf;

use bench::{figure_session, FIGURE_NAMES};
use simkit::config::SystemConfig;
use simkit::json::{self, Json, ToJson};
use workloads::Scale;

fn golden_path(name: &str, scale: Scale) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens/hotpath")
        .join(format!("{name}-{}.json", scale.name()))
}

/// Runs one figure grid deterministically (no store, one worker thread) and
/// returns its report as a JSON tree with the wall clock zeroed.
fn normalized_report(name: &str, scale: Scale) -> Json {
    let session = figure_session(name, scale, &SystemConfig::paper_default(), 1, None)
        .unwrap_or_else(|| panic!("figure {name} must resolve"));
    let mut report = session.run();
    report.wall_clock_ms = 0.0;
    // Round-trip through the serialiser so float formatting matches the
    // recorded golden exactly.
    json::parse(&report.to_json().to_string_pretty()).expect("report serialises to valid JSON")
}

/// Reports the path of the first difference between two JSON trees, or `None`
/// if they are equal. Keeps golden-mismatch panics readable.
fn first_difference(path: &str, a: &Json, b: &Json) -> Option<String> {
    match (a, b) {
        (Json::Obj(fa), Json::Obj(fb)) => {
            if fa.len() != fb.len() {
                return Some(format!(
                    "{path}: object sizes differ ({} vs {})",
                    fa.len(),
                    fb.len()
                ));
            }
            for ((ka, va), (kb, vb)) in fa.iter().zip(fb.iter()) {
                if ka != kb {
                    return Some(format!("{path}: keys diverge (`{ka}` vs `{kb}`)"));
                }
                if let Some(diff) = first_difference(&format!("{path}.{ka}"), va, vb) {
                    return Some(diff);
                }
            }
            None
        }
        (Json::Arr(aa), Json::Arr(ab)) => {
            if aa.len() != ab.len() {
                return Some(format!(
                    "{path}: array lengths differ ({} vs {})",
                    aa.len(),
                    ab.len()
                ));
            }
            for (i, (va, vb)) in aa.iter().zip(ab.iter()).enumerate() {
                if let Some(diff) = first_difference(&format!("{path}[{i}]"), va, vb) {
                    return Some(diff);
                }
            }
            None
        }
        _ if a == b => None,
        _ => Some(format!("{path}: {a:?} != {b:?}")),
    }
}

fn check_figure_against_golden(name: &str, scale: Scale) {
    let path = golden_path(name, scale);
    let produced = normalized_report(name, scale);
    if std::env::var_os("MUONTRAP_REGEN_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, produced.to_string_pretty()).expect("write golden");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with MUONTRAP_REGEN_GOLDENS=1",
            path.display()
        )
    });
    let golden = json::parse(&text).expect("golden parses");
    if let Some(diff) = first_difference("report", &produced, &golden) {
        panic!(
            "{name} at {} scale diverges from the pre-optimization golden:\n  {diff}\n\
             The optimised hot loop must be bit-identical to the naive loop.",
            scale.name()
        );
    }
}

/// Every figure at tiny scale against the pre-optimization recording. Fast
/// enough for the default `cargo test` suite.
#[test]
fn tiny_reports_match_pre_optimization_goldens() {
    for name in FIGURE_NAMES {
        check_figure_against_golden(name, Scale::Tiny);
    }
}

/// Every figure at the paper's small scale against the pre-optimization
/// recording. Minutes of simulation — run explicitly (CI perf-smoke does):
/// `cargo test --release --test hotpath_golden -- --ignored`.
#[test]
#[ignore = "minutes of simulation; run with --release --ignored (CI perf-smoke job does)"]
fn small_reports_match_pre_optimization_goldens() {
    for name in FIGURE_NAMES {
        check_figure_against_golden(name, Scale::Small);
    }
}

/// Live equivalence on this machine: the same `System`s run through the
/// event-driven `run` and ticked every cycle must produce identical reports —
/// cycle counts, committed instructions, context switches and every single
/// statistic. Covers single- and multi-core workloads, preemption (more
/// threads than cores), memory-retry defenses and domain switches.
#[test]
fn fast_forward_is_invisible() {
    use defenses::DefenseKind;
    use simsys::system::{System, SystemReport};
    use workloads::{domain_switch_suite, parsec_suite, spec_suite};

    // The reference drives `System::tick` (every running core, every cycle)
    // until the run is over; `run` then only assembles the report.
    fn finish(mut system: System, budget: u64, tick_every_cycle: bool) -> SystemReport {
        while tick_every_cycle && !system.all_finished() && system.now().raw() < budget {
            system.tick();
        }
        system.run(budget)
    }

    let cfg = SystemConfig::small_test();
    let mut picks: Vec<workloads::Workload> = Vec::new();
    picks.extend(spec_suite(Scale::Tiny).into_iter().take(3));
    picks.extend(parsec_suite(Scale::Tiny, cfg.cores).into_iter().take(2));
    picks.extend(domain_switch_suite(Scale::Tiny));

    for kind in [
        DefenseKind::Unprotected,
        DefenseKind::MuonTrap,
        DefenseKind::InvisiSpecFuture,
        DefenseKind::SttSpectre,
    ] {
        for workload in &picks {
            let run = |tick_every_cycle: bool| {
                let mut system = System::new(&cfg, kind.build(&cfg));
                system.load_workload(&workload.thread_programs, workload.shared_memory);
                finish(system, workload.cycle_budget, tick_every_cycle)
            };
            let fast = run(false);
            let naive = run(true);
            let label = format!("{} under {kind:?}", workload.name);
            assert_eq!(fast.cycles, naive.cycles, "cycles diverge: {label}");
            assert_eq!(
                fast.committed, naive.committed,
                "committed diverge: {label}"
            );
            assert_eq!(
                fast.completed, naive.completed,
                "completion diverges: {label}"
            );
            assert_eq!(
                fast.context_switches, naive.context_switches,
                "scheduling diverges: {label}"
            );
            assert_eq!(fast.stats, naive.stats, "statistics diverge: {label}");
        }
    }

    // Preemption path: more threads than cores, so the fast-forward must
    // stop exactly on scheduler-quantum expiries.
    let mut one_core = SystemConfig::small_test();
    one_core.cores = 1;
    one_core.scheduler_quantum = 1_500;
    for kind in [DefenseKind::MuonTrap, DefenseKind::Unprotected] {
        let run = |tick_every_cycle: bool| {
            let mut system = System::new(&one_core, kind.build(&one_core));
            for workload in spec_suite(Scale::Tiny).iter().take(2) {
                system.load_workload(&workload.thread_programs, workload.shared_memory);
            }
            finish(system, 20_000_000, tick_every_cycle)
        };
        let fast = run(false);
        let naive = run(true);
        assert!(naive.context_switches >= 2, "test must exercise preemption");
        assert_eq!(fast.cycles, naive.cycles, "preemption cycles diverge");
        assert_eq!(fast.context_switches, naive.context_switches);
        assert_eq!(fast.stats, naive.stats, "preemption statistics diverge");
    }
}
