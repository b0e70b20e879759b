//! Shared harness code behind the binaries.
//!
//! Every figure in the paper's evaluation section (§6) is an
//! [`ExperimentSession`] that [`figure_session`] resolves by name (see
//! [`FIGURE_NAMES`]), so baselines are memoized per workload and grid cells
//! run in parallel; running one yields a structured [`RunReport`] that
//! serialises to JSON (`--json` on every binary) or renders as the classic
//! aligned text table.
//!
//! | Paper artefact | Name / function | Binary |
//! |----------------|-----------------|--------|
//! | Table 1        | [`table1`] | `table1` |
//! | Figures 3–9    | `"fig3"`…`"fig9"` | `figure fig3` … `figure fig9` |
//! | Shoot-out      | `"shootout"` | `figure shootout` |
//! | §4.8 stress    | `"domain"` | `figure domain`, `attacks_report` |
//! | Attacks 1–6    | [`security_matrix`] | `attacks_report` |
//! | Static census  | [`lint::corpus_census`] | `speclint` |
//!
//! Resolving by name is what lets `merge` fold a `figure NAME --events` log:
//! both rebuild the identical plan from the figure name (see
//! [`simsys::runner`]).
//!
//! The `report` binary regenerates everything at once into one JSON
//! document, and — with `--html` — into one self-contained HTML page: one
//! SVG chart per figure plus the domain-switch summary table, rendered by
//! the [`reportgen`] crate through this crate's chart-metadata registry
//! ([`render::figure_meta`]). `figure` and `merge` accept the same flag for
//! their single figure.

#![forbid(unsafe_code)]

pub mod cli;
pub mod lint;
pub mod render;
pub mod watch;

use simkit::config::{ProtectionConfig, SystemConfig};
use simkit::json::{Json, ToJson};
use simkit::stats::geometric_mean;

use attacks::AttackOutcome;
use defenses::{DefenseKind, DefenseRegistry};
use simsys::session::{ExperimentSession, RunReport};
use simsys::store::ResultStore;
use workloads::{domain_switch_suite, parsec_suite, spec_suite, Scale, Workload};

/// One row of a normalised-execution-time figure: a workload plus one value
/// per configuration, in the same order as the `configs` header.
#[derive(Debug, Clone)]
pub struct FigureRow {
    /// Workload (benchmark) name.
    pub workload: String,
    /// Normalised execution time per configuration (1.0 = unprotected).
    pub values: Vec<f64>,
}

/// A complete figure: the configuration labels and one row per workload, plus
/// the geometric-mean row the paper reports.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure title.
    pub title: String,
    /// One label per configuration column.
    pub configs: Vec<String>,
    /// One row per workload.
    pub rows: Vec<FigureRow>,
}

impl Figure {
    /// The normalised-execution-time view of a session report.
    pub fn from_report(report: &RunReport) -> Figure {
        Figure {
            title: report.title.clone(),
            configs: report.columns.clone(),
            rows: (0..report.workloads.len())
                .map(|w| FigureRow {
                    workload: report.workloads[w].clone(),
                    values: (0..report.columns.len())
                        .map(|c| report.cell(w, c).normalized_time)
                        .collect(),
                })
                .collect(),
        }
    }

    /// The geometric mean of each column across all rows.
    pub fn geomeans(&self) -> Vec<f64> {
        (0..self.configs.len())
            .map(|c| {
                let column: Vec<f64> = self.rows.iter().map(|r| r.values[c]).collect();
                geometric_mean(&column)
            })
            .collect()
    }

    /// Renders the figure as an aligned text table (what the binaries print).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&format!("{:<16}", "workload"));
        for c in &self.configs {
            out.push_str(&format!("{c:>24}"));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{:<16}", row.workload));
            for v in &row.values {
                out.push_str(&format!("{v:>24.3}"));
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<16}", "geomean"));
        for g in self.geomeans() {
            out.push_str(&format!("{g:>24.3}"));
        }
        out.push('\n');
        out
    }
}

fn session(
    title: &str,
    scale: Scale,
    workloads: Vec<Workload>,
    config: &SystemConfig,
    threads: usize,
    store: Option<&ResultStore>,
) -> ExperimentSession {
    ExperimentSession::new()
        .title(title)
        .scale(scale)
        .workloads(workloads)
        .config(config.clone())
        .threads(threads)
        .store(store.cloned())
}

/// Table 1: the simulated system configuration.
pub fn table1() -> String {
    format!(
        "== Table 1: system configuration ==\n{}",
        SystemConfig::paper_default()
    )
}

/// Table 1 as JSON (the `table1 --json` output).
pub fn table1_json() -> Json {
    let cfg = SystemConfig::paper_default();
    Json::obj([
        ("cores", Json::UInt(cfg.cores as u64)),
        ("line_bytes", Json::UInt(cfg.line_bytes)),
        ("pipeline_width", Json::UInt(cfg.pipeline.width as u64)),
        ("rob_entries", Json::UInt(cfg.pipeline.rob_entries as u64)),
        ("l1d_bytes", Json::UInt(cfg.l1d.size_bytes)),
        ("l2_bytes", Json::UInt(cfg.l2.size_bytes)),
        ("data_filter_bytes", Json::UInt(cfg.data_filter.size_bytes)),
        ("data_filter_ways", Json::UInt(cfg.data_filter.ways as u64)),
        ("description", Json::Str(format!("{cfg}"))),
    ])
}

/// Figure 3: normalised execution time on the SPEC-CPU2006-like suite for
/// MuonTrap, InvisiSpec (both variants) and STT (both variants).
fn figure3_session(
    scale: Scale,
    config: &SystemConfig,
    threads: usize,
    store: Option<&ResultStore>,
) -> ExperimentSession {
    session(
        "Figure 3: SPEC CPU2006-like, normalised execution time (lower is better)",
        scale,
        spec_suite(scale),
        config,
        threads,
        store,
    )
    .defenses(DefenseKind::figure3_set())
}

/// Figure 4: normalised execution time on the Parsec-like suite (4 threads).
fn figure4_session(
    scale: Scale,
    config: &SystemConfig,
    threads: usize,
    store: Option<&ResultStore>,
) -> ExperimentSession {
    session(
        "Figure 4: Parsec-like (4 threads), normalised execution time (lower is better)",
        scale,
        parsec_suite(scale, config.cores),
        config,
        threads,
        store,
    )
    .defenses(DefenseKind::figure3_set())
}

/// Figure 5: Parsec-like performance as the (fully-associative) data filter
/// cache is swept from 64 B to 4 KiB. One baseline per workload: the swept
/// filter-cache geometry is invisible to the unprotected machine.
fn figure5_session(
    scale: Scale,
    config: &SystemConfig,
    threads: usize,
    store: Option<&ResultStore>,
) -> ExperimentSession {
    let sizes: [u64; 7] = [64, 128, 256, 512, 1024, 2048, 4096];
    let sweep = sizes.map(|size| {
        // Fully associative at every size, as in the paper's sweep.
        (
            format!("{size} B"),
            config.with_data_filter(size, (size / config.line_bytes) as usize),
        )
    });
    session(
        "Figure 5: filter-cache size sweep (fully associative), Parsec-like",
        scale,
        parsec_suite(scale, config.cores),
        config,
        threads,
        store,
    )
    .defenses([DefenseKind::MuonTrap])
    .config_sweep(sweep)
}

/// Figure 6: Parsec-like performance as the associativity of a 2 KiB filter
/// cache is swept from direct-mapped to fully associative.
fn figure6_session(
    scale: Scale,
    config: &SystemConfig,
    threads: usize,
    store: Option<&ResultStore>,
) -> ExperimentSession {
    let ways: [usize; 6] = [1, 2, 4, 8, 16, 32];
    let sweep = ways.map(|w| (format!("{w}-way"), config.with_data_filter(2048, w)));
    session(
        "Figure 6: 2 KiB filter-cache associativity sweep, Parsec-like",
        scale,
        parsec_suite(scale, config.cores),
        config,
        threads,
        store,
    )
    .defenses([DefenseKind::MuonTrap])
    .config_sweep(sweep)
}

/// Figure 7: runs the SPEC-like suite under full MuonTrap; the figure's
/// invalidation-broadcast rates come from [`invalidate_rates`] over the
/// report's cell statistics.
fn figure7_session(
    scale: Scale,
    config: &SystemConfig,
    threads: usize,
    store: Option<&ResultStore>,
) -> ExperimentSession {
    session(
        "Figure 7: fraction of writes triggering filter-cache invalidation broadcasts",
        scale,
        spec_suite(scale),
        config,
        threads,
        store,
    )
    .defenses([DefenseKind::MuonTrap])
}

/// The per-workload invalidation-broadcast rates behind figure 7, derived
/// from a `"fig7"` report's `muontrap.*` counters.
pub fn invalidate_rates(report: &RunReport) -> Figure {
    Figure {
        title: report.title.clone(),
        configs: vec!["invalidate rate".to_string()],
        rows: report
            .cells
            .iter()
            .map(|cell| {
                let stores = cell.stats.counter("muontrap.committed_stores");
                let broadcasts = cell.stats.counter("muontrap.store_upgrade_broadcasts");
                let rate = if stores == 0 {
                    0.0
                } else {
                    broadcasts as f64 / stores as f64
                };
                FigureRow {
                    workload: cell.workload.clone(),
                    values: vec![rate],
                }
            })
            .collect(),
    }
}

/// The cumulative protection configurations of figures 8 and 9, in the order
/// the paper stacks them.
pub fn cumulative_protection_kinds(include_parallel_l1: bool) -> Vec<(String, DefenseKind)> {
    let mut insecure = ProtectionConfig::insecure_l0();
    insecure.prefetch_at_commit = false;

    let fcache_only = ProtectionConfig {
        data_filter_cache: true,
        secure_filter: true,
        coherence_protection: false,
        instruction_filter_cache: false,
        prefetch_at_commit: false,
        clear_on_misspeculate: false,
        parallel_l1_access: false,
        filter_tlb: true,
    };
    let coherency = ProtectionConfig {
        coherence_protection: true,
        ..fcache_only
    };
    let ifcache = ProtectionConfig {
        instruction_filter_cache: true,
        ..coherency
    };
    let prefetching = ProtectionConfig {
        prefetch_at_commit: true,
        ..ifcache
    };
    let clear_misspec = ProtectionConfig {
        clear_on_misspeculate: true,
        ..prefetching
    };

    let mut kinds = vec![
        (
            "insecure L0".to_string(),
            DefenseKind::MuonTrapCustom(insecure),
        ),
        (
            "fcache only".to_string(),
            DefenseKind::MuonTrapCustom(fcache_only),
        ),
        (
            "coherency".to_string(),
            DefenseKind::MuonTrapCustom(coherency),
        ),
        ("ifcache".to_string(), DefenseKind::MuonTrapCustom(ifcache)),
        (
            "prefetching".to_string(),
            DefenseKind::MuonTrapCustom(prefetching),
        ),
        (
            "clear misspec".to_string(),
            DefenseKind::MuonTrapCustom(clear_misspec),
        ),
    ];
    if include_parallel_l1 {
        let parallel = ProtectionConfig {
            parallel_l1_access: true,
            ..prefetching
        };
        kinds.push((
            "parallel L1d".to_string(),
            DefenseKind::MuonTrapCustom(parallel),
        ));
    }
    kinds
}

/// Figure 8: cumulatively adding protection mechanisms, Parsec-like suite.
fn figure8_session(
    scale: Scale,
    config: &SystemConfig,
    threads: usize,
    store: Option<&ResultStore>,
) -> ExperimentSession {
    session(
        "Figure 8: cumulative protection mechanisms, Parsec-like",
        scale,
        parsec_suite(scale, config.cores),
        config,
        threads,
        store,
    )
    .defenses_labeled(cumulative_protection_kinds(false))
}

/// Figure 9: cumulatively adding protection mechanisms plus the parallel
/// L0/L1 lookup option, SPEC-like suite.
fn figure9_session(
    scale: Scale,
    config: &SystemConfig,
    threads: usize,
    store: Option<&ResultStore>,
) -> ExperimentSession {
    session(
        "Figure 9: cumulative protection mechanisms (+ parallel L1d), SPEC-like",
        scale,
        spec_suite(scale),
        config,
        threads,
        store,
    )
    .defenses_labeled(cumulative_protection_kinds(true))
}

/// The cross-defense shoot-out: the SPEC-like suite under every member of
/// the defense zoo ([`DefenseKind::shootout_set`]) — the insecure L0, Fence,
/// DelayLoads, SafeBet, MuonTrap, InvisiSpec-Spectre and STT-Spectre — all
/// normalised to the unprotected baseline, so the cost of each protection
/// family lands on one axis. Shares its MuonTrap/InvisiSpec/STT cells (and
/// every baseline) with figure 3 through the result store.
fn shootout_session(
    scale: Scale,
    config: &SystemConfig,
    threads: usize,
    store: Option<&ResultStore>,
) -> ExperimentSession {
    session(
        "Defense shoot-out: every modelled defense, SPEC-like, normalised execution time",
        scale,
        spec_suite(scale),
        config,
        threads,
        store,
    )
    .defenses(DefenseKind::shootout_set())
}

/// The §4.8 domain-switch stress grid: the syscall/sandbox-transition
/// kernels (which force a filter-cache flush every few hundred instructions)
/// under the figure-3 defense set. Printed by `attacks_report` alongside the
/// security matrix and included in the `report` document.
fn domain_switch_session(
    scale: Scale,
    config: &SystemConfig,
    threads: usize,
    store: Option<&ResultStore>,
) -> ExperimentSession {
    session(
        "Domain-switch stress (§4.8): syscall/sandbox-heavy kernels, normalised execution time",
        scale,
        domain_switch_suite(scale),
        config,
        threads,
        store,
    )
    .defenses(DefenseKind::figure3_set())
}

/// The names [`figure_session`] resolves, in `report`-document order.
pub const FIGURE_NAMES: [&str; 9] = [
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "shootout", "domain",
];

/// Resolves a figure name (see [`FIGURE_NAMES`]) to its un-run
/// [`ExperimentSession`].
///
/// `figure NAME` and `merge` both rebuild the session from the name, so
/// the log one writes and the plan the other folds it against agree on
/// every [`Plan`](simsys::runner::Plan) unit.
pub fn figure_session(
    name: &str,
    scale: Scale,
    config: &SystemConfig,
    threads: usize,
    store: Option<&ResultStore>,
) -> Option<ExperimentSession> {
    let build = match name {
        "fig3" => figure3_session,
        "fig4" => figure4_session,
        "fig5" => figure5_session,
        "fig6" => figure6_session,
        "fig7" => figure7_session,
        "fig8" => figure8_session,
        "fig9" => figure9_session,
        "shootout" => shootout_session,
        "domain" => domain_switch_session,
        _ => return None,
    };
    Some(build(scale, config, threads, store))
}

/// The raw outcome of every attack against every configuration the security
/// argument compares: the full [`DefenseRegistry::standard`] catalogue, in
/// registration order, so a newly registered defense can never silently fall
/// out of the attack report.
pub fn security_outcomes(config: &SystemConfig) -> Vec<AttackOutcome> {
    let registry = DefenseRegistry::standard();
    let mut outcomes = Vec::new();
    for (_, kind) in registry.iter() {
        outcomes.push(attacks::spectre_prime_probe(kind, config));
        outcomes.extend(attacks::litmus::run_litmus_suite(kind, config));
    }
    outcomes
}

/// The security matrix: every attack against every configuration, reporting
/// which configurations leak (the paper's qualitative security argument).
pub fn security_matrix(config: &SystemConfig) -> String {
    let mut out = String::new();
    out.push_str("== Security litmus: does the attack extract information? ==\n");
    let mut current_defense = String::new();
    for outcome in security_outcomes(config) {
        if outcome.defense != current_defense {
            current_defense = outcome.defense.clone();
            out.push_str(&format!("--- {current_defense} ---\n"));
        }
        out.push_str(&format!(
            "  {:40} leaked: {}\n",
            outcome.attack, outcome.leaked
        ));
    }
    out
}

/// The security matrix as JSON (the `attacks_report --json` output).
pub fn security_json(config: &SystemConfig) -> Json {
    Json::Arr(
        security_outcomes(config)
            .iter()
            .map(ToJson::to_json)
            .collect(),
    )
}

/// Runs one workload under one defense and returns its simulated cycle count:
/// exactly one simulation, no baseline. A convenience for ad-hoc throughput
/// measurements.
pub fn one_run_cycles(workload: &Workload, kind: DefenseKind, config: &SystemConfig) -> u64 {
    simsys::session::simulate(workload, kind, config).cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_render_includes_geomean() {
        let fig = Figure {
            title: "test".to_string(),
            configs: vec!["a".to_string(), "b".to_string()],
            rows: vec![
                FigureRow {
                    workload: "w1".to_string(),
                    values: vec![1.0, 2.0],
                },
                FigureRow {
                    workload: "w2".to_string(),
                    values: vec![4.0, 8.0],
                },
            ],
        };
        let text = fig.render();
        assert!(text.contains("geomean"));
        let geo = fig.geomeans();
        assert!((geo[0] - 2.0).abs() < 1e-9);
        assert!((geo[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn table1_mentions_the_core_count() {
        assert!(table1().contains("cores: 4"));
        assert_eq!(table1_json().get("cores").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn cumulative_kinds_grow_monotonically() {
        let kinds = cumulative_protection_kinds(true);
        assert_eq!(kinds.len(), 7);
        assert_eq!(kinds[0].0, "insecure L0");
        assert_eq!(kinds.last().unwrap().0, "parallel L1d");
    }

    #[test]
    fn tiny_figure_3_subset_runs() {
        // A smoke test over two workloads so the full harness logic (shared
        // baseline, normalisation, geomean) is exercised quickly.
        let cfg = SystemConfig::small_test();
        let report = ExperimentSession::new()
            .title("smoke")
            .workloads(spec_suite(Scale::Tiny).into_iter().take(2))
            .defenses([DefenseKind::MuonTrap])
            .config(cfg)
            .run();
        let fig = Figure::from_report(&report);
        assert_eq!(fig.rows.len(), 2);
        assert!(fig
            .rows
            .iter()
            .all(|r| r.values[0] > 0.2 && r.values[0] < 5.0));
        assert_eq!(fig.geomeans(), report.geomeans());
    }

    #[test]
    fn one_run_cycles_performs_a_single_deterministic_simulation() {
        let cfg = SystemConfig::small_test();
        let w = &spec_suite(Scale::Tiny)[0];
        let a = one_run_cycles(w, DefenseKind::MuonTrap, &cfg);
        let b = one_run_cycles(w, DefenseKind::MuonTrap, &cfg);
        assert!(a > 0);
        assert_eq!(a, b);
    }

    #[test]
    fn figure_session_resolves_every_name_and_rejects_unknowns() {
        let cfg = SystemConfig::small_test();
        for name in FIGURE_NAMES {
            let session = figure_session(name, Scale::Tiny, &cfg, 1, None)
                .unwrap_or_else(|| panic!("figure {name} must resolve"));
            let plan = session.plan();
            assert!(!plan.cells.is_empty(), "figure {name} plans an empty grid");
            assert!(!plan.title.is_empty());
            // Planning is deterministic across resolutions — the property
            // `figure --events` and `merge` rely on.
            let again = figure_session(name, Scale::Tiny, &cfg, 1, None)
                .unwrap()
                .plan();
            assert_eq!(
                plan.cells.iter().map(|c| c.fingerprint).collect::<Vec<_>>(),
                again
                    .cells
                    .iter()
                    .map(|c| c.fingerprint)
                    .collect::<Vec<_>>()
            );
        }
        assert!(figure_session("fig12", Scale::Tiny, &cfg, 1, None).is_none());
    }

    #[test]
    fn domain_switch_grid_runs_the_new_kernels_under_every_defense() {
        let report = domain_switch_session(Scale::Tiny, &SystemConfig::small_test(), 2, None).run();
        assert_eq!(report.workloads, vec!["syscall-storm", "sandbox-hop"]);
        assert_eq!(report.columns.len(), DefenseKind::figure3_set().len());
        for cell in &report.cells {
            assert!(cell.completed, "{} under {}", cell.workload, cell.column);
            assert!(cell.normalized_time > 0.2 && cell.normalized_time < 6.0);
        }
        // The kernels actually exercise the flush path: MuonTrap reports
        // syscall and sandbox flushes on these workloads.
        let muontrap = report
            .cells
            .iter()
            .find(|c| c.defense == DefenseKind::MuonTrap.label())
            .expect("muontrap column exists");
        assert!(
            muontrap.stats.counter("muontrap.syscall_flushes")
                + muontrap.stats.counter("muontrap.sandbox_flushes")
                > 0,
            "domain-switch kernels must trigger filter-cache flushes"
        );
    }

    #[test]
    fn figure7_rates_are_fractions() {
        let mut cfg = SystemConfig::small_test();
        cfg.cores = 1;
        let report = ExperimentSession::new()
            .title("fig7 smoke")
            .workloads(spec_suite(Scale::Tiny).into_iter().take(2))
            .defenses([DefenseKind::MuonTrap])
            .config(cfg)
            .run();
        let rates = invalidate_rates(&report);
        assert_eq!(rates.rows.len(), 2);
        assert!(rates
            .rows
            .iter()
            .all(|r| (0.0..=1.0).contains(&r.values[0])));
    }
}
