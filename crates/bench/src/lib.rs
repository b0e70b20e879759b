//! Shared harness code behind the binaries.
//!
//! Every figure in the paper's evaluation section (§6) is one row of
//! [`FIGURES`]: its chart metadata, report title, workload suite and column
//! kind. Three functions serve every row, resolved by name (see
//! [`FIGURE_NAMES`]): [`figure_session`] builds its [`ExperimentSession`]
//! (baselines memoized per workload, grid cells run in parallel),
//! [`figure_text`] prints the run's aligned text table, and
//! [`render::figure_document`] renders its HTML page. A run yields a
//! structured [`RunReport`] that serialises to JSON (`--json` on every
//! binary).
//!
//! | Paper artefact | Name / function | Binary |
//! |----------------|-----------------|--------|
//! | Table 1        | [`table1`] | `table1` |
//! | Figures 3–9    | `"fig3"`…`"fig9"` | `figure fig3` … `figure fig9` |
//! | Shoot-out      | `"shootout"` | `figure shootout` |
//! | §4.8 stress    | `"domain"` | `figure domain` |
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
//! the [`reportgen`] crate from each row's chart metadata (see
//! [`render`]). `figure` and `merge` accept the same flag for their single
//! figure.

#![forbid(unsafe_code)]

pub mod cli;
pub mod lint;
pub mod render;
pub mod watch;

use simkit::config::{ProtectionConfig, SystemConfig};
use simkit::json::{Json, ToJson};
use simkit::stats::geometric_mean;

use attacks::AttackOutcome;
use defenses::DefenseKind;
use reportgen::report::{ChartKind, FigureMeta};
use simsys::session::{ExperimentSession, RunReport};
use simsys::store::ResultStore;
use workloads::{domain_switch_suite, parsec_suite, spec_suite, Scale};

/// The workload suite on a figure's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// The single-threaded SPEC CPU2006-like kernels ([`spec_suite`]).
    Spec,
    /// The multithreaded Parsec-like kernels, one thread per core
    /// ([`parsec_suite`]).
    Parsec,
    /// The §4.8 syscall/sandbox-transition kernels, which force a
    /// filter-cache flush every few hundred instructions
    /// ([`domain_switch_suite`]).
    DomainSwitch,
}

/// What a figure's columns are.
#[derive(Debug, Clone, Copy)]
pub enum Columns {
    /// One column per defense, labelled by [`DefenseKind::label`].
    Defenses(fn() -> Vec<DefenseKind>),
    /// MuonTrap with a fully-associative data filter cache of each size in
    /// bytes, labelled `"64 B"`…. One baseline per workload: the swept
    /// filter-cache geometry is invisible to the unprotected machine.
    FilterSizes(&'static [u64]),
    /// MuonTrap with a `bytes`-byte data filter cache at each associativity,
    /// labelled `"1-way"`….
    FilterWays {
        /// Filter-cache capacity, in bytes.
        bytes: u64,
        /// The swept associativities.
        ways: &'static [usize],
    },
    /// The cumulative protection stack of [`cumulative_protection_kinds`].
    Cumulative {
        /// Whether the stack ends with the parallel L0/L1 lookup.
        parallel_l1: bool,
    },
}

/// One evaluation figure: its chart metadata (`chart.name` is the name
/// [`figure_session`] resolves) plus what its grid runs.
#[derive(Debug, Clone, Copy)]
pub struct FigureSpec {
    /// How the figure renders: chart shape, axis titles, caption, paper
    /// cross-reference.
    pub chart: FigureMeta,
    /// Report title, also the heading of the text table.
    pub title: &'static str,
    /// The workloads on the rows.
    pub suite: Suite,
    /// The configurations on the columns.
    pub columns: Columns,
}

/// Every evaluation figure, in `report`-document order.
pub const FIGURES: [FigureSpec; 9] = [
    FigureSpec {
        chart: FigureMeta {
            name: "fig3",
            kind: ChartKind::GroupedBars,
            x_label: "SPEC CPU2006-like workload",
            y_label: "normalised execution time (×)",
            paper_section: "Paper §6, Figure 3",
            caption: "Normalised execution time on the SPEC CPU2006-like suite under MuonTrap, \
                      InvisiSpec and STT (each in Spectre and futuristic threat models). 1.0 is \
                      the unprotected baseline (dashed); lower is better. MuonTrap's bars \
                      hugging the baseline while the delay-based defenses sit well above it is \
                      the paper's headline claim.",
            reference_line: Some(1.0),
        },
        title: "Figure 3: SPEC CPU2006-like, normalised execution time (lower is better)",
        suite: Suite::Spec,
        columns: Columns::Defenses(DefenseKind::figure3_set),
    },
    FigureSpec {
        chart: FigureMeta {
            name: "fig4",
            kind: ChartKind::GroupedBars,
            x_label: "Parsec-like workload (4 threads)",
            y_label: "normalised execution time (×)",
            paper_section: "Paper §6, Figure 4",
            caption: "The same comparison on the Parsec-like multithreaded suite (4 threads). \
                      Sharing and coherence traffic make the delay-based defenses costlier \
                      here; MuonTrap's filter caches keep speculative fills core-private \
                      without delaying them.",
            reference_line: Some(1.0),
        },
        title: "Figure 4: Parsec-like (4 threads), normalised execution time (lower is better)",
        suite: Suite::Parsec,
        columns: Columns::Defenses(DefenseKind::figure3_set),
    },
    FigureSpec {
        chart: FigureMeta {
            name: "fig5",
            kind: ChartKind::SweepLines,
            x_label: "data filter-cache size (fully associative)",
            y_label: "normalised execution time (×)",
            paper_section: "Paper §6, Figure 5",
            caption: "Slowdown as the fully-associative data filter cache is swept from 64 B to \
                      4 KiB. Gray lines are individual Parsec-like workloads; the highlighted \
                      line is the geometric mean. A few hundred bytes already capture most \
                      in-flight speculation, and the curve flattens as the filter cache stops \
                      being the bottleneck.",
            reference_line: Some(1.0),
        },
        title: "Figure 5: filter-cache size sweep (fully associative), Parsec-like",
        suite: Suite::Parsec,
        columns: Columns::FilterSizes(&[64, 128, 256, 512, 1024, 2048, 4096]),
    },
    FigureSpec {
        chart: FigureMeta {
            name: "fig6",
            kind: ChartKind::SweepLines,
            x_label: "2 KiB data filter-cache associativity (ways)",
            y_label: "normalised execution time (×)",
            paper_section: "Paper §6, Figure 6",
            caption: "Associativity sweep of the 2 KiB data filter cache, direct-mapped to fully \
                      associative. Speculative fills from many simultaneous loads conflict in \
                      low-associativity filters, so ways matter more than raw size at this \
                      scale.",
            reference_line: Some(1.0),
        },
        title: "Figure 6: 2 KiB filter-cache associativity sweep, Parsec-like",
        suite: Suite::Parsec,
        columns: Columns::FilterWays {
            bytes: 2048,
            ways: &[1, 2, 4, 8, 16, 32],
        },
    },
    FigureSpec {
        chart: FigureMeta {
            name: "fig7",
            kind: ChartKind::CounterRatioBars {
                numerator: "muontrap.store_upgrade_broadcasts",
                denominator: "muontrap.committed_stores",
            },
            x_label: "SPEC CPU2006-like workload",
            y_label: "invalidation-broadcast rate",
            paper_section: "Paper §6, Figure 7",
            caption: "Fraction of committed stores that trigger a filter-cache invalidation \
                      broadcast under full MuonTrap (the coherence-protection cost of keeping \
                      speculative lines core-private). Computed per workload as \
                      muontrap.store_upgrade_broadcasts / muontrap.committed_stores.",
            reference_line: None,
        },
        title: "Figure 7: fraction of writes triggering filter-cache invalidation broadcasts",
        suite: Suite::Spec,
        columns: Columns::Defenses(|| vec![DefenseKind::MuonTrap]),
    },
    FigureSpec {
        chart: FigureMeta {
            name: "fig8",
            kind: ChartKind::GroupedBars,
            x_label: "Parsec-like workload (4 threads)",
            y_label: "normalised execution time (×)",
            paper_section: "Paper §6, Figure 8",
            caption: "Cost breakdown on the Parsec-like suite as protection mechanisms are \
                      enabled cumulatively: an insecure L0, the secure filter cache, coherence \
                      protection, the instruction filter cache, commit-time prefetcher \
                      training, and clear-on-misspeculate.",
            reference_line: Some(1.0),
        },
        title: "Figure 8: cumulative protection mechanisms, Parsec-like",
        suite: Suite::Parsec,
        columns: Columns::Cumulative { parallel_l1: false },
    },
    FigureSpec {
        chart: FigureMeta {
            name: "fig9",
            kind: ChartKind::GroupedBars,
            x_label: "SPEC CPU2006-like workload",
            y_label: "normalised execution time (×)",
            paper_section: "Paper §6, Figure 9",
            caption: "The same cumulative breakdown on the SPEC-like suite, plus the optional \
                      parallel L0/L1 lookup, which trades energy for latency on filter-cache \
                      misses.",
            reference_line: Some(1.0),
        },
        title: "Figure 9: cumulative protection mechanisms (+ parallel L1d), SPEC-like",
        suite: Suite::Spec,
        columns: Columns::Cumulative { parallel_l1: true },
    },
    FigureSpec {
        chart: FigureMeta {
            name: "shootout",
            kind: ChartKind::GroupedBars,
            x_label: "SPEC CPU2006-like workload",
            y_label: "normalised execution time (×)",
            paper_section: "Paper §7 (defense zoo; extends the paper's comparison)",
            caption: "Cross-defense shoot-out on the SPEC-like suite: every modelled defense \
                      from the registry — the insecure-L0 strawman, fence-at-every-branch, \
                      delay-speculative-loads (naive InvisiSpec), the SafeBet-style speculative \
                      access window, full MuonTrap, InvisiSpec and STT — normalised to the \
                      unprotected baseline. The sound-and-cheap corner (MuonTrap, SafeBet) \
                      versus the sound-but-slow delay family is the trade-off the defense zoo \
                      exists to show; tests/defense_soundness.rs proves the soundness half \
                      dynamically.",
            reference_line: Some(1.0),
        },
        title: "Defense shoot-out: every modelled defense, SPEC-like, normalised execution time",
        suite: Suite::Spec,
        columns: Columns::Defenses(DefenseKind::shootout_set),
    },
    FigureSpec {
        chart: FigureMeta {
            name: "domain",
            kind: ChartKind::GroupedBars,
            x_label: "domain-switch kernel",
            y_label: "normalised execution time (×)",
            paper_section: "Paper §4.8 (stress grid; not a paper figure)",
            caption: "Worst-case stress for MuonTrap's flush-on-domain-switch rule: the \
                      syscall-storm and sandbox-hop kernels force a protection-domain switch — \
                      and thus a filter-cache flush — every few hundred instructions. The \
                      summary table below carries the flush counters behind these bars.",
            reference_line: Some(1.0),
        },
        title:
            "Domain-switch stress (§4.8): syscall/sandbox-heavy kernels, normalised execution time",
        suite: Suite::DomainSwitch,
        columns: Columns::Defenses(DefenseKind::figure3_set),
    },
];

/// The names [`figure_session`] resolves: each [`FIGURES`] row's
/// `chart.name`, in the same order.
pub const FIGURE_NAMES: [&str; 9] = {
    let mut names = [""; 9];
    let mut i = 0;
    while i < names.len() {
        names[i] = FIGURES[i].chart.name;
        i += 1;
    }
    names
};

/// The [`FIGURES`] row named `name`, if any.
pub fn figure_spec(name: &str) -> Option<&'static FigureSpec> {
    FIGURES.iter().find(|figure| figure.chart.name == name)
}

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
    let figure = figure_spec(name)?;
    let workloads = match figure.suite {
        Suite::Spec => spec_suite(scale),
        Suite::Parsec => parsec_suite(scale, config.cores),
        Suite::DomainSwitch => domain_switch_suite(scale),
    };
    let session = ExperimentSession::new()
        .title(figure.title)
        .scale(scale)
        .workloads(workloads)
        .config(config.clone())
        .threads(threads)
        .store(store.cloned());
    Some(match figure.columns {
        Columns::Defenses(kinds) => session.defenses(kinds()),
        Columns::FilterSizes(sizes) => session.config_sweep(
            DefenseKind::MuonTrap,
            sizes.iter().map(|&size| {
                let ways = (size / config.line_bytes) as usize;
                (format!("{size} B"), config.with_data_filter(size, ways))
            }),
        ),
        Columns::FilterWays { bytes, ways } => session.config_sweep(
            DefenseKind::MuonTrap,
            ways.iter()
                .map(|&w| (format!("{w}-way"), config.with_data_filter(bytes, w))),
        ),
        Columns::Cumulative { parallel_l1 } => {
            session.defenses_labeled(cumulative_protection_kinds(parallel_l1))
        }
    })
}

/// The text-table header of a counter-ratio figure's single column.
const RATIO_COLUMN: &str = "invalidate rate";

/// Renders `report` as figure `name`'s aligned text table (what `figure
/// NAME` prints): a `== title ==` line, one row per workload, and a
/// geometric-mean row, with the values its chart draws — each cell's
/// normalised time, or for a [`ChartKind::CounterRatioBars`] chart the
/// ratio of its counters. `None` for unknown names.
pub fn figure_text(name: &str, report: &RunReport) -> Option<String> {
    let figure = figure_spec(name)?;
    let workloads = 0..report.workloads.len();
    let (columns, rows): (Vec<String>, Vec<Vec<f64>>) = match figure.chart.kind {
        ChartKind::CounterRatioBars {
            numerator,
            denominator,
        } => (
            vec![RATIO_COLUMN.to_string()],
            workloads
                .map(|w| vec![report.cell(w, 0).stats.ratio(numerator, denominator)])
                .collect(),
        ),
        ChartKind::GroupedBars | ChartKind::SweepLines => (
            report.columns.clone(),
            workloads
                .map(|w| {
                    (0..report.columns.len())
                        .map(|c| report.cell(w, c).normalized_time)
                        .collect()
                })
                .collect(),
        ),
    };
    let geomean: Vec<f64> = (0..columns.len())
        .map(|c| geometric_mean(&rows.iter().map(|values| values[c]).collect::<Vec<_>>()))
        .collect();
    let mut out = format!("== {} ==\n{:<16}", report.title, "workload");
    for column in &columns {
        out.push_str(&format!("{column:>24}"));
    }
    let labelled = report.workloads.iter().map(String::as_str).zip(&rows);
    for (label, values) in labelled.chain([("geomean", &geomean)]) {
        out.push_str(&format!("\n{label:<16}"));
        for v in values {
            out.push_str(&format!("{v:>24.3}"));
        }
    }
    out.push('\n');
    Some(out)
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

/// The cumulative protection configurations of figures 8 and 9, in the order
/// the paper stacks them.
pub fn cumulative_protection_kinds(include_parallel_l1: bool) -> Vec<(String, DefenseKind)> {
    let insecure = ProtectionConfig::insecure_l0();
    let fcache_only = ProtectionConfig {
        secure_filter: true,
        ..insecure
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

    let mut stack = vec![
        ("insecure L0", insecure),
        ("fcache only", fcache_only),
        ("coherency", coherency),
        ("ifcache", ifcache),
        ("prefetching", prefetching),
        ("clear misspec", clear_misspec),
    ];
    if include_parallel_l1 {
        let parallel = ProtectionConfig {
            parallel_l1_access: true,
            ..prefetching
        };
        stack.push(("parallel L1d", parallel));
    }
    stack
        .into_iter()
        .map(|(label, protection)| (label.to_string(), DefenseKind::MuonTrapCustom(protection)))
        .collect()
}

/// The raw outcome of every attack against every configuration the security
/// argument compares: every [`DefenseKind::NAMED`] kind, in that order, so a
/// newly named defense can never silently fall out of the attack report.
pub fn security_outcomes(config: &SystemConfig) -> Vec<AttackOutcome> {
    let mut outcomes = Vec::new();
    for kind in DefenseKind::NAMED {
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

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::stats::StatSet;
    use simsys::session::CellResult;

    #[test]
    fn figure_text_pins_the_table_layout_and_counter_ratios() {
        // Two workloads by two columns, built by hand (no simulation): column
        // `a` carries invalidation counters for a 0.25 ratio on `w1` and a
        // zero denominator on `w2`.
        let cells = [
            ("w1", "a", 1.0, 1, 4),
            ("w1", "b", 2.0, 0, 0),
            ("w2", "a", 4.0, 3, 0),
            ("w2", "b", 8.0, 0, 0),
        ]
        .map(|(workload, column, normalized_time, broadcasts, stores)| {
            let mut stats = StatSet::new();
            stats.add("muontrap.store_upgrade_broadcasts", broadcasts);
            stats.add("muontrap.committed_stores", stores);
            CellResult {
                workload: workload.to_string(),
                column: column.to_string(),
                defense: column.to_string(),
                cycles: 100,
                committed: 50,
                completed: true,
                cached: false,
                baseline_cycles: 100,
                normalized_time,
                stats,
            }
        });
        let report = RunReport {
            title: "test".to_string(),
            scale: None,
            threads: 1,
            wall_clock_ms: 0.0,
            baseline_sims: 2,
            sims_executed: 6,
            workloads: vec!["w1".to_string(), "w2".to_string()],
            columns: vec!["a".to_string(), "b".to_string()],
            cells: cells.to_vec(),
        };
        // Normalised time: 16-character workload column, 24-character value
        // columns, three decimals, the geomean row last.
        assert_eq!(
            figure_text("fig3", &report).unwrap(),
            "== test ==\n\
             workload                               a                       b\n\
             w1                                 1.000                   2.000\n\
             w2                                 4.000                   8.000\n\
             geomean                            2.000                   4.000\n"
        );
        // A counter-ratio chart prints the ratio of its own counters; a zero
        // denominator prints 0.000 and the geomean skips it.
        let fig7 = figure_spec("fig7").unwrap();
        let ChartKind::CounterRatioBars {
            numerator,
            denominator,
        } = fig7.chart.kind
        else {
            panic!("fig7 draws a counter ratio");
        };
        let text = figure_text("fig7", &report).unwrap();
        assert_eq!(
            text,
            "== test ==\n\
             workload                 invalidate rate\n\
             w1                                 0.250\n\
             w2                                 0.000\n\
             geomean                            0.250\n"
        );
        for (w, workload) in report.workloads.iter().enumerate() {
            let ratio = report.cell(w, 0).stats.ratio(numerator, denominator);
            assert!(text.contains(&format!("{workload:<16}{ratio:>24.3}\n")));
        }
        assert!(figure_text("fig12", &report).is_none());
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
        assert_eq!(report.cells.len(), 2);
        assert!(report
            .cells
            .iter()
            .all(|c| c.normalized_time > 0.2 && c.normalized_time < 5.0));
        let text = figure_text("fig3", &report).unwrap();
        assert!(text.ends_with(&format!("{:>24.3}\n", report.geomeans()[0])));
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
        let report = figure_session("domain", Scale::Tiny, &SystemConfig::small_test(), 2, None)
            .unwrap()
            .run();
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
}
