//! The figure ↔ chart metadata registry and the HTML-report assembly.
//!
//! `reportgen` knows how to draw; this module knows what the paper's figures
//! *are*: which chart shape each [`crate::FIGURE_NAMES`] entry renders as,
//! its axis titles, its reader-facing caption and its paper cross-reference.
//! The registry sits next to [`crate::figure_session`] so adding a figure
//! means touching one crate, and everything here works on any
//! [`RunReport`] with the right grid shape — run locally, replayed from a
//! warm store, or folded out of an event log by
//! [`simsys::runner::merge_events`] (a merged report has the local run's
//! cells, so the rendered chart is identical too).
//!
//! Entry points: [`figure_document`] (one figure → one page, the `--html`
//! path of the figure binaries and `merge`) and [`evaluation_document`]
//! (every figure plus the domain-switch table → `report --html`'s
//! `report.html`).

use reportgen::report::{figure_chart, ChartKind, FigureMeta, Provenance};
use reportgen::svg::fmt_value;
use reportgen::{HtmlDocument, ReportFigure, SummaryTable};
use simsys::session::RunReport;
use speclint::Census;

/// Chart metadata for every [`crate::FIGURE_NAMES`] entry, in the same
/// order.
pub const FIGURE_METAS: [FigureMeta; 9] = [
    FigureMeta {
        name: "fig3",
        kind: ChartKind::GroupedBars,
        x_label: "SPEC CPU2006-like workload",
        y_label: "normalised execution time (×)",
        paper_section: "Paper §6, Figure 3",
        caption: "Normalised execution time on the SPEC CPU2006-like suite under MuonTrap, \
                  InvisiSpec and STT (each in Spectre and futuristic threat models). 1.0 is the \
                  unprotected baseline (dashed); lower is better. MuonTrap's bars hugging the \
                  baseline while the delay-based defenses sit well above it is the paper's \
                  headline claim.",
        reference_line: Some(1.0),
    },
    FigureMeta {
        name: "fig4",
        kind: ChartKind::GroupedBars,
        x_label: "Parsec-like workload (4 threads)",
        y_label: "normalised execution time (×)",
        paper_section: "Paper §6, Figure 4",
        caption: "The same comparison on the Parsec-like multithreaded suite (4 threads). \
                  Sharing and coherence traffic make the delay-based defenses costlier here; \
                  MuonTrap's filter caches keep speculative fills core-private without delaying \
                  them.",
        reference_line: Some(1.0),
    },
    FigureMeta {
        name: "fig5",
        kind: ChartKind::SweepLines,
        x_label: "data filter-cache size (fully associative)",
        y_label: "normalised execution time (×)",
        paper_section: "Paper §6, Figure 5",
        caption: "Slowdown as the fully-associative data filter cache is swept from 64 B to \
                  4 KiB. Gray lines are individual Parsec-like workloads; the highlighted line \
                  is the geometric mean. A few hundred bytes already capture most in-flight \
                  speculation, and the curve flattens as the filter cache stops being the \
                  bottleneck.",
        reference_line: Some(1.0),
    },
    FigureMeta {
        name: "fig6",
        kind: ChartKind::SweepLines,
        x_label: "2 KiB data filter-cache associativity (ways)",
        y_label: "normalised execution time (×)",
        paper_section: "Paper §6, Figure 6",
        caption: "Associativity sweep of the 2 KiB data filter cache, direct-mapped to fully \
                  associative. Speculative fills from many simultaneous loads conflict in \
                  low-associativity filters, so ways matter more than raw size at this scale.",
        reference_line: Some(1.0),
    },
    FigureMeta {
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
    FigureMeta {
        name: "fig8",
        kind: ChartKind::GroupedBars,
        x_label: "Parsec-like workload (4 threads)",
        y_label: "normalised execution time (×)",
        paper_section: "Paper §6, Figure 8",
        caption: "Cost breakdown on the Parsec-like suite as protection mechanisms are enabled \
                  cumulatively: an insecure L0, the secure filter cache, coherence protection, \
                  the instruction filter cache, commit-time prefetcher training, and \
                  clear-on-misspeculate.",
        reference_line: Some(1.0),
    },
    FigureMeta {
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
    FigureMeta {
        name: "shootout",
        kind: ChartKind::GroupedBars,
        x_label: "SPEC CPU2006-like workload",
        y_label: "normalised execution time (×)",
        paper_section: "Paper §7 (defense zoo; extends the paper's comparison)",
        caption: "Cross-defense shoot-out on the SPEC-like suite: every modelled defense from \
                  the registry — the insecure-L0 strawman, fence-at-every-branch, \
                  delay-speculative-loads (naive InvisiSpec), the SafeBet-style speculative \
                  access window, full MuonTrap, InvisiSpec and STT — normalised to the \
                  unprotected baseline. The sound-and-cheap corner (MuonTrap, SafeBet) versus \
                  the sound-but-slow delay family is the trade-off the defense zoo exists to \
                  show; tests/defense_soundness.rs proves the soundness half dynamically.",
        reference_line: Some(1.0),
    },
    FigureMeta {
        name: "domain",
        kind: ChartKind::GroupedBars,
        x_label: "domain-switch kernel",
        y_label: "normalised execution time (×)",
        paper_section: "Paper §4.8 (stress grid; not a paper figure)",
        caption: "Worst-case stress for MuonTrap's flush-on-domain-switch rule: the \
                  syscall-storm and sandbox-hop kernels force a protection-domain switch — and \
                  thus a filter-cache flush — every few hundred instructions. The summary table \
                  below carries the flush counters behind these bars.",
        reference_line: Some(1.0),
    },
];

/// Resolves a figure name (see [`crate::FIGURE_NAMES`]) to its chart
/// metadata.
pub fn figure_meta(name: &str) -> Option<&'static FigureMeta> {
    FIGURE_METAS.iter().find(|meta| meta.name == name)
}

/// Builds the rendered figure section for `name` from `report`:
/// [`figure_chart`] for the SVG plus title, caption, cross-reference and
/// provenance. `None` for unregistered names.
pub fn report_figure(name: &str, report: &RunReport, run_id: &str) -> Option<ReportFigure> {
    let meta = figure_meta(name)?;
    Some(ReportFigure {
        id: meta.name.to_string(),
        title: report.title.clone(),
        paper_section: meta.paper_section.to_string(),
        caption: meta.caption.to_string(),
        svg: figure_chart(meta, report),
        provenance: Some(Provenance::from_report(report, run_id)),
    })
}

/// The domain-switch summary table: one row per (kernel, defense) cell with
/// its slowdown and the filter-cache flush counters that explain it.
pub fn domain_switch_table(report: &RunReport) -> SummaryTable {
    let mut table = SummaryTable::new([
        "kernel",
        "defense",
        "slowdown (×)",
        "syscall flushes",
        "sandbox flushes",
        "completed",
    ]);
    for cell in &report.cells {
        table.row([
            (cell.workload.clone(), false),
            (cell.column.clone(), false),
            (fmt_value(cell.normalized_time), true),
            (
                cell.stats.counter("muontrap.syscall_flushes").to_string(),
                true,
            ),
            (
                cell.stats.counter("muontrap.sandbox_flushes").to_string(),
                true,
            ),
            (
                (if cell.completed { "yes" } else { "NO" }).to_string(),
                false,
            ),
        ]);
    }
    table
}

/// Renders a single figure as a complete self-contained HTML page (what
/// `figure fig5 --html page.html` and `merge --html page.html` write). `None` for
/// unregistered names.
pub fn figure_document(name: &str, report: &RunReport, run_id: &str) -> Option<String> {
    let figure = report_figure(name, report, run_id)?;
    let mut doc = HtmlDocument::new(report.title.clone());
    doc.figure(figure);
    if name == "domain" {
        doc.table(
            "domain-table",
            "Domain-switch summary",
            DOMAIN_TABLE_CAPTION,
            domain_switch_table(report),
        );
    }
    Some(doc.render())
}

const DOMAIN_TABLE_CAPTION: &str =
    "Per-cell detail behind the domain-switch figure. The muontrap.* flush counters are \
     nonzero only under MuonTrap configurations: every syscall or sandbox transition clears \
     the filter caches, which is exactly the overhead these kernels maximise.";

const SPECLINT_TABLE_CAPTION: &str =
    "Static speculative-taint census over the evaluation corpus (the `speclint` analyzer): \
     per program, the number of gadgets where a speculatively loaded value reaches a \
     transmitter inside a mispredicted-branch window, by transmitter class. The attack-suite \
     programs are expected to be flagged and their -fenced twins clean; the compute kernels' \
     verdicts show which workloads even carry statically reachable gadgets. Cross-validated \
     against the dynamic attack outcomes by tests/speclint_cross.rs.";

/// The speclint census table: one row per analyzed program with its gadget
/// counts per class, and the corpus totals in the footer.
pub fn speclint_table(census: &Census) -> SummaryTable {
    let mut table = SummaryTable::new([
        "program",
        "instructions",
        "branches",
        "v1-load",
        "tainted-store-address",
        "tainted-branch",
        "truncated",
    ]);
    let mut totals = [0usize; 3];
    let mut insts = 0usize;
    let mut branches = 0usize;
    for report in &census.programs {
        let counts = report.counts();
        for (t, c) in totals.iter_mut().zip(counts) {
            *t += c;
        }
        insts += report.instructions;
        branches += report.branches;
        table.row([
            (report.program.clone(), false),
            (report.instructions.to_string(), true),
            (report.branches.to_string(), true),
            (counts[0].to_string(), true),
            (counts[1].to_string(), true),
            (counts[2].to_string(), true),
            (
                (if report.truncated { "YES" } else { "-" }).to_string(),
                false,
            ),
        ]);
    }
    table.footer([
        (format!("total ({} programs)", census.programs.len()), false),
        (insts.to_string(), true),
        (branches.to_string(), true),
        (totals[0].to_string(), true),
        (totals[1].to_string(), true),
        (totals[2].to_string(), true),
        (String::new(), false),
    ]);
    table
}

/// Appends the speclint census section to a document.
fn push_speclint_section(doc: &mut HtmlDocument, census: &Census) {
    doc.table(
        "speclint-table",
        format!(
            "Static gadget census ({} gadgets, {} of {} programs, window {})",
            census.total_gadgets(),
            census.flagged_programs(),
            census.programs.len(),
            census.window
        ),
        SPECLINT_TABLE_CAPTION,
        speclint_table(census),
    );
}

/// Renders the census as its own self-contained page (`speclint --html`).
pub fn speclint_document(census: &Census) -> String {
    let mut doc = HtmlDocument::new("speclint — static gadget census");
    push_speclint_section(&mut doc, census);
    doc.render()
}

/// Renders the full evaluation as one self-contained HTML document: one
/// chart per figure in `reports` (in the given order), the domain-switch
/// summary table, the static gadget census (when given), and per-figure
/// provenance. `reports` pairs each [`crate::FIGURE_NAMES`] entry with its
/// report; unregistered names are skipped.
pub fn evaluation_document(
    reports: &[(String, RunReport)],
    run_id: &str,
    scale: &str,
    census: Option<&Census>,
) -> String {
    let mut doc = HtmlDocument::new("MuonTrap reproduction — evaluation report");
    doc.intro(format!(
        "Every figure of the paper's evaluation (§6) plus the §4.8 domain-switch stress \
         grid, regenerated at {scale} scale by this repository's simulator and rendered \
         without external assets: inline SVG, inline styles, no scripts. Slowdown charts \
         are normalised to the unprotected baseline (dashed line at 1.0; lower is \
         better). Hover any mark for its exact value; the provenance line under each \
         figure records how many cells were simulated fresh versus served from the \
         content-addressed result store."
    ));
    for (name, report) in reports {
        if let Some(figure) = report_figure(name, report, run_id) {
            doc.figure(figure);
        }
        if name == "domain" {
            doc.table(
                "domain-table",
                "Domain-switch summary",
                DOMAIN_TABLE_CAPTION,
                domain_switch_table(report),
            );
        }
    }
    if let Some(census) = census {
        push_speclint_section(&mut doc, census);
    }
    doc.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FIGURE_NAMES;
    use defenses::DefenseKind;
    use simkit::config::SystemConfig;
    use simsys::session::ExperimentSession;
    use workloads::{domain_switch_suite, spec_suite, Scale};

    #[test]
    fn every_figure_name_has_metadata_and_vice_versa() {
        for name in FIGURE_NAMES {
            let meta = figure_meta(name).unwrap_or_else(|| panic!("{name} needs metadata"));
            assert_eq!(meta.name, name);
            assert!(!meta.caption.is_empty() && !meta.paper_section.is_empty());
        }
        assert_eq!(FIGURE_METAS.len(), FIGURE_NAMES.len());
        assert!(figure_meta("fig12").is_none());
    }

    #[test]
    fn sweep_figures_render_lines_and_slowdown_figures_bars() {
        assert_eq!(figure_meta("fig5").unwrap().kind, ChartKind::SweepLines);
        assert_eq!(figure_meta("fig6").unwrap().kind, ChartKind::SweepLines);
        assert_eq!(figure_meta("fig3").unwrap().kind, ChartKind::GroupedBars);
        assert!(matches!(
            figure_meta("fig7").unwrap().kind,
            ChartKind::CounterRatioBars { .. }
        ));
    }

    #[test]
    fn figure_document_is_a_complete_selfcontained_page() {
        let report = ExperimentSession::new()
            .title("smoke")
            .scale(Scale::Tiny)
            .workloads(spec_suite(Scale::Tiny).into_iter().take(2))
            .defenses([DefenseKind::MuonTrap])
            .config(SystemConfig::small_test())
            .run();
        let html = figure_document("fig3", &report, "test-run").unwrap();
        assert!(html.starts_with("<!doctype html>"));
        assert_eq!(html.matches("<svg ").count(), 1);
        assert!(html.contains("run test-run"));
        assert!(!html.contains("http"), "self-contained");
        assert!(figure_document("nope", &report, "r").is_none());
    }

    #[test]
    fn speclint_section_renders_the_census_with_totals() {
        let census = crate::lint::corpus_census(Scale::Tiny, &speclint::AnalyzerConfig::default());
        let table = speclint_table(&census);
        assert_eq!(table.len(), census.programs.len());
        let html = speclint_document(&census);
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("spectre-victim"));
        assert!(html.contains("litmus-inclusion-fenced"));
        assert!(html.contains("<tfoot>"), "totals footer present");
        assert!(html.contains(&format!("total ({} programs)", census.programs.len())));
        // The census also lands at the end of the full evaluation document.
        let full = evaluation_document(&[], "run", "tiny", Some(&census));
        assert!(full.contains("Static gadget census"));
        assert!(
            !evaluation_document(&[], "run", "tiny", None).contains("Static gadget census"),
            "census section is optional"
        );
    }

    #[test]
    fn domain_table_carries_the_flush_counters() {
        let report = ExperimentSession::new()
            .title("domain smoke")
            .scale(Scale::Tiny)
            .workloads(domain_switch_suite(Scale::Tiny))
            .defenses([DefenseKind::MuonTrap])
            .config(SystemConfig::small_test())
            .run();
        let table = domain_switch_table(&report);
        assert_eq!(table.len(), report.cells.len());
        let html = table.render();
        assert!(html.contains("syscall-storm") && html.contains("sandbox-hop"));
        // The kernels actually flush: some counter cell is a positive number.
        let has_nonzero = report.cells.iter().any(|c| {
            c.stats.counter("muontrap.syscall_flushes")
                + c.stats.counter("muontrap.sandbox_flushes")
                > 0
        });
        assert!(has_nonzero, "flush counters must be visible in the table");
    }
}
