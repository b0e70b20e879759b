//! HTML-report assembly.
//!
//! `reportgen` knows how to draw; each [`crate::FIGURES`] row says what a
//! figure *is* (chart shape, axis titles, caption, paper cross-reference).
//! This module folds a row and its [`RunReport`] into one page section —
//! chart, provenance and, for the domain-switch suite, the flush-counter
//! summary table — and works on any report with the right grid shape: run
//! locally, replayed from a warm store, or folded out of an event log by
//! [`simsys::runner::merge_events`] (a merged report has the local run's
//! cells, so the rendered chart is identical too).
//!
//! Entry points: [`figure_document`] (one figure → one page, the `--html`
//! path of `figure` and `merge`) and [`evaluation_document`] (every figure
//! plus the static gadget census → `report --html`'s `report.html`).

use reportgen::report::{figure_chart, Provenance};
use reportgen::svg::fmt_value;
use reportgen::{HtmlDocument, ReportFigure, SummaryTable};
use simsys::session::RunReport;
use speclint::Census;

use crate::{figure_spec, FigureSpec, Suite};

/// Pushes `figure`'s section for `report` onto `doc`: the [`figure_chart`]
/// SVG plus title, caption, cross-reference and provenance, followed on the
/// domain-switch suite by its flush-counter summary table.
fn push_figure(doc: &mut HtmlDocument, figure: &FigureSpec, report: &RunReport, run_id: &str) {
    doc.figure(ReportFigure {
        id: figure.chart.name.to_string(),
        title: report.title.clone(),
        paper_section: figure.chart.paper_section.to_string(),
        caption: figure.chart.caption.to_string(),
        svg: figure_chart(&figure.chart, report),
        provenance: Some(Provenance::from_report(report, run_id)),
    });
    if figure.suite == Suite::DomainSwitch {
        doc.table(
            "domain-table",
            "Domain-switch summary",
            DOMAIN_TABLE_CAPTION,
            domain_switch_table(report),
        );
    }
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
    let figure = figure_spec(name)?;
    let mut doc = HtmlDocument::new(report.title.clone());
    push_figure(&mut doc, figure, report, run_id);
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
        if let Some(figure) = figure_spec(name) {
            push_figure(&mut doc, figure, report, run_id);
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
    use crate::{FIGURES, FIGURE_NAMES};
    use defenses::DefenseKind;
    use reportgen::report::ChartKind;
    use simkit::config::SystemConfig;
    use simsys::session::ExperimentSession;
    use workloads::{domain_switch_suite, spec_suite, Scale};

    #[test]
    fn every_figure_name_has_metadata_and_vice_versa() {
        assert_eq!(FIGURES.len(), FIGURE_NAMES.len());
        for (figure, name) in FIGURES.iter().zip(FIGURE_NAMES) {
            assert_eq!(figure.chart.name, name);
            let unique = FIGURE_NAMES.iter().filter(|&&n| n == name).count() == 1;
            assert!(unique, "{name} is listed once");
            assert_eq!(figure_spec(name).unwrap().title, figure.title);
            assert!(!figure.chart.caption.is_empty() && !figure.chart.paper_section.is_empty());
            assert!(!figure.title.is_empty());
        }
        assert!(figure_spec("fig12").is_none());
    }

    #[test]
    fn sweep_figures_render_lines_and_slowdown_figures_bars() {
        let kind = |name| figure_spec(name).unwrap().chart.kind;
        assert_eq!(kind("fig5"), ChartKind::SweepLines);
        assert_eq!(kind("fig6"), ChartKind::SweepLines);
        assert_eq!(kind("fig3"), ChartKind::GroupedBars);
        assert!(matches!(kind("fig7"), ChartKind::CounterRatioBars { .. }));
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
