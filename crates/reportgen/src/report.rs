//! From [`RunReport`] to chart: per-figure metadata, the report→chart-data
//! conversions, and run provenance.
//!
//! The metadata ([`FigureMeta`]) is *declared* next to the figure
//! definitions (see `bench`'s registry) and *consumed* here: given a meta
//! and any `RunReport` with the matching grid shape — run locally, served
//! from a warm store, or folded out of an event log by
//! `simsys::runner::merge_events` — [`figure_chart`] renders the same SVG,
//! because a merged report has the local run's cells.

use simsys::session::RunReport;

use crate::chart::{GroupedBarChart, Series, SweepLineChart};
use crate::svg::fmt_value;

/// Which chart shape a figure renders as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChartKind {
    /// Grouped bars: workloads (plus a geomean group) on the x axis, one bar
    /// per column. The slowdown figures (3, 4, 8, 9) and the domain grid.
    GroupedBars,
    /// A sweep: columns (the swept setting) on the x axis, per-workload
    /// lines de-emphasised behind a highlighted geomean. Figures 5 and 6.
    SweepLines,
    /// Single-series bars of a per-workload counter ratio
    /// (`numerator / denominator` from each cell's stats). Figure 7.
    CounterRatioBars {
        /// Counter name of the ratio's numerator.
        numerator: &'static str,
        /// Counter name of the ratio's denominator.
        denominator: &'static str,
    },
}

/// Everything the renderer needs to know about a figure besides its data:
/// chart shape, axis titles, the caption shown under the chart, and the
/// paper section it reproduces. Declared as a `const` per figure in the
/// harness's registry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FigureMeta {
    /// Registry name (`"fig3"` … `"domain"`).
    pub name: &'static str,
    /// Chart shape.
    pub kind: ChartKind,
    /// X-axis title.
    pub x_label: &'static str,
    /// Value-axis title.
    pub y_label: &'static str,
    /// Paper cross-reference, e.g. `"§6.1, Figure 3"`.
    pub paper_section: &'static str,
    /// Reader-facing caption: what the figure shows and how to read it.
    pub caption: &'static str,
    /// Dashed reference marker (the slowdown figures' `1.0` baseline).
    pub reference_line: Option<f64>,
}

/// Renders `report` as the SVG chart `meta` describes.
///
/// # Examples
///
/// ```
/// use defenses::DefenseKind;
/// use reportgen::report::{figure_chart, ChartKind, FigureMeta};
/// use simkit::config::SystemConfig;
/// use simsys::session::ExperimentSession;
/// use workloads::{spec_suite, Scale};
///
/// const META: FigureMeta = FigureMeta {
///     name: "demo",
///     kind: ChartKind::GroupedBars,
///     x_label: "workload",
///     y_label: "normalised execution time",
///     paper_section: "§6.1",
///     caption: "Two kernels under MuonTrap.",
///     reference_line: Some(1.0),
/// };
/// let report = ExperimentSession::new()
///     .title("demo")
///     .workloads(spec_suite(Scale::Tiny).into_iter().take(2))
///     .defenses([DefenseKind::MuonTrap])
///     .config(SystemConfig::small_test())
///     .run();
/// let svg = figure_chart(&META, &report);
/// assert!(svg.starts_with("<svg ") && svg.ends_with("</svg>"));
/// assert!(svg.contains("geomean"));
/// ```
pub fn figure_chart(meta: &FigureMeta, report: &RunReport) -> String {
    match meta.kind {
        ChartKind::GroupedBars => grouped_bars(meta, report).render(),
        ChartKind::SweepLines => sweep_lines(meta, report).render(),
        ChartKind::CounterRatioBars {
            numerator,
            denominator,
        } => counter_ratio_bars(meta, report, numerator, denominator).render(),
    }
}

fn grouped_bars(meta: &FigureMeta, report: &RunReport) -> GroupedBarChart {
    let geomeans = report.geomeans();
    let mut categories = report.workloads.clone();
    categories.push("geomean".to_string());
    let series = report
        .columns
        .iter()
        .enumerate()
        .map(|(c, column)| {
            let mut values: Vec<f64> = (0..report.workloads.len())
                .map(|w| report.cell(w, c).normalized_time)
                .collect();
            values.push(geomeans[c]);
            Series::new(column.clone(), values)
        })
        .collect();
    GroupedBarChart {
        categories,
        series,
        x_label: meta.x_label.to_string(),
        y_label: meta.y_label.to_string(),
        reference_line: meta.reference_line,
    }
}

fn sweep_lines(meta: &FigureMeta, report: &RunReport) -> SweepLineChart {
    let background = report
        .workloads
        .iter()
        .enumerate()
        .map(|(w, workload)| {
            Series::new(
                workload.clone(),
                (0..report.columns.len())
                    .map(|c| report.cell(w, c).normalized_time)
                    .collect::<Vec<f64>>(),
            )
        })
        .collect();
    SweepLineChart {
        points: report.columns.clone(),
        background,
        highlight: Series::new("geomean", report.geomeans()),
        x_label: meta.x_label.to_string(),
        y_label: meta.y_label.to_string(),
        reference_line: meta.reference_line,
    }
}

fn counter_ratio_bars(
    meta: &FigureMeta,
    report: &RunReport,
    numerator: &str,
    denominator: &str,
) -> GroupedBarChart {
    let values: Vec<f64> = (0..report.workloads.len())
        .map(|w| report.cell(w, 0).stats.ratio(numerator, denominator))
        .collect();
    GroupedBarChart {
        categories: report.workloads.clone(),
        series: vec![Series::new(meta.y_label, values)],
        x_label: meta.x_label.to_string(),
        y_label: meta.y_label.to_string(),
        reference_line: meta.reference_line,
    }
}

/// Run provenance shown under each figure: where the numbers came from and
/// how much of the grid was regenerated vs served from the warm store.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// The run id of the invocation that produced the artefact.
    pub run_id: String,
    /// Workload scale, when the session recorded one.
    pub scale: Option<String>,
    /// Grid cells in the figure.
    pub cells: usize,
    /// Simulations actually executed (store misses).
    pub sims_executed: usize,
    /// Grid cells served from the result store.
    pub cached_cells: usize,
    /// Fraction of cells served from the store.
    pub cache_hit_rate: f64,
    /// Wall-clock duration of the grid, in milliseconds.
    pub wall_clock_ms: f64,
}

impl Provenance {
    /// Extracts the provenance of `report`, stamped with the `run_id` of the
    /// rendering invocation.
    pub fn from_report(report: &RunReport, run_id: &str) -> Provenance {
        Provenance {
            run_id: run_id.to_string(),
            scale: report.scale.clone(),
            cells: report.cells.len(),
            sims_executed: report.sims_executed,
            cached_cells: report.cached_cells(),
            cache_hit_rate: report.cache_hit_rate(),
            wall_clock_ms: report.wall_clock_ms,
        }
    }

    /// One-line human rendering (the text under each figure).
    pub fn summary(&self) -> String {
        format!(
            "run {} · scale {} · {} cells: {} simulated, {} cached (hit rate {}) · {} ms",
            self.run_id,
            self.scale.as_deref().unwrap_or("unrecorded"),
            self.cells,
            self.sims_executed,
            self.cached_cells,
            fmt_value(self.cache_hit_rate),
            fmt_value(self.wall_clock_ms),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::stats::StatSet;
    use simsys::session::CellResult;

    /// A handcrafted two-workload, two-column report (no simulation).
    fn tiny_report() -> RunReport {
        let cell =
            |workload: &str, column: &str, cycles: u64, nt: f64, counters: &[(&str, u64)]| {
                let mut stats = StatSet::new();
                for (name, value) in counters {
                    stats.add(name, *value);
                }
                CellResult {
                    workload: workload.to_string(),
                    column: column.to_string(),
                    defense: column.to_string(),
                    cycles,
                    committed: cycles / 2,
                    completed: true,
                    cached: workload == "w2",
                    baseline_cycles: 1000,
                    normalized_time: nt,
                    stats,
                }
            };
        RunReport {
            title: "tiny".to_string(),
            scale: Some("tiny".to_string()),
            threads: 1,
            wall_clock_ms: 12.5,
            baseline_sims: 2,
            sims_executed: 3,
            workloads: vec!["w1".to_string(), "w2".to_string()],
            columns: vec!["c1".to_string(), "c2".to_string()],
            cells: vec![
                cell("w1", "c1", 1100, 1.1, &[("n", 1), ("d", 4)]),
                cell("w1", "c2", 1300, 1.3, &[("n", 3), ("d", 4)]),
                cell("w2", "c1", 1210, 1.21, &[("d", 8)]),
                cell("w2", "c2", 1440, 1.44, &[("n", 2), ("d", 8)]),
            ],
        }
    }

    const META: FigureMeta = FigureMeta {
        name: "t",
        kind: ChartKind::GroupedBars,
        x_label: "x",
        y_label: "y",
        paper_section: "§0",
        caption: "c",
        reference_line: Some(1.0),
    };

    #[test]
    fn grouped_bars_append_the_geomean_group() {
        let chart = grouped_bars(&META, &tiny_report());
        assert_eq!(chart.categories, vec!["w1", "w2", "geomean"]);
        assert_eq!(chart.series.len(), 2);
        assert_eq!(chart.series[0].values.len(), 3);
        let geo = (1.1f64 * 1.21).sqrt();
        assert!((chart.series[0].values[2] - geo).abs() < 1e-9);
    }

    #[test]
    fn sweep_lines_put_columns_on_the_x_axis_and_highlight_the_geomean() {
        let chart = sweep_lines(&META, &tiny_report());
        assert_eq!(chart.points, vec!["c1", "c2"]);
        assert_eq!(chart.background.len(), 2);
        assert_eq!(chart.background[0].values, vec![1.1, 1.3]);
        assert_eq!(chart.highlight.name, "geomean");
        assert_eq!(chart.highlight.values.len(), 2);
    }

    #[test]
    fn counter_ratio_bars_read_the_first_column_stats() {
        let chart = counter_ratio_bars(&META, &tiny_report(), "n", "d");
        assert_eq!(chart.categories, vec!["w1", "w2"]);
        assert_eq!(chart.series.len(), 1);
        assert_eq!(chart.series[0].values, vec![0.25, 0.0]);
    }

    #[test]
    fn provenance_counts_cached_cells_and_stamps_the_run_id() {
        let p = Provenance::from_report(&tiny_report(), "nightly-3");
        assert_eq!(p.run_id, "nightly-3");
        assert_eq!(p.cells, 4);
        assert_eq!(p.cached_cells, 2);
        assert_eq!(p.cache_hit_rate, 0.5);
        let line = p.summary();
        assert!(line.contains("nightly-3") && line.contains("2 cached"));
    }
}
