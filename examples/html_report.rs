//! A single evaluation figure rendered end-to-end into a self-contained
//! HTML page — the `--html` path of the figure binaries, driven in code.
//!
//! ```text
//! cargo run --release --example html_report
//! ```
//!
//! The flow is the whole rendering stack in four steps: resolve the figure's
//! session by name, run the grid, read the chart metadata (shape, axis
//! titles, caption, paper cross-reference) from its `bench::FIGURES` row, and
//! fold the chart plus provenance into one HTML document with zero external
//! assets — open the printed path in any browser, no server, no network.
//! The all-figures version of the same artefact is
//! `report --html report.html`.

use simkit::config::SystemConfig;
use workloads::Scale;

fn main() {
    // The §4.8 domain-switch stress grid: small enough to simulate in
    // seconds at tiny scale, and its page carries both a chart and the
    // flush-counter summary table.
    let name = "domain";
    let config = SystemConfig::paper_default();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let session = bench::figure_session(name, Scale::Tiny, &config, threads, None)
        .expect("domain is a registered figure");

    println!("simulating the `{name}` grid at tiny scale…");
    let report = session.run();
    println!(
        "…{} cells in {:.0} ms ({} simulations)",
        report.cells.len(),
        report.wall_clock_ms,
        report.sims_executed
    );

    let chart = bench::figure_spec(name)
        .expect("domain is a registered figure")
        .chart;
    println!("chart: {:?} · {}", chart.kind, chart.paper_section);

    let html = bench::render::figure_document(name, &report, "html-report-example")
        .expect("registered figures render");
    let path = std::env::temp_dir().join("muontrap-html-report-example.html");
    std::fs::write(&path, &html).expect("write the page");

    println!(
        "\nwrote {} ({} bytes, {} chart, {} table)",
        path.display(),
        html.len(),
        html.matches("<svg ").count(),
        html.matches("<table>").count(),
    );
    println!("open it in a browser — every asset is inline.");
    assert!(!html.contains("http"), "the page must stay self-contained");
}
