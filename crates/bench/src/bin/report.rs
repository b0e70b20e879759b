//! Regenerates the entire evaluation — Table 1, figures 3–9, the §4.8
//! domain-switch stress grid, the security matrix and the static `speclint`
//! gadget census — as one JSON document
//! (always JSON; there is no text mode). This is the one-shot
//! artefact-regeneration entry point:
//!
//! ```text
//! cargo run --release --bin report -- --scale small --threads 8 > evaluation.json
//! ```
//!
//! Every grid goes through the [`simsys::runner`] plan/execute/stream/merge
//! pipeline. With `--store DIR` (or `MUONTRAP_STORE`), every simulation
//! result is persisted content-addressed on its inputs: the first run fills
//! the store, and a second run regenerates the full document with zero
//! simulations. A store already populated by `figure NAME` runs of the
//! individual figures serves this document for free, because planning is
//! host-independent and the fingerprints agree by construction. The emitted
//! `sims_executed` / per-cell `cached` fields record the provenance, and
//! `--events FILE` streams per-unit progress while the document builds.
//!
//! With `--html FILE` the same reports additionally render as one
//! self-contained HTML page — one SVG chart per figure plus the
//! domain-switch summary table, captions, paper cross-references and
//! per-figure provenance; see [`bench::render`]. `--html-only` skips the
//! JSON on stdout. Against a warm store the whole artefact regenerates in
//! seconds:
//!
//! ```text
//! report --scale small --store /data/store --html report.html --html-only
//! ```
use simkit::json::{Json, ToJson};
use simsys::session::RunReport;

fn main() {
    let options = bench::cli::parse_or_exit();
    let config = simkit::config::SystemConfig::paper_default();
    let store = options.open_store();
    let mut events = bench::cli::open_events(&options);
    let reports: Vec<(String, RunReport)> = bench::FIGURE_NAMES
        .iter()
        .map(|name| {
            let session = bench::figure_session(
                name,
                options.scale,
                &config,
                options.threads,
                store.as_ref(),
            )
            .expect("every listed figure resolves");
            let report = session.run_with_events(match &mut events {
                Some(file) => Some(file),
                None => None,
            });
            (name.to_string(), report)
        })
        .collect();
    let census = bench::lint::corpus_census(options.scale, &speclint::AnalyzerConfig::default());
    bench::cli::write_metrics(&options);
    bench::cli::write_html(&options, || {
        bench::render::evaluation_document(
            &reports,
            &options.run_id,
            options.scale.name(),
            Some(&census),
        )
    });
    if options.html_only {
        return;
    }
    let figures: Vec<Json> = reports.iter().map(|(_, report)| report.to_json()).collect();
    let document = Json::obj([
        ("scale", Json::Str(options.scale.to_string())),
        ("table1", bench::table1_json()),
        ("figures", Json::Arr(figures)),
        ("security", bench::security_json(&config)),
        ("speclint", census.to_json()),
    ]);
    println!("{}", document.to_string_pretty());
}
