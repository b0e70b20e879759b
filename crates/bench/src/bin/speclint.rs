//! Sweeps the static speculative-taint analyzer over the whole evaluation
//! corpus — the SPEC-like, Parsec-like and domain-switch kernels plus the
//! attack corpus — and prints the gadget census.
//!
//! ```text
//! cargo run --release --bin speclint -- --scale tiny
//! ```
//!
//! The text mode prints the per-program census table followed by one
//! grep-friendly line per gadget; `--json` emits the census document (the
//! same object `report` embeds under its `speclint` key, and the one pinned
//! by `SPECLINT_baseline.json` at the repository root); `--html FILE` writes
//! the census as a self-contained page. The analysis is purely static —
//! `--threads`, `--store` and `--events` are accepted for CLI uniformity but
//! have nothing to do: no simulation runs.

use simkit::json::ToJson;
use speclint::AnalyzerConfig;

fn main() {
    let options = bench::cli::parse_or_exit();
    let census = bench::lint::corpus_census(options.scale, &AnalyzerConfig::default());
    bench::cli::write_html(&options, || bench::render::speclint_document(&census));
    if options.html_only {
        return;
    }
    if options.json {
        println!("{}", census.to_json().to_string_pretty());
    } else {
        println!("{}", bench::lint::census_text(&census));
        print!("{}", bench::lint::gadget_lines(&census));
    }
}
