//! Regenerates one figure of the paper's evaluation, named by its first
//! argument (`fig3`…`fig9`, `shootout`, `domain`; see
//! [`bench::FIGURE_NAMES`]). Run with `--release`; see `--help` for the
//! shared flags of [`bench::cli`].
//!
//! ```text
//! figure fig3 --scale tiny              # Table 1 plus the text table
//! figure fig5 --json --scale tiny       # the full RunReport as JSON
//! figure fig4 --html fig4.html          # plus a self-contained HTML page
//! ```
//!
//! The text table ([`bench::figure_text`]) prints the values the figure's
//! chart draws: each cell's normalised time, or for a counter-ratio chart
//! the ratio of its counters.
//!
//! With `--store DIR` every simulation is persisted as it finishes, so a
//! killed run resumes by running the same command again: finished units
//! are store hits and only the rest simulate. `--events FILE` streams one
//! JSONL line per resolved unit, which `merge` folds into the report (or
//! `merge --watch` follows live):
//!
//! ```text
//! figure fig5 --scale small --store /data/store --events e.jsonl
//! merge --figure fig5 --scale small e.jsonl > figure5.json
//! ```

use simkit::json::ToJson;

use bench::cli;

fn main() {
    let usage = format!(
        "usage: figure NAME {}\nfigures: {}",
        cli::FLAGS,
        bench::FIGURE_NAMES.join(", ")
    );
    let options = cli::parse_args_or_exit(&usage);
    let name = match options.args.as_slice() {
        [name] if bench::FIGURE_NAMES.contains(&name.as_str()) => name.as_str(),
        [name] => exit_usage(&format!("unknown figure `{name}`"), &usage),
        [] => exit_usage("figure NAME is required", &usage),
        [_, extra, ..] => exit_usage(&format!("unexpected argument `{extra}`"), &usage),
    };
    let config = simkit::config::SystemConfig::paper_default();
    let store = options.open_store();
    let session = bench::figure_session(
        name,
        options.scale,
        &config,
        options.threads,
        store.as_ref(),
    )
    .expect("every listed figure resolves");
    let mut events = cli::open_events(&options);
    let report = session.run_with_events(match &mut events {
        Some(file) => Some(file),
        None => None,
    });
    cli::write_metrics(&options);
    cli::write_html(&options, || {
        bench::render::figure_document(name, &report, &options.run_id)
            .expect("every listed figure has chart metadata")
    });
    if options.html_only {
        return;
    }
    if options.json {
        println!("{}", report.to_json().to_string_pretty());
    } else {
        println!("{}", bench::table1());
        println!(
            "{}",
            bench::figure_text(name, &report).expect("every listed figure has a text table")
        );
    }
}

fn exit_usage(message: &str, usage: &str) -> ! {
    eprintln!("{message}\n{usage}");
    std::process::exit(2);
}
