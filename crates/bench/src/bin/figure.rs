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
//! The text table is the normalised execution time of every cell, except
//! for `fig7`, whose figure is the invalidation-broadcast rate derived from
//! each cell's `muontrap.*` counters ([`bench::invalidate_rates`]).
//!
//! With `--shard-id I --shard-count N` the binary executes one shard of the
//! figure's plan against a shared store instead. Every shard rebuilds the
//! identical [`Plan`](simsys::runner::Plan) from the name (planning is pure
//! and host-independent) and claims units through expiring lease files
//! under the store, so shards need no coordinator, only the directory.
//! Progress streams to `--events FILE` as JSONL; the shard prints its
//! [`ShardSummary`](simsys::runner::ShardSummary) as JSON, and `merge` folds
//! the logs into the report a local run prints:
//!
//! ```text
//! figure fig5 --scale small --store /data/store \
//!        --shard-id 0 --shard-count 2 --run-id nightly --events s0.jsonl &
//! figure fig5 --scale small --store /data/store \
//!        --shard-id 1 --shard-count 2 --run-id nightly --events s1.jsonl &
//! wait
//! merge --figure fig5 --scale small s0.jsonl s1.jsonl > figure5.json
//! ```
//!
//! A shard killed mid-run leaves expiring leases and a partial event log;
//! re-running it (same `--run-id`) steals the expired leases, serves the
//! already-stored results as cache hits, and completes the grid with no
//! simulation repeated.

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
    if let Some(shard) = options.shard_options() {
        let mut events = cli::open_events(&options).expect("--shard-id implies --events");
        match session.run_sharded(&shard, &mut events) {
            Ok(summary) => {
                cli::write_metrics(&options);
                println!("{}", summary.to_json().to_string_pretty());
            }
            Err(e) => {
                eprintln!("shard {} failed: {e}", shard.shard_id);
                std::process::exit(1);
            }
        }
        return;
    }
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
        let figure = if name == "fig7" {
            bench::invalidate_rates(&report)
        } else {
            bench::Figure::from_report(&report)
        };
        println!("{}", figure.render());
    }
}

fn exit_usage(message: &str, usage: &str) -> ! {
    eprintln!("{message}\n{usage}");
    std::process::exit(2);
}
