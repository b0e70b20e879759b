//! Folds a run's event log back into the deterministic figure report.
//!
//! `merge` rebuilds the named figure's [`Plan`](simsys::runner::Plan) (the
//! same pure derivation `figure NAME` used), reads the JSONL event log that
//! `figure NAME --events FILE` wrote, and emits the merged
//! [`RunReport`](simsys::session::RunReport) as JSON on stdout — the cells
//! a `figure NAME --json` run of the same grid prints. The recorded
//! `wall_clock_ms` is the log's first-to-last timestamp span.
//!
//! ```text
//! merge --figure fig5 --scale small e.jsonl > figure5.json
//! ```
//!
//! Pass `--scale`/`--threads` matching the `figure` invocation so the
//! rebuilt plan (title, grid shape, recorded thread count) lines up. An
//! incomplete log — a grid cell it never resolved — is an error, not a
//! silent hole; exactly one log is accepted.
//!
//! `--html FILE` renders the merged report as the figure's self-contained
//! HTML page (`--html-only` suppresses the JSON): the chart a local
//! `figure NAME --html` run would draw, because the merged cells are the
//! local ones. `--metrics FILE` appends one telemetry snapshot, as on every
//! binary.
//!
//! # Watching a live run
//!
//! With `--watch`, `merge` does not require a complete log: it *tails* it
//! while the run is still writing, redrawing an in-terminal dashboard
//! (progress, executed and cached counts, a cells/sec rate and ETA, stall
//! detection from the newest event's age) every `--interval-ms` until every
//! unit of the plan has resolved. `--once` renders exactly one frame — with
//! "now" pinned to the newest event timestamp, so the output is
//! deterministic — and exits, which is what tests and CI consume.
//!
//! ```text
//! merge --figure domain --scale tiny --watch e.jsonl
//! ```

use std::io::Write as _;

use simkit::json::ToJson;
use simsys::runner;

use bench::watch::{self, LogTail, RunView, WatchOptions};

fn main() {
    let mut figure: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut watch_mode = false;
    let mut once = false;
    let mut interval_ms: u64 = 1_000;
    let mut stall_ms: u64 = 15_000;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--figure" {
            match args.next() {
                Some(value) => figure = Some(value),
                None => exit_usage("--figure needs a name"),
            }
        } else if arg == "--watch" {
            watch_mode = true;
        } else if arg == "--once" {
            watch_mode = true;
            once = true;
        } else if arg == "--interval-ms" {
            interval_ms = parse_ms(args.next(), "--interval-ms");
        } else if arg == "--stall-ms" {
            stall_ms = parse_ms(args.next(), "--stall-ms");
        } else if arg == "--help" || arg == "-h" {
            println!("{}", usage());
            return;
        } else {
            // The shared parser knows which flags take a value; what it
            // leaves bare are the event logs.
            rest.push(arg);
        }
    }
    let options = match bench::cli::CliOptions::parse(&rest) {
        Ok(options) => options,
        Err(message) => exit_usage(&message),
    };
    let Some(figure) = figure else {
        exit_usage("--figure NAME is required");
    };
    let log = match options.args.as_slice() {
        [log] => log,
        [] => exit_usage("an event log is required"),
        [_, extra, ..] => exit_usage(&format!("unexpected argument `{extra}`")),
    };

    let config = simkit::config::SystemConfig::paper_default();
    let Some(session) =
        bench::figure_session(&figure, options.scale, &config, options.threads, None)
    else {
        exit_usage(&format!(
            "unknown figure `{figure}` (expected one of {})",
            bench::FIGURE_NAMES.join(", ")
        ));
    };
    let plan = session.plan();

    if watch_mode {
        run_watch(&plan, log, once, interval_ms, stall_ms);
        bench::cli::write_metrics(&options);
        return;
    }

    let file = std::fs::File::open(log).unwrap_or_else(|e| {
        eprintln!("cannot open event log {log}: {e}");
        std::process::exit(2);
    });
    let events = runner::read_events(std::io::BufReader::new(file)).unwrap_or_else(|e| {
        eprintln!("{log}: {e}");
        std::process::exit(2);
    });
    let wall_clock_ms = runner::log_span_ms(events.iter());
    match runner::merge_events(&plan, events, wall_clock_ms) {
        Ok(report) => {
            bench::cli::write_metrics(&options);
            bench::cli::write_html(&options, || {
                bench::render::figure_document(&figure, &report, &options.run_id)
                    .expect("figure resolved above, so it is registered")
            });
            if !options.html_only {
                println!("{}", report.to_json().to_string_pretty());
            }
        }
        Err(e) => {
            eprintln!("merge failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The `--watch` loop: tail, fold, render, repeat until every unit of the
/// plan has resolved (or after one frame, with `--once`).
fn run_watch(plan: &runner::Plan, log: &str, once: bool, interval_ms: u64, stall_ms: u64) {
    let mut tail = LogTail::new(log);
    loop {
        if let Err(e) = tail.poll() {
            eprintln!("cannot read {log}: {e}");
        }
        let opts = WatchOptions {
            stall_after_ms: stall_ms,
            // `--once` pins "now" to the newest event stamp so the frame is
            // deterministic; live mode reads the clock for stall ages.
            now_ms: once.then(|| {
                tail.events
                    .iter()
                    .filter_map(|e| e.t_ms())
                    .max()
                    .unwrap_or(0)
            }),
            ..WatchOptions::default()
        };
        let view = RunView::fold(plan, &tail.events, &opts);
        if !once {
            // The one piece of terminal state the watch owns: clear and
            // home before each live frame. `--once` stays plain text.
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", watch::render_frame(&view, &opts));
        let _ = std::io::stdout().flush();
        if once || view.complete() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
    }
}

fn parse_ms(value: Option<String>, flag: &str) -> u64 {
    match value.as_deref().map(str::parse::<u64>) {
        Some(Ok(ms)) => ms,
        _ => exit_usage(&format!("{flag} needs a millisecond count")),
    }
}

fn usage() -> String {
    format!(
        "usage: merge --figure NAME [--scale tiny|small|large] [--threads N] \
         [--html FILE [--html-only]] [--metrics FILE] [--watch [--once]] \
         [--interval-ms N] [--stall-ms N] EVENTS.jsonl\nfigures: {}",
        bench::FIGURE_NAMES.join(", ")
    )
}

fn exit_usage(message: &str) -> ! {
    eprintln!("{message}\n{}", usage());
    std::process::exit(2);
}
