//! The tiny shared argument parser behind every binary.
//!
//! All the binaries accept the same flags, and this module is the only code
//! that knows which of them take a value. Bare arguments (the figure name of
//! `figure`, the event logs of `merge`) are collected in
//! [`CliOptions::args`] for the binary to interpret:
//!
//! * `--json` — emit the machine-readable report instead of the text table,
//! * `--scale <tiny|small|large>` — workload scale (default `small`),
//! * `--threads <n>` — session worker threads (default: all cores),
//! * `--store <dir>` — back the run with a content-addressed result store
//!   (see [`simsys::store`]): simulations already in the store are not
//!   re-run, and new results are persisted for the next invocation. Defaults
//!   to the `MUONTRAP_STORE` environment variable when set,
//! * `--no-store` — ignore `MUONTRAP_STORE` and any earlier `--store`,
//! * `--store-readonly` — open the store read-only: hits are served, misses
//!   simulate but are never written back (CI reusing a store artifact),
//! * `--events <file>` — stream one [`simsys::runner::RunEvent`] JSONL line
//!   per resolved work unit to `file` while the run progresses,
//! * `--run-id <id>` — the label the HTML provenance line records for this
//!   run (default `adhoc`),
//! * `--html <file>` — additionally render the report as a self-contained
//!   HTML page (inline SVG chart, inline CSS, no external assets) via
//!   [`crate::render`]. On `report`, the page covers every figure plus the
//!   domain-switch table; on `figure` or `merge`, that one figure,
//! * `--html-only` — with `--html`: write the HTML artefact and suppress the
//!   stdout report,
//! * `--metrics <file>` — on exit, append one [`obs::metrics`] snapshot of
//!   the process-global registry to `file` as a JSONL line (unit latencies,
//!   event counts — whatever the run instrumented),
//! * `--help` — print usage.

use std::path::PathBuf;

use simsys::store::ResultStore;
use workloads::Scale;

/// The run id recorded when `--run-id` is not given.
pub const DEFAULT_RUN_ID: &str = "adhoc";

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOptions {
    /// Emit JSON instead of the text rendering.
    pub json: bool,
    /// Workload scale.
    pub scale: Scale,
    /// Session worker threads.
    pub threads: usize,
    /// Result-store directory, if any (`--store`, else `MUONTRAP_STORE`,
    /// either silenced by `--no-store`).
    pub store: Option<PathBuf>,
    /// Open the store read-only (`--store-readonly`).
    pub store_readonly: bool,
    /// Stream JSONL run events to this file (`--events`).
    pub events: Option<PathBuf>,
    /// The run's label in HTML provenance lines (`--run-id`).
    pub run_id: String,
    /// Write a self-contained HTML rendering to this file (`--html`).
    pub html: Option<PathBuf>,
    /// Suppress the stdout report, keeping only the HTML artefact
    /// (`--html-only`).
    pub html_only: bool,
    /// Append an [`obs::metrics`] registry snapshot (one JSONL line) to this
    /// file on exit (`--metrics`).
    pub metrics: Option<PathBuf>,
    /// The bare (non-flag) arguments, in order.
    pub args: Vec<String>,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            json: false,
            scale: Scale::Small,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            store: std::env::var_os("MUONTRAP_STORE").map(PathBuf::from),
            store_readonly: false,
            events: None,
            run_id: DEFAULT_RUN_ID.to_string(),
            html: None,
            html_only: false,
            metrics: None,
            args: Vec::new(),
        }
    }
}

impl CliOptions {
    /// Parses an argument list (excluding the program name). When both
    /// `--store` and `--no-store` appear, the last one wins.
    ///
    /// # Errors
    /// Returns a usage message when a flag is unknown or a value is missing
    /// or malformed.
    pub fn parse<I, S>(args: I) -> Result<CliOptions, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut options = CliOptions::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_ref() {
                "--json" => options.json = true,
                "--scale" => {
                    let value = args.next().ok_or("--scale needs a value")?;
                    options.scale = value.as_ref().parse::<Scale>().map_err(|e| e.to_string())?;
                }
                "--threads" => {
                    let value = args.next().ok_or("--threads needs a value")?;
                    let parsed: usize = value
                        .as_ref()
                        .parse()
                        .map_err(|_| format!("invalid thread count `{}`", value.as_ref()))?;
                    if parsed == 0 {
                        return Err("--threads must be at least 1".to_string());
                    }
                    options.threads = parsed;
                }
                "--store" => {
                    let value = args.next().ok_or("--store needs a directory")?;
                    options.store = Some(PathBuf::from(value.as_ref()));
                }
                "--no-store" => options.store = None,
                "--store-readonly" => options.store_readonly = true,
                "--events" => {
                    let value = args.next().ok_or("--events needs a file")?;
                    options.events = Some(PathBuf::from(value.as_ref()));
                }
                "--run-id" => {
                    let value = args.next().ok_or("--run-id needs a value")?;
                    options.run_id = value.as_ref().to_string();
                }
                "--html" => {
                    let value = args.next().ok_or("--html needs a file")?;
                    options.html = Some(PathBuf::from(value.as_ref()));
                }
                "--html-only" => options.html_only = true,
                "--metrics" => {
                    let value = args.next().ok_or("--metrics needs a file")?;
                    options.metrics = Some(PathBuf::from(value.as_ref()));
                }
                "--help" | "-h" => return Err(usage()),
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown flag `{flag}`\n{}", usage()))
                }
                bare => options.args.push(bare.to_string()),
            }
        }
        if options.html_only && options.html.is_none() {
            return Err(
                "--html-only needs --html FILE (there is nothing else to emit)".to_string(),
            );
        }
        Ok(options)
    }

    /// Opens the configured result store (honouring `--store-readonly`),
    /// exiting with a diagnostic if the directory cannot be created. `None`
    /// when no store is configured.
    pub fn open_store(&self) -> Option<ResultStore> {
        self.store.as_ref().map(|path| {
            if self.store_readonly {
                ResultStore::read_only(path)
            } else {
                ResultStore::open(path).unwrap_or_else(|e| {
                    eprintln!("cannot open result store at {}: {e}", path.display());
                    std::process::exit(2);
                })
            }
        })
    }
}

/// The flags every binary shares, as the usage messages print them.
pub const FLAGS: &str = "[--json] [--scale tiny|small|large] [--threads N] \
     [--store DIR] [--no-store] [--store-readonly] [--events FILE] [--run-id ID] \
     [--html FILE [--html-only]] [--metrics FILE]";

/// The usage text shared by the binaries that take no bare argument.
pub fn usage() -> String {
    format!("usage: <binary> {FLAGS}")
}

/// Parses `std::env::args`, printing `usage` and exiting 0 on `--help`, or
/// printing the error and exiting 2 on a parse error. Bare arguments are
/// left in [`CliOptions::args`].
pub fn parse_args_or_exit(usage: &str) -> CliOptions {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{usage}");
        std::process::exit(0);
    }
    CliOptions::parse(args).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    })
}

/// [`parse_args_or_exit`] for the binaries that take no bare argument: one
/// is a usage error (exit 2).
pub fn parse_or_exit() -> CliOptions {
    let options = parse_args_or_exit(&usage());
    if let Some(arg) = options.args.first() {
        eprintln!("unexpected argument `{arg}`\n{}", usage());
        std::process::exit(2);
    }
    options
}

/// Opens the `--events` sink, exiting with a diagnostic on failure.
pub fn open_events(options: &CliOptions) -> Option<std::fs::File> {
    options.events.as_ref().map(|path| {
        std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create event log {}: {e}", path.display());
            std::process::exit(2);
        })
    })
}

/// Appends one snapshot of the process-global [`obs::metrics`] registry to
/// the `--metrics` file as a JSONL line. A no-op when `--metrics` was not
/// given. Call once, when the run's work is finished — appending (rather
/// than truncating) lets a wrapper collect several invocations into one
/// telemetry log.
pub fn write_metrics(options: &CliOptions) {
    let Some(path) = &options.metrics else {
        return;
    };
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut file| obs::metrics::global().write_snapshot_jsonl(&mut file));
    if let Err(e) = result {
        // Telemetry must never fail the run it observes.
        eprintln!("cannot write metrics snapshot {}: {e}", path.display());
    }
}

/// Writes the HTML artefact for `--html`, exiting with a diagnostic on
/// failure. A no-op when `--html` was not given.
pub fn write_html(options: &CliOptions, html: impl FnOnce() -> String) {
    if let Some(path) = &options.html {
        std::fs::write(path, html()).unwrap_or_else(|e| {
            eprintln!("cannot write HTML report {}: {e}", path.display());
            std::process::exit(2);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_old_binaries() {
        let options = CliOptions::parse(Vec::<String>::new()).unwrap();
        assert!(!options.json);
        assert_eq!(options.scale, Scale::Small);
        assert!(options.threads >= 1);
        assert!(!options.store_readonly);
        assert_eq!(options.run_id, DEFAULT_RUN_ID);
    }

    #[test]
    fn all_flags_parse() {
        let options = CliOptions::parse([
            "--json",
            "--scale",
            "large",
            "--threads",
            "3",
            "--store",
            "/tmp/s",
            "--events",
            "/tmp/e.jsonl",
            "--run-id",
            "nightly-7",
        ])
        .unwrap();
        assert!(options.json);
        assert_eq!(options.scale, Scale::Large);
        assert_eq!(options.threads, 3);
        assert_eq!(options.store, Some(PathBuf::from("/tmp/s")));
        assert_eq!(options.events, Some(PathBuf::from("/tmp/e.jsonl")));
        assert_eq!(options.run_id, "nightly-7");
    }

    #[test]
    fn bare_arguments_are_collected_and_flag_values_are_not() {
        let options = CliOptions::parse([
            "fig5",
            "--metrics",
            "m.jsonl",
            "--events",
            "e.jsonl",
            "s0.jsonl",
            "--json",
            "s1.jsonl",
        ])
        .unwrap();
        assert_eq!(options.args, ["fig5", "s0.jsonl", "s1.jsonl"]);
        assert_eq!(options.metrics, Some(PathBuf::from("m.jsonl")));
        assert_eq!(options.events, Some(PathBuf::from("e.jsonl")));
        assert!(options.json);
        assert!(CliOptions::parse(Vec::<String>::new())
            .unwrap()
            .args
            .is_empty());
    }

    #[test]
    fn no_store_silences_an_earlier_store_and_vice_versa() {
        let off = CliOptions::parse(["--store", "/tmp/s", "--no-store"]).unwrap();
        assert_eq!(off.store, None);
        assert_eq!(off.open_store().map(|_| ()), None);
        let on = CliOptions::parse(["--no-store", "--store", "/tmp/s"]).unwrap();
        assert_eq!(on.store, Some(PathBuf::from("/tmp/s")));
    }

    #[test]
    fn readonly_stores_open_without_creating_the_directory() {
        let options =
            CliOptions::parse(["--store", "/tmp/muontrap-no-such-store", "--store-readonly"])
                .unwrap();
        let store = options.open_store().unwrap();
        assert!(store.is_read_only());
        assert!(
            !PathBuf::from("/tmp/muontrap-no-such-store").exists(),
            "read-only stores must not create directories"
        );
    }

    #[test]
    fn html_flags_parse_and_validate() {
        let options = CliOptions::parse(["--html", "/tmp/report.html", "--html-only"]).unwrap();
        assert_eq!(options.html, Some(PathBuf::from("/tmp/report.html")));
        assert!(options.html_only);
        let plain = CliOptions::parse(Vec::<String>::new()).unwrap();
        assert_eq!(plain.html, None);
        assert!(!plain.html_only);
        assert!(
            CliOptions::parse(["--html-only"]).is_err(),
            "--html-only without --html has nothing to emit"
        );
    }

    #[test]
    fn metrics_flag_parses_and_snapshots_append() {
        let options = CliOptions::parse(["--metrics", "/tmp/m.jsonl"]).unwrap();
        assert_eq!(options.metrics, Some(PathBuf::from("/tmp/m.jsonl")));
        assert_eq!(
            CliOptions::parse(Vec::<String>::new()).unwrap().metrics,
            None
        );
        assert!(CliOptions::parse(["--metrics"]).is_err());

        let dir = std::env::temp_dir().join("muontrap-metrics-flag-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.jsonl");
        let _ = std::fs::remove_file(&path);
        obs::metrics::global().inc("cli.test_counter", &[], 1);
        let options = CliOptions::parse(["--metrics", path.to_str().unwrap()]).unwrap();
        write_metrics(&options);
        write_metrics(&options);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "each call appends one JSONL line");
        assert!(text.contains("cli.test_counter"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_input_is_rejected_with_usage() {
        assert!(CliOptions::parse(["--scale"]).is_err());
        assert!(CliOptions::parse(["--scale", "huge"]).is_err());
        assert!(CliOptions::parse(["--threads", "0"]).is_err());
        assert!(CliOptions::parse(["--threads", "lots"]).is_err());
        assert!(CliOptions::parse(["--store"]).is_err());
        assert!(CliOptions::parse(["--wat"]).unwrap_err().contains("usage:"));
        assert!(CliOptions::parse(["--html"]).is_err());
        assert!(usage().contains("--store"));
        assert!(usage().contains("--events"));
        assert!(usage().contains("--html"));
    }
}
