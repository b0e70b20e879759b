//! The tiny shared argument parser behind every figure binary.
//!
//! All the binaries accept the same flags:
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
//! * `--shard-id <i> --shard-count <n>` — run as shard *i* of an *n*-process
//!   cooperating run (requires `--store` and `--events`; shards coordinate
//!   through lease files under the store). The binary then prints a
//!   [`simsys::runner::ShardSummary`] instead of a report; fold the event logs with the
//!   `merge` binary,
//! * `--run-id <id>` — the identifier shared by every shard of one logical
//!   run (and reused when resuming it). Required with `--shard-id`, and must
//!   be unique per logical run,
//! * `--lease-ttl-ms <ms>` — override the shard lease TTL (default 30000).
//!   The heartbeat interval is clamped to a third of it, so short TTLs (used
//!   by the `fleet` supervisor to reclaim killed shards quickly) keep live
//!   shards beating well inside their leases,
//! * `--html <file>` — additionally render the report as a self-contained
//!   HTML page (inline SVG chart, inline CSS, no external assets) via
//!   [`crate::render`]. On `report`, the page covers every figure plus the
//!   domain-switch table; on a figure binary or `merge`, that one figure,
//! * `--html-only` — with `--html`: write the HTML artefact and suppress the
//!   stdout report,
//! * `--metrics <file>` — on exit, append one [`obs::metrics`] snapshot of
//!   the process-global registry to `file` as a JSONL line (unit latencies,
//!   event counts — whatever the run instrumented),
//! * `--tiny` — backwards-compatible alias for `--scale tiny`,
//! * `--help` — print usage.

use std::path::PathBuf;

use simkit::config::SystemConfig;
use simkit::json::ToJson;
use simsys::runner::ShardOptions;
use simsys::session::{ExperimentSession, RunReport};
use simsys::store::ResultStore;
use workloads::Scale;

/// The placeholder run id of non-sharded invocations. Sharded runs must
/// name their own (see [`CliOptions::parse`]): freshness provenance is
/// keyed on it, so silently sharing a default across distinct runs would
/// corrupt the cached/fresh accounting of every later run on the store.
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
    /// Run as this shard of a multi-process run (`--shard-id`).
    pub shard_id: Option<usize>,
    /// Total shards of the run (`--shard-count`, default 1).
    pub shard_count: usize,
    /// Identifier shared by all shards of one logical run (`--run-id`).
    pub run_id: String,
    /// Shard lease TTL override in milliseconds (`--lease-ttl-ms`).
    pub lease_ttl_ms: Option<u64>,
    /// Write a self-contained HTML rendering to this file (`--html`).
    pub html: Option<PathBuf>,
    /// Suppress the stdout report, keeping only the HTML artefact
    /// (`--html-only`).
    pub html_only: bool,
    /// Append an [`obs::metrics`] registry snapshot (one JSONL line) to this
    /// file on exit (`--metrics`).
    pub metrics: Option<PathBuf>,
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
            shard_id: None,
            shard_count: 1,
            run_id: DEFAULT_RUN_ID.to_string(),
            lease_ttl_ms: None,
            html: None,
            html_only: false,
            metrics: None,
        }
    }
}

impl CliOptions {
    /// Parses an argument list (excluding the program name). When both
    /// `--store` and `--no-store` appear, the last one wins.
    ///
    /// # Errors
    /// Returns a usage message when a flag is unknown, a value is missing or
    /// malformed, or the sharding flags are inconsistent.
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
                "--tiny" => options.scale = Scale::Tiny,
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
                "--shard-id" => {
                    let value = args.next().ok_or("--shard-id needs a value")?;
                    options.shard_id = Some(
                        value
                            .as_ref()
                            .parse()
                            .map_err(|_| format!("invalid shard id `{}`", value.as_ref()))?,
                    );
                }
                "--shard-count" => {
                    let value = args.next().ok_or("--shard-count needs a value")?;
                    let parsed: usize = value
                        .as_ref()
                        .parse()
                        .map_err(|_| format!("invalid shard count `{}`", value.as_ref()))?;
                    if parsed == 0 {
                        return Err("--shard-count must be at least 1".to_string());
                    }
                    options.shard_count = parsed;
                }
                "--run-id" => {
                    let value = args.next().ok_or("--run-id needs a value")?;
                    options.run_id = value.as_ref().to_string();
                }
                "--lease-ttl-ms" => {
                    let value = args.next().ok_or("--lease-ttl-ms needs a value")?;
                    let parsed: u64 = value
                        .as_ref()
                        .parse()
                        .map_err(|_| format!("invalid lease TTL `{}`", value.as_ref()))?;
                    if parsed == 0 {
                        return Err("--lease-ttl-ms must be at least 1".to_string());
                    }
                    options.lease_ttl_ms = Some(parsed);
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
                other => return Err(format!("unknown flag `{other}`\n{}", usage())),
            }
        }
        if options.html_only && options.html.is_none() {
            return Err(
                "--html-only needs --html FILE (there is nothing else to emit)".to_string(),
            );
        }
        if let Some(shard_id) = options.shard_id {
            if options.html.is_some() {
                // A shard resolves only its share of the grid; the complete
                // artefact comes from folding every shard's event log.
                return Err(
                    "shards emit event logs, not reports; render the HTML from the \
                     folded logs with `merge --html`"
                        .to_string(),
                );
            }
            if shard_id >= options.shard_count {
                return Err(format!(
                    "--shard-id {shard_id} out of range for --shard-count {}",
                    options.shard_count
                ));
            }
            if options.store.is_none() {
                return Err("sharded runs need --store (shards coordinate through it)".to_string());
            }
            if options.store_readonly {
                return Err("sharded runs need a writable store; drop --store-readonly".to_string());
            }
            if options.events.is_none() {
                return Err(
                    "sharded runs need --events FILE (the merge step folds the logs)".to_string(),
                );
            }
            if options.run_id == DEFAULT_RUN_ID {
                // Freshness provenance is keyed on the run id, and done
                // markers outlive the run — a silently shared default would
                // make every later run on the same store misreport its
                // store hits as fresh simulations.
                return Err(
                    "sharded runs need an explicit --run-id, unique per logical run \
                     (reuse one only to resume that run)"
                        .to_string(),
                );
            }
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

    /// The [`ShardOptions`] for this invocation, when `--shard-id` was given.
    /// `--lease-ttl-ms` overrides the TTL, clamping the heartbeat interval
    /// to a third of it so the shard always beats well inside its lease.
    pub fn shard_options(&self) -> Option<ShardOptions> {
        self.shard_id.map(|id| {
            let mut opts = ShardOptions::new(id, self.shard_count, self.run_id.clone());
            if let Some(ttl) = self.lease_ttl_ms {
                opts.lease_ttl_ms = ttl;
                opts.heartbeat_ms = opts.heartbeat_ms.min((ttl / 3).max(1));
            }
            opts
        })
    }
}

/// The usage text shared by every binary.
pub fn usage() -> String {
    "usage: <binary> [--json] [--scale tiny|small|large] [--threads N] \
     [--store DIR] [--no-store] [--store-readonly] [--events FILE] \
     [--shard-id I --shard-count N] [--run-id ID] [--lease-ttl-ms MS] \
     [--html FILE [--html-only]] [--metrics FILE] [--tiny]"
        .to_string()
}

/// Parses `std::env::args`, exiting with the usage message on `--help` or a
/// parse error.
pub fn parse_or_exit() -> CliOptions {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        std::process::exit(0);
    }
    match CliOptions::parse(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
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
    if let Some(path) = &options.metrics {
        write_metrics_to(path);
    }
}

/// [`write_metrics`] for binaries with their own flag parsing (`fleet`).
pub fn write_metrics_to(path: &std::path::Path) {
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

/// Standard main body for a figure binary: parse flags, open the store,
/// build the *session* for the figure registered as `name` (see
/// [`crate::FIGURE_NAMES`]), then either run it locally (printing JSON with
/// `--json`, or Table 1 plus the rendered figure; `--html` additionally
/// writes the figure's self-contained HTML page) or — with `--shard-id` —
/// execute one shard of it against the shared store, streaming events to
/// `--events` and printing the [`simsys::runner::ShardSummary`] as JSON.
/// Every execution path goes through the [`simsys::runner`] pipeline.
pub fn figure_main(
    name: &str,
    build: impl FnOnce(&CliOptions, &SystemConfig, Option<&ResultStore>) -> ExperimentSession,
) {
    figure_main_rendered(name, build, |report| {
        crate::Figure::from_report(report).render()
    });
}

/// [`figure_main`] with a custom text-mode rendering (used by `fig7`, whose
/// figure is the invalidation-broadcast *rates* derived from the report's
/// counters, not the normalised times). `--json` still emits the full
/// [`RunReport`], and the sharded path is identical. (`--html` needs no
/// such override: the chart shape is the registry's
/// [`FigureMeta`](reportgen::FigureMeta), which already encodes the
/// counter-ratio derivation.)
pub fn figure_main_rendered(
    name: &str,
    build: impl FnOnce(&CliOptions, &SystemConfig, Option<&ResultStore>) -> ExperimentSession,
    render: impl FnOnce(&RunReport) -> String,
) {
    let options = parse_or_exit();
    let config = SystemConfig::paper_default();
    let store = options.open_store();
    let session = build(&options, &config, store.as_ref());
    if let Some(shard) = options.shard_options() {
        let mut events = open_events(&options).expect("--shard-id implies --events");
        match session.run_sharded(&shard, &mut events) {
            Ok(summary) => {
                write_metrics(&options);
                println!("{}", summary.to_json().to_string_pretty());
            }
            Err(e) => {
                eprintln!("shard {} failed: {e}", shard.shard_id);
                std::process::exit(1);
            }
        }
        return;
    }
    let mut events = open_events(&options);
    let report = session.run_with_events(match &mut events {
        Some(file) => Some(file),
        None => None,
    });
    write_metrics(&options);
    write_html(&options, || {
        crate::render::figure_document(name, &report, &options.run_id)
            .unwrap_or_else(|| panic!("figure binaries pass registered names; got `{name}`"))
    });
    if options.html_only {
        return;
    }
    if options.json {
        println!("{}", report.to_json().to_string_pretty());
    } else {
        println!("{}", crate::table1());
        println!("{}", render(&report));
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
        assert_eq!(options.shard_id, None);
        assert_eq!(options.shard_count, 1);
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
            "--shard-id",
            "1",
            "--shard-count",
            "4",
            "--run-id",
            "nightly-7",
        ])
        .unwrap();
        assert!(options.json);
        assert_eq!(options.scale, Scale::Large);
        assert_eq!(options.threads, 3);
        assert_eq!(options.store, Some(PathBuf::from("/tmp/s")));
        assert_eq!(options.events, Some(PathBuf::from("/tmp/e.jsonl")));
        assert_eq!(options.shard_id, Some(1));
        assert_eq!(options.shard_count, 4);
        assert_eq!(options.run_id, "nightly-7");
        let shard = options.shard_options().unwrap();
        assert_eq!(shard.shard_id, 1);
        assert_eq!(shard.shard_count, 4);
        assert_eq!(shard.run_id, "nightly-7");
    }

    #[test]
    fn tiny_is_an_alias_for_scale_tiny() {
        let options = CliOptions::parse(["--tiny"]).unwrap();
        assert_eq!(options.scale, Scale::Tiny);
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
    fn sharded_runs_require_a_writable_store_and_an_event_log() {
        let shard = |extra: &[&str]| {
            let mut args = vec!["--shard-id", "0", "--shard-count", "2"];
            args.extend_from_slice(extra);
            CliOptions::parse(args)
        };
        assert!(shard(&[]).is_err(), "no store");
        assert!(shard(&["--store", "/tmp/s"]).is_err(), "no events");
        assert!(
            shard(&[
                "--store",
                "/tmp/s",
                "--events",
                "/tmp/e",
                "--store-readonly"
            ])
            .is_err(),
            "read-only store"
        );
        assert!(
            shard(&["--store", "/tmp/s", "--events", "/tmp/e"]).is_err(),
            "the default run id must be rejected: done markers outlive runs"
        );
        assert!(shard(&["--store", "/tmp/s", "--events", "/tmp/e", "--run-id", "r1"]).is_ok());
        assert!(
            CliOptions::parse(["--shard-id", "2", "--shard-count", "2"]).is_err(),
            "shard id out of range"
        );
    }

    #[test]
    fn lease_ttl_overrides_shard_options_and_clamps_the_heartbeat() {
        let shard = |extra: &[&str]| {
            let mut args = vec![
                "--shard-id",
                "0",
                "--shard-count",
                "2",
                "--store",
                "/tmp/s",
                "--events",
                "/tmp/e",
                "--run-id",
                "r1",
            ];
            args.extend_from_slice(extra);
            CliOptions::parse(args).unwrap().shard_options().unwrap()
        };
        let default = shard(&[]);
        assert_eq!(default.lease_ttl_ms, 30_000);
        assert_eq!(default.heartbeat_ms, 5_000);
        let long = shard(&["--lease-ttl-ms", "60000"]);
        assert_eq!(long.lease_ttl_ms, 60_000);
        assert_eq!(
            long.heartbeat_ms, 5_000,
            "a longer TTL keeps the default beat"
        );
        let short = shard(&["--lease-ttl-ms", "300"]);
        assert_eq!(short.lease_ttl_ms, 300);
        assert_eq!(
            short.heartbeat_ms, 100,
            "the beat is clamped to a third of the TTL"
        );
        assert!(CliOptions::parse(["--lease-ttl-ms", "0"]).is_err());
        assert!(CliOptions::parse(["--lease-ttl-ms"]).is_err());
        assert!(usage().contains("--lease-ttl-ms"));
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
        assert!(
            CliOptions::parse([
                "--shard-id",
                "0",
                "--shard-count",
                "2",
                "--store",
                "/tmp/s",
                "--events",
                "/tmp/e",
                "--run-id",
                "r1",
                "--html",
                "/tmp/x.html",
            ])
            .unwrap_err()
            .contains("merge --html"),
            "shards produce event logs, not rendered reports"
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
        write_metrics_to(&path);
        write_metrics_to(&path);
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
        assert!(CliOptions::parse(["--shard-count", "0"]).is_err());
        assert!(CliOptions::parse(["--wat"]).unwrap_err().contains("usage:"));
        assert!(CliOptions::parse(["--html"]).is_err());
        assert!(usage().contains("--store"));
        assert!(usage().contains("--shard-id"));
        assert!(usage().contains("--events"));
        assert!(usage().contains("--html"));
    }
}
