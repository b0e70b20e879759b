//! Store maintenance: evict least-recently-modified result entries until the
//! store fits a byte cap, and sweep temp-file litter from crashed writers.
//! Prints a JSON [`GcSummary`](simsys::store::GcSummary) of what was
//! reclaimed.
//!
//! ```text
//! store_gc --store /data/store --max-bytes 104857600   # cap at 100 MiB
//! store_gc --store /data/store --max-bytes 0           # empty the store
//! ```
//!
//! Eviction is safe at any time — a missing entry is just a cache miss that
//! re-simulates — but running it concurrently with an active run wastes its
//! freshly written results.

use simkit::json::ToJson;
use simsys::store::ResultStore;

fn main() {
    let mut store: Option<std::path::PathBuf> =
        std::env::var_os("MUONTRAP_STORE").map(std::path::PathBuf::from);
    let mut max_bytes: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store" => match args.next() {
                Some(value) => store = Some(std::path::PathBuf::from(value)),
                None => exit_usage("--store needs a directory"),
            },
            "--max-bytes" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(value)) => max_bytes = Some(value),
                _ => exit_usage("--max-bytes needs a byte count"),
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return;
            }
            other => exit_usage(&format!("unknown flag `{other}`")),
        }
    }
    let Some(store) = store else {
        exit_usage("--store DIR (or MUONTRAP_STORE) is required");
    };
    let Some(max_bytes) = max_bytes else {
        exit_usage("--max-bytes N is required");
    };
    let store = ResultStore::open(&store).unwrap_or_else(|e| {
        eprintln!("cannot open result store at {}: {e}", store.display());
        std::process::exit(2);
    });
    match store.gc(max_bytes) {
        Ok(summary) => println!("{}", summary.to_json().to_string_pretty()),
        Err(e) => {
            eprintln!("gc failed: {e}");
            std::process::exit(1);
        }
    }
}

fn usage() -> String {
    "usage: store_gc --store DIR --max-bytes N".to_string()
}

fn exit_usage(message: &str) -> ! {
    eprintln!("{message}\n{}", usage());
    std::process::exit(2);
}
