//! Acceptance tests for the content-addressed result store, end to end:
//!
//! * regenerating a figure against a warm store performs **zero**
//!   simulations and reproduces every cell exactly,
//! * the `figure fig3` binary's `--store` flag round-trips the same guarantee
//!   across two separate processes,
//! * `--no-store` really disables persistence.

use std::path::PathBuf;
use std::process::Command;

use simkit::config::SystemConfig;
use simkit::json::{self, FromJson};
use simsys::session::RunReport;
use simsys::store::ResultStore;
use workloads::Scale;

fn run_figure(name: &str, config: &SystemConfig, store: &ResultStore) -> RunReport {
    bench::figure_session(name, Scale::Tiny, config, 2, Some(store))
        .unwrap()
        .run()
}

fn temp_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    std::env::temp_dir().join(format!(
        "muontrap-bench-store-{tag}-{}-{nanos}",
        std::process::id()
    ))
}

/// The payload of a cell minus its store provenance, for cold/warm equality.
fn payload(report: &RunReport) -> Vec<(String, String, u64, u64, f64)> {
    report
        .cells
        .iter()
        .map(|c| {
            (
                c.workload.clone(),
                c.column.clone(),
                c.cycles,
                c.baseline_cycles,
                c.normalized_time,
            )
        })
        .collect()
}

#[test]
fn warm_store_figure_regeneration_runs_zero_simulations() {
    let dir = temp_dir("figure3");
    let config = SystemConfig::small_test();
    let store = ResultStore::open(&dir).expect("store opens");

    let cold = run_figure("fig3", &config, &store);
    assert!(cold.sims_executed > 0);
    assert_eq!(cold.cached_cells(), 0);
    // Everything the grid paid for is now on disk.
    assert_eq!(store.len(), cold.sims_executed);

    let warm = run_figure("fig3", &config, &store);
    assert_eq!(
        warm.sims_executed, 0,
        "second figure3 against a warm store must not simulate"
    );
    assert_eq!(warm.baseline_sims, 0);
    assert!(warm.cells.iter().all(|cell| cell.cached));
    assert_eq!(warm.cache_hit_rate(), 1.0);
    assert_eq!(payload(&cold), payload(&warm));
    assert_eq!(cold.geomeans(), warm.geomeans());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_figures_share_baseline_entries_through_the_store() {
    let dir = temp_dir("sweep");
    let config = SystemConfig::small_test();
    let store = ResultStore::open(&dir).expect("store opens");

    // Figure 5 sweeps filter-cache sizes; its baselines are canonicalised, so
    // figure 6 (associativity sweep, same workloads, same canonical baseline
    // machine) must reuse them from the store and only pay for its own cells.
    let fig5 = run_figure("fig5", &config, &store);
    assert!(fig5.baseline_sims > 0);
    let fig6 = run_figure("fig6", &config, &store);
    assert_eq!(
        fig6.baseline_sims, 0,
        "figure 6 baselines must come from figure 5's store entries"
    );
    // Cross-figure cell sharing: figure 6's 32-way point on a 2 KiB filter is
    // byte-for-byte figure 5's fully-associative 2 KiB point, so it hits too;
    // every other sweep point is new and simulates.
    for (w, name) in fig6.workloads.iter().enumerate() {
        for (c, column) in fig6.columns.iter().enumerate() {
            let cell = fig6.cell(w, c);
            assert_eq!(
                cell.cached,
                column == "32-way",
                "unexpected provenance for {name}/{column}"
            );
        }
    }
    assert_eq!(fig6.sims_executed, fig6.cells.len() - fig6.cached_cells());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig3_binary_store_flag_survives_across_processes() {
    let dir = temp_dir("binary");
    let run = |extra: &[&str]| -> RunReport {
        let mut args = vec!["fig3", "--json", "--scale", "tiny", "--threads", "2"];
        args.extend_from_slice(extra);
        let output = Command::new(env!("CARGO_BIN_EXE_figure"))
            .args(&args)
            .output()
            .expect("figure binary runs");
        assert!(
            output.status.success(),
            "figure {args:?} failed: {output:?}"
        );
        let stdout = String::from_utf8(output.stdout).expect("figure emits UTF-8");
        RunReport::from_json(&json::parse(&stdout).expect("valid JSON")).expect("a RunReport")
    };

    let store_flag = dir.to_str().expect("temp dir is UTF-8").to_string();
    let cold = run(&["--store", &store_flag]);
    assert!(cold.sims_executed > 0);
    assert!(cold.cells.iter().all(|cell| !cell.cached));

    let warm = run(&["--store", &store_flag]);
    assert_eq!(
        warm.sims_executed, 0,
        "a second figure fig3 process against the same store must not simulate"
    );
    assert!(warm.cells.iter().all(|cell| cell.cached));
    assert_eq!(payload(&cold), payload(&warm));

    // --no-store after --store must ignore the warm store entirely.
    let opted_out = run(&["--store", &store_flag, "--no-store"]);
    assert!(opted_out.sims_executed > 0);
    assert!(opted_out.cells.iter().all(|cell| !cell.cached));

    std::fs::remove_dir_all(&dir).ok();
}
