//! The content-addressed result store in action: run a figure-3-shaped grid
//! twice against the same store directory and watch the second run complete
//! without executing a single simulation.
//!
//! ```text
//! cargo run --release --example warm_store
//! ```
//!
//! The same mechanism backs every figure binary via `--store DIR` (or the
//! `MUONTRAP_STORE` environment variable), so regenerating the paper's
//! evaluation after a code change only re-simulates what the change actually
//! invalidated — the store keys on workload code, machine/defense
//! configuration and the simulator version.

use std::time::Instant;

use muontrap_repro::prelude::*;

fn main() {
    // Unique per run (pid alone can be recycled, leaving a stale warm store
    // behind if a previous run crashed before its cleanup).
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    let dir = std::env::temp_dir().join(format!(
        "muontrap-warm-store-{}-{nanos}",
        std::process::id()
    ));
    let grid = || {
        ExperimentSession::new()
            .title("SPEC-like subset under the figure-3 defenses")
            .scale(Scale::Tiny)
            .workloads(spec_suite(Scale::Tiny).into_iter().take(6))
            .defenses(DefenseKind::figure3_set())
            .config(SystemConfig::small_test())
            .with_store(&dir)
    };

    println!("store: {}\n", dir.display());
    let started = Instant::now();
    let cold = grid().run();
    println!(
        "cold run : {:>4} simulations executed ({} baselines + {} cells), {:.0} ms",
        cold.sims_executed,
        cold.baseline_sims,
        cold.sims_executed - cold.baseline_sims,
        started.elapsed().as_secs_f64() * 1e3,
    );

    let started = Instant::now();
    let warm = grid().run();
    println!(
        "warm run : {:>4} simulations executed, {:>3.0}% store hits, {:.2} ms",
        warm.sims_executed,
        warm.cache_hit_rate() * 100.0,
        started.elapsed().as_secs_f64() * 1e3,
    );
    assert_eq!(warm.sims_executed, 0);
    assert_eq!(warm.cells, {
        let mut cells = cold.cells.clone();
        for cell in &mut cells {
            cell.cached = true; // the only difference: provenance
        }
        cells
    });

    // Changing any keyed input — here, the filter-cache geometry — misses.
    let started = Instant::now();
    let changed = grid()
        .config(SystemConfig::small_test().with_data_filter(256, 4))
        .run();
    println!(
        "changed  : {:>4} simulations executed after resizing the filter cache, {:.0} ms",
        changed.sims_executed,
        started.elapsed().as_secs_f64() * 1e3,
    );
    assert!(changed.sims_executed > 0);
    assert_eq!(
        changed.baseline_sims, 0,
        "the unprotected baseline ignores filter geometry, so it still hits"
    );

    std::fs::remove_dir_all(&dir).ok();
    println!("\n(The figure binary shares this: `figure fig3 --store DIR`, run twice.)");
}
