//! Design-space exploration: sweep the data filter cache's size and
//! associativity on a subset of the Parsec-like suite, reproducing the shape
//! of figures 5 and 6 of the paper at a reduced scale.
//!
//! Each sweep is one [`ExperimentSession`] with a `config_sweep` axis; the
//! unprotected baseline ignores filter-cache geometry, so every sweep point
//! shares the same per-workload baseline run.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use muontrap_repro::prelude::*;

fn print_sweep(report: &RunReport) {
    print!("{:<16}", "config");
    for name in &report.workloads {
        print!("{name:>16}");
    }
    println!();
    for (c, label) in report.columns.iter().enumerate() {
        print!("{label:<16}");
        for w in 0..report.workloads.len() {
            print!("{:>16.3}", report.cell(w, c).normalized_time);
        }
        println!();
    }
}

fn main() {
    let config = SystemConfig::paper_default();
    // Two cache-sensitive kernels keep the example quick; `figure fig5` and
    // `figure fig6` in the `bench` crate run the full suite.
    let chosen: Vec<Workload> = parsec_suite(Scale::Tiny, config.cores)
        .into_iter()
        .filter(|w| w.name == "streamcluster" || w.name == "freqmine")
        .collect();

    println!("== Filter-cache size sweep (fully associative), normalised execution time ==");
    let sizes = ExperimentSession::new()
        .workloads(chosen.clone())
        .config_sweep(
            DefenseKind::MuonTrap,
            [64u64, 256, 1024, 2048, 4096].map(|size| {
                (
                    format!("{size} B"),
                    config.with_data_filter(size, (size / config.line_bytes) as usize),
                )
            }),
        )
        .run();
    print_sweep(&sizes);

    println!("\n== 2 KiB filter-cache associativity sweep, normalised execution time ==");
    let ways = ExperimentSession::new()
        .workloads(chosen)
        .config_sweep(
            DefenseKind::MuonTrap,
            [1usize, 2, 4, 8, 32]
                .map(|ways| (format!("{ways}-way"), config.with_data_filter(2048, ways))),
        )
        .run();
    print_sweep(&ways);

    println!(
        "\n(Each sweep ran {} simulations but only {} baselines: the unprotected",
        sizes.cells.len() + sizes.baseline_sims,
        sizes.baseline_sims
    );
    println!("machine ignores filter-cache geometry, so sweep points share baselines.)");
    println!("\nExpected shape (paper, figures 5 and 6): large slowdowns below ~256 B,");
    println!(
        "diminishing returns past 2 KiB, and full performance recovered by 4-way associativity."
    );
}
