//! MuonTrap reproduction — facade crate.
//!
//! This crate re-exports the whole workspace so a downstream user can depend
//! on one package and reach every layer of the reproduction of *MuonTrap:
//! Preventing Cross-Domain Spectre-Like Attacks by Capturing Speculative
//! State* (Ainsworth & Jones, ISCA 2020):
//!
//! * [`simkit`] — configuration (Table 1), statistics, addresses, JSON;
//! * [`uarch_isa`] — the µISA workload substrate and functional interpreter;
//! * [`memsys`] — caches, MESI coherence, DRAM, prefetcher, TLBs;
//! * [`ooo_core`] — the out-of-order speculative core model;
//! * [`muontrap`] — the paper's contribution: speculative filter caches;
//! * [`defenses`] — the unprotected baseline, InvisiSpec and STT comparisons;
//! * [`workloads`] — SPEC-like and Parsec-like synthetic kernels;
//! * [`simsys`] — processes, scheduling, the experiment session and the
//!   content-addressed result store;
//! * [`attacks`] — the six attack litmus tests;
//! * [`reportgen`] — dependency-free SVG charts and the self-contained HTML
//!   evaluation report (`report --html report.html` regenerates every
//!   figure as one browsable page);
//! * [`obs`] — the telemetry core behind run observability: the metrics
//!   registry the simulator instruments, monotonic timestamps, and the
//!   text primitives of the `merge --watch` live dashboard.
//!
//! # Quickstart
//!
//! Experiments are grids declared on an
//! [`ExperimentSession`](simsys::session::ExperimentSession): workloads on
//! one axis, defenses on the other. The session runs every `Unprotected`
//! baseline once per workload, shares it across all columns, fans the cells
//! out over a thread pool, and returns a structured, JSON-serialisable
//! [`RunReport`](simsys::session::RunReport):
//!
//! ```
//! use muontrap_repro::prelude::*;
//!
//! // Two SPEC-like kernels under MuonTrap and STT, normalised to the shared
//! // unprotected baseline. Tiny scale keeps the doctest fast.
//! let report = ExperimentSession::new()
//!     .title("quickstart")
//!     .scale(Scale::Tiny)
//!     .workloads(spec_suite(Scale::Tiny).into_iter().take(2))
//!     .defenses([DefenseKind::MuonTrap, DefenseKind::SttSpectre])
//!     .config(SystemConfig::small_test())
//!     .run();
//!
//! // 2 workloads × 2 defenses, but only 2 baseline simulations.
//! assert_eq!(report.cells.len(), 4);
//! assert_eq!(report.baseline_sims, 2);
//! let slowdown = report.cell(0, 0).normalized_time; // MuonTrap, 1.0 = free
//! assert!(slowdown > 0.5 && slowdown < 2.0);
//!
//! // Machine-readable output for harnesses (also: `figure fig3 --json` etc.).
//! let json = report.to_json().to_string_compact();
//! assert!(json.contains("\"baseline_sims\":2"));
//! ```
//!
//! # Persistent result store
//!
//! Backing a session with [`simsys::store::ResultStore`] (via
//! `with_store(path)`, or `--store DIR` on every figure binary) persists each
//! raw simulation content-addressed on a fingerprint of its inputs. A re-run
//! of an unchanged grid performs **zero** simulations — check
//! `RunReport::sims_executed` and the per-cell `cached` flags:
//!
//! ```
//! use muontrap_repro::prelude::*;
//! # let nanos = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().subsec_nanos();
//! # let dir = std::env::temp_dir().join(format!("muontrap-doc-{}-{nanos}", std::process::id()));
//! let grid = || ExperimentSession::new()
//!     .workloads(spec_suite(Scale::Tiny).into_iter().take(1))
//!     .defenses([DefenseKind::MuonTrap])
//!     .config(SystemConfig::small_test())
//!     .with_store(&dir);
//! let cold = grid().run();
//! let warm = grid().run();
//! assert!(cold.sims_executed > 0);
//! assert_eq!(warm.sims_executed, 0); // every cell was a store hit
//! assert_eq!(warm.cache_hit_rate(), 1.0);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! The original free-function API (`simsys::experiment`) has been removed;
//! grids go through [`ExperimentSession`](simsys::session::ExperimentSession)
//! and single raw runs through [`simsys::session::simulate`].

#![forbid(unsafe_code)]

pub use attacks;
pub use defenses;
pub use memsys;
pub use muontrap;
pub use obs;
pub use ooo_core;
pub use reportgen;
pub use simkit;
pub use simsys;
pub use uarch_isa;
pub use workloads;

/// The most commonly used items, re-exported flat for convenience.
pub mod prelude {
    pub use attacks::{spectre_prime_probe, AttackOutcome};
    pub use defenses::{build_defense, DefenseKind, DefenseRegistry};
    pub use muontrap::MuonTrap;
    pub use ooo_core::{MemoryModel, OooCore, ThreadContext};
    pub use reportgen::{HtmlDocument, ReportFigure, SummaryTable};
    pub use simkit::config::{ProtectionConfig, SystemConfig};
    pub use simkit::json::{FromJson, Json, ToJson};
    pub use simkit::stats::geometric_mean;
    pub use simsys::runner::{merge_events, RunEvent};
    pub use simsys::session::{
        simulate, CellResult, ExperimentResult, ExperimentSession, RunReport,
    };
    pub use simsys::store::ResultStore;
    pub use simsys::System;
    pub use uarch_isa::prog::ProgramBuilder;
    pub use uarch_isa::reg::Reg;
    pub use workloads::{domain_switch_suite, parsec_suite, spec_suite, Scale, Workload};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_key_types() {
        use crate::prelude::*;
        let cfg = SystemConfig::paper_default();
        assert_eq!(cfg.cores, 4);
        assert_eq!(DefenseKind::MuonTrap.label(), "muontrap");
        assert_eq!(spec_suite(Scale::Tiny).len(), 26);
        assert_eq!(
            DefenseRegistry::standard().lookup("muontrap"),
            Some(DefenseKind::MuonTrap)
        );
    }
}
