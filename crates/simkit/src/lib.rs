//! Foundational simulation substrate for the MuonTrap reproduction.
//!
//! This crate provides the pieces every other crate in the workspace builds on:
//!
//! * [`addr`] — physical/virtual address newtypes and cache-line arithmetic,
//! * [`config`] — the system configuration mirroring Table 1 of the paper,
//! * [`stats`] — typed event counters, named counter sets and derived
//!   statistics,
//! * [`json`] — a dependency-free JSON tree, parser and writer used by the
//!   experiment session's machine-readable reports (serde is unavailable in
//!   this offline build),
//! * [`fingerprint`] — deterministic 128-bit content fingerprints over JSON
//!   trees and hashable values, the keys of the on-disk result store,
//! * [`fastmap`] — `FastMap`/`FastSet`, hash maps with a fast
//!   non-cryptographic hasher for the simulator's integer-keyed state,
//! * [`rng`] — a small deterministic xorshift RNG used where reproducibility
//!   matters more than statistical quality,
//! * [`cycles`] — the `Cycle` newtype and simple clock bookkeeping.
//!
//! # Example
//!
//! ```
//! use simkit::config::SystemConfig;
//! use simkit::addr::{PhysAddr, LineAddr};
//!
//! let cfg = SystemConfig::paper_default();
//! assert_eq!(cfg.cores, 4);
//! let pa = PhysAddr::new(0x1_2345);
//! let line = LineAddr::from_phys(pa, cfg.line_bytes);
//! assert_eq!(line.base(cfg.line_bytes).raw(), 0x1_2340);
//! ```

#![forbid(unsafe_code)]

pub mod addr;
pub mod config;
pub mod cycles;
pub mod fastmap;
pub mod fingerprint;
pub mod json;
pub mod rng;
pub mod stats;
pub mod timeq;

pub use addr::{LineAddr, PhysAddr, VirtAddr};
pub use config::SystemConfig;
pub use cycles::Cycle;
pub use fingerprint::Fingerprint;
pub use json::{FromJson, Json, JsonError, ToJson};
pub use rng::SimRng;
pub use stats::StatSet;
