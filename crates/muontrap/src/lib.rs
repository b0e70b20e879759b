//! MuonTrap: capturing speculative state in filter caches.
//!
//! This crate is the paper's contribution. It implements the
//! [`ooo_core::MemoryModel`] interface on top of the non-speculative hierarchy
//! in `memsys`, adding per-core:
//!
//! * a **data filter cache** (L0D) that captures every cache line touched by a
//!   speculative load or store prefetch, with a *committed* bit per line and a
//!   write-through-at-commit policy (§4.1–§4.2),
//! * an **instruction filter cache** (L0I) for speculative instruction fetch
//!   (§4.7),
//! * a **filter TLB** holding speculative translations (§4.7),
//! * **constant-time flushes** of all three on context switches, syscalls and
//!   sandbox boundaries — and optionally on every misspeculation (§4.3, §4.9),
//! * **reduced coherence speculation**: speculative accesses never downgrade a
//!   remote private (M/E) line; they are negatively acknowledged and retried
//!   once non-speculative (§4.5),
//! * the **SE pseudo-state**: lines that an unprotected system would have held
//!   exclusively are marked so an asynchronous exclusive upgrade is launched
//!   at commit (§4.5),
//! * **commit-time prefetcher training**, so the prefetcher only ever learns
//!   from the committed instruction stream (§4.6),
//! * optional **parallel L0/L1 lookup** trading complexity for latency (§6.5).
//!
//! The data filter cache is always present; every other mechanism can be
//! toggled through [`simkit::config::ProtectionConfig`], which is how the
//! cost-breakdown experiments (figures 8 and 9 of the paper) are produced.
//!
//! # Example
//!
//! ```
//! use simkit::config::SystemConfig;
//! use muontrap::MuonTrap;
//! use ooo_core::{MemoryModel, MemAccessCtx};
//! use simkit::addr::VirtAddr;
//! use simkit::cycles::Cycle;
//!
//! let cfg = SystemConfig::paper_default();
//! let mut mt = MuonTrap::new(&cfg);
//! // A speculative load is captured by the filter cache, not the L1.
//! let ctx = MemAccessCtx::simple(0, VirtAddr::new(0x8000), VirtAddr::new(0x400_000), Cycle::ZERO, false);
//! let _ = mt.load(&ctx);
//! assert!(mt.data_filter_contains(0, VirtAddr::new(0x8000)));
//! let line = mt.platform().phys_line(0, VirtAddr::new(0x8000));
//! assert!(!mt.platform().hierarchy.own_l1_contains(0, line));
//! ```

#![forbid(unsafe_code)]

pub mod filter_cache;
pub mod filter_tlb;
pub mod model;

pub use filter_cache::{FilterCache, FilterLineMeta};
pub use filter_tlb::FilterTlb;
pub use model::MuonTrap;
