//! Cache-hierarchy substrate for the MuonTrap reproduction.
//!
//! The paper's evaluation platform is a 4-core system with private L1
//! instruction/data caches, a shared L2 with a stride prefetcher, MESI
//! coherence, split TLBs and DDR3 memory (Table 1). None of that exists as a
//! reusable Rust library, so this crate implements it:
//!
//! * [`cache`] — generic set-associative cache arrays with LRU replacement and
//!   per-line metadata,
//! * [`mesi`] — the MESI coherence states and legal transitions,
//! * [`mshr`] — miss-status-holding registers bounding outstanding misses,
//! * [`dram`] — a banked, open-row DRAM timing model,
//! * [`prefetch`] — a stride prefetcher (the one the paper attaches to the L2),
//! * [`tlb`] — translation look-aside buffers with a fixed-cost walker,
//! * [`hierarchy`] — the multi-core [`hierarchy::MemoryHierarchy`] tying the
//!   above together and exposing the fine-grained operations the defenses
//!   (MuonTrap, InvisiSpec, STT) need: fills that bypass the non-speculative
//!   levels, exclusive upgrades, coherence probes and invalidation queues,
//! * [`platform`] — the [`Platform`] every memory model runs on: the hierarchy
//!   plus one MMU per core, with the ordinary translate, fetch, load and
//!   commit-store paths, so each model adds only its protection policy.
//!
//! The hierarchy is a *timing and state* model: it tracks which lines are
//! where and in which coherence state, and reports access latencies. Data
//! values live in the functional memory owned by each process
//! (`uarch_isa::mem::SparseMemory`), which keeps coherence bookkeeping and
//! functional correctness cleanly separated.
//!
//! # Example
//!
//! ```
//! use memsys::hierarchy::MemoryHierarchy;
//! use memsys::types::{AccessKind, AccessRequest, FillLevel, ServiceLevel};
//! use simkit::addr::LineAddr;
//! use simkit::config::SystemConfig;
//! use simkit::cycles::Cycle;
//!
//! let mut hier = MemoryHierarchy::new(&SystemConfig::paper_default());
//! let req = AccessRequest::new(0, LineAddr::new(100), AccessKind::Load, Cycle::ZERO);
//! let first = hier.access(&req);
//! assert_eq!(first.served_by, ServiceLevel::Dram);
//! let again = hier.access(&AccessRequest::new(0, LineAddr::new(100), AccessKind::Load, Cycle::new(500)));
//! assert_eq!(again.served_by, ServiceLevel::L1);
//! assert!(again.latency < first.latency);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod dram;
pub mod hierarchy;
pub mod mesi;
pub mod mshr;
pub mod platform;
pub mod prefetch;
pub mod tlb;
pub mod types;

pub use cache::CacheArray;
pub use hierarchy::MemoryHierarchy;
pub use mesi::MesiState;
pub use platform::Platform;
pub use tlb::{Mmu, PageTable, Tlb, Translation};
pub use types::{AccessKind, AccessRequest, AccessResponse, FillLevel, ServiceLevel};
