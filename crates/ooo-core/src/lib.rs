//! Out-of-order superscalar core model.
//!
//! This crate implements the processor side of the MuonTrap reproduction: a
//! timing model of an aggressively speculating out-of-order core (Table 1 of
//! the paper: 8-wide, 192-entry ROB, 64-entry IQ, 32-entry load and store
//! queues, tournament branch predictor with BTB and return-address stack).
//!
//! The defining property for Spectre-style attacks is that the front end
//! follows the *predicted* path: instructions after a mispredicted branch —
//! including loads whose addresses depend on speculatively loaded secrets —
//! genuinely execute, touch the memory system, and are then squashed when the
//! branch resolves. This core models exactly that: execution is driven by the
//! µISA program itself (`uarch-isa`), values are computed at issue, stores
//! only update memory at commit, and squash removes the wrong-path
//! instructions without undoing the cache state they perturbed. Whether that
//! cache state is visible to an attacker afterwards is determined by the
//! memory model plugged into the core — the unprotected baseline, MuonTrap, or
//! one of the comparison defenses — through the [`memmodel::MemoryModel`]
//! trait.
//!
//! Crate layout:
//!
//! * [`branch`] — tournament predictor, branch target buffer, return stack,
//! * [`memmodel`] — the interface between the core and the (defended) memory
//!   hierarchy,
//! * [`context`] — an architectural thread context (program, registers,
//!   functional memory),
//! * [`core`] — the pipeline itself: [`OooCore`] and its tick in `core`'s
//!   root module, one private module per stage (`fetch`, `dispatch`,
//!   `issue`, `complete`, `commit`), the `sleep` rule that lets the driving
//!   loop skip idle ticks, and the debug-build `oracle` checks,
//! * `wakeup` (private) — the slot bitsets and wakeup lists behind the
//!   issue stage's wakeup/select,
//! * [`events`] — events the core reports to the system layer (syscalls,
//!   sandbox transitions, halts).

#![forbid(unsafe_code)]

pub mod branch;
pub mod context;
#[allow(clippy::module_inception)]
pub mod core;
pub mod events;
pub mod memmodel;
mod wakeup;

pub use crate::core::{CoreStats, OooCore};
pub use branch::{BranchPredictor, BranchUpdate, Prediction};
pub use context::{SharedMemory, ThreadContext};
pub use events::CoreEvent;
pub use memmodel::{DomainSwitch, MemAccessCtx, MemOutcome, MemoryModel};
