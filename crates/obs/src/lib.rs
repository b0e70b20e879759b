//! The observability layer: a dependency-free telemetry core for long runs.
//!
//! A multi-hour run is only operable if its progress is visible without
//! attaching a debugger. This crate supplies the pieces the rest of the
//! workspace composes into that visibility:
//!
//! * [`metrics`] — a process-wide [`MetricsRegistry`]
//!   of counters, gauges and histograms with labeled series. The simulator
//!   crates (`simsys::runner`, `simsys::store`, `simsys::session`) increment
//!   it at every interesting point — units completed/cached, store
//!   read/write/GC bytes, per-figure cells/sec — and snapshots emit as JSONL through `simkit::json`, the
//!   same dependency-free serialisation the rest of the workspace uses.
//! * [`clock`] — monotonic, epoch-anchored millisecond timestamps. Run
//!   events must be comparable with a watcher in another process, yet one
//!   run's stream must never step backwards; [`clock::now_ms`] guarantees
//!   both.
//! * [`rate`] — the EWMA the dashboard's ETA is derived from, with the
//!   NaN/zero-rate edge cases handled once, here, instead of in every
//!   renderer.
//! * [`dash`] — plain-text dashboard primitives (progress bars, duration
//!   and rate formatting) used by `merge --watch`. Pure string generation:
//!   deterministic output for golden tests, no terminal library.
//!
//! Everything here is plain `std`; the crate depends only on `simkit` (for
//! JSON), keeping the workspace's offline, zero-external-deps build intact.

#![forbid(unsafe_code)]

pub mod clock;
pub mod dash;
pub mod metrics;
pub mod rate;

pub use clock::{now_ms, MonoClock};
pub use metrics::{global, MetricsRegistry, MetricsSnapshot, SeriesSnapshot, SeriesValue};
pub use rate::{eta_ms, Ewma};
