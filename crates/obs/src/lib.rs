//! The observability layer: a dependency-free telemetry core for sharded runs.
//!
//! A multi-hour sharded run is only operable if its progress is visible
//! without attaching a debugger to every shard. This crate supplies the
//! pieces the rest of the workspace composes into that visibility:
//!
//! * [`metrics`] — a process-wide [`MetricsRegistry`]
//!   of counters, gauges and histograms with labeled series. The simulator
//!   crates (`simsys::runner`, `simsys::store`, `simsys::session`) increment
//!   it at every interesting point — cells claimed/completed/cached/stolen,
//!   lease heartbeats and steals, store read/write/GC bytes, per-figure
//!   cells/sec — and snapshots emit as JSONL through `simkit::json`, the
//!   same dependency-free serialisation the rest of the workspace uses.
//! * [`clock`] — monotonic, epoch-anchored millisecond timestamps. Run
//!   events from different shards must be comparable across processes, yet
//!   a single shard's stream must never step backwards; [`clock::now_ms`]
//!   guarantees both.
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
