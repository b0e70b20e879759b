//! The live dashboard behind `merge --watch`.
//!
//! A run streams one JSONL [`RunEvent`] log (`figure NAME --events FILE`);
//! this module tails that log *while the run is still writing it* and folds
//! whatever has arrived so far into a [`RunView`]: progress against the
//! plan, executed and cached counts, a cells/sec rate (EWMA over resolution
//! timestamps) and the ETA it implies, plus stall detection from the age of
//! the newest event.
//!
//! [`render_frame`] draws the view as the plain-text terminal dashboard.
//! It is pure string generation (the `merge` binary owns the
//! screen-clearing), so a frame is byte-deterministic given a view and
//! golden-testable via `merge --watch --once`.
//!
//! Determinism: every quantity here is computed from event timestamps, never
//! from the wall clock, unless [`WatchOptions::now_ms`] is left unset. The
//! `--once` mode pins `now_ms` to the newest event stamp, which is what makes
//! single-frame output reproducible in tests and CI.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::PathBuf;

use obs::dash::{fmt_duration_ms, fmt_percent, fmt_rate_per_sec, progress_bar};
use obs::Ewma;
use simkit::json;
use simkit::json::FromJson;
use simsys::runner::{Plan, RunEvent, UnitKind};

/// How a watch computes and renders its view.
#[derive(Debug, Clone)]
pub struct WatchOptions {
    /// Progress-bar width, characters inside the brackets.
    pub width: usize,
    /// How long an unfinished run may go without emitting an event before
    /// it renders as STALLED.
    pub stall_after_ms: u64,
    /// "Now" for age and elapsed computations. `None` reads the process
    /// clock ([`obs::now_ms`]); `--once` pins it to the newest event stamp
    /// so a frame is reproducible.
    pub now_ms: Option<u64>,
}

impl Default for WatchOptions {
    fn default() -> Self {
        WatchOptions {
            width: 30,
            stall_after_ms: 15_000,
            now_ms: None,
        }
    }
}

/// An incremental reader over one run's JSONL event log.
///
/// Unlike [`simsys::runner::read_events`] (strict, whole-file), a tail must tolerate
/// everything a live log does mid-write: the file not existing yet, a final
/// line cut mid-JSON (kept buffered until its newline arrives), garbage
/// lines (counted in [`malformed`](Self::malformed), skipped), and the file
/// shrinking (a re-run truncating its log — the tail resets and re-reads).
#[derive(Debug)]
pub struct LogTail {
    path: PathBuf,
    offset: u64,
    partial: Vec<u8>,
    /// Every event parsed so far, in file order.
    pub events: Vec<RunEvent>,
    /// Complete lines that failed to parse as events.
    pub malformed: usize,
}

impl LogTail {
    /// A tail over `path`; nothing is read until [`poll`](Self::poll).
    pub fn new(path: impl Into<PathBuf>) -> LogTail {
        LogTail {
            path: path.into(),
            offset: 0,
            partial: Vec::new(),
            events: Vec::new(),
            malformed: 0,
        }
    }

    /// Reads whatever the writer has appended since the last poll, returning
    /// how many new events were parsed. A missing file is "nothing yet"
    /// (`Ok(0)`), not an error — a run creates its log when it starts.
    ///
    /// # Errors
    /// Returns an [`io::Error`] only for real I/O failures (permissions, a
    /// directory in the file's place, …).
    pub fn poll(&mut self) -> io::Result<usize> {
        let mut file = match fs::File::open(&self.path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let len = file.metadata()?.len();
        if len < self.offset {
            // The file shrank: the writer was re-run with truncation.
            // Everything previously parsed described a log that no longer
            // exists, so start over.
            self.offset = 0;
            self.partial.clear();
            self.events.clear();
            self.malformed = 0;
        }
        if len == self.offset {
            return Ok(0);
        }
        file.seek(SeekFrom::Start(self.offset))?;
        let mut buf = Vec::new();
        file.take(len - self.offset).read_to_end(&mut buf)?;
        self.offset += buf.len() as u64;
        let mut added = 0usize;
        for byte in buf {
            if byte != b'\n' {
                self.partial.push(byte);
                continue;
            }
            let line = std::mem::take(&mut self.partial);
            let parsed = std::str::from_utf8(&line).ok().and_then(|text| {
                let text = text.trim();
                if text.is_empty() {
                    return None;
                }
                match json::parse(text)
                    .ok()
                    .and_then(|value| RunEvent::from_json(&value).ok())
                {
                    Some(event) => Some(event),
                    None => {
                        self.malformed += 1;
                        None
                    }
                }
            });
            if let Some(event) = parsed {
                self.events.push(event);
                added += 1;
            }
        }
        Ok(added)
    }
}

/// Everything the dashboard knows, folded from one event log against the
/// plan. Unit counts are deduplicated by `(kind, index)`, with execution
/// provenance winning, exactly as [`simsys::runner::merge_events`] counts.
#[derive(Debug, Clone)]
pub struct RunView {
    /// Report title, from the plan.
    pub title: String,
    /// Workload scale, from the plan.
    pub scale: Option<String>,
    /// Units in the plan (baselines + cells).
    pub total_units: usize,
    /// Grid cells in the plan.
    pub total_cells: usize,
    /// Distinct units the log has resolved.
    pub resolved_units: usize,
    /// Distinct cells the log has resolved.
    pub resolved_cells: usize,
    /// Distinct units with execution provenance.
    pub executed_units: usize,
    /// Distinct units resolved without simulating.
    pub cached_units: usize,
    /// Per-simulation wall times reported by `Completed` events, in log
    /// order (empty for logs written without `sim_ms`).
    pub sim_ms: Vec<u64>,
    /// Oldest event timestamp seen.
    pub first_ms: Option<u64>,
    /// Newest event timestamp seen.
    pub last_ms: Option<u64>,
    /// The "now" the view was folded at (see [`WatchOptions::now_ms`]).
    pub now_ms: u64,
    /// EWMA of instantaneous resolution rate, units per millisecond.
    ewma_units_per_ms: Option<f64>,
}

impl RunView {
    /// Folds `events` (one run's log, in any order) into a view of the run
    /// working through `plan`.
    pub fn fold(plan: &Plan, events: &[RunEvent], opts: &WatchOptions) -> RunView {
        let mut resolved: HashMap<(UnitKind, usize), bool> = HashMap::new();
        let mut sim_ms = Vec::new();
        let mut stamps: Vec<u64> = Vec::new();
        for event in events {
            stamps.extend(event.t_ms());
            match event {
                RunEvent::Completed { sim_ms: ms, .. } => {
                    sim_ms.extend(*ms);
                    resolved.insert(event.unit(), true);
                }
                RunEvent::Cached { .. } => {
                    resolved.entry(event.unit()).or_insert(false);
                }
            }
        }
        // EWMA over the gaps between consecutive resolutions. Same-
        // millisecond resolutions contribute no gap and are skipped; sparse
        // tiny runs then fall back to the overall average (below).
        stamps.sort_unstable();
        let mut ewma = Ewma::new(0.2);
        for pair in stamps.windows(2) {
            let dt = pair[1] - pair[0];
            if dt > 0 {
                ewma.update(1.0 / dt as f64);
            }
        }
        let executed_units = resolved.values().filter(|executed| **executed).count();
        let resolved_cells = resolved
            .keys()
            .filter(|(kind, _)| *kind == UnitKind::Cell)
            .count();
        RunView {
            title: plan.title.clone(),
            scale: plan.scale.clone(),
            total_units: plan.baselines.len() + plan.cells.len(),
            total_cells: plan.cells.len(),
            resolved_units: resolved.len(),
            resolved_cells,
            executed_units,
            cached_units: resolved.len() - executed_units,
            sim_ms,
            first_ms: stamps.first().copied(),
            last_ms: stamps.last().copied(),
            now_ms: opts.now_ms.unwrap_or_else(obs::now_ms),
            ewma_units_per_ms: ewma.value(),
        }
    }

    /// Whether every unit of the plan has been resolved — the watch's
    /// completion criterion.
    pub fn complete(&self) -> bool {
        self.resolved_units >= self.total_units
    }

    /// Resolved fraction of the plan, in `[0, 1]` (NaN for an empty plan —
    /// the renderers' formatters all tolerate that).
    pub fn fraction(&self) -> f64 {
        self.resolved_units as f64 / self.total_units as f64
    }

    /// Cache-hit rate over resolved units (NaN before any resolve): the
    /// fraction served without simulating.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cached_units as f64 / self.resolved_units as f64
    }

    /// Resolution rate, units per millisecond: the EWMA when the stamps were
    /// dense enough to feed it, otherwise the whole-run average. `None`
    /// until two timestamped resolutions exist.
    pub fn units_per_ms(&self) -> Option<f64> {
        if let Some(rate) = self.ewma_units_per_ms {
            if rate.is_finite() && rate > 0.0 {
                return Some(rate);
            }
        }
        match (self.first_ms, self.last_ms) {
            (Some(first), Some(last)) if last > first && self.resolved_units > 1 => {
                Some((self.resolved_units - 1) as f64 / (last - first) as f64)
            }
            _ => None,
        }
    }

    /// Resolution rate in cells/sec terms for display.
    pub fn rate_per_sec(&self) -> Option<f64> {
        self.units_per_ms().map(|rate| rate * 1e3)
    }

    /// Estimated time to completion, from the current rate. `None` when the
    /// rate is unknown (never NaN, never negative — see [`obs::eta_ms`]).
    pub fn eta_ms(&self) -> Option<u64> {
        let remaining = self.total_units.saturating_sub(self.resolved_units) as f64;
        obs::eta_ms(remaining, self.units_per_ms()?)
    }

    /// Milliseconds between the oldest event and "now". `None` until a
    /// timestamped event exists.
    pub fn elapsed_ms(&self) -> Option<u64> {
        let first = self.first_ms?;
        let newest = self.now_ms.max(self.last_ms.unwrap_or(0));
        Some(newest.saturating_sub(first))
    }

    /// The run's p50/p95 simulation latency in milliseconds, `None` until it
    /// has reported at least one timed simulation.
    pub fn sim_latency_p50_p95(&self) -> Option<(u64, u64)> {
        percentiles(&self.sim_ms)
    }

    /// The run's display state: `done` once every unit of the plan has
    /// resolved, `STALLED` with the silence age when the newest event is
    /// older than `stall_after_ms`, `waiting for events` before the first
    /// one, else `running`. A log without timestamps never reads as stalled
    /// (it carries no liveness signal).
    pub fn state_label(&self, stall_after_ms: u64) -> String {
        if self.complete() {
            return "done".to_string();
        }
        if self.resolved_units == 0 {
            return "waiting for events".to_string();
        }
        match self.last_ms {
            Some(last) if self.now_ms.saturating_sub(last) > stall_after_ms => {
                format!(
                    "STALLED ({} silent)",
                    fmt_duration_ms(self.now_ms.saturating_sub(last))
                )
            }
            _ => "running".to_string(),
        }
    }
}

/// Nearest-rank p50/p95 over `samples` (unsorted, any order). `None` when
/// empty.
fn percentiles(samples: &[u64]) -> Option<(u64, u64)> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = |pct: usize| {
        sorted[(pct * (sorted.len() - 1))
            .div_ceil(100)
            .min(sorted.len() - 1)]
    };
    Some((rank(50), rank(95)))
}

/// Renders one dashboard frame — plain text, no terminal control codes, one
/// trailing newline. This is exactly what `merge --watch --once` prints, so
/// the golden tests pin this byte-for-byte. Logs carrying per-unit `sim_ms`
/// stamps get a trailing `sim p50/p95` figure.
pub fn render_frame(view: &RunView, opts: &WatchOptions) -> String {
    let mut out = String::new();
    let scale = view.scale.as_deref().unwrap_or("?");
    let _ = writeln!(out, "watching {} · scale {}", view.title, scale);
    let fraction = view.fraction();
    let _ = writeln!(
        out,
        "run      {} {}/{} units ({}) · {}/{} cells · {}",
        progress_bar(fraction, opts.width),
        view.resolved_units,
        view.total_units,
        fmt_percent(fraction),
        view.resolved_cells,
        view.total_cells,
        view.state_label(opts.stall_after_ms),
    );
    let _ = writeln!(
        out,
        "         executed {} · cached {} · cache-hit {}",
        view.executed_units,
        view.cached_units,
        fmt_percent(view.cache_hit_rate()),
    );
    let latency = view
        .sim_latency_p50_p95()
        .map_or(String::new(), |(p50, p95)| {
            format!(
                " · sim p50/p95 {}/{}",
                fmt_duration_ms(p50),
                fmt_duration_ms(p95)
            )
        });
    let _ = writeln!(
        out,
        "         rate {} · eta {} · elapsed {}{}",
        fmt_rate_per_sec(view.rate_per_sec()),
        view.eta_ms()
            .map_or_else(|| "-".to_string(), fmt_duration_ms),
        view.elapsed_ms()
            .map_or_else(|| "-".to_string(), fmt_duration_ms),
        latency,
    );
    out
}
