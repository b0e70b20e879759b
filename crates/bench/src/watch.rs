//! The live dashboard behind `merge --watch`.
//!
//! A multi-host run streams one JSONL [`RunEvent`] log per shard; this module
//! tails any number of those logs *while the shards are still writing them*
//! and folds whatever has arrived so far into a [`FleetView`]: per-shard
//! progress, fleet-wide steal and cache-hit counters, a cells/sec rate (EWMA
//! over resolution timestamps) and the ETA it implies, plus stalled-shard
//! detection from heartbeat age.
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

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

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
    /// How long a not-done shard may go without emitting anything (beats
    /// included) before it renders as STALLED.
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

/// An incremental reader over one shard's JSONL event log.
///
/// Unlike [`simsys::runner::read_events`] (strict, whole-file), a tail must tolerate
/// everything a live log does mid-write: the file not existing yet, a final
/// line cut mid-JSON (kept buffered until its newline arrives), garbage
/// lines (counted in [`malformed`](Self::malformed), skipped), and the file
/// shrinking (a restarted shard truncating its log — the tail resets and
/// re-reads).
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

    /// The log file this tail follows.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads whatever the writer has appended since the last poll, returning
    /// how many new events were parsed. A missing file is "nothing yet"
    /// (`Ok(0)`), not an error — shards create their logs when they start.
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
            // The file shrank: the writer was restarted with truncation.
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

/// What the watcher knows about one shard, folded from its events.
#[derive(Debug, Clone)]
pub struct ShardView {
    /// Shard id.
    pub shard: usize,
    /// Units this shard has resolved (its completed + cached events, or the
    /// highest `units_done` any of its heartbeats reported — whichever is
    /// larger, since either stream may run ahead in the log).
    pub resolved: usize,
    /// Completed events from this shard.
    pub executed: usize,
    /// Cached events from this shard.
    pub cached: usize,
    /// Stolen claims from this shard.
    pub stolen: usize,
    /// Heartbeats seen from this shard.
    pub heartbeats: usize,
    /// Units in the whole plan (every shard walks all of them).
    pub units_total: usize,
    /// Newest timestamp on any of this shard's events.
    pub last_seen_ms: Option<u64>,
    /// Whether a `ShardDone` arrived.
    pub done: bool,
    /// The shard's reported wall clock, once done.
    pub wall_clock_ms: Option<f64>,
    /// Per-simulation wall times reported by this shard's `Completed`
    /// events, in arrival order (empty for legacy logs without `sim_ms`).
    pub sim_ms: Vec<u64>,
}

impl ShardView {
    fn new(shard: usize, units_total: usize) -> ShardView {
        ShardView {
            shard,
            resolved: 0,
            executed: 0,
            cached: 0,
            stolen: 0,
            heartbeats: 0,
            units_total,
            last_seen_ms: None,
            done: false,
            wall_clock_ms: None,
            sim_ms: Vec::new(),
        }
    }

    /// The shard's p50/p95 simulation latency in milliseconds, `None` until
    /// it has reported at least one timed simulation.
    pub fn sim_latency_p50_p95(&self) -> Option<(u64, u64)> {
        percentiles(&self.sim_ms)
    }

    /// The shard's display state: `done`, `running`, or `STALLED` with the
    /// silence age. A shard whose events carry no timestamps can never read
    /// as stalled (legacy logs have no liveness signal).
    pub fn state_label(&self, now_ms: u64, stall_after_ms: u64) -> String {
        if self.done {
            return match self.wall_clock_ms {
                Some(wall) => format!("done ({})", fmt_duration_ms(wall as u64)),
                None => "done".to_string(),
            };
        }
        match self.last_seen_ms {
            Some(last) if now_ms.saturating_sub(last) > stall_after_ms => {
                format!(
                    "STALLED ({} silent)",
                    fmt_duration_ms(now_ms.saturating_sub(last))
                )
            }
            _ => "running".to_string(),
        }
    }
}

/// Everything the dashboard knows, folded from all shard logs against the
/// plan. Fleet-wide unit counts are deduplicated by `(kind, index)` — every
/// shard emits an event for every unit, so raw per-shard counts overlap.
#[derive(Debug, Clone)]
pub struct FleetView {
    /// Report title, from the plan.
    pub title: String,
    /// Workload scale, from the plan.
    pub scale: Option<String>,
    /// Units in the plan (baselines + cells).
    pub total_units: usize,
    /// Grid cells in the plan.
    pub total_cells: usize,
    /// Distinct units some stream has resolved.
    pub resolved_units: usize,
    /// Distinct cells some stream has resolved.
    pub resolved_cells: usize,
    /// Distinct units with execution provenance.
    pub executed_units: usize,
    /// Distinct units resolved without simulating.
    pub cached_units: usize,
    /// Stolen claims across all streams (raw count — each steal is real).
    pub stolen_claims: usize,
    /// Per-shard views, ordered by shard id.
    pub shards: BTreeMap<usize, ShardView>,
    /// Oldest event timestamp seen.
    pub first_ms: Option<u64>,
    /// Newest event timestamp seen.
    pub last_ms: Option<u64>,
    /// The "now" the view was folded at (see [`WatchOptions::now_ms`]).
    pub now_ms: u64,
    /// EWMA of instantaneous resolution rate, units per millisecond.
    ewma_units_per_ms: Option<f64>,
}

impl FleetView {
    /// Folds `events` (any interleaving of any number of shard logs) into a
    /// view of the fleet working through `plan`.
    pub fn fold(plan: &Plan, events: &[RunEvent], opts: &WatchOptions) -> FleetView {
        let total_units = plan.baselines.len() + plan.cells.len();
        let mut resolved: HashMap<(UnitKind, usize), bool> = HashMap::new();
        let mut shards: BTreeMap<usize, ShardView> = BTreeMap::new();
        let mut stolen_claims = 0usize;
        let mut first_ms: Option<u64> = None;
        let mut last_ms: Option<u64> = None;
        let mut resolution_stamps: Vec<u64> = Vec::new();
        for event in events {
            let shard = shards
                .entry(event.shard())
                .or_insert_with(|| ShardView::new(event.shard(), total_units));
            if let Some(t) = event.t_ms() {
                first_ms = Some(first_ms.map_or(t, |f| f.min(t)));
                last_ms = Some(last_ms.map_or(t, |l| l.max(t)));
                shard.last_seen_ms = Some(shard.last_seen_ms.map_or(t, |l| l.max(t)));
            }
            match event {
                RunEvent::Claimed { stolen, .. } => {
                    if *stolen {
                        shard.stolen += 1;
                        stolen_claims += 1;
                    }
                }
                RunEvent::Completed { sim_ms, .. } => {
                    shard.executed += 1;
                    if let Some(ms) = sim_ms {
                        shard.sim_ms.push(*ms);
                    }
                    if let Some(t) = event.t_ms() {
                        resolution_stamps.push(t);
                    }
                    let unit = event.unit().expect("completed events carry an identity");
                    resolved.insert(unit, true);
                }
                RunEvent::Cached { .. } => {
                    shard.cached += 1;
                    if let Some(t) = event.t_ms() {
                        resolution_stamps.push(t);
                    }
                    let unit = event.unit().expect("cached events carry an identity");
                    resolved.entry(unit).or_insert(false);
                }
                RunEvent::Heartbeat { units_done, .. } => {
                    shard.heartbeats += 1;
                    shard.resolved = shard.resolved.max(*units_done);
                }
                RunEvent::ShardDone { wall_clock_ms, .. } => {
                    shard.done = true;
                    shard.wall_clock_ms = Some(
                        shard
                            .wall_clock_ms
                            .map_or(*wall_clock_ms, |w| w.max(*wall_clock_ms)),
                    );
                }
            }
        }
        for shard in shards.values_mut() {
            shard.resolved = shard.resolved.max(shard.executed + shard.cached);
        }
        // EWMA over the gaps between consecutive resolutions, fleet-wide.
        // Same-millisecond resolutions contribute no gap and are skipped;
        // sparse tiny runs then fall back to the overall average (below).
        resolution_stamps.sort_unstable();
        let mut ewma = Ewma::new(0.2);
        for pair in resolution_stamps.windows(2) {
            let dt = pair[1].saturating_sub(pair[0]);
            if dt > 0 {
                ewma.update(1.0 / dt as f64);
            }
        }
        let executed_units = resolved.values().filter(|executed| **executed).count();
        let resolved_cells = resolved
            .keys()
            .filter(|(kind, _)| *kind == UnitKind::Cell)
            .count();
        FleetView {
            title: plan.title.clone(),
            scale: plan.scale.clone(),
            total_units,
            total_cells: plan.cells.len(),
            resolved_units: resolved.len(),
            resolved_cells,
            executed_units,
            cached_units: resolved.len() - executed_units,
            stolen_claims,
            shards,
            first_ms,
            last_ms,
            now_ms: opts.now_ms.unwrap_or_else(obs::now_ms),
            ewma_units_per_ms: ewma.value(),
        }
    }

    /// Whether every unit of the plan has been resolved by some stream —
    /// the watch's completion criterion. Deliberately *not* "every shard
    /// sent `ShardDone`": a crashed shard never signs off, but the fleet is
    /// finished the moment the work is.
    pub fn complete(&self) -> bool {
        self.resolved_units >= self.total_units
    }

    /// Resolved fraction of the plan, in `[0, 1]` (NaN for an empty plan —
    /// the renderers' formatters all tolerate that).
    pub fn fraction(&self) -> f64 {
        self.resolved_units as f64 / self.total_units as f64
    }

    /// Completed events across all streams — raw traffic, not deduplicated:
    /// shards overlap, so this can exceed [`total_units`](Self::total_units).
    pub fn executed_events(&self) -> usize {
        self.shards.values().map(|shard| shard.executed).sum()
    }

    /// Cached events across all streams — raw traffic. This is what makes a
    /// warm-store shard visible on the dashboard: its units deduplicate away
    /// (another shard executed them), but its cache hits are real work
    /// avoided and show up here.
    pub fn cached_events(&self) -> usize {
        self.shards.values().map(|shard| shard.cached).sum()
    }

    /// Fleet cache-hit rate over resolution *events* (NaN before any
    /// resolve): the fraction of resolutions served without simulating.
    pub fn cache_hit_rate(&self) -> f64 {
        let executed = self.executed_events();
        let cached = self.cached_events();
        cached as f64 / (executed + cached) as f64
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

    /// Estimated time to fleet completion, from the current rate. `None`
    /// when the rate is unknown (never NaN, never negative — see
    /// [`obs::eta_ms`]).
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
/// the golden tests pin this byte-for-byte. Shards whose logs carry per-unit
/// `sim_ms` stamps get a trailing `sim p50/p95` figure; legacy logs render
/// exactly as before.
pub fn render_frame(view: &FleetView, opts: &WatchOptions) -> String {
    let mut out = String::new();
    let scale = view.scale.as_deref().unwrap_or("?");
    let _ = writeln!(
        out,
        "watching {} · scale {} · {} shard(s) seen",
        view.title,
        scale,
        view.shards.len()
    );
    let fraction = view.fraction();
    let _ = writeln!(
        out,
        "fleet    {} {}/{} units ({}) · {}/{} cells",
        progress_bar(fraction, opts.width),
        view.resolved_units,
        view.total_units,
        fmt_percent(fraction),
        view.resolved_cells,
        view.total_cells,
    );
    let _ = writeln!(
        out,
        "         executed {} · cached {} · stolen {} · cache-hit {}",
        view.executed_events(),
        view.cached_events(),
        view.stolen_claims,
        fmt_percent(view.cache_hit_rate()),
    );
    let _ = writeln!(
        out,
        "         rate {} · eta {} · elapsed {}",
        fmt_rate_per_sec(view.rate_per_sec()),
        view.eta_ms()
            .map_or_else(|| "-".to_string(), fmt_duration_ms),
        view.elapsed_ms()
            .map_or_else(|| "-".to_string(), fmt_duration_ms),
    );
    if view.shards.is_empty() {
        let _ = writeln!(out, "no shard activity yet — waiting for events");
    }
    for shard in view.shards.values() {
        let fraction = shard.resolved as f64 / shard.units_total.max(1) as f64;
        let latency = shard
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
            "shard {:>2} {} {}/{} {}{}",
            shard.shard,
            progress_bar(fraction, opts.width),
            shard.resolved,
            shard.units_total,
            shard.state_label(view.now_ms, opts.stall_after_ms),
            latency,
        );
    }
    out
}
