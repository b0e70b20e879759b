//! The sharded, work-stealing execution subsystem behind every experiment.
//!
//! [`ExperimentSession::run`](crate::session::ExperimentSession::run) used to
//! be a single-process collect-then-report loop; this module splits it into
//! five composable stages so the same grid can run on one thread, one thread
//! pool, or any number of cooperating processes sharing a store directory:
//!
//! 1. **Plan** — [`ExperimentSession::plan`](crate::session::ExperimentSession::plan)
//!    enumerates every baseline and grid cell as a self-describing,
//!    fingerprint-keyed [`WorkUnit`]. Planning is pure and host-independent
//!    (it reuses [`crate::store::cell_fingerprint`]), so two processes given the
//!    same session description derive byte-identical plans and agree on every
//!    unit's identity without talking to each other.
//! 2. **Claim** — a shard takes a unit by acquiring its lease file under the
//!    store directory ([`ResultStore::try_lease`]): an atomic create-new, so
//!    threads and separate processes contend safely. Leases expire, so a
//!    crashed shard's units are *stolen* and re-run by whoever finds them —
//!    work-stealing across processes, not just threads.
//! 3. **Execute** — claimed units simulate and persist their result in the
//!    content-addressed store; units another shard already finished are
//!    recognised by their store entry and served without simulating.
//! 4. **Stream** — every unit resolution is emitted immediately as one
//!    [`RunEvent`] line of JSONL (`--events FILE` on the binaries), so
//!    progress is observable mid-run and a killed shard's completed work
//!    survives in both its event log and the store.
//! 5. **Merge** — [`merge_events`] folds any number of event streams back
//!    into the deterministic [`RunReport`] the old collect-then-report path
//!    produced, deduplicating by unit and preferring execution provenance
//!    over cache provenance.
//!
//! The local path ([`execute_local`], what `run()` uses) and the sharded path
//! ([`execute_shard`], what `run_sharded()` and `figure NAME --shard-id` use) emit
//! the same events and share [`merge_events`], so there is exactly one way a
//! report is assembled.
//!
//! # Freshness provenance
//!
//! [`CellResult::cached`] must mean "served from the store instead of being
//! simulated *during this run*" even when the simulating shard was a
//! different process. Shards therefore share a `run_id`: completing a unit
//! rewrites its lease as a done marker carrying that id
//! ([`ResultStore::mark_done`]), and a shard that finds a store entry checks
//! [`ResultStore::completed_during`] to decide whether the entry is fresh
//! (another shard of this run computed it — not cached) or pre-existing
//! (cached). A later run with a new `run_id` sees the old markers as stale
//! and correctly reports a fully warm store.

use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use simkit::config::SystemConfig;
use simkit::fingerprint::Fingerprint;
use simkit::json::{self, FromJson, Json, JsonError, ToJson};

use defenses::DefenseKind;
use workloads::Workload;

use crate::session::{self, CellResult, ExperimentResult, RunReport};
use crate::store::{LeaseState, ResultStore};

/// Which phase of the grid a [`WorkUnit`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnitKind {
    /// An `Unprotected` run on a canonical baseline machine; its result is
    /// the normalisation denominator for one or more cells.
    Baseline,
    /// One grid cell (workload × column).
    Cell,
}

impl UnitKind {
    /// Stable lower-case name used in event logs.
    pub fn name(self) -> &'static str {
        match self {
            UnitKind::Baseline => "baseline",
            UnitKind::Cell => "cell",
        }
    }

    fn parse(text: &str) -> Option<UnitKind> {
        match text {
            "baseline" => Some(UnitKind::Baseline),
            "cell" => Some(UnitKind::Cell),
            _ => None,
        }
    }
}

/// One self-describing, fingerprint-keyed unit of work.
///
/// A unit carries everything needed to execute it on any host — the full
/// workload (programs included), defense and machine — plus its store
/// fingerprint, so shards agree on identity by construction.
#[derive(Debug, Clone)]
pub struct WorkUnit {
    /// Baseline or cell.
    pub kind: UnitKind,
    /// Position within this kind's list in the [`Plan`] (cells: workload-major
    /// grid order, `w * columns + c`).
    pub index: usize,
    /// The workload to simulate.
    pub workload: Workload,
    /// The defense to run it under (`Unprotected` for baselines).
    pub defense: DefenseKind,
    /// The machine to run on (for baselines, the canonical baseline machine).
    pub config: SystemConfig,
    /// The store fingerprint of this unit's raw result.
    pub fingerprint: Fingerprint,
    /// Cells only: the column label this cell reports under.
    pub column: Option<String>,
    /// Cells only: the fingerprint of the baseline that normalises this cell.
    pub baseline: Option<Fingerprint>,
    /// Cells only: this cell *is* its baseline (an explicit `Unprotected`
    /// column) — it is derived from the baseline result, never simulated.
    pub copies_baseline: bool,
}

/// The pure, host-independent execution plan of one experiment grid.
///
/// Derived by [`ExperimentSession::plan`](crate::session::ExperimentSession::plan);
/// two processes given the same session derive the same plan, which is what
/// lets shards coordinate through nothing but the store directory.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Report title.
    pub title: String,
    /// Workload scale metadata, if recorded.
    pub scale: Option<String>,
    /// The thread count recorded in the merged report (the session's).
    pub threads: usize,
    /// Workload names, grid order.
    pub workloads: Vec<String>,
    /// Column labels, grid order.
    pub columns: Vec<String>,
    /// Baseline units. With memoization (the default) one per distinct
    /// (workload, baseline machine); without, one per cell.
    pub baselines: Vec<WorkUnit>,
    /// Cell units, workload-major grid order.
    pub cells: Vec<WorkUnit>,
    /// Whether baselines were deduplicated (see
    /// [`ExperimentSession::memoize`](crate::session::ExperimentSession::memoize)).
    pub memoized: bool,
}

impl Plan {
    /// Number of simulations a cold, duplicate-free execution performs:
    /// every baseline unit plus every non-derived cell.
    pub fn expected_cold_sims(&self) -> usize {
        self.baselines.len() + self.cells.iter().filter(|c| !c.copies_baseline).count()
    }

    /// The baseline unit holding `fingerprint`, if any (first match).
    pub fn baseline_by_fingerprint(&self, fingerprint: Fingerprint) -> Option<&WorkUnit> {
        self.baselines.iter().find(|u| u.fingerprint == fingerprint)
    }
}

/// One line of the streaming JSONL event log.
///
/// `Completed` means a simulation was executed for the unit (it counts
/// toward [`RunReport::sims_executed`]); `Cached` means the unit resolved
/// without simulating — a store hit, a process-cache hit, or a derived
/// `Unprotected` cell. Cell-kind events carry the full [`CellResult`] so the
/// merger can rebuild the report from logs alone.
///
/// Every variant carries an optional epoch-anchored monotonic timestamp
/// (`t_ms`, [`obs::now_ms`]), omitted from the JSON when absent — logs
/// written before timestamps existed still parse, and `merge --watch` uses
/// the stamps for rates, ETAs and stalled-shard detection.
#[derive(Debug, Clone, PartialEq)]
pub enum RunEvent {
    /// A shard acquired the unit's lease and is about to simulate it.
    Claimed {
        /// Shard id within the run.
        shard: usize,
        /// Unit kind.
        kind: UnitKind,
        /// Unit index within its kind's list.
        index: usize,
        /// The unit's store fingerprint.
        fingerprint: Fingerprint,
        /// Whether this claim *stole* an expired lease from a crashed or
        /// stalled holder (serialised only when `true`, so steal-free logs
        /// keep their historical byte shape).
        stolen: bool,
        /// Emission time, epoch-anchored monotonic milliseconds.
        t_ms: Option<u64>,
    },
    /// The unit was simulated by this shard during this run.
    Completed {
        /// Shard id within the run.
        shard: usize,
        /// Unit kind.
        kind: UnitKind,
        /// Unit index within its kind's list.
        index: usize,
        /// The unit's store fingerprint.
        fingerprint: Fingerprint,
        /// The finished cell (cells only; `None` for baselines).
        cell: Option<CellResult>,
        /// Emission time, epoch-anchored monotonic milliseconds.
        t_ms: Option<u64>,
        /// Wall-clock milliseconds the simulation itself took (serialised
        /// only when present, so logs without it keep their byte shape).
        /// Feeds the per-shard latency percentiles on the watch dashboard.
        sim_ms: Option<u64>,
    },
    /// The unit resolved without a simulation.
    Cached {
        /// Shard id within the run.
        shard: usize,
        /// Unit kind.
        kind: UnitKind,
        /// Unit index within its kind's list.
        index: usize,
        /// The unit's store fingerprint.
        fingerprint: Fingerprint,
        /// The finished cell (cells only; `None` for baselines).
        cell: Option<CellResult>,
        /// Emission time, epoch-anchored monotonic milliseconds.
        t_ms: Option<u64>,
    },
    /// A liveness beat from a still-working shard, emitted every
    /// [`ShardOptions::heartbeat_ms`] while the shard walks the plan. A
    /// watcher that stops seeing beats (and resolutions) from a shard for
    /// longer than the heartbeat interval plus slack knows the shard is
    /// stalled or dead — without waiting a full lease TTL.
    Heartbeat {
        /// Shard id within the run.
        shard: usize,
        /// Units this shard has resolved so far (executed + cached).
        units_done: usize,
        /// Units in the whole plan (baselines + cells).
        units_total: usize,
        /// Emission time, epoch-anchored monotonic milliseconds.
        t_ms: Option<u64>,
    },
    /// A shard finished its pass over the plan.
    ShardDone {
        /// Shard id within the run.
        shard: usize,
        /// Simulations this shard executed.
        sims_executed: usize,
        /// This shard's wall clock, milliseconds.
        wall_clock_ms: f64,
        /// Emission time, epoch-anchored monotonic milliseconds.
        t_ms: Option<u64>,
    },
}

impl RunEvent {
    /// The `(kind, index)` unit identity, for every variant but `ShardDone`
    /// and `Heartbeat`.
    pub fn unit(&self) -> Option<(UnitKind, usize)> {
        match self {
            RunEvent::Claimed { kind, index, .. }
            | RunEvent::Completed { kind, index, .. }
            | RunEvent::Cached { kind, index, .. } => Some((*kind, *index)),
            RunEvent::ShardDone { .. } | RunEvent::Heartbeat { .. } => None,
        }
    }

    /// The emitting shard's id.
    pub fn shard(&self) -> usize {
        match self {
            RunEvent::Claimed { shard, .. }
            | RunEvent::Completed { shard, .. }
            | RunEvent::Cached { shard, .. }
            | RunEvent::Heartbeat { shard, .. }
            | RunEvent::ShardDone { shard, .. } => *shard,
        }
    }

    /// The emission timestamp, when the writer recorded one.
    pub fn t_ms(&self) -> Option<u64> {
        match self {
            RunEvent::Claimed { t_ms, .. }
            | RunEvent::Completed { t_ms, .. }
            | RunEvent::Cached { t_ms, .. }
            | RunEvent::Heartbeat { t_ms, .. }
            | RunEvent::ShardDone { t_ms, .. } => *t_ms,
        }
    }
}

/// The timestamp every event-construction site stamps: the process-wide
/// epoch-anchored monotonic clock.
fn stamp_now() -> Option<u64> {
    Some(obs::now_ms())
}

impl ToJson for RunEvent {
    fn to_json(&self) -> Json {
        let unit_fields =
            |event: &str, shard: usize, kind: UnitKind, index: usize, fp: Fingerprint| {
                vec![
                    ("event", Json::Str(event.to_string())),
                    ("shard", Json::UInt(shard as u64)),
                    ("unit_kind", Json::Str(kind.name().to_string())),
                    ("unit_index", Json::UInt(index as u64)),
                    ("fingerprint", Json::Str(fp.to_hex())),
                ]
            };
        // `t_ms` is emitted only when present and `stolen` only when true:
        // events carrying neither serialise exactly as they did before the
        // fields existed, so old readers and golden logs stay valid.
        let stamp = |fields: &mut Vec<(&'static str, Json)>, t_ms: &Option<u64>| {
            if let Some(t) = t_ms {
                fields.push(("t_ms", Json::UInt(*t)));
            }
        };
        match self {
            RunEvent::Claimed {
                shard,
                kind,
                index,
                fingerprint,
                stolen,
                t_ms,
            } => {
                let mut fields = unit_fields("claimed", *shard, *kind, *index, *fingerprint);
                if *stolen {
                    fields.push(("stolen", Json::Bool(true)));
                }
                stamp(&mut fields, t_ms);
                Json::obj(fields)
            }
            RunEvent::Completed {
                shard,
                kind,
                index,
                fingerprint,
                cell,
                t_ms,
                sim_ms,
            } => {
                let mut fields = unit_fields("completed", *shard, *kind, *index, *fingerprint);
                fields.push(("cell", cell.as_ref().map_or(Json::Null, ToJson::to_json)));
                if let Some(ms) = sim_ms {
                    fields.push(("sim_ms", Json::UInt(*ms)));
                }
                stamp(&mut fields, t_ms);
                Json::obj(fields)
            }
            RunEvent::Cached {
                shard,
                kind,
                index,
                fingerprint,
                cell,
                t_ms,
            } => {
                let mut fields = unit_fields("cached", *shard, *kind, *index, *fingerprint);
                fields.push(("cell", cell.as_ref().map_or(Json::Null, ToJson::to_json)));
                stamp(&mut fields, t_ms);
                Json::obj(fields)
            }
            RunEvent::Heartbeat {
                shard,
                units_done,
                units_total,
                t_ms,
            } => {
                let mut fields = vec![
                    ("event", Json::Str("heartbeat".to_string())),
                    ("shard", Json::UInt(*shard as u64)),
                    ("units_done", Json::UInt(*units_done as u64)),
                    ("units_total", Json::UInt(*units_total as u64)),
                ];
                stamp(&mut fields, t_ms);
                Json::obj(fields)
            }
            RunEvent::ShardDone {
                shard,
                sims_executed,
                wall_clock_ms,
                t_ms,
            } => {
                let mut fields = vec![
                    ("event", Json::Str("shard_done".to_string())),
                    ("shard", Json::UInt(*shard as u64)),
                    ("sims_executed", Json::UInt(*sims_executed as u64)),
                    ("wall_clock_ms", Json::Num(*wall_clock_ms)),
                ];
                stamp(&mut fields, t_ms);
                Json::obj(fields)
            }
        }
    }
}

impl FromJson for RunEvent {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let event = json
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| JsonError::missing("event"))?;
        let shard = json
            .get("shard")
            .and_then(Json::as_usize)
            .ok_or_else(|| JsonError::missing("shard"))?;
        // Optional on every variant: logs written before timestamps existed
        // (or by a writer with timestamps disabled) parse as `None`.
        let t_ms = json.get("t_ms").and_then(Json::as_u64);
        if event == "shard_done" {
            return Ok(RunEvent::ShardDone {
                shard,
                sims_executed: json
                    .get("sims_executed")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| JsonError::missing("sims_executed"))?,
                wall_clock_ms: json
                    .get("wall_clock_ms")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| JsonError::missing("wall_clock_ms"))?,
                t_ms,
            });
        }
        if event == "heartbeat" {
            return Ok(RunEvent::Heartbeat {
                shard,
                units_done: json
                    .get("units_done")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| JsonError::missing("units_done"))?,
                units_total: json
                    .get("units_total")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| JsonError::missing("units_total"))?,
                t_ms,
            });
        }
        let kind = json
            .get("unit_kind")
            .and_then(Json::as_str)
            .and_then(UnitKind::parse)
            .ok_or_else(|| JsonError::missing("unit_kind"))?;
        let index = json
            .get("unit_index")
            .and_then(Json::as_usize)
            .ok_or_else(|| JsonError::missing("unit_index"))?;
        let fingerprint = json
            .get("fingerprint")
            .and_then(Json::as_str)
            .and_then(Fingerprint::parse_hex)
            .ok_or_else(|| JsonError::missing("fingerprint"))?;
        let cell = match json.get("cell") {
            None | Some(Json::Null) => None,
            Some(value) => Some(CellResult::from_json(value)?),
        };
        match event {
            "claimed" => Ok(RunEvent::Claimed {
                shard,
                kind,
                index,
                fingerprint,
                stolen: json.get("stolen").and_then(Json::as_bool).unwrap_or(false),
                t_ms,
            }),
            "completed" => Ok(RunEvent::Completed {
                shard,
                kind,
                index,
                fingerprint,
                cell,
                t_ms,
                sim_ms: json.get("sim_ms").and_then(Json::as_u64),
            }),
            "cached" => Ok(RunEvent::Cached {
                shard,
                kind,
                index,
                fingerprint,
                cell,
                t_ms,
            }),
            _ => Err(JsonError::missing("event")),
        }
    }
}

/// Parses a JSONL event log (one [`RunEvent`] per non-empty line).
///
/// # Errors
/// Returns an [`io::Error`] on unreadable input or an unparseable line.
pub fn read_events(reader: impl BufRead) -> io::Result<Vec<RunEvent>> {
    let mut events = Vec::new();
    for (number, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let value = json::parse(&line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("event log line {}: {e}", number + 1),
            )
        })?;
        events.push(RunEvent::from_json(&value).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("event log line {}: {e}", number + 1),
            )
        })?);
    }
    Ok(events)
}

/// Why [`merge_events`] could not assemble a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No event stream resolved the cell at this grid index; the logs are
    /// incomplete (e.g. a shard died and nobody resumed the run).
    MissingCell {
        /// Grid index (`w * columns + c`) of the unresolved cell.
        index: usize,
    },
    /// A cell-kind event carried no cell payload.
    MissingPayload {
        /// Grid index of the defective event.
        index: usize,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::MissingCell { index } => {
                write!(
                    f,
                    "no event stream resolved grid cell {index}; the run is incomplete"
                )
            }
            MergeError::MissingPayload { index } => {
                write!(f, "cell event {index} carries no cell payload")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Folds event streams from any number of shards into the deterministic
/// [`RunReport`] a single-process run produces.
///
/// Events are deduplicated per unit: execution provenance (`Completed`) wins
/// over cache provenance (`Cached`), and among equals the earliest event in
/// the given order wins — so replaying a killed shard's partial log alongside
/// the resumed run's log keeps the correct "simulated once" accounting.
/// `wall_clock_ms` is recorded verbatim (callers pass the measured local
/// duration, or the max over [`RunEvent::ShardDone`] durations — see
/// [`merged_wall_clock_ms`]).
///
/// # Errors
/// Returns [`MergeError`] if any grid cell is unresolved by every stream.
pub fn merge_events(
    plan: &Plan,
    events: impl IntoIterator<Item = RunEvent>,
    wall_clock_ms: f64,
) -> Result<RunReport, MergeError> {
    // Deduplicate into `(kind, index) -> (was_executed, payload)`, with
    // execution provenance winning over cache provenance.
    let mut resolved: HashMap<(UnitKind, usize), (bool, Option<CellResult>)> = HashMap::new();
    for event in events {
        let (executed, payload) = match &event {
            RunEvent::Completed { cell, .. } => (true, cell.clone()),
            RunEvent::Cached { cell, .. } => (false, cell.clone()),
            RunEvent::Claimed { .. } | RunEvent::Heartbeat { .. } | RunEvent::ShardDone { .. } => {
                continue
            }
        };
        let unit = event.unit().expect("unit events carry an identity");
        match resolved.get(&unit) {
            Some((true, _)) => {}               // execution already recorded
            Some((false, _)) if !executed => {} // first cached sighting wins
            _ => {
                resolved.insert(unit, (executed, payload));
            }
        }
    }
    let baseline_sims = (0..plan.baselines.len())
        .filter(|i| matches!(resolved.get(&(UnitKind::Baseline, *i)), Some((true, _))))
        .count();
    let sims_executed = resolved.values().filter(|(executed, _)| *executed).count();
    let mut cells = Vec::with_capacity(plan.cells.len());
    for index in 0..plan.cells.len() {
        match resolved.remove(&(UnitKind::Cell, index)) {
            Some((_, Some(cell))) => cells.push(cell),
            Some((_, None)) => return Err(MergeError::MissingPayload { index }),
            None => return Err(MergeError::MissingCell { index }),
        }
    }
    Ok(RunReport {
        title: plan.title.clone(),
        scale: plan.scale.clone(),
        threads: plan.threads,
        wall_clock_ms,
        baseline_sims,
        sims_executed,
        workloads: plan.workloads.clone(),
        columns: plan.columns.clone(),
        cells,
    })
}

/// The wall clock to record for a multi-stream merge: the maximum over
/// [`RunEvent::ShardDone`] durations (shards run concurrently), `0.0` when no
/// shard reported one.
pub fn merged_wall_clock_ms<'a>(events: impl IntoIterator<Item = &'a RunEvent>) -> f64 {
    events
        .into_iter()
        .filter_map(|event| match event {
            RunEvent::ShardDone { wall_clock_ms, .. } => Some(*wall_clock_ms),
            _ => None,
        })
        .fold(0.0, f64::max)
}

/// Builds the [`CellResult`] for `unit` from its raw result and baseline.
fn build_cell(
    unit: &WorkUnit,
    result: ExperimentResult,
    cached: bool,
    baseline: &ExperimentResult,
) -> CellResult {
    let normalized = if baseline.cycles == 0 {
        1.0
    } else {
        result.cycles as f64 / baseline.cycles as f64
    };
    CellResult {
        workload: unit.workload.name.clone(),
        column: unit.column.clone().unwrap_or_default(),
        defense: result.defense,
        cycles: result.cycles,
        committed: result.committed,
        completed: result.completed,
        cached,
        baseline_cycles: baseline.cycles,
        normalized_time: normalized,
        stats: result.stats,
    }
}

/// A sink shared by worker threads; every event is written (and flushed) the
/// moment it is produced, so logs stream.
struct EventSink<'a> {
    sink: Option<Mutex<&'a mut (dyn Write + Send)>>,
}

impl<'a> EventSink<'a> {
    fn new(sink: Option<&'a mut (dyn Write + Send)>) -> Self {
        EventSink {
            sink: sink.map(Mutex::new),
        }
    }

    /// Streams one event; write failures are deliberately swallowed (an
    /// unwritable log degrades observability, never correctness — the merge
    /// in `run()` uses the in-memory events).
    ///
    /// Every emission also bumps the process-wide [`obs::global`] registry,
    /// sink or no sink, so `MetricsRegistry::write_snapshot_jsonl` sees local
    /// and sharded runs alike.
    fn emit(&self, event: &RunEvent) {
        count_event(event);
        if let Some(sink) = &self.sink {
            let mut sink = sink.lock().unwrap();
            let _ = writeln!(sink, "{}", event.to_json().to_string_compact());
            let _ = sink.flush();
        }
    }
}

/// Mirrors one event into the global telemetry registry.
fn count_event(event: &RunEvent) {
    let metrics = obs::global();
    match event {
        RunEvent::Claimed { stolen, .. } => {
            metrics.inc("runner.units_claimed", &[], 1);
            if *stolen {
                metrics.inc("runner.leases_stolen", &[], 1);
            }
        }
        RunEvent::Completed { .. } => metrics.inc("runner.units_completed", &[], 1),
        RunEvent::Cached { .. } => metrics.inc("runner.units_cached", &[], 1),
        RunEvent::Heartbeat { .. } => metrics.inc("runner.heartbeats", &[], 1),
        RunEvent::ShardDone { sims_executed, .. } => {
            metrics.inc("runner.shards_done", &[], 1);
            metrics.inc("runner.sims_executed", &[], *sims_executed as u64);
        }
    }
}

/// Runs `f` over `jobs` on `threads` workers, returning results in job order.
pub(crate) fn run_parallel<T: Sync, R: Send>(
    jobs: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = threads.max(1).min(jobs.len().max(1));
    if workers <= 1 {
        return jobs.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(index) else { break };
                *slots[index].lock().unwrap() = Some(f(job));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("worker filled every slot")
        })
        .collect()
}

/// Executes a plan in-process — the engine behind
/// [`ExperimentSession::run`](crate::session::ExperimentSession::run).
///
/// Claiming is an atomic in-memory index (no lease files): a single process
/// needs no cross-process arbitration, and this keeps storeless runs
/// possible. Baseline results flow to their cells through memory; the store,
/// when present, is still consulted before and written after every
/// simulation. Events stream to `sink` as they happen and are returned in
/// deterministic unit order for the merge.
pub fn execute_local(
    plan: &Plan,
    store: Option<&ResultStore>,
    process_cache: bool,
    threads: usize,
    sink: Option<&mut (dyn Write + Send)>,
) -> Vec<RunEvent> {
    let shard = 0usize;
    let sink = EventSink::new(sink);

    // The one gateway to raw simulation: consult the store, simulate on a
    // miss, persist the result. Mirrors the pre-runner session exactly. The
    // third element is the simulation's wall time (`None` on a store hit).
    let run_or_load = |unit: &WorkUnit| -> (ExperimentResult, bool, Option<u64>) {
        if let Some(s) = store {
            if let Some(hit) = s.get(unit.fingerprint) {
                return (hit, true, None);
            }
        }
        let started = Instant::now();
        let result = session::simulate(&unit.workload, unit.defense, &unit.config);
        let sim_ms = started.elapsed().as_millis() as u64;
        if let Some(s) = store {
            let _ = s.put(unit.fingerprint, &result);
        }
        (result, false, Some(sim_ms))
    };

    // Phase A: baselines. Results flow to phase B through a fingerprint map.
    let baseline_outcomes = run_parallel(&plan.baselines, threads, |unit| {
        if process_cache && plan.memoized {
            if let Some(hit) = session::process_cache_get(&unit.workload, &unit.config) {
                // In-memory reuse within this process, not a store hit:
                // provenance stays `cached: false`. Write through to the
                // store so a warm process cache still leaves the store warm
                // for the next process.
                if let Some(s) = store {
                    if !s.contains(unit.fingerprint) {
                        let _ = s.put(unit.fingerprint, &hit);
                    }
                }
                let event = RunEvent::Cached {
                    shard,
                    kind: UnitKind::Baseline,
                    index: unit.index,
                    fingerprint: unit.fingerprint,
                    cell: None,
                    t_ms: stamp_now(),
                };
                sink.emit(&event);
                return (Arc::new(hit), false, event);
            }
        }
        let (result, cached, sim_ms) = run_or_load(unit);
        let result = Arc::new(result);
        let event = if cached {
            RunEvent::Cached {
                shard,
                kind: UnitKind::Baseline,
                index: unit.index,
                fingerprint: unit.fingerprint,
                cell: None,
                t_ms: stamp_now(),
            }
        } else {
            RunEvent::Completed {
                shard,
                kind: UnitKind::Baseline,
                index: unit.index,
                fingerprint: unit.fingerprint,
                cell: None,
                t_ms: stamp_now(),
                sim_ms,
            }
        };
        sink.emit(&event);
        (result, cached, event)
    });
    let mut events: Vec<RunEvent> = Vec::with_capacity(plan.baselines.len() + plan.cells.len());
    let mut baselines: HashMap<Fingerprint, (Arc<ExperimentResult>, bool)> = HashMap::new();
    for (unit, (result, cached, event)) in plan.baselines.iter().zip(baseline_outcomes) {
        if process_cache && plan.memoized {
            session::process_cache_put(&unit.workload, &unit.config, Arc::clone(&result));
        }
        baselines.insert(unit.fingerprint, (result, cached));
        events.push(event);
    }

    // Phase B: cells, reading baselines from the phase-A map.
    let cell_events = run_parallel(&plan.cells, threads, |unit| {
        let key = unit.baseline.expect("cell units always name a baseline");
        let (baseline, baseline_cached) = &baselines[&key];
        let (cell, executed, sim_ms) = if unit.copies_baseline {
            // An explicit Unprotected column *is* the baseline: derive it
            // rather than simulating the identical machine again, and
            // inherit the baseline's provenance.
            (
                build_cell(unit, (**baseline).clone(), *baseline_cached, baseline),
                false,
                None,
            )
        } else {
            let (result, cached, sim_ms) = run_or_load(unit);
            (build_cell(unit, result, cached, baseline), !cached, sim_ms)
        };
        let event = if executed {
            RunEvent::Completed {
                shard,
                kind: UnitKind::Cell,
                index: unit.index,
                fingerprint: unit.fingerprint,
                cell: Some(cell),
                t_ms: stamp_now(),
                sim_ms,
            }
        } else {
            RunEvent::Cached {
                shard,
                kind: UnitKind::Cell,
                index: unit.index,
                fingerprint: unit.fingerprint,
                cell: Some(cell),
                t_ms: stamp_now(),
            }
        };
        sink.emit(&event);
        event
    });
    events.extend(cell_events);
    events
}

/// How one shard of a multi-process run identifies and paces itself.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// This shard's id, `0 <= shard_id < shard_count`.
    pub shard_id: usize,
    /// Total number of cooperating shards (used only to spread starting
    /// offsets — any shard will steal any remaining unit).
    pub shard_count: usize,
    /// Identifier shared by every shard of one logical run; completion
    /// markers carry it, so freshness provenance survives process
    /// boundaries. Resuming a killed run reuses the same id; any *new*
    /// logical run must pick a fresh one — done markers outlive runs, so a
    /// reused id makes an earlier run's store entries read as freshly
    /// simulated (`cached: false`) instead of cached.
    pub run_id: String,
    /// How long a claimed-but-unfinished lease lives before another shard may
    /// steal it, *measured from the last heartbeat*. The executing shard
    /// re-stamps its lease every [`heartbeat_ms`](Self::heartbeat_ms), so
    /// this no longer needs to exceed the longest simulation — only the
    /// heartbeat interval, comfortably.
    pub lease_ttl_ms: u64,
    /// How often the executing shard re-stamps a held lease
    /// ([`ResultStore::heartbeat_lease`]) while it simulates. `0` disables
    /// heartbeats (then `lease_ttl_ms` must exceed the longest simulation,
    /// as before the heartbeat existed).
    pub heartbeat_ms: u64,
    /// How long to sleep between polls while waiting on another shard.
    pub poll_ms: u64,
}

impl ShardOptions {
    /// Options for shard `shard_id` of `shard_count` in run `run_id`, with a
    /// 30 s lease TTL, a 5 s heartbeat and a 5 ms poll interval. (The TTL
    /// used to be 120 s so it could outlast any one simulation; with the
    /// heartbeat it only needs to outlast a few missed beats, so crashed
    /// shards' work is reclaimed 4× sooner and an arbitrarily long
    /// `Scale::Large` cell is still never falsely stolen.)
    pub fn new(shard_id: usize, shard_count: usize, run_id: impl Into<String>) -> Self {
        ShardOptions {
            shard_id,
            shard_count,
            run_id: run_id.into(),
            lease_ttl_ms: 30_000,
            heartbeat_ms: 5_000,
            poll_ms: 5,
        }
    }
}

/// Keeps a held lease alive while its work unit simulates: a background
/// thread re-stamps the lease every `heartbeat_ms` until the guard is
/// dropped. Dropping stops the thread promptly (it wakes every few
/// milliseconds to check), so short units pay microseconds for the guard.
struct LeaseHeartbeat {
    stop: Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl LeaseHeartbeat {
    /// Spawns a heartbeat for `key`, or a no-op guard when
    /// `opts.heartbeat_ms` is zero.
    fn start(store: &ResultStore, key: Fingerprint, owner: &str, opts: &ShardOptions) -> Self {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        if opts.heartbeat_ms == 0 {
            return LeaseHeartbeat { stop, handle: None };
        }
        let thread_stop = Arc::clone(&stop);
        let store = store.clone();
        let owner = owner.to_string();
        let run_id = opts.run_id.clone();
        let interval = std::time::Duration::from_millis(opts.heartbeat_ms);
        let ttl_ms = opts.lease_ttl_ms;
        let handle = std::thread::spawn(move || {
            let slice = std::time::Duration::from_millis(10).min(interval);
            let mut since_beat = std::time::Instant::now();
            while !thread_stop.load(Ordering::Relaxed) {
                std::thread::sleep(slice);
                if since_beat.elapsed() >= interval {
                    since_beat = std::time::Instant::now();
                    // A failed or refused beat is not fatal: the lease may
                    // have been stolen (we lost the race — the duplicate
                    // simulation is benign) or the disk hiccuped (the next
                    // beat retries).
                    let _ = store.heartbeat_lease(key, &owner, &run_id, ttl_ms);
                }
            }
        });
        LeaseHeartbeat {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for LeaseHeartbeat {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// What one shard did, printed as JSON by `figure NAME --shard-id`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// This shard's id.
    pub shard_id: usize,
    /// The run's shard count.
    pub shard_count: usize,
    /// The shared run id.
    pub run_id: String,
    /// Units in the plan (baselines + cells).
    pub units_total: usize,
    /// Units this shard claimed and simulated.
    pub units_executed: usize,
    /// Units this shard resolved without simulating (store hits and units
    /// another shard finished first — the cache/steal rate of a cooperating
    /// shard).
    pub units_cached: usize,
    /// Units this shard claimed by stealing another holder's expired lease
    /// (a crashed or stalled shard's work it reclaimed).
    pub units_stolen: usize,
    /// Simulations this shard executed (equals `units_executed`).
    pub sims_executed: usize,
    /// This shard's wall clock, milliseconds.
    pub wall_clock_ms: f64,
}

impl ShardSummary {
    /// `units_cached / (units_executed + units_cached)`: the fraction of this
    /// shard's resolved units that cost it nothing. A late-joining shard of a
    /// finished run reports 1.0.
    pub fn cached_rate(&self) -> f64 {
        let resolved = self.units_executed + self.units_cached;
        if resolved == 0 {
            0.0
        } else {
            self.units_cached as f64 / resolved as f64
        }
    }
}

impl ToJson for ShardSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("shard_id", Json::UInt(self.shard_id as u64)),
            ("shard_count", Json::UInt(self.shard_count as u64)),
            ("run_id", Json::Str(self.run_id.clone())),
            ("units_total", Json::UInt(self.units_total as u64)),
            ("units_executed", Json::UInt(self.units_executed as u64)),
            ("units_cached", Json::UInt(self.units_cached as u64)),
            ("units_stolen", Json::UInt(self.units_stolen as u64)),
            ("sims_executed", Json::UInt(self.sims_executed as u64)),
            ("cached_rate", Json::Num(self.cached_rate())),
            ("wall_clock_ms", Json::Num(self.wall_clock_ms)),
        ])
    }
}

/// Shared mutable state of one shard's worker pool.
struct ShardState<'a> {
    plan: &'a Plan,
    store: &'a ResultStore,
    opts: &'a ShardOptions,
    owner: String,
    sink: EventSink<'a>,
    /// Baseline results this shard has already obtained, with freshness
    /// (`true` = simulated during this run, by any shard).
    baselines: Mutex<HashMap<Fingerprint, (Arc<ExperimentResult>, bool)>>,
    executed: AtomicUsize,
    cached: AtomicUsize,
    stolen: AtomicUsize,
}

impl ShardState<'_> {
    fn emit(&self, event: RunEvent) {
        self.sink.emit(&event);
    }

    /// Whether the store entry for `key` was produced during *this* run —
    /// i.e. should be reported with `cached: false`. True either once the
    /// done marker carries our run id, or while the lease is still live and
    /// not done under our run id: in the instant between a sibling shard's
    /// `put` and its `mark_done`, the entry is visible but the marker is not
    /// yet, and without the lease check two shards could disagree on the
    /// same unit's provenance (making a merged report diverge from the
    /// single-process one, nondeterministically).
    fn fresh_during_run(&self, key: Fingerprint) -> bool {
        self.store.completed_during(key, &self.opts.run_id)
            || self
                .store
                .read_lease(key)
                .is_some_and(|lease| lease.run_id == self.opts.run_id && !lease.done)
    }

    /// Obtains the baseline result behind `fingerprint`, simulating it under
    /// its own lease if nobody else has: blocks (poll + lease-steal) until
    /// the result exists. Returns the result and whether it is fresh (was
    /// simulated during this run).
    fn ensure_baseline(
        &self,
        fingerprint: Fingerprint,
    ) -> io::Result<(Arc<ExperimentResult>, bool)> {
        if let Some(hit) = self.baselines.lock().unwrap().get(&fingerprint) {
            return Ok(hit.clone());
        }
        let unit = self
            .plan
            .baseline_by_fingerprint(fingerprint)
            .expect("cells only reference planned baselines");
        loop {
            if let Some(result) = self.store.get(fingerprint) {
                let fresh = self.fresh_during_run(fingerprint);
                let result = Arc::new(result);
                self.baselines
                    .lock()
                    .unwrap()
                    .insert(fingerprint, (Arc::clone(&result), fresh));
                return Ok((result, fresh));
            }
            match self.store.try_lease(
                fingerprint,
                &self.owner,
                &self.opts.run_id,
                self.opts.lease_ttl_ms,
            )? {
                LeaseState::Busy(_) => {
                    std::thread::sleep(std::time::Duration::from_millis(self.opts.poll_ms));
                }
                acquisition => {
                    let stolen = matches!(acquisition, LeaseState::Stolen { .. });
                    if stolen {
                        self.stolen.fetch_add(1, Ordering::Relaxed);
                    }
                    self.emit(RunEvent::Claimed {
                        shard: self.opts.shard_id,
                        kind: UnitKind::Baseline,
                        index: unit.index,
                        fingerprint,
                        stolen,
                        t_ms: stamp_now(),
                    });
                    let heartbeat =
                        LeaseHeartbeat::start(self.store, fingerprint, &self.owner, self.opts);
                    let started = Instant::now();
                    let result = session::simulate(&unit.workload, unit.defense, &unit.config);
                    let sim_ms = started.elapsed().as_millis() as u64;
                    self.store.put(fingerprint, &result)?;
                    // Stop the heartbeat *before* writing the done marker: a
                    // beat racing with mark_done could rename a live
                    // (done=false) lease over the provenance marker. The
                    // entry is already in the store, so even a steal in this
                    // gap only duplicates work, never loses the result.
                    drop(heartbeat);
                    self.store
                        .mark_done(fingerprint, &self.owner, &self.opts.run_id)?;
                    self.executed.fetch_add(1, Ordering::Relaxed);
                    self.emit(RunEvent::Completed {
                        shard: self.opts.shard_id,
                        kind: UnitKind::Baseline,
                        index: unit.index,
                        fingerprint,
                        cell: None,
                        t_ms: stamp_now(),
                        sim_ms: Some(sim_ms),
                    });
                    let result = Arc::new(result);
                    self.baselines
                        .lock()
                        .unwrap()
                        .insert(fingerprint, (Arc::clone(&result), true));
                    return Ok((result, true));
                }
            }
        }
    }

    /// Resolves one unit of the plan: serve it from the store, or claim its
    /// lease and simulate it, or wait for (then steal from) whoever holds it.
    fn process_unit(&self, unit: &WorkUnit) -> io::Result<()> {
        let shard = self.opts.shard_id;
        // Derived cells never simulate: they wait on their baseline and
        // inherit its result and freshness.
        if unit.copies_baseline {
            let key = unit.baseline.expect("derived cells name a baseline");
            let (baseline, fresh) = self.ensure_baseline(key)?;
            let cell = build_cell(unit, (*baseline).clone(), !fresh, &baseline);
            self.cached.fetch_add(1, Ordering::Relaxed);
            self.emit(RunEvent::Cached {
                shard,
                kind: unit.kind,
                index: unit.index,
                fingerprint: unit.fingerprint,
                cell: Some(cell),
                t_ms: stamp_now(),
            });
            return Ok(());
        }
        loop {
            if let Some(result) = self.store.get(unit.fingerprint) {
                let fresh = self.fresh_during_run(unit.fingerprint);
                let cell = match unit.kind {
                    UnitKind::Baseline => {
                        self.baselines
                            .lock()
                            .unwrap()
                            .entry(unit.fingerprint)
                            .or_insert_with(|| (Arc::new(result), fresh));
                        None
                    }
                    UnitKind::Cell => {
                        let (baseline, _) =
                            self.ensure_baseline(unit.baseline.expect("cells name a baseline"))?;
                        Some(build_cell(unit, result, !fresh, &baseline))
                    }
                };
                self.cached.fetch_add(1, Ordering::Relaxed);
                self.emit(RunEvent::Cached {
                    shard,
                    kind: unit.kind,
                    index: unit.index,
                    fingerprint: unit.fingerprint,
                    cell,
                    t_ms: stamp_now(),
                });
                return Ok(());
            }
            // Cells fetch their baseline *before* claiming, so the claim
            // never sits idle (and cannot expire) while the baseline is
            // computed elsewhere.
            let baseline = match unit.kind {
                UnitKind::Cell => {
                    Some(self.ensure_baseline(unit.baseline.expect("cells name a baseline"))?)
                }
                UnitKind::Baseline => None,
            };
            match self.store.try_lease(
                unit.fingerprint,
                &self.owner,
                &self.opts.run_id,
                self.opts.lease_ttl_ms,
            )? {
                LeaseState::Busy(_) => {
                    std::thread::sleep(std::time::Duration::from_millis(self.opts.poll_ms));
                }
                acquisition => {
                    let stolen = matches!(acquisition, LeaseState::Stolen { .. });
                    if stolen {
                        self.stolen.fetch_add(1, Ordering::Relaxed);
                    }
                    self.emit(RunEvent::Claimed {
                        shard,
                        kind: unit.kind,
                        index: unit.index,
                        fingerprint: unit.fingerprint,
                        stolen,
                        t_ms: stamp_now(),
                    });
                    let heartbeat =
                        LeaseHeartbeat::start(self.store, unit.fingerprint, &self.owner, self.opts);
                    let started = Instant::now();
                    let result = session::simulate(&unit.workload, unit.defense, &unit.config);
                    let sim_ms = started.elapsed().as_millis() as u64;
                    self.store.put(unit.fingerprint, &result)?;
                    // Stop the heartbeat *before* writing the done marker (a
                    // racing beat could overwrite it with a live lease); the
                    // result is already persisted, so the tiny unguarded gap
                    // can at worst duplicate work, never lose it.
                    drop(heartbeat);
                    self.store
                        .mark_done(unit.fingerprint, &self.owner, &self.opts.run_id)?;
                    self.executed.fetch_add(1, Ordering::Relaxed);
                    let cell = match unit.kind {
                        UnitKind::Baseline => {
                            self.baselines
                                .lock()
                                .unwrap()
                                .insert(unit.fingerprint, (Arc::new(result), true));
                            None
                        }
                        UnitKind::Cell => {
                            let (ref baseline, _) = baseline.expect("cell baseline fetched above");
                            Some(build_cell(unit, result, false, baseline))
                        }
                    };
                    self.emit(RunEvent::Completed {
                        shard,
                        kind: unit.kind,
                        index: unit.index,
                        fingerprint: unit.fingerprint,
                        cell,
                        t_ms: stamp_now(),
                        sim_ms: Some(sim_ms),
                    });
                    return Ok(());
                }
            }
        }
    }
}

/// Executes one shard of a plan against a shared store directory, streaming
/// [`RunEvent`] JSONL to `sink` — the engine behind
/// [`ExperimentSession::run_sharded`](crate::session::ExperimentSession::run_sharded)
/// and `figure NAME --shard-id`.
///
/// Every shard walks the *whole* plan (baselines first, then cells), starting
/// at an offset spread by `shard_id` so cooperating shards collide rarely;
/// lease files arbitrate the collisions that remain, and whichever shard
/// finds a unit finished serves it from the store. A shard therefore emits an
/// event for every unit, and any single complete log reconstructs the whole
/// report — extra logs only refine the execution accounting.
///
/// # Errors
/// Returns an error if the store is read-only or lease/store writes fail.
/// Simulation itself never fails.
pub fn execute_shard(
    plan: &Plan,
    store: &ResultStore,
    opts: &ShardOptions,
    threads: usize,
    sink: &mut (dyn Write + Send),
) -> io::Result<ShardSummary> {
    if store.is_read_only() {
        return Err(io::Error::new(
            io::ErrorKind::PermissionDenied,
            "a sharded run needs a writable store (leases and results)",
        ));
    }
    if opts.shard_count == 0 || opts.shard_id >= opts.shard_count {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "shard id {} out of range for {} shard(s)",
                opts.shard_id, opts.shard_count
            ),
        ));
    }
    let started = Instant::now();
    let owner = format!(
        "{}/shard{}/pid{}",
        opts.run_id,
        opts.shard_id,
        std::process::id()
    );
    let state = ShardState {
        plan,
        store,
        opts,
        owner,
        sink: EventSink::new(Some(sink)),
        baselines: Mutex::new(HashMap::new()),
        executed: AtomicUsize::new(0),
        cached: AtomicUsize::new(0),
        stolen: AtomicUsize::new(0),
    };

    // Rotate each phase's unit list so shard k starts k/n of the way in:
    // shards file through disjoint regions first and steal stragglers later.
    let order = |units: &[WorkUnit]| -> Vec<usize> {
        let len = units.len();
        if len == 0 {
            return Vec::new();
        }
        let offset = (opts.shard_id * len) / opts.shard_count;
        (0..len).map(|i| (i + offset) % len).collect()
    };
    let units_total = plan.baselines.len() + plan.cells.len();
    let mut error: io::Result<()> = Ok(());
    // The heartbeat emitter shares the workers' scope: it streams one
    // `RunEvent::Heartbeat` per `opts.heartbeat_ms` while the phases run, so
    // a watcher can tell "working on a long unit" from "dead" without
    // waiting out the lease TTL. Same stop discipline as `LeaseHeartbeat`:
    // wake every few milliseconds so short shards exit promptly.
    let stop_beats = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        if opts.heartbeat_ms > 0 {
            let state = &state;
            let stop_beats = &stop_beats;
            scope.spawn(move || {
                let interval = std::time::Duration::from_millis(opts.heartbeat_ms);
                let slice = std::time::Duration::from_millis(10).min(interval);
                let mut since_beat = Instant::now();
                while !stop_beats.load(Ordering::Relaxed) {
                    std::thread::sleep(slice);
                    if since_beat.elapsed() >= interval {
                        since_beat = Instant::now();
                        state.emit(RunEvent::Heartbeat {
                            shard: opts.shard_id,
                            units_done: state.executed.load(Ordering::Relaxed)
                                + state.cached.load(Ordering::Relaxed),
                            units_total,
                            t_ms: stamp_now(),
                        });
                    }
                }
            });
        }
        for units in [&plan.baselines, &plan.cells] {
            let indices = order(units);
            let results = run_parallel(&indices, threads, |i| state.process_unit(&units[*i]));
            if let Some(e) = results.into_iter().find_map(Result::err) {
                error = Err(e);
                break;
            }
        }
        stop_beats.store(true, Ordering::Relaxed);
    });
    let wall_clock_ms = started.elapsed().as_secs_f64() * 1e3;
    let sims_executed = state.executed.load(Ordering::Relaxed);
    state.emit(RunEvent::ShardDone {
        shard: opts.shard_id,
        sims_executed,
        wall_clock_ms,
        t_ms: stamp_now(),
    });
    error?;
    Ok(ShardSummary {
        shard_id: opts.shard_id,
        shard_count: opts.shard_count,
        run_id: opts.run_id.clone(),
        units_total,
        units_executed: sims_executed,
        units_cached: state.cached.load(Ordering::Relaxed),
        units_stolen: state.stolen.load(Ordering::Relaxed),
        sims_executed,
        wall_clock_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ExperimentSession;
    use workloads::{spec_suite, Scale};

    fn tiny_session(workloads_count: usize, kinds: &[DefenseKind]) -> ExperimentSession {
        ExperimentSession::new()
            .title("runner test grid")
            .scale(Scale::Tiny)
            .workloads(spec_suite(Scale::Tiny).into_iter().take(workloads_count))
            .defenses(kinds.iter().copied())
            .config(SystemConfig::small_test())
    }

    #[test]
    fn plan_is_pure_and_deterministic() {
        let session = tiny_session(2, &[DefenseKind::Unprotected, DefenseKind::MuonTrap]);
        let a = session.plan();
        let b = session.plan();
        assert_eq!(a.workloads, b.workloads);
        assert_eq!(a.columns, b.columns);
        assert_eq!(a.baselines.len(), 2, "one baseline per workload");
        assert_eq!(a.cells.len(), 4);
        for (ua, ub) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ua.fingerprint, ub.fingerprint);
            assert_eq!(ua.baseline, ub.baseline);
        }
        // The Unprotected column is derived, keyed by its baseline.
        assert!(a.cells[0].copies_baseline);
        assert_eq!(a.cells[0].fingerprint, a.cells[0].baseline.unwrap());
        assert!(!a.cells[1].copies_baseline);
        assert_eq!(a.expected_cold_sims(), 4); // 2 baselines + 2 muontrap cells
    }

    #[test]
    fn unmemoized_plans_carry_one_baseline_per_cell() {
        let plan = tiny_session(2, &[DefenseKind::MuonTrap, DefenseKind::SttSpectre])
            .memoize(false)
            .plan();
        assert_eq!(plan.cells.len(), 4);
        assert_eq!(plan.baselines.len(), 4, "no deduplication without memoize");
        assert!(!plan.memoized);
    }

    #[test]
    fn events_round_trip_through_json() {
        let report = tiny_session(1, &[DefenseKind::MuonTrap]).run();
        let cell = report.cells[0].clone();
        let samples = [
            RunEvent::Claimed {
                shard: 3,
                kind: UnitKind::Baseline,
                index: 7,
                fingerprint: Fingerprint(0xdead_beef),
                stolen: false,
                t_ms: None,
            },
            RunEvent::Claimed {
                shard: 2,
                kind: UnitKind::Cell,
                index: 4,
                fingerprint: Fingerprint(0xfeed),
                stolen: true,
                t_ms: Some(1_700_000_123_456),
            },
            RunEvent::Completed {
                shard: 0,
                kind: UnitKind::Cell,
                index: 2,
                fingerprint: Fingerprint(1),
                cell: Some(cell.clone()),
                t_ms: Some(1_700_000_123_789),
                sim_ms: Some(840),
            },
            RunEvent::Completed {
                shard: 0,
                kind: UnitKind::Baseline,
                index: 0,
                fingerprint: Fingerprint(2),
                cell: None,
                t_ms: None,
                sim_ms: None,
            },
            RunEvent::Cached {
                shard: 1,
                kind: UnitKind::Cell,
                index: 9,
                fingerprint: Fingerprint(3),
                cell: Some(cell),
                t_ms: None,
            },
            RunEvent::Heartbeat {
                shard: 1,
                units_done: 3,
                units_total: 8,
                t_ms: Some(1_700_000_124_000),
            },
            RunEvent::ShardDone {
                shard: 1,
                sims_executed: 12,
                wall_clock_ms: 34.5,
                t_ms: None,
            },
        ];
        for event in &samples {
            let line = event.to_json().to_string_compact();
            let back = RunEvent::from_json(&json::parse(&line).unwrap()).unwrap();
            assert_eq!(&back, event, "event must survive the JSONL round trip");
        }
        // A whole log round-trips through the line reader.
        let log: String = samples
            .iter()
            .map(|e| format!("{}\n", e.to_json().to_string_compact()))
            .collect();
        let parsed = read_events(log.as_bytes()).unwrap();
        assert_eq!(parsed, samples);
        assert!(read_events("not json\n".as_bytes()).is_err());
    }

    #[test]
    fn legacy_timestamp_free_logs_still_parse() {
        // An event with no timestamp and no steal serialises byte-identically
        // to the pre-observability wire format…
        let event = RunEvent::Claimed {
            shard: 0,
            kind: UnitKind::Cell,
            index: 1,
            fingerprint: Fingerprint(7),
            stolen: false,
            t_ms: None,
        };
        let line = event.to_json().to_string_compact();
        assert!(!line.contains("t_ms"), "absent stamps must not serialise");
        assert!(!line.contains("stolen"), "false steals must not serialise");
        // …and a hand-written legacy line (the old format verbatim) parses,
        // defaulting the new fields.
        let legacy = format!(
            r#"{{"event":"claimed","shard":0,"unit_kind":"cell","unit_index":1,"fingerprint":"{}"}}"#,
            Fingerprint(7).to_hex()
        );
        let back = RunEvent::from_json(&json::parse(&legacy).unwrap()).unwrap();
        assert_eq!(back, event);
        let legacy_done =
            r#"{"event":"shard_done","shard":2,"sims_executed":5,"wall_clock_ms":1.5}"#;
        let back = RunEvent::from_json(&json::parse(legacy_done).unwrap()).unwrap();
        assert_eq!(
            back,
            RunEvent::ShardDone {
                shard: 2,
                sims_executed: 5,
                wall_clock_ms: 1.5,
                t_ms: None,
            }
        );
    }

    #[test]
    fn merge_requires_every_cell_and_prefers_execution_provenance() {
        let session = tiny_session(1, &[DefenseKind::MuonTrap]);
        let plan = session.clone().plan();
        let events = execute_local(&plan, None, false, 1, None);
        // Missing cells are an error, not a silent hole.
        let partial: Vec<RunEvent> = events
            .iter()
            .filter(|e| e.unit().map(|(k, _)| k) != Some(UnitKind::Cell))
            .cloned()
            .collect();
        assert_eq!(
            merge_events(&plan, partial, 0.0),
            Err(MergeError::MissingCell { index: 0 })
        );
        // Duplicated streams (a retried shard replaying its log) change
        // nothing: Completed wins over Cached, and sims are counted once.
        let mut cached_shadow = events.clone();
        for event in events.clone() {
            if let RunEvent::Completed {
                shard,
                kind,
                index,
                fingerprint,
                cell,
                t_ms,
                ..
            } = event
            {
                cached_shadow.push(RunEvent::Cached {
                    shard: shard + 1,
                    kind,
                    index,
                    fingerprint,
                    cell: cell.map(|mut c| {
                        c.cached = true;
                        c
                    }),
                    t_ms,
                });
            }
        }
        let once = merge_events(&plan, events, 0.0).unwrap();
        let doubled = merge_events(&plan, cached_shadow, 0.0).unwrap();
        assert_eq!(once.sims_executed, 2);
        assert_eq!(doubled.sims_executed, 2);
        assert_eq!(once.cells, doubled.cells);
        assert!(!doubled.cells[0].cached, "execution provenance must win");
    }

    #[test]
    fn default_options_shrink_the_ttl_and_enable_heartbeats() {
        let opts = ShardOptions::new(0, 2, "run");
        assert_eq!(opts.lease_ttl_ms, 30_000);
        assert_eq!(opts.heartbeat_ms, 5_000);
        assert!(
            opts.heartbeat_ms * 3 <= opts.lease_ttl_ms,
            "a lease must survive a few missed beats"
        );
    }

    #[test]
    fn heartbeat_guard_keeps_long_units_from_being_stolen() {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        let dir = std::env::temp_dir().join(format!(
            "muontrap-runner-heartbeat-{}-{nanos}",
            std::process::id()
        ));
        let store = ResultStore::open(&dir).unwrap();
        let key = Fingerprint(0xbeef);
        let mut opts = ShardOptions::new(0, 1, "hb-run");
        opts.lease_ttl_ms = 100;
        opts.heartbeat_ms = 25;
        let owner = "hb-owner";
        assert_eq!(
            store
                .try_lease(key, owner, &opts.run_id, opts.lease_ttl_ms)
                .unwrap(),
            crate::store::LeaseState::Acquired
        );
        {
            // Simulated long-running unit: three TTLs long.
            let _guard = LeaseHeartbeat::start(&store, key, owner, &opts);
            std::thread::sleep(std::time::Duration::from_millis(300));
            match store
                .try_lease(key, "thief", &opts.run_id, opts.lease_ttl_ms)
                .unwrap()
            {
                crate::store::LeaseState::Busy(info) => assert_eq!(info.owner, owner),
                other => {
                    panic!("the heartbeat must keep the lease alive past its TTL, got {other:?}")
                }
            }
        }
        // Guard dropped (holder "crashed"): the lease expires one TTL after
        // its last beat and is reclaimed — reported as a steal, with the
        // crashed holder's lease attached.
        std::thread::sleep(std::time::Duration::from_millis(150));
        match store.try_lease(key, "thief", &opts.run_id, 60_000).unwrap() {
            crate::store::LeaseState::Stolen { previous } => {
                assert_eq!(previous.expect("the expired lease survives").owner, owner);
            }
            other => panic!("an expired lease is stolen, not freshly acquired: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merged_wall_clock_is_the_slowest_shard() {
        let events = [
            RunEvent::ShardDone {
                shard: 0,
                sims_executed: 1,
                wall_clock_ms: 10.0,
                t_ms: None,
            },
            RunEvent::ShardDone {
                shard: 1,
                sims_executed: 2,
                wall_clock_ms: 25.0,
                t_ms: None,
            },
        ];
        assert_eq!(merged_wall_clock_ms(events.iter()), 25.0);
        assert_eq!(merged_wall_clock_ms([].iter()), 0.0);
    }
}
