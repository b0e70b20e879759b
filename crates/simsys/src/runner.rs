//! The execution subsystem behind every experiment.
//!
//! [`ExperimentSession::run`](crate::session::ExperimentSession::run) is
//! four composable stages:
//!
//! 1. **Plan** — [`ExperimentSession::plan`](crate::session::ExperimentSession::plan)
//!    enumerates every baseline and grid cell as a self-describing,
//!    fingerprint-keyed [`WorkUnit`]. Planning is pure and host-independent
//!    (it reuses [`crate::store::cell_fingerprint`]), so `merge` rebuilds
//!    the plan a run used from the figure name alone.
//! 2. **Execute** — [`execute_local`] hands units to a thread pool through an
//!    atomic index. Each unit is looked up in the content-addressed store,
//!    simulated on a miss, and persisted. Resuming a killed run means
//!    re-running it on the same store: finished units are store hits.
//! 3. **Stream** — every unit resolution is emitted immediately as one
//!    [`RunEvent`] line of JSONL (`--events FILE` on the binaries), so
//!    progress is observable mid-run (`merge --watch`).
//! 4. **Merge** — [`merge_events`] folds an event stream back into the
//!    deterministic [`RunReport`], deduplicating by unit and preferring
//!    execution provenance over cache provenance. `run()` merges its
//!    in-memory events; `merge` folds the same events read from a log.

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
use crate::store::ResultStore;

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
/// A unit carries everything needed to execute it — the full workload
/// (programs included), defense and machine — plus its store fingerprint,
/// so every run of the same grid agrees on identity by construction.
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
/// lets `merge` fold a log written by another process.
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
    /// Baseline units, one per distinct (workload, baseline machine).
    pub baselines: Vec<WorkUnit>,
    /// Cell units, workload-major grid order.
    pub cells: Vec<WorkUnit>,
}

impl Plan {
    /// Number of simulations a cold, duplicate-free execution performs:
    /// every baseline unit plus every non-derived cell.
    pub fn expected_cold_sims(&self) -> usize {
        self.baselines.len() + self.cells.iter().filter(|c| !c.copies_baseline).count()
    }
}

/// One line of the streaming JSONL event log.
///
/// `Completed` means a simulation was executed for the unit (it counts
/// toward [`RunReport::sims_executed`]); `Cached` means the unit resolved
/// without simulating — a store hit or a derived
/// `Unprotected` cell. Cell-kind events carry the full [`CellResult`] so the
/// merger can rebuild the report from logs alone.
///
/// Both variants carry an optional epoch-anchored monotonic timestamp
/// (`t_ms`, [`obs::now_ms`]), omitted from the JSON when absent — logs
/// written before timestamps existed still parse, and `merge --watch` uses
/// the stamps for rates, ETAs and stall detection.
#[derive(Debug, Clone, PartialEq)]
pub enum RunEvent {
    /// The unit was simulated during this run.
    Completed {
        /// Always 0 for events this crate writes; kept in the wire format
        /// so older logs keep parsing.
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
        /// Feeds the latency percentiles on the watch dashboard.
        sim_ms: Option<u64>,
    },
    /// The unit resolved without a simulation.
    Cached {
        /// Always 0 for events this crate writes (see `Completed`).
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
}

impl RunEvent {
    /// The `(kind, index)` unit identity.
    pub fn unit(&self) -> (UnitKind, usize) {
        match self {
            RunEvent::Completed { kind, index, .. } | RunEvent::Cached { kind, index, .. } => {
                (*kind, *index)
            }
        }
    }

    /// The emission timestamp, when the writer recorded one.
    pub fn t_ms(&self) -> Option<u64> {
        match self {
            RunEvent::Completed { t_ms, .. } | RunEvent::Cached { t_ms, .. } => *t_ms,
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
        let (event, sim_ms) = match self {
            RunEvent::Completed { sim_ms, .. } => ("completed", *sim_ms),
            RunEvent::Cached { .. } => ("cached", None),
        };
        let (RunEvent::Completed {
            shard,
            kind,
            index,
            fingerprint,
            cell,
            t_ms,
            ..
        }
        | RunEvent::Cached {
            shard,
            kind,
            index,
            fingerprint,
            cell,
            t_ms,
        }) = self;
        let mut fields = vec![
            ("event", Json::Str(event.to_string())),
            ("shard", Json::UInt(*shard as u64)),
            ("unit_kind", Json::Str(kind.name().to_string())),
            ("unit_index", Json::UInt(*index as u64)),
            ("fingerprint", Json::Str(fingerprint.to_hex())),
            ("cell", cell.as_ref().map_or(Json::Null, ToJson::to_json)),
        ];
        // `sim_ms` and `t_ms` are emitted only when present: events carrying
        // neither serialise exactly as they did before the fields existed,
        // so old readers and golden logs stay valid.
        if let Some(ms) = sim_ms {
            fields.push(("sim_ms", Json::UInt(ms)));
        }
        if let Some(t) = t_ms {
            fields.push(("t_ms", Json::UInt(*t)));
        }
        Json::obj(fields)
    }
}

impl FromJson for RunEvent {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let event = json
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| JsonError::missing("event"))?;
        if event != "completed" && event != "cached" {
            return Err(JsonError::decode(format!("unknown event \"{event}\"")));
        }
        let shard = json
            .get("shard")
            .and_then(Json::as_usize)
            .ok_or_else(|| JsonError::missing("shard"))?;
        // Optional: logs written before timestamps existed parse as `None`.
        let t_ms = json.get("t_ms").and_then(Json::as_u64);
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
        Ok(if event == "completed" {
            RunEvent::Completed {
                shard,
                kind,
                index,
                fingerprint,
                cell,
                t_ms,
                sim_ms: json.get("sim_ms").and_then(Json::as_u64),
            }
        } else {
            RunEvent::Cached {
                shard,
                kind,
                index,
                fingerprint,
                cell,
                t_ms,
            }
        })
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
    /// No event resolved the cell at this grid index; the log is
    /// incomplete (e.g. the run was killed and not yet re-run).
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
                    "no event resolved grid cell {index}; the run is incomplete"
                )
            }
            MergeError::MissingPayload { index } => {
                write!(f, "cell event {index} carries no cell payload")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Folds an event stream into the deterministic [`RunReport`] a local run
/// produces.
///
/// Events are deduplicated per unit: execution provenance (`Completed`) wins
/// over cache provenance (`Cached`), and among equals the earliest event in
/// the given order wins, so a unit is never counted as simulated twice.
/// `wall_clock_ms` is recorded verbatim (callers pass the measured local
/// duration, or a log's [`log_span_ms`]).
///
/// # Errors
/// Returns [`MergeError`] if any grid cell is unresolved by the stream.
pub fn merge_events(
    plan: &Plan,
    events: impl IntoIterator<Item = RunEvent>,
    wall_clock_ms: f64,
) -> Result<RunReport, MergeError> {
    // Deduplicate into `(kind, index) -> (was_executed, payload)`, with
    // execution provenance winning over cache provenance.
    let mut resolved: HashMap<(UnitKind, usize), (bool, Option<CellResult>)> = HashMap::new();
    for event in events {
        let unit = event.unit();
        let (executed, payload) = match event {
            RunEvent::Completed { cell, .. } => (true, cell),
            RunEvent::Cached { cell, .. } => (false, cell),
        };
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

/// The wall clock a merged log records: milliseconds from its first to its
/// last timestamp (`0.0` with fewer than two stamps). It is the `elapsed`
/// the watch frame prints, and it starts at the first resolution, so it
/// never exceeds the run's own `wall_clock_ms`.
pub fn log_span_ms<'a>(events: impl IntoIterator<Item = &'a RunEvent>) -> f64 {
    let mut stamps = events.into_iter().filter_map(RunEvent::t_ms);
    let Some(first) = stamps.next() else {
        return 0.0;
    };
    let (lo, hi) = stamps.fold((first, first), |(lo, hi), t| (lo.min(t), hi.max(t)));
    (hi - lo) as f64
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
    /// sink or no sink, so `MetricsRegistry::write_snapshot_jsonl` sees it.
    fn emit(&self, event: &RunEvent) {
        let counter = match event {
            RunEvent::Completed { .. } => "runner.units_completed",
            RunEvent::Cached { .. } => "runner.units_cached",
        };
        obs::global().inc(counter, &[], 1);
        if let Some(sink) = &self.sink {
            let mut sink = sink.lock().unwrap();
            let _ = writeln!(sink, "{}", event.to_json().to_string_compact());
            let _ = sink.flush();
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
/// Workers take units through an atomic in-memory index, so storeless runs
/// work too. Baseline results flow to their cells through memory; the store,
/// when present, is consulted before and written after every simulation.
/// Store faults never fail the run: a failed read is a miss and a failed
/// write only leaves the unit to be simulated again next time. Events stream to `sink` as they happen and are returned in
/// deterministic unit order for the merge.
pub fn execute_local(
    plan: &Plan,
    store: Option<&ResultStore>,
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
    fn events_round_trip_through_json() {
        let report = tiny_session(1, &[DefenseKind::MuonTrap]).run();
        let cell = report.cells[0].clone();
        let samples = [
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
        // An event with no timestamp serialises byte-identically to the
        // pre-observability wire format…
        let event = RunEvent::Cached {
            shard: 0,
            kind: UnitKind::Baseline,
            index: 1,
            fingerprint: Fingerprint(7),
            cell: None,
            t_ms: None,
        };
        let line = event.to_json().to_string_compact();
        assert!(!line.contains("t_ms"), "absent stamps must not serialise");
        // …and a hand-written legacy line (the old format verbatim) parses,
        // defaulting the new fields.
        let legacy = format!(
            r#"{{"event":"cached","shard":0,"unit_kind":"baseline","unit_index":1,"fingerprint":"{}","cell":null}}"#,
            Fingerprint(7).to_hex()
        );
        assert_eq!(line, legacy);
        let back = RunEvent::from_json(&json::parse(&legacy).unwrap()).unwrap();
        assert_eq!(back, event);
    }

    #[test]
    fn unknown_event_names_are_reported_by_name() {
        // Logs from the retired multi-process runner carry `claimed`,
        // `heartbeat` and `shard_done` lines; each must fail naming the
        // event, not blame a missing field.
        for name in ["claimed", "heartbeat", "shard_done", "stolen_claim"] {
            let line = format!(
                r#"{{"event":"{name}","shard":0,"unit_kind":"cell","unit_index":1,"fingerprint":"{}"}}"#,
                Fingerprint(7).to_hex()
            );
            let error = RunEvent::from_json(&json::parse(&line).unwrap()).unwrap_err();
            assert_eq!(
                error,
                JsonError::decode(format!("unknown event \"{name}\""))
            );
        }
        let log = format!(
            "{}\n{{\"event\":\"heartbeat\",\"shard\":0}}\n",
            RunEvent::Cached {
                shard: 0,
                kind: UnitKind::Baseline,
                index: 0,
                fingerprint: Fingerprint(1),
                cell: None,
                t_ms: None,
            }
            .to_json()
            .to_string_compact()
        );
        let error = read_events(log.as_bytes()).unwrap_err().to_string();
        assert!(
            error.contains("line 2") && error.contains("unknown event \"heartbeat\""),
            "{error}"
        );
    }

    #[test]
    fn merge_requires_every_cell_and_prefers_execution_provenance() {
        let session = tiny_session(1, &[DefenseKind::MuonTrap]);
        let plan = session.clone().plan();
        let events = execute_local(&plan, None, 1, None);
        // Missing cells are an error, not a silent hole.
        let partial: Vec<RunEvent> = events
            .iter()
            .filter(|e| e.unit().0 != UnitKind::Cell)
            .cloned()
            .collect();
        assert_eq!(
            merge_events(&plan, partial, 0.0),
            Err(MergeError::MissingCell { index: 0 })
        );
        // Duplicated events (a log replayed twice) change nothing: Completed wins over Cached, and sims are counted once.
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
    fn merged_wall_clock_is_the_log_span() {
        let at = |index: usize, t_ms: Option<u64>| RunEvent::Cached {
            shard: 0,
            kind: UnitKind::Cell,
            index,
            fingerprint: Fingerprint(index as u128),
            cell: None,
            t_ms,
        };
        let events = [
            at(0, Some(1_010)),
            at(1, None),
            at(2, Some(1_000)),
            at(3, Some(1_025)),
        ];
        assert_eq!(log_span_ms(events.iter()), 25.0);
        assert_eq!(
            log_span_ms(events[..2].iter()),
            0.0,
            "one stamp spans nothing"
        );
        assert_eq!(log_span_ms([].iter()), 0.0);
    }
}
