//! The traced re-execution: the same plans run through the same public
//! layer calls as `ExperimentSession::run_with_events`, with timing
//! wrappers at every layer boundary.
//!
//! * [`TracedModel`] decorates the [`MemoryModel`] that
//!   `DefenseKind::build` returns and is handed to [`System::new`] in its
//!   place. It forwards every trait method — the defaulted ones too, since
//!   relying on a default would silently change STT's taint tracking or
//!   MuonTrap's wake timing — and times each call.
//! * [`TracedBackend`] decorates [`FsBackend`] and is handed to
//!   [`ResultStore::with_backend`], splitting store time into backend I/O
//!   and the store's own encode/decode.
//! * [`Tracer::execute`] walks a [`Plan`] the way the local runner does
//!   (baselines, then cells, each phase spread over the worker threads),
//!   with spans around `ResultStore::get`/`put`, `System::run` and
//!   `merge_events`.
//!
//! Simulated results must not change under tracing; the caller compares
//! every traced cell with the untraced run's.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use memsys::PageTable;
use ooo_core::{DomainSwitch, MemAccessCtx, MemOutcome, MemoryModel};
use simkit::cycles::Cycle;
use simkit::fingerprint::Fingerprint;
use simkit::stats::StatSet;
use simsys::runner::{self, Plan, RunEvent, UnitKind, WorkUnit};
use simsys::session::{CellResult, ExperimentResult, RunReport};
use simsys::store::{FsBackend, ObjectMeta, ResultStore, StoreBackend};
use simsys::system::System;

/// The memory-model calls the decorator times, in report order. The first
/// eight are the accesses and notifications the core drives; the rest are
/// the polls and set-up calls the system loop makes.
pub const CALLS: [&str; 12] = [
    "load",
    "fetch_instruction",
    "commit_access",
    "commit_fetch",
    "store_address_ready",
    "tick",
    "on_squash",
    "on_domain_switch",
    "next_event",
    "is_idle",
    "needs_taint_tracking",
    "set_page_table",
];

#[derive(Clone, Copy)]
enum Call {
    Load,
    FetchInstruction,
    CommitAccess,
    CommitFetch,
    StoreAddressReady,
    Tick,
    OnSquash,
    OnDomainSwitch,
    NextEvent,
    IsIdle,
    NeedsTaintTracking,
    SetPageTable,
}

/// Per-simulation call tallies, shared between the decorator (owned by the
/// `System`) and the executor that reads them after the run.
#[derive(Default)]
struct ModelTally {
    calls: [Cell<u64>; CALLS.len()],
    ns: [Cell<u64>; CALLS.len()],
    retries: Cell<u64>,
}

impl ModelTally {
    fn add(&self, call: Call, started: Instant) {
        let i = call as usize;
        self.calls[i].set(self.calls[i].get() + 1);
        self.ns[i].set(self.ns[i].get() + started.elapsed().as_nanos() as u64);
    }
}

/// A timing decorator over any memory model.
pub struct TracedModel {
    inner: Box<dyn MemoryModel>,
    tally: Rc<ModelTally>,
}

impl MemoryModel for TracedModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn needs_taint_tracking(&self) -> bool {
        let t = Instant::now();
        let r = self.inner.needs_taint_tracking();
        self.tally.add(Call::NeedsTaintTracking, t);
        r
    }

    fn fetch_instruction(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
        let t = Instant::now();
        let r = self.inner.fetch_instruction(ctx);
        self.tally.add(Call::FetchInstruction, t);
        r
    }

    fn load(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
        let t = Instant::now();
        let r = self.inner.load(ctx);
        self.tally.add(Call::Load, t);
        if r == MemOutcome::RetryWhenNonSpeculative {
            self.tally.retries.set(self.tally.retries.get() + 1);
        }
        r
    }

    fn store_address_ready(&mut self, ctx: &MemAccessCtx) {
        let t = Instant::now();
        self.inner.store_address_ready(ctx);
        self.tally.add(Call::StoreAddressReady, t);
    }

    fn commit_access(&mut self, ctx: &MemAccessCtx) -> u64 {
        let t = Instant::now();
        let r = self.inner.commit_access(ctx);
        self.tally.add(Call::CommitAccess, t);
        r
    }

    fn on_squash(&mut self, core: usize, when: Cycle) {
        let t = Instant::now();
        self.inner.on_squash(core, when);
        self.tally.add(Call::OnSquash, t);
    }

    fn commit_fetch(&mut self, ctx: &MemAccessCtx) {
        let t = Instant::now();
        self.inner.commit_fetch(ctx);
        self.tally.add(Call::CommitFetch, t);
    }

    fn set_page_table(&mut self, core: usize, table: PageTable) {
        let t = Instant::now();
        self.inner.set_page_table(core, table);
        self.tally.add(Call::SetPageTable, t);
    }

    fn on_domain_switch(&mut self, core: usize, kind: DomainSwitch, when: Cycle) {
        let t = Instant::now();
        self.inner.on_domain_switch(core, kind, when);
        self.tally.add(Call::OnDomainSwitch, t);
    }

    fn tick(&mut self, core: usize, now: Cycle) {
        let t = Instant::now();
        self.inner.tick(core, now);
        self.tally.add(Call::Tick, t);
    }

    fn is_idle(&self, core: usize) -> bool {
        let t = Instant::now();
        let r = self.inner.is_idle(core);
        self.tally.add(Call::IsIdle, t);
        r
    }

    fn next_event(&self, core: usize, now: Cycle) -> Cycle {
        let t = Instant::now();
        let r = self.inner.next_event(core, now);
        self.tally.add(Call::NextEvent, t);
        r
    }

    fn stats(&self) -> StatSet {
        self.inner.stats()
    }
}

/// Store-backend tallies (atomics: the store is shared by worker threads).
#[derive(Debug, Default)]
pub struct BackendTally {
    read_ns: AtomicU64,
    write_ns: AtomicU64,
    bytes_written: AtomicU64,
}

impl BackendTally {
    /// (read ns, write ns, bytes written) so far.
    pub fn totals(&self) -> (u64, u64, u64) {
        (
            self.read_ns.load(Ordering::Relaxed),
            self.write_ns.load(Ordering::Relaxed),
            self.bytes_written.load(Ordering::Relaxed),
        )
    }
}

/// A timing decorator over the filesystem store backend. Reads and
/// atomic puts are timed; every other method is forwarded untimed.
#[derive(Debug)]
pub struct TracedBackend {
    inner: FsBackend,
    tally: Arc<BackendTally>,
}

impl TracedBackend {
    /// A traced [`FsBackend`] rooted at `root`.
    pub fn new(root: impl Into<std::path::PathBuf>, tally: Arc<BackendTally>) -> TracedBackend {
        TracedBackend {
            inner: FsBackend::new(root),
            tally,
        }
    }
}

impl StoreBackend for TracedBackend {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        let t = Instant::now();
        let r = self.inner.read(name);
        add_ns(&self.tally.read_ns, t);
        r
    }

    fn put_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.put_atomic(name, bytes);
        add_ns(&self.tally.write_ns, t);
        self.tally
            .bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        r
    }

    fn create_new(&self, name: &str, bytes: &[u8]) -> io::Result<bool> {
        self.inner.create_new(name, bytes)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }

    fn list(&self, prefix: &str) -> io::Result<Vec<ObjectMeta>> {
        self.inner.list(prefix)
    }

    fn sweep_temp(&self, grace: Duration) -> io::Result<()> {
        self.inner.sweep_temp(grace)
    }
}

fn add_ns(counter: &AtomicU64, started: Instant) {
    counter.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// Host time of one defense's simulations.
#[derive(Debug, Default, Clone, Copy)]
pub struct ModelTime {
    /// Nanoseconds inside `System::run`.
    pub run_ns: u64,
    /// Nanoseconds inside memory-model calls (a subset of `run_ns`).
    pub mem_ns: u64,
}

/// Everything the traced run accumulates, summed over its simulations and
/// store operations.
#[derive(Debug, Default)]
pub struct Totals {
    /// Calls per entry of [`CALLS`].
    pub calls: [u64; CALLS.len()],
    /// Nanoseconds per entry of [`CALLS`].
    pub call_ns: [u64; CALLS.len()],
    /// `load` calls answered `RetryWhenNonSpeculative`.
    pub load_retries: u64,
    /// Host time per defense label.
    pub by_model: BTreeMap<&'static str, ModelTime>,
    /// Per-core pipeline ticks the system loop performed.
    pub ticks: u64,
    /// Simulated cycles of the traced simulations.
    pub sim_cycles: u64,
    /// Wall milliseconds of each simulated unit.
    pub unit_ms: Vec<f64>,
    /// `ResultStore::get` calls.
    pub gets: u64,
    /// Nanoseconds inside `ResultStore::get`.
    pub get_ns: u64,
    /// `ResultStore::put` calls.
    pub puts: u64,
    /// Nanoseconds inside `ResultStore::put`.
    pub put_ns: u64,
    /// Nanoseconds inside `plan`.
    pub plan_ns: u64,
    /// Nanoseconds inside `merge_events`.
    pub merge_ns: u64,
}

/// The traced executor: owns the running totals and the backend tally of
/// every traced store it opens.
#[derive(Default)]
pub struct Tracer {
    totals: Mutex<Totals>,
    /// Backend tallies of the stores opened through [`Tracer::store`].
    pub backend: Arc<BackendTally>,
}

impl Tracer {
    /// A result store at `root` over a traced filesystem backend.
    pub fn store(&self, root: &std::path::Path) -> io::Result<ResultStore> {
        std::fs::create_dir_all(root)?;
        Ok(ResultStore::with_backend(Arc::new(TracedBackend::new(
            root,
            Arc::clone(&self.backend),
        ))))
    }

    /// Consumes the tracer, returning its totals.
    pub fn into_totals(self) -> Totals {
        self.totals.into_inner().expect("no traced worker panicked")
    }

    /// Plans `session`, executes the plan with tracing, and merges the
    /// events into the report — the traced twin of `run_with_events`.
    pub fn run(
        &self,
        session: &simsys::session::ExperimentSession,
        store: Option<&ResultStore>,
        threads: usize,
    ) -> RunReport {
        let started = Instant::now();
        let t = Instant::now();
        let plan = session.plan();
        let plan_ns = t.elapsed().as_nanos() as u64;
        let events = self.execute(&plan, store, threads);
        let t = Instant::now();
        let report = runner::merge_events(&plan, events, started.elapsed().as_secs_f64() * 1e3)
            .expect("a traced execution resolves every cell");
        let merge_ns = t.elapsed().as_nanos() as u64;
        let mut totals = self.totals.lock().expect("no traced worker panicked");
        totals.plan_ns += plan_ns;
        totals.merge_ns += merge_ns;
        report
    }

    fn execute(&self, plan: &Plan, store: Option<&ResultStore>, threads: usize) -> Vec<RunEvent> {
        let baselines = par_map(&plan.baselines, threads, |unit| {
            let (result, cached) = self.run_or_load(unit, store);
            (Arc::new(result), cached)
        });
        let by_fingerprint: BTreeMap<Fingerprint, (Arc<ExperimentResult>, bool)> = plan
            .baselines
            .iter()
            .zip(baselines.iter().cloned())
            .map(|(unit, outcome)| (unit.fingerprint, outcome))
            .collect();
        let mut events: Vec<RunEvent> = plan
            .baselines
            .iter()
            .zip(&baselines)
            .map(|(unit, (_, cached))| event(unit, None, *cached))
            .collect();
        events.extend(par_map(&plan.cells, threads, |unit| {
            let key = unit.baseline.expect("cell units always name a baseline");
            let (baseline, baseline_cached) = &by_fingerprint[&key];
            let (result, cached) = if unit.copies_baseline {
                ((**baseline).clone(), *baseline_cached)
            } else {
                self.run_or_load(unit, store)
            };
            let cell = build_cell(unit, result, cached, baseline);
            let executed = !cached && !unit.copies_baseline;
            event(unit, Some(cell), !executed)
        }));
        events
    }

    /// Store lookup, traced simulation on a miss, store write-back.
    fn run_or_load(
        &self,
        unit: &WorkUnit,
        store: Option<&ResultStore>,
    ) -> (ExperimentResult, bool) {
        if let Some(store) = store {
            let t = Instant::now();
            let hit = store.get(unit.fingerprint);
            let ns = t.elapsed().as_nanos() as u64;
            let mut totals = self.totals.lock().expect("no traced worker panicked");
            totals.gets += 1;
            totals.get_ns += ns;
            drop(totals);
            if let Some(hit) = hit {
                return (hit, true);
            }
        }
        let result = self.simulate(unit);
        if let Some(store) = store {
            let t = Instant::now();
            let _ = store.put(unit.fingerprint, &result);
            let ns = t.elapsed().as_nanos() as u64;
            let mut totals = self.totals.lock().expect("no traced worker panicked");
            totals.puts += 1;
            totals.put_ns += ns;
        }
        (result, false)
    }

    /// One simulation with the decorated memory model.
    fn simulate(&self, unit: &WorkUnit) -> ExperimentResult {
        let started = Instant::now();
        let tally = Rc::new(ModelTally::default());
        let model = TracedModel {
            inner: unit.defense.build(&unit.config),
            tally: Rc::clone(&tally),
        };
        let mut system = System::new(&unit.config, Box::new(model));
        system.load_workload(&unit.workload.thread_programs, unit.workload.shared_memory);
        let t = Instant::now();
        let report = system.run(unit.workload.cycle_budget);
        let run_ns = t.elapsed().as_nanos() as u64;
        let unit_ms = started.elapsed().as_secs_f64() * 1e3;

        let mut totals = self.totals.lock().expect("no traced worker panicked");
        let mut mem_ns = 0;
        for i in 0..CALLS.len() {
            totals.calls[i] += tally.calls[i].get();
            totals.call_ns[i] += tally.ns[i].get();
            mem_ns += tally.ns[i].get();
        }
        totals.load_retries += tally.retries.get();
        let model = totals.by_model.entry(unit.defense.label()).or_default();
        model.run_ns += run_ns;
        model.mem_ns += mem_ns;
        totals.ticks += system.events_processed();
        totals.sim_cycles += report.cycles;
        totals.unit_ms.push(unit_ms);
        drop(totals);

        ExperimentResult {
            workload: unit.workload.name.clone(),
            defense: unit.defense.label().to_string(),
            cycles: report.cycles,
            committed: report.committed,
            completed: report.completed,
            stats: report.stats,
        }
    }
}

/// The resolution event for `unit`; merge reads only the unit identity,
/// the provenance and the cell payload.
fn event(unit: &WorkUnit, cell: Option<CellResult>, cached: bool) -> RunEvent {
    if cached {
        RunEvent::Cached {
            shard: 0,
            kind: unit.kind,
            index: unit.index,
            fingerprint: unit.fingerprint,
            cell,
            t_ms: None,
        }
    } else {
        RunEvent::Completed {
            shard: 0,
            kind: unit.kind,
            index: unit.index,
            fingerprint: unit.fingerprint,
            cell,
            t_ms: None,
            sim_ms: None,
        }
    }
}

/// The grid cell for `unit`, normalised to its baseline exactly as the
/// local runner normalises it.
fn build_cell(
    unit: &WorkUnit,
    result: ExperimentResult,
    cached: bool,
    baseline: &ExperimentResult,
) -> CellResult {
    debug_assert_eq!(unit.kind, UnitKind::Cell);
    let normalized_time = if baseline.cycles == 0 {
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
        normalized_time,
        stats: result.stats,
    }
}

/// Runs `f` over `jobs` on `threads` scoped workers that claim jobs in
/// order; results come back in job order.
fn par_map<T: Sync, R: Send>(jobs: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, jobs.len().max(1)) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(index) else { break };
                *slots[index].lock().expect("no worker panicked") = Some(f(job));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panicked")
                .expect("every job ran")
        })
        .collect()
}
