//! The multicore system: processes, threads, scheduling and the simulation
//! loop.

use std::collections::VecDeque;

use simkit::config::SystemConfig;
use simkit::cycles::Cycle;
use simkit::stats::StatSet;

use memsys::tlb::PageTable;
use ooo_core::context::{shared_memory_for, SharedMemory, ThreadContext};
use ooo_core::core::OooCore;
use ooo_core::events::CoreEvent;
use ooo_core::memmodel::{DomainSwitch, MemoryModel};
use uarch_isa::prog::Program;

/// Whether the naive one-tick-per-cycle loop was requested: always `false`.
/// [`System::run`] is event-driven only; [`System::tick`] remains the
/// every-core-every-cycle reference for equivalence tests. Kept for callers
/// that record the loop mode (the benchmark's host fingerprint).
pub const fn naive_loop_requested() -> bool {
    false
}

/// Identifier of a process (protection domain).
pub type ProcessId = usize;

/// Identifier of a software thread.
pub type ThreadId = usize;

/// A process: a protection domain with its own page table whose threads share
/// one functional memory.
#[derive(Debug)]
struct Process {
    page_table: PageTable,
    memory: Option<SharedMemory>,
}

/// A software thread known to the scheduler.
#[derive(Debug)]
struct Thread {
    process: ProcessId,
    /// The context when the thread is not currently on a core.
    context: Option<ThreadContext>,
    finished: bool,
}

/// Final report of a completed simulation.
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// Cycles until every thread halted (or the budget ran out).
    pub cycles: u64,
    /// Total committed instructions across all cores.
    pub committed: u64,
    /// Whether every thread ran to completion within the budget.
    pub completed: bool,
    /// Per-core and memory-model statistics.
    pub stats: StatSet,
    /// Number of context switches performed by the scheduler.
    pub context_switches: u64,
}

impl SystemReport {
    /// Aggregate instructions per cycle across the whole machine.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

/// A multicore machine with an OS-lite scheduler.
pub struct System {
    config: SystemConfig,
    cores: Vec<OooCore>,
    memory_model: Box<dyn MemoryModel>,
    processes: Vec<Process>,
    threads: Vec<Thread>,
    /// Which thread is currently scheduled on each core.
    running: Vec<Option<ThreadId>>,
    /// Threads waiting for a core.
    ready: VecDeque<ThreadId>,
    /// When the thread on each core was scheduled (for the quantum).
    scheduled_at: Vec<Cycle>,
    now: Cycle,
    context_switches: u64,
    /// Reusable per-tick buffer for core events — the hot loop never
    /// allocates for event delivery.
    event_scratch: Vec<CoreEvent>,
    /// Per-core event queue entry: the next cycle each core must be ticked.
    /// A quiescent core sleeps until its earliest completion ticket (or a
    /// scheduler event); an active core is due every cycle.
    core_wake: Vec<Cycle>,
    /// Per-core statistics watermark: cycles `[0, accounted_until)` have been
    /// counted in the core's `stats.cycles`, either by a real tick or by a
    /// lazy [`OooCore::skip_idle_cycles`] credit at the next tick (or at a
    /// preemption or the end of the run). Keeping the credit lazy means a
    /// sleeping core costs nothing per skipped cycle.
    accounted_until: Vec<u64>,
    /// Number of `(core, cycle)` ticks actually performed — the event count
    /// of the event-driven loop. Ticking every cycle would perform
    /// `cycles × running cores` of them; the ratio is the speedup lever.
    events_processed: u64,
}

impl System {
    /// Creates a system with the given memory model (defense).
    pub fn new(config: &SystemConfig, memory_model: Box<dyn MemoryModel>) -> Self {
        let cores = (0..config.cores).map(|i| OooCore::new(i, config)).collect();
        System {
            config: config.clone(),
            cores,
            memory_model,
            processes: Vec::new(),
            threads: Vec::new(),
            running: vec![None; config.cores],
            ready: VecDeque::new(),
            scheduled_at: vec![Cycle::ZERO; config.cores],
            now: Cycle::ZERO,
            context_switches: 0,
            event_scratch: Vec::new(),
            core_wake: vec![Cycle::ZERO; config.cores],
            accounted_until: vec![0; config.cores],
            events_processed: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Read-only access to the memory model.
    pub fn memory_model(&self) -> &dyn MemoryModel {
        self.memory_model.as_ref()
    }

    /// Number of context switches performed so far.
    pub fn context_switches(&self) -> u64 {
        self.context_switches
    }

    /// Creates a new process (protection domain) and returns its id.
    pub fn add_process(&mut self) -> ProcessId {
        let pid = self.processes.len();
        let page_table = PageTable::new(self.config.tlb.page_bytes, ((pid as u64) + 1) << 32);
        self.processes.push(Process {
            page_table,
            memory: None,
        });
        pid
    }

    /// Maps virtual page `vpn` of every listed process onto the same physical
    /// page, giving them shared memory (used by the attack litmus tests for
    /// attacker/victim shared libraries).
    pub fn map_shared_page(&mut self, processes: &[ProcessId], vpn: u64, ppn: u64) {
        for pid in processes {
            self.processes[*pid].page_table.map_shared(vpn, ppn);
        }
    }

    /// Adds a thread running `program` to process `pid` and returns its id.
    /// Threads of the same process share functional memory; the first thread's
    /// program provides the initial data segments, later threads' segments are
    /// loaded into the same memory.
    pub fn add_thread(&mut self, pid: ProcessId, program: Program) -> ThreadId {
        assert!(pid < self.processes.len(), "unknown process");
        let memory = match &self.processes[pid].memory {
            Some(m) => {
                // Load any additional data segments the new program carries.
                let mut mem = m.borrow_mut();
                for seg in program.data_segments() {
                    mem.write_bytes(seg.addr, &seg.bytes);
                }
                drop(mem);
                m.clone()
            }
            None => {
                let m = shared_memory_for(&program);
                self.processes[pid].memory = Some(m.clone());
                m
            }
        };
        let context = ThreadContext::with_shared_memory(program, pid, memory, 0);
        let tid = self.threads.len();
        self.threads.push(Thread {
            process: pid,
            context: Some(context),
            finished: false,
        });
        self.ready.push_back(tid);
        tid
    }

    /// Convenience: creates one process per entry of `programs` (or a single
    /// shared process when `shared_memory` is true) and adds each program as a
    /// thread. Returns the thread ids.
    pub fn load_workload(&mut self, programs: &[Program], shared_memory: bool) -> Vec<ThreadId> {
        if shared_memory {
            let pid = self.add_process();
            programs
                .iter()
                .map(|p| self.add_thread(pid, p.clone()))
                .collect()
        } else {
            programs
                .iter()
                .map(|p| {
                    let pid = self.add_process();
                    self.add_thread(pid, p.clone())
                })
                .collect()
        }
    }

    /// Whether every thread has finished.
    pub fn all_finished(&self) -> bool {
        self.threads.iter().all(|t| t.finished)
    }

    /// The functional memory of process `pid`, if any thread has been added to
    /// it. Attack harnesses use this to read back results the attacker
    /// program wrote (e.g. the secret value it recovered).
    pub fn process_memory(&self, pid: ProcessId) -> Option<SharedMemory> {
        self.processes.get(pid).and_then(|p| p.memory.clone())
    }

    /// Runs the machine until every thread halts or `max_cycles` elapse.
    ///
    /// The loop is event-driven per core: a core whose next tick provably
    /// does nothing (see [`OooCore::next_tick`]) with an idle memory model
    /// sleeps from its last active tick until its earliest completion ticket
    /// — while the other cores keep running — and the global clock jumps
    /// straight to the earliest wake among the cores and the scheduler's own
    /// events (quantum expiries, pending dispatches). Skipped cycles are
    /// credited lazily at each core's next tick. The resulting report is
    /// bit-identical to calling [`tick`](Self::tick) every cycle
    /// (`tests/hotpath_golden.rs` checks it live and against
    /// pre-optimization recordings); only the wall clock shrinks.
    pub fn run(&mut self, max_cycles: u64) -> SystemReport {
        while !self.all_finished() && self.now.raw() < max_cycles {
            self.step(max_cycles);
        }
        // Catch up the stats of cores that were asleep when the run ended:
        // `tick` would have kept ticking them (idly) to the end.
        for core_idx in 0..self.cores.len() {
            if self.running[core_idx].is_some() {
                self.credit_skipped(core_idx);
            }
        }
        let committed = self.cores.iter().map(|c| c.stats().committed).sum();
        let mut stats = StatSet::new();
        for core in &self.cores {
            let prefix = format!("core{}", core.id());
            core.stats().export(&mut stats, &prefix);
            stats.set_scalar(&format!("{prefix}.ipc"), core.stats().ipc());
        }
        stats.merge(&self.memory_model.stats());
        stats.add("system.context_switches", self.context_switches);
        SystemReport {
            cycles: self.now.raw(),
            committed,
            completed: self.all_finished(),
            stats,
            context_switches: self.context_switches,
        }
    }

    /// Advances the machine by exactly one cycle, ticking every running core
    /// (no event skipping): the reference the event-driven
    /// [`run`](Self::run) must match. Driving `tick` until every thread
    /// finishes (or the budget runs out) and then calling `run(budget)` for
    /// the report yields the same report as `run(budget)` alone. Like a step
    /// of `run`, it ends with the background-work post-pass, so `run` may
    /// take over after any cycle.
    pub fn tick(&mut self) {
        self.process_cycle(true);
        self.now += 1;
        self.wake_for_background_work();
    }

    /// Number of `(core, cycle)` pipeline ticks performed so far.
    /// [`tick`](Self::tick) performs one per running core; the event-driven
    /// loop skips the quiescent ones, so `cycles × cores / events` measures how
    /// much of the grid the event queue jumped over.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Credits the cycles a sleeping core skipped since its last tick, so
    /// its cycle counter reads as if [`tick`](Self::tick) had kept (idly)
    /// ticking it through `self.now` (exclusive).
    fn credit_skipped(&mut self, core_idx: usize) {
        let behind = self
            .now
            .raw()
            .saturating_sub(self.accounted_until[core_idx]);
        if behind > 0 {
            self.cores[core_idx].skip_idle_cycles(behind);
        }
        self.accounted_until[core_idx] = self.now.raw();
    }

    /// One scheduling decision plus one tick of every *due* running core —
    /// every running core when `force_all` is set ([`tick`](Self::tick)), else
    /// only the cores whose wake cycle has arrived or whose memory model
    /// has queued background work.
    ///
    /// Cores are visited in index order either way, so cross-core
    /// interactions through the shared memory model (invalidation queues)
    /// happen on identical cycles. The due check of a sleeping core asks
    /// `MemoryModel::next_event` only once an earlier-indexed core has ticked
    /// in this cycle, and then *at its slot in the order*, so it observes
    /// whatever those cores queued. Before that nothing can have queued
    /// work for it: [`wake_for_background_work`](Self::wake_for_background_work)
    /// asked after the last processed cycle, and the scheduling decision
    /// only flushes the dispatched core's own filters. Work queued by
    /// later-indexed cores is caught by that post-pass and ticks the core
    /// next cycle — just as `tick` would.
    fn process_cycle(&mut self, force_all: bool) {
        self.schedule();
        let now = self.now;
        let mut events = std::mem::take(&mut self.event_scratch);
        let mut ticked = false;
        for core_idx in 0..self.cores.len() {
            if self.running[core_idx].is_none() {
                continue;
            }
            let due = force_all
                || self.core_wake[core_idx] <= now
                || (ticked && self.memory_model.next_event(core_idx, now) <= now);
            if !due {
                continue;
            }
            ticked = true;
            self.credit_skipped(core_idx);
            events.clear();
            self.cores[core_idx].tick(now, self.memory_model.as_mut(), &mut events);
            self.accounted_until[core_idx] = now.raw() + 1;
            self.events_processed += 1;
            for event in events.drain(..) {
                self.handle_event(core_idx, event);
            }
            if self.running[core_idx].is_none() {
                continue; // halted on this tick
            }
            // The core sleeps from this tick when the next one would do
            // nothing and its memory model has no background work.
            self.core_wake[core_idx] =
                self.cores[core_idx].next_tick(now + 1, self.memory_model.as_ref());
        }
        self.event_scratch = events;
    }

    /// The post-pass of a processed cycle, for cross-core side effects: a
    /// sleeping core whose memory model picked up work in that cycle — an
    /// invalidation queued by a later-indexed core — is due at the next
    /// cycle (`self.now`), to drain it on schedule.
    fn wake_for_background_work(&mut self) {
        for core_idx in 0..self.cores.len() {
            if self.running[core_idx].is_some()
                && self.core_wake[core_idx] > self.now
                && self.memory_model.next_event(core_idx, self.now) <= self.now
            {
                self.core_wake[core_idx] = self.now;
            }
        }
    }

    /// Processes the current cycle, then advances the clock to the next
    /// event: the earliest core wake, a memory-model event for a sleeping
    /// core, a scheduler-quantum expiry (whenever a ready thread is waiting,
    /// so preemptions happen on exactly the cycle `tick` performs
    /// them), or a pending dispatch onto a freed core. `limit` caps the jump
    /// (the cycle budget of [`run`](Self::run)). Skipped cycles are credited
    /// to each sleeping core lazily, at its next tick.
    fn step(&mut self, limit: u64) {
        self.process_cycle(false);
        self.now += 1;
        self.wake_for_background_work();
        let mut target = Cycle::new(limit);
        let ready_waiting = !self.ready.is_empty();
        let mut free_core = false;
        let mut any_running = false;
        for core_idx in 0..self.cores.len() {
            if self.running[core_idx].is_none() {
                free_core = true;
                continue;
            }
            any_running = true;
            let mut wake = self.core_wake[core_idx];
            if ready_waiting {
                let expiry =
                    self.scheduled_at[core_idx].saturating_add(self.config.scheduler_quantum);
                wake = wake.min(expiry);
            }
            target = target.min(wake);
        }
        if ready_waiting && free_core {
            // A freed core with threads waiting: the next schedule() call
            // dispatches, so the next cycle must be processed.
            target = target.min(self.now);
        }
        if !any_running {
            // Nothing on any core: either every thread just finished (the
            // caller's loop exits without the clock overshooting the halt
            // cycle) or a dispatch is due next cycle — no jump either way.
            return;
        }
        if target > self.now {
            self.now = target;
        }
    }

    // ------------------------------------------------------------------

    fn schedule(&mut self) {
        if self.ready.is_empty() {
            return; // no thread waits: nothing to dispatch or preempt for
        }
        for core_idx in 0..self.cores.len() {
            match self.running[core_idx] {
                None => {
                    if let Some(tid) = self.ready.pop_front() {
                        self.dispatch(core_idx, tid);
                    }
                }
                Some(tid) => {
                    // Preempt when the quantum expires and someone is waiting.
                    let quantum_expired = self.now.since(self.scheduled_at[core_idx])
                        >= self.config.scheduler_quantum;
                    if quantum_expired && !self.ready.is_empty() {
                        self.preempt(core_idx);
                        let _ = tid;
                        if let Some(next) = self.ready.pop_front() {
                            self.dispatch(core_idx, next);
                        }
                    }
                }
            }
        }
    }

    fn dispatch(&mut self, core_idx: usize, tid: ThreadId) {
        let context = self.threads[tid]
            .context
            .take()
            .expect("ready thread has a context");
        let pid = self.threads[tid].process;
        self.memory_model
            .set_page_table(core_idx, self.processes[pid].page_table.clone());
        // Installing a different protection domain on the core is a context
        // switch from the memory model's point of view.
        self.memory_model
            .on_domain_switch(core_idx, DomainSwitch::ContextSwitch, self.now);
        // Flush the branch-target buffer: the variant-2 mitigation the paper
        // assumes is present on recent hardware.
        self.cores[core_idx].predictor_mut().flush_btb();
        let previous = self.cores[core_idx].swap_thread(Some(context));
        debug_assert!(previous.is_none(), "dispatch onto a busy core");
        self.running[core_idx] = Some(tid);
        self.scheduled_at[core_idx] = self.now;
        // The incoming thread is due immediately; cycles before now belong
        // to the previous occupant (already accounted) or to an empty core
        // (never accounted, as under `tick`).
        self.core_wake[core_idx] = self.now;
        self.accounted_until[core_idx] = self.now.raw();
        self.context_switches += 1;
    }

    fn preempt(&mut self, core_idx: usize) {
        if let Some(tid) = self.running[core_idx].take() {
            // Settle the outgoing thread's idle-cycle credit before the swap
            // discards the core state it would be charged against.
            self.credit_skipped(core_idx);
            let context = self.cores[core_idx].swap_thread(None);
            self.threads[tid].context = context;
            if self.threads[tid].finished {
                // Nothing more to run.
            } else {
                self.ready.push_back(tid);
            }
        }
    }

    fn handle_event(&mut self, core_idx: usize, event: CoreEvent) {
        match event {
            CoreEvent::Syscall(_) => {
                self.memory_model
                    .on_domain_switch(core_idx, DomainSwitch::Syscall, self.now);
            }
            CoreEvent::SandboxEnter | CoreEvent::SandboxExit => {
                self.memory_model.on_domain_switch(
                    core_idx,
                    DomainSwitch::SandboxBoundary,
                    self.now,
                );
            }
            CoreEvent::Halted => {
                if let Some(tid) = self.running[core_idx].take() {
                    self.threads[tid].finished = true;
                    let context = self.cores[core_idx].swap_thread(None);
                    self.threads[tid].context = context;
                }
            }
        }
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("now", &self.now)
            .field("threads", &self.threads.len())
            .field("processes", &self.processes.len())
            .field("memory_model", &self.memory_model.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defenses::DefenseKind;
    use uarch_isa::prog::ProgramBuilder;
    use uarch_isa::reg::Reg;
    use workloads::{parsec_suite, spec_suite, Scale};

    fn small_system(kind: DefenseKind) -> System {
        let cfg = SystemConfig::small_test();
        let mem = kind.build(&cfg);
        System::new(&cfg, mem)
    }

    fn counting_program(limit: u64) -> uarch_isa::prog::Program {
        let mut b = ProgramBuilder::new("count");
        let top = b.new_label();
        b.li(Reg::X1, 0);
        b.bind_label(top);
        b.addi(Reg::X1, Reg::X1, 1);
        b.blt_imm(Reg::X1, limit, top);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn single_thread_runs_to_completion() {
        let mut sys = small_system(DefenseKind::Unprotected);
        let pid = sys.add_process();
        sys.add_thread(pid, counting_program(500));
        let report = sys.run(1_000_000);
        assert!(report.completed);
        assert!(report.committed >= 1000);
        assert!(report.ipc() > 0.0);
    }

    #[test]
    fn more_threads_than_cores_are_time_sliced() {
        let mut cfg = SystemConfig::small_test();
        cfg.cores = 1;
        cfg.scheduler_quantum = 2_000;
        let mem = DefenseKind::MuonTrap.build(&cfg);
        let mut sys = System::new(&cfg, mem);
        // Two separate processes compete for the single core.
        let a = sys.add_process();
        let b = sys.add_process();
        sys.add_thread(a, counting_program(4000));
        sys.add_thread(b, counting_program(4000));
        let report = sys.run(10_000_000);
        assert!(report.completed);
        assert!(
            report.context_switches >= 3,
            "expected preemptions, saw {}",
            report.context_switches
        );
        // MuonTrap must have flushed its filter caches on those switches.
        assert!(report.stats.counter("muontrap.context_switch_flushes") >= report.context_switches);
    }

    #[test]
    fn syscalls_reach_the_memory_model_as_domain_switches() {
        let mut sys = small_system(DefenseKind::MuonTrap);
        let pid = sys.add_process();
        let mut b = ProgramBuilder::new("sys");
        b.li(Reg::X1, 1);
        b.syscall(1);
        b.sandbox_enter();
        b.sandbox_exit();
        b.halt();
        sys.add_thread(pid, b.build().unwrap());
        let report = sys.run(1_000_000);
        assert!(report.completed);
        assert_eq!(report.stats.counter("muontrap.syscall_flushes"), 1);
        assert_eq!(report.stats.counter("muontrap.sandbox_flushes"), 2);
    }

    #[test]
    fn parsec_workload_uses_all_cores() {
        let cfg = SystemConfig::small_test();
        let mem = DefenseKind::Unprotected.build(&cfg);
        let mut sys = System::new(&cfg, mem);
        let w = &parsec_suite(Scale::Tiny, cfg.cores)[0];
        sys.load_workload(&w.thread_programs, w.shared_memory);
        let report = sys.run(20_000_000);
        assert!(report.completed, "blackscholes-like workload should finish");
        // Every core committed something.
        for i in 0..cfg.cores {
            assert!(
                report.stats.counter(&format!("core{i}.committed")) > 0,
                "core {i} idle"
            );
        }
    }

    #[test]
    fn spec_workload_runs_under_muontrap_and_baseline() {
        let cfg = SystemConfig::small_test();
        let w = &spec_suite(Scale::Tiny)[15]; // mcf
        for kind in [DefenseKind::Unprotected, DefenseKind::MuonTrap] {
            let mem = kind.build(&cfg);
            let mut sys = System::new(&cfg, mem);
            sys.load_workload(&w.thread_programs, w.shared_memory);
            let report = sys.run(30_000_000);
            assert!(
                report.completed,
                "{} did not finish under {:?}",
                w.name, kind
            );
        }
    }

    #[test]
    fn shared_pages_alias_across_processes() {
        let mut sys = small_system(DefenseKind::Unprotected);
        let a = sys.add_process();
        let b = sys.add_process();
        sys.map_shared_page(&[a, b], 0x300, 0x9_9999);
        // Both processes' page tables now map vpn 0x300 to the same ppn; this
        // is checked through the process page tables directly.
        let pa_a = sys.processes[a]
            .page_table
            .translate(simkit::addr::VirtAddr::new(0x300 * 4096 + 8));
        let pa_b = sys.processes[b]
            .page_table
            .translate(simkit::addr::VirtAddr::new(0x300 * 4096 + 8));
        assert_eq!(pa_a, pa_b);
    }

    #[test]
    fn report_reflects_incomplete_runs() {
        let mut sys = small_system(DefenseKind::Unprotected);
        let pid = sys.add_process();
        let mut b = ProgramBuilder::new("spin");
        let top = b.here();
        b.jump(top);
        sys.add_thread(pid, b.build().unwrap());
        let report = sys.run(10_000);
        assert!(!report.completed);
        assert_eq!(report.cycles, 10_000);
    }
}
