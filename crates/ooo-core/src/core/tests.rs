use super::*;
use crate::memmodel::{DomainSwitch, FixedLatencyMemory, MemOutcome};
use simkit::stats::StatSet;
use uarch_isa::interp::Interpreter;
use uarch_isa::prog::{Program, ProgramBuilder};
use uarch_isa::reg::Reg;

fn run_program(program: &Program) -> (OooCore, ThreadContext, u64) {
    let cfg = SystemConfig::paper_default();
    let mut core = OooCore::new(0, &cfg);
    let mut mem = FixedLatencyMemory::default();
    let thread = ThreadContext::new(program.clone(), 0);
    let cycles = core
        .run_to_halt(thread, &mut mem, 2_000_000)
        .expect("program should halt");
    let finished = core.swap_thread(None).expect("thread present");
    (core, finished, cycles)
}

/// Runs a program while ticking every single cycle (no fast-forward),
/// mirroring the naive pre-optimization loop.
fn run_program_naive(program: &Program) -> (OooCore, ThreadContext, u64) {
    let cfg = SystemConfig::paper_default();
    let mut core = OooCore::new(0, &cfg);
    let mut mem = FixedLatencyMemory::default();
    core.swap_thread(Some(ThreadContext::new(program.clone(), 0)));
    let mut events = Vec::new();
    let mut now = Cycle::ZERO;
    while !core.is_halted() && now.raw() < 2_000_000 {
        core.tick(now, &mut mem, &mut events);
        now += 1;
    }
    assert!(core.is_halted(), "program should halt");
    let finished = core.swap_thread(None).expect("thread present");
    (core, finished, now.raw())
}

/// Runs a program on both the functional interpreter and the OoO core and
/// asserts the architectural register results match.
fn assert_matches_interpreter(program: &Program, regs_to_check: &[Reg]) {
    let mut interp = Interpreter::new(program);
    let golden = interp.run(5_000_000).expect("interpreter halts");
    let (_, finished, _) = run_program(program);
    for reg in regs_to_check {
        assert_eq!(
            finished.regs.read(*reg),
            golden.regs.read(*reg),
            "architectural mismatch in {reg}"
        );
    }
}

#[test]
fn straight_line_arithmetic_matches_interpreter() {
    let mut b = ProgramBuilder::new("alu");
    b.li(Reg::X1, 10);
    b.li(Reg::X2, 3);
    b.mul(Reg::X3, Reg::X1, Reg::X2);
    b.sub(Reg::X4, Reg::X3, Reg::X2);
    b.addi(Reg::X5, Reg::X4, 100);
    b.halt();
    let p = b.build().unwrap();
    assert_matches_interpreter(&p, &[Reg::X3, Reg::X4, Reg::X5]);
}

#[test]
fn loop_with_memory_matches_interpreter() {
    // Sum an array of 32 values through loads in a loop.
    let mut b = ProgramBuilder::new("sum-array");
    let values: Vec<u64> = (0..32).map(|i| i * 7 + 1).collect();
    b.data_u64(VirtAddr::new(0x1_0000), &values);
    let top = b.new_label();
    b.li(Reg::X1, 0x1_0000); // base
    b.li(Reg::X2, 0); // index
    b.li(Reg::X3, 0); // sum
    b.bind_label(top);
    b.shli(Reg::X4, Reg::X2, 3);
    b.add(Reg::X4, Reg::X1, Reg::X4);
    b.load(Reg::X5, Reg::X4, 0);
    b.add(Reg::X3, Reg::X3, Reg::X5);
    b.addi(Reg::X2, Reg::X2, 1);
    b.blt_imm(Reg::X2, 32, top);
    b.halt();
    let p = b.build().unwrap();
    assert_matches_interpreter(&p, &[Reg::X3]);
    let (_, finished, _) = run_program(&p);
    assert_eq!(finished.regs.read(Reg::X3), values.iter().sum::<u64>());
}

#[test]
fn stores_then_loads_round_trip() {
    let mut b = ProgramBuilder::new("store-load");
    b.li(Reg::X1, 0x2_0000);
    b.li(Reg::X2, 1234);
    b.store(Reg::X2, Reg::X1, 0);
    b.load(Reg::X3, Reg::X1, 0);
    b.addi(Reg::X3, Reg::X3, 1);
    b.halt();
    let p = b.build().unwrap();
    assert_matches_interpreter(&p, &[Reg::X3]);
    let (_, finished, _) = run_program(&p);
    assert_eq!(finished.regs.read(Reg::X3), 1235);
}

#[test]
fn calls_and_returns_match_interpreter() {
    let mut b = ProgramBuilder::new("calls");
    let func = b.new_label();
    let done = b.new_label();
    b.li(Reg::X1, 1);
    b.call(func, Reg::X30);
    b.call(func, Reg::X30);
    b.jump(done);
    b.bind_label(func);
    b.shli(Reg::X1, Reg::X1, 2);
    b.ret(Reg::X30);
    b.bind_label(done);
    b.halt();
    let p = b.build().unwrap();
    assert_matches_interpreter(&p, &[Reg::X1]);
}

#[test]
fn data_dependent_branches_match_interpreter() {
    // A loop whose branch direction depends on loaded data, with an
    // irregular pattern so mispredictions occur.
    let mut b = ProgramBuilder::new("branchy");
    let values: Vec<u64> = (0..64).map(|i| (i * 2654435761u64) % 7).collect();
    b.data_u64(VirtAddr::new(0x3_0000), &values);
    let top = b.new_label();
    let skip = b.new_label();
    b.li(Reg::X1, 0x3_0000);
    b.li(Reg::X2, 0);
    b.li(Reg::X3, 0);
    b.bind_label(top);
    b.shli(Reg::X4, Reg::X2, 3);
    b.add(Reg::X4, Reg::X1, Reg::X4);
    b.load(Reg::X5, Reg::X4, 0);
    b.li(Reg::X6, 3);
    b.blt(Reg::X5, Reg::X6, skip);
    b.addi(Reg::X3, Reg::X3, 1);
    b.bind_label(skip);
    b.addi(Reg::X2, Reg::X2, 1);
    b.blt_imm(Reg::X2, 64, top);
    b.halt();
    let p = b.build().unwrap();
    assert_matches_interpreter(&p, &[Reg::X3]);
    let (core, _, _) = run_program(&p);
    assert!(
        core.stats().mispredictions > 0,
        "irregular branches should mispredict"
    );
    assert!(
        core.stats().squashed > 0,
        "mispredictions should squash wrong-path work"
    );
}

#[test]
fn wrong_path_loads_reach_the_memory_model() {
    // Train a branch not-taken, then make it taken once: the wrong-path
    // load behind the mispredicted branch must reach the memory model and
    // then be squashed.
    let mut b = ProgramBuilder::new("wrong-path");
    b.data_u64(VirtAddr::new(0x9000), &[0]);
    let top = b.new_label();
    let skip = b.new_label();
    let after = b.new_label();
    b.li(Reg::X1, 0);
    b.li(Reg::X9, 0x9000);
    b.bind_label(top);
    // if X1 < 20 skip the "secret" load, else fall through to it.
    b.li(Reg::X2, 20);
    b.blt(Reg::X1, Reg::X2, skip);
    b.load(Reg::X3, Reg::X9, 0); // executed speculatively when mispredicted
    b.jump(after);
    b.bind_label(skip);
    b.nop();
    b.bind_label(after);
    b.addi(Reg::X1, Reg::X1, 1);
    b.blt_imm(Reg::X1, 24, top);
    b.halt();
    let p = b.build().unwrap();
    let (core, _, _) = run_program(&p);
    assert!(core.stats().mispredictions > 0);
    // The functional result is unaffected by wrong-path execution.
    assert_matches_interpreter(&p, &[Reg::X1, Reg::X3]);
}

#[test]
fn rdcycle_reads_increase_monotonically() {
    let mut b = ProgramBuilder::new("rdcycle");
    b.rdcycle(Reg::X1);
    b.li(Reg::X5, 0x4_0000);
    b.load(Reg::X6, Reg::X5, 0);
    b.add(Reg::X7, Reg::X6, Reg::X6);
    b.rdcycle(Reg::X2);
    b.sub(Reg::X3, Reg::X2, Reg::X1);
    b.halt();
    let p = b.build().unwrap();
    let (_, finished, _) = run_program(&p);
    let delta = finished.regs.read(Reg::X3);
    assert!(
        delta > 0,
        "the second rdcycle must observe later time than the first"
    );
    assert!((delta as i64) > 0);
}

#[test]
fn atomics_are_executed_at_the_head_and_update_memory() {
    let mut b = ProgramBuilder::new("atomic");
    b.data_u64(VirtAddr::new(0x5000), &[10]);
    b.li(Reg::X1, 0x5000);
    b.li(Reg::X2, 5);
    b.amoadd(Reg::X3, Reg::X2, Reg::X1);
    b.load(Reg::X4, Reg::X1, 0);
    b.halt();
    let p = b.build().unwrap();
    assert_matches_interpreter(&p, &[Reg::X3, Reg::X4]);
    let (_, finished, _) = run_program(&p);
    assert_eq!(finished.regs.read(Reg::X3), 10);
    assert_eq!(finished.regs.read(Reg::X4), 15);
}

#[test]
fn spec_barrier_and_syscall_programs_complete() {
    let mut b = ProgramBuilder::new("serialising");
    b.li(Reg::X1, 1);
    b.spec_barrier();
    b.addi(Reg::X1, Reg::X1, 1);
    b.syscall(7);
    b.addi(Reg::X1, Reg::X1, 1);
    b.sandbox_enter();
    b.addi(Reg::X1, Reg::X1, 1);
    b.sandbox_exit();
    b.halt();
    let p = b.build().unwrap();
    assert_matches_interpreter(&p, &[Reg::X1]);
}

#[test]
fn core_reports_committed_events() {
    let mut b = ProgramBuilder::new("events");
    b.syscall(3);
    b.sandbox_enter();
    b.sandbox_exit();
    b.halt();
    let p = b.build().unwrap();
    let cfg = SystemConfig::paper_default();
    let mut core = OooCore::new(0, &cfg);
    let mut mem = FixedLatencyMemory::default();
    core.swap_thread(Some(ThreadContext::new(p, 0)));
    let mut seen = Vec::new();
    let mut now = Cycle::ZERO;
    while !core.is_halted() && now.raw() < 10_000 {
        core.tick(now, &mut mem, &mut seen);
        now += 1;
    }
    assert_eq!(
        seen,
        vec![
            CoreEvent::Syscall(3),
            CoreEvent::SandboxEnter,
            CoreEvent::SandboxExit,
            CoreEvent::Halted
        ]
    );
}

#[test]
fn ipc_is_positive_and_bounded_by_width() {
    let mut b = ProgramBuilder::new("ipc");
    let top = b.new_label();
    b.li(Reg::X1, 0);
    b.bind_label(top);
    for _ in 0..8 {
        b.addi(Reg::X2, Reg::X2, 1);
    }
    b.addi(Reg::X1, Reg::X1, 1);
    b.blt_imm(Reg::X1, 200, top);
    b.halt();
    let p = b.build().unwrap();
    let (core, _, _) = run_program(&p);
    let ipc = core.stats().ipc();
    assert!(
        ipc > 0.5,
        "simple ALU loop should achieve reasonable IPC, got {ipc}"
    );
    assert!(ipc <= 8.0, "IPC cannot exceed the commit width");
}

#[test]
fn fast_forward_matches_the_naive_loop_exactly() {
    // The event-skipping loop must be invisible: same halt cycle, same
    // statistics, same architectural state, on a workload that mixes
    // memory stalls (idle stretches to skip), mispredicted branches,
    // serialising instructions and store-to-load forwarding.
    let mut b = ProgramBuilder::new("ff-equivalence");
    let values: Vec<u64> = (0..64).map(|i| (i * 2654435761u64) % 13).collect();
    b.data_u64(VirtAddr::new(0x6_0000), &values);
    let top = b.new_label();
    let skip = b.new_label();
    b.li(Reg::X1, 0x6_0000);
    b.li(Reg::X2, 0);
    b.li(Reg::X3, 0);
    b.bind_label(top);
    b.shli(Reg::X4, Reg::X2, 3);
    b.add(Reg::X4, Reg::X1, Reg::X4);
    b.load(Reg::X5, Reg::X4, 0);
    b.store(Reg::X5, Reg::X4, 512);
    b.load(Reg::X6, Reg::X4, 512);
    b.li(Reg::X7, 6);
    b.blt(Reg::X6, Reg::X7, skip);
    b.addi(Reg::X3, Reg::X3, 1);
    b.spec_barrier();
    b.bind_label(skip);
    b.addi(Reg::X2, Reg::X2, 1);
    b.blt_imm(Reg::X2, 64, top);
    b.halt();
    let p = b.build().unwrap();

    let (fast_core, fast_ctx, fast_cycles) = run_program(&p);
    let (naive_core, naive_ctx, naive_cycles) = run_program_naive(&p);
    assert_eq!(fast_cycles, naive_cycles, "halt cycle must be identical");
    assert_eq!(
        fast_core.stats(),
        naive_core.stats(),
        "every statistic must be identical"
    );
    assert_eq!(fast_ctx.regs.snapshot(), naive_ctx.regs.snapshot());
}

#[test]
fn quiescent_ticks_report_a_wake_cycle() {
    // A load with a long fixed latency parks the core: the tick after
    // issue must be quiescent with the load's completion as the wake.
    let mut b = ProgramBuilder::new("wake");
    b.li(Reg::X1, 0x7_0000);
    b.load(Reg::X2, Reg::X1, 0);
    b.add(Reg::X3, Reg::X2, Reg::X2);
    b.halt();
    let p = b.build().unwrap();
    let cfg = SystemConfig::paper_default();
    let mut core = OooCore::new(0, &cfg);
    let mut mem = FixedLatencyMemory::new(200, 1);
    core.swap_thread(Some(ThreadContext::new(p, 0)));
    let mut events = Vec::new();
    let mut quiet_with_wake = false;
    let mut now = Cycle::ZERO;
    while !core.is_halted() && now.raw() < 10_000 {
        core.tick(now, &mut mem, &mut events);
        if core.quiescent() {
            let wake = core.next_wake(now + 1);
            assert!(wake > now, "wake must be in the future");
            if wake != Cycle::NEVER {
                quiet_with_wake = true;
            }
        }
        now += 1;
    }
    assert!(core.is_halted());
    assert!(
        quiet_with_wake,
        "a 200-cycle load must produce quiescent ticks with a known wake"
    );
}

#[test]
fn swap_thread_preserves_architectural_state() {
    let mut b = ProgramBuilder::new("first");
    b.li(Reg::X1, 77);
    b.halt();
    let p1 = b.build().unwrap();
    let cfg = SystemConfig::paper_default();
    let mut core = OooCore::new(0, &cfg);
    let mut mem = FixedLatencyMemory::default();
    core.swap_thread(Some(ThreadContext::new(p1, 0)));
    let mut events = Vec::new();
    let mut now = Cycle::ZERO;
    while !core.is_halted() && now.raw() < 10_000 {
        core.tick(now, &mut mem, &mut events);
        now += 1;
    }
    let saved = core.swap_thread(None).expect("context returned");
    assert_eq!(saved.regs.read(Reg::X1), 77);
    assert!(saved.halted);
    assert!(core.is_halted());
}

#[test]
fn run_to_halt_times_out_on_infinite_loops() {
    let mut b = ProgramBuilder::new("spin");
    let top = b.here();
    b.jump(top);
    let p = b.build().unwrap();
    let cfg = SystemConfig::paper_default();
    let mut core = OooCore::new(0, &cfg);
    let mut mem = FixedLatencyMemory::default();
    let result = core.run_to_halt(ThreadContext::new(p, 0), &mut mem, 5_000);
    assert!(result.is_err());
}

// --- wakeup/select -------------------------------------------------

/// A core with `program` installed and a fixed-latency memory whose data
/// accesses take `data_latency` cycles.
fn core_with(program: &Program, data_latency: u64) -> (OooCore, FixedLatencyMemory) {
    let mut core = OooCore::new(0, &SystemConfig::paper_default());
    core.swap_thread(Some(ThreadContext::new(program.clone(), 0)));
    (core, FixedLatencyMemory::new(data_latency, 1))
}

/// One tick followed by the full wakeup-state check (which debug builds
/// also run inside `tick`; this keeps it on under `--release` too).
fn tick_checked(core: &mut OooCore, now: Cycle, mem: &mut dyn MemoryModel) {
    let mut events = Vec::new();
    core.tick(now, mem, &mut events);
    core.check_wakeup_state();
}

/// The live ROB entry fetched from instruction index `pc`, if any.
fn entry_at_pc(core: &OooCore, pc: usize) -> Option<&RobEntry> {
    core.rob.iter().find(|e| e.pc == pc)
}

/// Whether the entry fetched from `pc` has left `Waiting`.
fn issued(core: &OooCore, pc: usize) -> bool {
    entry_at_pc(core, pc).is_some_and(|e| !matches!(e.status, Status::Waiting))
}

/// Whether the entry fetched from `pc` is parked behind the store
/// fetched from `store_pc`.
fn parked_behind(core: &OooCore, pc: usize, store_pc: usize) -> bool {
    let (Some(load), Some(store)) = (entry_at_pc(core, pc), entry_at_pc(core, store_pc)) else {
        return false;
    };
    core.store_waiters.owner(core.rob.slot(load.seq)) == Some(core.rob.slot(store.seq))
}

/// (consumer seq, producer seq) for every operand wakeup link.
fn operand_links(core: &OooCore) -> Vec<(u64, u64)> {
    let mut links = Vec::new();
    for e in core
        .rob
        .iter()
        .filter(|e| matches!(e.status, Status::Waiting))
    {
        for &p in &e.src_producers {
            if core.rob.contains(p) && !core.rob[p].is_done() {
                links.push((e.seq, p));
            }
        }
    }
    links
}

#[test]
fn squash_mid_dependency_chain_prunes_waiters_before_sequence_reuse() {
    // Consumers of a slow load sit behind an irregular branch. When the
    // branch mispredicts, the wrong-path consumers are squashed while
    // the load (older than the branch) is still executing: they must
    // leave its wakeup list before the corrected path re-dispatches into
    // the same sequence numbers and links to the same load again.
    let mut b = ProgramBuilder::new("squash-chain");
    let values: Vec<u64> = (0..48).map(|i| i * 3 + 1).collect();
    b.data_u64(VirtAddr::new(0x1_0000), &values);
    let top = b.new_label();
    let skip = b.new_label();
    b.li(Reg::X1, 0x1_0000);
    b.li(Reg::X2, 0);
    b.li(Reg::X3, 0);
    b.li(Reg::X9, 2_654_435_761);
    b.bind_label(top);
    b.shli(Reg::X4, Reg::X2, 3);
    b.add(Reg::X4, Reg::X1, Reg::X4);
    b.load(Reg::X5, Reg::X4, 0);
    b.mul(Reg::X7, Reg::X2, Reg::X9);
    b.shri(Reg::X7, Reg::X7, 5);
    b.andi(Reg::X7, Reg::X7, 1);
    b.beq(Reg::X7, Reg::X0, skip);
    b.add(Reg::X8, Reg::X5, Reg::X5);
    b.add(Reg::X8, Reg::X8, Reg::X5);
    b.add(Reg::X3, Reg::X3, Reg::X8);
    b.bind_label(skip);
    b.add(Reg::X3, Reg::X3, Reg::X5);
    b.addi(Reg::X2, Reg::X2, 1);
    b.blt_imm(Reg::X2, 48, top);
    b.halt();
    let p = b.build().unwrap();

    let (mut core, mut mem) = core_with(&p, 20);
    let mut pruned = Vec::new(); // squashed consumer seqs of surviving producers
    let mut reused = 0;
    let mut now = Cycle::ZERO;
    while !core.is_halted() && now.raw() < 100_000 {
        let links = operand_links(&core);
        let squashed_before = core.stats().squashed;
        tick_checked(&mut core, now, &mut mem);
        if core.stats().squashed > squashed_before {
            let tail = core.rob.tail();
            for &(consumer, producer) in &links {
                if consumer >= tail && core.rob.contains(producer) {
                    // The squash rolled the tail back over the consumer.
                    pruned.push(consumer);
                }
            }
        }
        reused += pruned
            .iter()
            .filter(|&&seq| core.rob.iter().any(|e| e.seq == seq))
            .count();
        pruned.retain(|&seq| !core.rob.iter().any(|e| e.seq == seq));
        now += 1;
    }
    assert!(core.is_halted(), "program should halt");
    assert!(core.stats().mispredictions > 0);
    assert!(
        reused > 0,
        "no squashed waiter's sequence number was reused"
    );
    let finished = core.swap_thread(None).expect("thread present");
    let golden = Interpreter::new(&p)
        .run(5_000_000)
        .expect("interpreter halts");
    assert_eq!(finished.regs.read(Reg::X3), golden.regs.read(Reg::X3));
}

#[test]
fn a_small_rob_ring_finds_entries_by_sequence_number_across_wraps_and_squashes() {
    // Six ROB entries on an eight-slot ring: the ring wraps every few
    // cycles, and mispredicted branches cut the ROB so that the corrected
    // path re-dispatches squashed sequence numbers across the wrap point.
    let mut b = ProgramBuilder::new("ring-wrap");
    let values: Vec<u64> = (0..64).map(|i| i * 5 + 3).collect();
    b.data_u64(VirtAddr::new(0x1_0000), &values);
    let top = b.new_label();
    let skip = b.new_label();
    b.li(Reg::X1, 0x1_0000);
    b.li(Reg::X2, 0);
    b.li(Reg::X3, 0);
    b.li(Reg::X9, 2_654_435_761);
    b.bind_label(top);
    b.shli(Reg::X4, Reg::X2, 3);
    b.add(Reg::X4, Reg::X1, Reg::X4);
    b.load(Reg::X5, Reg::X4, 0);
    b.mul(Reg::X7, Reg::X2, Reg::X9);
    b.shri(Reg::X7, Reg::X7, 7);
    b.andi(Reg::X7, Reg::X7, 1);
    b.beq(Reg::X7, Reg::X0, skip);
    b.add(Reg::X5, Reg::X5, Reg::X2);
    b.store(Reg::X5, Reg::X4, 0);
    b.bind_label(skip);
    b.add(Reg::X3, Reg::X3, Reg::X5);
    b.addi(Reg::X2, Reg::X2, 1);
    b.blt_imm(Reg::X2, 64, top);
    b.halt();
    let p = b.build().unwrap();

    let mut cfg = SystemConfig::paper_default();
    cfg.pipeline.rob_entries = 6;
    let mut core = OooCore::new(0, &cfg);
    assert_eq!(core.rob.slots(), 8);
    core.swap_thread(Some(ThreadContext::new(p.clone(), 0)));
    let mut mem = FixedLatencyMemory::new(4, 1);
    let mut reused_across_wrap = 0;
    let mut now = Cycle::ZERO;
    while !core.is_halted() && now.raw() < 100_000 {
        let (tail_before, squashed_before) = (core.rob.tail(), core.stats().squashed);
        tick_checked(&mut core, now, &mut mem);
        if core.stats().squashed > squashed_before
            && (core.rob.tail()..tail_before).any(|seq| core.rob.slot(seq) == 0)
        {
            reused_across_wrap += 1;
        }
        let (head, tail) = (core.rob.head(), core.rob.tail());
        assert!(core.rob.len() <= 6);
        for (seq, e) in (head..tail).zip(core.rob.iter()) {
            assert_eq!((core.rob[seq].seq, e.seq), (seq, seq));
        }
        now += 1;
    }
    assert!(core.is_halted(), "program should halt");
    assert!(core.rob.head() > 50 * 8, "the ring wrapped many times");
    assert!(
        reused_across_wrap > 5,
        "squashes reused numbers across the wrap"
    );
    let finished = core.swap_thread(None).expect("thread present");
    let golden = Interpreter::new(&p)
        .run(5_000_000)
        .expect("interpreter halts");
    assert_eq!(finished.regs.snapshot(), golden.regs.snapshot());
}

/// Runs `p` tick by tick and returns the tick at which the entry at
/// `store_pc` issued, asserting that the load at `load_pc` was parked
/// behind it before and issued in that very tick.
fn assert_woken_same_cycle(p: &Program, store_pc: usize, load_pc: usize) -> u64 {
    let (mut core, mut mem) = core_with(p, 30);
    let mut was_parked = false;
    let mut now = Cycle::ZERO;
    while !core.is_halted() && now.raw() < 10_000 {
        let store_waiting = entry_at_pc(&core, store_pc).is_some() && !issued(&core, store_pc);
        tick_checked(&mut core, now, &mut mem);
        was_parked |= parked_behind(&core, load_pc, store_pc);
        if store_waiting && issued(&core, store_pc) {
            assert!(was_parked, "the load never waited for the store's address");
            assert!(
                issued(&core, load_pc),
                "the load woken by the store must issue in the same cycle"
            );
            return now.raw();
        }
        now += 1;
    }
    panic!("the store never issued");
}

#[test]
fn load_parked_behind_a_store_issues_in_the_cycle_the_address_resolves() {
    // The store's address comes from a slow load; the younger load's
    // address is known at once, so it parks behind the store and must
    // be tried again right after the store issues, in the same cycle.
    let mut b = ProgramBuilder::new("store-wake");
    b.data_u64(VirtAddr::new(0x8000), &[0x9000, 7]);
    b.li(Reg::X1, 0x8000);
    b.li(Reg::X3, 5);
    b.load(Reg::X2, Reg::X1, 0); // pc 2: slow
    b.store(Reg::X3, Reg::X2, 0); // pc 3: address waits for pc 2
    b.load(Reg::X4, Reg::X1, 8); // pc 4: parks behind pc 3
    b.halt();
    let p = b.build().unwrap();
    assert!(assert_woken_same_cycle(&p, 3, 4) >= 30);
    assert_matches_interpreter(&p, &[Reg::X4]);
}

#[test]
fn load_parked_behind_an_atomic_issues_in_the_cycle_the_atomic_executes() {
    // An atomic computes its address only when it executes at the ROB
    // head; the younger load parks behind it until then.
    let mut b = ProgramBuilder::new("atomic-wake");
    b.data_u64(VirtAddr::new(0x8000), &[10, 7]);
    b.li(Reg::X1, 0x8000);
    b.li(Reg::X5, 2);
    b.load(Reg::X2, Reg::X1, 0); // pc 2: slow, keeps the atomic off the head
    b.amoadd(Reg::X3, Reg::X5, Reg::X1); // pc 3
    b.load(Reg::X4, Reg::X1, 8); // pc 4: parks behind pc 3
    b.halt();
    let p = b.build().unwrap();
    assert!(assert_woken_same_cycle(&p, 3, 4) >= 30);
    assert_matches_interpreter(&p, &[Reg::X3, Reg::X4]);
}

#[test]
fn out_of_order_store_waiters_are_all_pruned_on_squash() {
    // Three loads park behind one store in reverse dispatch order (the
    // youngest's address is ready first), then a mispredicted indirect
    // jump older than all three squashes them while the store survives.
    let target = 18;
    let mut b = ProgramBuilder::new("store-waiters-squash");
    b.data_u64(VirtAddr::new(0x8000), &[0x9000]);
    b.li(Reg::X1, 0x8000); // 0
    b.li(Reg::X9, 0x8100); // 1
    b.li(Reg::X14, 1); // 2
    b.li(Reg::X13, target as u64); // 3
    b.load(Reg::X2, Reg::X1, 0); // 4: slow
    b.store(Reg::X3, Reg::X2, 0); // 5: address waits for 4
    for _ in 0..4 {
        b.mul(Reg::X13, Reg::X13, Reg::X14); // 6-9: delay the jump
    }
    b.jump_indirect(Reg::X13, 0); // 10: first sight, predicted pc + 1
    b.mul(Reg::X8, Reg::X9, Reg::X14); // 11
    b.mul(Reg::X7, Reg::X9, Reg::X14); // 12
    b.mul(Reg::X7, Reg::X7, Reg::X14); // 13
    b.load(Reg::X10, Reg::X7, 0); // 14: ready last
    b.load(Reg::X11, Reg::X8, 8); // 15
    b.load(Reg::X12, Reg::X9, 16); // 16: ready first
    b.halt(); // 17
    assert_eq!(b.len(), target);
    b.load(Reg::X15, Reg::X9, 24); // 18: the corrected path
    b.addi(Reg::X16, Reg::X15, 1);
    b.halt();
    let p = b.build().unwrap();

    let (mut core, mut mem) = core_with(&p, 40);
    let mut parked_at = [None; 3]; // first tick each load (pc 14..=16) parked
    let mut pruned = false;
    let mut now = Cycle::ZERO;
    while !core.is_halted() && now.raw() < 10_000 {
        let squashed_before = core.stats().squashed;
        tick_checked(&mut core, now, &mut mem);
        for (i, first) in parked_at.iter_mut().enumerate() {
            if first.is_none() && parked_behind(&core, 14 + i, 5) {
                *first = Some(now.raw());
            }
        }
        if core.stats().squashed > squashed_before && !pruned {
            pruned = true;
            let store = entry_at_pc(&core, 5).expect("the store survives the squash");
            assert!(matches!(store.status, Status::Waiting));
            assert!(
                core.store_waiters.is_empty(core.rob.slot(store.seq)),
                "squashed loads left behind in the store's wait list"
            );
        }
        now += 1;
    }
    assert!(core.is_halted() && pruned);
    let [Some(l1), Some(l2), Some(l3)] = parked_at else {
        panic!("every wrong-path load must park behind the store: {parked_at:?}");
    };
    assert!(l3 < l2 && l2 < l1, "loads must park out of dispatch order");
    assert_matches_interpreter(&p, &[Reg::X15, Reg::X16]);
}

// --- parked accesses and head-only atomics ---------------------------

/// A memory model that logs every `load` call and answers it from a
/// script: a scripted address is refused for its first `refusals` polls
/// and then takes its `latency`; any other data access takes one cycle,
/// and each instruction-cache line `fetch_latency` cycles.
struct ScriptedMemory {
    /// `(address, refusals left, latency once accepted)`.
    script: Vec<(u64, u32, u64)>,
    fetch_latency: u64,
    /// `(address, when)` of every load call, in call order.
    loads: Vec<(u64, Cycle)>,
}

impl ScriptedMemory {
    fn new(script: &[(u64, u32, u64)]) -> Self {
        ScriptedMemory {
            script: script.to_vec(),
            fetch_latency: 1,
            loads: Vec::new(),
        }
    }

    /// The cycles at which `addr` was loaded, in call order.
    fn calls_to(&self, addr: u64) -> Vec<u64> {
        let calls = self.loads.iter().filter(|(a, _)| *a == addr);
        calls.map(|(_, when)| when.raw()).collect()
    }
}

impl MemoryModel for ScriptedMemory {
    fn name(&self) -> &str {
        "scripted"
    }

    fn fetch_instruction(&mut self, _ctx: &MemAccessCtx) -> MemOutcome {
        MemOutcome::Done {
            latency: self.fetch_latency,
        }
    }

    fn load(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
        let addr = ctx.vaddr.raw();
        self.loads.push((addr, ctx.when));
        match self.script.iter_mut().find(|(a, _, _)| *a == addr) {
            Some((_, refusals, _)) if *refusals > 0 => {
                *refusals -= 1;
                MemOutcome::RetryWhenNonSpeculative
            }
            Some(&mut (_, _, latency)) => MemOutcome::Done { latency },
            None => MemOutcome::Done { latency: 1 },
        }
    }

    fn store_address_ready(&mut self, _ctx: &MemAccessCtx) {}

    fn commit_access(&mut self, _ctx: &MemAccessCtx) -> u64 {
        0
    }

    fn on_squash(&mut self, _core: usize, _when: Cycle) {}

    fn on_domain_switch(&mut self, _core: usize, _kind: DomainSwitch, _when: Cycle) {}

    fn stats(&self) -> StatSet {
        StatSet::new()
    }
}

/// What ticking a program to its halt under a [`ScriptedMemory`] saw.
/// The per-pc cycles are the first at whose end the entry fetched from
/// that pc was in the ROB, had left `Waiting`, was `Done`, headed the ROB.
struct ScriptedRun {
    mem: ScriptedMemory,
    stats: CoreStats,
    dispatched_at: Vec<Option<u64>>,
    issued_at: Vec<Option<u64>>,
    done_at: Vec<Option<u64>>,
    head_at: Vec<Option<u64>>,
}

fn run_scripted(p: &Program, mut mem: ScriptedMemory) -> ScriptedRun {
    let mut core = OooCore::new(0, &SystemConfig::paper_default());
    core.swap_thread(Some(ThreadContext::new(p.clone(), 0)));
    let mut at = vec![vec![None; p.len()]; 4];
    let mut now = Cycle::ZERO;
    while !core.is_halted() && now.raw() < 10_000 {
        tick_checked(&mut core, now, &mut mem);
        for (idx, e) in core.rob.iter().enumerate() {
            let seen = [
                true,
                !matches!(e.status, Status::Waiting),
                e.is_done(),
                idx == 0,
            ];
            for (cycles, seen) in at.iter_mut().zip(seen) {
                if seen {
                    cycles[e.pc].get_or_insert(now.raw());
                }
            }
        }
        now += 1;
    }
    assert!(core.is_halted(), "program should halt");
    let finished = core.swap_thread(None).expect("thread present");
    let golden = Interpreter::new(p)
        .run(1_000_000)
        .expect("interpreter halts");
    assert_eq!(finished.regs.snapshot(), golden.regs.snapshot());
    let [dispatched_at, issued_at, done_at, head_at] = <[_; 4]>::try_from(at).unwrap();
    ScriptedRun {
        mem,
        stats: core.stats().clone(),
        dispatched_at,
        issued_at,
        done_at,
        head_at,
    }
}

/// Consecutive cycles starting at `first`.
fn streak(first: u64, len: usize) -> Vec<u64> {
    (first..first + len as u64).collect()
}

#[test]
fn a_parked_load_is_polled_once_per_cycle_until_accepted() {
    // A slow load holds the head so the load behind it stays
    // speculative; the model refuses that one 6 times.
    let mut b = ProgramBuilder::new("parked-load");
    b.data_u64(VirtAddr::new(0x8000), &[3, 4, 5, 6, 7, 8, 9, 10, 11]);
    b.li(Reg::X1, 0x8000); // 0
    b.load(Reg::X9, Reg::X1, 64); // 1: slow head
    b.load(Reg::X2, Reg::X1, 0); // 2: refused 6 times
    b.add(Reg::X3, Reg::X2, Reg::X9); // 3
    b.halt();
    let p = b.build().unwrap();
    let run = run_scripted(&p, ScriptedMemory::new(&[(0x8040, 0, 40), (0x8000, 6, 5)]));
    let calls = run.mem.calls_to(0x8000);
    assert_eq!(calls, streak(calls[0], 7), "one poll per cycle");
    assert_eq!(run.stats.mem_retries, 6);
    let accepted = calls[6];
    assert_eq!(
        run.done_at[2],
        Some(accepted + 5),
        "done at acceptance + latency"
    );
    assert!(
        accepted < run.done_at[1].unwrap(),
        "accepted while speculative"
    );
}

#[test]
fn two_parked_loads_are_polled_in_sequence_order() {
    let mut b = ProgramBuilder::new("two-parked");
    b.data_u64(VirtAddr::new(0x8000), &[3, 4, 5, 6, 7, 8, 9, 10, 11]);
    b.li(Reg::X1, 0x8000); // 0
    b.load(Reg::X9, Reg::X1, 64); // 1: slow head
    b.load(Reg::X2, Reg::X1, 8); // 2: refused 3 times
    b.load(Reg::X4, Reg::X1, 0); // 3: refused 5 times
    b.add(Reg::X3, Reg::X2, Reg::X4); // 4
    b.halt();
    let p = b.build().unwrap();
    let run = run_scripted(
        &p,
        ScriptedMemory::new(&[(0x8040, 0, 40), (0x8008, 3, 2), (0x8000, 5, 2)]),
    );
    let (older, younger) = (run.mem.calls_to(0x8008), run.mem.calls_to(0x8000));
    assert_eq!(older, streak(older[0], 4));
    assert_eq!(younger, streak(older[0], 6));
    assert_eq!(run.stats.mem_retries, 8);
    // While both are parked, each cycle polls the older one first.
    let order: Vec<u64> = run.mem.loads.iter().map(|&(a, _)| a).collect();
    let first = order.iter().position(|&a| a == 0x8008).unwrap();
    assert_eq!(
        order[first..first + 8],
        [0x8008, 0x8000].repeat(4),
        "polls out of sequence order"
    );
}

#[test]
fn a_completion_mid_streak_keeps_the_poll_once_per_cycle() {
    // The slow head finishes while the load behind it is still refused:
    // the poll goes on once per cycle, through the cycles the head
    // completes and commits, and then non-speculatively.
    let mut b = ProgramBuilder::new("streak-completion");
    b.data_u64(VirtAddr::new(0x8000), &[3, 4, 5, 6, 7, 8, 9, 10, 11]);
    b.li(Reg::X1, 0x8000); // 0
    b.load(Reg::X9, Reg::X1, 64); // 1: slow head
    b.load(Reg::X2, Reg::X1, 0); // 2: refused 30 times
    b.add(Reg::X3, Reg::X2, Reg::X9); // 3
    b.halt();
    let p = b.build().unwrap();
    let run = run_scripted(&p, ScriptedMemory::new(&[(0x8040, 0, 12), (0x8000, 30, 3)]));
    let calls = run.mem.calls_to(0x8000);
    assert_eq!(calls, streak(calls[0], 31));
    assert_eq!(run.stats.mem_retries, 30);
    let head_done = run.done_at[1].expect("the head completes");
    assert!(calls[0] < head_done && head_done < calls[30]);
    assert_eq!(run.done_at[2], Some(calls[30] + 3));
}

#[test]
fn work_fetched_during_a_poll_streak_issues_on_the_next_cycle() {
    // Instruction-cache lines take 4 cycles, so the last fetch group
    // arrives while the load is parked and nothing else is left to
    // issue: the group issues on the next cycle, alongside the poll,
    // instead of waiting for the streak to end.
    let mut b = ProgramBuilder::new("fetch-mid-streak");
    b.data_u64(VirtAddr::new(0x8000), &[3, 4, 5, 6, 7, 8, 9, 10, 11]);
    b.li(Reg::X1, 0x8000); // 0
    b.load(Reg::X9, Reg::X1, 64); // 1: slow head
    b.load(Reg::X2, Reg::X1, 0); // 2: refused 40 times
    b.add(Reg::X3, Reg::X2, Reg::X9); // 3
    for i in 4..38 {
        b.addi(Reg::X10, Reg::X0, i); // 4..37; the last line starts at 32
    }
    b.halt(); // 38
    let p = b.build().unwrap();
    let mem = ScriptedMemory {
        fetch_latency: 4,
        ..ScriptedMemory::new(&[(0x8040, 0, 60), (0x8000, 40, 2)])
    };
    let run = run_scripted(&p, mem);
    let calls = run.mem.calls_to(0x8000);
    assert_eq!(calls, streak(calls[0], 41));
    let last_group = run.dispatched_at[32].unwrap();
    assert!(calls[0] < last_group && last_group < calls[40]);
    for pc in 32..38 {
        assert_eq!(run.issued_at[pc], Some(last_group + 1), "pc {pc}");
    }
}

#[test]
fn an_atomic_makes_its_memory_call_when_it_becomes_the_head() {
    let mut b = ProgramBuilder::new("atomic-at-head");
    b.data_u64(VirtAddr::new(0x8000), &[10, 0, 0, 0, 0, 0, 0, 0, 99]);
    b.li(Reg::X1, 0x8000); // 0
    b.li(Reg::X5, 2); // 1
    b.load(Reg::X2, Reg::X1, 64); // 2: slow, holds the head
    for _ in 0..40 {
        b.nop(); // 3..43: the atomic is dispatched once its operands are ready
    }
    b.amoadd(Reg::X3, Reg::X5, Reg::X1); // 43
    b.halt();
    let p = b.build().unwrap();
    let run = run_scripted(&p, ScriptedMemory::new(&[(0x8040, 0, 30)]));
    let became_head = run.head_at[43].expect("the atomic reaches the head");
    assert!(became_head > run.done_at[2].unwrap());
    assert_eq!(run.mem.calls_to(0x8000), vec![became_head]);
}

#[test]
fn a_squashed_loads_completion_does_not_wake_the_core() {
    // The branch waits for a slow load and resolves taken, against its
    // first-sight not-taken prediction, after the wrong-path load behind it
    // has issued with a latency that ends inside the mispredict penalty.
    let mut b = ProgramBuilder::new("stale-ticket");
    b.data_u64(VirtAddr::new(0x8000), &[1, 7]);
    let skip = b.new_label();
    b.li(Reg::X1, 0x8000); // 0
    b.load(Reg::X2, Reg::X1, 0); // 1: slow
    b.bne(Reg::X2, Reg::X0, skip); // 2: taken
    b.load(Reg::X3, Reg::X1, 8); // 3: wrong path
    b.halt(); // 4
    b.bind_label(skip);
    b.addi(Reg::X4, Reg::X0, 1); // 5
    b.halt();
    let p = b.build().unwrap();
    let mut mem = ScriptedMemory::new(&[(0x8000, 0, 40), (0x8008, 0, 46)]);
    let mut core = OooCore::new(0, &SystemConfig::paper_default());
    core.swap_thread(Some(ThreadContext::new(p.clone(), 0)));
    let mut checked = false;
    let mut now = Cycle::ZERO;
    while !core.is_halted() && now.raw() < 10_000 {
        let wrong_path_done = entry_at_pc(&core, 3).and_then(|e| match e.status {
            Status::Executing(at) => Some(at),
            _ => None,
        });
        tick_checked(&mut core, now, &mut mem);
        if let Some(stale) = wrong_path_done.filter(|_| entry_at_pc(&core, 3).is_none()) {
            // Nothing is in flight: the live minimum is the end of the
            // refill, which the squashed load's completion precedes.
            let next = now + 1;
            assert!(next < stale && stale < core.fetch_stalled_until);
            assert_eq!(core.next_wake(next), core.fetch_stalled_until);
            checked = true;
        }
        now += 1;
    }
    assert!(
        checked,
        "the wrong-path load was not squashed while executing"
    );
    assert_matches_interpreter(&p, &[Reg::X3, Reg::X4]);
}

// --- issue window walk ----------------------------------------------

/// A program whose slow load, at instruction `load_pc`, sits at the ROB
/// head while `waiters` dependents of it fill the ROB behind it, with a
/// speculation barrier before dependent number `barrier_at`, if any.
fn stalled_window(load_pc: usize, waiters: usize, barrier_at: Option<usize>) -> Program {
    let mut b = ProgramBuilder::new("stalled-window");
    b.data_u64(VirtAddr::new(0x8000), &[5]);
    b.li(Reg::X1, 0x8000);
    for _ in 1..load_pc {
        b.nop();
    }
    b.load(Reg::X2, Reg::X1, 0);
    for i in 0..waiters {
        if barrier_at == Some(i) {
            b.spec_barrier();
        }
        b.addi(Reg::X3, Reg::X2, i as i64);
    }
    b.halt();
    b.build().unwrap()
}

/// Runs `p` tick by tick on a core with `rob` ROB entries and an
/// `iq`-entry issue window, checks the result against the interpreter,
/// and returns each distinct `(head slot, end slot, ends at a serialising
/// entry)` of an issue window that ended before the ROB tail. Every
/// issue stage checks its word walk against the ROB-walk oracle.
fn window_ends(p: &Program, rob: usize, iq: usize) -> Vec<(usize, usize, bool)> {
    let mut cfg = SystemConfig::paper_default();
    cfg.pipeline.rob_entries = rob;
    cfg.pipeline.iq_entries = iq;
    let mut core = OooCore::new(0, &cfg);
    core.swap_thread(Some(ThreadContext::new(p.clone(), 0)));
    let mut mem = FixedLatencyMemory::new(300, 1);
    let mut ends = Vec::new();
    let mut now = Cycle::ZERO;
    while !core.is_halted() && now.raw() < 10_000 {
        let (head, end) = (core.rob.head(), core.window_end_by_rob_walk());
        if end < core.rob.tail() {
            let serial = core.rob[end].inst.is_serialising();
            let seen = (core.rob.slot(head), core.rob.slot(end), serial);
            if !ends.contains(&seen) {
                ends.push(seen);
            }
        }
        tick_checked(&mut core, now, &mut mem);
        now += 1;
    }
    let finished = core.swap_thread(None).expect("thread present");
    let golden = Interpreter::new(p)
        .run(1_000_000)
        .expect("interpreter halts");
    assert_eq!(finished.regs.snapshot(), golden.regs.snapshot());
    ends
}

#[test]
fn window_cutoff_falls_in_the_wrapped_second_chunk() {
    // The load heads the ROB at slot 201 of the 256-slot ring, so 54
    // Waiting entries fill the rest of its word and the 65th Waiting
    // entry lies at slot 10, past the wrap.
    let ends = window_ends(&stalled_window(201, 190, None), 192, 64);
    assert!(ends.contains(&(201, 10, false)), "{ends:?}");
}

#[test]
fn serialising_limit_falls_in_the_wrapped_second_chunk() {
    // As above with a window larger than the ROB, and a barrier as the
    // 75th entry past the head, at slot 20 past the wrap.
    let ends = window_ends(&stalled_window(201, 190, Some(74)), 192, 192);
    assert!(ends.contains(&(201, 20, true)), "{ends:?}");
}

#[test]
fn windows_of_64_and_65_entries_end_at_the_start_of_the_next_word() {
    // The load heads the ROB at slot 63, so the Waiting entries start on
    // a word boundary: a 64-entry window fills word 1 exactly and ends at
    // bit 0 of word 2, a 65-entry one at bit 1.
    let p = stalled_window(63, 150, None);
    let ends = window_ends(&p, 192, 64);
    assert!(ends.contains(&(63, 128, false)), "{ends:?}");
    let ends = window_ends(&p, 192, 65);
    assert!(ends.contains(&(63, 129, false)), "{ends:?}");
}

#[test]
fn stats_convert_to_stat_set() {
    let mut b = ProgramBuilder::new("stats");
    b.li(Reg::X1, 1);
    b.halt();
    let p = b.build().unwrap();
    let (core, _, _) = run_program(&p);
    let mut set = StatSet::new();
    core.stats().export(&mut set, "core0");
    assert!(set.counter("core0.committed") >= 2);
    assert_eq!(set.counter("core0.mem_retries"), 0);
    assert_eq!(
        set.iter_counters().count(),
        9,
        "every counter is exported, zeros included"
    );
}
