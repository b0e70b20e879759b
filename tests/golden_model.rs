//! Cross-crate integration test: the out-of-order core must be architecturally
//! equivalent to the in-order functional interpreter for every workload in
//! both suites, under every memory model. Timing may differ wildly; committed
//! register state and instruction counts must not.

use muontrap_repro::prelude::*;
use ooo_core::memmodel::FixedLatencyMemory;
use uarch_isa::Interpreter;

/// Runs a single-threaded program on the out-of-order core with the given
/// memory model and returns the halted thread context.
fn run_on_core(program: &uarch_isa::Program, mem: &mut dyn MemoryModel) -> ooo_core::ThreadContext {
    run_on_core_with(&SystemConfig::paper_default(), program, mem)
}

/// [`run_on_core`] on the machine `cfg`.
fn run_on_core_with(
    cfg: &SystemConfig,
    program: &uarch_isa::Program,
    mem: &mut dyn MemoryModel,
) -> ooo_core::ThreadContext {
    let mut core = ooo_core::OooCore::new(0, cfg);
    core.run_to_halt(ThreadContext::new(program.clone(), 0), mem, 50_000_000)
        .expect("program halts on the out-of-order core");
    core.swap_thread(None).expect("thread context returned")
}

#[test]
fn spec_like_kernels_match_the_interpreter_under_fixed_latency_memory() {
    for workload in spec_suite(Scale::Tiny) {
        let program = &workload.thread_programs[0];
        let mut interp = Interpreter::new(program);
        let golden = interp.run(20_000_000).expect("interpreter halts");

        let mut mem = FixedLatencyMemory::default();
        let finished = run_on_core(program, &mut mem);

        assert_eq!(
            finished.regs.snapshot(),
            golden.regs.snapshot(),
            "architectural register mismatch for {}",
            workload.name
        );
    }
}

#[test]
fn spec_like_kernels_match_the_interpreter_on_rob_sizes_that_round_up_the_slot_ring() {
    // The issue stage's slot ring is the ROB size rounded up to a power of
    // two; these sizes leave dead slots (and, at 65 and 100, a partly live
    // second word), and the small windows make the window cutoff bind.
    // Debug builds also check the issue stage against its ROB-walk oracle
    // on every cycle.
    for workload in spec_suite(Scale::Tiny) {
        let program = &workload.thread_programs[0];
        let golden = Interpreter::new(program)
            .run(20_000_000)
            .expect("interpreter halts");
        for rob_entries in [1, 3, 65, 100] {
            for iq_entries in [1, 7] {
                let mut cfg = SystemConfig::paper_default();
                cfg.pipeline.rob_entries = rob_entries;
                cfg.pipeline.iq_entries = iq_entries;
                for kind in [DefenseKind::Unprotected, DefenseKind::MuonTrap] {
                    let mut mem = kind.build(&cfg);
                    let finished = run_on_core_with(&cfg, program, mem.as_mut());
                    assert_eq!(
                        finished.regs.snapshot(),
                        golden.regs.snapshot(),
                        "architectural mismatch for {} under {} with {rob_entries} ROB \
                         and {iq_entries} IQ entries",
                        workload.name,
                        kind.label()
                    );
                }
            }
        }
    }
}

#[test]
fn representative_kernels_match_the_interpreter_under_muontrap_and_baseline() {
    // The memory model must never change architectural results, only timing.
    let cfg = SystemConfig::paper_default();
    let names = ["mcf", "sjeng", "gcc", "calculix", "lbm"];
    let suite = spec_suite(Scale::Tiny);
    for name in names {
        let workload = suite
            .iter()
            .find(|w| w.name == name)
            .expect("kernel exists");
        let program = &workload.thread_programs[0];
        let mut interp = Interpreter::new(program);
        let golden = interp.run(20_000_000).expect("interpreter halts");

        for kind in [
            DefenseKind::Unprotected,
            DefenseKind::MuonTrap,
            DefenseKind::SttFuture,
        ] {
            let mut mem = kind.build(&cfg);
            let finished = run_on_core(program, mem.as_mut());
            assert_eq!(
                finished.regs.snapshot(),
                golden.regs.snapshot(),
                "architectural mismatch for {name} under {}",
                kind.label()
            );
        }
    }
}

#[test]
fn committed_instruction_counts_match_the_interpreter() {
    let cfg = SystemConfig::paper_default();
    let suite = spec_suite(Scale::Tiny);
    let workload = suite
        .iter()
        .find(|w| w.name == "gobmk")
        .expect("kernel exists");
    let program = &workload.thread_programs[0];
    let mut interp = Interpreter::new(program);
    let golden = interp.run(20_000_000).expect("interpreter halts");

    let mut core = ooo_core::OooCore::new(0, &cfg);
    let mut mem = DefenseKind::MuonTrap.build(&cfg);
    core.run_to_halt(
        ThreadContext::new(program.clone(), 0),
        mem.as_mut(),
        50_000_000,
    )
    .expect("halts");
    assert_eq!(
        core.stats().committed,
        golden.retired,
        "the out-of-order core must commit exactly the instructions the program retires"
    );
}
