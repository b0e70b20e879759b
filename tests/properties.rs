//! Property-style tests over the core data structures and invariants.
//!
//! The seed version of this file used `proptest`; the build runs offline with
//! no registry access, so these tests drive the same randomised properties
//! with the deterministic [`SimRng`] instead. Each property runs a fixed
//! number of seeded cases, so failures reproduce exactly.

use memsys::cache::CacheArray;
use memsys::MesiState;
use muontrap::FilterCache;
use muontrap_repro::prelude::*;
use ooo_core::memmodel::FixedLatencyMemory;
use simkit::addr::{LineAddr, VirtAddr};
use simkit::config::CacheConfig;
use simkit::cycles::Cycle;
use simkit::rng::SimRng;
use simkit::stats::{geometric_mean, StatSet};
use simkit::timeq::EventQueue;
use uarch_isa::inst::{eval_alu, AluOp, MemWidth};
use uarch_isa::mem::SparseMemory;
use uarch_isa::Interpreter;

/// Runs `body` once per seeded case, passing a per-case RNG. A failing case is
/// reported by its seed so it can be replayed in isolation.
fn for_each_case(cases: u64, mut body: impl FnMut(&mut SimRng)) {
    for seed in 0..cases {
        let mut rng = SimRng::seed_from(0x5eed_0000 + seed);
        body(&mut rng);
    }
}

// ---------------------------------------------------------------------------
// simkit invariants
// ---------------------------------------------------------------------------

#[test]
fn rng_below_always_respects_its_bound() {
    for_each_case(64, |rng| {
        let bound = rng.in_range(1, 1_000_000);
        let mut sampler = SimRng::seed_from(rng.next_u64());
        for _ in 0..64 {
            assert!(sampler.below(bound) < bound);
        }
    });
}

#[test]
fn rng_shuffle_is_a_permutation() {
    for_each_case(64, |rng| {
        let len = rng.below(64) as usize;
        let mut values: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..len).collect::<Vec<_>>());
    });
}

#[test]
fn geometric_mean_lies_between_min_and_max() {
    for_each_case(64, |rng| {
        let len = rng.in_range(1, 20) as usize;
        let values: Vec<f64> = (0..len).map(|_| 0.01 + rng.next_f64() * 99.99).collect();
        let g = geometric_mean(&values);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            g >= min * 0.999 && g <= max * 1.001,
            "geomean {g} outside [{min}, {max}]"
        );
    });
}

#[test]
fn stat_merge_is_additive() {
    for_each_case(64, |rng| {
        let a = rng.below(1_000_000);
        let b = rng.below(1_000_000);
        let mut s1 = StatSet::new();
        s1.add("x", a);
        let mut s2 = StatSet::new();
        s2.add("x", b);
        s1.merge(&s2);
        assert_eq!(s1.counter("x"), a + b);
    });
}

#[test]
fn alu_add_sub_round_trip() {
    for_each_case(128, |rng| {
        let a = rng.next_u64();
        let b = rng.next_u64();
        let sum = eval_alu(AluOp::Add, a, b);
        assert_eq!(eval_alu(AluOp::Sub, sum, b), a);
        assert_eq!(eval_alu(AluOp::Xor, eval_alu(AluOp::Xor, a, b), b), a);
    });
}

// ---------------------------------------------------------------------------
// Sparse memory vs a reference model
// ---------------------------------------------------------------------------

#[test]
fn sparse_memory_matches_a_hashmap_model() {
    for_each_case(32, |rng| {
        let len = rng.in_range(1, 200) as usize;
        let ops: Vec<(u64, u64)> = (0..len)
            .map(|_| (rng.below(0x4000), rng.next_u64()))
            .collect();
        let mut memory = SparseMemory::new();
        let mut model = std::collections::HashMap::new();
        for (addr, value) in &ops {
            let aligned = addr & !7;
            memory.write(VirtAddr::new(aligned), *value, MemWidth::Double);
            model.insert(aligned, *value);
        }
        for (addr, expected) in &model {
            assert_eq!(
                memory.read(VirtAddr::new(*addr), MemWidth::Double),
                *expected
            );
        }
    });
}

// ---------------------------------------------------------------------------
// Cache array invariants
// ---------------------------------------------------------------------------

#[test]
fn cache_occupancy_never_exceeds_capacity_and_mru_is_resident() {
    for_each_case(32, |rng| {
        let len = rng.in_range(1, 300) as usize;
        let lines: Vec<u64> = (0..len).map(|_| rng.below(256)).collect();
        let mut cache: CacheArray<()> = CacheArray::new(&CacheConfig::new(2048, 4, 1, 4), 64);
        for line in &lines {
            cache.insert(LineAddr::new(*line), MesiState::Shared, ());
            assert!(cache.occupancy() <= cache.capacity_lines());
            // The line just inserted must be resident (most recently used).
            assert!(cache.contains(LineAddr::new(*line)));
        }
        // Invalidate-all always empties the cache.
        cache.invalidate_all();
        assert_eq!(cache.occupancy(), 0);
    });
}

#[test]
fn cache_lookup_agrees_with_peek() {
    for_each_case(32, |rng| {
        let len = rng.in_range(1, 100) as usize;
        let lines: Vec<u64> = (0..len).map(|_| rng.below(64)).collect();
        let mut cache: CacheArray<()> = CacheArray::new(&CacheConfig::new(1024, 2, 1, 4), 64);
        for line in &lines {
            cache.insert(LineAddr::new(*line), MesiState::Exclusive, ());
        }
        for line in 0u64..64 {
            let peeked = cache.peek(LineAddr::new(line)).is_some();
            let looked = cache.lookup(LineAddr::new(line)).is_some();
            assert_eq!(peeked, looked);
        }
    });
}

// ---------------------------------------------------------------------------
// Filter cache invariants
// ---------------------------------------------------------------------------

#[test]
fn filter_cache_flush_is_total_and_committed_bit_is_monotonic() {
    for_each_case(24, |rng| {
        let len = rng.in_range(1, 200) as usize;
        let lines: Vec<u64> = (0..len).map(|_| rng.below(128)).collect();
        let mut filter = FilterCache::new(&CacheConfig::new(2048, 4, 1, 4), 64);
        for (i, line) in lines.iter().enumerate() {
            let addr = LineAddr::new(*line);
            filter.insert_speculative(addr, false, Cycle::new(i as u64));
            // Newly inserted speculative lines are uncommitted.
            assert!(!filter.is_committed(addr));
            if i % 3 == 0 {
                filter.mark_committed(addr);
                assert!(filter.is_committed(addr));
            }
        }
        let occupancy = filter.occupancy();
        assert!(occupancy <= filter.capacity_lines());
        let dropped = filter.flush();
        assert_eq!(dropped, occupancy);
        assert_eq!(filter.occupancy(), 0);
        for line in &lines {
            assert!(!filter.contains(LineAddr::new(*line)));
        }
    });
}

// ---------------------------------------------------------------------------
// Time-queue properties: the event-driven core's scheduling primitives
// ---------------------------------------------------------------------------

#[test]
fn event_queue_drains_in_timestamp_then_payload_order() {
    for_each_case(64, |rng| {
        let len = rng.in_range(1, 400) as usize;
        let pushed: Vec<(Cycle, u64)> = (0..len)
            .map(|_| (Cycle::new(rng.below(10_000)), rng.next_u64()))
            .collect();
        let mut q: EventQueue<u64> = EventQueue::new();
        for (at, payload) in &pushed {
            q.push(*at, *payload);
        }
        assert_eq!(q.len(), len);
        let mut popped = Vec::new();
        while let Some(entry) = q.pop_due(Cycle::NEVER) {
            popped.push(entry);
        }
        assert!(q.is_empty());
        // Earliest-first, payload breaking ties — and nothing lost or invented.
        for pair in popped.windows(2) {
            assert!(pair[0] <= pair[1], "heap order violated: {pair:?}");
        }
        let mut expected = pushed.clone();
        expected.sort_unstable();
        assert_eq!(popped, expected);
    });
}

#[test]
fn event_queue_never_releases_a_future_event() {
    for_each_case(64, |rng| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut now = Cycle::ZERO;
        let mut last_popped = Cycle::ZERO;
        let mut seq = 0u64;
        for _ in 0..300 {
            match rng.below(3) {
                // Schedule work at or after the current time.
                0 => {
                    q.push(now.saturating_add(rng.below(100)), seq);
                    seq += 1;
                }
                // Let time pass.
                1 => now = now.saturating_add(rng.below(50)),
                // Drain whatever is due.
                _ => {
                    while let Some((at, _)) = q.pop_due(now) {
                        assert!(at <= now, "popped an event from the future");
                        // All pushes were at-or-after their push-time `now`
                        // and `now` is monotone, so due events drain in order.
                        assert!(at >= last_popped, "completion order went backwards");
                        last_popped = at;
                    }
                    // After draining, nothing due remains.
                    assert!(q.peek().is_none_or(|(at, _)| at > now));
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Random programs: out-of-order core vs functional interpreter
// ---------------------------------------------------------------------------

/// Generates a random but always-terminating straight-line program: a mix of
/// ALU operations, stores and loads over a small scratch region, ending in a
/// halt. Control flow is exercised by the workload-level golden tests; here we
/// stress dataflow, forwarding and memory ordering.
fn random_program(ops: &[(u8, u8, u8, u8, i64)]) -> uarch_isa::Program {
    let mut b = ProgramBuilder::new("random");
    b.li(Reg::X1, 0x9000); // scratch base
    for (i, (kind, rd, rs1, rs2)) in ops
        .iter()
        .map(|(k, a, b_, c, _)| (*k, *a, *b_, *c))
        .enumerate()
    {
        let rd = Reg::from_index(1 + (rd as usize % 29));
        let rs1 = Reg::from_index(1 + (rs1 as usize % 29));
        let rs2 = Reg::from_index(1 + (rs2 as usize % 29));
        let imm = ops[i].4 % 64;
        match kind % 6 {
            0 => {
                b.add(rd, rs1, rs2);
            }
            1 => {
                b.alui(AluOp::Xor, rd, rs1, imm);
            }
            2 => {
                b.mul(rd, rs1, rs2);
            }
            3 => {
                // Aligned store into the scratch region.
                b.andi(Reg::X30, rs1, 0x1f8);
                b.add(Reg::X30, Reg::X30, Reg::X1);
                b.store(rs2, Reg::X30, 0);
            }
            4 => {
                // Aligned load from the scratch region.
                b.andi(Reg::X30, rs1, 0x1f8);
                b.add(Reg::X30, Reg::X30, Reg::X1);
                b.load(rd, Reg::X30, 0);
            }
            _ => {
                b.alui(AluOp::Add, rd, rs1, imm);
            }
        }
    }
    b.halt();
    b.build().expect("random straight-line program builds")
}

#[test]
fn out_of_order_core_matches_interpreter_on_random_programs() {
    for_each_case(32, |rng| {
        let len = rng.in_range(1, 60) as usize;
        let ops: Vec<(u8, u8, u8, u8, i64)> = (0..len)
            .map(|_| {
                (
                    rng.below(256) as u8,
                    rng.below(256) as u8,
                    rng.below(256) as u8,
                    rng.below(256) as u8,
                    rng.next_u64() as i64,
                )
            })
            .collect();
        let program = random_program(&ops);

        let mut interp = Interpreter::new(&program);
        let golden = interp.run(1_000_000).expect("interpreter halts");

        let cfg = SystemConfig::paper_default();
        let mut core = ooo_core::OooCore::new(0, &cfg);
        let mut mem = FixedLatencyMemory::default();
        core.run_to_halt(ThreadContext::new(program, 0), &mut mem, 10_000_000)
            .expect("core halts");
        let finished = core.swap_thread(None).expect("context");

        assert_eq!(finished.regs.snapshot(), golden.regs.snapshot());
    });
}

#[test]
fn event_driven_and_naive_loops_report_identical_timing() {
    // The event queue is a pure wall-clock optimisation: skipping idle cycles
    // and crediting them lazily must not change a single reported number.
    for_each_case(8, |rng| {
        let len = rng.in_range(1, 40) as usize;
        let ops: Vec<(u8, u8, u8, u8, i64)> = (0..len)
            .map(|_| {
                (
                    rng.below(256) as u8,
                    rng.below(256) as u8,
                    rng.below(256) as u8,
                    rng.below(256) as u8,
                    rng.next_u64() as i64,
                )
            })
            .collect();
        let program = random_program(&ops);
        let kind = if rng.below(2) == 0 {
            DefenseKind::Unprotected
        } else {
            DefenseKind::MuonTrap
        };
        let cfg = SystemConfig::small_test();
        const BUDGET: u64 = 10_000_000;
        let run = |tick_every_cycle: bool| {
            let mut sys = System::new(&cfg, kind.build(&cfg));
            let process = sys.add_process();
            sys.add_thread(process, program.clone());
            while tick_every_cycle && !sys.all_finished() && sys.now().raw() < BUDGET {
                sys.tick();
            }
            sys.run(BUDGET)
        };
        let event_driven = run(false);
        let naive = run(true);
        assert_eq!(event_driven.cycles, naive.cycles, "cycle counts diverged");
        assert_eq!(event_driven.committed, naive.committed);
        assert_eq!(event_driven.completed, naive.completed);
        assert_eq!(event_driven.context_switches, naive.context_switches);
        assert_eq!(event_driven.stats, naive.stats, "statistics diverged");
    });
}

// ---------------------------------------------------------------------------
// MuonTrap end-to-end invariants under random access sequences
// ---------------------------------------------------------------------------

#[test]
fn speculative_accesses_never_reach_the_non_speculative_hierarchy() {
    use ooo_core::memmodel::{MemAccessCtx, MemoryModel};
    for_each_case(24, |rng| {
        let len = rng.in_range(1, 80) as usize;
        let addrs: Vec<u64> = (0..len).map(|_| rng.below(0x80_000)).collect();
        let cfg = SystemConfig::paper_default();
        let mut mt = muontrap::MuonTrap::new(&cfg);
        for (i, raw) in addrs.iter().enumerate() {
            let vaddr = VirtAddr::new(0x10_0000 + (raw & !7));
            let ctx = MemAccessCtx::simple(
                0,
                vaddr,
                VirtAddr::new(0x40_0000),
                Cycle::new(i as u64 * 3),
                false,
            );
            let _ = mt.load(&ctx);
            let (line, hierarchy) = (mt.platform().phys_line(0, vaddr), &mt.platform().hierarchy);
            assert!(
                !hierarchy.own_l1_contains(0, line) && !hierarchy.l2_contains(line),
                "speculative line {line:?} leaked into the non-speculative hierarchy"
            );
        }
        // After a domain switch nothing speculative survives anywhere.
        mt.on_domain_switch(
            0,
            ooo_core::DomainSwitch::ContextSwitch,
            Cycle::new(1_000_000),
        );
        assert_eq!(mt.data_filter_occupancy(0), 0);
    });
}
