//! Seeded property tests for the defense catalogue: the name ⇄ kind mapping
//! must round-trip exactly for every variant, and every defense must behave
//! exactly like the unprotected baseline on non-speculative accesses.
//!
//! The build runs offline (no `proptest`), so these drive the randomised
//! properties with the deterministic `SimRng`; a failing case reproduces
//! exactly from its printed seed.

use defenses::DefenseKind;
use ooo_core::memmodel::MemAccessCtx;
use simkit::addr::VirtAddr;
use simkit::config::SystemConfig;
use simkit::cycles::Cycle;
use simkit::rng::SimRng;

fn for_each_case(cases: u64, mut body: impl FnMut(u64, &mut SimRng)) {
    for seed in 0..cases {
        let mut rng = SimRng::seed_from(0x0d_3f3 + seed);
        body(seed, &mut rng);
    }
}

#[test]
fn every_named_kind_round_trips_through_display_and_fromstr() {
    for kind in DefenseKind::NAMED {
        let label = kind.to_string();
        assert_eq!(label, kind.label());
        assert_eq!(label.parse::<DefenseKind>(), Ok(kind), "{label}");
    }
}

#[test]
fn every_registry_entry_builds_a_model_answering_to_its_label() {
    let config = SystemConfig::small_test();
    for kind in DefenseKind::NAMED {
        let label = kind.label();
        let model = kind.build(&config);
        // MuonTrap flavours share one model; everything else is eponymous.
        assert!(
            label.starts_with(model.name())
                || label.starts_with("muontrap")
                || label.starts_with("insecure-l0"),
            "label `{label}` vs model `{}`",
            model.name()
        );
    }
}

#[test]
fn corrupted_labels_never_parse() {
    // A mutation of any valid label — flipped case, appended suffix, dropped
    // prefix — must be rejected with an error naming the bad input, never
    // silently mapped to a different kind.
    for_each_case(64, |seed, rng| {
        let kind = DefenseKind::NAMED[rng.below(DefenseKind::NAMED.len() as u64) as usize];
        let label = kind.label();
        let corrupted = match rng.below(4) {
            0 => format!("{label}-{}", rng.below(100)),
            1 => format!("x{label}"),
            2 => label.to_uppercase(),
            _ => {
                let mut bytes = label.as_bytes().to_vec();
                let i = rng.below(bytes.len() as u64) as usize;
                bytes[i] = if bytes[i] == b'z' { b'q' } else { bytes[i] + 1 };
                String::from_utf8(bytes).unwrap()
            }
        };
        if DefenseKind::NAMED.iter().any(|k| k.label() == corrupted) {
            return; // the mutation landed on another valid label — fine
        }
        let err = corrupted
            .parse::<DefenseKind>()
            .expect_err(&format!("case seed {seed}: `{corrupted}` must not parse"));
        assert!(
            err.to_string().contains(&corrupted),
            "case seed {seed}: error must name the input: {err}"
        );
    });
}

/// One access of the non-speculative stream [`nonspeculative_ops`] drives.
#[derive(Debug, Clone, Copy)]
enum Op {
    Load,
    Atomic,
    CommitStore,
    Fetch,
}

/// A seeded stream of non-speculative accesses: loads and atomics at the head
/// of the ROB, committed stores and fetches under no branch, over a few pages
/// per core so it exercises hits, misses, TLB refills and evictions.
fn nonspeculative_ops(seed: u64, cores: usize, count: usize) -> Vec<(Op, MemAccessCtx)> {
    let mut rng = SimRng::seed_from(seed);
    let mut when = 0;
    (0..count)
        .map(|_| {
            when += rng.below(40);
            let op = [Op::Load, Op::Atomic, Op::CommitStore, Op::Fetch][rng.below(4) as usize];
            let base = if matches!(op, Op::Fetch) {
                0x40_0000
            } else {
                0x10_0000
            };
            let vaddr = VirtAddr::new(base + rng.below(16 * 4096) / 8 * 8);
            let is_store = matches!(op, Op::Atomic | Op::CommitStore);
            let mut ctx = MemAccessCtx::simple(
                rng.below(cores as u64) as usize,
                vaddr,
                VirtAddr::new(0x40_0000 + rng.below(64) * 4),
                Cycle::new(when),
                is_store,
            );
            ctx.speculative = false;
            (op, ctx)
        })
        .collect()
}

/// Every latency the stream observes, followed by the model's `hierarchy.*`
/// counters.
fn drive(
    kind: DefenseKind,
    config: &SystemConfig,
    ops: &[(Op, MemAccessCtx)],
) -> (Vec<u64>, Vec<(String, u64)>) {
    let mut model = kind.build(config);
    let latencies = ops
        .iter()
        .map(|(op, ctx)| match op {
            Op::Load | Op::Atomic => model
                .load(ctx)
                .latency()
                .expect("non-speculative loads complete"),
            Op::CommitStore => model.commit_access(ctx),
            Op::Fetch => model
                .fetch_instruction(ctx)
                .latency()
                .expect("fetches complete"),
        })
        .collect();
    let hierarchy = model
        .stats()
        .iter_counters()
        .filter(|(name, _)| name.starts_with("hierarchy."))
        .map(|(name, value)| (name.to_string(), value))
        .collect();
    (latencies, hierarchy)
}

/// A defense's policy engages only on speculative accesses: on a purely
/// non-speculative stream every latency and every hierarchy counter matches
/// the unprotected baseline's.
#[test]
fn nonspeculative_accesses_match_unprotected() {
    let config = SystemConfig::small_test();
    for seed in 0..3 {
        let ops = nonspeculative_ops(0x5afe + seed, config.cores, 3_000);
        let baseline = drive(DefenseKind::Unprotected, &config, &ops);
        assert!(
            baseline.1.iter().any(|(_, v)| *v > 0),
            "the stream reaches the hierarchy"
        );
        for kind in [
            DefenseKind::InvisiSpecSpectre,
            DefenseKind::InvisiSpecFuture,
            DefenseKind::SttSpectre,
            DefenseKind::SttFuture,
            DefenseKind::Fence,
            DefenseKind::DelayLoads,
            DefenseKind::SafeBet,
        ] {
            let (latencies, hierarchy) = drive(kind, &config, &ops);
            if let Some(i) = (0..ops.len()).find(|&i| latencies[i] != baseline.0[i]) {
                panic!(
                    "seed {seed}: {kind} op {i} {:?} took {} cycles, unprotected {}",
                    ops[i].0, latencies[i], baseline.0[i]
                );
            }
            assert_eq!(
                hierarchy, baseline.1,
                "seed {seed}: {kind} hierarchy counters"
            );
        }
    }
}
