//! The defense zoo's soundness matrix, in executable form: every litmus
//! attack (2–6) and the end-to-end Spectre attack must fail against every
//! *sound* defense — Fence, DelayLoads, SafeBet and MuonTrap — and must
//! still succeed against the leaky baselines (Unprotected and the
//! insecure-L0 strawman), otherwise the litmus is vacuous and "the defense
//! stopped it" means nothing.
//!
//! The matrix is then cross-validated against the static gadget census the
//! same way `tests/speclint_cross.rs` validates the unprotected baseline:
//! every statically flagged attack embodiment must correspond to a dynamic
//! attack that is neutralised under each sound defense and still leaks under
//! each leaky baseline. Finally, the Fence model is bounded against its
//! program-level twin: running a `-fenced` corpus program under Fence must
//! cost the same as running the original under Fence (the model *is* the
//! transformation, applied in hardware).

use attacks::litmus::run_litmus_suite;
use attacks::spectre::spectre_prime_probe_with_secret;
use bench::lint::corpus_census;
use muontrap_repro::prelude::*;
use speclint::AnalyzerConfig;

fn config() -> SystemConfig {
    SystemConfig::paper_default()
}

/// The defenses the zoo claims are sound: every attack must fail.
fn sound_defenses() -> [DefenseKind; 4] {
    [
        DefenseKind::Fence,
        DefenseKind::DelayLoads,
        DefenseKind::SafeBet,
        DefenseKind::MuonTrap,
    ]
}

/// The configurations the zoo uses as leaky ground truth: every attack must
/// succeed, proving the probes are not vacuous.
fn leaky_baselines() -> [DefenseKind; 2] {
    [DefenseKind::Unprotected, DefenseKind::InsecureL0]
}

/// The full dynamic outcome set for one defense: the five litmus attacks
/// plus the end-to-end Spectre attack, named like the litmus outcomes so the
/// census join below can treat them uniformly.
fn dynamic_outcomes(kind: DefenseKind, cfg: &SystemConfig) -> Vec<AttackOutcome> {
    let mut outcomes = run_litmus_suite(kind, cfg);
    let spectre = spectre_prime_probe_with_secret(kind, cfg, 9);
    outcomes.push(AttackOutcome::new(
        "attack 1: spectre prime+probe",
        kind.label(),
        spectre.leaked,
        String::new(),
    ));
    outcomes
}

#[test]
fn every_sound_defense_neutralises_the_full_litmus_suite() {
    let cfg = config();
    for kind in sound_defenses() {
        let outcomes = run_litmus_suite(kind, &cfg);
        assert_eq!(outcomes.len(), 5);
        for outcome in outcomes {
            assert!(
                !outcome.leaked,
                "{} must stop {}: {}",
                kind.label(),
                outcome.attack,
                outcome.detail
            );
        }
    }
}

#[test]
fn every_sound_defense_stops_the_end_to_end_spectre_attack() {
    let cfg = config();
    for kind in sound_defenses() {
        for secret in [5u64, 12] {
            let outcome = spectre_prime_probe_with_secret(kind, &cfg, secret);
            assert!(
                !outcome.leaked,
                "{} must stop Spectre (secret {secret}, recovered {}, latencies {:?})",
                kind.label(),
                outcome.recovered,
                outcome.probe_latencies
            );
        }
    }
}

#[test]
fn the_leaky_baselines_fall_to_every_attack() {
    // Both baselines leak on all six attacks — including attack 4 on the
    // unprotected hierarchy, where the "filter-cache" probe degenerates to an
    // ordinary shared-cache channel. Without this, the sound half of the
    // matrix would be unfalsifiable.
    let cfg = config();
    for kind in leaky_baselines() {
        let outcomes = dynamic_outcomes(kind, &cfg);
        assert_eq!(outcomes.len(), 6);
        for outcome in outcomes {
            assert!(
                outcome.leaked,
                "{} must be vulnerable to {} or the litmus is vacuous: {}",
                kind.label(),
                outcome.attack,
                outcome.detail
            );
        }
    }
}

#[test]
fn the_census_agrees_with_the_dynamic_matrix_on_every_defense() {
    // The speclint_cross.rs join, extended across the zoo: a statically
    // flagged attack embodiment corresponds to a dynamic attack that leaks
    // under each leaky baseline and is neutralised under each sound defense.
    let cfg = config();
    let census = corpus_census(Scale::Tiny, &AnalyzerConfig::default());
    let sound: Vec<Vec<AttackOutcome>> = sound_defenses()
        .iter()
        .map(|&k| dynamic_outcomes(k, &cfg))
        .collect();
    let leaky: Vec<Vec<AttackOutcome>> = leaky_baselines()
        .iter()
        .map(|&k| dynamic_outcomes(k, &cfg))
        .collect();
    let mut joined = 0;
    for entry in attacks::attack_corpus() {
        let report = census
            .report(entry.program.name())
            .unwrap_or_else(|| panic!("{} in census", entry.program.name()));
        assert_eq!(
            !report.is_clean(),
            entry.expect_gadget,
            "static verdict for {}",
            entry.program.name()
        );
        let Some(attack) = entry.litmus_attack else {
            continue;
        };
        joined += 1;
        for outcomes in &leaky {
            let outcome = outcomes
                .iter()
                .find(|o| o.attack == attack)
                .unwrap_or_else(|| panic!("dynamic outcome for `{attack}`"));
            assert!(
                outcome.leaked,
                "`{attack}` is flagged statically but does not leak under {}",
                outcome.defense
            );
        }
        for outcomes in &sound {
            let outcome = outcomes
                .iter()
                .find(|o| o.attack == attack)
                .unwrap_or_else(|| panic!("dynamic outcome for `{attack}`"));
            assert!(
                !outcome.leaked,
                "`{attack}` is flagged statically and still leaks under {}",
                outcome.defense
            );
        }
    }
    assert_eq!(joined, 6, "all six attacks join the census");
}

#[test]
fn fence_costs_the_same_as_the_program_level_fence_transformation() {
    // The Fence model claims to be the `-fenced` program transformation
    // applied in hardware, so for each corpus pair the original program under
    // Fence must run in (nearly) the same number of cycles as the fenced twin
    // under Fence: both serialise at exactly the same branches.
    let cfg = config();
    let corpus = attacks::attack_corpus();
    let mut pairs = 0;
    for entry in &corpus {
        let name = entry.program.name().to_string();
        let Some(base) = name.strip_suffix("-fenced") else {
            continue;
        };
        pairs += 1;
        let twin = corpus
            .iter()
            .find(|e| e.program.name() == base)
            .expect("gadget twin exists");
        let run = |program: &uarch_isa::prog::Program| {
            let mut system = System::new(&cfg, DefenseKind::Fence.build(&cfg));
            system.load_workload(std::slice::from_ref(program), false);
            system.run(1_000_000)
        };
        let original = run(&twin.program);
        let fenced = run(&entry.program);
        assert!(original.completed, "{base} must complete under Fence");
        assert!(fenced.completed, "{name} must complete under Fence");
        let max = original.cycles.max(fenced.cycles);
        let diff = original.cycles.abs_diff(fenced.cycles);
        assert!(
            diff * 20 <= max,
            "Fence({base}) = {} cycles vs Fence({name}) = {} cycles: the model must \
             match the program-level transformation within 5%",
            original.cycles,
            fenced.cycles
        );
    }
    assert_eq!(pairs, 5, "one fenced twin per litmus attack");
}

#[test]
fn the_shootout_set_covers_the_sound_defenses_and_a_leaky_strawman() {
    // The shoot-out figure's defense set is the zoo this suite proves things
    // about: all four sound defenses present, plus the insecure-L0 strawman
    // whose leaks the_leaky_baselines_fall_to_every_attack demonstrates.
    let set = DefenseKind::shootout_set();
    for kind in sound_defenses() {
        assert!(set.contains(&kind), "{} in shoot-out", kind.label());
    }
    assert!(set.contains(&DefenseKind::InsecureL0));
    assert!(!set.contains(&DefenseKind::Unprotected), "1.0 baseline");
}
