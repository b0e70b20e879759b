//! Cross-crate security integration tests: the executable form of the paper's
//! security argument. Every attack must succeed against the unprotected
//! baseline (otherwise the litmus is vacuous) and must fail against MuonTrap.

use std::path::PathBuf;

use attacks::litmus;
use attacks::spectre::spectre_prime_probe_with_secret;
use muontrap_repro::prelude::*;
use simkit::json;

fn config() -> SystemConfig {
    SystemConfig::paper_default()
}

#[test]
fn spectre_prime_probe_succeeds_against_the_unprotected_baseline() {
    for secret in [5u64, 12] {
        let outcome = spectre_prime_probe_with_secret(DefenseKind::Unprotected, &config(), secret);
        assert!(
            outcome.leaked && outcome.recovered == secret,
            "the attack must work on an unprotected machine (secret {secret}, recovered {}, \
             latencies {:?})",
            outcome.recovered,
            outcome.probe_latencies
        );
    }
}

#[test]
fn spectre_prime_probe_fails_against_muontrap() {
    for secret in [5u64, 12] {
        let outcome = spectre_prime_probe_with_secret(DefenseKind::MuonTrap, &config(), secret);
        assert!(
            !outcome.leaked,
            "MuonTrap must block the attack (secret {secret}, recovered {}, latencies {:?})",
            outcome.recovered, outcome.probe_latencies
        );
    }
}

#[test]
fn spectre_prime_probe_fails_against_muontrap_with_clear_on_misspeculate() {
    let outcome =
        spectre_prime_probe_with_secret(DefenseKind::MuonTrapClearOnMisspeculate, &config(), 7);
    assert!(!outcome.leaked);
}

#[test]
fn spectre_prime_probe_fails_against_invisispec_and_stt() {
    // The comparison defenses also stop the basic cache-channel Spectre attack
    // (that is their purpose); they just cost more performance.
    for kind in [
        DefenseKind::InvisiSpecSpectre,
        DefenseKind::InvisiSpecFuture,
        DefenseKind::SttSpectre,
    ] {
        let outcome = spectre_prime_probe_with_secret(kind, &config(), 9);
        assert!(
            !outcome.leaked,
            "{} should block the basic Spectre attack",
            kind.label()
        );
    }
}

#[test]
fn an_insecure_l0_is_not_a_defense() {
    let outcome = spectre_prime_probe_with_secret(DefenseKind::InsecureL0, &config(), 6);
    assert!(
        outcome.leaked,
        "a filter cache without MuonTrap's protections must still leak"
    );
}

#[test]
fn litmus_attacks_2_to_6_leak_on_the_baseline_and_not_under_muontrap() {
    let cfg = config();
    let baseline = litmus::run_litmus_suite(DefenseKind::Unprotected, &cfg);
    let protected = litmus::run_litmus_suite(DefenseKind::MuonTrap, &cfg);
    assert_eq!(baseline.len(), 5);
    assert_eq!(protected.len(), 5);

    // Attack 4 specifically targets filter caches, so the unprotected system
    // (which has none) is trivially immune to it; every other attack must
    // succeed against the baseline.
    for outcome in &baseline {
        if outcome.attack.starts_with("attack 4") {
            continue;
        }
        assert!(
            outcome.leaked,
            "baseline should be vulnerable to {}",
            outcome.attack
        );
    }
    for outcome in &protected {
        assert!(!outcome.leaked, "MuonTrap must stop {}", outcome.attack);
    }
}

#[test]
fn disabling_individual_protections_reopens_the_matching_channel() {
    let cfg = config();
    // Without the prefetcher protection, the prefetcher channel re-opens.
    let mut no_prefetch_protection = ProtectionConfig::muontrap_default();
    no_prefetch_protection.prefetch_at_commit = false;
    assert!(litmus::prefetch_attack_leaks(
        DefenseKind::MuonTrapCustom(no_prefetch_protection),
        &cfg
    ));
    // Without the instruction filter cache, the I-cache channel re-opens.
    let mut no_ifcache = ProtectionConfig::muontrap_default();
    no_ifcache.instruction_filter_cache = false;
    assert!(litmus::icache_attack_leaks(
        DefenseKind::MuonTrapCustom(no_ifcache),
        &cfg
    ));
    // The full configuration closes both.
    assert!(!litmus::prefetch_attack_leaks(DefenseKind::MuonTrap, &cfg));
    assert!(!litmus::icache_attack_leaks(DefenseKind::MuonTrap, &cfg));
}

/// The whole security matrix — every named kind against every attack,
/// including each outcome's `detail` — pinned against its recording.
/// Regenerate (only after an intentional change to a defense or an attack)
/// with `MUONTRAP_REGEN_GOLDENS=1 cargo test --test security`.
#[test]
fn security_matrix_matches_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/security_matrix.json");
    let produced = bench::security_json(&config());
    if std::env::var_os("MUONTRAP_REGEN_GOLDENS").is_some() {
        std::fs::write(&path, produced.to_string_pretty()).expect("write golden");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with MUONTRAP_REGEN_GOLDENS=1",
            path.display()
        )
    });
    let golden = json::parse(&text).expect("golden parses");
    let (produced, golden) = (produced.as_arr().unwrap(), golden.as_arr().unwrap());
    assert_eq!(produced.len(), 12 * 6, "12 named kinds x 6 attacks");
    assert_eq!(produced.len(), golden.len(), "matrix size changed");
    for (now, then) in produced.iter().zip(golden) {
        assert_eq!(now, then, "security outcome diverges from the golden");
    }
}
