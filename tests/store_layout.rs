//! Golden on-disk layout tests for the filesystem store backend.
//!
//! `FsBackend` must stay bit-compatible with every store directory written
//! before it: the same entry paths and the same pretty-JSON entry bytes, so
//! existing store directories (including CI artifacts) keep working in both
//! directions, and the `.leases/` directory older versions left behind is
//! ignored. These tests pin every byte of that contract; if one fails, bump
//! [`simsys::store::STORE_FORMAT_VERSION`] instead of shipping a silent
//! layout change.

use muontrap_repro::prelude::*;
use simkit::fingerprint::Fingerprint;
use simsys::store::cell_fingerprint;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    std::env::temp_dir().join(format!(
        "muontrap-layout-test-{tag}-{}-{nanos}",
        std::process::id()
    ))
}

fn sample() -> (Workload, SystemConfig) {
    (
        spec_suite(Scale::Tiny).into_iter().next().unwrap(),
        SystemConfig::small_test(),
    )
}

#[test]
fn entries_live_at_two_hex_slash_thirty_hex_dot_json() {
    let root = temp_dir("paths");
    let store = ResultStore::open(&root).unwrap();
    let (w, cfg) = sample();
    let key = cell_fingerprint(&w, DefenseKind::MuonTrap, &cfg);
    let result = simulate(&w, DefenseKind::MuonTrap, &cfg);
    store.put(key, &result).unwrap();

    let hex = key.to_hex();
    assert_eq!(hex.len(), 32);
    let expected = root.join(&hex[..2]).join(format!("{}.json", &hex[2..]));
    assert!(
        expected.is_file(),
        "entry must land at <root>/<2 hex>/<30 hex>.json, not {:?}",
        std::fs::read_dir(&root).map(|dir| dir
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect::<Vec<_>>())
    );
    assert_eq!(store.entry_path(key), expected);
    // No other files: one entry, one two-level path, no litter.
    let mut files = Vec::new();
    for dir in std::fs::read_dir(&root).unwrap().filter_map(|e| e.ok()) {
        if dir.path().is_dir() {
            files.extend(
                std::fs::read_dir(dir.path())
                    .unwrap()
                    .filter_map(|e| e.ok())
                    .map(|e| e.path()),
            );
        }
    }
    assert_eq!(files, vec![expected]);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn entry_bytes_are_the_golden_pretty_json_envelope() {
    let root = temp_dir("entry-bytes");
    let store = ResultStore::open(&root).unwrap();
    let (w, cfg) = sample();
    let key = cell_fingerprint(&w, DefenseKind::SttSpectre, &cfg);
    let result = simulate(&w, DefenseKind::SttSpectre, &cfg);
    store.put(key, &result).unwrap();

    let golden = Json::obj([
        ("fingerprint", Json::Str(key.to_hex())),
        ("result", result.to_json()),
    ])
    .to_string_pretty();
    let on_disk = std::fs::read_to_string(store.entry_path(key)).unwrap();
    assert_eq!(
        on_disk, golden,
        "entry files must stay byte-identical to the pre-backend layout"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn hand_planted_legacy_entries_are_served_as_hits() {
    // A directory written by the *old* store code (reconstructed here byte
    // for byte, without going through ResultStore::put) must read back as
    // hits: that is what backward bit-compatibility means for reads.
    let root = temp_dir("legacy");
    let (w, cfg) = sample();
    let key = cell_fingerprint(&w, DefenseKind::MuonTrap, &cfg);
    let result = simulate(&w, DefenseKind::MuonTrap, &cfg);
    let hex = key.to_hex();
    let dir = root.join(&hex[..2]);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join(format!("{}.json", &hex[2..])),
        Json::obj([
            ("fingerprint", Json::Str(hex.clone())),
            ("result", result.to_json()),
        ])
        .to_string_pretty(),
    )
    .unwrap();

    let store = ResultStore::open(&root).unwrap();
    assert_eq!(store.len(), 1);
    assert_eq!(store.get(key), Some(result), "legacy entries must hit");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_pre_refactor_store_tree_round_trips_through_both_apis() {
    // Write through ResultStore, plant the lease files an older version's
    // multi-process runner left next to the entries, then read the tree
    // through a second, completely fresh handle (a different process in
    // real deployments): the entry hits and the leases are not entries.
    let root = temp_dir("roundtrip");
    let (w, cfg) = sample();
    let key = cell_fingerprint(&w, DefenseKind::MuonTrap, &cfg);
    let result = simulate(&w, DefenseKind::MuonTrap, &cfg);
    ResultStore::open(&root).unwrap().put(key, &result).unwrap();
    let leases = root.join(".leases");
    std::fs::create_dir_all(&leases).unwrap();
    let lease = leases.join(format!("{}.lease", key.to_hex()));
    std::fs::write(
        &lease,
        r#"{"owner":"w","run_id":"run-9","acquired_unix_ms":1,"ttl_ms":0,"done":true}"#,
    )
    .unwrap();

    let reader = ResultStore::open(&root).unwrap();
    assert_eq!(reader.get(key), Some(result));
    assert_eq!(reader.len(), 1, "lease files are not entries");
    assert_eq!(reader.gc(0).unwrap().entries_evicted, 1);
    assert!(
        lease.is_file(),
        "gc leaves the legacy lease directory alone"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn fingerprints_and_hex_addresses_are_stable() {
    // The address derivation itself: equal inputs → equal 32-char hex; a
    // config change moves the address. (The *values* are version-salted, so
    // we pin properties, not constants.)
    let (w, cfg) = sample();
    let a = cell_fingerprint(&w, DefenseKind::MuonTrap, &cfg);
    let b = cell_fingerprint(&w, DefenseKind::MuonTrap, &cfg);
    assert_eq!(a, b);
    assert_eq!(a.to_hex().len(), 32);
    assert_eq!(Fingerprint::parse_hex(&a.to_hex()), Some(a));
    let other = cell_fingerprint(&w, DefenseKind::SttSpectre, &cfg);
    assert_ne!(a, other, "the defense is part of the address");
}
