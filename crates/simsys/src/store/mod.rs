//! Content-addressed store of simulation results, over pluggable backends
//! (on-disk by default).
//!
//! The paper's evaluation is a large grid of (workload × defense ×
//! filter-cache geometry) simulations, and regenerating a figure re-runs the
//! whole grid even when nothing changed. [`ResultStore`] fixes that: every
//! raw simulation result ([`ExperimentResult`]) is persisted under a stable
//! [`Fingerprint`] of its *inputs* — the workload's µISA programs, the
//! machine and defense configuration, and a simulator version salt — so a
//! re-run of any grid whose inputs are unchanged is pure cache hits. The
//! [`ExperimentSession`](crate::session::ExperimentSession) consults the
//! store before dispatching each grid cell (see
//! [`with_store`](crate::session::ExperimentSession::with_store)) and writes
//! results back as they complete.
//!
//! # Keying
//!
//! [`cell_fingerprint`] builds a JSON descriptor of the simulation's inputs
//! and hashes it with [`simkit::fingerprint::of_json`]:
//!
//! * the workload's name, thread count, memory sharing, cycle budget, and a
//!   content hash of its µISA programs (so a regenerated kernel with the same
//!   name but different code misses rather than aliasing),
//! * the defense kind — including the full
//!   [`ProtectionConfig`](simkit::config::ProtectionConfig) payload for
//!   `MuonTrapCustom` entries, which share one label,
//! * the complete [`SystemConfig`] (every knob that can change a result),
//! * [`STORE_FORMAT_VERSION`] plus the simulator crate version, so upgrading
//!   the simulator invalidates old entries instead of replaying them.
//!
//! Keys are conservative: two configurations that happen to simulate
//! identically (e.g. differing only in a knob the chosen defense overrides)
//! get distinct fingerprints and miss across each other. That costs a
//! re-simulation, never a wrong result.
//!
//! # On-disk layout and concurrency
//!
//! Entries live at `<root>/<first two hex digits>/<remaining 30>.json`, each
//! a small JSON document carrying its own fingerprint (verified on read).
//! Writes go to a unique temp file in the destination directory followed by
//! an atomic rename, so concurrent writers — the session's thread pool, or
//! several figure binaries sharing one store — can never expose a partial
//! entry. Unreadable, unparseable or mislabelled entries are treated as
//! misses and re-simulated; a corrupt store degrades to a slow one, never a
//! wrong one.
//!
//! # Leases
//!
//! The sharded runner ([`crate::runner`]) coordinates several worker
//! processes over one store directory through *lease files* under
//! `<root>/.leases/<fingerprint>.lease`. A lease is acquired with an atomic
//! create-new ([`try_lease`](ResultStore::try_lease)); an expired lease (its
//! holder crashed) or a completed-but-storeless one is *stolen* by writing a
//! replacement to a temp file and renaming it into place. A completed unit is
//! marked by rewriting the lease with `done: true`
//! ([`mark_done`](ResultStore::mark_done)), which doubles as the
//! "computed during run `run_id`" provenance marker the runner uses to tell
//! freshly simulated entries from pre-existing ones. Lease files use the
//! `.lease` extension so [`len`](ResultStore::len) and
//! [`gc`](ResultStore::gc) never mistake them for result entries.
//!
//! # Read-only mode and eviction
//!
//! [`ResultStore::read_only`] opens a store that serves hits but silently
//! drops writes — CI jobs can reuse a downloaded store artifact without ever
//! mutating it (misses simply re-simulate). [`ResultStore::gc`] walks the
//! entries and evicts the least-recently-modified ones until the store fits a
//! byte cap, returning a [`GcSummary`] (the `store_gc` binary prints it as
//! JSON).
//!
//! # Backends
//!
//! Everything above is expressed over the [`StoreBackend`] trait rather than
//! the filesystem directly: [`ResultStore::open`] plugs in the bit-compatible
//! [`FsBackend`], [`ResultStore::in_memory`] the deterministic [`MemBackend`],
//! and [`ResultStore::with_backend`] anything else — including a
//! [`FaultBackend`] wrapper that injects seeded torn writes, create-new
//! races, stale reads, latency and transient errors, which is how the chaos
//! suite drives every recovery path of the lease protocol on purpose instead
//! of by luck. See [`backend`] for the primitive ↔ protocol mapping.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use simkit::config::SystemConfig;
use simkit::fingerprint::{self, Fingerprint};
use simkit::json::{self, FromJson, Json, JsonError, ToJson};

use defenses::DefenseKind;
use workloads::Workload;

use crate::session::ExperimentResult;

pub mod backend;

pub use backend::{
    Fault, FaultBackend, FaultConfig, FaultRecord, FsBackend, MemBackend, ObjectMeta, StoreBackend,
};

/// Version of the store's key derivation and entry layout. Bump on any
/// change to [`cell_fingerprint`], the entry schema, or simulation semantics
/// not captured by the crate version; old entries then miss instead of
/// serving stale results.
pub const STORE_FORMAT_VERSION: u64 = 1;

/// The version salt mixed into every fingerprint.
fn version_salt() -> Json {
    Json::obj([
        ("store_format", Json::UInt(STORE_FORMAT_VERSION)),
        (
            "simulator",
            Json::Str(env!("CARGO_PKG_VERSION").to_string()),
        ),
    ])
}

/// The stable fingerprint of one raw simulation: `workload` run under `kind`
/// on the machine described by `config`.
///
/// Equal inputs always produce equal fingerprints within one simulator
/// version; see the module docs for exactly what is keyed.
pub fn cell_fingerprint(
    workload: &Workload,
    kind: DefenseKind,
    config: &SystemConfig,
) -> Fingerprint {
    cell_fingerprint_with_programs(workload, programs_digest(workload), kind, config)
}

/// The digest of `workload`'s thread programs (code and data segments) that
/// [`cell_fingerprint`] keys on. Hashing the programs dominates the cost of
/// a fingerprint, so a caller keying many cells of one workload computes it
/// once and passes it to [`cell_fingerprint_with_programs`].
pub(crate) fn programs_digest(workload: &Workload) -> Fingerprint {
    fingerprint::of_hash(&workload.thread_programs)
}

/// [`cell_fingerprint`] with the workload's [`programs_digest`] supplied.
pub(crate) fn cell_fingerprint_with_programs(
    workload: &Workload,
    programs: Fingerprint,
    kind: DefenseKind,
    config: &SystemConfig,
) -> Fingerprint {
    let defense = match kind {
        // Custom kinds share the "muontrap-custom" label; the protection
        // payload is what distinguishes them.
        DefenseKind::MuonTrapCustom(protection) => Json::obj([
            ("label", Json::Str(kind.label().to_string())),
            ("protection", protection.to_json()),
        ]),
        _ => Json::obj([("label", Json::Str(kind.label().to_string()))]),
    };
    let descriptor = Json::obj([
        ("version", version_salt()),
        (
            "workload",
            Json::obj([
                ("name", Json::Str(workload.name.clone())),
                ("threads", Json::UInt(workload.num_threads() as u64)),
                ("shared_memory", Json::Bool(workload.shared_memory)),
                ("cycle_budget", Json::UInt(workload.cycle_budget)),
                ("programs", Json::Str(programs.to_hex())),
            ]),
        ),
        ("defense", defense),
        ("config", config.to_json()),
    ]);
    fingerprint::of_json(&descriptor)
}

/// A content-addressed result store over one [`StoreBackend`].
///
/// Cloning is cheap (a shared backend handle); clones share the same stored
/// state, as do filesystem-backed stores opened on the same path by
/// different processes.
#[derive(Debug, Clone)]
pub struct ResultStore {
    backend: Arc<dyn StoreBackend>,
    root: PathBuf,
    read_only: bool,
    clock: Option<Arc<AtomicU64>>,
}

impl ResultStore {
    /// Opens (creating if needed) a filesystem-backed store rooted at
    /// `root`, via [`FsBackend`].
    ///
    /// # Errors
    /// Returns the I/O error if the root directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<ResultStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(ResultStore {
            backend: Arc::new(FsBackend::new(root.clone())),
            root,
            read_only: false,
            clock: None,
        })
    }

    /// Opens a store in read-only mode: hits are served normally, but
    /// [`put`](Self::put) becomes a silent no-op, so misses re-simulate
    /// without ever mutating the directory. Intended for CI reusing a store
    /// artifact it must not dirty. The directory does not have to exist — a
    /// missing store is simply always cold. Leases
    /// ([`try_lease`](Self::try_lease)) and [`gc`](Self::gc) are refused,
    /// so a read-only store cannot back a sharded run — with one deliberate
    /// exception: [`release_lease`](Self::release_lease) still works, so a
    /// handle demoted to read-only mid-flight can always un-pin a claim it
    /// took earlier instead of leaving it to expire by TTL.
    pub fn read_only(root: impl Into<PathBuf>) -> ResultStore {
        let root = root.into();
        ResultStore {
            backend: Arc::new(FsBackend::new(root.clone())),
            root,
            read_only: true,
            clock: None,
        }
    }

    /// A store over an arbitrary backend — [`MemBackend`] for deterministic
    /// tests, [`FaultBackend`] for chaos runs, or anything else implementing
    /// the trait. [`root`](Self::root), [`entry_path`](Self::entry_path) and
    /// [`lease_path`](Self::lease_path) are only meaningful for
    /// filesystem-backed stores and degrade to relative paths here.
    pub fn with_backend(backend: Arc<dyn StoreBackend>) -> ResultStore {
        ResultStore {
            backend,
            root: PathBuf::new(),
            read_only: false,
            clock: None,
        }
    }

    /// A store over a fresh private [`MemBackend`]. Clones of the returned
    /// store (but no other store) share its contents.
    pub fn in_memory() -> ResultStore {
        Self::with_backend(Arc::new(MemBackend::new()))
    }

    /// Replaces the wall clock used for lease timestamps and TTL expiry with
    /// a shared counter holding milliseconds-since-epoch. Tests advance it
    /// explicitly, so lease expiry becomes a deterministic event instead of
    /// a sleep.
    pub fn with_clock(mut self, clock: Arc<AtomicU64>) -> ResultStore {
        self.clock = Some(clock);
        self
    }

    /// The backend this store drives its protocol over.
    pub fn backend(&self) -> &Arc<dyn StoreBackend> {
        &self.backend
    }

    /// Whether this handle was opened with [`read_only`](Self::read_only).
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// The store's root directory (empty for non-filesystem backends).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Milliseconds since the Unix epoch, from the test clock when one was
    /// injected ([`with_clock`](Self::with_clock)).
    fn now_ms(&self) -> u64 {
        match &self.clock {
            Some(clock) => clock.load(Ordering::Relaxed),
            None => unix_ms(),
        }
    }

    /// The backend object name of an entry: `<2 hex>/<30 hex>.json`.
    fn entry_name(key: Fingerprint) -> String {
        let hex = key.to_hex();
        format!("{}/{}.json", &hex[..2], &hex[2..])
    }

    /// Whether a backend object name denotes a result entry (as opposed to a
    /// lease or foreign litter).
    fn is_entry(name: &str) -> bool {
        !name.starts_with(".leases/") && name.ends_with(".json")
    }

    /// The backend object name of a lease: `.leases/<32 hex>.lease`.
    fn lease_name(key: Fingerprint) -> String {
        format!(".leases/{}.lease", key.to_hex())
    }

    /// The path an entry with this fingerprint lives at (whether or not it
    /// exists yet). Exposed so tests can corrupt entries deliberately; only
    /// meaningful for filesystem-backed stores.
    pub fn entry_path(&self, key: Fingerprint) -> PathBuf {
        let hex = key.to_hex();
        self.root
            .join(&hex[..2])
            .join(format!("{}.json", &hex[2..]))
    }

    /// Looks up a stored result.
    ///
    /// Any defect — missing file, unreadable bytes, malformed JSON, a schema
    /// mismatch, or an entry whose recorded fingerprint disagrees with its
    /// address — reads as a miss (`None`), so callers fall back to
    /// re-simulation rather than propagating corruption.
    pub fn get(&self, key: Fingerprint) -> Option<ExperimentResult> {
        let metrics = obs::global();
        let bytes = match self.backend.read(&Self::entry_name(key)) {
            Ok(Some(bytes)) => bytes,
            // A failed read is as much a miss as an absent entry: the
            // caller re-simulates rather than propagating the defect.
            Ok(None) | Err(_) => {
                metrics.inc("store.misses", &[], 1);
                return None;
            }
        };
        metrics.inc("store.read_bytes", &[], bytes.len() as u64);
        let decode = || -> Option<ExperimentResult> {
            let text = std::str::from_utf8(&bytes).ok()?;
            let entry = json::parse(text).ok()?;
            let recorded = entry.get("fingerprint")?.as_str()?;
            if Fingerprint::parse_hex(recorded) != Some(key) {
                return None;
            }
            ExperimentResult::from_json(entry.get("result")?).ok()
        };
        match decode() {
            Some(result) => {
                metrics.inc("store.hits", &[], 1);
                Some(result)
            }
            None => {
                metrics.inc("store.misses", &[], 1);
                None
            }
        }
    }

    /// Whether an entry for `key` exists and decodes cleanly.
    pub fn contains(&self, key: Fingerprint) -> bool {
        self.get(key).is_some()
    }

    /// Persists `result` under `key`, atomically
    /// ([`StoreBackend::put_atomic`] — on disk, a unique temp file renamed
    /// into place), so a concurrent [`get`](Self::get) sees either nothing
    /// or the complete entry — never a partial write. Last writer wins; all
    /// writers for one key hold identical content (simulations are
    /// deterministic), so the race is benign.
    ///
    /// On a [`read_only`](Self::read_only) store this is a silent no-op
    /// returning `Ok(())`: the caller's result simply isn't persisted.
    ///
    /// # Errors
    /// Returns the I/O error if the entry cannot be written.
    pub fn put(&self, key: Fingerprint, result: &ExperimentResult) -> io::Result<()> {
        if self.read_only {
            return Ok(());
        }
        let entry = Json::obj([
            ("fingerprint", Json::Str(key.to_hex())),
            ("result", result.to_json()),
        ]);
        let text = entry.to_string_pretty();
        self.backend
            .put_atomic(&Self::entry_name(key), text.as_bytes())?;
        let metrics = obs::global();
        metrics.inc("store.writes", &[], 1);
        metrics.inc("store.write_bytes", &[], text.len() as u64);
        Ok(())
    }

    /// Number of entries in the store. Lists the backend; intended for tests
    /// and reporting, not hot paths.
    pub fn len(&self) -> usize {
        self.backend
            .list("")
            .map(|objects| {
                objects
                    .iter()
                    .filter(|object| Self::is_entry(&object.name))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // --- Leases -----------------------------------------------------------

    /// The directory lease files live in (`<root>/.leases`).
    pub fn lease_dir(&self) -> PathBuf {
        self.root.join(".leases")
    }

    /// The lease file path for `key` (whether or not it exists).
    pub fn lease_path(&self, key: Fingerprint) -> PathBuf {
        self.lease_dir().join(format!("{}.lease", key.to_hex()))
    }

    /// Attempts to acquire the lease on `key` for `owner` in run `run_id`.
    ///
    /// The fast path is an atomic create-new, so exactly one contender — a
    /// thread or a separate process — wins a fresh lease. When the lease file
    /// already exists, it is *stolen* (replaced via temp file + rename) if
    /// its holder looks dead: the lease has outlived its `ttl_ms` without
    /// being [`mark_done`](Self::mark_done)d, it is unreadable/corrupt, or it
    /// claims to be done while the store holds no entry (a crash between
    /// marking and persisting). Otherwise [`LeaseState::Busy`] is returned
    /// with the holder's metadata so the caller can poll.
    ///
    /// Stealing is best-effort: two stealers racing on the same expired lease
    /// can in principle both think they won for a moment, which at worst
    /// duplicates one deterministic simulation — never corrupts a result.
    ///
    /// # Errors
    /// Returns an error on a [`read_only`](Self::read_only) store, or if the
    /// lease directory/file cannot be written.
    pub fn try_lease(
        &self,
        key: Fingerprint,
        owner: &str,
        run_id: &str,
        ttl_ms: u64,
    ) -> io::Result<LeaseState> {
        if self.read_only {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "cannot lease work on a read-only store",
            ));
        }
        let name = Self::lease_name(key);
        let lease = LeaseInfo {
            owner: owner.to_string(),
            run_id: run_id.to_string(),
            acquired_unix_ms: self.now_ms(),
            ttl_ms,
            done: false,
        };
        let bytes = lease.to_json().to_string_compact();
        if self.backend.create_new(&name, bytes.as_bytes())? {
            return Ok(LeaseState::Acquired);
        }
        // Somebody holds (or held) it. Steal only from the dead.
        let holder = self.read_lease(key);
        let stealable = match &holder {
            None => true, // unreadable or vanished: treat as abandoned
            Some(info) if info.done => !self.contains(key),
            Some(info) => self.now_ms().saturating_sub(info.acquired_unix_ms) > info.ttl_ms,
        };
        if !stealable {
            return Ok(LeaseState::Busy(holder.expect("busy lease is readable")));
        }
        self.backend.put_atomic(&name, bytes.as_bytes())?;
        // Confirm the replacement race went our way.
        match self.read_lease(key) {
            Some(info) if info.owner == lease.owner && !info.done => {
                obs::global().inc("store.lease_steals", &[], 1);
                Ok(LeaseState::Stolen { previous: holder })
            }
            Some(info) => Ok(LeaseState::Busy(info)),
            None => Ok(LeaseState::Busy(LeaseInfo {
                owner: String::new(),
                run_id: String::new(),
                acquired_unix_ms: self.now_ms(),
                ttl_ms,
                done: false,
            })),
        }
    }

    /// Reads the lease on `key`, if present and parseable.
    pub fn read_lease(&self, key: Fingerprint) -> Option<LeaseInfo> {
        let bytes = self.backend.read(&Self::lease_name(key)).ok().flatten()?;
        let text = std::str::from_utf8(&bytes).ok()?;
        LeaseInfo::from_json(&json::parse(text).ok()?).ok()
    }

    /// Rewrites the lease on `key` as completed by `owner` during `run_id`.
    ///
    /// Done leases never expire; they are the runner's "this entry was
    /// simulated during run `run_id`" provenance marker (a later run with a
    /// different id treats the same entry as pre-existing, i.e. cached).
    pub fn mark_done(&self, key: Fingerprint, owner: &str, run_id: &str) -> io::Result<()> {
        if self.read_only {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "cannot mark leases on a read-only store",
            ));
        }
        let lease = LeaseInfo {
            owner: owner.to_string(),
            run_id: run_id.to_string(),
            acquired_unix_ms: self.now_ms(),
            ttl_ms: 0,
            done: true,
        };
        self.backend.put_atomic(
            &Self::lease_name(key),
            lease.to_json().to_string_compact().as_bytes(),
        )
    }

    /// Re-stamps the lease on `key` with a fresh acquisition time, proving
    /// `owner` is still alive so the TTL clock restarts. Returns whether the
    /// heartbeat landed: `false` means the caller no longer holds the lease
    /// (it was stolen, completed, or removed) and nothing was written — a
    /// heartbeat never revives a lost lease or touches another owner's.
    ///
    /// This is what lets the default TTL be much shorter than the longest
    /// simulation: the executing shard re-stamps every few seconds, so a
    /// long-running `Scale::Large` cell is never falsely stolen, while a
    /// crashed shard's lease still expires one TTL after its last beat.
    ///
    /// # Errors
    /// Returns an error on a [`read_only`](Self::read_only) store or if the
    /// replacement lease cannot be written.
    pub fn heartbeat_lease(
        &self,
        key: Fingerprint,
        owner: &str,
        run_id: &str,
        ttl_ms: u64,
    ) -> io::Result<bool> {
        if self.read_only {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "cannot heartbeat leases on a read-only store",
            ));
        }
        match self.read_lease(key) {
            Some(info) if info.owner == owner && info.run_id == run_id && !info.done => {}
            _ => return Ok(false),
        }
        let lease = LeaseInfo {
            owner: owner.to_string(),
            run_id: run_id.to_string(),
            acquired_unix_ms: self.now_ms(),
            ttl_ms,
            done: false,
        };
        self.backend.put_atomic(
            &Self::lease_name(key),
            lease.to_json().to_string_compact().as_bytes(),
        )?;
        obs::global().inc("store.lease_heartbeats", &[], 1);
        Ok(true)
    }

    /// Removes the lease on `key`, if any. Missing leases are not an error.
    ///
    /// Deliberately works on [`read_only`](Self::read_only) handles too —
    /// the one mutation they are allowed. A release only un-pins a *claim*
    /// (it can never corrupt result data), and refusing it would leave a
    /// claim taken before the handle was demoted pinned until its TTL
    /// expires, blocking every other shard on that unit for no reason.
    pub fn release_lease(&self, key: Fingerprint) {
        let _ = self.backend.remove(&Self::lease_name(key));
    }

    /// Whether the entry for `key` was simulated (and marked done) during
    /// run `run_id`, as opposed to pre-existing in the store. This is the
    /// provenance the sharded runner records in
    /// [`CellResult::cached`](crate::session::CellResult::cached).
    pub fn completed_during(&self, key: Fingerprint, run_id: &str) -> bool {
        self.read_lease(key)
            .is_some_and(|info| info.done && info.run_id == run_id)
    }

    // --- Eviction ---------------------------------------------------------

    /// Evicts least-recently-modified entries until the store's result
    /// entries fit in `max_bytes`, and sweeps stray temp files left by
    /// crashed writers ([`StoreBackend::sweep_temp`]). Lease files are
    /// untouched, and only temp files older than [`GC_TEMP_GRACE`] are
    /// swept — a younger one may belong to a live writer mid-`put`, and
    /// deleting it between its write and its rename would fail that writer
    /// rather than just waste a result.
    ///
    /// # Errors
    /// Returns an error on a [`read_only`](Self::read_only) store or when
    /// the backend cannot be listed; I/O failures on individual entries are
    /// skipped, not fatal (a vanished entry was evicted by someone else —
    /// fine).
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcSummary> {
        if self.read_only {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "cannot gc a read-only store",
            ));
        }
        // The litter sweep is advisory: a failure to clean droppings must
        // not block eviction.
        let _ = self.backend.sweep_temp(GC_TEMP_GRACE);
        let mut entries: Vec<ObjectMeta> = self
            .backend
            .list("")?
            .into_iter()
            .filter(|object| Self::is_entry(&object.name))
            .collect();
        let bytes_before: u64 = entries.iter().map(|object| object.len).sum();
        let entries_before = entries.len();
        // Oldest-modified first: those evict first.
        entries.sort_by(|a, b| {
            a.modified_unix_ms
                .cmp(&b.modified_unix_ms)
                .then_with(|| a.name.cmp(&b.name))
        });
        let mut bytes_after = bytes_before;
        let mut evicted = 0usize;
        let mut bytes_evicted = 0u64;
        for object in &entries {
            if bytes_after <= max_bytes {
                break;
            }
            if self.backend.remove(&object.name).is_ok() {
                evicted += 1;
                bytes_evicted += object.len;
            }
            bytes_after -= object.len;
        }
        // GC runs out-of-band of any event stream, so the telemetry registry
        // is the only place evictions leave a trace for dashboards.
        let metrics = obs::global();
        metrics.inc("store.gc_runs", &[], 1);
        metrics.inc("store.gc_entries_evicted", &[], evicted as u64);
        metrics.inc("store.gc_bytes_evicted", &[], bytes_evicted);
        Ok(GcSummary {
            entries_before,
            entries_evicted: evicted,
            bytes_before,
            bytes_evicted,
            bytes_after: bytes_before - bytes_evicted,
        })
    }
}

/// How old a writer temp file must be before [`ResultStore::gc`] sweeps it.
/// A live `put` holds its temp file only between one write and one rename,
/// so anything this old was abandoned by a crash.
pub const GC_TEMP_GRACE: std::time::Duration = std::time::Duration::from_secs(600);

/// Milliseconds since the Unix epoch (lease timestamps).
fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The contents of one lease file: who holds (or completed) a work unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseInfo {
    /// Opaque holder identity (run id + shard id + pid in practice).
    pub owner: String,
    /// The run this lease belongs to; done leases with a matching run id are
    /// "freshly simulated this run" provenance markers.
    pub run_id: String,
    /// Acquisition time, milliseconds since the Unix epoch.
    pub acquired_unix_ms: u64,
    /// Time after which a not-done lease may be stolen.
    pub ttl_ms: u64,
    /// Whether the unit completed (the store entry was persisted).
    pub done: bool,
}

impl ToJson for LeaseInfo {
    fn to_json(&self) -> Json {
        Json::obj([
            ("owner", Json::Str(self.owner.clone())),
            ("run_id", Json::Str(self.run_id.clone())),
            ("acquired_unix_ms", Json::UInt(self.acquired_unix_ms)),
            ("ttl_ms", Json::UInt(self.ttl_ms)),
            ("done", Json::Bool(self.done)),
        ])
    }
}

impl FromJson for LeaseInfo {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(LeaseInfo {
            owner: json
                .get("owner")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| JsonError::missing("owner"))?,
            run_id: json
                .get("run_id")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| JsonError::missing("run_id"))?,
            acquired_unix_ms: json
                .get("acquired_unix_ms")
                .and_then(Json::as_u64)
                .ok_or_else(|| JsonError::missing("acquired_unix_ms"))?,
            ttl_ms: json
                .get("ttl_ms")
                .and_then(Json::as_u64)
                .ok_or_else(|| JsonError::missing("ttl_ms"))?,
            done: json
                .get("done")
                .and_then(Json::as_bool)
                .ok_or_else(|| JsonError::missing("done"))?,
        })
    }
}

/// The outcome of a [`ResultStore::try_lease`] attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseState {
    /// The caller now holds a fresh lease and should execute the unit.
    Acquired,
    /// The caller now holds the lease, taken from a holder that looked dead
    /// (expired, unreadable, or done-without-entry). Semantically identical
    /// to [`Acquired`](Self::Acquired) for the winner, but surfaced
    /// distinctly so the runner can report the steal in its event stream —
    /// steals used to vanish here, leaving dashboards unable to count them.
    Stolen {
        /// The dead holder's lease, when it was still readable.
        previous: Option<LeaseInfo>,
    },
    /// A live holder owns the lease; poll the store (or retry after its TTL).
    Busy(LeaseInfo),
}

/// What [`ResultStore::gc`] did, as printed (in JSON) by the `store_gc`
/// binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcSummary {
    /// Result entries present before eviction.
    pub entries_before: usize,
    /// Entries removed.
    pub entries_evicted: usize,
    /// Total entry bytes before eviction.
    pub bytes_before: u64,
    /// Bytes reclaimed.
    pub bytes_evicted: u64,
    /// Total entry bytes remaining.
    pub bytes_after: u64,
}

impl ToJson for GcSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("entries_before", Json::UInt(self.entries_before as u64)),
            ("entries_evicted", Json::UInt(self.entries_evicted as u64)),
            ("bytes_before", Json::UInt(self.bytes_before)),
            ("bytes_evicted", Json::UInt(self.bytes_evicted)),
            ("bytes_after", Json::UInt(self.bytes_after)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::simulate;
    use simkit::config::ProtectionConfig;
    use workloads::{spec_suite, Scale};

    fn temp_store(tag: &str) -> ResultStore {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        let dir = std::env::temp_dir().join(format!(
            "muontrap-store-test-{tag}-{}-{nanos}",
            std::process::id()
        ));
        ResultStore::open(dir).expect("temp store opens")
    }

    fn sample() -> (Workload, SystemConfig) {
        (
            spec_suite(Scale::Tiny).into_iter().next().unwrap(),
            SystemConfig::small_test(),
        )
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive_to_every_input() {
        let (w, cfg) = sample();
        let base = cell_fingerprint(&w, DefenseKind::MuonTrap, &cfg);
        // Stability: same inputs, same fingerprint, across repeated derivations.
        assert_eq!(base, cell_fingerprint(&w, DefenseKind::MuonTrap, &cfg));

        // Sensitivity: defense kind, machine config, workload parameters and
        // workload *code* must all change the key.
        assert_ne!(base, cell_fingerprint(&w, DefenseKind::SttSpectre, &cfg));
        assert_ne!(
            base,
            cell_fingerprint(&w, DefenseKind::MuonTrap, &cfg.with_data_filter(64, 1))
        );
        let mut longer = w.clone();
        longer.cycle_budget += 1;
        assert_ne!(base, cell_fingerprint(&longer, DefenseKind::MuonTrap, &cfg));
        let mut renamed = w.clone();
        renamed.name.push('2');
        assert_ne!(
            base,
            cell_fingerprint(&renamed, DefenseKind::MuonTrap, &cfg)
        );
        let other_code = spec_suite(Scale::Tiny).into_iter().nth(1).unwrap();
        let mut impostor = other_code.clone();
        impostor.name = w.name.clone();
        impostor.cycle_budget = w.cycle_budget;
        assert_ne!(
            base,
            cell_fingerprint(&impostor, DefenseKind::MuonTrap, &cfg),
            "same name, different programs must not alias"
        );
    }

    #[test]
    fn custom_kinds_are_distinguished_by_their_protection_payload() {
        let (w, cfg) = sample();
        let a = DefenseKind::MuonTrapCustom(ProtectionConfig::insecure_l0());
        let b = DefenseKind::MuonTrapCustom(ProtectionConfig::muontrap_default());
        assert_eq!(a.label(), b.label());
        assert_ne!(cell_fingerprint(&w, a, &cfg), cell_fingerprint(&w, b, &cfg));
    }

    #[test]
    fn put_get_round_trips_a_result() {
        let store = temp_store("roundtrip");
        let (w, cfg) = sample();
        let key = cell_fingerprint(&w, DefenseKind::MuonTrap, &cfg);
        assert_eq!(store.get(key), None);
        assert!(!store.contains(key));

        let result = simulate(&w, DefenseKind::MuonTrap, &cfg);
        store.put(key, &result).expect("put succeeds");
        assert_eq!(store.get(key), Some(result));
        assert!(store.contains(key));
        assert_eq!(store.len(), 1);
        // Overwrite is idempotent.
        store
            .put(key, &simulate(&w, DefenseKind::MuonTrap, &cfg))
            .unwrap();
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn corrupted_entries_read_as_misses() {
        let store = temp_store("corrupt");
        let (w, cfg) = sample();
        let key = cell_fingerprint(&w, DefenseKind::MuonTrap, &cfg);
        let result = simulate(&w, DefenseKind::MuonTrap, &cfg);
        store.put(key, &result).unwrap();

        // Truncated JSON.
        fs::write(store.entry_path(key), "{\"fingerprint\": \"dead").unwrap();
        assert_eq!(store.get(key), None);
        // Valid JSON, wrong schema.
        fs::write(store.entry_path(key), "[1, 2, 3]").unwrap();
        assert_eq!(store.get(key), None);
        // A complete entry filed under the wrong address.
        let other = Fingerprint(key.0 ^ 1);
        fs::create_dir_all(store.entry_path(other).parent().unwrap()).unwrap();
        fs::copy(store.entry_path(key), store.entry_path(other)).ok();
        store.put(key, &result).unwrap(); // restore the real entry
        fs::copy(store.entry_path(key), store.entry_path(other)).unwrap();
        assert_eq!(
            store.get(other),
            None,
            "entry with mismatched fingerprint must not be served"
        );
        // The intact entry still hits.
        assert_eq!(store.get(key), Some(result));
    }

    #[test]
    fn read_only_store_serves_hits_but_never_writes() {
        let store = temp_store("readonly");
        let (w, cfg) = sample();
        let key = cell_fingerprint(&w, DefenseKind::MuonTrap, &cfg);
        let result = simulate(&w, DefenseKind::MuonTrap, &cfg);
        store.put(key, &result).unwrap();

        let ro = ResultStore::read_only(store.root());
        assert!(ro.is_read_only());
        assert_eq!(ro.get(key), Some(result.clone()), "hits are served");
        // Writes silently vanish.
        let other = cell_fingerprint(&w, DefenseKind::SttSpectre, &cfg);
        ro.put(other, &result).unwrap();
        assert_eq!(ro.get(other), None);
        assert_eq!(store.len(), 1);
        // Coordination surfaces are refused outright.
        assert!(ro.try_lease(other, "me", "run", 1000).is_err());
        assert!(ro.mark_done(other, "me", "run").is_err());
        assert!(ro.gc(0).is_err());
        // A read-only handle on a missing directory is an always-cold store.
        let ghost = ResultStore::read_only(store.root().join("nope"));
        assert_eq!(ghost.get(key), None);
        assert!(ghost.is_empty());
    }

    #[test]
    fn leases_acquire_once_then_report_busy_until_stolen_or_done() {
        let store = temp_store("lease");
        let (w, cfg) = sample();
        let key = cell_fingerprint(&w, DefenseKind::MuonTrap, &cfg);

        assert_eq!(
            store.try_lease(key, "a", "run1", 60_000).unwrap(),
            LeaseState::Acquired
        );
        // A second contender sees the live holder.
        match store.try_lease(key, "b", "run1", 60_000).unwrap() {
            LeaseState::Busy(info) => {
                assert_eq!(info.owner, "a");
                assert!(!info.done);
            }
            other => panic!("lease must not be double-acquired: {other:?}"),
        }
        // Completion turns it into a provenance marker...
        store
            .put(key, &simulate(&w, DefenseKind::MuonTrap, &cfg))
            .unwrap();
        store.mark_done(key, "a", "run1").unwrap();
        assert!(store.completed_during(key, "run1"));
        assert!(!store.completed_during(key, "run2"));
        // ...which is not stealable while the entry exists.
        match store.try_lease(key, "b", "run1", 60_000).unwrap() {
            LeaseState::Busy(info) => assert!(info.done),
            other => panic!("done lease with entry must stay busy: {other:?}"),
        }
        store.release_lease(key);
        assert_eq!(store.read_lease(key), None);
    }

    #[test]
    fn expired_and_orphaned_leases_are_stolen() {
        let store = temp_store("steal");
        let (w, cfg) = sample();
        let key = cell_fingerprint(&w, DefenseKind::MuonTrap, &cfg);

        // Expired: holder "dead" acquired with a 1 ms TTL and vanished.
        assert_eq!(
            store.try_lease(key, "dead", "run1", 1).unwrap(),
            LeaseState::Acquired
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
        match store.try_lease(key, "thief", "run1", 60_000).unwrap() {
            LeaseState::Stolen { previous } => {
                // The steal names its victim, so the runner can report it.
                assert_eq!(previous.expect("expired lease was readable").owner, "dead");
            }
            other => panic!("an expired lease must be reclaimable: {other:?}"),
        }
        assert_eq!(store.read_lease(key).unwrap().owner, "thief");

        // Orphaned: marked done but the crash lost the store entry.
        let other = Fingerprint(key.0 ^ 1);
        store.mark_done(other, "dead", "run1").unwrap();
        assert!(!store.contains(other));
        assert!(
            matches!(
                store.try_lease(other, "thief", "run1", 60_000).unwrap(),
                LeaseState::Stolen { previous: Some(_) }
            ),
            "a done lease without a store entry must be reclaimable"
        );

        // Corrupt lease files read as absent and are stolen (with no victim
        // metadata to attach).
        fs::write(store.lease_path(other), "not a lease").unwrap();
        assert_eq!(store.read_lease(other), None);
        assert_eq!(
            store.try_lease(other, "thief2", "run1", 60_000).unwrap(),
            LeaseState::Stolen { previous: None }
        );
    }

    #[test]
    fn heartbeat_restarts_the_ttl_clock() {
        let store = temp_store("heartbeat");
        let (w, cfg) = sample();
        let key = cell_fingerprint(&w, DefenseKind::MuonTrap, &cfg);
        assert_eq!(
            store.try_lease(key, "worker", "run1", 60).unwrap(),
            LeaseState::Acquired
        );
        // Keep beating past several TTLs: the lease must stay ours.
        for _ in 0..5 {
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert!(store.heartbeat_lease(key, "worker", "run1", 60).unwrap());
            match store.try_lease(key, "thief", "run1", 60).unwrap() {
                LeaseState::Busy(info) => assert_eq!(info.owner, "worker"),
                other => panic!("heartbeat must prevent the steal: {other:?}"),
            }
        }
        // Stop beating: one TTL later the thief wins.
        std::thread::sleep(std::time::Duration::from_millis(90));
        assert!(
            matches!(
                store.try_lease(key, "thief", "run1", 60_000).unwrap(),
                LeaseState::Stolen { .. }
            ),
            "a silent holder must still expire"
        );
    }

    #[test]
    fn heartbeat_never_touches_foreign_done_or_missing_leases() {
        let store = temp_store("heartbeat-foreign");
        let (w, cfg) = sample();
        let key = cell_fingerprint(&w, DefenseKind::MuonTrap, &cfg);
        // Missing lease: refused.
        assert!(!store.heartbeat_lease(key, "worker", "run1", 60).unwrap());
        // Foreign lease: refused, owner untouched.
        assert_eq!(
            store.try_lease(key, "other", "run1", 60_000).unwrap(),
            LeaseState::Acquired
        );
        assert!(!store.heartbeat_lease(key, "worker", "run1", 60).unwrap());
        assert_eq!(store.read_lease(key).unwrap().owner, "other");
        // Done marker: refused, provenance untouched.
        store.mark_done(key, "other", "run1").unwrap();
        assert!(!store.heartbeat_lease(key, "other", "run1", 60).unwrap());
        assert!(store.read_lease(key).unwrap().done);
        // Read-only stores refuse outright.
        let ro = ResultStore::read_only(store.root());
        assert!(ro.heartbeat_lease(key, "other", "run1", 60).is_err());
    }

    #[test]
    fn gc_evicts_least_recently_modified_entries_to_fit_the_cap() {
        let store = temp_store("gc");
        let (w, cfg) = sample();
        let suite = spec_suite(Scale::Tiny);
        let mut keys = Vec::new();
        for workload in suite.iter().take(3) {
            let key = cell_fingerprint(workload, DefenseKind::MuonTrap, &cfg);
            store
                .put(key, &simulate(&w, DefenseKind::MuonTrap, &cfg))
                .unwrap();
            keys.push(key);
            // Distinct mtimes so LRU order is well defined.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        // A lease file must never be collected as an entry, and a fresh
        // temp file (a live writer mid-put) must survive the sweep.
        store.try_lease(keys[2], "x", "run", 60_000).unwrap();
        assert_eq!(store.len(), 3);
        let live_temp = store
            .entry_path(keys[1])
            .parent()
            .unwrap()
            .join(".tmp-live-writer");
        fs::write(&live_temp, "half an entry").unwrap();
        let entry_bytes = fs::metadata(store.entry_path(keys[0])).unwrap().len();

        // Cap at roughly two entries: the oldest one goes.
        let summary = store.gc(entry_bytes * 2 + entry_bytes / 2).unwrap();
        assert_eq!(summary.entries_before, 3);
        assert_eq!(summary.entries_evicted, 1);
        assert_eq!(
            summary.bytes_after,
            summary.bytes_before - summary.bytes_evicted
        );
        assert!(!store.contains(keys[0]), "oldest entry must evict first");
        assert!(store.contains(keys[1]) && store.contains(keys[2]));
        assert!(
            store.read_lease(keys[2]).is_some(),
            "gc must not touch leases"
        );
        assert!(
            live_temp.exists(),
            "a fresh temp file may be a live writer's"
        );

        // A zero cap empties the store; the summary round-trips as JSON.
        let wiped = store.gc(0).unwrap();
        assert_eq!(wiped.entries_before, 2);
        assert_eq!(wiped.bytes_after, 0);
        assert!(store.is_empty());
        let json = wiped.to_json();
        assert_eq!(json.get("entries_evicted").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn read_only_handles_may_release_but_never_claim_leases() {
        // The claim is never taken on a read-only handle — and a claim that
        // *was* taken (by a writable handle, or before a demotion) can still
        // be released through one, instead of pinning the unit until its
        // TTL runs out.
        let store = temp_store("ro-release");
        let (w, cfg) = sample();
        let key = cell_fingerprint(&w, DefenseKind::MuonTrap, &cfg);
        assert_eq!(
            store.try_lease(key, "claimant", "run1", 60_000).unwrap(),
            LeaseState::Acquired
        );
        let ro = ResultStore::read_only(store.root());
        assert!(ro.try_lease(key, "ro", "run1", 60_000).is_err());
        ro.release_lease(key);
        assert_eq!(
            store.read_lease(key),
            None,
            "a read-only handle must still be able to un-pin a claim"
        );
        // Releasing a missing lease stays a no-op.
        ro.release_lease(key);
        // The unit is immediately claimable again — no TTL wait.
        assert_eq!(
            store.try_lease(key, "next", "run1", 60_000).unwrap(),
            LeaseState::Acquired
        );
    }

    #[test]
    fn mem_backed_store_runs_the_full_protocol() {
        let store = ResultStore::in_memory();
        let (w, cfg) = sample();
        let key = cell_fingerprint(&w, DefenseKind::MuonTrap, &cfg);
        let result = simulate(&w, DefenseKind::MuonTrap, &cfg);
        assert!(store.is_empty());
        store.put(key, &result).unwrap();
        assert_eq!(store.get(key), Some(result));
        assert_eq!(store.len(), 1);
        // Clones share the backend; fresh in-memory stores do not.
        assert_eq!(store.clone().len(), 1);
        assert!(ResultStore::in_memory().is_empty());
        // The lease lifecycle works unchanged.
        assert_eq!(
            store.try_lease(key, "a", "mem-run", 60_000).unwrap(),
            LeaseState::Acquired
        );
        store.mark_done(key, "a", "mem-run").unwrap();
        assert!(store.completed_during(key, "mem-run"));
        store.release_lease(key);
        assert_eq!(store.read_lease(key), None);
    }

    #[test]
    fn lease_expiry_follows_the_injected_clock() {
        let clock = Arc::new(AtomicU64::new(1_000_000));
        let store = ResultStore::in_memory().with_clock(Arc::clone(&clock));
        let (w, cfg) = sample();
        let key = cell_fingerprint(&w, DefenseKind::MuonTrap, &cfg);
        assert_eq!(
            store.try_lease(key, "holder", "run1", 500).unwrap(),
            LeaseState::Acquired
        );
        // Wall time may pass; the injected clock has not, so no steal.
        assert!(matches!(
            store.try_lease(key, "thief", "run1", 500).unwrap(),
            LeaseState::Busy(_)
        ));
        // A heartbeat restamps at the injected time.
        clock.fetch_add(400, Ordering::Relaxed);
        assert!(store.heartbeat_lease(key, "holder", "run1", 500).unwrap());
        clock.fetch_add(400, Ordering::Relaxed);
        assert!(
            matches!(
                store.try_lease(key, "thief", "run1", 500).unwrap(),
                LeaseState::Busy(_)
            ),
            "the beat restarted the TTL clock"
        );
        // One TTL past the last beat, the steal lands — with no sleeps.
        clock.fetch_add(200, Ordering::Relaxed);
        match store.try_lease(key, "thief", "run1", 500).unwrap() {
            LeaseState::Stolen { previous } => {
                assert_eq!(previous.unwrap().owner, "holder");
            }
            other => panic!("clock-expired lease must be stolen: {other:?}"),
        }
    }

    /// Plants `len` raw bytes at `key`'s entry name, bypassing `put` — the
    /// write order defines the MemBackend modified order GC evicts in.
    fn plant_entry(store: &ResultStore, key: Fingerprint, len: usize) {
        store
            .backend()
            .put_atomic(&ResultStore::entry_name(key), &vec![b'x'; len])
            .unwrap();
    }

    #[test]
    fn gc_over_mem_backend_evicts_in_write_order_with_exact_accounting() {
        let store = ResultStore::in_memory();
        let keys: Vec<Fingerprint> = (1u128..=4).map(Fingerprint).collect();
        for (i, key) in keys.iter().enumerate() {
            plant_entry(&store, *key, 100 * (i + 1));
        }
        // keys[1] is *corrupt* (never decodable) — GC must still account and
        // evict it by age like any other entry, not skip or trip over it.
        assert_eq!(store.get(keys[1]), None);
        assert_eq!(store.len(), 4);

        // Cap of 750 over 100+200+300+400 bytes: the two oldest go.
        let summary = store.gc(750).unwrap();
        assert_eq!(summary.entries_before, 4);
        assert_eq!(summary.bytes_before, 1000);
        assert_eq!(summary.entries_evicted, 2);
        assert_eq!(summary.bytes_evicted, 300, "oldest two: 100 + 200 bytes");
        assert_eq!(summary.bytes_after, 700);
        assert_eq!(store.len(), 2);
        let survivors = store.backend().list("").unwrap();
        assert!(survivors
            .iter()
            .all(|o| o.name != ResultStore::entry_name(keys[0])
                && o.name != ResultStore::entry_name(keys[1])));

        // Re-writing an entry refreshes its age: now keys[3] is oldest.
        plant_entry(&store, keys[2], 300);
        let summary = store.gc(350).unwrap();
        assert_eq!(summary.entries_evicted, 1);
        assert_eq!(summary.bytes_evicted, 400, "refreshed entry must survive");
    }

    #[test]
    fn gc_zero_cap_empties_the_store_but_never_touches_leases() {
        let store = ResultStore::in_memory();
        let keys: Vec<Fingerprint> = (1u128..=3).map(Fingerprint).collect();
        for key in &keys {
            plant_entry(&store, *key, 64);
        }
        store.try_lease(keys[0], "holder", "run", 60_000).unwrap();
        let summary = store.gc(0).unwrap();
        assert_eq!(summary.entries_before, 3);
        assert_eq!(summary.entries_evicted, 3);
        assert_eq!(summary.bytes_evicted, summary.bytes_before);
        assert_eq!(summary.bytes_after, 0);
        assert!(store.is_empty());
        assert_eq!(
            store.read_lease(keys[0]).unwrap().owner,
            "holder",
            "a zero cap still spares the coordination state"
        );
    }

    #[test]
    fn gc_with_concurrent_writers_stays_consistent() {
        let store = ResultStore::in_memory();
        std::thread::scope(|scope| {
            for t in 0u128..4 {
                let store = store.clone();
                scope.spawn(move || {
                    for i in 0u128..25 {
                        plant_entry(&store, Fingerprint((t << 64) | i), 50);
                    }
                });
            }
            let store = store.clone();
            scope.spawn(move || {
                for _ in 0..20 {
                    let summary = store.gc(200).unwrap();
                    // The books must balance on every pass, even racing
                    // writers: what was seen is either evicted or left.
                    assert_eq!(
                        summary.bytes_after,
                        summary.bytes_before - summary.bytes_evicted
                    );
                    std::thread::yield_now();
                }
            });
        });
        let summary = store.gc(200).unwrap();
        assert!(summary.bytes_after <= 200, "the cap holds once writes stop");
        assert!(store.len() <= 4);
    }

    #[test]
    fn concurrent_writers_never_expose_partial_entries() {
        let store = temp_store("parallel");
        let (w, cfg) = sample();
        let key = cell_fingerprint(&w, DefenseKind::MuonTrap, &cfg);
        let result = simulate(&w, DefenseKind::MuonTrap, &cfg);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        store.put(key, &result).unwrap();
                        if let Some(read) = store.get(key) {
                            assert_eq!(read, result);
                        }
                    }
                });
            }
        });
        assert_eq!(store.get(key), Some(result));
        assert_eq!(store.len(), 1, "temp files must not linger as entries");
    }
}
