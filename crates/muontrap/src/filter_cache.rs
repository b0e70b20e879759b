//! The speculative filter cache (L0).
//!
//! A filter cache is a small, fast cache placed between the core and the L1
//! that captures all cache state produced by speculative execution. Lines
//! carry a *committed* bit: they are written through to the non-speculative L1
//! only when an instruction using them reaches in-order commit. Because the
//! cache is write-through, every valid bit can be cleared in a single cycle,
//! which is how MuonTrap makes protection-domain switches cheap.
//!
//! The filter cache is non-inclusive non-exclusive with respect to the rest of
//! the hierarchy and participates in coherence only in the Shared state, plus
//! the `SE` bookkeeping bit that requests an asynchronous upgrade to Exclusive
//! at commit.

use simkit::addr::LineAddr;
use simkit::config::CacheConfig;
use simkit::cycles::Cycle;

use memsys::cache::CacheArray;
use memsys::mesi::MesiState;

/// Per-line metadata carried by a filter cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterLineMeta {
    /// Whether an instruction using this line has committed (and the line has
    /// therefore been written through to the L1).
    pub committed: bool,
    /// The `SE` pseudo-state: the line would have been Exclusive in an
    /// unprotected system, so an asynchronous exclusive upgrade should be
    /// launched when it commits (§4.5).
    pub exclusive_eligible: bool,
    /// The cycle at which the fill that brought this line in completes.
    /// Accesses before this behave like MSHR-coalesced secondary misses and
    /// must wait for the data to actually arrive.
    pub fill_ready_at: Cycle,
}

simkit::counters! {
    /// The events of one filter cache, exported as
    /// `muontrap.coreN.l0d.*` / `muontrap.coreN.l0i.*`.
    pub struct FilterCounts {
        /// Lookups that found their line.
        pub hits: u64,
        /// Lookups that did not.
        pub misses: u64,
        /// Flushes (protection-domain switches, §4.3).
        pub flushes: u64,
        /// Valid lines dropped by those flushes.
        pub lines_flushed: u64,
        /// Uncommitted lines evicted by capacity or conflict pressure.
        pub uncommitted_evictions: u64,
        /// Lines removed by another core's exclusive upgrade.
        pub external_invalidations: u64,
    }
}

/// A speculative filter cache: a physically-tagged, virtually-indexable
/// set-associative cache whose lines are all held in Shared state and carry
/// committed bits.
#[derive(Debug, Clone)]
pub struct FilterCache {
    array: CacheArray<FilterLineMeta>,
    counts: FilterCounts,
}

impl FilterCache {
    /// Creates a filter cache with the geometry in `config`.
    pub fn new(config: &CacheConfig, line_bytes: u64) -> Self {
        FilterCache {
            array: CacheArray::new(config, line_bytes),
            counts: FilterCounts::default(),
        }
    }

    /// Capacity in cache lines.
    pub fn capacity_lines(&self) -> usize {
        self.array.capacity_lines()
    }

    /// Number of valid lines currently held.
    pub fn occupancy(&self) -> usize {
        self.array.occupancy()
    }

    /// Whether `line` is present.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.array.contains(line)
    }

    /// Whether `line` is present and already committed.
    pub fn is_committed(&self, line: LineAddr) -> bool {
        self.array
            .peek(line)
            .map(|l| l.meta.committed)
            .unwrap_or(false)
    }

    /// Looks up `line`, updating replacement state. Returns the metadata if hit.
    pub fn lookup(&mut self, line: LineAddr) -> Option<FilterLineMeta> {
        match self.array.lookup(line) {
            Some(entry) => {
                self.counts.hits += 1;
                Some(entry.meta)
            }
            None => {
                self.counts.misses += 1;
                None
            }
        }
    }

    /// Inserts a line brought in by a speculative access whose fill completes
    /// at `fill_ready_at`. The line enters in Shared state with its committed
    /// bit clear. Returns the physical line address of an evicted
    /// *uncommitted* victim, if any (committed victims need no action because
    /// they were already written through).
    pub fn insert_speculative(
        &mut self,
        line: LineAddr,
        exclusive_eligible: bool,
        fill_ready_at: Cycle,
    ) -> Option<LineAddr> {
        let meta = FilterLineMeta {
            committed: false,
            exclusive_eligible,
            fill_ready_at,
        };
        let eviction = self.array.insert(line, MesiState::Shared, meta);
        match eviction.victim {
            Some(victim) if !victim.meta.committed => {
                self.counts.uncommitted_evictions += 1;
                Some(victim.addr)
            }
            _ => None,
        }
    }

    /// Inserts a line brought in by a non-speculative access (already visible
    /// to the rest of the system): its committed bit starts set.
    pub fn insert_committed(&mut self, line: LineAddr) {
        let meta = FilterLineMeta {
            committed: true,
            ..FilterLineMeta::default()
        };
        let _ = self.array.insert(line, MesiState::Shared, meta);
    }

    /// Marks `line` committed (write-through happened). Returns the metadata
    /// the line had before being marked, or `None` if the line is no longer
    /// present (it may have been evicted before commit, §4.2).
    pub fn mark_committed(&mut self, line: LineAddr) -> Option<FilterLineMeta> {
        let entry = self.array.peek_mut(line)?;
        let before = entry.meta;
        entry.meta.committed = true;
        entry.meta.exclusive_eligible = false;
        Some(before)
    }

    /// Invalidates `line` because another core gained exclusive ownership.
    pub fn external_invalidate(&mut self, line: LineAddr) -> bool {
        let removed = self.array.invalidate(line).is_some();
        if removed {
            self.counts.external_invalidations += 1;
        }
        removed
    }

    /// Clears every valid bit. This is the constant-time flush used on
    /// protection-domain switches (§4.3). Returns the number of lines dropped.
    pub fn flush(&mut self) -> usize {
        let dropped = self.array.invalidate_all();
        self.counts.flushes += 1;
        self.counts.lines_flushed += dropped as u64;
        dropped
    }

    /// The events counted so far.
    pub fn counts(&self) -> &FilterCounts {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> FilterCache {
        // The paper's 2 KiB, 4-way filter cache with 64-byte lines.
        FilterCache::new(&CacheConfig::new(2048, 4, 1, 4), 64)
    }

    #[test]
    fn geometry_matches_paper_filter_cache() {
        let c = cache();
        assert_eq!(c.capacity_lines(), 32);
    }

    #[test]
    fn speculative_lines_start_uncommitted() {
        let mut c = cache();
        c.insert_speculative(LineAddr::new(5), false, Cycle::ZERO);
        assert!(c.contains(LineAddr::new(5)));
        assert!(!c.is_committed(LineAddr::new(5)));
        let meta = c.lookup(LineAddr::new(5)).unwrap();
        assert!(!meta.committed);
    }

    #[test]
    fn committing_a_line_sets_the_bit_and_clears_se() {
        let mut c = cache();
        c.insert_speculative(LineAddr::new(9), true, Cycle::ZERO);
        let before = c.mark_committed(LineAddr::new(9)).expect("line present");
        assert!(!before.committed);
        assert!(before.exclusive_eligible);
        assert!(c.is_committed(LineAddr::new(9)));
        let after = c.lookup(LineAddr::new(9)).unwrap();
        assert!(
            !after.exclusive_eligible,
            "SE is consumed by the commit-time upgrade"
        );
    }

    #[test]
    fn committing_an_absent_line_reports_none() {
        let mut c = cache();
        assert!(c.mark_committed(LineAddr::new(1)).is_none());
    }

    #[test]
    fn flush_is_complete_and_counted() {
        let mut c = cache();
        for i in 0..10 {
            c.insert_speculative(LineAddr::new(i), false, Cycle::ZERO);
        }
        assert_eq!(c.occupancy(), 10);
        assert_eq!(c.flush(), 10);
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.counts().flushes, 1);
        for i in 0..10 {
            assert!(!c.contains(LineAddr::new(i)));
        }
    }

    #[test]
    fn uncommitted_evictions_are_reported() {
        // A tiny, direct-mapped filter cache: conflicting lines evict each other.
        let mut c = FilterCache::new(&CacheConfig::new(128, 1, 1, 1), 64);
        assert_eq!(c.capacity_lines(), 2);
        c.insert_speculative(LineAddr::new(0), false, Cycle::ZERO);
        // Line 2 maps to the same set as line 0 in a 2-set direct-mapped cache.
        let victim = c.insert_speculative(LineAddr::new(2), false, Cycle::ZERO);
        assert_eq!(victim, Some(LineAddr::new(0)));
        assert_eq!(c.counts().uncommitted_evictions, 1);
    }

    #[test]
    fn committed_victims_are_not_reported() {
        let mut c = FilterCache::new(&CacheConfig::new(128, 1, 1, 1), 64);
        c.insert_speculative(LineAddr::new(0), false, Cycle::ZERO);
        c.mark_committed(LineAddr::new(0));
        let victim = c.insert_speculative(LineAddr::new(2), false, Cycle::ZERO);
        assert_eq!(
            victim, None,
            "already-written-through victims need no action"
        );
    }

    #[test]
    fn external_invalidation_removes_the_line() {
        let mut c = cache();
        c.insert_speculative(LineAddr::new(3), false, Cycle::ZERO);
        assert!(c.external_invalidate(LineAddr::new(3)));
        assert!(!c.contains(LineAddr::new(3)));
        assert!(!c.external_invalidate(LineAddr::new(3)));
    }

    #[test]
    fn non_speculative_inserts_start_committed() {
        let mut c = cache();
        c.insert_committed(LineAddr::new(7));
        assert!(c.is_committed(LineAddr::new(7)));
    }

    #[test]
    fn stats_accumulate_under_prefix() {
        let mut c = cache();
        c.insert_speculative(LineAddr::new(1), false, Cycle::ZERO);
        let _ = c.lookup(LineAddr::new(1));
        let _ = c.lookup(LineAddr::new(2));
        c.flush();
        let mut stats = simkit::StatSet::new();
        c.counts().export(&mut stats, "l0d");
        assert_eq!(stats.counter("l0d.hits"), 1);
        assert_eq!(stats.counter("l0d.misses"), 1);
        assert_eq!(stats.counter("l0d.flushes"), 1);
        assert_eq!(stats.counter("l0d.lines_flushed"), 1);
        let zeros = ["l0d.uncommitted_evictions", "l0d.external_invalidations"];
        for name in zeros {
            assert!(stats.iter_counters().any(|(n, v)| n == name && v == 0));
        }
    }
}
