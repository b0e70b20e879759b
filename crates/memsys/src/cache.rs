//! Generic set-associative cache arrays.
//!
//! [`CacheArray`] models the tag array of a cache: which lines are present, in
//! which coherence state, with LRU replacement inside each set. It is generic
//! over a per-line metadata type so the MuonTrap filter cache can attach its
//! committed bit, virtual tag and fill-level tag without this crate knowing
//! about them.
//!
//! The array is stored as **one contiguous `Vec`** indexed by
//! `set * ways + way` — not a `Vec` of per-set `Vec`s. Every simulated memory
//! access walks at least one set, so the flat layout keeps lookups on a
//! single allocation with predictable strides and removes a pointer chase per
//! set. Empty ways hold an [`MesiState::Invalid`] line; a `valid` counter
//! keeps [`occupancy`](CacheArray::occupancy) O(1) and allocation-free.

use simkit::addr::LineAddr;
use simkit::config::CacheConfig;

use crate::mesi::MesiState;

/// One line in a [`CacheArray`].
#[derive(Debug, Clone, PartialEq)]
pub struct CacheLine<M> {
    /// The physical line address stored here.
    pub addr: LineAddr,
    /// Coherence state (Invalid lines are treated as empty slots).
    pub state: MesiState,
    /// Dirty bit (tracked separately from MESI for the shared L2, which does
    /// not participate in MESI as an owner).
    pub dirty: bool,
    /// LRU timestamp: larger means more recently used.
    pub lru: u64,
    /// Caller-defined metadata (e.g. the filter cache's committed bit).
    pub meta: M,
}

/// The result of inserting a line into a set.
#[derive(Debug, Clone, PartialEq)]
pub struct Eviction<M> {
    /// The line that was evicted to make room, if a valid line had to go.
    pub victim: Option<CacheLine<M>>,
}

/// A set-associative cache tag array with per-set LRU replacement.
///
/// The array is indexed by physical line address. Lookups update LRU;
/// [`CacheArray::peek`] does not, and exists so coherence probes stay
/// side-effect free.
#[derive(Debug, Clone)]
pub struct CacheArray<M> {
    /// All ways of all sets, flattened: way `w` of set `s` lives at
    /// `s * ways + w`. Invalid lines are empty slots.
    lines: Vec<CacheLine<M>>,
    num_sets: usize,
    ways: usize,
    /// Number of currently valid (readable) lines.
    valid: usize,
    tick: u64,
}

impl<M: Default + Clone> CacheArray<M> {
    /// Creates a cache array from a configuration and the line size.
    ///
    /// # Panics
    /// Panics if the configuration describes fewer than one line.
    pub fn new(config: &CacheConfig, line_bytes: u64) -> Self {
        let lines = config.num_lines(line_bytes);
        assert!(lines >= 1, "cache must hold at least one line");
        let ways = config.ways.min(lines);
        let num_sets = (lines / ways).max(1);
        Self::with_geometry(num_sets, ways)
    }

    /// Creates a cache array with explicit geometry (used in tests and sweeps).
    pub fn with_geometry(num_sets: usize, ways: usize) -> Self {
        assert!(num_sets >= 1 && ways >= 1, "geometry must be at least 1x1");
        let mut lines = Vec::new();
        lines.resize_with(num_sets * ways, Self::empty_slot);
        CacheArray {
            lines,
            num_sets,
            ways,
            valid: 0,
            tick: 0,
        }
    }

    fn empty_slot() -> CacheLine<M> {
        CacheLine {
            addr: LineAddr::new(0),
            state: MesiState::Invalid,
            dirty: false,
            lru: 0,
            meta: M::default(),
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.num_sets * self.ways
    }

    /// Number of valid lines currently resident. O(1): maintained by
    /// insert/invalidate, never recounted.
    pub fn occupancy(&self) -> usize {
        self.valid
    }

    fn set_index(&self, addr: LineAddr) -> usize {
        addr.set_index(self.num_sets)
    }

    fn set_range(&self, addr: LineAddr) -> std::ops::Range<usize> {
        let start = self.set_index(addr) * self.ways;
        start..start + self.ways
    }

    /// Looks up `addr`, updating LRU. Returns a mutable reference to the line
    /// if present and readable.
    pub fn lookup(&mut self, addr: LineAddr) -> Option<&mut CacheLine<M>> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(addr);
        let line = self.lines[range]
            .iter_mut()
            .find(|l| l.addr == addr && l.state.can_read())?;
        line.lru = tick;
        Some(line)
    }

    /// Returns the line for `addr` without updating LRU.
    pub fn peek(&self, addr: LineAddr) -> Option<&CacheLine<M>> {
        let range = self.set_range(addr);
        self.lines[range]
            .iter()
            .find(|l| l.addr == addr && l.state.can_read())
    }

    /// Returns a mutable reference without updating LRU.
    pub fn peek_mut(&mut self, addr: LineAddr) -> Option<&mut CacheLine<M>> {
        let range = self.set_range(addr);
        self.lines[range]
            .iter_mut()
            .find(|l| l.addr == addr && l.state.can_read())
    }

    /// Whether `addr` is present and readable.
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.peek(addr).is_some()
    }

    /// Inserts `addr` with the given state and metadata, evicting the LRU line
    /// of the set if it is full. If the line is already present its state and
    /// metadata are overwritten instead (no duplicate entries are created).
    pub fn insert(&mut self, addr: LineAddr, state: MesiState, meta: M) -> Eviction<M> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(addr);
        let set = &mut self.lines[range];

        if let Some(line) = set
            .iter_mut()
            .find(|l| l.addr == addr && l.state.can_read())
        {
            line.state = state;
            line.meta = meta;
            line.lru = tick;
            return Eviction { victim: None };
        }

        let fresh = CacheLine {
            addr,
            state,
            dirty: false,
            lru: tick,
            meta,
        };

        // Reuse an invalid slot if one exists.
        if let Some(slot) = set.iter_mut().find(|l| !l.state.can_read()) {
            *slot = fresh;
            self.valid += 1;
            return Eviction { victim: None };
        }

        // Evict the least recently used line (LRU stamps are unique — the
        // global tick increments on every insert and lookup — so the victim
        // does not depend on slot order).
        let victim_idx = set
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.lru)
            .map(|(i, _)| i)
            .expect("non-empty set");
        let victim = std::mem::replace(&mut set[victim_idx], fresh);
        Eviction {
            victim: Some(victim),
        }
    }

    /// Invalidates `addr` if present, returning the removed line.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<CacheLine<M>> {
        let range = self.set_range(addr);
        let slot = self.lines[range]
            .iter_mut()
            .find(|l| l.addr == addr && l.state.can_read())?;
        let mut line = std::mem::replace(slot, Self::empty_slot());
        line.state = MesiState::Invalid;
        self.valid -= 1;
        Some(line)
    }

    /// Invalidates every line, returning how many were valid. This is the
    /// single-cycle "clear every valid bit" operation of §4.3 — and like the
    /// hardware it models, it only clears state bits: no allocation, no
    /// per-line drop beyond resetting the slot.
    pub fn invalidate_all(&mut self) -> usize {
        let count = self.valid;
        for slot in &mut self.lines {
            if slot.state.can_read() {
                *slot = Self::empty_slot();
            }
        }
        self.valid = 0;
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::config::CacheConfig;

    fn small_cache() -> CacheArray<()> {
        // 4 sets x 2 ways of 64-byte lines = 512 bytes.
        CacheArray::new(&CacheConfig::new(512, 2, 1, 4), 64)
    }

    #[test]
    fn geometry_from_config() {
        let c = small_cache();
        assert_eq!(c.num_sets(), 4);
        assert_eq!(c.ways(), 2);
        assert_eq!(c.capacity_lines(), 8);
    }

    #[test]
    fn fully_associative_when_ways_exceed_lines() {
        let c: CacheArray<()> = CacheArray::new(&CacheConfig::new(256, 64, 1, 4), 64);
        assert_eq!(c.num_sets(), 1);
        assert_eq!(c.ways(), 4);
    }

    #[test]
    fn insert_then_lookup_hits() {
        let mut c = small_cache();
        c.insert(LineAddr::new(12), MesiState::Shared, ());
        assert!(c.lookup(LineAddr::new(12)).is_some());
        assert!(c.lookup(LineAddr::new(13)).is_none());
    }

    #[test]
    fn lru_eviction_picks_least_recently_used() {
        let mut c = small_cache();
        // Lines 0, 4, 8 all map to set 0 (4 sets). Two ways available.
        c.insert(LineAddr::new(0), MesiState::Shared, ());
        c.insert(LineAddr::new(4), MesiState::Shared, ());
        // Touch line 0 so line 4 becomes LRU.
        assert!(c.lookup(LineAddr::new(0)).is_some());
        let ev = c.insert(LineAddr::new(8), MesiState::Shared, ());
        assert_eq!(
            ev.victim.expect("one line must be evicted").addr,
            LineAddr::new(4)
        );
        assert!(c.contains(LineAddr::new(0)));
        assert!(c.contains(LineAddr::new(8)));
        assert!(!c.contains(LineAddr::new(4)));
    }

    #[test]
    fn reinserting_existing_line_does_not_duplicate() {
        let mut c = small_cache();
        c.insert(LineAddr::new(3), MesiState::Shared, ());
        c.insert(LineAddr::new(3), MesiState::Modified, ());
        assert_eq!(c.occupancy(), 1);
        assert_eq!(c.peek(LineAddr::new(3)).unwrap().state, MesiState::Modified);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small_cache();
        c.insert(LineAddr::new(5), MesiState::Exclusive, ());
        let removed = c.invalidate(LineAddr::new(5)).expect("line was present");
        assert_eq!(removed.addr, LineAddr::new(5));
        assert!(!c.contains(LineAddr::new(5)));
        assert!(c.invalidate(LineAddr::new(5)).is_none());
    }

    #[test]
    fn invalidate_all_clears_everything() {
        let mut c = small_cache();
        for i in 0..8 {
            c.insert(LineAddr::new(i), MesiState::Shared, ());
        }
        assert_eq!(c.occupancy(), 8);
        assert_eq!(c.invalidate_all(), 8);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn peek_does_not_disturb_lru_or_counters() {
        let mut c = small_cache();
        c.insert(LineAddr::new(0), MesiState::Shared, ());
        c.insert(LineAddr::new(4), MesiState::Shared, ());
        // Peek line 0 (would make it MRU if it updated LRU), then insert a
        // conflicting line; the victim must still be line 0 because peek must
        // not have refreshed it.
        assert!(c.peek(LineAddr::new(0)).is_some());
        let ev = c.insert(LineAddr::new(8), MesiState::Shared, ());
        assert_eq!(ev.victim.unwrap().addr, LineAddr::new(0));
    }

    #[test]
    fn metadata_round_trips() {
        let mut c: CacheArray<u32> = CacheArray::with_geometry(2, 2);
        c.insert(LineAddr::new(1), MesiState::Shared, 99);
        assert_eq!(c.peek(LineAddr::new(1)).unwrap().meta, 99);
        c.peek_mut(LineAddr::new(1)).unwrap().meta = 7;
        assert_eq!(c.peek(LineAddr::new(1)).unwrap().meta, 7);
    }

    #[test]
    fn occupancy_tracks_valid_lines() {
        let mut c = small_cache();
        assert_eq!(c.occupancy(), 0);
        c.insert(LineAddr::new(1), MesiState::Shared, ());
        c.insert(LineAddr::new(2), MesiState::Shared, ());
        assert_eq!(c.occupancy(), 2);
        c.invalidate(LineAddr::new(1));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn occupancy_counter_survives_eviction_and_overwrite() {
        let mut c = small_cache();
        // Fill set 0 (lines 0 and 4), then evict by inserting line 8.
        c.insert(LineAddr::new(0), MesiState::Shared, ());
        c.insert(LineAddr::new(4), MesiState::Shared, ());
        assert_eq!(c.occupancy(), 2);
        let ev = c.insert(LineAddr::new(8), MesiState::Shared, ());
        assert!(ev.victim.is_some());
        assert_eq!(c.occupancy(), 2, "eviction replaces, not grows");
        // Overwriting a present line must not change the count either.
        c.insert(LineAddr::new(8), MesiState::Modified, ());
        assert_eq!(c.occupancy(), 2);
        c.invalidate_all();
        assert_eq!(c.occupancy(), 0);
    }
}
