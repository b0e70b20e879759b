//! The filter TLB (§4.7).
//!
//! Speculative address translations must not evict entries from the
//! non-speculative TLB, otherwise a prime-and-probe attack on TLB entries
//! leaks which pages a victim touched speculatively. MuonTrap therefore holds
//! speculative translations in a small filter TLB: on instruction commit the
//! relevant translation is moved to the non-speculative TLB, and the filter
//! TLB is flushed on protection-domain switches like the filter caches.

/// A small, fully-associative buffer of speculative translations.
#[derive(Debug, Clone)]
pub struct FilterTlb {
    entries: Vec<(u64, u64, u64)>, // (vpn, ppn, lru)
    capacity: usize,
    tick: u64,
}

impl FilterTlb {
    /// Creates a filter TLB with `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        FilterTlb {
            entries: Vec::new(),
            capacity: capacity.max(1),
            tick: 0,
        }
    }

    /// Number of cached speculative translations.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Looks up a speculative translation for `vpn`.
    pub fn lookup(&mut self, vpn: u64) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.entries.iter_mut().find(|(v, _, _)| *v == vpn)?;
        e.2 = tick;
        Some(e.1)
    }

    /// Records a speculative translation.
    pub fn fill(&mut self, vpn: u64, ppn: u64) {
        self.tick += 1;
        if let Some(e) = self.entries.iter_mut().find(|(v, _, _)| *v == vpn) {
            e.1 = ppn;
            e.2 = self.tick;
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some(pos) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, lru))| *lru)
                .map(|(i, _)| i)
            {
                self.entries.remove(pos);
            }
        }
        self.entries.push((vpn, ppn, self.tick));
    }

    /// Removes and returns the translation for `vpn`, if present (used when a
    /// committing instruction promotes its translation to the main TLB).
    pub fn take(&mut self, vpn: u64) -> Option<u64> {
        let pos = self.entries.iter().position(|(v, _, _)| *v == vpn)?;
        Some(self.entries.remove(pos).1)
    }

    /// Drops every speculative translation (protection-domain switch).
    pub fn flush(&mut self) -> usize {
        let dropped = self.entries.len();
        self.entries.clear();
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_then_lookup_hits() {
        let mut t = FilterTlb::new(4);
        assert_eq!(t.lookup(7), None);
        t.fill(7, 1007);
        assert_eq!(t.lookup(7), Some(1007));
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut t = FilterTlb::new(2);
        t.fill(1, 101);
        t.fill(2, 102);
        let _ = t.lookup(1); // refresh 1
        t.fill(3, 103); // evicts 2
        assert_eq!(t.lookup(2), None);
        assert_eq!(t.lookup(1), Some(101));
        assert_eq!(t.lookup(3), Some(103));
    }

    #[test]
    fn take_removes_the_entry() {
        let mut t = FilterTlb::new(4);
        t.fill(5, 505);
        assert_eq!(t.take(5), Some(505));
        assert_eq!(t.take(5), None);
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn flush_drops_everything_and_counts() {
        let mut t = FilterTlb::new(8);
        for i in 0..5 {
            t.fill(i, i + 100);
        }
        assert_eq!(t.flush(), 5);
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.lookup(3), None);
    }

    #[test]
    fn refilling_same_vpn_updates_in_place() {
        let mut t = FilterTlb::new(2);
        t.fill(9, 1);
        t.fill(9, 2);
        assert_eq!(t.occupancy(), 1);
        assert_eq!(t.lookup(9), Some(2));
    }
}
