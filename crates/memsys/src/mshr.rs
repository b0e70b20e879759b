//! Miss status holding registers (MSHRs).
//!
//! Each cache level has a small number of MSHRs bounding the misses it can
//! have outstanding at once. In this latency-annotated model an MSHR entry is
//! simply "line X will be filled at cycle T": a new miss to the same line
//! coalesces onto the existing entry; a miss with no free entry must wait
//! until the earliest entry retires.

use simkit::addr::LineAddr;
use simkit::cycles::Cycle;

/// One outstanding miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MshrEntry {
    line: LineAddr,
    ready_at: Cycle,
}

/// What happened when a miss consulted the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrOutcome {
    /// Set when every MSHR was busy: the file refused to issue the miss
    /// until this cycle (when the earliest in-flight fill retires). In this
    /// latency-annotated model the requester absorbs the stall as
    /// [`issue_delay`](Self::issue_delay) cycles rather than literally
    /// retrying.
    pub retry_at: Option<Cycle>,
    /// Whether the miss coalesced onto an existing in-flight entry for the
    /// same line; if so `fill_ready_at` is that entry's completion time.
    pub coalesced: bool,
    /// When the fill for this line completes (only meaningful if `coalesced`).
    pub fill_ready_at: Cycle,
}

impl MshrOutcome {
    /// Extra cycles the requester must wait *before* its miss can even be
    /// issued — zero unless the file pushed back.
    pub fn issue_delay(&self, now: Cycle) -> u64 {
        self.retry_at.map_or(0, |at| at.since(now))
    }
}

/// A file of miss-status-holding registers.
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<MshrEntry>,
    capacity: usize,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        MshrFile {
            entries: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// Number of entries still in flight at `now`.
    pub fn in_flight(&self, now: Cycle) -> usize {
        self.entries.iter().filter(|e| e.ready_at > now).count()
    }

    /// Consults the MSHR file for a miss to `line` at cycle `now`.
    ///
    /// If the line is already being fetched, the miss coalesces. Otherwise, if
    /// all MSHRs are busy, the returned outcome's `retry_at` names the cycle
    /// a register frees up. The caller is expected to call
    /// [`MshrFile::allocate`] afterwards with the final completion time.
    pub fn check(&mut self, line: LineAddr, now: Cycle) -> MshrOutcome {
        self.retire_completed(now);
        if let Some(entry) = self.entries.iter().find(|e| e.line == line) {
            return MshrOutcome {
                retry_at: None,
                coalesced: true,
                fill_ready_at: entry.ready_at,
            };
        }
        if self.entries.len() < self.capacity {
            return MshrOutcome {
                retry_at: None,
                coalesced: false,
                fill_ready_at: now,
            };
        }
        // All MSHRs busy: push back until the earliest retires.
        let earliest = self.entries.iter().map(|e| e.ready_at).min().unwrap_or(now);
        MshrOutcome {
            retry_at: Some(earliest),
            coalesced: false,
            fill_ready_at: earliest,
        }
    }

    /// Records that a miss to `line` will complete at `ready_at`.
    ///
    /// Callers should have used [`MshrFile::check`] first; allocating past
    /// capacity silently evicts the earliest-completing entry (the model
    /// equivalent of that entry having retired).
    pub fn allocate(&mut self, line: LineAddr, ready_at: Cycle) {
        if self.entries.iter().any(|e| e.line == line) {
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some(pos) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.ready_at)
                .map(|(i, _)| i)
            {
                self.entries.remove(pos);
            }
        }
        self.entries.push(MshrEntry { line, ready_at });
    }

    /// Drops entries whose fills have completed by `now`.
    pub fn retire_completed(&mut self, now: Cycle) {
        self.entries.retain(|e| e.ready_at > now);
    }

    /// Clears every entry (used on context switches in some configurations).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesces_repeat_misses_to_same_line() {
        let mut m = MshrFile::new(4);
        let first = m.check(LineAddr::new(7), Cycle::new(0));
        assert!(!first.coalesced);
        m.allocate(LineAddr::new(7), Cycle::new(100));
        let second = m.check(LineAddr::new(7), Cycle::new(10));
        assert!(second.coalesced);
        assert_eq!(second.fill_ready_at, Cycle::new(100));
    }

    #[test]
    fn structural_stall_when_full() {
        let mut m = MshrFile::new(2);
        m.allocate(LineAddr::new(1), Cycle::new(50));
        m.allocate(LineAddr::new(2), Cycle::new(80));
        let outcome = m.check(LineAddr::new(3), Cycle::new(10));
        assert!(!outcome.coalesced);
        // Pushes back until line 1 retires at cycle 50.
        assert_eq!(outcome.retry_at, Some(Cycle::new(50)), "file is full");
        assert_eq!(outcome.issue_delay(Cycle::new(10)), 40);
    }

    #[test]
    fn completed_entries_retire() {
        let mut m = MshrFile::new(1);
        m.allocate(LineAddr::new(1), Cycle::new(20));
        // At cycle 30 the entry has completed, so a new miss issues freely.
        let outcome = m.check(LineAddr::new(2), Cycle::new(30));
        assert_eq!(outcome.retry_at, None);
        assert_eq!(m.in_flight(Cycle::new(30)), 0);
    }

    #[test]
    fn capacity_is_at_least_one() {
        let mut m = MshrFile::new(0);
        let outcome = m.check(LineAddr::new(9), Cycle::new(0));
        assert_eq!(outcome.retry_at, None);
    }

    #[test]
    fn duplicate_allocate_is_ignored() {
        let mut m = MshrFile::new(2);
        m.allocate(LineAddr::new(5), Cycle::new(40));
        m.allocate(LineAddr::new(5), Cycle::new(90));
        let outcome = m.check(LineAddr::new(5), Cycle::new(0));
        assert_eq!(outcome.fill_ready_at, Cycle::new(40));
    }

    #[test]
    fn clear_empties_the_file() {
        let mut m = MshrFile::new(2);
        m.allocate(LineAddr::new(5), Cycle::new(40));
        m.clear();
        assert_eq!(m.in_flight(Cycle::new(0)), 0);
    }
}
