//! Stride prefetcher.
//!
//! Table 1 attaches a stride prefetcher to the shared L2. The prefetcher is
//! trained on (pc, line) pairs and, once it has seen the same stride twice for
//! a PC, emits prefetch candidates `degree` strides ahead.
//!
//! MuonTrap's §4.6 requires that training happens only on the *committed*
//! instruction stream; in the defended configurations the defense layer simply
//! calls [`StridePrefetcher::train`] at commit time instead of at access time.
//! The prefetcher itself is identical in both cases (attack 5 is prevented by
//! when it is trained, not by how it predicts).

use simkit::addr::LineAddr;

/// Number of PC-indexed entries in the prefetcher's reference prediction table.
const TABLE_ENTRIES: usize = 256;

/// Confidence threshold above which prefetches are issued.
const CONFIDENCE_THRESHOLD: i8 = 2;

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    tag: u64,
    last_line: u64,
    stride: i64,
    confidence: i8,
    valid: bool,
}

/// A PC-indexed stride prefetcher.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    table: Vec<StrideEntry>,
    degree: usize,
}

impl StridePrefetcher {
    /// Creates a prefetcher issuing `degree` lines ahead; `degree == 0`
    /// disables prefetching entirely.
    pub fn new(degree: usize) -> Self {
        StridePrefetcher {
            table: vec![StrideEntry::default(); TABLE_ENTRIES],
            degree,
        }
    }

    /// Trains the prefetcher with an access by instruction `pc` to `line` and
    /// returns the prefetch candidates it wants fetched (empty when cold, when
    /// the stride is unstable, or when disabled).
    ///
    /// The candidates come back as an allocation-free [`PrefetchCandidates`]
    /// iterator — training runs on every (committed) memory access, so a
    /// `Vec` per call would be an allocation on the simulator's hottest path.
    pub fn train(&mut self, pc: u64, line: LineAddr) -> PrefetchCandidates {
        if self.degree == 0 {
            return PrefetchCandidates::empty();
        }
        let idx = (pc as usize) % TABLE_ENTRIES;
        let entry = &mut self.table[idx];

        if !entry.valid || entry.tag != pc {
            *entry = StrideEntry {
                tag: pc,
                last_line: line.raw(),
                stride: 0,
                confidence: 0,
                valid: true,
            };
            return PrefetchCandidates::empty();
        }

        let observed = line.raw() as i64 - entry.last_line as i64;
        if observed == entry.stride && observed != 0 {
            entry.confidence = (entry.confidence + 1).min(4);
        } else {
            entry.confidence = (entry.confidence - 1).max(0);
            entry.stride = observed;
        }
        entry.last_line = line.raw();

        if entry.confidence >= CONFIDENCE_THRESHOLD && entry.stride != 0 {
            PrefetchCandidates {
                next: line.raw() as i64 + entry.stride,
                stride: entry.stride,
                remaining: self.degree,
            }
        } else {
            PrefetchCandidates::empty()
        }
    }
}

/// The prefetch candidates one [`StridePrefetcher::train`] call produced:
/// up to `remaining` lines spaced `stride` apart, skipping any that would
/// fall below address zero. A `Copy`-sized iterator, so the hot path never
/// allocates for prefetching.
#[derive(Debug, Clone, Copy)]
pub struct PrefetchCandidates {
    next: i64,
    stride: i64,
    remaining: usize,
}

impl PrefetchCandidates {
    /// An iterator yielding nothing (cold entry, unstable stride, disabled).
    pub fn empty() -> Self {
        PrefetchCandidates {
            next: 0,
            stride: 0,
            remaining: 0,
        }
    }

    /// Whether no candidates will be yielded.
    pub fn is_empty(&self) -> bool {
        (*self).count() == 0
    }
}

impl Iterator for PrefetchCandidates {
    type Item = LineAddr;

    fn next(&mut self) -> Option<LineAddr> {
        while self.remaining > 0 {
            let target = self.next;
            self.next += self.stride;
            self.remaining -= 1;
            if target >= 0 {
                return Some(LineAddr::new(target as u64));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_stride_triggers_prefetches() {
        let mut p = StridePrefetcher::new(2);
        let pc = 0x400;
        let mut total = Vec::new();
        for i in 0..6u64 {
            total = p.train(pc, LineAddr::new(10 + i * 3)).collect();
        }
        assert_eq!(
            total,
            vec![LineAddr::new(10 + 5 * 3 + 3), LineAddr::new(10 + 5 * 3 + 6)]
        );
    }

    #[test]
    fn unit_stride_streams_are_detected() {
        let mut p = StridePrefetcher::new(1);
        let pc = 0x88;
        let mut out = Vec::new();
        for i in 0..5u64 {
            out = p.train(pc, LineAddr::new(i)).collect();
        }
        assert_eq!(out, vec![LineAddr::new(5)]);
    }

    #[test]
    fn random_pattern_stays_quiet() {
        let mut p = StridePrefetcher::new(2);
        let pc = 0x77;
        let lines = [5u64, 100, 3, 77, 12, 9000, 4];
        let mut issued_any = false;
        for l in lines {
            issued_any |= !p.train(pc, LineAddr::new(l)).is_empty();
        }
        assert!(
            !issued_any,
            "irregular access pattern must not trigger prefetching"
        );
    }

    #[test]
    fn zero_degree_disables_prefetching() {
        let mut p = StridePrefetcher::new(0);
        for i in 0..10u64 {
            assert!(p.train(0x1, LineAddr::new(i)).is_empty());
        }
    }

    #[test]
    fn distinct_pcs_do_not_interfere() {
        let mut p = StridePrefetcher::new(1);
        // Interleave two streams with different strides on different PCs.
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for i in 0..6u64 {
            out_a = p.train(0x10, LineAddr::new(i * 2)).collect();
            out_b = p.train(0x20, LineAddr::new(1000 + i * 5)).collect();
        }
        assert_eq!(out_a, vec![LineAddr::new(12)]);
        assert_eq!(out_b, vec![LineAddr::new(1030)]);
    }

    #[test]
    fn negative_strides_are_followed() {
        let mut p = StridePrefetcher::new(1);
        let mut out = Vec::new();
        for i in 0..6u64 {
            out = p.train(0x5, LineAddr::new(1000 - i * 4)).collect();
        }
        assert_eq!(out, vec![LineAddr::new(1000 - 5 * 4 - 4)]);
    }
}
