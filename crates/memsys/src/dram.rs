//! Banked open-row DRAM timing model.
//!
//! The paper's system uses DDR3-1600. We model the first-order behaviour that
//! matters for relative comparisons: per-bank row buffers (row hits are much
//! cheaper than row misses) and per-bank busy time, so bursts of misses to the
//! same bank queue behind each other.
//!
//! A bank serves one access at a time: an access starts when the bank frees
//! up (`max(now, busy_until)`) and occupies it for the row hit/miss latency,
//! which includes the data-bus transfer.

use simkit::addr::LineAddr;
use simkit::config::DramConfig;
use simkit::cycles::Cycle;

/// The result of a DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramAccess {
    /// Total latency from the request cycle until data is returned.
    pub latency: u64,
    /// Whether the access hit in the open row of its bank.
    pub row_hit: bool,
}

#[derive(Debug, Clone)]
struct Bank {
    open_row: Option<u64>,
    /// When the bank finishes its last accepted access; later requests
    /// queue behind it.
    busy_until: Cycle,
}

/// A banked DRAM timing model with open-row tracking.
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    banks: Vec<Bank>,
    line_bytes: u64,
}

impl Dram {
    /// Creates a DRAM model.
    pub fn new(config: DramConfig, line_bytes: u64) -> Self {
        let bank = Bank {
            open_row: None,
            busy_until: Cycle::ZERO,
        };
        Dram {
            banks: vec![bank; config.banks.max(1)],
            config,
            line_bytes,
        }
    }

    /// Performs an access for `line` at cycle `now`, returning its latency and
    /// updating bank state.
    pub fn access(&mut self, line: LineAddr, now: Cycle) -> DramAccess {
        let addr_bytes = line.raw() * self.line_bytes;
        let row = addr_bytes / self.config.row_bytes;
        let bank_idx = (row as usize) % self.banks.len();
        let bank = &mut self.banks[bank_idx];

        let row_hit = bank.open_row == Some(row);
        let service = if row_hit {
            self.config.row_hit_latency
        } else {
            self.config.row_miss_latency
        };
        bank.open_row = Some(row);
        let start = now.max_of(bank.busy_until);
        bank.busy_until = start.saturating_add(service);

        DramAccess {
            latency: bank.busy_until.since(now),
            row_hit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::config::SystemConfig;

    fn dram() -> Dram {
        let cfg = SystemConfig::paper_default();
        Dram::new(cfg.dram, cfg.line_bytes)
    }

    #[test]
    fn first_access_is_a_row_miss() {
        let mut d = dram();
        let a = d.access(LineAddr::new(0), Cycle::ZERO);
        assert!(!a.row_hit);
        assert_eq!(
            a.latency,
            SystemConfig::paper_default().dram.row_miss_latency
        );
    }

    #[test]
    fn adjacent_lines_hit_the_open_row() {
        let mut d = dram();
        let _ = d.access(LineAddr::new(0), Cycle::ZERO);
        let a = d.access(LineAddr::new(1), Cycle::new(1000));
        assert!(a.row_hit);
        assert!(a.latency < SystemConfig::paper_default().dram.row_miss_latency);
    }

    #[test]
    fn distant_lines_in_same_bank_miss_the_row() {
        let cfg = SystemConfig::paper_default();
        let mut d = dram();
        let lines_per_row = cfg.dram.row_bytes / cfg.line_bytes;
        let banks = cfg.dram.banks as u64;
        let _ = d.access(LineAddr::new(0), Cycle::ZERO);
        // Same bank (row index differs by `banks`), different row.
        let far = LineAddr::new(lines_per_row * banks);
        let a = d.access(far, Cycle::new(10_000));
        assert!(!a.row_hit);
    }

    #[test]
    fn back_to_back_accesses_queue_behind_bank_busy_time() {
        let system = SystemConfig::paper_default();
        let cfg = system.dram;
        let mut d = dram();
        let first = d.access(LineAddr::new(0), Cycle::ZERO);
        assert_eq!(first.latency, cfg.row_miss_latency);
        // A same-row access queued at the same cycle starts when the bank
        // frees up, then pays the row hit.
        let second = d.access(LineAddr::new(1), Cycle::ZERO);
        assert!(second.row_hit);
        assert_eq!(
            second.latency,
            cfg.row_miss_latency + cfg.row_hit_latency,
            "second access waits out the first"
        );
        // Another bank is free at the same cycle: no queueing.
        let lines_per_row = cfg.row_bytes / system.line_bytes;
        let other_bank = d.access(LineAddr::new(lines_per_row), Cycle::ZERO);
        assert!(!other_bank.row_hit);
        assert_eq!(other_bank.latency, cfg.row_miss_latency);
    }

    #[test]
    fn serialized_bank_queues_requests() {
        let cfg = SystemConfig::paper_default().dram;
        let mut d = dram();
        let first = d.access(LineAddr::new(0), Cycle::new(5));
        assert_eq!(first.latency, cfg.row_miss_latency);
        // Arriving mid-service, the second access waits only for the
        // remainder of the first (ready at 5 + miss), then pays its own hit.
        let second = d.access(LineAddr::new(1), Cycle::new(7));
        assert!(second.row_hit);
        let queue_delay = cfg.row_miss_latency - 2;
        assert_eq!(second.latency, queue_delay + cfg.row_hit_latency);
        // Once the bank is idle again, a request sees no queueing.
        let idle_at = Cycle::new(5 + cfg.row_miss_latency + cfg.row_hit_latency);
        let third = d.access(LineAddr::new(2), idle_at);
        assert_eq!(third.latency, cfg.row_hit_latency);
    }
}
