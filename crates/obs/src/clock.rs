//! Monotonic, epoch-anchored millisecond timestamps.
//!
//! Telemetry needs two properties the standard clocks give separately:
//! timestamps from *different processes* must be comparable (a watcher
//! subtracts a run's last event time from its own idea of "now" to detect
//! a stall), and timestamps within *one* stream must never step backwards
//! (an NTP adjustment mid-run must not make an event look older than its
//! predecessor). [`MonoClock`] anchors [`std::time::Instant`]
//! — which is monotonic but process-local — to the Unix epoch once at
//! construction, then derives every reading from the monotonic elapsed
//! time, giving epoch-comparable values that only move forward.

use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// A monotonic clock anchored to the Unix epoch at construction.
#[derive(Debug, Clone)]
pub struct MonoClock {
    base_unix_ms: u64,
    origin: Instant,
}

impl MonoClock {
    /// A clock anchored to the wall clock *now*; all later readings are
    /// `now + monotonic elapsed`, immune to wall-clock adjustments.
    pub fn new() -> MonoClock {
        let base_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        MonoClock {
            base_unix_ms,
            origin: Instant::now(),
        }
    }

    /// Milliseconds since the Unix epoch, guaranteed non-decreasing across
    /// calls on one clock.
    pub fn now_ms(&self) -> u64 {
        self.base_unix_ms
            .saturating_add(self.origin.elapsed().as_millis() as u64)
    }
}

impl Default for MonoClock {
    fn default() -> Self {
        MonoClock::new()
    }
}

/// The process-wide clock every telemetry point stamps with, so all series
/// and run events within one process share a single monotonic time base.
pub fn now_ms() -> u64 {
    static CLOCK: OnceLock<MonoClock> = OnceLock::new();
    CLOCK.get_or_init(MonoClock::new).now_ms()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_monotonic_and_epoch_anchored() {
        let clock = MonoClock::new();
        let mut last = clock.now_ms();
        // Sanity: anchored near the wall clock (2020-01-01 in ms).
        assert!(last > 1_577_836_800_000, "clock is epoch-anchored: {last}");
        for _ in 0..1000 {
            let now = clock.now_ms();
            assert!(now >= last, "monotonic: {now} >= {last}");
            last = now;
        }
    }

    #[test]
    fn global_clock_is_shared_and_monotonic() {
        let a = now_ms();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = now_ms();
        assert!(b > a, "global clock advances: {a} -> {b}");
    }
}
