//! The sleep rule: when the driving loop may skip this core's ticks.
//!
//! A core whose next tick provably does nothing — [`quiescent`] after an
//! idle tick, or [`idle_at`] the next cycle — names the [`next_wake`] cycle,
//! which lets the driving loop **sleep from its last active tick** (see
//! [`OooCore::next_tick`], crediting the cycles via
//! [`OooCore::skip_idle_cycles`]) with bit-identical statistics — see
//! `tests/hotpath_golden.rs` for the equivalence proof.
//!
//! [`quiescent`]: OooCore::quiescent
//! [`idle_at`]: OooCore::idle_at
//! [`next_wake`]: OooCore::next_wake

use simkit::cycles::Cycle;

use super::OooCore;
use crate::memmodel::MemoryModel;

impl OooCore {
    /// The cycle of the earliest pending completion ([`Cycle::NEVER`] when
    /// none is): the complete stage keeps the ticket heap's top live.
    fn next_completion(&self) -> Cycle {
        self.completion_q.peek().map_or(Cycle::NEVER, |(at, _)| at)
    }

    /// Whether a tick at cycle `next` would provably do nothing: no access
    /// is parked, no completion ticket is due, commit and fetch are blocked,
    /// and no ready entry lies inside the issue window. Such a tick changes
    /// no state, so the driving loop may sleep through it.
    pub(crate) fn idle_at(&self, next: Cycle) -> bool {
        self.retry_count == 0
            && self.next_completion() > next
            && self.commit_blocked(next)
            && self.fetch_blocked(next)
            && !self.ready_in_window()
    }

    /// The cycle at or after `next` (the cycle after the last tick) at which
    /// this core must next be ticked: `next` itself unless the last tick was
    /// quiescent or the one at `next` would be idle, and the memory model
    /// has no background work for the core; then the core's next wake. The
    /// one sleep rule of [`run_to_halt`](Self::run_to_halt) and of the
    /// multicore loop.
    pub fn next_tick(&self, next: Cycle, mem: &dyn MemoryModel) -> Cycle {
        if (self.quiescent() || self.idle_at(next)) && mem.is_idle(self.core_id) {
            self.next_wake(next)
        } else {
            next
        }
    }

    /// Whether the last [`tick`](Self::tick) performed no pipeline work at
    /// all (no commit, completion, issue, retry poll, or fetch progress). A
    /// quiescent core's state is a pure function of the cycle timers, so the
    /// driving loop may jump to [`next_wake`](Self::next_wake) and credit the
    /// skipped cycles with [`skip_idle_cycles`](Self::skip_idle_cycles)
    /// without changing any observable behaviour.
    pub(crate) fn quiescent(&self) -> bool {
        !self.tick_active
    }

    /// The earliest tick cycle at or after `now` (the *next* tick's cycle) at
    /// which a quiescent core can make progress again: the earliest in-flight
    /// completion, the end of a fetch stall, or the end of a commit stall
    /// with a finished head. [`Cycle::NEVER`] when nothing is pending (the
    /// core is deadlocked or drained; the naive loop would spin to the cycle
    /// budget, and the fast-forward loop jumps there directly). Stale timers
    /// already behind `now` are ignored — on a quiescent core they cannot be
    /// what the pipeline is waiting for.
    pub(crate) fn next_wake(&self, now: Cycle) -> Cycle {
        let mut wake = self.next_completion().max_of(now);
        if self.done_prefix > 0 && self.commit_stalled_until >= now {
            wake = wake.min(self.commit_stalled_until);
        }
        if !self.fetch_halted && self.fetch_stalled_until >= now {
            wake = wake.min(self.fetch_stalled_until);
        }
        wake
    }

    /// Credits `skipped` fast-forwarded idle cycles to this core's cycle
    /// counter, exactly as if [`tick`](Self::tick) had been called (and done
    /// nothing) on each of them.
    pub fn skip_idle_cycles(&mut self, skipped: u64) {
        if self.thread.is_some() && !self.halted {
            self.stats.cycles += skipped;
        }
    }
}
