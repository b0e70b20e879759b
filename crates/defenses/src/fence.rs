//! The fence-everywhere defense: serialise at every conditional branch.
//!
//! This is the sound-but-slow software baseline of the Spectre-sandboxing
//! line of work ("A Turning Point for Verified Spectre Sandboxing"): a
//! speculation barrier after every conditional branch, so no load (and no
//! instruction fetch that could transmit) executes while an older branch is
//! still unresolved. It is exactly the transformation the `-fenced` twins in
//! [`attacks::attack_corpus`](../attacks) embody at the program level,
//! modelled here as a memory policy so it can run unmodified binaries.
//!
//! Mechanically:
//!
//! * a data load issued under an unresolved conditional branch is refused
//!   ([`MemOutcome::RetryWhenNonSpeculative`]); the core re-polls it every
//!   cycle and the refusal lapses the moment the guarding branch resolves, so
//!   the timing is that of a fence at the branch, not of waiting for commit;
//! * an instruction fetch under an unresolved branch is serviced without
//!   filling any cache (the data must still be produced — the front end
//!   cannot stall indefinitely — but wrong-path fetches leave no trace); the
//!   lines of fetches that *commit* are installed at commit, which is when a
//!   fenced machine would have fetched them;
//! * everything non-speculative behaves exactly as on the unprotected
//!   hierarchy.

use simkit::config::SystemConfig;
use simkit::cycles::Cycle;
use simkit::stats::StatSet;

use memsys::tlb::PageTable;
use memsys::Platform;

use ooo_core::memmodel::{DomainSwitch, MemAccessCtx, MemOutcome, MemoryModel};

use crate::deferred::DeferredFetches;

simkit::counters! {
    /// The fence model's events, reported as `fence.*` once non-zero.
    struct FenceCounts {
        invisible_ifetches: u64,
        /// Speculative loads refused under an unresolved branch: one per
        /// poll.
        delayed_loads: u64,
        loads: u64,
        stores: u64,
        committed_ifetch_installs: u64,
    }
}

/// The fence-at-every-branch memory model.
///
/// # Examples
///
/// ```
/// use defenses::Fence;
/// use ooo_core::memmodel::{MemAccessCtx, MemOutcome, MemoryModel};
/// use simkit::addr::VirtAddr;
/// use simkit::config::SystemConfig;
/// use simkit::cycles::Cycle;
///
/// let mut fence = Fence::new(&SystemConfig::paper_default());
/// let mut ctx = MemAccessCtx::simple(
///     0,
///     VirtAddr::new(0x8000),
///     VirtAddr::new(0x40_0000),
///     Cycle::ZERO,
///     false,
/// );
/// ctx.under_unresolved_branch = true;
/// // Under an unresolved branch the load is fenced off...
/// assert_eq!(fence.load(&ctx), MemOutcome::RetryWhenNonSpeculative);
/// // ...and proceeds normally once the branch resolves.
/// ctx.under_unresolved_branch = false;
/// assert!(fence.load(&ctx).latency().is_some());
/// ```
#[derive(Debug)]
pub struct Fence {
    platform: Platform,
    /// Fetches made under an unresolved branch, installed if they commit.
    deferred: DeferredFetches,
    counts: FenceCounts,
}

impl Fence {
    /// Builds the fence model over a fresh platform.
    pub fn new(config: &SystemConfig) -> Self {
        Fence {
            platform: Platform::new(config),
            deferred: DeferredFetches::new(config.cores),
            counts: FenceCounts::default(),
        }
    }

    /// The platform underneath, whose hierarchy shows what speculation left
    /// behind.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }
}

impl MemoryModel for Fence {
    fn name(&self) -> &str {
        "fence"
    }

    fn fetch_instruction(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
        let (line, xlat) = self.platform.inst_line(ctx.core, ctx.vaddr);
        let latency = if ctx.under_unresolved_branch {
            // A fenced machine would not have fetched past the branch yet;
            // service the fetch without perturbing any cache and install the
            // line at commit instead (when the fetch is known correct-path).
            self.counts.invisible_ifetches += 1;
            self.deferred
                .fetch(&mut self.platform, ctx.core, line, ctx.when)
        } else {
            self.platform.fetch_line(ctx.core, line, ctx.when)
        };
        MemOutcome::Done {
            latency: latency + xlat,
        }
    }

    fn load(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
        // The fence: nothing may access data memory while an older conditional
        // branch is unresolved. The core re-polls every cycle with a freshly
        // computed `under_unresolved_branch`, so the load resumes the cycle
        // the guarding branch resolves. Checked before translation so the
        // repeated polls do not touch the TLB.
        if ctx.speculative && ctx.under_unresolved_branch {
            self.counts.delayed_loads += 1;
            return MemOutcome::RetryWhenNonSpeculative;
        }
        self.counts.loads += 1;
        MemOutcome::Done {
            latency: self
                .platform
                .load(ctx.core, ctx.vaddr, ctx.pc, ctx.is_store, ctx.when),
        }
    }

    fn store_address_ready(&mut self, _ctx: &MemAccessCtx) {
        // No speculative store prefetch: stores touch memory only at commit.
    }

    fn commit_access(&mut self, ctx: &MemAccessCtx) -> u64 {
        let (line, _) = self.platform.data_line(ctx.core, ctx.vaddr);
        if ctx.is_store {
            self.counts.stores += 1;
            self.platform.commit_store(ctx.core, line, ctx.pc, ctx.when);
        }
        0
    }

    fn commit_fetch(&mut self, ctx: &MemAccessCtx) {
        // The fetch committed, so a fenced machine would have performed it
        // post-resolution: install the line now.
        let (line, _) = self.platform.inst_line(ctx.core, ctx.vaddr);
        if self
            .deferred
            .commit(&mut self.platform, ctx.core, line, ctx.when)
        {
            self.counts.committed_ifetch_installs += 1;
        }
    }

    fn set_page_table(&mut self, core: usize, table: PageTable) {
        self.platform.set_page_table(core, table);
    }

    fn on_squash(&mut self, core: usize, _when: Cycle) {
        self.deferred.clear(core);
    }

    fn on_domain_switch(&mut self, core: usize, _kind: DomainSwitch, _when: Cycle) {
        self.deferred.clear(core);
    }

    fn stats(&self) -> StatSet {
        let mut stats = self.platform.stats();
        self.counts.export_nonzero(&mut stats, "fence");
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::addr::VirtAddr;

    fn ctx(core: usize, vaddr: u64, speculative: bool, is_store: bool) -> MemAccessCtx {
        let pc = VirtAddr::new(0x40_0000);
        MemAccessCtx {
            speculative,
            under_unresolved_branch: speculative,
            ..MemAccessCtx::simple(core, VirtAddr::new(vaddr), pc, Cycle::ZERO, is_store)
        }
    }

    #[test]
    fn loads_under_an_unresolved_branch_are_fenced_off() {
        let mut f = Fence::new(&SystemConfig::paper_default());
        assert_eq!(
            f.load(&ctx(0, 0x8000, true, false)),
            MemOutcome::RetryWhenNonSpeculative
        );
        let line = f.platform().phys_line(0, VirtAddr::new(0x8000));
        assert!(!f.platform().hierarchy.own_l1_contains(0, line));
        assert!(!f.platform().hierarchy.l2_contains(line));
    }

    #[test]
    fn loads_resume_once_the_branch_resolves() {
        // Speculative (not yet committed) but no unresolved older branch:
        // the fence has been passed and the load behaves as unprotected.
        let mut f = Fence::new(&SystemConfig::paper_default());
        let mut c = ctx(0, 0x8000, true, false);
        c.under_unresolved_branch = false;
        assert!(f.load(&c).latency().is_some());
        let line = f.platform().phys_line(0, VirtAddr::new(0x8000));
        assert!(f.platform().hierarchy.own_l1_contains(0, line));
    }

    #[test]
    fn wrong_path_fetches_leave_no_cache_state() {
        let mut f = Fence::new(&SystemConfig::paper_default());
        let _ = f.fetch_instruction(&ctx(0, 0x41_0000, true, false));
        let line = f.platform().phys_line(0, VirtAddr::new(0x41_0000));
        assert!(!f.platform().hierarchy.l2_contains(line));
        f.on_squash(0, Cycle::ZERO);
        // Commit of an unrelated fetch installs nothing either.
        f.commit_fetch(&ctx(0, 0x41_0000, false, false));
        assert!(!f.platform().hierarchy.l2_contains(line));
    }

    #[test]
    fn committed_fetches_install_their_line() {
        let mut f = Fence::new(&SystemConfig::paper_default());
        let _ = f.fetch_instruction(&ctx(0, 0x41_0000, true, false));
        // Commit happens after the speculative fetch's fill has long landed
        // (otherwise the install coalesces with the in-flight invisible miss).
        let mut commit = ctx(0, 0x41_0000, false, false);
        commit.when = Cycle::new(10_000);
        f.commit_fetch(&commit);
        let line = f.platform().phys_line(0, VirtAddr::new(0x41_0000));
        assert!(f.platform().hierarchy.l2_contains(line));
    }

    #[test]
    fn commit_of_store_updates_coherence() {
        let mut f = Fence::new(&SystemConfig::paper_default());
        let _ = f.commit_access(&ctx(0, 0x9000, false, true));
        let line = f.platform().phys_line(0, VirtAddr::new(0x9000));
        assert!(f.platform().hierarchy.own_l1_exclusive(0, line));
    }

    #[test]
    fn delayed_loads_are_counted() {
        let mut f = Fence::new(&SystemConfig::paper_default());
        let _ = f.load(&ctx(0, 0x8000, true, false));
        assert_eq!(f.stats().counter("fence.delayed_loads"), 1);
    }
}
