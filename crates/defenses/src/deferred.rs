//! Invisible instruction fetches, installed at commit.
//!
//! Fence, DelayLoads and SafeBet all service a fetch they must not let
//! perturb the caches the same way: the bytes come back without filling any
//! level or training the prefetcher, and the line is installed by an ordinary
//! fetch if and when the instruction commits (when it is known correct-path).

use simkit::addr::LineAddr;
use simkit::cycles::Cycle;
use simkit::fastmap::FastSet;

use memsys::types::{AccessKind, AccessRequest, FillLevel};
use memsys::Platform;

/// Per-core lines fetched invisibly and not yet committed.
#[derive(Debug)]
pub(crate) struct DeferredFetches {
    lines: Vec<FastSet<LineAddr>>,
}

impl DeferredFetches {
    pub(crate) fn new(cores: usize) -> Self {
        DeferredFetches {
            lines: (0..cores).map(|_| FastSet::default()).collect(),
        }
    }

    /// Fetches `line` leaving no cache state behind and remembers it for
    /// install at commit; returns the hierarchy latency.
    pub(crate) fn fetch(
        &mut self,
        platform: &mut Platform,
        core: usize,
        line: LineAddr,
        when: Cycle,
    ) -> u64 {
        let req = AccessRequest::new(core, line, AccessKind::InstFetch, when)
            .with_fill(FillLevel::None)
            .without_prefetch_training();
        let latency = platform.hierarchy.access(&req).latency;
        self.lines[core].insert(line);
        latency
    }

    /// Installs `line` (off the critical path) if it was fetched invisibly;
    /// returns whether it was.
    pub(crate) fn commit(
        &mut self,
        platform: &mut Platform,
        core: usize,
        line: LineAddr,
        when: Cycle,
    ) -> bool {
        let pending = self.lines[core].remove(&line);
        if pending {
            platform.fetch_line(core, line, when);
        }
        pending
    }

    /// Forgets `core`'s pending lines: a squashed or switched-out path must
    /// never install. Correct-path entries dropped with them simply
    /// re-install on their next miss.
    pub(crate) fn clear(&mut self, core: usize) {
        self.lines[core].clear();
    }
}
