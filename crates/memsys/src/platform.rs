//! The platform every memory model runs on.
//!
//! A [`Platform`] is the shared [`MemoryHierarchy`] plus one [`Mmu`] per core,
//! built in one place from a [`SystemConfig`]. It owns what every
//! configuration does identically: translating a virtual address to its
//! physical line, the ordinary (unprotected) fetch, load and commit-store
//! accesses, and the merge of the hierarchy's statistics. A memory model holds
//! one platform and adds only its protection policy on top, so two
//! configurations differ in nothing but that policy.

use simkit::addr::{LineAddr, PhysAddr, VirtAddr};
use simkit::config::SystemConfig;
use simkit::cycles::Cycle;
use simkit::stats::StatSet;

use crate::hierarchy::MemoryHierarchy;
use crate::tlb::{Mmu, PageTable};
use crate::types::{AccessKind, AccessRequest, AccessResponse};

/// The shared hierarchy and the per-core MMUs in front of it.
///
/// # Examples
///
/// ```
/// use memsys::Platform;
/// use simkit::addr::VirtAddr;
/// use simkit::config::SystemConfig;
/// use simkit::cycles::Cycle;
///
/// let mut platform = Platform::new(&SystemConfig::paper_default());
/// let (vaddr, pc) = (VirtAddr::new(0x8000), VirtAddr::new(0x40_0000));
/// let cold = platform.load(0, vaddr, pc, false, Cycle::ZERO);
/// let warm = platform.load(0, vaddr, pc, false, Cycle::new(1_000));
/// assert!(warm < cold);
/// assert!(platform.hierarchy.own_l1_contains(0, platform.phys_line(0, vaddr)));
/// ```
#[derive(Debug)]
pub struct Platform {
    config: SystemConfig,
    /// The shared cache hierarchy.
    pub hierarchy: MemoryHierarchy,
    mmus: Vec<Mmu>,
}

impl Platform {
    /// Builds a fresh hierarchy and one MMU per core. Until the OS model
    /// installs a process, core `i` maps `pa = va + ((i + 1) << 32)`, so the
    /// cores never alias.
    pub fn new(config: &SystemConfig) -> Self {
        let mmus = (0..config.cores)
            .map(|i| {
                Mmu::new(
                    &config.tlb,
                    PageTable::new(config.tlb.page_bytes, (i as u64 + 1) << 32),
                )
            })
            .collect();
        Platform {
            config: config.clone(),
            hierarchy: MemoryHierarchy::new(config),
            mmus,
        }
    }

    /// The configuration the platform was built from.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// `core`'s MMU.
    pub fn mmu(&mut self, core: usize) -> &mut Mmu {
        &mut self.mmus[core]
    }

    /// Installs `table` on `core` (a context switch), flushing both TLBs.
    pub fn set_page_table(&mut self, core: usize, table: PageTable) {
        self.mmus[core].set_page_table(table);
    }

    /// The line holding physical address `pa`.
    pub fn line(&self, pa: PhysAddr) -> LineAddr {
        LineAddr::from_phys(pa, self.config.line_bytes)
    }

    /// Translates `vaddr` on `core` with no timing side effects (no TLB is
    /// consulted or filled).
    pub fn phys_addr(&self, core: usize, vaddr: VirtAddr) -> PhysAddr {
        self.mmus[core].page_table().translate(vaddr)
    }

    /// The physical line holding `vaddr` on `core`, with no timing side
    /// effects.
    pub fn phys_line(&self, core: usize, vaddr: VirtAddr) -> LineAddr {
        self.line(self.phys_addr(core, vaddr))
    }

    /// Translates a data address through `core`'s DTLB: the physical line and
    /// the translation latency.
    pub fn data_line(&mut self, core: usize, vaddr: VirtAddr) -> (LineAddr, u64) {
        let t = self.mmus[core].translate_data(vaddr);
        (self.line(t.paddr), t.latency)
    }

    /// Translates an instruction address through `core`'s ITLB: the physical
    /// line and the translation latency.
    pub fn inst_line(&mut self, core: usize, vaddr: VirtAddr) -> (LineAddr, u64) {
        let t = self.mmus[core].translate_inst(vaddr);
        (self.line(t.paddr), t.latency)
    }

    /// An ordinary instruction fetch of `line`; returns the hierarchy latency.
    pub fn fetch_line(&mut self, core: usize, line: LineAddr, when: Cycle) -> u64 {
        let req = AccessRequest::new(core, line, AccessKind::InstFetch, when);
        self.hierarchy.access(&req).latency
    }

    /// An ordinary instruction fetch at `vaddr`, translation included.
    pub fn fetch(&mut self, core: usize, vaddr: VirtAddr, when: Cycle) -> u64 {
        let (line, xlat) = self.inst_line(core, vaddr);
        self.fetch_line(core, line, when) + xlat
    }

    /// An ordinary data access to `line` by the instruction at `pc`: a load,
    /// or for an `atomic` (which needs exclusive ownership) a store.
    pub fn load_line(
        &mut self,
        core: usize,
        line: LineAddr,
        pc: VirtAddr,
        atomic: bool,
        when: Cycle,
    ) -> AccessResponse {
        let kind = if atomic {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let req = AccessRequest::new(core, line, kind, when).with_pc(pc.raw());
        self.hierarchy.access(&req)
    }

    /// An ordinary load (or atomic) at `vaddr`, translation included; returns
    /// its latency.
    pub fn load(
        &mut self,
        core: usize,
        vaddr: VirtAddr,
        pc: VirtAddr,
        atomic: bool,
        when: Cycle,
    ) -> u64 {
        let (line, xlat) = self.data_line(core, vaddr);
        self.load_line(core, line, pc, atomic, when).latency + xlat
    }

    /// A store committing to `line`: acquires exclusive ownership. Commit
    /// does not wait for it.
    pub fn commit_store(&mut self, core: usize, line: LineAddr, pc: VirtAddr, when: Cycle) {
        let _ = self.load_line(core, line, pc, true, when);
    }

    /// The platform's counters (the hierarchy's), to which a model adds its
    /// own.
    pub fn stats(&self) -> StatSet {
        self.hierarchy.stats()
    }
}
