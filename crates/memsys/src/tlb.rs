//! Translation look-aside buffers and a simple page-table abstraction.
//!
//! Each core has split instruction/data TLBs (Table 1: 64-entry, fully
//! associative). A TLB miss costs a fixed walk latency; the walker's cache
//! accesses are accounted by the hierarchy via a synthetic page-table address
//! so that walks touch the caches, which §4.7 of the paper discusses.
//!
//! The MuonTrap *filter TLB* lives in the `muontrap` crate and wraps one of
//! these TLBs; this module is the non-speculative substrate.

use std::collections::HashMap;

use simkit::addr::{PhysAddr, VirtAddr};

/// A per-process page table.
///
/// The default mapping places each process at a fixed physical offset so that
/// distinct processes never alias, and lets the OS model add explicit shared
/// mappings (used for attacker/victim shared memory in the litmus tests).
#[derive(Debug, Clone)]
pub struct PageTable {
    page_bytes: u64,
    phys_offset: u64,
    shared: HashMap<u64, u64>,
}

impl PageTable {
    /// Creates a page table whose default mapping is `pa = va + phys_offset`.
    ///
    /// # Panics
    /// Panics if `page_bytes` is not a power of two or `phys_offset` is not
    /// page aligned.
    pub fn new(page_bytes: u64, phys_offset: u64) -> Self {
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        assert_eq!(
            phys_offset % page_bytes,
            0,
            "physical offset must be page aligned"
        );
        PageTable {
            page_bytes,
            phys_offset,
            shared: HashMap::new(),
        }
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Maps virtual page `vpn` to physical page `ppn` explicitly (shared
    /// memory between processes is built from identical `ppn`s).
    pub fn map_shared(&mut self, vpn: u64, ppn: u64) {
        self.shared.insert(vpn, ppn);
    }

    /// Translates a virtual address to a physical address.
    pub fn translate(&self, va: VirtAddr) -> PhysAddr {
        let vpn = va.page_number(self.page_bytes);
        let offset = va.page_offset(self.page_bytes);
        let ppn = self
            .shared
            .get(&vpn)
            .copied()
            .unwrap_or(vpn + self.phys_offset / self.page_bytes);
        PhysAddr::new(ppn * self.page_bytes + offset)
    }

    /// Translates a virtual page number to a physical page number.
    pub fn translate_page(&self, vpn: u64) -> u64 {
        self.shared
            .get(&vpn)
            .copied()
            .unwrap_or(vpn + self.phys_offset / self.page_bytes)
    }

    /// A synthetic physical address representing the page-table entry for
    /// `vpn`, used so hardware walks touch the cache hierarchy.
    pub fn pte_phys_addr(&self, vpn: u64) -> PhysAddr {
        // Page tables live in a dedicated physical region above 1 TiB so they
        // never collide with data.
        PhysAddr::new((1 << 40) + self.phys_offset + vpn * 8)
    }
}

/// Outcome of a TLB access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbAccess {
    /// The translated physical page number.
    pub ppn: u64,
    /// Whether the translation was already cached.
    pub hit: bool,
}

/// A fully-associative TLB with LRU replacement.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<(u64, u64, u64)>, // (vpn, ppn, lru)
    capacity: usize,
    tick: u64,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        Tlb {
            entries: Vec::new(),
            capacity: capacity.max(1),
            tick: 0,
        }
    }

    /// Number of cached translations.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Looks up `vpn` without filling on a miss or updating LRU.
    pub fn peek(&self, vpn: u64) -> Option<u64> {
        self.entries
            .iter()
            .find(|(v, _, _)| *v == vpn)
            .map(|(_, p, _)| *p)
    }

    /// Looks up `vpn`, consulting `page_table` and filling the TLB on a miss.
    pub fn access(&mut self, vpn: u64, page_table: &PageTable) -> TlbAccess {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.entries.iter_mut().find(|(v, _, _)| *v == vpn) {
            entry.2 = tick;
            return TlbAccess {
                ppn: entry.1,
                hit: true,
            };
        }
        let ppn = page_table.translate_page(vpn);
        self.fill(vpn, ppn);
        TlbAccess { ppn, hit: false }
    }

    /// Inserts a translation, evicting the LRU entry if full.
    pub fn fill(&mut self, vpn: u64, ppn: u64) {
        self.tick += 1;
        if let Some(entry) = self.entries.iter_mut().find(|(v, _, _)| *v == vpn) {
            entry.1 = ppn;
            entry.2 = self.tick;
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

    /// Invalidates every entry (context switch).
    pub fn flush(&mut self) {
        self.entries.clear();
    }
}

/// Result of translating an address through an [`Mmu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The physical address.
    pub paddr: PhysAddr,
    /// Extra cycles spent on translation (zero on a TLB hit with zero-latency
    /// TLBs; the walk latency on a miss).
    pub latency: u64,
    /// Whether a page-table walk was required.
    pub walked: bool,
    /// The virtual page number that was translated (for filter-TLB tracking).
    pub vpn: u64,
}

/// Per-core memory-management unit: split instruction/data TLBs in front of a
/// process page table. The defenses own one of these per core; the OS model
/// swaps the page table on context switches.
#[derive(Debug, Clone)]
pub struct Mmu {
    itlb: Tlb,
    dtlb: Tlb,
    page_table: PageTable,
    hit_latency: u64,
    walk_latency: u64,
}

impl Mmu {
    /// Creates an MMU from the TLB configuration, initially mapping through
    /// `page_table`.
    pub fn new(config: &simkit::config::TlbConfig, page_table: PageTable) -> Self {
        Mmu {
            itlb: Tlb::new(config.entries),
            dtlb: Tlb::new(config.entries),
            page_table,
            hit_latency: config.hit_latency,
            walk_latency: config.walk_latency,
        }
    }

    /// Replaces the page table (context switch) and flushes both TLBs.
    pub fn set_page_table(&mut self, page_table: PageTable) {
        self.page_table = page_table;
        self.itlb.flush();
        self.dtlb.flush();
    }

    /// The page table currently installed.
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Translates a data address.
    pub fn translate_data(&mut self, va: VirtAddr) -> Translation {
        Self::translate_with(
            &mut self.dtlb,
            &self.page_table,
            va,
            self.hit_latency,
            self.walk_latency,
        )
    }

    /// Translates an instruction address.
    pub fn translate_inst(&mut self, va: VirtAddr) -> Translation {
        Self::translate_with(
            &mut self.itlb,
            &self.page_table,
            va,
            self.hit_latency,
            self.walk_latency,
        )
    }

    /// Translates a data address *without* filling the main data TLB on a
    /// miss. MuonTrap uses this for speculative accesses whose translations
    /// must go to the filter TLB instead (§4.7).
    pub fn translate_data_no_fill(&mut self, va: VirtAddr) -> Translation {
        let vpn = va.page_number(self.page_table.page_bytes());
        let offset = va.page_offset(self.page_table.page_bytes());
        if let Some(ppn) = self.dtlb.peek(vpn) {
            return Translation {
                paddr: PhysAddr::new(ppn * self.page_table.page_bytes() + offset),
                latency: self.hit_latency,
                walked: false,
                vpn,
            };
        }
        let ppn = self.page_table.translate_page(vpn);
        Translation {
            paddr: PhysAddr::new(ppn * self.page_table.page_bytes() + offset),
            latency: self.walk_latency,
            walked: true,
            vpn,
        }
    }

    /// Installs a translation for `vpn` into the main data TLB (used when a
    /// speculative filter-TLB entry commits).
    pub fn fill_data_tlb(&mut self, vpn: u64) {
        let ppn = self.page_table.translate_page(vpn);
        self.dtlb.fill(vpn, ppn);
    }

    fn translate_with(
        tlb: &mut Tlb,
        page_table: &PageTable,
        va: VirtAddr,
        hit_latency: u64,
        walk_latency: u64,
    ) -> Translation {
        let vpn = va.page_number(page_table.page_bytes());
        let offset = va.page_offset(page_table.page_bytes());
        let access = tlb.access(vpn, page_table);
        let latency = if access.hit {
            hit_latency
        } else {
            walk_latency
        };
        Translation {
            paddr: PhysAddr::new(access.ppn * page_table.page_bytes() + offset),
            latency,
            walked: !access.hit,
            vpn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt() -> PageTable {
        PageTable::new(4096, 0x1000_0000)
    }

    #[test]
    fn default_mapping_adds_offset() {
        let table = pt();
        let pa = table.translate(VirtAddr::new(0x2345));
        assert_eq!(pa.raw(), 0x1000_0000 + 0x2345);
    }

    #[test]
    fn shared_mappings_override_default() {
        let mut table = pt();
        table.map_shared(4, 999);
        let pa = table.translate(VirtAddr::new(4 * 4096 + 12));
        assert_eq!(pa.raw(), 999 * 4096 + 12);
    }

    #[test]
    fn two_tables_with_same_shared_page_alias() {
        let mut a = PageTable::new(4096, 0x1000_0000);
        let mut b = PageTable::new(4096, 0x2000_0000);
        a.map_shared(10, 5000);
        b.map_shared(77, 5000);
        assert_eq!(
            a.translate(VirtAddr::new(10 * 4096)),
            b.translate(VirtAddr::new(77 * 4096))
        );
    }

    #[test]
    fn tlb_hits_after_fill() {
        let table = pt();
        let mut tlb = Tlb::new(4);
        let first = tlb.access(7, &table);
        assert!(!first.hit);
        let second = tlb.access(7, &table);
        assert!(second.hit);
        assert_eq!(first.ppn, second.ppn);
    }

    #[test]
    fn tlb_evicts_lru_when_full() {
        let table = pt();
        let mut tlb = Tlb::new(2);
        tlb.access(1, &table);
        tlb.access(2, &table);
        tlb.access(1, &table); // refresh 1; 2 becomes LRU
        tlb.access(3, &table); // evicts 2
        assert!(tlb.peek(1).is_some());
        assert!(tlb.peek(2).is_none());
        assert!(tlb.peek(3).is_some());
    }

    #[test]
    fn flush_empties_the_tlb() {
        let table = pt();
        let mut tlb = Tlb::new(4);
        tlb.access(1, &table);
        tlb.flush();
        assert_eq!(tlb.occupancy(), 0);
        assert!(!tlb.access(1, &table).hit);
    }

    #[test]
    fn pte_addresses_are_distinct_per_page() {
        let table = pt();
        assert_ne!(table.pte_phys_addr(1), table.pte_phys_addr(2));
        assert!(table.pte_phys_addr(1).raw() >= 1 << 40);
    }

    #[test]
    #[should_panic]
    fn misaligned_offset_panics() {
        let _ = PageTable::new(4096, 100);
    }

    fn mmu() -> Mmu {
        let cfg = simkit::config::SystemConfig::paper_default();
        Mmu::new(&cfg.tlb, pt())
    }

    #[test]
    fn mmu_translation_charges_walk_then_hits() {
        let mut m = mmu();
        let first = m.translate_data(VirtAddr::new(0x5000));
        assert!(first.walked);
        assert!(first.latency > 0);
        let second = m.translate_data(VirtAddr::new(0x5008));
        assert!(!second.walked);
        assert_eq!(second.paddr.raw(), first.paddr.raw() + 8);
    }

    #[test]
    fn mmu_instruction_and_data_tlbs_are_split() {
        let mut m = mmu();
        let _ = m.translate_inst(VirtAddr::new(0x40_0000));
        // The same page translated on the data side must still walk.
        let d = m.translate_data(VirtAddr::new(0x40_0000));
        assert!(d.walked);
    }

    #[test]
    fn mmu_no_fill_translation_leaves_dtlb_cold() {
        let mut m = mmu();
        let t = m.translate_data_no_fill(VirtAddr::new(0x7000));
        assert!(t.walked);
        // The main TLB was not filled, so a normal translation still walks.
        assert!(m.translate_data(VirtAddr::new(0x7000)).walked);
        // After an explicit fill it hits.
        m.fill_data_tlb(t.vpn);
        assert!(!m.translate_data(VirtAddr::new(0x7000)).walked);
    }

    #[test]
    fn mmu_page_table_swap_flushes_tlbs() {
        let mut m = mmu();
        let _ = m.translate_data(VirtAddr::new(0x5000));
        m.set_page_table(PageTable::new(4096, 0x2000_0000));
        let t = m.translate_data(VirtAddr::new(0x5000));
        assert!(t.walked);
        assert_eq!(t.paddr.raw(), 0x2000_0000 + 0x5000);
    }
}
