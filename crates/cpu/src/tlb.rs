//! A fully-associative LRU translation lookaside buffer.
//!
//! §5.5 of the paper reports migration's side effect on address
//! translation: "D-TLB misses increase on average by 11% and 8% with
//! SLICC and SLICC-SW... I-TLB misses are within +/- 0.5% of the
//! baseline". Reproducing that statistic needs per-core TLBs whose
//! contents, like the L1s, are left behind on migration.

use slicc_cache::LruList;
use slicc_common::{Addr, FastHashMap};

/// Default page size (4 KiB).
pub const PAGE_BYTES: u64 = 4096;
/// Huge-page size (2 MiB), typical for DBMS code and buffer pools.
pub const HUGE_PAGE_BYTES: u64 = 2 * 1024 * 1024;

/// A fully-associative, LRU-replacement TLB.
///
/// # Example
///
/// ```
/// use slicc_cpu::Tlb;
/// use slicc_common::Addr;
///
/// let mut tlb = Tlb::new(4);
/// assert!(!tlb.access(Addr::new(0x1000)));   // cold miss
/// assert!(tlb.access(Addr::new(0x1fff)));    // same page: hit
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    /// Page number -> arena slot.
    map: FastHashMap<u64, usize>,
    lru: LruList,
    /// Arena slot -> page number.
    slot_page: Vec<u64>,
    free: Vec<usize>,
    page_bytes: u64,
    /// `log2(page_bytes)` when the page size is a power of two, so the
    /// per-access translation is a shift instead of a 64-bit divide.
    page_shift: Option<u32>,
    /// The page of the latest access, which is always resident and at
    /// the MRU end: a repeat needs no map lookup, and touching the MRU
    /// slot would be a no-op.
    mru_page: Option<u64>,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB with `entries` slots of 4 KiB pages.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        Tlb::with_page_bytes(entries, PAGE_BYTES)
    }

    /// Creates an empty TLB with an explicit page size (e.g.
    /// [`HUGE_PAGE_BYTES`] for code mapped with huge pages).
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `page_bytes` is zero.
    pub fn with_page_bytes(entries: usize, page_bytes: u64) -> Self {
        assert!(entries > 0, "TLB must have at least one entry");
        assert!(page_bytes > 0, "pages must be non-empty");
        let mut map = FastHashMap::default();
        map.reserve(entries);
        Tlb {
            map,
            lru: LruList::new(entries),
            slot_page: vec![0; entries],
            free: (0..entries).rev().collect(),
            page_bytes,
            page_shift: page_bytes.is_power_of_two().then(|| page_bytes.trailing_zeros()),
            mru_page: None,
            hits: 0,
            misses: 0,
        }
    }

    /// The page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Translates `addr`: returns whether the page was resident, filling
    /// it on miss.
    #[inline]
    pub fn access(&mut self, addr: Addr) -> bool {
        let page = match self.page_shift {
            Some(shift) => addr.raw() >> shift,
            None => addr.raw() / self.page_bytes,
        };
        if self.mru_page == Some(page) {
            self.hits += 1;
            return true;
        }
        self.access_page(page)
    }

    /// The lookup for a page other than the latest one.
    fn access_page(&mut self, page: u64) -> bool {
        self.mru_page = Some(page);
        if let Some(&slot) = self.map.get(&page) {
            self.lru.touch(slot);
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let victim = self.lru.pop_lru().expect("full TLB is non-empty");
                self.map.remove(&self.slot_page[victim]);
                victim
            }
        };
        self.slot_page[slot] = page;
        self.map.insert(page, slot);
        self.lru.push_mru(slot);
        false
    }

    /// Translation hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Translation misses (page walks) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resident page count.
    pub fn occupancy(&self) -> usize {
        self.map.len()
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.slot_page.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlb::HUGE_PAGE_BYTES;

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::new(8);
        assert!(!t.access(Addr::new(0)));
        assert!(t.access(Addr::new(100)));
        assert!(t.access(Addr::new(4095)));
        assert!(!t.access(Addr::new(4096)));
        assert_eq!(t.hits(), 2);
        assert_eq!(t.misses(), 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut t = Tlb::new(2);
        t.access(Addr::new(0)); // page 0
        t.access(Addr::new(PAGE_BYTES)); // page 1
        t.access(Addr::new(0)); // touch page 0
        t.access(Addr::new(2 * PAGE_BYTES)); // evicts page 1
        assert!(t.access(Addr::new(0)), "page 0 must survive");
        assert!(!t.access(Addr::new(PAGE_BYTES)), "page 1 was evicted");
    }

    #[test]
    fn occupancy_bounded() {
        let mut t = Tlb::new(4);
        for p in 0..100u64 {
            t.access(Addr::new(p * PAGE_BYTES));
            assert!(t.occupancy() <= 4);
        }
        assert_eq!(t.capacity(), 4);
        assert_eq!(t.misses(), 100);
    }

    #[test]
    fn working_set_within_capacity_stops_missing() {
        let mut t = Tlb::new(8);
        for _ in 0..10 {
            for p in 0..8u64 {
                t.access(Addr::new(p * PAGE_BYTES));
            }
        }
        assert_eq!(t.misses(), 8, "only cold misses");
        assert_eq!(t.hits(), 72);
    }

    #[test]
    fn huge_pages_cover_more_addresses() {
        let mut t = Tlb::with_page_bytes(2, crate::tlb::HUGE_PAGE_BYTES);
        assert!(!t.access(Addr::new(0)));
        assert!(t.access(Addr::new(HUGE_PAGE_BYTES - 1)));
        assert!(!t.access(Addr::new(HUGE_PAGE_BYTES)));
        assert_eq!(t.page_bytes(), HUGE_PAGE_BYTES);
    }

    #[test]
    fn mru_shortcut_matches_a_naive_lru_model() {
        for (entries, page_bytes) in [(1, PAGE_BYTES), (2, PAGE_BYTES), (8, 3000), (64, HUGE_PAGE_BYTES)] {
            let mut tlb = Tlb::with_page_bytes(entries, page_bytes);
            // Pages, most recent first.
            let mut model: Vec<u64> = Vec::new();
            let (mut hits, mut misses) = (0u64, 0u64);
            let mut rng = slicc_common::SplitMix64::new(0x71b ^ entries as u64);
            let mut addr = 0u64;
            for step in 0..50_000 {
                // Mostly same-page repeats, with near and far jumps.
                match rng.next_below(8) {
                    0 => addr = rng.next_below(96) * page_bytes + rng.next_below(page_bytes),
                    1 => addr = addr.saturating_add(page_bytes),
                    _ => addr = addr / page_bytes * page_bytes + rng.next_below(page_bytes),
                }
                let page = addr / page_bytes;
                let want = match model.iter().position(|&p| p == page) {
                    Some(i) => {
                        model.remove(i);
                        hits += 1;
                        true
                    }
                    None => {
                        model.truncate(entries - 1);
                        misses += 1;
                        false
                    }
                };
                model.insert(0, page);
                assert_eq!(tlb.access(Addr::new(addr)), want, "{entries} entries, step {step}");
            }
            assert_eq!((tlb.hits(), tlb.misses()), (hits, misses), "{entries} entries");
            assert_eq!(tlb.occupancy(), model.len());
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_panics() {
        let _ = Tlb::new(0);
    }
}
