//! The set-associative cache model.
//!
//! One [`Cache`] instance models one physical cache (an L1-I, an L1-D, or
//! one bank's worth of L2). It is a *functional* model — it answers
//! hit/miss and tracks contents; all timing lives in the simulator crates.
//! Fills happen on miss (allocate-on-miss), matching the paper's baseline.

use crate::policy::{Policy, PolicyKind};
use crate::stats::CacheStats;
use slicc_common::{BlockAddr, CacheGeometry};

/// Whether an access reads or writes the block (writes mark it dirty and,
/// at the coherence layer, demand exclusivity).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch or data load.
    Read,
    /// Data store.
    Write,
}

impl AccessKind {
    /// Whether this access is a store.
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// A valid block displaced by a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictedBlock {
    /// The displaced block's address.
    pub block: BlockAddr,
    /// Whether it held modified data (requires a write-back).
    pub dirty: bool,
}

/// Result of a demand access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupResult {
    /// The block was present.
    Hit,
    /// The block was absent; it has been installed, possibly displacing
    /// `evicted`.
    Miss {
        /// The valid block displaced by this fill, if any.
        evicted: Option<EvictedBlock>,
    },
}

impl LookupResult {
    /// Whether this access hit.
    pub const fn is_hit(self) -> bool {
        matches!(self, LookupResult::Hit)
    }

    /// Whether this access missed.
    pub const fn is_miss(self) -> bool {
        !self.is_hit()
    }

    /// The displaced block, if this was a miss that evicted one.
    pub fn evicted(self) -> Option<EvictedBlock> {
        match self {
            LookupResult::Hit => None,
            LookupResult::Miss { evicted } => evicted,
        }
    }
}

/// Where a resident block sits, as found by one [`Cache::probe`]. Valid
/// until the next operation that can change the cache's contents; hand
/// it back to [`Cache::hit_at`] to perform the demand hit without a
/// second tag scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WayHit {
    set: usize,
    way: usize,
    /// Whether the block held modified data when probed.
    pub dirty: bool,
}

/// A set-associative cache with a pluggable replacement policy.
///
/// # Example
///
/// ```
/// use slicc_cache::{AccessKind, Cache, PolicyKind};
/// use slicc_common::{BlockAddr, CacheGeometry};
///
/// let mut c = Cache::new(CacheGeometry::new(4096, 2, 64), PolicyKind::Lru, 0);
/// let b = BlockAddr::new(7);
/// assert!(c.access(b, AccessKind::Read).is_miss());
/// assert!(c.access(b, AccessKind::Read).is_hit());
/// assert!(c.contains(b));
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    geom: CacheGeometry,
    /// Flattened `num_sets * assoc` tag array.
    tags: Vec<u64>,
    /// Per-set bitmask of valid ways (bit `w` = way `w` holds a block).
    valid: Vec<u64>,
    /// Per-set bitmask of dirty ways.
    dirty: Vec<u64>,
    /// Mask with one bit per way (`assoc` low bits set).
    all_ways: u64,
    policy: Policy,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache. `seed` drives the stochastic insertion
    /// policies (BIP/BRRIP and their dueling parents); caches with the
    /// same seed behave identically.
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds 64 (one mask word per set).
    pub fn new(geom: CacheGeometry, policy: PolicyKind, seed: u64) -> Self {
        let sets = geom.num_sets() as usize;
        let assoc = geom.associativity() as usize;
        assert!(assoc <= 64, "way masks hold at most 64 ways, got {assoc}");
        Cache {
            geom,
            tags: vec![0; sets * assoc],
            valid: vec![0; sets],
            dirty: vec![0; sets],
            all_ways: if assoc == 64 { u64::MAX } else { (1u64 << assoc) - 1 },
            policy: Policy::new(policy, sets, assoc, seed),
            stats: CacheStats::default(),
        }
    }

    /// The cache's shape.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// The replacement policy in use.
    pub fn policy_kind(&self) -> PolicyKind {
        self.policy.kind()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Zeroes the statistics (contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn assoc(&self) -> usize {
        self.geom.associativity() as usize
    }

    /// Finds the way holding `block` in `set`, if present and valid.
    /// Scans only the valid ways, walking the set's mask bit by bit.
    #[inline]
    fn find_way(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.assoc();
        let mut live = self.valid[set];
        while live != 0 {
            let w = live.trailing_zeros() as usize;
            if self.tags[base + w] == tag {
                return Some(w);
            }
            live &= live - 1;
        }
        None
    }

    /// Performs a demand access: returns hit/miss and installs the block
    /// on miss (allocate-on-miss, for reads and writes alike).
    pub fn access(&mut self, block: BlockAddr, kind: AccessKind) -> LookupResult {
        match self.probe(block) {
            Some(hit) => {
                self.hit_at(hit, kind);
                LookupResult::Hit
            }
            None => self.miss_at(block, kind),
        }
    }

    /// Finds `block` with one tag scan, without changing any state.
    /// `Some` carries the way and its dirtiness for [`Cache::hit_at`].
    #[inline]
    pub fn probe(&self, block: BlockAddr) -> Option<WayHit> {
        let set = self.geom.set_index(block);
        let way = self.find_way(set, self.geom.tag(block))?;
        Some(WayHit { set, way, dirty: self.dirty[set] >> way & 1 != 0 })
    }

    /// The hit half of [`Cache::access`], on a way a probe just found:
    /// identical statistics, recency update and dirtying, no tag scan.
    #[inline]
    pub fn hit_at(&mut self, hit: WayHit, kind: AccessKind) {
        debug_assert!(self.valid[hit.set] >> hit.way & 1 != 0, "hit_at on a stale probe");
        self.stats.accesses += 1;
        self.stats.hits += 1;
        self.policy.on_hit(hit.set, hit.way);
        if kind.is_write() {
            self.dirty[hit.set] |= 1 << hit.way;
        }
    }

    /// The miss half of [`Cache::access`], for a block a probe just
    /// found absent: counts the miss and installs the block.
    pub fn miss_at(&mut self, block: BlockAddr, kind: AccessKind) -> LookupResult {
        debug_assert!(!self.contains(block), "miss_at on a resident block");
        let set = self.geom.set_index(block);
        self.stats.accesses += 1;
        self.stats.misses += 1;
        if kind.is_write() {
            self.stats.write_misses += 1;
        }
        self.policy.on_miss(set);
        let evicted = self.install(set, self.geom.tag(block), kind.is_write());
        LookupResult::Miss { evicted }
    }

    /// Installs a block without a demand access (prefetch fill). Returns
    /// the displaced block, if any; a no-op returning `None` when the
    /// block is already present.
    pub fn fill(&mut self, block: BlockAddr) -> Option<EvictedBlock> {
        let set = self.geom.set_index(block);
        let tag = self.geom.tag(block);
        if self.find_way(set, tag).is_some() {
            return None;
        }
        self.stats.prefetch_fills += 1;
        self.install(set, tag, false)
    }

    /// Picks a way (invalid first, else policy victim) and installs
    /// `(set, tag)` there.
    fn install(&mut self, set: usize, tag: u64, write: bool) -> Option<EvictedBlock> {
        let base = set * self.assoc();
        let vacant = !self.valid[set] & self.all_ways;
        let (way, evicted) = if vacant != 0 {
            (vacant.trailing_zeros() as usize, None)
        } else {
            let way = self.policy.choose_victim(set);
            let old = EvictedBlock {
                block: self.geom.block_from_parts(set, self.tags[base + way]),
                dirty: self.dirty[set] >> way & 1 != 0,
            };
            self.stats.evictions += 1;
            if old.dirty {
                self.stats.dirty_evictions += 1;
            }
            (way, Some(old))
        };
        self.tags[base + way] = tag;
        self.valid[set] |= 1 << way;
        if write {
            self.dirty[set] |= 1 << way;
        } else {
            self.dirty[set] &= !(1 << way);
        }
        self.policy.on_insert(set, way);
        evicted
    }

    /// Whether `block` is currently cached. No state change.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.find_way(self.geom.set_index(block), self.geom.tag(block)).is_some()
    }

    /// Removes `block` (coherence invalidation). Returns the block's state
    /// if it was present.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<EvictedBlock> {
        let set = self.geom.set_index(block);
        let way = self.find_way(set, self.geom.tag(block))?;
        let out = EvictedBlock { block, dirty: self.dirty[set] >> way & 1 != 0 };
        self.valid[set] &= !(1 << way);
        self.dirty[set] &= !(1 << way);
        self.stats.invalidations += 1;
        self.policy.on_invalidate(set, way);
        Some(out)
    }

    /// Marks `block` dirty if present (an inclusive outer cache absorbing
    /// a write-back from an inner cache). Returns whether it was present.
    pub fn mark_dirty(&mut self, block: BlockAddr) -> bool {
        let set = self.geom.set_index(block);
        if let Some(way) = self.find_way(set, self.geom.tag(block)) {
            self.dirty[set] |= 1 << way;
            true
        } else {
            false
        }
    }

    /// Downgrades `block` to clean (coherence: another core wants to read
    /// a dirty copy). Returns whether the block was present and dirty.
    pub fn clean(&mut self, block: BlockAddr) -> bool {
        let set = self.geom.set_index(block);
        if let Some(way) = self.find_way(set, self.geom.tag(block)) {
            let was_dirty = self.dirty[set] >> way & 1 != 0;
            self.dirty[set] &= !(1 << way);
            was_dirty
        } else {
            false
        }
    }

    /// Iterates the valid blocks of one set (used by the bloom signature's
    /// eviction-collision check).
    pub fn blocks_in_set(&self, set: usize) -> impl Iterator<Item = BlockAddr> + '_ {
        let base = set * self.assoc();
        let live = self.valid[set];
        (0..self.assoc())
            .filter(move |w| live >> w & 1 != 0)
            .map(move |w| self.geom.block_from_parts(set, self.tags[base + w]))
    }

    /// Iterates every valid block in the cache. O(num_blocks).
    pub fn blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        (0..self.geom.num_sets() as usize).flat_map(move |s| self.blocks_in_set(s))
    }

    /// Number of valid blocks currently resident.
    pub fn occupancy(&self) -> usize {
        self.valid.iter().map(|v| v.count_ones() as usize).sum()
    }

    /// Invalidates everything (does not count as coherence invalidations).
    pub fn flush(&mut self) {
        for set in 0..self.valid.len() {
            let mut live = self.valid[set];
            while live != 0 {
                let way = live.trailing_zeros() as usize;
                self.policy.on_invalidate(set, way);
                live &= live - 1;
            }
            self.valid[set] = 0;
            self.dirty[set] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(policy: PolicyKind) -> Cache {
        // 2 sets x 2 ways of 64 B blocks.
        Cache::new(CacheGeometry::new(256, 2, 64), policy, 1)
    }

    fn is_dirty(c: &Cache, b: BlockAddr) -> bool {
        c.probe(b).is_some_and(|hit| hit.dirty)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache(PolicyKind::Lru);
        let b = BlockAddr::new(4);
        assert!(c.access(b, AccessKind::Read).is_miss());
        assert!(c.access(b, AccessKind::Read).is_hit());
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn eviction_reports_displaced_block() {
        let mut c = small_cache(PolicyKind::Lru);
        // Blocks 0, 2, 4 all map to set 0 (even block numbers, 2 sets).
        let (b0, b2, b4) = (BlockAddr::new(0), BlockAddr::new(2), BlockAddr::new(4));
        c.access(b0, AccessKind::Read);
        c.access(b2, AccessKind::Read);
        let res = c.access(b4, AccessKind::Read);
        assert_eq!(res.evicted(), Some(EvictedBlock { block: b0, dirty: false }));
        assert!(!c.contains(b0));
        assert!(c.contains(b2) && c.contains(b4));
    }

    #[test]
    fn lru_keeps_recently_used_block() {
        let mut c = small_cache(PolicyKind::Lru);
        let (b0, b2, b4) = (BlockAddr::new(0), BlockAddr::new(2), BlockAddr::new(4));
        c.access(b0, AccessKind::Read);
        c.access(b2, AccessKind::Read);
        c.access(b0, AccessKind::Read); // promote b0
        let res = c.access(b4, AccessKind::Read);
        assert_eq!(res.evicted().unwrap().block, b2);
    }

    #[test]
    fn writes_mark_dirty_and_evictions_report_it() {
        let mut c = small_cache(PolicyKind::Lru);
        let (b0, b2, b4) = (BlockAddr::new(0), BlockAddr::new(2), BlockAddr::new(4));
        c.access(b0, AccessKind::Write);
        assert!(is_dirty(&c, b0));
        c.access(b2, AccessKind::Read);
        let res = c.access(b4, AccessKind::Read);
        assert_eq!(res.evicted(), Some(EvictedBlock { block: b0, dirty: true }));
        assert_eq!(c.stats().dirty_evictions, 1);
        assert_eq!(c.stats().write_misses, 1);
    }

    #[test]
    fn write_hit_dirties_clean_block() {
        let mut c = small_cache(PolicyKind::Lru);
        let b = BlockAddr::new(0);
        c.access(b, AccessKind::Read);
        assert!(!is_dirty(&c, b));
        c.access(b, AccessKind::Write);
        assert!(is_dirty(&c, b));
    }

    #[test]
    fn invalidate_removes_block() {
        let mut c = small_cache(PolicyKind::Lru);
        let b = BlockAddr::new(0);
        c.access(b, AccessKind::Write);
        let out = c.invalidate(b);
        assert_eq!(out, Some(EvictedBlock { block: b, dirty: true }));
        assert!(!c.contains(b));
        assert_eq!(c.invalidate(b), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn clean_downgrades_dirty_block() {
        let mut c = small_cache(PolicyKind::Lru);
        let b = BlockAddr::new(0);
        c.access(b, AccessKind::Write);
        assert!(c.clean(b));
        assert!(c.contains(b));
        assert!(!is_dirty(&c, b));
        assert!(!c.clean(b)); // already clean
        assert!(!c.clean(BlockAddr::new(99))); // absent
    }

    #[test]
    fn fill_installs_without_demand_stats() {
        let mut c = small_cache(PolicyKind::Lru);
        let b = BlockAddr::new(0);
        assert!(c.fill(b).is_none());
        assert_eq!(c.stats().accesses, 0);
        assert_eq!(c.stats().prefetch_fills, 1);
        assert!(c.access(b, AccessKind::Read).is_hit());
        // Filling a resident block is a no-op.
        assert!(c.fill(b).is_none());
        assert_eq!(c.stats().prefetch_fills, 1);
    }

    #[test]
    fn occupancy_and_blocks_iteration() {
        let mut c = small_cache(PolicyKind::Lru);
        for raw in [0u64, 1, 2, 3] {
            c.access(BlockAddr::new(raw), AccessKind::Read);
        }
        assert_eq!(c.occupancy(), 4);
        let mut all: Vec<_> = c.blocks().map(|b| b.raw()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
        let set0: Vec<_> = c.blocks_in_set(0).map(|b| b.raw()).collect();
        assert_eq!(set0.len(), 2);
        assert!(set0.iter().all(|r| r % 2 == 0));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = small_cache(PolicyKind::Lru);
        c.access(BlockAddr::new(0), AccessKind::Write);
        c.access(BlockAddr::new(1), AccessKind::Read);
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.contains(BlockAddr::new(0)));
        // Flush is not a coherence invalidation.
        assert_eq!(c.stats().invalidations, 0);
    }

    #[test]
    fn never_exceeds_associativity_per_set() {
        let mut c = small_cache(PolicyKind::Srrip);
        for raw in 0..100u64 {
            c.access(BlockAddr::new(raw), AccessKind::Read);
        }
        assert_eq!(c.occupancy(), 4); // 2 sets x 2 ways
        for set in 0..2 {
            assert!(c.blocks_in_set(set).count() <= 2);
        }
    }

    #[test]
    fn blocks_land_in_their_indexed_set() {
        let mut c = Cache::new(CacheGeometry::new(32 * 1024, 8, 64), PolicyKind::Lru, 0);
        let b = BlockAddr::new(0x1234);
        c.access(b, AccessKind::Read);
        let set = c.geometry().set_index(b);
        assert!(c.blocks_in_set(set).any(|x| x == b));
    }

    #[test]
    fn probe_then_hit_at_matches_access_for_every_policy() {
        for kind in PolicyKind::ALL {
            let geom = CacheGeometry::new(2048, 4, 64); // 8 sets x 4 ways
            let mut reference = Cache::new(geom, kind, 11);
            let mut split = Cache::new(geom, kind, 11);
            // Blocks written since they were last installed clean.
            let mut dirty = std::collections::HashSet::new();
            let mut rng = slicc_common::SplitMix64::new(0x9b0be ^ kind as u64);
            for step in 0..20_000 {
                // 64 blocks over 32 lines: a mix of hits, misses and evictions.
                let block = BlockAddr::new(rng.next_below(64));
                let kind_rw = if rng.chance(0.3) { AccessKind::Write } else { AccessKind::Read };
                let probe = split.probe(block);
                assert_eq!(probe.is_some(), reference.contains(block), "{kind} step {step}");
                if let Some(hit) = probe {
                    assert_eq!(hit.dirty, dirty.contains(&block), "{kind} step {step}");
                }
                let want = reference.access(block, kind_rw);
                let got = match probe {
                    Some(hit) => {
                        split.hit_at(hit, kind_rw);
                        LookupResult::Hit
                    }
                    None => split.miss_at(block, kind_rw),
                };
                assert_eq!(got, want, "{kind} step {step}");
                if let Some(ev) = want.evicted() {
                    assert_eq!(ev.dirty, dirty.remove(&ev.block), "{kind} step {step}");
                }
                if kind_rw.is_write() {
                    dirty.insert(block);
                }
            }
            assert_eq!(split.stats(), reference.stats(), "{kind}");
            let contents = |c: &Cache| {
                let mut v: Vec<_> = c.blocks().map(|b| (b.raw(), is_dirty(c, b))).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(contents(&split), contents(&reference), "{kind}");
        }
    }

    #[test]
    fn all_policies_function_under_thrash() {
        for kind in PolicyKind::ALL {
            let mut c = Cache::new(CacheGeometry::new(4096, 4, 64), kind, 3);
            // Working set of 3x capacity, cycled 10 times.
            let blocks: Vec<_> = (0..192u64).map(BlockAddr::new).collect();
            for _ in 0..10 {
                for &b in &blocks {
                    c.access(b, AccessKind::Read);
                }
            }
            let s = c.stats();
            assert_eq!(s.accesses, 1920, "{kind}");
            assert_eq!(s.hits + s.misses, s.accesses, "{kind}");
            assert!(c.occupancy() <= 64, "{kind}");
            // Thrash-resistant policies (BIP/BRRIP families) must beat or
            // match plain LRU's zero hits on a cyclic over-capacity sweep.
            if matches!(kind, PolicyKind::Lru) {
                assert_eq!(s.hits, 0, "LRU gets no hits on cyclic thrash");
            }
            if matches!(kind, PolicyKind::Bip | PolicyKind::Brrip | PolicyKind::Dip | PolicyKind::Drrip) {
                assert!(s.hits > 0, "{kind} should retain part of the working set");
            }
        }
    }
}
