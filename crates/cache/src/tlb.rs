//! A fully-associative translation look-aside buffer model.

use crate::config::TlbConfig;
use crate::stats::CacheStats;
use crate::zeroed::ArrayError;

/// A private, fully-associative TLB with LRU replacement.
///
/// Under MI6 the private TLBs are flushed on every enclave entry/exit together
/// with the L1 caches; under IRONHIDE they are only flushed when the tile is
/// re-allocated to the other cluster.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    entries: Vec<(u64, u64)>, // (virtual page number, last_use)
    tick: u64,
    stats: CacheStats,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the host cannot provide the entry array; callers that must
    /// survive an oversized geometry use [`Tlb::try_new`].
    pub fn new(config: TlbConfig) -> Self {
        Tlb::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates an empty TLB, reporting an entry array the host cannot
    /// provide as an [`ArrayError`].
    pub fn try_new(config: TlbConfig) -> Result<Self, ArrayError> {
        let mut entries = Vec::new();
        entries
            .try_reserve_exact(config.entries)
            .map_err(|_| ArrayError { len: config.entries, elem_bytes: size_of::<(u64, u64)>() })?;
        Ok(Tlb { config, entries, tick: 0, stats: CacheStats::new() })
    }

    /// The TLB geometry.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Access statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics without touching TLB contents.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Virtual page number of a virtual address.
    pub fn page_of(&self, vaddr: u64) -> u64 {
        vaddr / self.config.page_bytes as u64
    }

    /// Translates the page containing `vaddr`; returns `true` on a TLB hit and
    /// `false` on a miss (in which case the entry is filled and the caller
    /// charges a page-walk latency).
    pub fn access(&mut self, vaddr: u64) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        let vpn = self.page_of(vaddr);
        if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == vpn) {
            e.1 = self.tick;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if self.entries.len() == self.config.entries {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, last))| *last)
                .map(|(i, _)| i)
                .expect("TLB is non-empty when full");
            self.entries.swap_remove(victim);
            self.stats.evictions += 1;
        }
        self.entries.push((vpn, self.tick));
        false
    }

    /// Performs `count` accesses to the page containing `vaddr` — the bulk
    /// form the batched access engine uses for a page-run of references.
    ///
    /// The first access runs the full lookup/fill (and reports hit or miss);
    /// the remaining `count - 1` are guaranteed hits on the same entry, so
    /// they collapse into one tick/recency/statistics update. Byte-identical
    /// to `count` scalar [`Tlb::access`] calls with addresses in the page.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn access_page_run(&mut self, vaddr: u64, count: u64) -> bool {
        assert!(count > 0, "a page run must contain at least one access");
        let first_hit = self.access(vaddr);
        if count > 1 {
            let extra = count - 1;
            self.tick += extra;
            self.stats.accesses += extra;
            self.stats.hits += extra;
            let vpn = self.page_of(vaddr);
            let tick = self.tick;
            let entry = self
                .entries
                .iter_mut()
                .find(|(p, _)| *p == vpn)
                .expect("entry resident after the run's first access");
            entry.1 = tick;
        }
        first_hit
    }

    /// Checks whether the page containing `vaddr` is currently mapped, without
    /// updating recency or statistics.
    pub fn probe(&self, vaddr: u64) -> bool {
        let vpn = self.page_of(vaddr);
        self.entries.iter().any(|(p, _)| *p == vpn)
    }

    /// Flushes all entries (the purge operation). Returns the number of
    /// entries dropped.
    pub fn purge(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        self.stats.purges += 1;
        self.stats.flushed_lines += n as u64;
        n
    }

    /// Number of currently resident translations.
    pub fn resident(&self) -> usize {
        self.entries.len()
    }

    /// Resets the TLB to its just-constructed state (empty, statistics and
    /// recency clock zeroed), keeping the entry allocation. Used when a
    /// scratch machine is recycled.
    pub fn reset_pristine(&mut self) {
        self.entries.clear();
        self.tick = 0;
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> Tlb {
        Tlb::new(TlbConfig::new(4, 4096))
    }

    #[test]
    fn miss_then_hit_same_page() {
        let mut t = tlb();
        assert!(!t.access(0x1000));
        assert!(t.access(0x1ff8), "same 4K page must hit");
        assert!(!t.access(0x2000), "next page must miss");
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_when_full() {
        let mut t = tlb();
        for p in 0..4u64 {
            t.access(p * 4096);
        }
        t.access(0); // refresh page 0
        t.access(5 * 4096); // evicts page 1 (LRU)
        assert!(t.probe(0));
        assert!(!t.probe(4096));
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn purge_flushes_everything() {
        let mut t = tlb();
        for p in 0..3u64 {
            t.access(p * 4096);
        }
        assert_eq!(t.purge(), 3);
        assert_eq!(t.resident(), 0);
        assert_eq!(t.stats().purges, 1);
        assert!(!t.access(0), "post-purge access must miss");
    }

    #[test]
    fn page_run_matches_scalar_accesses() {
        let mut bulk = tlb();
        let mut scalar = tlb();
        // Fill with some pages first so recency interactions are non-trivial.
        for p in 0..3u64 {
            bulk.access(p * 4096);
            scalar.access(p * 4096);
        }
        let hit_bulk = bulk.access_page_run(5 * 4096 + 8, 6);
        let hit_scalar = scalar.access(5 * 4096 + 8);
        for _ in 0..5 {
            assert!(scalar.access(5 * 4096 + 200), "same-page re-touches must hit");
        }
        assert!(!hit_bulk);
        assert_eq!(hit_bulk, hit_scalar);
        assert_eq!(bulk.stats().accesses, scalar.stats().accesses);
        assert_eq!(bulk.stats().hits, scalar.stats().hits);
        assert_eq!(bulk.stats().misses, scalar.stats().misses);
        assert_eq!(bulk.stats().evictions, scalar.stats().evictions);
        // Recency end-state identical: the same next access evicts the same
        // victim in both.
        bulk.access(9 * 4096);
        scalar.access(9 * 4096);
        for p in [0u64, 2, 3, 5, 9] {
            assert_eq!(bulk.probe(p * 4096), scalar.probe(p * 4096), "page {p}");
        }
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut t = tlb();
        for p in 0..100u64 {
            t.access(p * 4096);
        }
        assert!(t.resident() <= 4);
    }
}
