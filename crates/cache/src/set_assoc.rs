//! A functional set-associative cache with LRU replacement.
//!
//! Storage is a single contiguous array of 24-byte [`Way`]s indexed by
//! `set * ways + way` (no per-set inner vectors), set/tag extraction uses
//! shift/mask when the geometry is a power of two, and LRU victim selection
//! reads the way metadata in place — so a steady-state access performs
//! **zero heap allocations**.

use crate::config::CacheConfig;
use crate::replacement::lru_victim;
use crate::stats::CacheStats;
use crate::zeroed::{ArrayError, ZeroedArray};

/// A line evicted by a fill or flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Physical address of the first byte of the evicted line.
    pub addr: u64,
    /// Whether the line was dirty (and therefore needs a write-back).
    pub dirty: bool,
}

/// The outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent; it has been filled, possibly evicting a victim.
    Miss {
        /// The victim line displaced by the fill, if the set was full.
        evicted: Option<Evicted>,
    },
}

impl AccessOutcome {
    /// Whether this outcome is a hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }

    /// Whether this outcome is a miss.
    pub fn is_miss(&self) -> bool {
        !self.is_hit()
    }

    /// The evicted victim, if any.
    pub fn evicted(&self) -> Option<Evicted> {
        match self {
            AccessOutcome::Hit => None,
            AccessOutcome::Miss { evicted } => *evicted,
        }
    }
}

/// Metadata of one way of a set: validity, dirtiness, MESI sharing, the
/// liveness generation, the tag and the LRU recency stamp — 24 bytes, so a
/// paper-scale machine's 294,912 ways (64 tiles × (512 L1 + 4,096 L2))
/// take 7.08 MB.
#[derive(Debug, Clone, Copy, Default)]
pub struct Way {
    pub(crate) valid: bool,
    pub(crate) dirty: bool,
    /// MESI Shared bit, maintained by the coherence controller of the level
    /// this cache models (the machine's directory layer for private L1s):
    /// `true` means other caches may hold the line, so a write hit must
    /// perform a directory upgrade before it may complete. Together with
    /// `valid` and `dirty` this encodes the full MESI state of the line:
    /// invalid (`!valid`), Shared (`shared`), Exclusive (`!shared && !dirty`)
    /// and Modified (`!shared && dirty`). Non-coherent uses of the cache
    /// (L2 slices, the TLB model) simply leave it `false`.
    pub(crate) shared: bool,
    /// Generation the way was filled in; a way is *live* only when its
    /// generation matches the cache's. Bumping the cache generation
    /// therefore invalidates every line in O(1) — the purge operation —
    /// without touching the way array. Packs into the padding after the
    /// flags.
    pub(crate) generation: u32,
    pub(crate) tag: u64,
    pub(crate) last_use: u64,
}

const _: () = assert!(size_of::<Way>() == 24);

impl Way {
    /// The line's tag.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Monotonic stamp of the last access (LRU input).
    pub fn last_use(&self) -> u64 {
        self.last_use
    }

    /// A valid way with the given recency stamp (for victim tests).
    #[cfg(test)]
    pub(crate) fn stamped(last_use: u64) -> Self {
        Way { valid: true, dirty: false, shared: false, generation: 0, tag: 0, last_use }
    }
}

/// How set index and tag are carved out of an address. Power-of-two
/// geometries (the only ones [`CacheConfig::new`] admits) use shift/mask; the
/// div/mod fallback keeps directly-constructed odd geometries working.
#[derive(Debug, Clone, Copy)]
enum IndexScheme {
    /// `line = addr >> line_shift`, `index = line & set_mask`,
    /// `tag = line >> set_shift`.
    Pow2 { line_shift: u32, set_mask: u64, set_shift: u32 },
    /// General division/remainder form.
    Generic { line_bytes: u64, sets: u64 },
}

/// A functional set-associative cache.
///
/// The cache tracks tags, validity and dirtiness only — no data payloads —
/// which is all the timing model needs. All operations are O(associativity).
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// All ways of all sets, contiguous: way `w` of set `s` lives at
    /// `s * config.ways + w`. Zeroed at birth, so sets a run never fills
    /// are never committed.
    ways: ZeroedArray<Way>,
    scheme: IndexScheme,
    tick: u64,
    stats: CacheStats,
    /// Valid lines currently resident, maintained incrementally so purges and
    /// occupancy queries never walk the way array.
    valid_count: usize,
    /// Valid dirty lines currently resident, maintained incrementally.
    dirty_count: usize,
    /// Current fill generation (see [`Way::generation`]). Ways from older
    /// generations are dead whatever their `valid` flag says.
    generation: u32,
}

impl SetAssocCache {
    /// Creates an empty cache with LRU replacement.
    ///
    /// # Panics
    ///
    /// Panics if the host cannot provide the way array; callers that must
    /// survive an oversized geometry use [`SetAssocCache::try_new`].
    pub fn new(config: CacheConfig) -> Self {
        SetAssocCache::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates an empty cache with LRU replacement, reporting a way array
    /// the host cannot provide as an [`ArrayError`].
    pub fn try_new(config: CacheConfig) -> Result<Self, ArrayError> {
        let sets = config.sets();
        let scheme = if config.line_bytes.is_power_of_two() && sets.is_power_of_two() {
            IndexScheme::Pow2 {
                line_shift: config.line_bytes.trailing_zeros(),
                set_mask: sets as u64 - 1,
                set_shift: sets.trailing_zeros(),
            }
        } else {
            IndexScheme::Generic { line_bytes: config.line_bytes as u64, sets: sets as u64 }
        };
        Ok(SetAssocCache {
            config,
            ways: ZeroedArray::new(sets * config.ways)?,
            scheme,
            tick: 0,
            stats: CacheStats::new(),
            valid_count: 0,
            dirty_count: 0,
            generation: 0,
        })
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Access statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    #[inline]
    fn index_and_tag(&self, addr: u64) -> (usize, u64) {
        match self.scheme {
            IndexScheme::Pow2 { line_shift, set_mask, set_shift } => {
                let line = addr >> line_shift;
                ((line & set_mask) as usize, line >> set_shift)
            }
            IndexScheme::Generic { line_bytes, sets } => {
                let line = addr / line_bytes;
                ((line % sets) as usize, line / sets)
            }
        }
    }

    #[inline]
    fn line_addr(&self, index: usize, tag: u64) -> u64 {
        match self.scheme {
            IndexScheme::Pow2 { line_shift, set_mask: _, set_shift } => {
                ((tag << set_shift) | index as u64) << line_shift
            }
            IndexScheme::Generic { line_bytes, sets } => (tag * sets + index as u64) * line_bytes,
        }
    }

    /// The ways of set `index` as a contiguous slice.
    #[inline]
    fn set(&self, index: usize) -> &[Way] {
        let base = index * self.config.ways;
        &self.ways[base..base + self.config.ways]
    }

    /// Whether `w` holds a line of the current generation.
    #[inline]
    fn live(&self, w: &Way) -> bool {
        w.valid && w.generation == self.generation
    }

    /// Looks up `addr` without modifying any state (no LRU update, no stats).
    pub fn probe(&self, addr: u64) -> bool {
        self.find_way(addr).is_some()
    }

    /// Performs a read (`write == false`) or write (`write == true`) access to
    /// the line containing `addr`, filling it on a miss.
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        self.access_coherent(addr, write).0
    }

    /// Like [`SetAssocCache::access`], but also reports the coherence
    /// pre-state the machine's directory layer needs: whether the access
    /// **hit** a line that was in the MESI Shared state. A write hit on a
    /// Shared line is precisely the case that must perform a directory
    /// write-upgrade (invalidate the other sharers) before the write is
    /// architecturally complete; all other hits and every miss return
    /// `false` (misses negotiate their fill state with the directory
    /// afterwards, via [`SetAssocCache::set_line_shared`]).
    pub fn access_coherent(&mut self, addr: u64, write: bool) -> (AccessOutcome, bool) {
        self.tick += 1;
        self.stats.accesses += 1;
        let (index, tag) = self.index_and_tag(addr);
        let (outcome, was_shared) = self.access_at(index, tag, write);
        match outcome {
            AccessOutcome::Hit => self.stats.hits += 1,
            AccessOutcome::Miss { evicted } => {
                self.stats.misses += 1;
                if let Some(ev) = evicted {
                    self.stats.evictions += 1;
                    if ev.dirty {
                        self.stats.writebacks += 1;
                    }
                }
            }
        }
        (outcome, was_shared)
    }

    /// The access algorithm behind [`SetAssocCache::access_coherent`]:
    /// lookup/fill at a precomputed `(index, tag)`, updating way metadata
    /// and the resident-line counters but **not** the access/hit/miss
    /// statistics (the caller accounts those). The second return is the hit
    /// line's pre-access Shared bit (`false` for misses).
    #[inline]
    fn access_at(&mut self, index: usize, tag: u64, write: bool) -> (AccessOutcome, bool) {
        let assoc = self.config.ways;
        let tick = self.tick;
        let generation = self.generation;
        let base = index * assoc;
        let set = &mut self.ways[base..base + assoc];
        if let Some(way) =
            set.iter_mut().find(|w| w.valid && w.generation == generation && w.tag == tag)
        {
            let was_shared = way.shared;
            way.last_use = tick;
            if write && !way.dirty {
                way.dirty = true;
                self.dirty_count += 1;
            }
            return (AccessOutcome::Hit, was_shared);
        }
        // Fill: find a dead way, otherwise evict the LRU way, chosen
        // directly from the way metadata (no temporary stamp vectors).
        let victim_idx = match set.iter().position(|w| !(w.valid && w.generation == generation)) {
            Some(i) => i,
            None => lru_victim(set, Way::last_use),
        };
        let victim = set[victim_idx];
        let evicted = if victim.valid && victim.generation == generation {
            if victim.dirty {
                self.dirty_count -= 1;
            }
            Some(Evicted { addr: self.line_addr(index, victim.tag), dirty: victim.dirty })
        } else {
            self.valid_count += 1;
            None
        };
        if write {
            self.dirty_count += 1;
        }
        // Fills start in the exclusive-side states (Modified for writes,
        // Exclusive for reads); the directory layer flips the line to Shared
        // afterwards when other caches hold it.
        self.ways[base + victim_idx] =
            Way { valid: true, dirty: write, shared: false, generation, tag, last_use: tick };
        (AccessOutcome::Miss { evicted }, false)
    }

    /// Performs `count` accesses to the single line containing `addr` — the
    /// bulk form of a stride-0 (or sub-line-stride) run. The first access
    /// runs the full lookup/fill; the remaining `count - 1` are guaranteed
    /// hits on the same way, so they collapse into one recency/statistics
    /// update. Byte-identical to `count` scalar [`SetAssocCache::access`]
    /// calls to addresses within the line. The second return is the first
    /// access's pre-state Shared bit (see
    /// [`SetAssocCache::access_coherent`]); the collapsed extras can never
    /// need an upgrade because the first access already owns the line.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn access_line_run(&mut self, addr: u64, count: u64, write: bool) -> (AccessOutcome, bool) {
        assert!(count > 0, "a line run must contain at least one access");
        let first = self.access_coherent(addr, write);
        if count > 1 {
            let extra = count - 1;
            self.tick += extra;
            self.stats.accesses += extra;
            self.stats.hits += extra;
            // The line is resident after the first access; if `write`, the
            // first access already marked it dirty, so only the recency stamp
            // needs the final tick value.
            let (index, tag) = self.index_and_tag(addr);
            let base = index * self.config.ways;
            let tick = self.tick;
            let generation = self.generation;
            let way = self.ways[base..base + self.config.ways]
                .iter_mut()
                .find(|w| w.valid && w.generation == generation && w.tag == tag)
                .expect("line resident after the run's first access");
            way.last_use = tick;
        }
        first
    }

    /// The live way holding the line containing `addr`, if resident — the
    /// one lookup (`index_and_tag` → set slice → liveness + tag match) every
    /// line-granular operation shares, so the liveness predicate lives in
    /// exactly one place.
    #[inline]
    fn find_way_mut(&mut self, addr: u64) -> Option<&mut Way> {
        let (index, tag) = self.index_and_tag(addr);
        let generation = self.generation;
        let base = index * self.config.ways;
        self.ways[base..base + self.config.ways]
            .iter_mut()
            .find(|w| w.valid && w.generation == generation && w.tag == tag)
    }

    /// Read-only form of [`SetAssocCache::find_way_mut`].
    #[inline]
    fn find_way(&self, addr: u64) -> Option<&Way> {
        let (index, tag) = self.index_and_tag(addr);
        self.set(index).iter().find(|w| self.live(w) && w.tag == tag)
    }

    /// Invalidates the line containing `addr` if present, returning it.
    pub fn invalidate(&mut self, addr: u64) -> Option<Evicted> {
        let (index, tag) = self.index_and_tag(addr);
        let line_addr = self.line_addr(index, tag);
        let way = self.find_way_mut(addr)?;
        let dirty = way.dirty;
        way.valid = false;
        way.dirty = false;
        self.valid_count -= 1;
        if dirty {
            self.dirty_count -= 1;
        }
        self.stats.flushed_lines += 1;
        if dirty {
            self.stats.writebacks += 1;
        }
        Some(Evicted { addr: line_addr, dirty })
    }

    /// Invalidates every resident line of the `lines`-line run starting at
    /// `base_addr` (a page's worth of consecutive lines), returning the
    /// number of lines that were actually resident. Byte-identical in
    /// effects and statistics to `lines` scalar [`SetAssocCache::invalidate`]
    /// calls — stats are only touched for lines that were present — but
    /// walks the flat set×way array directly: the set index and tag are
    /// advanced incrementally, so only the sets the run maps to are visited,
    /// in one pass.
    pub fn invalidate_page_run(&mut self, base_addr: u64, lines: u64) -> u64 {
        let assoc = self.config.ways;
        let generation = self.generation;
        let mut flushed = 0u64;
        let mut writebacks = 0u64;
        match self.scheme {
            IndexScheme::Pow2 { line_shift, set_mask, set_shift } => {
                let base_line = base_addr >> line_shift;
                for i in 0..lines {
                    if self.valid_count == 0 {
                        break;
                    }
                    let line = base_line + i;
                    let index = (line & set_mask) as usize;
                    let tag = line >> set_shift;
                    let set = &mut self.ways[index * assoc..(index + 1) * assoc];
                    if let Some(way) = set
                        .iter_mut()
                        .find(|w| w.valid && w.generation == generation && w.tag == tag)
                    {
                        let dirty = way.dirty;
                        way.valid = false;
                        way.dirty = false;
                        self.valid_count -= 1;
                        flushed += 1;
                        if dirty {
                            self.dirty_count -= 1;
                            writebacks += 1;
                        }
                    }
                }
            }
            IndexScheme::Generic { line_bytes, .. } => {
                for i in 0..lines {
                    if self.invalidate(base_addr + i * line_bytes).is_some() {
                        flushed += 1;
                    }
                }
                self.stats.flushed_lines -= flushed;
                writebacks = 0; // `invalidate` already accounted them
            }
        }
        self.stats.flushed_lines += flushed;
        self.stats.writebacks += writebacks;
        flushed
    }

    /// Invalidates every resident line belonging to any of the pages whose
    /// first line numbers are listed (sorted ascending) in `base_lines`,
    /// where each page spans `lines_per_page` consecutive lines. One pass
    /// over the whole way array with a binary-search membership test per
    /// live way — O(ways · log pages) regardless of how many pages are being
    /// scrubbed, where per-page probing would cost O(pages · lines · assoc).
    /// Effects and statistics are byte-identical to invalidating each page's
    /// lines individually: only resident lines are touched. Returns the
    /// number of lines invalidated.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `base_lines` is sorted (the binary search's
    /// precondition) and that `lines_per_page` is non-zero.
    pub fn invalidate_page_set(&mut self, base_lines: &[u64], lines_per_page: u64) -> u64 {
        debug_assert!(lines_per_page > 0, "pages must span at least one line");
        debug_assert!(base_lines.windows(2).all(|w| w[0] <= w[1]), "base_lines must be sorted");
        if base_lines.is_empty() || self.valid_count == 0 {
            return 0;
        }
        let generation = self.generation;
        let assoc = self.config.ways;
        let sets = self.config.sets();
        let mut flushed = 0u64;
        let mut writebacks = 0u64;
        for index in 0..sets {
            for w in &mut self.ways[index * assoc..(index + 1) * assoc] {
                if !(w.valid && w.generation == generation) {
                    continue;
                }
                let line = match self.scheme {
                    IndexScheme::Pow2 { set_shift, .. } => (w.tag << set_shift) | index as u64,
                    IndexScheme::Generic { sets, .. } => w.tag * sets + index as u64,
                };
                let page_base = line - line % lines_per_page;
                if base_lines.binary_search(&page_base).is_err() {
                    continue;
                }
                let dirty = w.dirty;
                w.valid = false;
                w.dirty = false;
                self.valid_count -= 1;
                flushed += 1;
                if dirty {
                    self.dirty_count -= 1;
                    writebacks += 1;
                }
            }
        }
        self.stats.flushed_lines += flushed;
        self.stats.writebacks += writebacks;
        flushed
    }

    // ----- coherence hooks (driven by the machine's directory layer) --------

    /// Sets the MESI Shared bit of the resident line containing `addr`,
    /// returning whether the line was present. Called by the directory layer
    /// after a fill, once the sharer census is known; it never changes
    /// dirtiness, recency or any statistic.
    pub fn set_line_shared(&mut self, addr: u64, shared: bool) -> bool {
        match self.find_way_mut(addr) {
            Some(way) => {
                way.shared = shared;
                true
            }
            None => false,
        }
    }

    /// Downgrades the resident line containing `addr` from an owning state
    /// (Modified/Exclusive) to Shared on behalf of a remote reader: the line
    /// stays resident, its Shared bit is set and its dirty data is
    /// considered written back (dirty cleared). Returns `Some(was_dirty)`
    /// when the line was present — the caller charges a write-back packet
    /// exactly when `was_dirty` — or `None` when the copy is already gone
    /// (a silent eviction the directory has not observed; the downgrade
    /// message is then a no-op at this cache).
    pub fn downgrade_line(&mut self, addr: u64) -> Option<bool> {
        let way = self.find_way_mut(addr)?;
        let was_dirty = way.dirty;
        way.dirty = false;
        way.shared = true;
        if was_dirty {
            self.dirty_count -= 1;
            self.stats.writebacks += 1;
        }
        Some(was_dirty)
    }

    /// The MESI-relevant flags `(dirty, shared)` of the resident line
    /// containing `addr`, without disturbing any state (`None` when the line
    /// is not resident). Observability for invariant checks and tests.
    pub fn line_flags(&self, addr: u64) -> Option<(bool, bool)> {
        self.find_way(addr).map(|w| (w.dirty, w.shared))
    }

    /// Visits every resident line as `(line_addr, dirty, shared)`, in array
    /// order, without disturbing any state. Observability for coherence
    /// invariant checks and tests.
    pub fn for_each_resident(&self, mut f: impl FnMut(u64, bool, bool)) {
        for index in 0..self.config.sets() {
            for w in self.set(index) {
                if self.live(w) {
                    f(self.line_addr(index, w.tag), w.dirty, w.shared);
                }
            }
        }
    }

    /// Flushes and invalidates the whole cache (the MI6 purge operation),
    /// returning the number of dirty lines that had to be written back.
    ///
    /// O(1): occupancy is tracked incrementally and invalidation is one
    /// generation bump — the way array is not touched at all (MI6 purges at
    /// every enclave boundary; walking tens of thousands of ways per purge
    /// dominated its simulation cost).
    pub fn purge(&mut self) -> u64 {
        let valid = self.valid_count as u64;
        let dirty = self.dirty_count as u64;
        self.bump_generation();
        self.valid_count = 0;
        self.dirty_count = 0;
        self.stats.purges += 1;
        self.stats.flushed_lines += valid;
        self.stats.writebacks += dirty;
        dirty
    }

    /// Starts a new fill generation, falling back to a real clear on the
    /// (practically unreachable) u32 wrap so stale generations can never
    /// alias.
    fn bump_generation(&mut self) {
        if self.generation == u32::MAX {
            self.ways.fill(Way::default());
            self.generation = 0;
        } else {
            self.generation += 1;
        }
    }

    /// Resets the cache to its just-constructed state — empty, statistics
    /// zeroed, recency clock at zero — in O(1), so scratch machines can be
    /// recycled instead of re-allocating their way arrays. Behaves
    /// identically to a freshly built cache in every observable way
    /// (verified by the golden-stats and sweep byte-identity suites).
    pub fn reset_pristine(&mut self) {
        self.bump_generation();
        self.valid_count = 0;
        self.dirty_count = 0;
        self.tick = 0;
        self.stats.reset();
    }

    /// Number of valid lines currently resident (O(1): maintained
    /// incrementally by the access/invalidate/purge paths).
    pub fn resident_lines(&self) -> usize {
        self.valid_count
    }

    /// Number of valid dirty lines currently resident (O(1)).
    pub fn dirty_lines(&self) -> usize {
        self.dirty_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 sets x 2 ways x 64-byte lines = 512 bytes.
        SetAssocCache::new(CacheConfig::new(512, 2, 64))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(c.access(0x0, false).is_miss());
        assert!(c.access(0x0, false).is_hit());
        assert!(c.access(0x3f, false).is_hit(), "same line must hit");
        assert!(c.access(0x40, false).is_miss(), "next line must miss");
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small();
        // Three lines mapping to set 0 (stride = sets * line = 256 bytes).
        c.access(0x000, false);
        c.access(0x100, false);
        c.access(0x000, false); // touch 0x000 so 0x100 becomes LRU
        let out = c.access(0x200, false);
        let ev = out.evicted().expect("full set must evict");
        assert_eq!(ev.addr, 0x100);
        assert!(!ev.dirty);
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.access(0x000, true);
        c.access(0x100, false);
        let out = c.access(0x200, false);
        let ev = out.evicted().unwrap();
        assert_eq!(ev.addr, 0x000);
        assert!(ev.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn purge_empties_and_counts() {
        let mut c = small();
        for i in 0..8u64 {
            c.access(i * 64, i % 2 == 0);
        }
        assert_eq!(c.resident_lines(), 8);
        assert_eq!(c.dirty_lines(), 4);
        let dirty = c.purge();
        assert_eq!(dirty, 4);
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats().purges, 1);
        assert_eq!(c.stats().flushed_lines, 8);
        // Everything misses again after the purge: this is the MI6 cold-start.
        assert!(c.access(0x0, false).is_miss());
    }

    #[test]
    fn invalidate_single_line() {
        let mut c = small();
        c.access(0x80, true);
        let ev = c.invalidate(0x80).unwrap();
        assert!(ev.dirty);
        assert!(!c.probe(0x80));
        assert!(c.invalidate(0x80).is_none());
    }

    #[test]
    fn write_marks_dirty_on_hit() {
        let mut c = small();
        c.access(0x40, false);
        assert_eq!(c.dirty_lines(), 0);
        c.access(0x40, true);
        assert_eq!(c.dirty_lines(), 1);
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = small();
        c.access(0x000, false);
        c.access(0x100, false);
        let before = *c.stats();
        // Probing 0x000 must not refresh its recency, count as an access, or
        // change any other statistic.
        assert!(c.probe(0x000));
        assert_eq!(c.stats().accesses, before.accesses);
        assert_eq!(c.stats().hits, before.hits);
        assert_eq!(c.stats().misses, before.misses);
        c.access(0x200, false);
        // LRU victim must still be 0x000: the probe did not touch recency.
        assert!(!c.probe(0x000));
        assert!(c.probe(0x100));
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = small(); // 8 lines capacity
        for round in 0..4 {
            for i in 0..16u64 {
                c.access(i * 64, false);
            }
            let _ = round;
        }
        // With a cyclic working set of twice the capacity under LRU, every
        // access misses after the first round too.
        assert!(c.stats().miss_rate() > 0.9);
    }

    /// Walks the way array to recount occupancy (honouring the liveness
    /// generation), cross-checking the O(1) incremental counters.
    fn recount(c: &SetAssocCache) -> (usize, usize) {
        let valid = c.ways.iter().filter(|w| c.live(w)).count();
        let dirty = c.ways.iter().filter(|w| c.live(w) && w.dirty).count();
        (valid, dirty)
    }

    #[test]
    fn occupancy_counters_track_the_way_array() {
        let mut c = small();
        for i in 0..12u64 {
            c.access(i * 64, i % 2 == 0);
            assert_eq!((c.resident_lines(), c.dirty_lines()), recount(&c), "after access {i}");
        }
        c.access(0x2c0, true); // redirty a resident line
        c.invalidate(0x2c0);
        assert_eq!((c.resident_lines(), c.dirty_lines()), recount(&c));
        c.purge();
        assert_eq!((c.resident_lines(), c.dirty_lines()), (0, 0));
        assert_eq!(recount(&c), (0, 0));
    }

    #[test]
    fn line_run_collapses_same_line_touches() {
        let mut bulk = small();
        let mut scalar = small();
        bulk.access(0x100, false);
        scalar.access(0x100, false);
        let (out, was_shared) = bulk.access_line_run(0x40, 5, true);
        assert!(out.is_miss());
        assert!(!was_shared, "a miss cannot report a Shared-state hit");
        let mut last = scalar.access(0x40, true);
        for i in 1..5u64 {
            last = scalar.access(0x40 + i * 8, true);
        }
        assert!(last.is_hit());
        assert_eq!(bulk.stats().accesses, scalar.stats().accesses);
        assert_eq!(bulk.stats().hits, scalar.stats().hits);
        assert_eq!(bulk.stats().misses, scalar.stats().misses);
        assert_eq!(bulk.dirty_lines(), scalar.dirty_lines());
        // Recency end-state identical: fill set 1 and check the same victim.
        bulk.access(0x140, false);
        scalar.access(0x140, false);
        let ev_b = bulk.access(0x240, false).evicted().unwrap();
        let ev_s = scalar.access(0x240, false).evicted().unwrap();
        assert_eq!(ev_b, ev_s);
    }

    #[test]
    #[should_panic(expected = "at least one access")]
    fn empty_line_run_rejected() {
        small().access_line_run(0, 0, false);
    }

    #[test]
    fn generic_fallback_matches_pow2_indexing() {
        // Construct a non-power-of-two set count directly (bypassing
        // `CacheConfig::new`'s assertion) to exercise the div/mod fallback.
        let odd = CacheConfig { size_bytes: 3 * 2 * 64, ways: 2, line_bytes: 64 };
        assert_eq!(odd.sets(), 3);
        let mut c = SetAssocCache::new(odd);
        assert!(c.access(0x000, false).is_miss());
        assert!(c.access(0x000, false).is_hit());
        // Lines 0 and 3 share set 0 under mod-3 indexing.
        c.access(3 * 64, true);
        let ev = c.access(6 * 64, false).evicted().expect("2-way set 0 overflows");
        assert_eq!(ev.addr, 0x000);
        assert!(c.probe(3 * 64));
    }
}
