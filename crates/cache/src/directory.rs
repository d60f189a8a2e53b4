//! The per-home-slice MESI coherence directory.
//!
//! The Tile-Gx-class machine this reproduction models keeps the logically
//! shared L2 physically distributed: every physical line has a *home* slice,
//! and that home is the serialisation point for coherence. Each home slice
//! owns a [`Directory`] — a set-associative array of entries tracking, per
//! line, the MESI state, the set of cores whose private L1 may hold a copy
//! (reported as a [`NodeSet`]) and the owning core for the exclusive-side
//! states. The machine consults the home directory on every L1 fill and on
//! every write-upgrade of a Shared line, and turns the returned
//! [`DirOutcome`] into cross-core invalidation/downgrade messages charged on
//! the real mesh routes.
//!
//! # The state machine
//!
//! A line tracked by a directory entry is in one of three states (absence of
//! a live entry is the Invalid state):
//!
//! * **Exclusive** — exactly one core holds the line, clean. Granted to the
//!   sole reader of a line. The owner may silently upgrade its copy to
//!   Modified (an ordinary write hit, no message), which is why every
//!   foreign access to an Exclusive entry still interrogates the owner.
//! * **Modified** — exactly one core holds the line and has announced a
//!   write (a write fill or a write-upgrade). Foreign reads force a
//!   write-back and a downgrade to Shared; foreign writes force an
//!   invalidation.
//! * **Shared** — more than one core may hold the line, all clean. Reads
//!   join the sharer set silently; a write must invalidate every other
//!   sharer before it completes (the write-upgrade).
//!
//! The sharer set is maintained *conservatively*: clean L1 evictions are
//! silent (as on real directory hardware), so a recorded sharer may no
//! longer hold the line. Stale sharers cost useless invalidation messages,
//! never correctness — an invalidation of an absent line is a no-op at the
//! cache.
//!
//! # Capacity and back-invalidation
//!
//! The directory is a real SRAM structure with bounded capacity
//! ([`DirectoryConfig`]). When a fill needs a slot in a full set, an LRU
//! victim entry is evicted and every copy it tracked must be
//! **back-invalidated** — the protocol cannot track a line it has no entry
//! for. This is exactly the structural property behind
//! directory-conflict attacks ("attack directories, not caches"): a
//! process that fills directory sets evicts *other processes'* entries and
//! thereby knocks their lines out of private L1s they never touched. The
//! `coherence-state` covert channel in `ironhide-attacks` exploits it, and
//! IRONHIDE's per-cluster slice (and therefore directory) partitioning is
//! what closes it.
//!
//! # Purging
//!
//! [`Directory::purge`] is O(1): entries are generation-tagged like the
//! cache [`Way`](crate::set_assoc::Way)s, so one generation bump kills every
//! entry without walking the array. A bare directory purge deliberately does
//! **not** back-invalidate the copies its entries tracked — it is only
//! coherent when the caller purges the affected private caches in the same
//! stalled operation, which is exactly how the two call sites use it: the
//! MI6 enclave boundary purges every private L1 alongside every directory,
//! and IRONHIDE's cluster reconfiguration purges the moved slices'
//! directories after the moved tiles' private state is flushed and the
//! re-homed pages' lines are scrubbed.

use ironhide_mesh::{NodeId, NodeSet};

use crate::config::CacheConfig;
use crate::replacement::lru_victim;
use crate::zeroed::{ArrayError, ZeroedArray};

/// Geometry of one home slice's coherence directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirectoryConfig {
    /// Number of directory sets.
    pub sets: usize,
    /// Entries per set.
    pub ways: usize,
}

/// A directory geometry with a zero dimension, or with more entries than a
/// `usize` counts, reported as a value so campaign harnesses can log the bad
/// configuration instead of aborting mid-sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectoryConfigError {
    /// Requested set count.
    pub sets: usize,
    /// Requested ways per set.
    pub ways: usize,
}

impl std::fmt::Display for DirectoryConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (sets, ways) = (self.sets, self.ways);
        if sets == 0 || ways == 0 {
            write!(f, "directory geometry must be non-zero (sets = {sets}, ways = {ways})")
        } else {
            write!(f, "directory of {sets} sets x {ways} ways has more entries than fit in memory")
        }
    }
}

impl std::error::Error for DirectoryConfigError {}

impl DirectoryConfig {
    /// Creates a directory geometry.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or their product overflows;
    /// fallible callers use [`DirectoryConfig::try_new`].
    pub fn new(sets: usize, ways: usize) -> Self {
        DirectoryConfig::try_new(sets, ways).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a directory geometry, reporting a zero dimension or an
    /// entry count beyond `usize` as a typed [`DirectoryConfigError`]
    /// instead of panicking.
    pub fn try_new(sets: usize, ways: usize) -> Result<Self, DirectoryConfigError> {
        if sets == 0 || ways == 0 || sets.checked_mul(ways).is_none() {
            return Err(DirectoryConfigError { sets, ways });
        }
        Ok(DirectoryConfig { sets, ways })
    }

    /// Checks a geometry built field by field (the fields are public), as
    /// [`DirectoryConfig::try_new`] checks its arguments.
    pub fn validate(&self) -> Result<(), DirectoryConfigError> {
        DirectoryConfig::try_new(self.sets, self.ways).map(|_| ())
    }

    /// The conventional sizing for a home slice of geometry `l2`: one
    /// directory entry per slice line (1× coverage) at an associativity of
    /// `min(l2.ways, 4)`. 1× coverage is deliberately *tight* — it keeps the
    /// directory an honest bounded structure whose conflict behaviour (and
    /// conflict channel) exists, as on real parts, instead of an unbounded
    /// full map.
    pub fn for_l2_slice(l2: &CacheConfig) -> Self {
        let ways = l2.ways.clamp(1, 4);
        DirectoryConfig { sets: (l2.lines() / ways).max(1), ways }
    }

    /// Total entries the directory can hold.
    pub fn entries(&self) -> usize {
        self.sets * self.ways
    }
}

/// The MESI state a directory entry records for its line (Invalid is the
/// absence of a live entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum MesiState {
    /// Multiple cores may hold clean copies.
    #[default]
    Shared = 0,
    /// Exactly one core holds a clean copy (and may silently modify it).
    Exclusive = 1,
    /// Exactly one core holds the line and has announced a write.
    Modified = 2,
}

/// One directory entry: the tracked line, its MESI state, the conservative
/// sharer set of tiles 0–63 and the owning core for the exclusive-side
/// states — 32 bytes. Tiles 64 and up keep their sharer bits in the
/// directory's side words (see [`Directory`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DirEntry {
    /// Line number (physical address / line size) this entry tracks.
    line: u64,
    /// Tiles 0–63 whose L1 may hold a copy: bit `t` is tile `t`.
    sharers: u64,
    /// LRU stamp.
    last_use: u64,
    /// Liveness generation (see [`Directory::purge`]).
    generation: u32,
    /// Owning core, meaningful in the Exclusive/Modified states.
    owner: u16,
    /// MESI state of the line.
    state: MesiState,
    /// Whether the entry has ever been filled (dead entries are reused
    /// before live victims are evicted).
    valid: bool,
}

const _: () = assert!(size_of::<DirEntry>() == 32);

/// Counters of one directory's activity (aggregated machine-wide into
/// `MachineStats` by the simulator).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectoryStats {
    /// Directory transactions (one per L1 fill or write-upgrade at this
    /// home).
    pub lookups: u64,
    /// Transactions that found a live entry for their line.
    pub hits: u64,
    /// Entries allocated (one per tracked-line fill).
    pub allocations: u64,
    /// Foreign copies invalidated on behalf of writers.
    pub invalidations: u64,
    /// Foreign owners downgraded to Shared on behalf of readers.
    pub downgrades: u64,
    /// Copies back-invalidated because their entry was evicted for capacity.
    pub back_invalidations: u64,
    /// O(1) whole-directory purges performed.
    pub purges: u64,
    /// Live entries dropped by purges and explicit line drops.
    pub flushed_entries: u64,
}

impl DirectoryStats {
    /// Merges another block into this one.
    pub fn merge(&mut self, other: &DirectoryStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.allocations += other.allocations;
        self.invalidations += other.invalidations;
        self.downgrades += other.downgrades;
        self.back_invalidations += other.back_invalidations;
        self.purges += other.purges;
        self.flushed_entries += other.flushed_entries;
    }

    /// Resets every counter.
    pub fn reset(&mut self) {
        *self = DirectoryStats::default();
    }
}

/// A directory entry displaced for capacity: its line and the copies that
/// must be back-invalidated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedEntry {
    /// Line number the evicted entry tracked.
    pub line: u64,
    /// Cores whose copy of that line must be back-invalidated.
    pub sharers: NodeSet,
}

/// What the machine must do to complete one directory transaction: the
/// foreign copies to invalidate or downgrade (each costs a maintenance
/// round trip on the requester's critical path), an optional capacity
/// eviction (back-invalidations, charged off the critical path like
/// ordinary victim write-backs), and the Shared bit the requester's own L1
/// line ends with.
#[derive(Debug, Clone, Copy)]
pub struct DirOutcome {
    /// Foreign cores whose copy must be invalidated before the access
    /// completes (writes only).
    pub invalidate: NodeSet,
    /// Foreign cores whose copy must be downgraded Modified/Exclusive →
    /// Shared before the access completes (reads of owned lines).
    pub downgrade: NodeSet,
    /// Live entry displaced to make room for this transaction's line.
    pub evicted: Option<EvictedEntry>,
    /// Whether the requester's L1 line ends in the Shared state.
    pub shared: bool,
}

/// The coherence directory of one home slice (see the module docs).
#[derive(Debug, Clone)]
pub struct Directory {
    config: DirectoryConfig,
    /// All entries of all sets, contiguous: way `w` of set `s` lives at
    /// `s * config.ways + w`. Zeroed at birth, so sets a run never fills
    /// are never committed.
    entries: ZeroedArray<DirEntry>,
    /// Sharer words of tiles 64 and up, `side_words` per entry: entry `i`
    /// owns `side[i * side_words..(i + 1) * side_words]`, whose word `k`
    /// holds tiles `64 (k + 1)` to `64 (k + 1) + 63`. Empty on machines of
    /// at most 64 tiles.
    side: ZeroedArray<u64>,
    /// `⌈tiles / 64⌉ − 1`.
    side_words: usize,
    /// LRU clock.
    tick: u64,
    /// Current liveness generation (entries of older generations are dead).
    generation: u32,
    /// Live entries, maintained incrementally so purges and occupancy
    /// queries never walk the array.
    live_count: usize,
    stats: DirectoryStats,
    /// Transactions served by [`Directory::access_private_fast`]. A pure
    /// diagnostic — deliberately *not* part of [`DirectoryStats`], because
    /// whether the fast path fired is an implementation detail the
    /// scalar/batched byte-identity contract must not observe.
    fast_hits: u64,
}

impl Directory {
    /// Creates an empty directory for a machine of `tiles` tiles.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`DirectoryConfig::try_new`]),
    /// if `tiles` exceeds [`NodeSet::MAX_NODES`], or if the host cannot
    /// provide the entry arrays; callers that must survive an oversized
    /// geometry use [`Directory::try_new`].
    pub fn new(config: DirectoryConfig, tiles: usize) -> Self {
        Directory::try_new(config, tiles).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Directory::new`], reporting entry arrays the host cannot provide
    /// as an [`ArrayError`].
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid or `tiles` exceeds
    /// [`NodeSet::MAX_NODES`].
    pub fn try_new(config: DirectoryConfig, tiles: usize) -> Result<Self, ArrayError> {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        assert!(
            tiles <= NodeSet::MAX_NODES,
            "sharer sets track up to {} tiles",
            NodeSet::MAX_NODES
        );
        let entries = config.entries();
        let side_words = tiles.div_ceil(64).saturating_sub(1);
        Ok(Directory {
            entries: ZeroedArray::new(entries)?,
            side: ZeroedArray::new(entries.saturating_mul(side_words))?,
            side_words,
            config,
            tick: 0,
            generation: 0,
            live_count: 0,
            stats: DirectoryStats::default(),
            fast_hits: 0,
        })
    }

    /// The directory geometry.
    pub fn config(&self) -> &DirectoryConfig {
        &self.config
    }

    /// Activity counters accumulated so far.
    pub fn stats(&self) -> &DirectoryStats {
        &self.stats
    }

    /// Resets the counters without touching directory contents.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Number of live entries (O(1), maintained incrementally).
    pub fn resident_entries(&self) -> usize {
        self.live_count
    }

    #[inline]
    fn set_range(&self, line: u64) -> (usize, usize) {
        let base = (line % self.config.sets as u64) as usize * self.config.ways;
        (base, base + self.config.ways)
    }

    #[inline]
    fn live(&self, e: &DirEntry) -> bool {
        e.valid && e.generation == self.generation
    }

    /// The slot of the live entry tracking `line`, if any.
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        let (lo, hi) = self.set_range(line);
        self.entries[lo..hi].iter().position(|e| self.live(e) && e.line == line).map(|w| lo + w)
    }

    /// The sharers of the entry in `slot`: its inline word, then its side
    /// words, a word at a time.
    #[inline]
    fn sharers(&self, slot: usize) -> NodeSet {
        let side = &self.side[slot * self.side_words..(slot + 1) * self.side_words];
        NodeSet::from_words(std::iter::once(self.entries[slot].sharers).chain(side.iter().copied()))
    }

    /// Replaces the sharers of the entry in `slot` with `set`.
    #[inline]
    fn set_sharers(&mut self, slot: usize, set: &NodeSet) {
        self.entries[slot].sharers = set.word(0);
        let side = &mut self.side[slot * self.side_words..(slot + 1) * self.side_words];
        for (k, w) in side.iter_mut().enumerate() {
            *w = set.word(k + 1);
        }
    }

    /// Performs one directory transaction for `core`'s access to `line`
    /// (`write` selects the invalidating transitions), updating the entry
    /// and returning the copy-set actions the machine must charge. Called
    /// on every L1 fill and on every write-upgrade of a Shared L1 line.
    pub fn access(&mut self, line: u64, core: NodeId, write: bool) -> DirOutcome {
        self.access_locate(line, core, write).0
    }

    /// [`Directory::access`], additionally returning the index of the entry
    /// the line ended in (`set * ways + way`) — the hint a caller can replay
    /// through [`Directory::access_private_fast`] on its next access to the
    /// same line.
    pub fn access_locate(&mut self, line: u64, core: NodeId, write: bool) -> (DirOutcome, u32) {
        self.tick += 1;
        self.stats.lookups += 1;
        let tick = self.tick;
        let generation = self.generation;
        let mut outcome = DirOutcome {
            invalidate: NodeSet::default(),
            downgrade: NodeSet::default(),
            evicted: None,
            shared: false,
        };
        if let Some(slot) = self.find(line) {
            self.stats.hits += 1;
            let mut sharers = self.sharers(slot);
            let e = &mut self.entries[slot];
            e.last_use = tick;
            if write {
                // Write (fill or upgrade): every other tracked copy dies
                // before the write completes; the line is Modified, owned
                // by the requester.
                let mut others = sharers;
                others.remove(core);
                outcome.invalidate = others;
                sharers.clear();
                sharers.insert(core);
                e.owner = core.0 as u16;
                e.state = MesiState::Modified;
                self.stats.invalidations += others.len() as u64;
            } else {
                // Read: a foreign owner (Exclusive may hide a silent
                // Modified) is interrogated and downgraded; the requester
                // joins the sharer set.
                let owner = NodeId(e.owner as usize);
                if matches!(e.state, MesiState::Exclusive | MesiState::Modified) && owner != core {
                    outcome.downgrade.insert(owner);
                    self.stats.downgrades += 1;
                }
                sharers.insert(core);
                if sharers.len() == 1 {
                    // The requester is the only tracked copy: (re-)grant
                    // exclusivity. This also covers a core re-fetching a
                    // line it silently evicted while owning it.
                    e.owner = core.0 as u16;
                    if e.state == MesiState::Shared {
                        e.state = MesiState::Exclusive;
                    }
                } else {
                    e.state = MesiState::Shared;
                    outcome.shared = true;
                }
            }
            self.set_sharers(slot, &sharers);
            return (outcome, slot as u32);
        }

        // Allocate: dead entry first, else the LRU victim of the set — whose
        // tracked copies must all be back-invalidated, because a line
        // without a directory entry cannot be kept coherent.
        let (lo, hi) = self.set_range(line);
        let set = &self.entries[lo..hi];
        let slot = lo
            + match set.iter().position(|e| !(e.valid && e.generation == generation)) {
                Some(i) => i,
                None => lru_victim(set, |e| e.last_use),
            };
        let victim = self.entries[slot];
        if victim.valid && victim.generation == generation {
            let sharers = self.sharers(slot);
            outcome.evicted = Some(EvictedEntry { line: victim.line, sharers });
            self.stats.back_invalidations += sharers.len() as u64;
        } else {
            self.live_count += 1;
        }
        self.stats.allocations += 1;
        self.entries[slot] = DirEntry {
            line,
            sharers: 0,
            last_use: tick,
            generation,
            owner: core.0 as u16,
            state: if write { MesiState::Modified } else { MesiState::Exclusive },
            valid: true,
        };
        let mut sharers = NodeSet::default();
        sharers.insert(core);
        self.set_sharers(slot, &sharers);
        (outcome, slot as u32)
    }

    /// Attempts the private-line fast path for `core`'s access to `line`
    /// through a `slot` hint previously returned by
    /// [`Directory::access_locate`]. Applies — and returns `true` — only
    /// when the hinted entry still tracks `line`, is live, and `core` is
    /// its sole sharer: exactly the case where the full transaction would
    /// return an empty [`DirOutcome`] (no invalidations, no downgrades, no
    /// eviction, `shared == false`). It then performs, byte-identically,
    /// the updates the full transaction would: the LRU touch, the
    /// lookup/hit accounting, the ownership re-grant and the Modified
    /// (write) / Shared→Exclusive (read) transition. A `false` return means
    /// the hint was stale — the probe mutates nothing (not even the LRU
    /// clock or counters) and the caller runs the full transaction.
    pub fn access_private_fast(&mut self, line: u64, core: NodeId, write: bool, slot: u32) -> bool {
        let slot = slot as usize;
        match self.entries.get(slot) {
            Some(e) if self.live(e) && e.line == line => {}
            _ => return false,
        }
        let sharers = self.sharers(slot);
        if sharers.len() != 1 || !sharers.contains(core) {
            return false;
        }
        let tick = self.tick + 1;
        let e = &mut self.entries[slot];
        e.last_use = tick;
        e.owner = core.0 as u16;
        if write {
            e.state = MesiState::Modified;
        } else if e.state == MesiState::Shared {
            e.state = MesiState::Exclusive;
        }
        self.tick = tick;
        self.stats.lookups += 1;
        self.stats.hits += 1;
        self.fast_hits += 1;
        true
    }

    /// Transactions served by the private-line fast path so far (a
    /// diagnostic counter outside [`DirectoryStats`]; see the field docs).
    pub fn fast_hits(&self) -> u64 {
        self.fast_hits
    }

    /// Drops the live entry tracking `line`, if any, without generating any
    /// back-invalidation (the caller is responsible for scrubbing the
    /// tracked copies — used when a page is re-homed away from this slice
    /// during a stalled reconfiguration). Returns whether an entry was
    /// dropped.
    pub fn drop_line(&mut self, line: u64) -> bool {
        match self.find(line) {
            Some(slot) => {
                self.entries[slot].valid = false;
                self.live_count -= 1;
                self.stats.flushed_entries += 1;
                true
            }
            None => false,
        }
    }

    /// Drops the live entries of the `count`-line run starting at
    /// `base_line` (a re-homed page's worth of consecutive lines) in one
    /// pass, returning the union of the dropped entries' sharer sets and
    /// the number of entries dropped. Byte-identical in effects and
    /// statistics to `count` scalar [`Directory::drop_line`] calls —
    /// `flushed_entries` only counts entries that existed — but short-
    /// circuits entirely when the directory is empty, and the union sharer
    /// set lets the caller scrub only L1s the inclusivity invariant says
    /// can still hold a tracked copy.
    pub fn drop_page_lines(&mut self, base_line: u64, count: u64) -> (NodeSet, u64) {
        let mut union = NodeSet::default();
        let mut dropped = 0u64;
        if self.live_count == 0 {
            return (union, 0);
        }
        for line in base_line..base_line + count {
            if let Some(slot) = self.find(line) {
                union.union_with(&self.sharers(slot));
                self.entries[slot].valid = false;
                self.live_count -= 1;
                dropped += 1;
            }
        }
        self.stats.flushed_entries += dropped;
        (union, dropped)
    }

    /// The live entry for `line`, as `(state, sharers, owner)`, without
    /// disturbing any state. Observability for invariant checks and tests.
    pub fn probe(&self, line: u64) -> Option<(MesiState, NodeSet, NodeId)> {
        self.find(line).map(|slot| {
            let e = &self.entries[slot];
            (e.state, self.sharers(slot), NodeId(e.owner as usize))
        })
    }

    /// Visits every live entry as `(line, state, sharers, owner)`, in array
    /// order. Observability for invariant checks and tests.
    pub fn for_each_live(&self, mut f: impl FnMut(u64, MesiState, NodeSet, NodeId)) {
        for (slot, e) in self.entries.iter().enumerate() {
            if self.live(e) {
                f(e.line, e.state, self.sharers(slot), NodeId(e.owner as usize));
            }
        }
    }

    /// Invalidates every entry in O(1) by starting a new liveness
    /// generation, returning the number of live entries dropped. See the
    /// module docs for when a bare directory purge is coherent.
    pub fn purge(&mut self) -> u64 {
        let dropped = self.live_count as u64;
        self.bump_generation();
        self.live_count = 0;
        self.stats.purges += 1;
        self.stats.flushed_entries += dropped;
        dropped
    }

    /// Starts a new liveness generation, falling back to a real clear on
    /// the (practically unreachable) u32 wrap so stale generations can
    /// never alias.
    fn bump_generation(&mut self) {
        if self.generation == u32::MAX {
            self.entries.fill(DirEntry::default());
            self.side.fill(0);
            self.generation = 0;
        } else {
            self.generation += 1;
        }
    }

    /// Resets the directory to its just-constructed state — empty, counters
    /// zeroed, LRU clock at zero — in O(1), so recycled machines behave
    /// byte-identically to fresh ones.
    pub fn reset_pristine(&mut self) {
        self.bump_generation();
        self.live_count = 0;
        self.tick = 0;
        self.stats.reset();
        self.fast_hits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> Directory {
        // 4 sets × 2 ways = 8 entries, for a 4-tile machine.
        Directory::new(DirectoryConfig::new(4, 2), 4)
    }

    #[test]
    fn sole_reader_gets_exclusive_then_sharers_downgrade_it() {
        let mut d = dir();
        let out = d.access(7, NodeId(0), false);
        assert!(out.invalidate.is_empty() && out.downgrade.is_empty());
        assert!(!out.shared);
        assert_eq!(d.probe(7).unwrap().0, MesiState::Exclusive);

        // A second reader interrogates the owner and both end Shared.
        let out = d.access(7, NodeId(3), false);
        assert!(out.downgrade.contains(NodeId(0)));
        assert_eq!(out.downgrade.len(), 1);
        assert!(out.shared);
        let (state, sharers, _) = d.probe(7).unwrap();
        assert_eq!(state, MesiState::Shared);
        assert!(sharers.contains(NodeId(0)) && sharers.contains(NodeId(3)));
    }

    #[test]
    fn writer_invalidates_every_other_sharer() {
        let mut d = dir();
        for core in [0usize, 1, 2] {
            d.access(11, NodeId(core), false);
        }
        let out = d.access(11, NodeId(2), true);
        assert!(out.invalidate.contains(NodeId(0)) && out.invalidate.contains(NodeId(1)));
        assert!(!out.invalidate.contains(NodeId(2)), "the writer never invalidates itself");
        let (state, sharers, owner) = d.probe(11).unwrap();
        assert_eq!(state, MesiState::Modified);
        assert_eq!(owner, NodeId(2));
        assert_eq!(sharers.len(), 1);
        assert_eq!(d.stats().invalidations, 2);
    }

    #[test]
    fn modified_owner_is_downgraded_by_a_remote_read() {
        let mut d = dir();
        d.access(5, NodeId(1), true);
        assert_eq!(d.probe(5).unwrap().0, MesiState::Modified);
        let out = d.access(5, NodeId(2), false);
        assert!(out.downgrade.contains(NodeId(1)));
        assert!(out.shared);
        assert_eq!(d.probe(5).unwrap().0, MesiState::Shared);
    }

    #[test]
    fn capacity_eviction_reports_back_invalidations() {
        let mut d = dir();
        // Lines 0, 4, 8 map to set 0 of the 4-set directory; 2-way ⇒ the
        // third allocation evicts the LRU entry (line 0) with its sharers.
        d.access(0, NodeId(0), false);
        d.access(0, NodeId(1), false);
        d.access(4, NodeId(2), false);
        let out = d.access(8, NodeId(3), true);
        let ev = out.evicted.expect("full set must evict");
        assert_eq!(ev.line, 0);
        assert_eq!(ev.sharers.len(), 2);
        assert_eq!(d.stats().back_invalidations, 2);
        assert!(d.probe(0).is_none());
        assert!(d.probe(4).is_some());
    }

    #[test]
    fn purge_is_generational_and_counts() {
        let mut d = dir();
        for line in 0..6u64 {
            d.access(line, NodeId(0), line % 2 == 0);
        }
        assert_eq!(d.resident_entries(), 6);
        assert_eq!(d.purge(), 6);
        assert_eq!(d.resident_entries(), 0);
        assert!(d.probe(0).is_none());
        assert_eq!(d.stats().purges, 1);
        assert_eq!(d.stats().flushed_entries, 6);
        // The array is reusable: a fresh transaction allocates again.
        assert!(d.access(0, NodeId(1), false).evicted.is_none());
        assert_eq!(d.resident_entries(), 1);
    }

    #[test]
    fn drop_line_removes_without_eviction() {
        let mut d = dir();
        d.access(3, NodeId(0), false);
        assert!(d.drop_line(3));
        assert!(!d.drop_line(3));
        assert!(d.probe(3).is_none());
        assert_eq!(d.resident_entries(), 0);
    }

    #[test]
    fn reset_pristine_matches_fresh() {
        let mut d = dir();
        for line in 0..32u64 {
            d.access(line, NodeId(line as usize % 4), true);
        }
        d.reset_pristine();
        let mut fresh = dir();
        // Same transaction on both produces the same outcome and stats.
        let a = d.access(9, NodeId(1), false);
        let b = fresh.access(9, NodeId(1), false);
        assert_eq!(a.shared, b.shared);
        assert_eq!(a.evicted, b.evicted);
        assert_eq!(d.stats(), fresh.stats());
        assert_eq!(d.resident_entries(), fresh.resident_entries());
    }

    #[test]
    fn zero_geometry_is_a_typed_error() {
        assert_eq!(DirectoryConfig::try_new(4, 2), Ok(DirectoryConfig { sets: 4, ways: 2 }));
        let err = DirectoryConfig::try_new(0, 2).unwrap_err();
        assert_eq!(err, DirectoryConfigError { sets: 0, ways: 2 });
        assert!(format!("{err}").contains("must be non-zero"));
        assert!(DirectoryConfig::try_new(4, 0).is_err());
        let err = DirectoryConfig::try_new(1 << 63, 4).unwrap_err();
        assert!(format!("{err}").contains("more entries than fit"));
        assert_eq!(DirectoryConfig { sets: 1 << 63, ways: 4 }.validate(), Err(err));
    }

    #[test]
    #[should_panic(expected = "must be non-zero")]
    fn zero_geometry_panics_through_the_infallible_constructor() {
        let _ = DirectoryConfig::new(0, 0);
    }

    #[test]
    fn for_l2_slice_sizing() {
        let cfg = DirectoryConfig::for_l2_slice(&CacheConfig::new(4096, 4, 64));
        assert_eq!(cfg.entries(), 64);
        assert_eq!(cfg.ways, 4);
        assert_eq!(cfg.sets, 16);
        let paper = DirectoryConfig::for_l2_slice(&CacheConfig::paper_l2_slice());
        assert_eq!(paper.entries(), CacheConfig::paper_l2_slice().lines());
    }

    #[test]
    fn zeroed_entries_are_default() {
        let d = Directory::new(DirectoryConfig::new(2, 2), 200);
        assert_eq!(d.resident_entries(), 0);
        for e in d.entries.iter() {
            assert!(!e.valid);
            assert_eq!(e.state, MesiState::Shared);
            assert_eq!(e.sharers, 0);
        }
        assert_eq!(d.side.len(), 4 * 3, "200 tiles need three side words per entry");
        assert!(d.side.iter().all(|w| *w == 0));
        assert!(dir().side.is_empty(), "machines of at most 64 tiles have no side words");
    }

    fn set_of(tiles: &[usize]) -> NodeSet {
        tiles.iter().map(|t| NodeId(*t)).collect()
    }

    #[test]
    fn sharers_beyond_tile_63_are_exact() {
        let mut d = Directory::new(DirectoryConfig::new(4, 2), 81);
        d.access(7, NodeId(3), false);
        d.access(7, NodeId(70), false);
        let out = d.access(7, NodeId(80), true);
        assert_eq!(out.invalidate, set_of(&[3, 70]));
        assert_eq!(d.probe(7), Some((MesiState::Modified, set_of(&[80]), NodeId(80))));

        // Lines 0, 4 and 8 share set 0 of the 2-way directory: the third
        // allocation evicts line 0's entry with both of its sharers.
        d.access(0, NodeId(3), false);
        d.access(0, NodeId(70), false);
        d.access(4, NodeId(5), false);
        let (out, slot) = d.access_locate(8, NodeId(80), false);
        let ev = out.evicted.expect("full set must evict");
        assert_eq!(ev, EvictedEntry { line: 0, sharers: set_of(&[3, 70]) });
        assert_eq!(d.stats().back_invalidations, 2);
        // The reused slot keeps no stale side bits, and the fast path tells
        // tile 80 from tile 16, which shares its bit position in word 0.
        assert_eq!(d.probe(8).map(|p| p.1), Some(set_of(&[80])));
        assert!(!d.access_private_fast(8, NodeId(16), false, slot));
        assert!(d.access_private_fast(8, NodeId(80), true, slot));
        assert_eq!(d.probe(8).map(|p| p.0), Some(MesiState::Modified));
    }
}
