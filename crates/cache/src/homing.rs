//! Page-to-L2-slice homing policies.
//!
//! On the Tile-Gx, the shared L2 is physically distributed: each tile owns a
//! slice and every physical page has a *home* slice that caches it. The
//! default policy hashes pages across all slices; MI6 and IRONHIDE override it
//! with *local homing* (`tmc_alloc_set_home`) so that each process's pages are
//! homed only on L2 slices that belong to that process (MI6) or to its cluster
//! (IRONHIDE). IRONHIDE's dynamic hardware isolation re-homes pages when L2
//! slices move between clusters.

use std::fmt;

use ironhide_fx::FxHashMap;

/// Identifier of a physical page (physical address divided by the page size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(pub u64);

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page{:#x}", self.0)
    }
}

/// Identifier of an L2 slice; slices are co-located with tiles, so this is the
/// tile/node index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SliceId(pub usize);

impl fmt::Display for SliceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slice{}", self.0)
    }
}

/// The homing policy in effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HomePolicy {
    /// The machine default: hash every page across the allowed slices.
    /// Leaks inter-process interference through shared slices, so the secure
    /// baselines never use it for partitioned data.
    #[default]
    HashForHome,
    /// Strong-isolation policy: every page is pinned to a single slice chosen
    /// from the owner's allowed slices, and explicit pins always win.
    LocalHoming,
}

/// Error returned when a page cannot be homed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HomingError {
    /// The page that could not be homed.
    pub page: PageId,
    /// Human-readable reason.
    pub reason: &'static str,
}

impl fmt::Display for HomingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot home {}: {}", self.page, self.reason)
    }
}

impl std::error::Error for HomingError {}

/// Maps physical pages to their home L2 slice.
#[derive(Debug, Clone, Default)]
pub struct HomeMap {
    policy: HomePolicy,
    allowed: Vec<SliceId>,
    /// Membership bitset over `allowed` (one bit per slice id), rebuilt by
    /// [`HomeMap::set_allowed`]: the pin/rehome paths test membership in O(1)
    /// instead of scanning the allowed vector per page.
    allowed_bits: Vec<u64>,
    /// Page pins, consulted on every L1 miss. Keyed with the deterministic Fx
    /// hasher: it is both faster than SipHash and gives the map a
    /// process-independent iteration order, which [`HomeMap::rehome_all`]'s
    /// round-robin assignment depends on for reproducible reconfigurations.
    pins: FxHashMap<PageId, SliceId>,
    /// Reverse index: how many pages are currently pinned to each slice,
    /// maintained by `pin`/`rehome`/`rehome_all_logged`. Lets a
    /// reconfiguration decide in O(distinct pinned slices) — not O(pins) —
    /// whether any page is homed on a now-disallowed slice, which is the
    /// common no-op case under churn. The *enumeration* of moved pages still
    /// walks the pin table when pages do move: the round-robin target
    /// assignment is defined over the pin table's iteration order, and that
    /// order (hence the simulated-cycle checksums) cannot be reconstructed
    /// from a per-slice index.
    pins_per_slice: FxHashMap<SliceId, u32>,
    rehomes: u64,
}

impl HomeMap {
    /// Creates a home map over the given allowed slices using the default
    /// hash-for-home policy.
    pub fn new(allowed: impl IntoIterator<Item = SliceId>) -> Self {
        let mut m = HomeMap {
            policy: HomePolicy::HashForHome,
            allowed: allowed.into_iter().collect(),
            allowed_bits: Vec::new(),
            pins: FxHashMap::default(),
            pins_per_slice: FxHashMap::default(),
            rehomes: 0,
        };
        m.rebuild_allowed_bits();
        m
    }

    /// Rebuilds the membership bitset from the allowed vector.
    fn rebuild_allowed_bits(&mut self) {
        self.allowed_bits.iter_mut().for_each(|w| *w = 0);
        let max = self.allowed.iter().map(|s| s.0).max();
        if let Some(max) = max {
            if self.allowed_bits.len() <= max / 64 {
                self.allowed_bits.resize(max / 64 + 1, 0);
            }
        }
        for s in &self.allowed {
            self.allowed_bits[s.0 / 64] |= 1 << (s.0 % 64);
        }
    }

    /// O(1) membership test against the allowed set.
    #[inline]
    fn is_allowed(&self, slice: SliceId) -> bool {
        self.allowed_bits.get(slice.0 / 64).is_some_and(|w| w & (1 << (slice.0 % 64)) != 0)
    }

    /// Records in the reverse index that a pin moved `from` one slice onto
    /// another (`None` for a fresh pin).
    #[inline]
    fn index_repin(&mut self, from: Option<SliceId>, to: SliceId) {
        if let Some(old) = from {
            if old == to {
                return;
            }
            if let Some(n) = self.pins_per_slice.get_mut(&old) {
                *n -= 1;
                if *n == 0 {
                    self.pins_per_slice.remove(&old);
                }
            }
        }
        *self.pins_per_slice.entry(to).or_insert(0) += 1;
    }

    /// Creates a local-homing map (the strong-isolation configuration).
    pub fn local(allowed: impl IntoIterator<Item = SliceId>) -> Self {
        let mut m = HomeMap::new(allowed);
        m.policy = HomePolicy::LocalHoming;
        m
    }

    /// The active policy.
    pub fn policy(&self) -> HomePolicy {
        self.policy
    }

    /// The slices pages may currently be homed on.
    pub fn allowed_slices(&self) -> &[SliceId] {
        &self.allowed
    }

    /// Number of re-homing operations performed (each corresponds to an
    /// unmap/set-home/remap sequence on the prototype).
    pub fn rehome_count(&self) -> u64 {
        self.rehomes
    }

    /// Replaces the set of allowed slices (used when a cluster gains or loses
    /// tiles). Existing pins outside the new set must be re-homed explicitly
    /// by the caller via [`HomeMap::rehome_all`].
    pub fn set_allowed(&mut self, allowed: impl IntoIterator<Item = SliceId>) {
        self.allowed.clear();
        self.allowed.extend(allowed);
        self.rebuild_allowed_bits();
    }

    /// Whether any pinned page currently lives outside the allowed set —
    /// i.e. whether [`HomeMap::rehome_all`] would move anything. O(distinct
    /// pinned slices) via the reverse index, not O(pins).
    pub fn has_disallowed_pins(&self) -> bool {
        self.pins_per_slice.keys().any(|s| !self.is_allowed(*s))
    }

    /// Pins `page` to `slice` (the `tmc_alloc_set_home` call).
    ///
    /// # Errors
    ///
    /// Fails if `slice` is not in the allowed set.
    pub fn pin(&mut self, page: PageId, slice: SliceId) -> Result<(), HomingError> {
        if !self.is_allowed(slice) {
            return Err(HomingError { page, reason: "target slice is not owned by this domain" });
        }
        let prev = self.pins.insert(page, slice);
        self.index_repin(prev, slice);
        Ok(())
    }

    /// The home slice of `page`.
    ///
    /// # Errors
    ///
    /// Fails if no slices are allowed, or if the policy is local homing and the
    /// page has not been pinned (strong isolation forbids silently hashing it
    /// onto an arbitrary slice).
    pub fn home_of(&self, page: PageId) -> Result<SliceId, HomingError> {
        if let Some(s) = self.pins.get(&page) {
            return Ok(*s);
        }
        if self.allowed.is_empty() {
            return Err(HomingError { page, reason: "no slices allowed for this domain" });
        }
        match self.policy {
            HomePolicy::HashForHome => {
                let idx = (page.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) as usize
                    % self.allowed.len();
                Ok(self.allowed[idx])
            }
            HomePolicy::LocalHoming => {
                // Local homing defaults to a deterministic spread over the
                // owner's slices for pages that were never explicitly pinned
                // (e.g. stack pages); the spread still never leaves the
                // allowed set.
                let idx = (page.0 % self.allowed.len() as u64) as usize;
                Ok(self.allowed[idx])
            }
        }
    }

    /// Re-homes a single page to `new_slice` (the unmap/set-home/remap
    /// sequence of the prototype).
    ///
    /// # Errors
    ///
    /// Fails if `new_slice` is not allowed.
    pub fn rehome(&mut self, page: PageId, new_slice: SliceId) -> Result<(), HomingError> {
        self.pin(page, new_slice)?;
        self.rehomes += 1;
        Ok(())
    }

    /// Re-homes every pinned page that currently lives outside the allowed
    /// set, spreading them round-robin over the allowed slices. Returns the
    /// number of pages moved. This is the bulk page-migration step of
    /// IRONHIDE's cluster reconfiguration.
    pub fn rehome_all(&mut self) -> Result<u64, HomingError> {
        let mut log = Vec::new();
        self.rehome_all_logged(&mut log)
    }

    /// Like [`HomeMap::rehome_all`], but also appends each moved page and
    /// the slice it was homed on *before* the move to `log`. The machine
    /// uses the log to scrub the moved pages' cache lines and directory
    /// entries — on the prototype the unmap/set-home/remap sequence flushes
    /// the page from every cache, so a re-homed page must not leave copies
    /// (or coherence metadata) behind at its old home.
    pub fn rehome_all_logged(
        &mut self,
        log: &mut Vec<(PageId, SliceId)>,
    ) -> Result<u64, HomingError> {
        if self.allowed.is_empty() {
            return Err(HomingError {
                page: PageId(0),
                reason: "cannot re-home pages: no slices allowed",
            });
        }
        // Fast path: the reverse index knows in O(distinct pinned slices)
        // whether anything is pinned outside the allowed set. Under churn
        // most calls restrict to a superset (or re-apply the same set) and
        // move nothing — they must not pay an O(pins) walk.
        if !self.has_disallowed_pins() {
            return Ok(0);
        }
        let start = log.len();
        // Pages do move: enumerate them in the pin table's iteration order.
        // The order is observable — the round-robin assignment below maps the
        // i-th moved page to `allowed[i % k]` — so this walk cannot be
        // replaced by iterating the reverse index (which would visit pages
        // grouped by old slice and re-deal every target).
        log.extend(self.pins.iter().filter(|(_, s)| !self.is_allowed(**s)).map(|(p, s)| (*p, *s)));
        Ok(self.assign_round_robin(&log[start..]))
    }

    /// Assigns round-robin targets to an already-enumerated moved log,
    /// updating the pin table and the reverse index. Shared tail of
    /// [`HomeMap::rehome_all_logged`] and its reference twin.
    fn assign_round_robin(&mut self, moved_log: &[(PageId, SliceId)]) -> u64 {
        let mut moved = 0;
        for (i, (page, old)) in moved_log.iter().enumerate() {
            let target = self.allowed[i % self.allowed.len()];
            self.pins.insert(*page, target);
            self.index_repin(Some(*old), target);
            self.rehomes += 1;
            moved += 1;
        }
        moved
    }

    /// The pre-index reference implementation of
    /// [`HomeMap::rehome_all_logged`]: a full O(pins × allowed) walk with a
    /// linear membership scan per pin and no zero-move fast path. Kept (and
    /// exercised by `tests/reconfig_equivalence.rs` and the churn harness's
    /// differential gate) as the byte-identity reference the indexed path
    /// must match move for move.
    ///
    /// # Errors
    ///
    /// Fails when no slices are allowed, like the indexed path.
    pub fn rehome_all_logged_reference(
        &mut self,
        log: &mut Vec<(PageId, SliceId)>,
    ) -> Result<u64, HomingError> {
        if self.allowed.is_empty() {
            return Err(HomingError {
                page: PageId(0),
                reason: "cannot re-home pages: no slices allowed",
            });
        }
        let start = log.len();
        log.extend(
            self.pins.iter().filter(|(_, s)| !self.allowed.contains(s)).map(|(p, s)| (*p, *s)),
        );
        Ok(self.assign_round_robin(&log[start..]))
    }

    /// The slice `page` is explicitly pinned to, if any (`None` for pages
    /// that would fall through to the policy spread). Lets the machine
    /// detect when a pin *moves* an already-used page's home.
    pub fn pinned_home(&self, page: PageId) -> Option<SliceId> {
        self.pins.get(&page).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slices(ids: &[usize]) -> Vec<SliceId> {
        ids.iter().map(|i| SliceId(*i)).collect()
    }

    #[test]
    fn hash_for_home_spreads_but_stays_allowed() {
        let m = HomeMap::new(slices(&[0, 1, 2, 3]));
        let mut seen = std::collections::HashSet::new();
        for p in 0..64 {
            let h = m.home_of(PageId(p)).unwrap();
            assert!(m.allowed_slices().contains(&h));
            seen.insert(h);
        }
        assert!(seen.len() > 1, "hashing must use more than one slice");
    }

    #[test]
    fn local_homing_respects_pins() {
        let mut m = HomeMap::local(slices(&[4, 5]));
        m.pin(PageId(7), SliceId(5)).unwrap();
        assert_eq!(m.home_of(PageId(7)).unwrap(), SliceId(5));
        // Unpinned pages stay within the allowed set.
        assert!(m.allowed_slices().contains(&m.home_of(PageId(99)).unwrap()));
    }

    #[test]
    fn pin_outside_allowed_rejected() {
        let mut m = HomeMap::local(slices(&[0, 1]));
        let err = m.pin(PageId(1), SliceId(9)).unwrap_err();
        assert!(err.to_string().contains("not owned"));
    }

    #[test]
    fn rehome_all_moves_stale_pages() {
        let mut m = HomeMap::local(slices(&[0, 1, 2, 3]));
        for p in 0..8u64 {
            m.pin(PageId(p), SliceId((p % 4) as usize)).unwrap();
        }
        // The cluster shrinks: slices 2 and 3 are given away.
        m.set_allowed(slices(&[0, 1]));
        let moved = m.rehome_all().unwrap();
        assert_eq!(moved, 4);
        for p in 0..8u64 {
            let h = m.home_of(PageId(p)).unwrap();
            assert!(h == SliceId(0) || h == SliceId(1));
        }
        assert_eq!(m.rehome_count(), 4);
    }

    #[test]
    fn empty_allowed_set_errors() {
        let m = HomeMap::local(Vec::<SliceId>::new());
        assert!(m.home_of(PageId(3)).is_err());
        let mut m2 = m.clone();
        assert!(m2.rehome_all().is_err());
    }

    #[test]
    fn rehome_single_page() {
        let mut m = HomeMap::local(slices(&[0, 1]));
        m.pin(PageId(10), SliceId(0)).unwrap();
        m.rehome(PageId(10), SliceId(1)).unwrap();
        assert_eq!(m.home_of(PageId(10)).unwrap(), SliceId(1));
        assert_eq!(m.rehome_count(), 1);
    }

    #[test]
    fn deterministic_homing() {
        let m = HomeMap::new(slices(&[0, 1, 2, 3, 4, 5, 6, 7]));
        for p in 0..32 {
            assert_eq!(m.home_of(PageId(p)).unwrap(), m.home_of(PageId(p)).unwrap());
        }
    }
}
