//! Victim selection for full sets, shared by the caches and the coherence
//! directory: both replace their least recently used entry.

/// Index of the least recently used entry of a full `set` — the smallest
/// `last_use` stamp, the first of them on ties. Reads the stamps in place,
/// so the miss path stays allocation-free.
///
/// # Panics
///
/// Panics if `set` is empty.
pub(crate) fn lru_victim<T>(set: &[T], last_use: impl Fn(&T) -> u64) -> usize {
    assert!(!set.is_empty(), "victim selection requires at least one way");
    let mut best = 0;
    for (i, e) in set.iter().enumerate() {
        if last_use(e) < last_use(&set[best]) {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_assoc::Way;

    /// Builds a set of valid ways with the given recency stamps.
    fn ways(last_use: &[u64]) -> Vec<Way> {
        last_use.iter().map(|lu| Way::stamped(*lu)).collect()
    }

    fn victim(set: &[Way]) -> usize {
        lru_victim(set, Way::last_use)
    }

    #[test]
    fn lru_picks_least_recent() {
        assert_eq!(victim(&ways(&[10, 3, 7, 9])), 1);
    }

    #[test]
    fn min_index_prefers_first_on_tie() {
        assert_eq!(victim(&ways(&[2, 2, 2])), 0);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn empty_set_rejected() {
        victim(&[]);
    }
}
