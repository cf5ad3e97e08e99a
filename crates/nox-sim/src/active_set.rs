//! The set type behind the step loop's three active sets.
//!
//! [`Network::step`](crate::network::Network::step) walks the sources
//! that can inject, the sinks that hold a word and the routers that are
//! awake, not every source, sink and router (DESIGN.md §19). Each of
//! those is an [`ActiveSet`]: one bit per index over a universe fixed by
//! the topology, visited in ascending index order, so the order in which
//! counters move, credits queue and the probe hears of events is the
//! order of a walk over everything.

/// A set of indices below a fixed bound, one bit each.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ActiveSet {
    words: Box<[u64]>,
    /// Indices run from 0 to `universe - 1`.
    universe: usize,
}

impl ActiveSet {
    /// The empty set over `0..universe`.
    pub(crate) fn new(universe: usize) -> Self {
        ActiveSet {
            words: vec![0; universe.div_ceil(64)].into_boxed_slice(),
            universe,
        }
    }

    /// Adds `i`.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        debug_assert!(i < self.universe);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Is `i` a member?
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Makes every index of the universe a member.
    pub(crate) fn fill(&mut self) {
        for (w, word) in self.words.iter_mut().enumerate() {
            // Every word has at least one index of the universe in it.
            let members = (self.universe - w * 64).min(64);
            *word = u64::MAX >> (64 - members);
        }
    }

    /// The members in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                let bit = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
                bits &= bits - 1;
                Some(w * 64 + bit)
            })
        })
    }

    /// Visits the members in ascending order and keeps those for which
    /// `visit` returns `true`: a loop over the things that can act, each
    /// deciding at the end of its visit whether it still can. The set is
    /// borrowed for the whole pass, so nothing joins it under the walk.
    #[inline]
    pub(crate) fn retain(&mut self, mut visit: impl FnMut(usize) -> bool) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                if !visit(w * 64 + bit as usize) {
                    *word &= !(1 << bit);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_come_back_in_ascending_order_across_words() {
        // 256 cores is `mesh(16,16)`: four words.
        let mut s = ActiveSet::new(256);
        assert_eq!(s.iter().next(), None);
        for i in [200, 3, 64, 63, 255, 128] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), [3, 63, 64, 128, 200, 255]);
        assert_eq!(s.iter().count(), 6);
        assert!(s.contains(64) && !s.contains(65));
    }

    #[test]
    fn fill_stops_at_the_universe() {
        for universe in [0, 1, 16, 64, 65, 256] {
            let mut s = ActiveSet::new(universe);
            s.fill();
            assert_eq!(
                s.iter().collect::<Vec<_>>(),
                (0..universe).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn retain_visits_every_member_once_in_order_and_drops_the_refused() {
        let mut s = ActiveSet::new(130);
        s.fill();
        let mut seen = Vec::new();
        s.retain(|i| {
            seen.push(i);
            i % 3 == 0
        });
        assert_eq!(seen, (0..130).collect::<Vec<_>>());
        assert!(s.iter().all(|i| i % 3 == 0));
        assert_eq!(s.iter().count(), 44);
    }
}
