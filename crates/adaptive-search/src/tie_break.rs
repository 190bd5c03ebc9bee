//! Uniform tie-breaking over extremal candidates, shared by the engine's culprit
//! selection and min-conflict scan and by the baseline solvers.
//!
//! Every best-of-neighbourhood loop in the workspace has the same shape: sweep the
//! candidates in a fixed order, keep the running extremum, collect the indices that
//! tie for it, and pick one of those uniformly at random with a **single** RNG
//! draw.  The single-draw reservoir matters for reproducibility: consuming one
//! draw per selection (rather than one per tie, as an online reservoir would)
//! keeps a walk's random stream independent of how many ties each neighbourhood
//! happens to contain, so tuning a model's cost function cannot silently shift
//! every later decision of the walk.
//!
//! [`TieBreak`] is that pattern as a reusable accumulator.

use xrand::{RandExt, Rng64};

/// Accumulator for the indices tying for the extremal value of a sweep.
///
/// Feed candidates with [`TieBreak::offer_min`] (or [`TieBreak::offer_max`]) in a
/// deterministic order, then resolve with [`TieBreak::pick`].  The internal
/// buffer is reused across [`TieBreak::clear`] calls, so a long-lived accumulator
/// allocates only on growth.
#[derive(Debug, Clone, Default)]
pub struct TieBreak<V> {
    best: Option<V>,
    ties: Vec<usize>,
}

impl<V: Copy + Ord> TieBreak<V> {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            best: None,
            ties: Vec::new(),
        }
    }

    /// An empty accumulator with room for `capacity` ties.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            best: None,
            ties: Vec::with_capacity(capacity),
        }
    }

    /// Forget everything, keeping the allocation.
    pub fn clear(&mut self) {
        self.best = None;
        self.ties.clear();
    }

    /// Offer a candidate to a **minimising** sweep: it replaces the tie set when
    /// strictly better, joins it when equal, and is dropped otherwise.
    #[inline]
    pub fn offer_min(&mut self, index: usize, value: V) {
        match self.best {
            Some(best) if value > best => {}
            Some(best) if value == best => self.ties.push(index),
            _ => {
                self.best = Some(value);
                self.ties.clear();
                self.ties.push(index);
            }
        }
    }

    /// Offer a candidate to a **maximising** sweep.
    #[inline]
    pub fn offer_max(&mut self, index: usize, value: V) {
        match self.best {
            Some(best) if value < best => {}
            Some(best) if value == best => self.ties.push(index),
            _ => {
                self.best = Some(value);
                self.ties.clear();
                self.ties.push(index);
            }
        }
    }

    /// The extremal value seen so far, if any candidate was offered.
    pub fn best(&self) -> Option<V> {
        self.best
    }

    /// The indices currently tying for the extremum, in offer order.
    pub fn ties(&self) -> &[usize] {
        &self.ties
    }

    /// Has no candidate been offered?
    pub fn is_empty(&self) -> bool {
        self.ties.is_empty()
    }

    /// Resolve the sweep: one of the tied indices, uniformly at random, consuming
    /// exactly one draw; `None` when no candidate was offered.
    pub fn pick<R: Rng64 + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        if self.ties.is_empty() {
            None
        } else {
            Some(self.ties[rng.index(self.ties.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrand::default_rng;

    #[test]
    fn min_sweep_tracks_best_and_ties_in_order() {
        let mut tb = TieBreak::new();
        assert!(tb.is_empty());
        assert_eq!(tb.best(), None);
        for (i, v) in [5u64, 3, 7, 3, 3, 9].into_iter().enumerate() {
            tb.offer_min(i, v);
        }
        assert_eq!(tb.best(), Some(3));
        assert_eq!(tb.ties(), &[1, 3, 4]);
    }

    #[test]
    fn max_sweep_is_symmetric() {
        let mut tb = TieBreak::new();
        for (i, v) in [5u64, 9, 7, 9, 3].into_iter().enumerate() {
            tb.offer_max(i, v);
        }
        assert_eq!(tb.best(), Some(9));
        assert_eq!(tb.ties(), &[1, 3]);
        tb.clear();
        assert!(tb.is_empty());
        assert_eq!(tb.best(), None);
    }

    #[test]
    fn pick_is_uniform_over_the_ties() {
        let mut tb = TieBreak::new();
        for i in 0..4usize {
            tb.offer_min(10 + i, 1u64);
        }
        let mut rng = default_rng(42);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            let pick = tb.pick(&mut rng).unwrap();
            counts[pick - 10] += 1;
        }
        // 4000 draws over 4 outcomes: each lands well within [800, 1200].
        assert!(
            counts.iter().all(|&c| (800..=1200).contains(&c)),
            "{counts:?}"
        );
    }

    #[test]
    fn pick_consumes_exactly_one_draw() {
        let mut tb = TieBreak::new();
        tb.offer_min(0, 1u64);
        tb.offer_min(1, 1u64);
        let mut a = default_rng(7);
        let mut b = default_rng(7);
        let _ = tb.pick(&mut a);
        let _ = b.index(2);
        assert_eq!(a.next_u64(), b.next_u64(), "streams advanced identically");
    }

    #[test]
    fn empty_pick_is_none_and_consumes_nothing() {
        let tb: TieBreak<u64> = TieBreak::with_capacity(8);
        let mut a = default_rng(3);
        let mut b = default_rng(3);
        assert_eq!(tb.pick(&mut a), None);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn pick_matches_direct_indexing() {
        let ties = [4usize, 8, 15, 16, 23, 42];
        let mut tb = TieBreak::new();
        for &i in &ties {
            tb.offer_max(i, 1u64);
        }
        let mut a = default_rng(99);
        let mut b = default_rng(99);
        assert_eq!(tb.pick(&mut a), Some(ties[b.index(ties.len())]));
    }
}
