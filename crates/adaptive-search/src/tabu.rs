//! Short-term Tabu memory.
//!
//! Adaptive Search freezes a variable ("marks it Tabu") when no move from it improves
//! the configuration (paper §III-A).  A frozen variable is skipped when selecting the
//! culprit variable until its tenure expires.  The number of simultaneously frozen
//! variables is also the trigger of the reset operator (`RL`).
//!
//! The implementation stores, per variable, the iteration index until which it is
//! frozen — expiry is therefore O(1) per query with no per-iteration bookkeeping.

/// Per-variable freeze horizon.
#[derive(Debug, Clone)]
pub struct TabuList {
    /// `frozen_until[i]` = first iteration at which variable `i` is free again.
    frozen_until: Vec<u64>,
    /// Tenure applied by [`TabuList::freeze`].
    tenure: u64,
}

impl TabuList {
    /// Create an empty Tabu list for `n` variables with the given tenure.
    pub fn new(n: usize, tenure: u64) -> Self {
        Self {
            frozen_until: vec![0; n],
            tenure,
        }
    }

    /// Number of variables tracked.
    pub fn len(&self) -> usize {
        self.frozen_until.len()
    }

    /// True when tracking zero variables.
    pub fn is_empty(&self) -> bool {
        self.frozen_until.is_empty()
    }

    /// Freeze variable `var` starting at `now` for the configured tenure.
    pub fn freeze(&mut self, var: usize, now: u64) {
        self.frozen_until[var] = now + self.tenure;
    }

    /// Freeze variable `var` for a specific duration.
    pub fn freeze_for(&mut self, var: usize, now: u64, duration: u64) {
        self.frozen_until[var] = now + duration;
    }

    /// Is variable `var` frozen at iteration `now`?
    pub fn is_tabu(&self, var: usize, now: u64) -> bool {
        self.frozen_until[var] > now
    }

    /// Number of variables frozen at iteration `now` (the quantity compared to `RL`).
    pub fn frozen_count(&self, now: u64) -> usize {
        self.frozen_until
            .iter()
            .filter(|&&until| until > now)
            .count()
    }

    /// Clear all freezes (used after a reset or restart).
    pub fn clear(&mut self) {
        self.frozen_until.iter_mut().for_each(|u| *u = 0);
    }

    /// Raw per-variable freeze horizons, for checkpointing.
    pub fn horizons(&self) -> &[u64] {
        &self.frozen_until
    }

    /// Restore the per-variable freeze horizons captured by [`TabuList::horizons`].
    ///
    /// # Panics
    /// Panics if `horizons.len()` differs from the number of tracked variables.
    pub fn restore_horizons(&mut self, horizons: &[u64]) {
        assert_eq!(
            horizons.len(),
            self.frozen_until.len(),
            "horizon snapshot length mismatch"
        );
        self.frozen_until.copy_from_slice(horizons);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_and_expiry() {
        let mut tabu = TabuList::new(5, 3);
        assert_eq!(tabu.len(), 5);
        assert!(!tabu.is_empty());
        assert!(!tabu.is_tabu(2, 10));
        tabu.freeze(2, 10);
        assert!(tabu.is_tabu(2, 10));
        assert!(tabu.is_tabu(2, 12));
        assert!(
            !tabu.is_tabu(2, 13),
            "tenure 3 starting at 10 expires at 13"
        );
        assert!(!tabu.is_tabu(1, 10));
    }

    #[test]
    fn frozen_count_tracks_simultaneous_freezes() {
        let mut tabu = TabuList::new(4, 5);
        assert_eq!(tabu.frozen_count(0), 0);
        tabu.freeze(0, 0);
        tabu.freeze(3, 2);
        assert_eq!(tabu.frozen_count(3), 2);
        assert_eq!(tabu.frozen_count(5), 1, "variable 0 expired at 5");
        assert_eq!(tabu.frozen_count(7), 0);
    }

    #[test]
    fn clear_unfreezes_everything() {
        let mut tabu = TabuList::new(3, 100);
        tabu.freeze(0, 0);
        tabu.freeze(1, 0);
        tabu.freeze(2, 0);
        assert_eq!(tabu.frozen_count(1), 3);
        tabu.clear();
        assert_eq!(tabu.frozen_count(1), 0);
    }

    #[test]
    fn freeze_for_overrides_tenure() {
        let mut tabu = TabuList::new(2, 1);
        tabu.freeze_for(0, 0, 10);
        assert!(tabu.is_tabu(0, 9));
        assert!(!tabu.is_tabu(0, 10));
        // the configured tenure still applies to plain freezes
        tabu.freeze(1, 0);
        assert!(tabu.is_tabu(1, 0) && !tabu.is_tabu(1, 1));
    }

    #[test]
    fn zero_tenure_never_freezes() {
        let mut tabu = TabuList::new(2, 0);
        tabu.freeze(0, 5);
        assert!(!tabu.is_tabu(0, 5));
        assert_eq!(tabu.frozen_count(5), 0);
    }

    #[test]
    fn refreezing_extends_the_horizon() {
        let mut tabu = TabuList::new(1, 2);
        tabu.freeze(0, 0); // frozen until 2
        tabu.freeze(0, 5); // frozen until 7
        assert!(!tabu.is_tabu(0, 3) || tabu.is_tabu(0, 3)); // at 3 it was free again
        assert!(tabu.is_tabu(0, 6));
        assert!(!tabu.is_tabu(0, 7));
    }
}
