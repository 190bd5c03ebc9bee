//! External stop conditions.
//!
//! In the paper's parallel scheme every MPI process performs a *non-blocking test
//! every `c` iterations* to learn whether some other process has already found a
//! solution (§V-A).  The engine models this with a [`StopCondition`]: a cheap
//! predicate polled every [`crate::AsConfig::stop_check_interval`] iterations.  The
//! `multiwalk` thread runner plugs a shared `AtomicBool` ([`FlagStop`]) into this
//! hook, next to the request deadline and cancel token.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why the engine was asked to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Another walker found a solution (or the coordinator cancelled the job).
    Cancelled,
    /// A wall-clock deadline expired.
    Deadline,
}

/// A poll-able stop condition.
///
/// Deliberately *not* `Send`-bounded: each walk owns its own stop condition (which may
/// hold non-`Sync` state); only the underlying signal (an atomic flag, a channel)
/// needs to cross threads.
pub trait StopCondition {
    /// Return `Some(reason)` when the engine should stop now.
    fn should_stop(&mut self) -> Option<StopReason>;
}

/// Never stops; the default for purely sequential runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverStop;

impl StopCondition for NeverStop {
    fn should_stop(&mut self) -> Option<StopReason> {
        None
    }
}

/// Stop when a shared flag is raised — the thread-parallel analogue of the paper's
/// "some other process has found a solution" message.
#[derive(Debug, Clone)]
pub struct FlagStop {
    flag: Arc<AtomicBool>,
}

impl FlagStop {
    /// Wrap a shared flag.
    pub fn new(flag: Arc<AtomicBool>) -> Self {
        Self { flag }
    }

    /// Create a fresh unraised flag and its stop condition.
    pub fn fresh() -> (Arc<AtomicBool>, Self) {
        let flag = Arc::new(AtomicBool::new(false));
        (flag.clone(), Self { flag })
    }
}

impl StopCondition for FlagStop {
    fn should_stop(&mut self) -> Option<StopReason> {
        if self.flag.load(Ordering::Relaxed) {
            Some(StopReason::Cancelled)
        } else {
            None
        }
    }
}

/// A shared cancellation handle: the owner side of a [`FlagStop`].
///
/// One token is created per solve job; cloning shares the underlying flag, so
/// a service can keep one clone in a registry (to honour a `cancel` wire
/// request) while the worker threads poll another through
/// [`CancelToken::stop_condition`].  Raising the flag is idempotent and
/// irrevocable for the job's lifetime — a cancelled job stays cancelled.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raise the flag: every stop condition derived from this token (or any of
    /// its clones) fires [`StopReason::Cancelled`] at its next poll.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has the flag been raised?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// A [`StopCondition`] view of this token, for the engine's polling loop.
    pub fn stop_condition(&self) -> FlagStop {
        FlagStop::new(self.flag.clone())
    }

    /// Do two handles share the same underlying flag?  (Used by services to
    /// guard registry removal against id reuse.)
    pub fn same_token(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }
}

/// Stop when a wall-clock deadline has passed.
#[derive(Debug, Clone)]
pub struct DeadlineStop {
    deadline: Instant,
}

impl DeadlineStop {
    /// Stop after the given duration from now.
    pub fn after(timeout: Duration) -> Self {
        Self {
            deadline: Instant::now() + timeout,
        }
    }

    /// Stop at the given instant.
    pub fn at(deadline: Instant) -> Self {
        Self { deadline }
    }
}

impl StopCondition for DeadlineStop {
    fn should_stop(&mut self) -> Option<StopReason> {
        if Instant::now() >= self.deadline {
            Some(StopReason::Deadline)
        } else {
            None
        }
    }
}

/// Combine several stop conditions; the first one that fires wins.
pub struct AnyStop {
    conditions: Vec<Box<dyn StopCondition>>,
}

impl AnyStop {
    /// Build from a list of boxed conditions.
    pub fn new(conditions: Vec<Box<dyn StopCondition>>) -> Self {
        Self { conditions }
    }
}

impl StopCondition for AnyStop {
    fn should_stop(&mut self) -> Option<StopReason> {
        self.conditions.iter_mut().find_map(|c| c.should_stop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_stop_never_stops() {
        let mut s = NeverStop;
        for _ in 0..10 {
            assert_eq!(s.should_stop(), None);
        }
    }

    #[test]
    fn flag_stop_fires_when_raised() {
        let (flag, mut stop) = FlagStop::fresh();
        assert_eq!(stop.should_stop(), None);
        flag.store(true, Ordering::Relaxed);
        assert_eq!(stop.should_stop(), Some(StopReason::Cancelled));
    }

    #[test]
    fn deadline_stop_fires_after_timeout() {
        let mut immediate = DeadlineStop::after(Duration::ZERO);
        assert_eq!(immediate.should_stop(), Some(StopReason::Deadline));
        let mut later = DeadlineStop::after(Duration::from_secs(3600));
        assert_eq!(later.should_stop(), None);
        let mut at = DeadlineStop::at(Instant::now() - Duration::from_millis(1));
        assert_eq!(at.should_stop(), Some(StopReason::Deadline));
    }

    #[test]
    fn any_stop_returns_first_firing_condition() {
        let (_flag, flag_stop) = FlagStop::fresh();
        let mut any = AnyStop::new(vec![
            Box::new(flag_stop),
            Box::new(DeadlineStop::after(Duration::ZERO)),
        ]);
        assert_eq!(any.should_stop(), Some(StopReason::Deadline));
        let mut none = AnyStop::new(vec![Box::new(NeverStop), Box::new(NeverStop)]);
        assert_eq!(none.should_stop(), None);
    }

    #[test]
    fn cancel_token_is_shared_and_idempotent() {
        let token = CancelToken::new();
        let clone = token.clone();
        let mut stop = token.stop_condition();
        assert!(!token.is_cancelled());
        assert_eq!(stop.should_stop(), None);
        clone.cancel();
        clone.cancel(); // idempotent
        assert!(token.is_cancelled());
        assert_eq!(stop.should_stop(), Some(StopReason::Cancelled));
        assert!(token.same_token(&clone));
        assert!(!token.same_token(&CancelToken::new()));
    }
}
