//! Cooperative cancellation shared across solver threads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// A cloneable cancellation token.
///
/// All clones share one flag. Raising it makes every [`Solver`] holding the
/// token's flag (via [`Solver::set_stop_flag`]) return
/// [`SolveResult::Interrupted`] promptly, and makes cooperative loops
/// (weight descent, annealing, portfolio workers) exit at their next
/// checkpoint. The flag is level-triggered and never auto-reset.
///
/// Threads that have nothing to poll can block in [`wait_until`] instead:
/// [`cancel`] wakes every waiter on every clone.
///
/// [`Solver`]: crate::Solver
/// [`Solver::set_stop_flag`]: crate::Solver::set_stop_flag
/// [`SolveResult::Interrupted`]: crate::SolveResult::Interrupted
/// [`wait_until`]: CancelToken::wait_until
/// [`cancel`]: CancelToken::cancel
///
/// # Example
///
/// ```
/// use sat::CancelToken;
///
/// let token = CancelToken::new();
/// let clone = token.clone();
/// assert!(!clone.is_cancelled());
/// token.cancel();
/// assert!(clone.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// Waiters block on the condvar; the mutex orders a waiter's flag
    /// check against [`CancelToken::cancel`]'s notify, so no wake-up is
    /// lost between the two.
    wake: Arc<(Mutex<()>, Condvar)>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Raises the flag and wakes every [`wait_until`](Self::wait_until)
    /// caller. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
        let (lock, cvar) = &*self.wake;
        drop(lock.lock().unwrap());
        cvar.notify_all();
    }

    /// True once any clone has cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Blocks until the token is cancelled or `deadline` passes. Returns
    /// `true` when cancelled — at once if that happened before the call —
    /// and `false` at the deadline.
    pub fn wait_until(&self, deadline: Instant) -> bool {
        let (lock, cvar) = &*self.wake;
        let mut guard = lock.lock().unwrap();
        while !self.is_cancelled() {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            guard = cvar.wait_timeout(guard, deadline - now).unwrap().0;
        }
        true
    }

    /// The underlying flag, in the form [`Solver::set_stop_flag`] accepts.
    ///
    /// [`Solver::set_stop_flag`]: crate::Solver::set_stop_flag
    pub fn flag(&self) -> Arc<AtomicBool> {
        self.flag.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        b.cancel(); // idempotent
        assert!(a.is_cancelled());
    }

    #[test]
    fn distinct_tokens_are_independent() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(!b.is_cancelled());
    }

    #[test]
    fn wait_until_wakes_promptly_on_cancel_from_another_thread() {
        let token = CancelToken::new();
        let canceller = token.clone();
        let started = Instant::now();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            canceller.cancel();
        });
        assert!(token.wait_until(started + Duration::from_secs(60)));
        handle.join().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "woke late: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn wait_until_returns_false_at_the_deadline() {
        let token = CancelToken::new();
        let started = Instant::now();
        assert!(!token.wait_until(started + Duration::from_millis(30)));
        assert!(started.elapsed() >= Duration::from_millis(30));
        assert!(!token.is_cancelled());
        // A deadline already in the past returns at once.
        assert!(!token.wait_until(started));
    }

    #[test]
    fn wait_until_returns_at_once_when_already_cancelled() {
        let token = CancelToken::new();
        token.cancel();
        let started = Instant::now();
        assert!(token.wait_until(started + Duration::from_secs(60)));
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn clones_share_the_wake() {
        // Waiters on several clones all wake when a further clone cancels.
        let token = CancelToken::new();
        let deadline = Instant::now() + Duration::from_secs(60);
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let clone = token.clone();
                std::thread::spawn(move || clone.wait_until(deadline))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        token.clone().cancel();
        for waiter in waiters {
            assert!(waiter.join().unwrap());
        }
        assert!(Instant::now() < deadline);
    }
}
