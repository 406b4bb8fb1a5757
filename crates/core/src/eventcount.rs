//! The one wait/notify primitive every blocking hand-off uses.
//!
//! The paper has two places a thread waits: the master core stalls on a
//! full Task Pool until a finish frees a slot, and idle workers wait
//! until the Kick-Off List hands them work. Their software forms — a
//! submitter parked on a full shard, an idle scheduler worker, a
//! `barrier` waiting for quiescence, a `submit_blocking` client and the
//! service's shutdown drain waiting on a tenant lane — all block on an
//! [`EventCount`] and differ only in what they recheck and who
//! notifies.

use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// An eventcount: a notify costs no kernel entry unless a thread is
/// inside [`wait`](Self::wait).
///
/// The contract: publish a state change, then notify; a waiter calls
/// `wait` with a `recheck` that looks for such a change. Either the
/// recheck sees it or the wait is cut short. The argument is Dekker's —
/// `wait` counts itself in, fences, then rechecks; a notify fences,
/// then reads the count (the count's accesses are `Relaxed`: the two
/// `SeqCst` fences order them) — so one side always sees the other; and a
/// notify that did see a waiter bumps `epoch` under the lock the waiter
/// blocks under, so it cannot fall between the waiter's recheck and its
/// block. A return from `wait` says only "look again": callers loop.
#[derive(Default)]
pub struct EventCount {
    waiters: AtomicUsize,
    epoch: Mutex<u64>,
    cv: Condvar,
}

impl EventCount {
    /// An eventcount with no waiter.
    pub fn new() -> EventCount {
        EventCount::default()
    }

    /// Wake every thread inside [`wait`](Self::wait). Returns whether
    /// one was counted in (and so whether the lock was taken).
    pub fn notify_all(&self) -> bool {
        self.notify(Condvar::notify_all)
    }

    /// Wake one blocked thread; one counted in but not yet blocked sees
    /// the epoch move and does not block either. Returns whether a
    /// waiter was counted in.
    pub fn notify_one(&self) -> bool {
        self.notify(Condvar::notify_one)
    }

    fn notify(&self, wake: fn(&Condvar)) -> bool {
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::Relaxed) == 0 {
            return false;
        }
        *self.lock() += 1;
        wake(&self.cv);
        true
    }

    /// Block — for at most `timeout`, if one is given — unless `recheck`
    /// returns `true` or a notify has arrived since this call began.
    pub fn wait(&self, timeout: Option<Duration>, recheck: impl FnOnce() -> bool) {
        self.waiters.fetch_add(1, Ordering::Relaxed);
        let seen = *self.lock();
        fence(Ordering::SeqCst);
        if !recheck() {
            let epoch = self.lock();
            if *epoch == seen {
                match timeout {
                    None => drop(self.cv.wait(epoch)),
                    Some(t) => drop(self.cv.wait_timeout(epoch, t)),
                }
            }
        }
        self.waiters.fetch_sub(1, Ordering::Relaxed);
    }

    fn lock(&self) -> MutexGuard<'_, u64> {
        // Only a read or one increment of the epoch runs under the lock
        // (the recheck does not), so a poisoned guard still holds a
        // valid epoch.
        self.epoch.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Instant;

    /// Far longer than any of these waits should take; a wait that
    /// spends it lost its wake.
    const LONG: Duration = Duration::from_secs(20);

    fn returns_early(signal: &EventCount, recheck: impl FnOnce() -> bool) {
        let start = Instant::now();
        signal.wait(Some(LONG), recheck);
        assert!(start.elapsed() < LONG / 2, "wait spent its whole timeout");
    }

    #[test]
    fn notify_before_the_wait_begins_is_seen_by_the_recheck() {
        let (signal, work) = (EventCount::new(), AtomicBool::new(false));
        work.store(true, Ordering::SeqCst);
        signal.notify_all();
        returns_early(&signal, || work.load(Ordering::SeqCst));
    }

    #[test]
    fn notify_between_recheck_and_block_cancels_the_block() {
        let signal = EventCount::new();
        // The recheck runs after the waiter has counted itself in and
        // before it blocks; it notifies from inside that window, then
        // reports having seen nothing.
        returns_early(&signal, || {
            signal.notify_all();
            false
        });
    }

    #[test]
    fn notify_during_the_block_ends_it() {
        let signal = EventCount::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                while signal.waiters.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
                // Most likely blocked by now; if it is still short of
                // the block, this is the previous test's window again.
                std::thread::sleep(Duration::from_millis(20));
                signal.notify_all();
            });
            returns_early(&signal, || false);
        });
    }

    #[test]
    fn unnotified_wait_is_bounded_and_notify_without_waiter_is_free() {
        let signal = EventCount::new();
        signal.notify_all();
        assert_eq!(*signal.lock(), 0, "nobody to wake: no epoch bump");
        let start = Instant::now();
        signal.wait(Some(Duration::from_millis(5)), || false);
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert_eq!(signal.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn notify_one_releases_one_waiter_per_call_and_is_free_without_one() {
        let signal = EventCount::new();
        assert!(!signal.notify_one(), "nobody counted in");
        assert_eq!(*signal.lock(), 0, "nobody to wake: no epoch bump");
        let rechecked = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    returns_early(&signal, || {
                        rechecked.fetch_add(1, Ordering::SeqCst);
                        false
                    })
                });
            }
            // Both waiters have read their epoch: each is blocked or
            // about to find the epoch moved, and each call wakes one
            // blocked waiter.
            while rechecked.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            assert!(signal.notify_one());
            assert!(signal.notify_one() || signal.waiters.load(Ordering::SeqCst) == 0);
        });
        assert_eq!(signal.waiters.load(Ordering::SeqCst), 0);
    }
}
