//! Poison-tolerant locking for the observability layer.
//!
//! Observability must never turn one failure into two: a task body (or a
//! metrics source) that panics while a collector lock is held
//! poisons that `std::sync::Mutex`, and a bare `.lock().unwrap()` then
//! re-panics in whoever touches it next — including `Drop` impls, where
//! a second panic aborts the process. Every lock in this crate goes
//! through these helpers instead: the data under these locks is
//! aggregate counters and event buffers, always left structurally valid
//! (at worst missing the poisoning thread's final update), so observing
//! past a poison is strictly better than cascading it.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// `m.lock()`, recovering the guard if a previous holder panicked.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `m.into_inner()`, recovering the value if a holder panicked.
pub(crate) fn into_inner_unpoisoned<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}
