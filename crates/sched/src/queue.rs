//! The scheduler's shared FIFO: a locked `VecDeque` that publishes its
//! length in an atomic, so an empty check takes no lock.
//!
//! The length is stored under the lock after every change. A pusher's
//! store is sequenced before its `notify_one` fence, and a parking
//! worker's recheck loads it after its own fence, so the recheck sees a
//! completed push or the notify sees the worker (the `EventCount`
//! handshake in `work_steal.rs`). A later store can only be smaller if a
//! pop took the item.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A multi-producer, multi-consumer FIFO behind one lock.
pub(crate) struct Fifo<T> {
    items: Mutex<VecDeque<T>>,
    /// `items.len()`, stored under the lock. `Relaxed` is enough: the
    /// items themselves are published by the lock, and a recheck's view
    /// of the length comes from the `EventCount`'s `SeqCst` fences.
    len: AtomicUsize,
}

impl<T> Fifo<T> {
    pub(crate) fn new() -> Self {
        Fifo {
            items: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Append `item` at the back.
    pub(crate) fn push(&self, item: T) {
        let mut items = self.lock();
        items.push_back(item);
        self.len.store(items.len(), Ordering::Relaxed);
    }

    /// Take the oldest item. An empty queue is seen from the length
    /// alone, without the lock.
    pub(crate) fn pop(&self) -> Option<T> {
        if self.len.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut items = self.lock();
        let item = items.pop_front();
        self.len.store(items.len(), Ordering::Relaxed);
        item
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.items.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_len() {
        let q = Fifo::new();
        assert_eq!(q.pop(), None);
        q.push(1);
        q.push(2);
        assert_eq!(q.len.load(Ordering::Relaxed), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.len.load(Ordering::Relaxed), 0);
        assert_eq!(q.pop(), None);
    }
}
