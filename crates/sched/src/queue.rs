//! The scheduler's one queue type: a locked `VecDeque` that publishes
//! its length in an atomic, so an empty check takes no lock. The
//! injector and the high-priority queue use it as a FIFO; each worker's
//! local queue adds [`pop_back`](Queue::pop_back) for the owner's LIFO
//! end while thieves take the front with [`pop`](Queue::pop).
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

/// A multi-producer, multi-consumer queue behind one lock.
pub(crate) struct Queue<T> {
    items: Mutex<VecDeque<T>>,
    /// `items.len()`, stored under the lock. `Relaxed` is enough: the
    /// items themselves are published by the lock, and a recheck's view
    /// of the length comes from the `EventCount`'s `SeqCst` fences.
    len: AtomicUsize,
}

impl<T> Queue<T> {
    pub(crate) fn new() -> Self {
        Queue {
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
        self.take(VecDeque::pop_front)
    }

    /// Take the newest item (the owner's LIFO end of a worker queue).
    pub(crate) fn pop_back(&self) -> Option<T> {
        self.take(VecDeque::pop_back)
    }

    fn take(&self, end: fn(&mut VecDeque<T>) -> Option<T>) -> Option<T> {
        if self.len.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut items = self.lock();
        let item = end(&mut items);
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
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn fifo_and_len() {
        let q = Queue::new();
        assert_eq!(q.pop(), None);
        q.push(1);
        q.push(2);
        assert_eq!(q.len.load(Ordering::Relaxed), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.len.load(Ordering::Relaxed), 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn owner_lifo_stealer_fifo() {
        let q = Queue::new();
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.pop(), Some(1), "stealer takes oldest");
        assert_eq!(q.pop_back(), Some(3), "owner takes newest");
        assert_eq!(q.pop_back(), Some(2));
        assert_eq!(q.pop_back(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn growth_preserves_elements() {
        let q = Queue::new();
        for i in 0..10_000u64 {
            q.push(i);
        }
        let mut got = Vec::new();
        while let Some(v) = q.pop_back() {
            got.push(v);
        }
        got.reverse();
        assert_eq!(got, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_stealers_take_each_element_once() {
        const N: u64 = 50_000;
        const THIEVES: usize = 3;
        let q = Arc::new(Queue::new());
        let sum = Arc::new(AtomicU64::new(0));
        let taken = Arc::new(AtomicU64::new(0));
        let thieves: Vec<_> = (0..THIEVES)
            .map(|_| {
                let q = Arc::clone(&q);
                let sum = Arc::clone(&sum);
                let taken = Arc::clone(&taken);
                std::thread::spawn(move || loop {
                    match q.pop() {
                        Some(v) => {
                            sum.fetch_add(v, Ordering::Relaxed);
                            taken.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            if taken.load(Ordering::SeqCst) >= N {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        // Owner interleaves pushes with occasional pops.
        let mut owner_sum = 0u64;
        for i in 1..=N {
            q.push(i);
            if i % 64 == 0 {
                if let Some(v) = q.pop_back() {
                    owner_sum += v;
                    taken.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // Drain the remainder from the owner side.
        while let Some(v) = q.pop_back() {
            owner_sum += v;
            taken.fetch_add(1, Ordering::Relaxed);
        }
        for h in thieves {
            h.join().unwrap();
        }
        assert_eq!(taken.load(Ordering::SeqCst), N, "every element taken once");
        assert_eq!(
            sum.load(Ordering::SeqCst) + owner_sum,
            N * (N + 1) / 2,
            "sum conserved: no loss, no duplication"
        );
    }

    #[test]
    fn no_leaks_across_grow_and_steal() {
        let tracker = Arc::new(());
        {
            let q = Queue::new();
            for _ in 0..500 {
                q.push(Arc::clone(&tracker));
            }
            for _ in 0..100 {
                let _ = q.pop();
            }
            for _ in 0..100 {
                let _ = q.pop_back();
            }
            // 300 live elements drop with the queue.
        }
        assert_eq!(Arc::strong_count(&tracker), 1);
    }
}
