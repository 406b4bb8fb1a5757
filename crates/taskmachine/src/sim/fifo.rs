//! Bounded FIFO lists with occupancy statistics.
//!
//! Nexus++ is plumbed together almost entirely with FIFO lists (`TDs Sizes`,
//! `New Tasks`, `TP Free indices`, `Global Ready Tasks`, `Worker Cores IDs`,
//! per-core `CiRdyTasks`/`CiFinTasks`). A full list stalls its producer —
//! e.g. "If this list is full, the Master Core stalls and stops sending new
//! Task Descriptors". [`Fifo`] models exactly that: a capacity-bounded queue
//! whose `push` fails (returning the item) when full, plus the high-water
//! mark the evaluation reports print.

use std::collections::VecDeque;

/// Error returned by [`Fifo::push`] when the list is full; carries the
/// rejected item back to the caller so it can retry after a wake-up.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct FifoFull<T>(pub(crate) T);

/// A bounded FIFO with a high-water mark.
#[derive(Debug, Clone)]
pub(crate) struct Fifo<T> {
    name: &'static str,
    cap: usize,
    q: VecDeque<T>,
    /// Largest occupancy ever observed.
    high_water: usize,
}

impl<T> Fifo<T> {
    /// A new FIFO holding at most `cap` items. `name` labels statistics.
    pub(crate) fn new(name: &'static str, cap: usize) -> Self {
        assert!(cap > 0, "FIFO {name} must have non-zero capacity");
        Fifo {
            name,
            cap,
            q: VecDeque::with_capacity(cap.min(4096)),
            high_water: 0,
        }
    }

    /// The list's label.
    #[inline]
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    /// Capacity in items.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// Current occupancy.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.q.len()
    }

    /// True if empty.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// True if at capacity (producer must stall).
    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        self.q.len() >= self.cap
    }

    /// Append `item`, or return it in `FifoFull` if the list is full.
    #[inline]
    pub(crate) fn push(&mut self, item: T) -> Result<(), FifoFull<T>> {
        if self.is_full() {
            return Err(FifoFull(item));
        }
        self.q.push_back(item);
        if self.q.len() > self.high_water {
            self.high_water = self.q.len();
        }
        Ok(())
    }

    /// Append `item`, panicking if full. For lists whose producers are
    /// structurally unable to overflow them (e.g. `TP Free indices`, which
    /// can never hold more than `Task Pool` entries).
    #[inline]
    pub(crate) fn push_expect(&mut self, item: T) {
        if self.push(item).is_err() {
            panic!("FIFO {} overflow (cap {})", self.name, self.cap);
        }
    }

    /// Remove and return the head item.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<T> {
        self.q.pop_front()
    }

    /// Peek at the head item.
    #[inline]
    pub(crate) fn peek(&self) -> Option<&T> {
        self.q.front()
    }

    /// Largest occupancy ever observed.
    #[inline]
    pub(crate) fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_order() {
        let mut f = Fifo::new("t", 3);
        f.push(1).unwrap();
        f.push(2).unwrap();
        f.push(3).unwrap();
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), Some(3));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn rejects_when_full_and_returns_item() {
        let mut f = Fifo::new("t", 2);
        f.push(10).unwrap();
        f.push(11).unwrap();
        assert!(f.is_full());
        assert_eq!(f.push(12), Err(FifoFull(12)));
        assert_eq!(f.len(), 2);
        f.pop();
        f.push(12).unwrap();
        assert_eq!(f.pop(), Some(11));
        assert_eq!(f.pop(), Some(12));
    }

    #[test]
    fn statistics() {
        let mut f = Fifo::new("t", 4);
        for i in 0..3 {
            f.push(i).unwrap();
        }
        f.pop();
        f.push(9).unwrap();
        f.pop();
        f.pop();
        assert_eq!(
            f.high_water(),
            3,
            "the mark is a maximum, not the occupancy"
        );
        let accepted = (10..15).filter(|&i| f.push(i).is_ok()).count();
        assert_eq!(accepted, 3, "one item held, three slots free");
        assert_eq!(f.high_water(), f.capacity());
        assert_eq!(f.peek(), Some(&9));
    }

    #[test]
    #[should_panic]
    fn push_expect_overflow_panics() {
        let mut f = Fifo::new("t", 1);
        f.push_expect(1);
        f.push_expect(2);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = Fifo::<u8>::new("t", 0);
    }
}
