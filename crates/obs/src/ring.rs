//! Bounded lock-free event rings.
//!
//! One [`EventRing`] per recorder lane. The push side is
//! claim-then-publish: a
//! producer *claims* a slot with one CAS on the head cursor, writes the
//! event, and *publishes* it with one release store of the slot's
//! sequence number — no locks, no unbounded loops (a full ring rejects
//! instead of spinning). The pop side is single-consumer (the
//! recorder's collector serializes drains behind a mutex that producers
//! never touch).
//!
//! Rejection is accounted, never silent: every push that finds the
//! ring full increments `dropped`, so at quiescence
//! `recorded + dropped == emitted` exactly — the invariant the
//! wraparound tests assert.

use crate::event::Event;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};

struct Slot {
    /// Vyukov-style slot sequencer: equals the claim position when the
    /// slot is free for a producer, position + 1 once published, and
    /// position + capacity after the consumer recycles it.
    seq: AtomicU64,
    val: UnsafeCell<MaybeUninit<Event>>,
}

/// A bounded MPMC-claim / single-consumer event ring.
pub(crate) struct EventRing {
    slots: Box<[Slot]>,
    mask: u64,
    /// Next position a producer will try to claim.
    head: AtomicU64,
    /// Next position the consumer will read. Only the collector (under
    /// the recorder's drain mutex) advances this.
    tail: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

// SAFETY: every field but the slot values is an atomic or immutable. A
// slot's value is touched only by the one producer whose CAS on `head`
// claimed the slot (before its release store of `seq`) and then by the
// one consumer that acquired that `seq` (before recycling it), so no two
// threads ever access a value at once.
unsafe impl Sync for EventRing {}

impl EventRing {
    /// `capacity` is rounded up to a power of two, minimum 8.
    pub(crate) fn new(capacity: usize) -> EventRing {
        let cap = capacity.max(8).next_power_of_two() as u64;
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicU64::new(i),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        EventRing {
            slots,
            mask: cap - 1,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Publish one event; `false` (and one `dropped` tick) if full.
    #[cfg(test)]
    pub(crate) fn push(&self, ev: Event) -> bool {
        self.push_with(|| ev)
    }

    /// Publish the event `build` produces; `false` (and one `dropped`
    /// tick) if full. `build` runs only **after** the slot claim
    /// succeeds, so anything it allocates from a shared counter (the
    /// recorder's global sequence number) is allocated exactly for
    /// events that will be published — a rejected push consumes
    /// nothing. That density is what lets the live [`Collector`] release
    /// events in strict sequence order without stalling on a sequence
    /// number that was allocated and then dropped.
    ///
    /// [`Collector`]: crate::Collector
    pub(crate) fn push_with(&self, build: impl FnOnce() -> Event) -> bool {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                match self.head.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS claimed position `pos`; until the
                        // `seq` store below, no other thread touches the slot.
                        unsafe { (*slot.val.get()).write(build()) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        self.recorded.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                    Err(now) => pos = now,
                }
            } else if seq < pos {
                // The consumer hasn't recycled this slot: ring full.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            } else {
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Take the oldest published event, if any. Caller must be the
    /// sole consumer (the recorder's drain lock guarantees this).
    pub(crate) fn pop(&self) -> Option<Event> {
        let pos = self.tail.load(Ordering::Relaxed);
        let slot = &self.slots[(pos & self.mask) as usize];
        if slot.seq.load(Ordering::Acquire) != pos + 1 {
            return None;
        }
        // SAFETY: `seq == pos + 1` (acquired) means a producer published
        // an initialized event here, and only this sole consumer reads it
        // before the slot is recycled.
        let ev = unsafe { (*slot.val.get()).assume_init_read() };
        slot.seq.store(pos + self.mask + 1, Ordering::Release);
        self.tail.store(pos + 1, Ordering::Relaxed);
        Some(ev)
    }

    pub(crate) fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, NO_SHARD, NO_TASK, NO_WORKER};
    use std::sync::Arc;

    fn ev(seq: u64) -> Event {
        Event {
            seq,
            kind: EventKind::Submitted,
            task: seq,
            aux: NO_TASK,
            shard: NO_SHARD,
            worker: NO_WORKER,
            ts_ns: seq,
        }
    }

    #[test]
    fn fifo_within_capacity() {
        let r = EventRing::new(8);
        for i in 0..8 {
            assert!(r.push(ev(i)));
        }
        for i in 0..8 {
            assert_eq!(r.pop().unwrap().seq, i);
        }
        assert!(r.pop().is_none());
    }

    #[test]
    fn full_ring_drops_and_accounts() {
        let r = EventRing::new(8);
        for i in 0..100 {
            r.push(ev(i));
        }
        assert_eq!(r.recorded(), 8);
        assert_eq!(r.dropped(), 92);
        let mut drained = 0;
        while r.pop().is_some() {
            drained += 1;
        }
        assert_eq!(drained + r.dropped(), 100);
    }

    #[test]
    fn capacity_recycles_after_drain() {
        let r = EventRing::new(8);
        for round in 0..5u64 {
            for i in 0..8 {
                assert!(r.push(ev(round * 8 + i)), "round {round} slot {i}");
            }
            for i in 0..8 {
                assert_eq!(r.pop().unwrap().seq, round * 8 + i);
            }
        }
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn concurrent_pushes_account_exactly() {
        let r = Arc::new(EventRing::new(64));
        let threads = 4;
        let per = 1000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..per {
                        r.push(ev(t * per + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut drained = 0;
        while r.pop().is_some() {
            drained += 1;
        }
        assert_eq!(r.recorded() + r.dropped(), threads * per);
        assert_eq!(drained, r.recorded());
    }
}
