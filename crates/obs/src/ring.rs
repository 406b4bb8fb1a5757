//! Bounded event lanes.
//!
//! One [`Lane`] per recorder lane: a `VecDeque` behind a mutex,
//! bounded at a fixed capacity. A push takes the lane lock and builds
//! its event only when there is room; a full lane **rejects** instead of
//! growing or overwriting. A drain moves the lane's events out under one
//! lock acquisition.
//!
//! Rejection is accounted, never silent: every push that finds the
//! lane full increments `dropped`, so at quiescence
//! `recorded + dropped == emitted` exactly — the invariant the
//! drop tests assert.

use crate::event::Event;
use crate::sync::lock_unpoisoned;
use std::collections::VecDeque;
use std::sync::Mutex;

struct LaneState {
    events: VecDeque<Event>,
    recorded: u64,
    dropped: u64,
}

/// A bounded, locked event lane.
pub(crate) struct Lane {
    cap: usize,
    state: Mutex<LaneState>,
}

impl Lane {
    /// `capacity` is rounded up to a power of two, minimum 8.
    pub(crate) fn new(capacity: usize) -> Lane {
        let cap = capacity.max(8).next_power_of_two();
        Lane {
            cap,
            state: Mutex::new(LaneState {
                events: VecDeque::with_capacity(cap),
                recorded: 0,
                dropped: 0,
            }),
        }
    }

    /// Publish one event; `false` (and one `dropped` tick) if full.
    #[cfg(test)]
    pub(crate) fn push(&self, ev: Event) -> bool {
        self.push_with(|| ev)
    }

    /// Publish the event `build` produces; `false` (and one `dropped`
    /// tick) if full. `build` runs under the lane lock and only when the
    /// lane has room, so anything it allocates from a shared counter
    /// (the recorder's global sequence number) is allocated exactly for
    /// events that will be published — a rejected push consumes
    /// nothing. That density is what lets the live [`Collector`] release
    /// events in strict sequence order without stalling on a sequence
    /// number that was allocated and then dropped.
    ///
    /// [`Collector`]: crate::Collector
    pub(crate) fn push_with(&self, build: impl FnOnce() -> Event) -> bool {
        let mut lane = lock_unpoisoned(&self.state);
        if lane.events.len() == self.cap {
            lane.dropped += 1;
            return false;
        }
        lane.events.push_back(build());
        lane.recorded += 1;
        true
    }

    /// Move every event in the lane, oldest first, onto `out`.
    pub(crate) fn drain_into(&self, out: &mut Vec<Event>) {
        out.extend(lock_unpoisoned(&self.state).events.drain(..));
    }

    pub(crate) fn recorded(&self) -> u64 {
        lock_unpoisoned(&self.state).recorded
    }

    pub(crate) fn dropped(&self) -> u64 {
        lock_unpoisoned(&self.state).dropped
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

    fn drain(r: &Lane) -> Vec<Event> {
        let mut out = Vec::new();
        r.drain_into(&mut out);
        out
    }

    fn seqs(evs: Vec<Event>) -> Vec<u64> {
        evs.into_iter().map(|e| e.seq).collect()
    }

    #[test]
    fn fifo_within_capacity() {
        let r = Lane::new(8);
        for i in 0..8 {
            assert!(r.push(ev(i)));
        }
        assert_eq!(seqs(drain(&r)), (0..8).collect::<Vec<_>>());
        assert!(drain(&r).is_empty());
    }

    #[test]
    fn full_ring_drops_and_accounts() {
        let r = Lane::new(8);
        for i in 0..100 {
            r.push(ev(i));
        }
        assert_eq!(r.recorded(), 8);
        assert_eq!(r.dropped(), 92);
        assert_eq!(drain(&r).len() as u64 + r.dropped(), 100);
    }

    #[test]
    fn capacity_recycles_after_drain() {
        let r = Lane::new(8);
        for round in 0..5u64 {
            for i in 0..8 {
                assert!(r.push(ev(round * 8 + i)), "round {round} slot {i}");
            }
            assert_eq!(
                seqs(drain(&r)),
                (round * 8..round * 8 + 8).collect::<Vec<_>>()
            );
        }
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn concurrent_pushes_account_exactly() {
        let r = Arc::new(Lane::new(64));
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
        assert_eq!(r.recorded() + r.dropped(), threads * per);
        assert_eq!(drain(&r).len() as u64, r.recorded());
    }
}
