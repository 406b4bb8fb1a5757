//! The [`Recorder`]: the one object the runtimes talk to.
//!
//! An enabled recorder owns a small array of [`Lane`] *lanes*.
//! Each emitting thread is assigned a lane once (a thread-local seed
//! modulo the lane count — workers effectively get private lanes,
//! occasional collisions are harmless because a lane accepts multiple
//! producers), so the hot path is: read two thread-locals, one
//! monotonic clock read, then under the lane's mutex one `fetch_add`
//! for the global sequence number and one push. The lane lock is
//! contended only by a colliding thread or a drain.
//!
//! The disabled recorder ([`Recorder::disabled`]) carries no lanes at
//! all: `emit` checks one `Option` discriminant and returns — before
//! reading the clock — which is what the ≤ 5 % `wake_stress` overhead
//! gate in `nexuspp-shard` holds it to.
//!
//! Draining is the collector's job and is deliberately cold: each lane
//! is emptied under one acquisition of its lock, and the batch is
//! sorted by sequence number.

use crate::event::{Event, EventKind, NO_TASK, NO_WORKER};
use crate::ring::Lane;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Default events buffered per lane before drops begin.
pub(crate) const DEFAULT_LANE_CAPACITY: usize = 1 << 15;

static NEXT_LANE_SEED: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    /// Per-thread lane seed, assigned on first emission from a thread.
    static LANE_SEED: usize = NEXT_LANE_SEED.fetch_add(1, Ordering::Relaxed);
    /// The worker index this thread registered as, if any.
    static WORKER: std::cell::Cell<u32> = const { std::cell::Cell::new(NO_WORKER) };
}

struct Inner {
    epoch: Instant,
    seq: AtomicU64,
    lanes: Box<[Lane]>,
}

/// Collects lifecycle [`Event`]s from every runtime layer.
pub struct Recorder {
    inner: Option<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Recorder {
    /// An enabled recorder sized for `workers` worker threads (plus the
    /// submitting thread), 2^15 events per lane.
    pub fn new(workers: usize) -> Recorder {
        Recorder::with_capacity(workers + 2, DEFAULT_LANE_CAPACITY)
    }

    /// An enabled recorder with an explicit lane count and per-lane
    /// capacity (rounded up to a power of two, minimum 8). Use a tiny
    /// capacity to exercise the drop-accounting path.
    pub fn with_capacity(lanes: usize, capacity: usize) -> Recorder {
        let lanes = lanes.max(1);
        Recorder {
            inner: Some(Inner {
                epoch: Instant::now(),
                seq: AtomicU64::new(0),
                lanes: (0..lanes).map(|_| Lane::new(capacity)).collect(),
            }),
        }
    }

    /// The no-op recorder: `emit` returns before touching the clock.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// Whether events are actually being kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Register the calling thread as worker `w` — all its subsequent
    /// events carry that worker index. Runtimes call this once at the
    /// top of each worker loop.
    pub fn set_thread_worker(w: u32) {
        WORKER.with(|c| c.set(w));
    }

    /// Record an event with no causal companion (`aux = NO_TASK`).
    #[inline]
    pub fn emit(&self, kind: EventKind, task: u64, shard: u32) {
        self.emit_edge(kind, task, NO_TASK, shard);
    }

    /// Record an event carrying a causal companion tag in `aux` (the
    /// waker for `Ready`/`WakePosted`).
    ///
    /// The global sequence number is allocated under the lane lock and
    /// only when the lane has room: a rejected push (full lane) never
    /// consumes a sequence number, so the published sequence space is
    /// dense — every value in `0..seq` is (or is about to be) visible
    /// in some lane. The collector relies on that to release events in
    /// strict sequence order without stalling forever on a gap left by
    /// a dropped event. Causal ordering is unaffected: the `fetch_add`
    /// happens inside `emit_edge`, so any happens-before edge between
    /// two emissions still orders their sequence numbers.
    #[inline]
    pub fn emit_edge(&self, kind: EventKind, task: u64, aux: u64, shard: u32) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let ts_ns = inner.epoch.elapsed().as_nanos() as u64;
        let worker = WORKER.with(|c| c.get());
        let lane = LANE_SEED.with(|s| *s) % inner.lanes.len();
        inner.lanes[lane].push_with(|| Event {
            seq: inner.seq.fetch_add(1, Ordering::AcqRel),
            kind,
            task,
            aux,
            shard,
            worker,
            ts_ns,
        });
    }

    /// Total events successfully recorded across all lanes.
    pub fn recorded(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.lanes.iter().map(|l| l.recorded()).sum())
    }

    /// Total events rejected because a lane was full. At quiescence
    /// `recorded() + dropped()` equals the number of `emit` calls.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.lanes.iter().map(|l| l.dropped()).sum())
    }

    /// Drain every lane and return the batch sorted by sequence
    /// number. Each lane is emptied under one acquisition of its lock,
    /// so a producer on that lane waits at most for one lane's move.
    pub fn drain(&self) -> Vec<Event> {
        let Some(inner) = self.inner.as_ref() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for lane in inner.lanes.iter() {
            lane.drain_into(&mut out);
        }
        out.sort_by_key(|e| e.seq);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_SHARD;
    use std::sync::Arc;

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let r = Recorder::disabled();
        r.emit(EventKind::Submitted, 1, 0);
        assert!(!r.is_enabled());
        assert_eq!(r.recorded(), 0);
        assert_eq!(r.dropped(), 0);
        assert!(r.drain().is_empty());
    }

    #[test]
    fn events_drain_in_seq_order_with_worker_stamp() {
        let r = Recorder::new(2);
        Recorder::set_thread_worker(7);
        for t in 0..10 {
            r.emit(EventKind::Submitted, t, NO_SHARD);
        }
        Recorder::set_thread_worker(NO_WORKER);
        let evs = r.drain();
        assert_eq!(evs.len(), 10);
        for (i, e) in evs.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.task, i as u64);
            assert_eq!(e.worker, 7);
        }
        assert!(evs.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn concurrent_emission_accounts_for_every_event() {
        let r = Arc::new(Recorder::with_capacity(4, 64));
        let threads = 8;
        let per = 500u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..per {
                        r.emit(EventKind::Ready, t * per + i, NO_SHARD);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let evs = r.drain();
        assert_eq!(evs.len() as u64, r.recorded());
        assert_eq!(r.recorded() + r.dropped(), threads * per);
        assert!(r.dropped() > 0, "tiny lanes must have dropped");
        // seq values are unique.
        let mut seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), evs.len());
    }
}
