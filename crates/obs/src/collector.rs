//! The background [`Collector`]: the one live reader of a
//! [`Recorder`]'s lanes, keeping the online view current while a run is
//! in flight.
//!
//! The recorder's own `drain()` hands back whatever happens to be
//! published, sorted — fine at quiescence, but a poll mid-run sees gaps
//! (a drain visits the lanes one at a time, so an event pushed to a
//! lane already visited can carry a smaller `seq` than one taken from a
//! lane visited later). The collector's thread closes them with a
//! **sequence watermark**: because the recorder allocates the global
//! sequence number under the lane lock and only when the lane has
//! room, a dropped event never consumes one, so the published sequence
//! space is dense. Drained events wait in a buffer until every smaller
//! `seq` has arrived and are then applied, in strict `seq` order,
//! straight to the [`GraphTracker`] — a missing number is always
//! *late*, never lost, so nothing the collector drained is ever
//! skipped.
//!
//! The same thread ticks the [`Sampler`] on a fixed interval, so the
//! runtimes' hot paths stay untouched (producers only ever push into
//! their lanes; the collector only ever drains them). A
//! runtime attaches via `Runtime::with_observer`, which hands the
//! collector's recorder to every layer and registers the runtime's
//! metrics for sampling. The collector is the recorder's sole consumer:
//! mixing direct `Recorder::drain` calls with a live collector on the
//! same recorder splits events between the two.
//!
//! Shutdown is a handshake, not a guess: [`finish`](Collector::finish)
//! raises the stop flag, the thread performs one *final* poll after
//! seeing it (so everything emitted before `finish` was called is
//! applied — the differential tests rely on this being a complete
//! quiescent drain), and the joined thread's tracker is handed back
//! by value in the [`CollectorReport`].

use crate::event::Event;
use crate::recorder::Recorder;
use crate::registry::MetricsRegistry;
use crate::sampler::Sampler;
use crate::sync::{into_inner_unpoisoned, lock_unpoisoned};
use crate::tracker::{GraphTracker, TrackerSnapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A point-in-time summary of the collector's progress.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Events released in strict sequence order (and applied) so far.
    pub released: u64,
    /// Out-of-order arrivals buffered, waiting for earlier sequence
    /// numbers still in flight.
    pub pending: u64,
    /// Events the recorder's lanes accepted (includes not-yet-drained).
    pub recorded: u64,
    /// Events the recorder's lanes rejected (full lane).
    pub dropped: u64,
}

/// The release step: drained events wait here until every smaller
/// `seq` has arrived.
#[derive(Default)]
struct Watermark {
    /// Out-of-order arrivals, keyed by `seq`.
    pending: BTreeMap<u64, Event>,
    /// The next `seq` eligible for release, which is also the number
    /// released so far (the published sequence space is dense from 0).
    next_seq: u64,
}

impl Watermark {
    /// Buffer a drained batch, then hand every newly contiguous event
    /// to `apply`, in `seq` order.
    fn release(&mut self, batch: Vec<Event>, mut apply: impl FnMut(&Event)) {
        for ev in batch {
            debug_assert!(
                ev.seq >= self.next_seq,
                "seq {} released twice (watermark {})",
                ev.seq,
                self.next_seq
            );
            self.pending.insert(ev.seq, ev);
        }
        while let Some(ev) = self.pending.remove(&self.next_seq) {
            apply(&ev);
            self.next_seq += 1;
        }
    }
}

/// The watermark and the tracker it feeds, under one lock.
#[derive(Default)]
struct Live {
    watermark: Watermark,
    tracker: GraphTracker,
}

struct Inner {
    live: Mutex<Live>,
    sampler: Mutex<Option<Sampler>>,
    stop: Mutex<bool>,
    cv: Condvar,
}

impl Inner {
    fn empty() -> Inner {
        Inner {
            live: Mutex::default(),
            sampler: Mutex::new(None),
            stop: Mutex::new(true),
            cv: Condvar::new(),
        }
    }
}

fn stats_of(rec: &Recorder, w: &Watermark) -> StreamStats {
    StreamStats {
        released: w.next_seq,
        pending: w.pending.len() as u64,
        recorded: rec.recorded(),
        dropped: rec.dropped(),
    }
}

/// What the collector hands back at [`Collector::finish`].
pub struct CollectorReport {
    /// The tracker, final state applied, moved out of the thread.
    pub tracker: GraphTracker,
    /// The sampler, if a registry was attached.
    pub sampler: Option<Sampler>,
    /// Final release progress.
    pub stream: StreamStats,
}

/// A handle to the background collection thread.
pub struct Collector {
    rec: Arc<Recorder>,
    inner: Arc<Inner>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Collector {
    /// Spawn the collection thread over `rec`, polling every 2 ms.
    pub fn new(rec: Arc<Recorder>) -> Collector {
        Collector::spawn(rec, Duration::from_millis(2))
    }

    /// Spawn the collection thread over `rec`, polling every
    /// `interval`.
    pub fn spawn(rec: Arc<Recorder>, interval: Duration) -> Collector {
        let inner = Arc::new(Inner {
            stop: Mutex::new(false),
            ..Inner::empty()
        });
        let thread_inner = Arc::clone(&inner);
        let thread_rec = Arc::clone(&rec);
        let handle = std::thread::Builder::new()
            .name("obs-collector".into())
            .spawn(move || loop {
                let stopping = {
                    let stop = lock_unpoisoned(&thread_inner.stop);
                    if *stop {
                        true
                    } else {
                        // Interval pacing with prompt shutdown: the
                        // finish() notify cuts the wait short.
                        let (stop, _) = thread_inner
                            .cv
                            .wait_timeout(stop, interval)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        *stop
                    }
                };
                let batch = thread_rec.drain();
                {
                    let mut live = lock_unpoisoned(&thread_inner.live);
                    let Live { watermark, tracker } = &mut *live;
                    watermark.release(batch, |e| tracker.apply(e));
                }
                if let Some(s) = lock_unpoisoned(&thread_inner.sampler).as_mut() {
                    s.tick();
                }
                if stopping {
                    // The stop flag was observed *before* this poll, so
                    // the batch above already covered everything
                    // emitted before finish() — quiescent drain done.
                    return;
                }
            })
            .expect("spawn obs-collector thread");
        Collector {
            rec,
            inner,
            handle: Some(handle),
        }
    }

    /// The recorder runtimes should emit into.
    pub fn recorder(&self) -> Arc<Recorder> {
        Arc::clone(&self.rec)
    }

    /// Start sampling `reg` on the collector's interval (replaces any
    /// previously attached registry). Called by `with_observer` once
    /// the runtime's counters exist.
    pub fn attach_registry(&self, reg: Arc<MetricsRegistry>) {
        *lock_unpoisoned(&self.inner.sampler) = Some(Sampler::new(reg));
    }

    /// A point-in-time copy of the live tracker aggregates.
    pub fn tracker(&self) -> TrackerSnapshot {
        lock_unpoisoned(&self.inner.live).tracker.snapshot()
    }

    /// Run `f` against the live sampler, if a registry is attached.
    pub fn with_sampler<R>(&self, f: impl FnOnce(&Sampler) -> R) -> Option<R> {
        lock_unpoisoned(&self.inner.sampler).as_ref().map(f)
    }

    /// Current release progress.
    pub fn stats(&self) -> StreamStats {
        stats_of(&self.rec, &lock_unpoisoned(&self.inner.live).watermark)
    }

    /// Stop the thread, apply everything emitted so far, and hand the
    /// final state back. Call after the runtime has quiesced (joined)
    /// for a complete view.
    pub fn finish(mut self) -> CollectorReport {
        self.stop_and_join();
        // Swap the shared state out (Collector has a Drop impl, so
        // fields can't be moved directly); the joined thread already
        // dropped the only other owner.
        let inner = std::mem::replace(&mut self.inner, Arc::new(Inner::empty()));
        let inner = Arc::try_unwrap(inner)
            .unwrap_or_else(|_| panic!("collector Inner has exactly two owners"));
        let live = into_inner_unpoisoned(inner.live);
        CollectorReport {
            stream: stats_of(&self.rec, &live.watermark),
            tracker: live.tracker,
            sampler: into_inner_unpoisoned(inner.sampler),
        }
    }

    fn stop_and_join(&mut self) {
        if let Some(h) = self.handle.take() {
            *lock_unpoisoned(&self.inner.stop) = true;
            self.inner.cv.notify_all();
            let _ = h.join();
        }
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, NO_SHARD, NO_TASK};

    #[test]
    fn collector_applies_everything_emitted_before_finish() {
        let rec = Arc::new(Recorder::with_capacity(2, 1 << 12));
        let col = Collector::spawn(Arc::clone(&rec), Duration::from_millis(1));
        for t in 0..200u64 {
            rec.emit(EventKind::Submitted, t, NO_SHARD);
            rec.emit(EventKind::DepCheckStart, t, NO_SHARD);
            rec.emit(EventKind::DepCheckDone, t, NO_SHARD);
            rec.emit(EventKind::Ready, t, NO_SHARD);
        }
        let report = col.finish();
        let snap = report.tracker.snapshot();
        assert_eq!(snap.tasks_seen, 200);
        assert_eq!(snap.events_applied, 800);
        assert_eq!(snap.count(crate::TaskState::Ready), 200);
        assert_eq!(report.tracker.violation_count(), 0);
        assert_eq!(report.stream.released, 800);
    }

    #[test]
    fn one_drain_of_full_rings_applies_every_event() {
        // Four lanes hold all 100 000 events without a drop, and the
        // hour-long interval makes finish()'s final poll the only
        // drain: every event it drained must reach the tracker.
        const PER_PRODUCER: u64 = 25_000;
        let rec = Arc::new(Recorder::with_capacity(4, 1 << 15));
        let col = Collector::spawn(Arc::clone(&rec), Duration::from_secs(3600));
        let producers: Vec<_> = (0..4u32)
            .map(|p| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    Recorder::set_thread_worker(p);
                    for _ in 0..PER_PRODUCER {
                        rec.emit(EventKind::WakePosted, NO_TASK, p);
                    }
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        let report = col.finish();
        assert_eq!(report.stream.dropped, 0, "the rings hold the whole run");
        assert_eq!(report.tracker.snapshot().events_applied, 4 * PER_PRODUCER);
        assert_eq!(report.stream.released, 4 * PER_PRODUCER);
        assert_eq!(report.stream.pending, 0);
    }

    #[test]
    fn live_snapshots_progress_mid_run() {
        let rec = Arc::new(Recorder::with_capacity(2, 1 << 12));
        let col = Collector::spawn(Arc::clone(&rec), Duration::from_millis(1));
        rec.emit(EventKind::Submitted, 1, NO_SHARD);
        // The collector should pick this up without finish().
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if col.tracker().tasks_seen == 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "collector never polled"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(col); // Drop without finish must not hang.
    }

    #[test]
    fn attached_registry_is_sampled() {
        let col = Collector::spawn(Arc::new(Recorder::disabled()), Duration::from_millis(1));
        let reg = Arc::new(MetricsRegistry::new());
        reg.register("g", || vec![("n".to_string(), 4)]);
        col.attach_registry(reg);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let len = col.with_sampler(|s| s.len()).unwrap_or(0);
            if len >= 2 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "sampler never ticked");
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = col.finish();
        let sampler = report.sampler.expect("registry attached");
        assert_eq!(sampler.latest().unwrap().snap.get("g", "n"), Some(4));
    }

    #[test]
    fn collector_thread_panic_does_not_cascade_into_finish() {
        // Inject a panic *on the collector thread itself*: a metrics
        // source that panics during a sampler tick unwinds while the
        // sampler lock is held, poisoning it and killing the thread.
        // Historically every later touch — finish() moving state out,
        // or Drop's stop/join — re-panicked on the poisoned locks
        // (a panic in Drop aborts the process). All of it must now
        // survive and hand back everything applied before the panic.
        let rec = Arc::new(Recorder::with_capacity(1, 1 << 10));
        let col = Collector::spawn(Arc::clone(&rec), Duration::from_millis(1));
        rec.emit(crate::EventKind::Submitted, 1, crate::NO_SHARD);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while col.tracker().tasks_seen < 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "collector never polled"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let reg = Arc::new(MetricsRegistry::new());
        reg.register("bomb", || panic!("injected tick panic"));
        col.attach_registry(reg);
        // Wait for the thread to die on its next tick (join via the
        // public API only: stats() keeps working off-thread).
        std::thread::sleep(Duration::from_millis(20));
        let report = col.finish();
        assert_eq!(report.tracker.snapshot().tasks_seen, 1);
        assert_eq!(report.stream.released, 1);
    }

    #[test]
    fn finish_without_events_is_clean() {
        let col = Collector::new(Arc::new(Recorder::with_capacity(1, 64)));
        let report = col.finish();
        assert_eq!(report.tracker.snapshot().events_applied, 0);
        assert_eq!(report.stream.released, 0);
        assert!(report.sampler.is_none());
        assert!(report.tracker.violations().is_empty());
    }

    #[test]
    fn dropped_events_do_not_stall_the_watermark() {
        // One tiny lane: pushes past capacity are dropped. A seq is
        // allocated only when the lane has room, so the drops consume
        // no sequence numbers and the watermark still releases a dense
        // prefix.
        let rec = Recorder::with_capacity(1, 8);
        let mut wm = Watermark::default();
        let mut seqs = Vec::new();
        for t in 0..50 {
            rec.emit(EventKind::Ready, t, NO_SHARD);
        }
        wm.release(rec.drain(), |e| seqs.push(e.seq));
        assert_eq!(seqs, (0..8).collect::<Vec<u64>>());
        assert_eq!(rec.dropped(), 42);
        // The lane drained: new emissions flow and stay contiguous.
        for t in 50..55 {
            rec.emit(EventKind::Ready, t, NO_SHARD);
        }
        wm.release(rec.drain(), |e| seqs.push(e.seq));
        assert_eq!(seqs, (0..13).collect::<Vec<u64>>());
        let stats = stats_of(&rec, &wm);
        assert_eq!(stats.released, 13);
        assert_eq!(stats.pending, 0);
        assert_eq!(stats.recorded, 13);
    }

    // Live races: the release step drains *while* producer threads are
    // still emitting, across all lanes. The live sequence must equal
    // what a quiescent drain would have produced — nothing lost,
    // nothing duplicated, nothing reordered — and per-producer emission
    // order must survive the cross-lane merge, even when the lane rings
    // wrapped and dropped.

    const PRODUCERS: u64 = 4;
    const RACE_PER_PRODUCER: u64 = 4_000;

    /// Spawn `PRODUCERS` threads, each emitting `RACE_PER_PRODUCER`
    /// events with a per-producer monotone payload, pinned to distinct
    /// recorder lanes.
    fn spawn_producers(rec: &Arc<Recorder>) -> Vec<std::thread::JoinHandle<()>> {
        (0..PRODUCERS)
            .map(|p| {
                let rec = Arc::clone(rec);
                std::thread::spawn(move || {
                    Recorder::set_thread_worker(p as u32);
                    for i in 0..RACE_PER_PRODUCER {
                        // Payload encodes (producer, emission index) so
                        // the merged stream can be checked for causal
                        // order.
                        rec.emit(EventKind::WakePosted, p * 1_000_000 + i, p as u32);
                    }
                })
            })
            .collect()
    }

    /// Seqs dense from 0, strictly increasing, and per-producer payloads
    /// monotone (drops may leave gaps, never reorderings).
    fn check_merged(events: &[Event], recorded: u64) {
        assert_eq!(
            events.len() as u64,
            recorded,
            "every recorded event delivered once"
        );
        for (i, w) in events.windows(2).enumerate() {
            assert!(
                w[0].seq < w[1].seq,
                "seq order violated at {i}: {} then {}",
                w[0].seq,
                w[1].seq
            );
        }
        if let (Some(first), Some(last)) = (events.first(), events.last()) {
            assert_eq!(first.seq, 0, "published seq space starts at 0");
            assert_eq!(
                last.seq,
                recorded - 1,
                "published seq space is dense (drops consume no seq)"
            );
        }
        let mut last_idx = [None::<u64>; PRODUCERS as usize];
        for e in events {
            let p = (e.task / 1_000_000) as usize;
            let i = e.task % 1_000_000;
            if let Some(prev) = last_idx[p] {
                assert!(prev < i, "producer {p} reordered: {prev} then {i}");
            }
            last_idx[p] = Some(i);
        }
    }

    #[test]
    fn live_release_equals_quiescent_drain_without_drops() {
        // Rings sized for the workload: zero drops, so the live sequence
        // must be exactly what a single quiescent drain would show.
        let rec = Arc::new(Recorder::with_capacity(PRODUCERS as usize, 1 << 15));
        let mut wm = Watermark::default();
        let producers = spawn_producers(&rec);

        let mut live: Vec<Event> = Vec::new();
        let mut polls_with_data = 0u32;
        loop {
            let before = live.len();
            wm.release(rec.drain(), |e| live.push(*e));
            if live.len() > before {
                polls_with_data += 1;
            }
            if producers.iter().all(|h| h.is_finished()) {
                break;
            }
            std::thread::yield_now();
        }
        for h in producers {
            h.join().unwrap();
        }
        // Final quiescent poll picks up anything emitted after the last
        // live poll.
        wm.release(rec.drain(), |e| live.push(*e));

        assert_eq!(rec.dropped(), 0, "rings were sized for the workload");
        assert_eq!(rec.recorded(), PRODUCERS * RACE_PER_PRODUCER);
        check_merged(&live, rec.recorded());
        assert!(wm.pending.is_empty(), "nothing left behind the watermark");
        assert!(
            polls_with_data >= 1,
            "the release step must have observed data (sanity: this was a live race)"
        );
    }

    #[test]
    fn wraparound_with_drops_still_delivers_every_recorded_event() {
        // Tiny rings + bursty emission: lanes wrap constantly and some
        // pushes are rejected. The recorded subset must still come out
        // dense, ordered, and causally consistent.
        let rec = Arc::new(Recorder::with_capacity(PRODUCERS as usize, 64));
        let mut wm = Watermark::default();
        let producers = spawn_producers(&rec);
        let mut live: Vec<Event> = Vec::new();
        loop {
            wm.release(rec.drain(), |e| live.push(*e));
            if producers.iter().all(|h| h.is_finished()) {
                break;
            }
            // Poll slowly enough that 64-slot lanes overflow.
            std::thread::sleep(Duration::from_micros(200));
        }
        for h in producers {
            h.join().unwrap();
        }
        wm.release(rec.drain(), |e| live.push(*e));

        assert_eq!(
            rec.recorded() + rec.dropped(),
            PRODUCERS * RACE_PER_PRODUCER,
            "accounting: every emission either recorded or counted dropped"
        );
        assert!(
            rec.dropped() > 0,
            "the configuration must actually exercise ring overflow"
        );
        check_merged(&live, rec.recorded());
    }
}
