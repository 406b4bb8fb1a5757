//! The background [`Collector`]: one thread that keeps the online view
//! current while a run is in flight.
//!
//! The streaming pieces are all pull-based — someone has to pump the
//! [`EventStream`], feed the [`GraphTracker`], and tick the
//! [`Sampler`]. The collector is that someone: a single background
//! thread polling on a fixed interval, so the runtimes' hot paths keep
//! their PR 7 guarantees untouched (producers only ever CAS into their
//! lanes; the collector only ever takes the consumer side). A runtime
//! attaches via `Runtime::with_observer`, which hands the collector's
//! recorder to every layer and registers the runtime's metrics for
//! sampling.
//!
//! Shutdown is a handshake, not a guess: [`finish`](Collector::finish)
//! raises the stop flag, the thread performs one *final* poll after
//! seeing it (so everything emitted before `finish` was called is
//! applied — the differential tests rely on this being a complete
//! quiescent drain), and the joined thread's tracker is handed back
//! by value in the [`CollectorReport`].

use crate::recorder::Recorder;
use crate::registry::MetricsRegistry;
use crate::sampler::Sampler;
use crate::stream::{EventStream, StreamStats, DEFAULT_HISTORY};
use crate::sync::{into_inner_unpoisoned, lock_unpoisoned};
use crate::tracker::{GraphTracker, TrackerSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Tuning knobs for [`Collector::spawn`].
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Poll/sample interval.
    pub interval: Duration,
    /// Event-stream history window (see
    /// [`EventStream::with_history`]).
    pub history: usize,
    /// Metrics snapshots retained by the sampler.
    pub samples: usize,
}

impl Default for CollectorConfig {
    fn default() -> CollectorConfig {
        CollectorConfig {
            interval: Duration::from_millis(2),
            history: DEFAULT_HISTORY,
            samples: 256,
        }
    }
}

struct Inner {
    tracker: Mutex<GraphTracker>,
    sampler: Mutex<Option<Sampler>>,
    missed: AtomicU64,
    stop: Mutex<bool>,
    cv: Condvar,
}

impl Inner {
    fn empty() -> Inner {
        Inner {
            tracker: Mutex::new(GraphTracker::new()),
            sampler: Mutex::new(None),
            missed: AtomicU64::new(0),
            stop: Mutex::new(true),
            cv: Condvar::new(),
        }
    }
}

/// What the collector hands back at [`Collector::finish`].
pub struct CollectorReport {
    /// The tracker, final state applied, moved out of the thread.
    pub tracker: GraphTracker,
    /// The sampler, if a registry was attached.
    pub sampler: Option<Sampler>,
    /// Final stream progress.
    pub stream: StreamStats,
    /// Events the collector's subscriber lagged past (0 unless the
    /// history window was overrun between polls).
    pub missed: u64,
}

/// A handle to the background collection thread.
pub struct Collector {
    stream: EventStream,
    inner: Arc<Inner>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("stream", &self.stream)
            .finish()
    }
}

impl Collector {
    /// Spawn the collection thread over `rec` with default tuning.
    pub fn new(rec: Arc<Recorder>) -> Collector {
        Collector::spawn(rec, CollectorConfig::default())
    }

    /// Spawn the collection thread over `rec`.
    pub fn spawn(rec: Arc<Recorder>, cfg: CollectorConfig) -> Collector {
        let stream = EventStream::with_history(rec, cfg.history);
        let inner = Arc::new(Inner {
            stop: Mutex::new(false),
            ..Inner::empty()
        });
        let thread_inner = Arc::clone(&inner);
        let mut sub = stream.subscribe();
        let interval = cfg.interval;
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
                let batch = sub.poll();
                lock_unpoisoned(&thread_inner.tracker).apply_batch(&batch);
                thread_inner.missed.store(sub.missed(), Ordering::Relaxed);
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
            stream,
            inner,
            handle: Some(handle),
        }
    }

    /// The recorder runtimes should emit into.
    pub fn recorder(&self) -> Arc<Recorder> {
        Arc::clone(self.stream.recorder())
    }

    /// The stream the collector consumes (for stats; subscribing a
    /// second consumer is fine — cursors are independent).
    pub fn stream(&self) -> &EventStream {
        &self.stream
    }

    /// Start sampling `reg` on the collector's interval (replaces any
    /// previously attached registry). Called by `with_observer` once
    /// the runtime's counters exist.
    pub fn attach_registry(&self, reg: Arc<MetricsRegistry>) {
        let cap = {
            let cur = lock_unpoisoned(&self.inner.sampler);
            cur.as_ref().map(|s| s.len().max(2)).unwrap_or(256)
        };
        *lock_unpoisoned(&self.inner.sampler) = Some(Sampler::new(reg, cap));
    }

    /// A point-in-time copy of the live tracker aggregates.
    pub fn tracker(&self) -> TrackerSnapshot {
        lock_unpoisoned(&self.inner.tracker).snapshot()
    }

    /// Run `f` against the live sampler, if a registry is attached.
    pub fn with_sampler<R>(&self, f: impl FnOnce(&Sampler) -> R) -> Option<R> {
        lock_unpoisoned(&self.inner.sampler).as_ref().map(f)
    }

    /// Current stream progress.
    pub fn stats(&self) -> StreamStats {
        self.stream.stats()
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
        CollectorReport {
            tracker: into_inner_unpoisoned(inner.tracker),
            sampler: into_inner_unpoisoned(inner.sampler),
            stream: self.stream.stats(),
            missed: inner.missed.into_inner(),
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
    use crate::event::{EventKind, NO_SHARD};

    #[test]
    fn collector_applies_everything_emitted_before_finish() {
        let rec = Arc::new(Recorder::with_capacity(2, 1 << 12));
        let col = Collector::spawn(
            Arc::clone(&rec),
            CollectorConfig {
                interval: Duration::from_millis(1),
                ..CollectorConfig::default()
            },
        );
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
        assert_eq!(report.missed, 0);
    }

    #[test]
    fn live_snapshots_progress_mid_run() {
        let rec = Arc::new(Recorder::with_capacity(2, 1 << 12));
        let col = Collector::spawn(
            Arc::clone(&rec),
            CollectorConfig {
                interval: Duration::from_millis(1),
                ..CollectorConfig::default()
            },
        );
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
        let col = Collector::spawn(
            Arc::new(Recorder::disabled()),
            CollectorConfig {
                interval: Duration::from_millis(1),
                ..CollectorConfig::default()
            },
        );
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
        let col = Collector::spawn(
            Arc::clone(&rec),
            CollectorConfig {
                interval: Duration::from_millis(1),
                ..CollectorConfig::default()
            },
        );
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
}
