//! The wake-stress harness: a wide fan-in workload driven straight
//! through a [`ShardDispatcher`] by real finisher threads, shared by the
//! `repro -- wakes` experiment and the recording-overhead gate.
//!
//! Shape (mirroring `nexuspp_workloads::wake_stress`, which generates the
//! same DAG as an address trace): `producers` independent writer tasks
//! whose addresses all land on **one** shard, each with `consumers_per`
//! reader tasks parked on its address. Every producer completion
//! therefore releases a burst of dependents homed on the same hot shard —
//! many finishers hammering one shard's kick-off path at once, the most
//! contention the shard lock can see: each finisher holds it only for
//! the table release and hands its burst off after dropping it.
//!
//! Payloads are `u64` tags; "executing" a task costs nothing, so
//! measured wall-clock is almost pure resolution + wake hand-off.

use crate::dispatch::{ShardDispatcher, TaskTicket, WakeCounts};
use nexuspp_core::{nth_addr_on_shard, NexusConfig, TaskBuilder};
use nexuspp_obs::Recorder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Parameters of the wake-stress run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakeStressSpec {
    /// Finisher threads (the "workers" retiring tasks concurrently).
    pub finishers: usize,
    /// Independent producer tasks, all homed on the hot shard.
    pub producers: u32,
    /// Dependent reader tasks parked on each producer's address.
    pub consumers_per: u32,
    /// Shards in the dispatcher (every task lives on shard 0; the rest
    /// exist to keep the address routing honest).
    pub shards: usize,
    /// Busy-work per retired task, in nanoseconds (0 = none — the
    /// historical shape where wall-clock is almost pure resolution +
    /// delivery). Nonzero values model real task bodies, which the
    /// live-collector overhead gate needs: with zero-cost tasks every
    /// nanosecond of instrumentation is pure relative overhead, so the
    /// gate would measure the host's scheduling noise, not the
    /// streaming path.
    pub spin_ns: u64,
}

impl WakeStressSpec {
    /// A spec sized for `finishers` concurrent finisher threads with a
    /// wake burst of `consumers_per` per completion.
    pub fn for_finishers(finishers: usize, producers: u32, consumers_per: u32) -> Self {
        WakeStressSpec {
            finishers,
            producers,
            consumers_per,
            shards: 4,
            spin_ns: 0,
        }
    }

    /// Total tasks (producers plus all consumers).
    pub fn task_count(&self) -> u64 {
        self.producers as u64 * (1 + self.consumers_per as u64)
    }

    /// Wake records the hot shard must deliver (one per consumer).
    pub fn wake_count(&self) -> u64 {
        self.producers as u64 * self.consumers_per as u64
    }

    /// Producer `p`'s address: the `p`-th address homed on shard 0 of
    /// [`shards`](Self::shards) — the same address
    /// `nexuspp_workloads::wake_stress` aims at (both delegate to
    /// [`nth_addr_on_shard`]).
    pub fn producer_addr(&self, p: u32) -> u64 {
        nth_addr_on_shard(0, self.shards, p)
    }
}

/// Outcome of one wake-stress run.
#[derive(Debug, Clone)]
pub struct WakeRun {
    /// Wall-clock of the finish storm (submission excluded).
    pub elapsed: Duration,
    /// Tasks retired (producers + consumers; must equal
    /// [`WakeStressSpec::task_count`]).
    pub completed: u64,
    /// Wake records delivered through finish reports (must equal
    /// [`WakeStressSpec::wake_count`]).
    pub woken: u64,
    /// The dispatcher's wake-path counters at quiescence.
    pub wake_counts: WakeCounts,
}

/// Run the workload to completion and report. Panics if any task is
/// lost or duplicated, or if a `finish` reports anything but its own one
/// completion (the differential suites guard semantics; here it protects
/// the measurement).
pub fn run_wake_stress(spec: &WakeStressSpec) -> WakeRun {
    run_wake_stress_with(spec, None)
}

/// [`run_wake_stress`] with an optional lifecycle-event recorder
/// attached to the dispatcher — the harness behind the recording-
/// overhead gate (a [`Recorder::disabled`] recorder must cost within
/// noise of no recorder at all) and behind event-stream validation on a
/// contended workload.
pub fn run_wake_stress_with(spec: &WakeStressSpec, obs: Option<Arc<Recorder>>) -> WakeRun {
    assert!(spec.finishers >= 1 && spec.producers >= 1);
    let mut d = ShardDispatcher::<u64>::new(spec.shards, &NexusConfig::unbounded());
    if let Some(rec) = obs {
        d = d.with_recorder(rec);
    }
    let d = Arc::new(d);
    // Submit every producer (independent: ready at once) and park every
    // consumer behind its producer's address.
    let mut ready: Vec<(TaskTicket<u64>, u64)> = Vec::with_capacity(spec.producers as usize);
    for p in 0..spec.producers {
        let addr = spec.producer_addr(p);
        let sub = TaskBuilder::new(1).tag(p as u64).writes(addr, 16).build();
        let r = d.submit(sub.fptr, sub.tag, &sub.params, p as u64);
        ready.push((r.ticket, r.ready.expect("producers are independent")));
        for c in 0..spec.consumers_per {
            let tag = 1000 + p as u64 * spec.consumers_per as u64 + c as u64;
            let sub = TaskBuilder::new(1).tag(tag).reads(addr, 16).build();
            let r = d.submit(sub.fptr, sub.tag, &sub.params, tag);
            assert!(r.ready.is_none(), "consumers must park on their producer");
            drop(r.ticket); // resurfaces via some finisher's report
        }
    }
    // The finish storm: split the ready producers across finisher
    // threads; every thread also retires whatever wakes surface in its
    // own reports (consumers whose finish feeds the same hot shard).
    let completed = Arc::new(AtomicU64::new(0));
    let woken = Arc::new(AtomicU64::new(0));
    let shares = Arc::new(Mutex::new(split_shares(ready, spec.finishers)));
    let t0 = Instant::now();
    let threads: Vec<_> = (0..spec.finishers)
        .map(|_| {
            let d = Arc::clone(&d);
            let completed = Arc::clone(&completed);
            let woken = Arc::clone(&woken);
            let shares = Arc::clone(&shares);
            let spin_ns = spec.spin_ns;
            std::thread::spawn(move || {
                let mut queue = shares.lock().unwrap().pop().expect("one share per thread");
                while let Some((ticket, _tag)) = queue.pop() {
                    spin_for(spin_ns);
                    let report = d.finish(ticket);
                    assert_eq!(report.completed, 1, "a finish retires its own task");
                    completed.fetch_add(report.completed, Ordering::Relaxed);
                    woken.fetch_add(report.woken.len() as u64, Ordering::Relaxed);
                    queue.extend(report.woken);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let elapsed = t0.elapsed();
    let completed = completed.load(Ordering::Relaxed);
    let woken = woken.load(Ordering::Relaxed);
    assert_eq!(completed, spec.task_count(), "lost or duplicated tasks");
    assert_eq!(woken, spec.wake_count(), "lost or duplicated wakes");
    assert_eq!(d.sub_descriptors_in_flight(), 0, "leaked sub-descriptors");
    WakeRun {
        elapsed,
        completed,
        woken,
        wake_counts: d.wake_counts(),
    }
}

/// Busy-wait for roughly `ns` nanoseconds (a stand-in task body; no
/// syscall, so a 1-CPU host still interleaves finisher threads via
/// preemption rather than parking them).
#[inline]
fn spin_for(ns: u64) {
    if ns == 0 {
        return;
    }
    let t0 = Instant::now();
    while (t0.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// Deal `ready` round-robin into `n` shares (every thread gets within
/// one producer of every other).
fn split_shares<T>(ready: Vec<T>, n: usize) -> Vec<Vec<T>> {
    let mut shares: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
    for (i, item) in ready.into_iter().enumerate() {
        shares[i % n].push(item);
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexuspp_core::testsupport::with_watchdog;

    #[test]
    fn both_modes_retire_every_task_and_wake() {
        with_watchdog(60, "wake-stress storm", || {
            let spec = WakeStressSpec {
                finishers: 4,
                producers: 16,
                consumers_per: 8,
                shards: 4,
                spin_ns: 0,
            };
            let r = run_wake_stress(&spec);
            assert_eq!(r.completed, spec.task_count());
            assert_eq!(r.woken, spec.wake_count());
        });
    }

    #[test]
    fn producer_addresses_all_home_on_shard_zero() {
        let spec = WakeStressSpec::for_finishers(4, 32, 4);
        for p in 0..spec.producers {
            assert_eq!(
                nexuspp_core::shard_of_addr(spec.producer_addr(p), spec.shards),
                0
            );
        }
        // Distinct producers get distinct addresses.
        let a: Vec<u64> = (0..spec.producers).map(|p| spec.producer_addr(p)).collect();
        let set: std::collections::BTreeSet<u64> = a.iter().copied().collect();
        assert_eq!(set.len(), a.len());
    }
}
