//! Multi-tenant service behavior: admission isolation, client-visible
//! backpressure, both shutdown phases' exactly-once accounting, and
//! caller-runs admission with client-side, worker-side and
//! ingress-thread pumps racing on every lane.

use nexuspp_core::testsupport::with_watchdog;
use nexuspp_core::{ShardCapacity, TaskBuilder};
use nexuspp_service::{IngressError, ResolverService, ServiceConfig, ServiceTask, TenantId};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tenant-scoped address: tenants touch disjoint address spaces, so
/// cross-tenant tasks are independent by construction.
fn addr(tenant: u32, slot: u64) -> u64 {
    ((tenant as u64) << 32) | slot
}

/// An inout task on the tenant's `slot` address running `job`.
fn task(tenant: u32, slot: u64, tag: u64, job: impl FnOnce() + Send + 'static) -> ServiceTask {
    ServiceTask::new(
        TaskBuilder::new(1)
            .tag(tag)
            .read_writes(addr(tenant, slot), 8)
            .build(),
        job,
    )
}

#[test]
fn saturating_tenant_cannot_block_another() {
    with_watchdog(60, "tenant isolation", || {
        // Tenant 1's chain sits behind a gated head and its budget is
        // tiny; tenant 2 streams freely. 4 workers so the single gated
        // body cannot starve execution.
        let svc = ResolverService::start(
            ServiceConfig::new(4, 4)
                .tenant(TenantId(1), 4)
                .tenant(TenantId(2), 64)
                .lane_capacity(8),
        );
        let h1 = svc.handle(TenantId(1)).unwrap();
        let h2 = svc.handle(TenantId(2)).unwrap();
        let gate = Arc::new(AtomicBool::new(false));
        let t1_ran = Arc::new(AtomicU32::new(0));

        // Head: occupies one budget slot and blocks the whole chain.
        {
            let gate = Arc::clone(&gate);
            let ran = Arc::clone(&t1_ran);
            h1.try_submit(task(1, 0, 0, move || {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                ran.fetch_add(1, Ordering::SeqCst);
            }))
            .expect("head accepted");
        }
        // Saturate tenant 1: chain tasks pile into budget, then the
        // hold slot, then the lane, then client-visible backpressure.
        let mut accepted1 = 1u64;
        let mut backpressured = 0u64;
        for i in 1..64u64 {
            let ran = Arc::clone(&t1_ran);
            match h1.try_submit(task(1, 0, i, move || {
                ran.fetch_add(1, Ordering::SeqCst);
            })) {
                Ok(()) => accepted1 += 1,
                Err(e) => {
                    assert!(e.is_retryable(), "only backpressure expected");
                    backpressured += 1;
                }
            }
            std::thread::yield_now();
        }
        assert!(
            backpressured > 0,
            "tenant 1 never saw backpressure (accepted {accepted1})"
        );

        // Tenant 2 must stream through undisturbed *while tenant 1 is
        // wedged*: every submit lands (bounded retries only against
        // transient lane fill) and completes.
        let t2_ran = Arc::new(AtomicU32::new(0));
        for i in 0..200u64 {
            let ran = Arc::clone(&t2_ran);
            h2.submit_blocking(task(2, i % 8, i, move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }))
            .expect("tenant 2 must not be refused");
        }
        // Poll the executed *counter* (bumped after the body returns),
        // so the later metric assertions are race-free.
        let deadline = Instant::now() + Duration::from_secs(30);
        while svc.metrics_snapshot().get("tenant2", "executed") != Some(200) {
            assert!(
                Instant::now() < deadline,
                "tenant 2 starved behind tenant 1 ({} of 200 ran)",
                t2_ran.load(Ordering::SeqCst)
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Tenant 1 is still wedged behind its gate the whole time.
        assert_eq!(t1_ran.load(Ordering::SeqCst), 0);

        // Budgets were actually the limiting factor, and enforced.
        let snap = svc.metrics_snapshot();
        assert!(snap.get("tenant1", "budget_denied").unwrap() > 0);
        assert!(snap.get("tenant1", "in_flight_peak").unwrap() <= 4);
        assert_eq!(snap.get("tenant2", "executed"), Some(200));

        // Release and drain: every accepted tenant-1 task executes.
        gate.store(true, Ordering::SeqCst);
        let report = svc.shutdown();
        assert!(report.graceful);
        assert_eq!(report.dropped_ingress, 0);
        assert_eq!(t1_ran.load(Ordering::SeqCst) as u64, accepted1);
        assert_eq!(t2_ran.load(Ordering::SeqCst), 200);
        assert_eq!(
            report.runtime.executed,
            accepted1 + 200,
            "every accepted task executed exactly once"
        );
        assert_eq!(report.runtime.cancelled, 0);
    });
}

#[test]
fn backpressure_is_retryable_and_clears() {
    with_watchdog(60, "backpressure retry", || {
        let svc = ResolverService::start(
            ServiceConfig::new(2, 2)
                .tenant(TenantId(1), 1)
                .lane_capacity(2),
        );
        let h = svc.handle(TenantId(1)).unwrap();
        let gate = Arc::new(AtomicBool::new(false));
        {
            let gate = Arc::clone(&gate);
            h.try_submit(task(1, 0, 0, move || {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }))
            .expect("head accepted");
        }
        // Budget 1 is held by the head; fill the hold slot + lane until
        // the client sees Backpressure, holding the task back intact.
        let mut pending = Vec::new();
        let rejected = loop {
            match h.try_submit(task(1, 0, 99, || {})) {
                Ok(()) => pending.push(()),
                Err(e) => break e,
            }
            assert!(pending.len() < 64, "lane never filled");
        };
        assert!(rejected.is_retryable());
        assert_eq!(rejected.into_task().tag(), 99, "task handed back intact");

        // Clear the wedge; the freed budget drains the lane and the
        // retry then succeeds.
        gate.store(true, Ordering::SeqCst);
        h.submit_blocking(task(1, 0, 100, || {}))
            .expect("retry after backpressure must land");
        let report = svc.shutdown();
        assert!(report.graceful);
        assert_eq!(
            report.runtime.executed,
            2 + pending.len() as u64,
            "head + queued + retried all ran"
        );
    });
}

#[test]
fn graceful_shutdown_under_load_executes_accepted_work_exactly_once() {
    with_watchdog(60, "graceful under load", || {
        const TENANTS: u32 = 4;
        const PER_TENANT: u64 = 300;
        let mut cfg = ServiceConfig::new(4, 4).lane_capacity(32);
        for t in 1..=TENANTS {
            cfg = cfg.tenant(TenantId(t), 16);
        }
        let svc = Arc::new(ResolverService::start(cfg));
        // One execution counter per (tenant, task): exactly-once is a
        // per-cell assertion, not an aggregate.
        let ran: Arc<Vec<AtomicU32>> = Arc::new(
            (0..TENANTS as u64 * PER_TENANT)
                .map(|_| AtomicU32::new(0))
                .collect(),
        );
        let clients: Vec<_> = (1..=TENANTS)
            .map(|t| {
                let h = svc.handle(TenantId(t)).unwrap();
                let ran = Arc::clone(&ran);
                std::thread::spawn(move || {
                    let mut accepted = 0u64;
                    for i in 0..PER_TENANT {
                        let cell = (t - 1) as u64 * PER_TENANT + i;
                        let ran = Arc::clone(&ran);
                        // Chains within a tenant (slot reuse) exercise
                        // parked wakes under the drain.
                        let job = move || {
                            ran[cell as usize].fetch_add(1, Ordering::SeqCst);
                        };
                        if h.submit_blocking(task(t, i % 4, cell, job)).is_ok() {
                            accepted += 1;
                        }
                    }
                    accepted
                })
            })
            .collect();
        let accepted: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(accepted, TENANTS as u64 * PER_TENANT);
        let report = svc.shutdown();
        assert!(report.graceful);
        assert_eq!(report.dropped_ingress, 0);
        assert_eq!(report.runtime.executed, accepted);
        assert_eq!(report.runtime.cancelled, 0);
        for (cell, c) in ran.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::SeqCst),
                1,
                "task {cell} must run exactly once"
            );
        }
        // Shutdown settled every budget lane.
        for (t, counts) in &report.tenants {
            assert_eq!(counts.in_flight, 0, "{t} still holds budget");
        }
        // Idempotent: a second shutdown reports the same totals.
        let again = svc.shutdown();
        assert_eq!(again.runtime.executed, report.runtime.executed);
    });
}

#[test]
fn hard_deadline_shutdown_accounts_for_every_accepted_task() {
    with_watchdog(60, "hard deadline accounting", || {
        let svc = ResolverService::start(
            ServiceConfig::new(1, 2)
                .tenant(TenantId(1), 4)
                .lane_capacity(64),
        );
        let h = svc.handle(TenantId(1)).unwrap();
        let gate = Arc::new(AtomicBool::new(false));
        let ran = Arc::new(AtomicU32::new(0));
        {
            let gate = Arc::clone(&gate);
            let ran = Arc::clone(&ran);
            h.try_submit(task(1, 0, 0, move || {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                ran.fetch_add(1, Ordering::SeqCst);
            }))
            .expect("head accepted");
        }
        // A chain behind the head: some will be admitted (filling the
        // budget), the rest wedge in the lane, un-admittable.
        let mut accepted = 1u64;
        for i in 1..40u64 {
            let ran = Arc::clone(&ran);
            if h.try_submit(task(1, 0, i, move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }))
            .is_ok()
            {
                accepted += 1;
            }
        }
        // Release the running body after the deadline has fired.
        let release = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(150));
                gate.store(true, Ordering::SeqCst);
            })
        };
        let report = svc.shutdown_deadline(Duration::from_millis(40));
        release.join().unwrap();
        assert!(!report.graceful, "deadline should have fired");
        // Exactly-once ledger: every accepted task is executed,
        // cancelled, or dropped at ingress — and nothing is counted
        // twice.
        assert_eq!(
            report.runtime.executed + report.runtime.cancelled + report.dropped_ingress,
            accepted,
            "{report:?}"
        );
        assert!(report.runtime.executed >= 1, "the gated head ran");
        assert!(report.dropped_ingress > 0, "the wedged lane was dropped");
        assert_eq!(report.runtime.executed, ran.load(Ordering::SeqCst) as u64);
        let snap = svc.metrics_snapshot();
        assert_eq!(
            snap.get("tenant1", "admitted").unwrap(),
            report.runtime.executed + report.runtime.cancelled
        );
        assert_eq!(snap.get("tenant1", "dropped"), Some(report.dropped_ingress));
        // Budget fully settled even on the abort path.
        assert_eq!(report.tenants[0].1.in_flight, 0);
    });
}

#[test]
fn racing_pumps_admit_each_clients_tasks_in_send_order_exactly_once() {
    with_watchdog(120, "racing pumps keep order", || {
        const TENANTS: u32 = 3;
        const CLIENTS: u32 = 2;
        const PER_CLIENT: u64 = 500;
        // Budget 1 and lane 2 keep every lane blocked nearly always, so
        // a task is admitted by whichever of its clients, the worker
        // that just retired its predecessor, or the ingress thread gets
        // to the lane first.
        let mut cfg = ServiceConfig::new(4, 4).lane_capacity(2);
        for t in 1..=TENANTS {
            cfg = cfg.tenant(TenantId(t), 1);
        }
        let svc = Arc::new(ResolverService::start(cfg));
        let clients: Vec<_> = (1..=TENANTS)
            .flat_map(|t| (0..CLIENTS).map(move |c| (t, c)))
            .map(|(t, c)| {
                let h = svc.handle(TenantId(t)).unwrap();
                // Every task of one client is an inout on that client's
                // own address: they execute in admission order.
                let order = Arc::new(Mutex::new(Vec::with_capacity(PER_CLIENT as usize)));
                let seen = Arc::clone(&order);
                let client = std::thread::spawn(move || {
                    for tag in 0..PER_CLIENT {
                        let order = Arc::clone(&order);
                        let job = move || order.lock().unwrap().push(tag);
                        h.submit_blocking(task(t, c as u64, tag, job))
                            .expect("accepted");
                    }
                });
                (t, c, client, seen)
            })
            .collect();
        let orders: Vec<_> = clients
            .into_iter()
            .map(|(t, c, client, seen)| {
                client.join().unwrap();
                (t, c, seen)
            })
            .collect();
        let report = svc.shutdown();
        assert!(report.graceful);
        let accepted = (TENANTS * CLIENTS) as u64 * PER_CLIENT;
        assert_eq!(report.runtime.executed, accepted);
        assert_eq!(report.runtime.cancelled + report.dropped_ingress, 0);
        for (t, c, seen) in orders {
            // Ascending and complete is also exactly-once per cell.
            let seen = seen.lock().unwrap();
            assert!(
                seen.iter().copied().eq(0..PER_CLIENT),
                "tenant {t} client {c} ran out of send order or not exactly once: {seen:?}"
            );
        }
        let snap = svc.metrics_snapshot();
        for t in 1..=TENANTS {
            let get = |counter| snap.get(&TenantId(t).to_string(), counter).unwrap();
            assert_eq!(get("submitted"), CLIENTS as u64 * PER_CLIENT);
            assert_eq!(get("admitted"), get("submitted"));
            assert_eq!(get("executed"), get("submitted"));
            assert!(get("in_flight_peak") <= 1, "budget 1 was exceeded");
        }
    });
}

#[test]
fn parked_capacity_retry_drains_on_the_tick_alone() {
    with_watchdog(60, "capacity retry slot", || {
        const TASKS: u64 = 40;
        // One resident task per shard, and every task touches the same
        // four addresses: while one is resident the next is rejected by
        // the runtime, not by the budget, and parks in the retry slot.
        let svc = ResolverService::start(
            ServiceConfig::new(2, 2)
                .capacity(ShardCapacity::Bounded(1))
                .tenant(TenantId(1), 8)
                .lane_capacity(TASKS as usize),
        );
        let h = svc.handle(TenantId(1)).unwrap();
        let gate = Arc::new(AtomicBool::new(false));
        let ran: Arc<Vec<AtomicU32>> = Arc::new((0..TASKS).map(|_| AtomicU32::new(0)).collect());
        for tag in 0..TASKS {
            let (gate, ran) = (Arc::clone(&gate), Arc::clone(&ran));
            let mut sub = TaskBuilder::new(1).tag(tag);
            for slot in 0..4 {
                sub = sub.read_writes(addr(1, slot), 8);
            }
            let job = move || {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                ran[tag as usize].fetch_add(1, Ordering::SeqCst);
            };
            h.try_submit(ServiceTask::new(sub.build(), job))
                .expect("lane holds them all");
        }
        // Last submit made. A finish frees shard slots only after the
        // finishing task's guard has pumped, so from here on nothing but
        // the ingress thread's tick can resubmit the retry slot.
        gate.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(30);
        while svc.metrics_snapshot().get("tenant1", "executed") != Some(TASKS) {
            assert!(
                Instant::now() < deadline,
                "a parked retry slot never drained"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = svc.shutdown();
        assert!(report.graceful);
        assert_eq!(report.runtime.executed, TASKS);
        assert_eq!(report.runtime.cancelled + report.dropped_ingress, 0);
        for (tag, cell) in ran.iter().enumerate() {
            assert_eq!(cell.load(Ordering::SeqCst), 1, "task {tag}");
        }
        let snap = svc.metrics_snapshot();
        assert!(snap.get("tenant1", "capacity_retries").unwrap() > 0);
        assert_eq!(snap.get("tenant1", "admitted"), Some(TASKS));
        assert_eq!(report.tenants[0].1.in_flight, 0);
    });
}

#[test]
fn hard_deadline_with_pumps_in_flight_accounts_exactly_once() {
    with_watchdog(120, "deadline vs racing pumps", || {
        const TENANTS: u32 = 2;
        for round in 0..20 {
            let mut cfg = ServiceConfig::new(2, 4).lane_capacity(4);
            for t in 1..=TENANTS {
                cfg = cfg.tenant(TenantId(t), 2);
            }
            let svc = Arc::new(ResolverService::start(cfg));
            let executed = Arc::new(AtomicU64::new(0));
            // Two clients per tenant stream until the seal turns them
            // away, so the deadline lands on client-side and
            // worker-side pumps wherever they happen to be.
            let clients: Vec<_> = (0..2 * TENANTS)
                .map(|c| {
                    let t = 1 + c % TENANTS;
                    let h = svc.handle(TenantId(t)).unwrap();
                    let executed = Arc::clone(&executed);
                    std::thread::spawn(move || {
                        let mut accepted = 0u64;
                        loop {
                            let executed = Arc::clone(&executed);
                            let job = move || {
                                executed.fetch_add(1, Ordering::SeqCst);
                            };
                            match h.try_submit(task(t, c as u64 % 3, accepted, job)) {
                                Ok(()) => accepted += 1,
                                Err(IngressError::Backpressure(_)) => std::thread::yield_now(),
                                Err(IngressError::Closed(_)) => return accepted,
                            }
                        }
                    })
                })
                .collect();
            // Let the stream establish itself, at a different phase
            // each round.
            let flowing = 200 + 150 * round;
            while executed.load(Ordering::SeqCst) < flowing {
                std::thread::yield_now();
            }
            let report = svc.shutdown_deadline(Duration::ZERO);
            let accepted: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
            assert_eq!(
                report.runtime.executed + report.runtime.cancelled + report.dropped_ingress,
                accepted,
                "round {round}: {report:?}"
            );
            assert_eq!(report.runtime.executed, executed.load(Ordering::SeqCst));
            // Nothing was admitted behind the discard's back: what the
            // lanes admitted is what the runtime retired, and the rest
            // of what they accepted is what the discard dropped.
            let snap = svc.metrics_snapshot();
            let sum = |counter: &str| -> u64 {
                (1..=TENANTS)
                    .map(|t| snap.get(&TenantId(t).to_string(), counter).unwrap())
                    .sum()
            };
            assert_eq!(sum("submitted"), accepted, "round {round}");
            assert_eq!(
                sum("admitted"),
                report.runtime.executed + report.runtime.cancelled,
                "round {round}"
            );
            assert_eq!(sum("dropped"), report.dropped_ingress, "round {round}");
            for (t, counts) in &report.tenants {
                assert_eq!(counts.in_flight, 0, "round {round}: {t} still holds budget");
            }
        }
    });
}

#[test]
fn closed_ingress_refuses_with_non_retryable_error() {
    with_watchdog(60, "closed ingress", || {
        let svc = ResolverService::start(ServiceConfig::new(1, 2).tenant(TenantId(1), 8));
        let h = svc.handle(TenantId(1)).unwrap();
        h.try_submit(task(1, 0, 0, || {})).expect("accepted");
        let report = svc.shutdown();
        assert!(report.graceful);
        match h.try_submit(task(1, 0, 1, || {})) {
            Err(IngressError::Closed(t)) => assert_eq!(t.tag(), 1),
            other => panic!("expected Closed, got {other:?}"),
        }
        assert!(h.submit_blocking(task(1, 0, 2, || {})).is_err());
    });
}

#[test]
fn collector_samples_per_tenant_groups_live() {
    with_watchdog(60, "live tenant metrics", || {
        let collector = nexuspp_obs::Collector::spawn(
            Arc::new(nexuspp_obs::Recorder::with_capacity(4, 1 << 14)),
            nexuspp_obs::CollectorConfig {
                interval: Duration::from_millis(1),
                ..nexuspp_obs::CollectorConfig::default()
            },
        );
        let svc = ResolverService::with_observer(
            ServiceConfig::new(2, 2)
                .tenant(TenantId(1), 8)
                .tenant(TenantId(2), 8),
            &collector,
        );
        let h = svc.handle(TenantId(1)).unwrap();
        for i in 0..50u64 {
            h.submit_blocking(task(1, i % 4, i, || {})).unwrap();
        }
        // The sampler must observe tenant 1's counters move *while the
        // service is live* — that is the whole point of the wiring.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let seen = collector
                .with_sampler(|s| {
                    s.latest()
                        .and_then(|smp| smp.snap.get("tenant1", "executed"))
                        .unwrap_or(0)
                })
                .unwrap_or(0);
            if seen == 50 {
                break;
            }
            assert!(Instant::now() < deadline, "sampler never saw tenant1");
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = svc.shutdown();
        assert!(report.graceful);
        let obs_report = collector.finish();
        let sampler = obs_report.sampler.expect("registry attached");
        let last = sampler.latest().unwrap();
        assert_eq!(last.snap.get("tenant1", "executed"), Some(50));
        assert_eq!(last.snap.get("tenant2", "executed"), Some(0));
        // The runtime groups ride along in the same registry, and the
        // event stream saw the lifecycle.
        assert_eq!(last.snap.get("tasks", "executed"), Some(50));
        assert!(obs_report.tracker.snapshot().tasks_seen >= 50);
    });
}

#[test]
fn zero_sweep_batch_and_lane_capacity_are_clamped_and_drain() {
    with_watchdog(20, "zero-sized lane and quantum", || {
        // A quantum of 0 would admit nothing and a bound of 0 would
        // refuse every send; the builder clamps both to 1, and the
        // builder is the only way to set them.
        let svc = ResolverService::start(
            ServiceConfig::new(1, 2)
                .tenant(TenantId(1), 8)
                .sweep_batch(0)
                .lane_capacity(0),
        );
        let h = svc.handle(TenantId(1)).unwrap();
        for i in 0..4u64 {
            h.submit_blocking(task(1, i % 2, i, || {})).unwrap();
        }
        let report = svc.shutdown();
        assert!(report.graceful);
        assert_eq!(report.runtime.executed, 4);
    });
}

#[test]
fn unknown_tenant_has_no_handle() {
    let svc = ResolverService::start(ServiceConfig::new(1, 2).tenant(TenantId(1), 8));
    assert!(svc.handle(TenantId(9)).is_none());
    assert!(svc.handle(TenantId(1)).is_some());
}
