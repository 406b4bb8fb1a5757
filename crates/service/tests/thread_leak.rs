//! Thread-leak check for the full service lifecycle, in its own test
//! binary so no sibling test's threads perturb the process count.

use nexuspp_core::testsupport::wait_until;
use nexuspp_core::TaskBuilder;
use nexuspp_service::{ResolverService, ServiceConfig, ServiceTask, TenantId};
use std::time::Duration;

/// Live threads in this process (Linux: one entry per task).
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(1)
}

#[test]
fn service_lifecycle_leaks_no_threads() {
    let baseline = thread_count();
    for round in 0..3 {
        let svc = ResolverService::start(
            ServiceConfig::new(4, 4)
                .tenant(TenantId(1), 8)
                .tenant(TenantId(2), 8),
        );
        // The runtime's four workers are the service's only threads:
        // admission runs on the threads that send and retire tasks.
        assert_eq!(thread_count(), baseline + 4, "round {round}");
        for t in 1..=2u32 {
            let h = svc.handle(TenantId(t)).unwrap();
            for i in 0..100u64 {
                let sub = TaskBuilder::new(1)
                    .tag(i)
                    .read_writes(((t as u64) << 32) | (i % 4), 8)
                    .build();
                h.submit_blocking(ServiceTask::new(sub, || {}))
                    .expect("accepted");
            }
        }
        let report = svc.shutdown();
        assert!(report.graceful, "round {round}");
        assert_eq!(report.runtime.executed, 200, "round {round}");
        drop(svc);
        // Every worker must be joined; give the OS a moment to reap,
        // then insist on the baseline.
        wait_until(
            Duration::from_secs(10),
            &format!("round {round}: thread count back to baseline {baseline}"),
            || thread_count() <= baseline,
        );
    }
}
