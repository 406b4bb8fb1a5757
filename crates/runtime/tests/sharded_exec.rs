//! End-to-end execution tests across shard counts: real closures on
//! real threads, dependency resolution partitioned over per-shard locks.
//! Dataflow results must be schedule-independent, so every test asserts
//! exact values no matter how shards interleave.

use nexuspp_runtime::Runtime;

#[test]
fn many_independent_tasks_all_complete() {
    let rt = Runtime::new(4, 4);
    let regions: Vec<_> = (0..256).map(|i| rt.region(vec![i as u64])).collect();
    for r in &regions {
        let r = r.clone();
        rt.task().inout(&r).spawn(move |t| {
            t.write(&r)[0] += 1000;
        });
    }
    rt.barrier();
    for (i, r) in regions.iter().enumerate() {
        assert_eq!(rt.with_data(r, |v| v[0]), i as u64 + 1000);
    }
    assert_eq!(rt.submitted(), 256);
}

/// A wavefront-style stencil over a strip of cells: cell `i` at step `s`
/// reads cells `i-1` and `i` from the previous step. Dataflow semantics
/// make the result schedule-independent, so one engine and any number of
/// shards must produce identical strips.
fn stencil(shards: usize) -> Vec<u64> {
    let rt = Runtime::new(3, shards);
    let cells: Vec<_> = (0..12).map(|i| rt.region(vec![i as u64])).collect();
    for _step in 0..6 {
        for i in 1..cells.len() {
            let (left, cur) = (cells[i - 1].clone(), cells[i].clone());
            rt.task().input(&left).inout(&cur).spawn(move |t| {
                let l = t.read(&left)[0];
                t.write(&cur)[0] += l;
            });
        }
    }
    rt.barrier();
    cells.iter().map(|c| rt.with_data(c, |v| v[0])).collect()
}

#[test]
fn matches_single_engine_runtime_results() {
    // Sequential reference: the same recurrence on plain integers.
    let mut reference: Vec<u64> = (0..12).collect();
    for _step in 0..6 {
        for i in 1..reference.len() {
            reference[i] += reference[i - 1];
        }
    }
    for shards in [1, 2, 4, 8] {
        assert_eq!(stencil(shards), reference, "shards={shards}");
    }
}

#[test]
fn panic_in_task_is_reraised_at_barrier() {
    let rt = Runtime::new(2, 2);
    let r = rt.region(vec![0u64]);
    {
        let r = r.clone();
        rt.task().output(&r).spawn(move |_t| {
            panic!("sharded task boom");
        });
    }
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.barrier()));
    assert!(err.is_err(), "barrier must re-raise the task panic");
}

#[test]
fn panic_while_writing_leaves_region_usable() {
    // A body that panics while holding a write guard must not turn the
    // region into a violation for the next task: its write stands and
    // the successor builds on it.
    let rt = Runtime::new(2, 2);
    let r = rt.region(vec![0u64]);
    {
        let r = r.clone();
        rt.task().output(&r).spawn(move |t| {
            let mut w = t.write(&r);
            w[0] = 7;
            panic!("writer boom");
        });
    }
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.barrier()));
    assert!(err.is_err(), "barrier must re-raise the task panic");
    {
        let r = r.clone();
        rt.task().inout(&r).spawn(move |t| {
            let seen = t.read(&r)[0];
            t.write(&r)[0] = seen * 10 + 1;
        });
    }
    rt.barrier();
    assert_eq!(rt.with_data(&r, |v| v[0]), 71);
}

#[test]
fn high_priority_probe_overtakes_backlog() {
    // Functional smoke: a high-priority probe on an idle region returns
    // promptly even with a backlog of queued normal tasks.
    let rt = Runtime::new(1, 4);
    let busy = rt.region(vec![0u64]);
    let idle = rt.region(vec![42u64]);
    for _ in 0..20 {
        let busy = busy.clone();
        rt.task().inout(&busy).spawn(move |t| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            t.write(&busy)[0] += 1;
        });
    }
    rt.wait_on(&idle); // must not wait for the 20ms backlog chain
    rt.barrier();
    assert_eq!(rt.with_data(&busy, |v| v[0]), 20);
}
