//! End-to-end wake-path tests for the runtime: a fan-in program must
//! compute the closed-form dataflow result under real workers, with its
//! wakes flowing through the dispatcher, alone and composed with bounded
//! capacity.

use nexuspp_runtime::{Runtime, ShardCapacity};

fn wake_fan_in(rt: &Runtime, producers: u32, consumers_per: u32) -> u64 {
    // Each producer seeds a cell; its consumers add into a shared
    // accumulator region of their own; a final sum reduces everything.
    let cells: Vec<_> = (0..producers).map(|_| rt.region(vec![0u64])).collect();
    let acc = rt.region(vec![0u64; producers as usize]);
    for (p, cell) in cells.iter().enumerate() {
        {
            let cell = cell.clone();
            rt.task().output(&cell).spawn(move |t| {
                t.write(&cell)[0] = (p as u64) + 1;
            });
        }
        for _ in 0..consumers_per {
            let cell = cell.clone();
            let acc = acc.clone();
            rt.task().input(&cell).inout(&acc).spawn(move |t| {
                let v = t.read(&cell)[0];
                t.write(&acc)[p] += v;
            });
        }
    }
    rt.barrier();
    rt.with_data(&acc, |v| v.iter().sum())
}

/// Closed form of [`wake_fan_in`]'s result.
fn expected(producers: u32, consumers_per: u32) -> u64 {
    (1..=producers as u64)
        .map(|p| p * consumers_per as u64)
        .sum()
}

#[test]
fn fan_in_result_matches_closed_form() {
    for workers in [1usize, 4] {
        let rt = Runtime::new(workers, 4);
        let got = wake_fan_in(&rt, 8, 16);
        assert_eq!(
            got,
            expected(8, 16),
            "workers={workers}: fan-in result diverged"
        );
        let counts = rt.wake_counts();
        assert!(
            counts.delivered >= 8,
            "at least one wake per producer burst must flow through the \
             dispatcher (got {})",
            counts.delivered
        );
    }
}

#[test]
fn dispatcher_wakes_are_counted() {
    let rt = Runtime::new(4, 4);
    let got = wake_fan_in(&rt, 16, 8);
    assert_eq!(got, expected(16, 8));
    assert!(rt.wake_counts().delivered > 0);
}

#[test]
fn bounded_capacity_fan_in_balances_stall_accounting() {
    // Capacity-1 shards force the stall/retry handshake while finishers
    // hand wakes off: both features' counters must come out clean.
    let rt = Runtime::with_capacity(4, 2, ShardCapacity::Bounded(1));
    let got = wake_fan_in(&rt, 6, 6);
    assert_eq!(got, expected(6, 6));
    for (s, c) in rt.capacity_counts().iter().enumerate() {
        assert_eq!(
            c.stalls_observed, c.retries_resolved,
            "shard {s}: unresolved stall episodes"
        );
        assert_eq!(c.resident, 0, "shard {s} leaked residency slots");
    }
}
