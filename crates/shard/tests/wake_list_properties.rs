//! Property tests for the MPSC wake list (`crossbeam::queue::PushList`)
//! and for clean shutdown with undelivered wakes parked.
//!
//! The list is model-checked against a reference `Mutex<Vec>`: whatever
//! interleaving of pushes and drains runs — sequential and scripted, or
//! genuinely concurrent across producer threads racing a drainer — the
//! drained output must be exactly the reference multiset, with no wake
//! lost, none duplicated, and per-producer FIFO order preserved (the
//! ordering guarantee `vendor/README.md` documents).

use crossbeam::queue::PushList;
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scripted sequential interleaving: ops are "push value" or "drain
    /// now", mirrored onto a `Mutex<Vec>` model. After every drain the
    /// list must have yielded exactly what the model held, in order.
    #[test]
    fn scripted_push_drain_matches_mutex_vec_model(
        ops in prop::collection::vec(prop_oneof![
            (0u64..1000).prop_map(Some), // push
            Just(None),                  // drain
        ], 1..200),
    ) {
        let list = PushList::new();
        let model: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        for op in ops {
            match op {
                Some(v) => {
                    list.push(v);
                    model.lock().push(v);
                }
                None => {
                    let got: Vec<u64> = list.drain().collect();
                    let expect: Vec<u64> = model.lock().drain(..).collect();
                    prop_assert_eq!(got, expect, "drain diverged from the model");
                }
            }
        }
        let got: Vec<u64> = list.drain().collect();
        let expect: Vec<u64> = model.lock().drain(..).collect();
        prop_assert_eq!(got, expect, "final drain diverged from the model");
        prop_assert!(list.is_empty());
    }

    /// Concurrent producers race a live drainer: every pushed wake is
    /// drained exactly once (multiset equality with the reference) and
    /// each producer's wakes come out in the order it pushed them.
    #[test]
    fn concurrent_push_drain_loses_and_duplicates_nothing(
        per_producer in prop::collection::vec(1u64..400, 2..5),
    ) {
        let list = Arc::new(PushList::new());
        let reference: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
        let total: u64 = per_producer.iter().sum();
        let producers: Vec<_> = per_producer
            .iter()
            .enumerate()
            .map(|(p, &n)| {
                let list = Arc::clone(&list);
                let items: Vec<(u64, u64)> = (0..n).map(|i| (p as u64, i)).collect();
                reference.lock().extend(items.iter().copied());
                std::thread::spawn(move || {
                    for item in items {
                        list.push(item);
                    }
                })
            })
            .collect();
        // Drain concurrently with the pushes, like a finisher that keeps
        // claiming the wake list while others post.
        let mut got: Vec<(u64, u64)> = Vec::new();
        while (got.len() as u64) < total {
            got.extend(list.drain());
        }
        for h in producers {
            h.join().unwrap();
        }
        got.extend(list.drain());
        let mut expect = reference.lock().clone();
        let mut sorted = got.clone();
        sorted.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(sorted, expect, "multiset of drained wakes diverged");
        // Per-producer FIFO across interleaved drains.
        let mut next = vec![0u64; per_producer.len()];
        for (p, i) in got {
            prop_assert_eq!(i, next[p as usize], "producer {} out of order", p);
            next[p as usize] = i + 1;
        }
        prop_assert!(list.is_empty());
    }
}

/// Clean shutdown with undelivered wakes parked: wake records still
/// sitting on a wake list when it drops — and payloads still parked in
/// never-woken tasks when a dispatcher drops — must all be released
/// (observed through `Arc` strong counts).
#[test]
fn shutdown_with_undelivered_wakes_drops_every_record() {
    // Records parked on the list itself.
    let tracker = Arc::new(());
    {
        let list: PushList<(u64, Arc<()>)> = PushList::new();
        for i in 0..32 {
            list.push((i, Arc::clone(&tracker)));
        }
        // A claimed-but-abandoned drain (owner dies mid-delivery) drops
        // its chain; the list drop covers the rest.
        let mut drain = list.drain();
        let _ = drain.next();
        list.push((99, Arc::clone(&tracker)));
        drop(drain);
    }
    assert_eq!(Arc::strong_count(&tracker), 1, "wake records leaked");

    // Payloads parked in never-woken tasks inside a dispatcher.
    use nexuspp_core::NexusConfig;
    use nexuspp_shard::ShardDispatcher;
    use nexuspp_trace::Param;
    let payload_tracker = Arc::new(());
    let d = ShardDispatcher::<Arc<()>>::new(4, &NexusConfig::unbounded());
    let producer = d.submit(
        1,
        0,
        &[Param::output(0x100, 4)],
        Arc::clone(&payload_tracker),
    );
    drop(producer.ready.expect("producer is independent"));
    for c in 0..16u64 {
        let r = d.submit(
            1,
            1 + c,
            &[Param::input(0x100, 4)],
            Arc::clone(&payload_tracker),
        );
        assert!(r.ready.is_none(), "consumers park behind the producer");
        drop(r.ticket);
    }
    // The producer never finishes: every consumer payload stays
    // parked. Dropping the dispatcher must free them all.
    drop(producer.ticket);
    drop(d);
    assert_eq!(
        Arc::strong_count(&payload_tracker),
        1,
        "parked payloads leaked at dispatcher shutdown"
    );
}

/// The drain-ownership protocol the dispatcher builds on the list: a
/// poster that loses the claim race may return immediately, because the
/// owner re-checks after releasing — no wake is ever stranded.
#[test]
fn claim_protocol_never_strands_a_wake() {
    const ROUNDS: u64 = 2000;
    let list = Arc::new(PushList::new());
    let owner = Arc::new(AtomicBool::new(false));
    let delivered = Arc::new(Mutex::new(BTreeSet::new()));
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            let list = Arc::clone(&list);
            let owner = Arc::clone(&owner);
            let delivered = Arc::clone(&delivered);
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    list.push(t * ROUNDS + i);
                    // The dispatcher's deliver step: claim by CAS, drain,
                    // release, re-check; losers skip.
                    loop {
                        if list.is_empty() {
                            break;
                        }
                        if owner.swap(true, Ordering::SeqCst) {
                            break;
                        }
                        let got: Vec<u64> = list.drain().collect();
                        delivered.lock().extend(got);
                        owner.store(false, Ordering::SeqCst);
                    }
                }
            })
        })
        .collect();
    for h in threads {
        h.join().unwrap();
    }
    // One last sweep mirrors the final finisher's re-check.
    delivered.lock().extend(list.drain());
    assert_eq!(
        delivered.lock().len() as u64,
        4 * ROUNDS,
        "the claim/release/re-check protocol lost wakes"
    );
}
