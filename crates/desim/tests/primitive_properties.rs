//! Property tests of the simulation primitives: scheduler ordering laws,
//! FIFO conservation, arbiter fairness and equivalence to a plain scan,
//! and slot-pool conservation under arbitrary operation sequences.

use nexuspp_desim::{Fifo, RoundRobinArbiter, Scheduler, SimTime, SlotGrant, SlotPool};
use proptest::prelude::*;

/// Line counts the arbiter is checked at: one line, either side of a
/// 64-bit word boundary, and the paper's largest core count.
const ARBITER_LINES: [usize; 5] = [1, 63, 64, 65, 256];

/// The round-robin scan written out over a flag per line: ask every line
/// in turn, starting after the last grantee.
fn reference_grant(flags: &[bool], last: &mut usize) -> Option<usize> {
    let n = flags.len();
    let i = (1..=n).map(|off| (*last + off) % n).find(|&i| flags[i])?;
    *last = i;
    Some(i)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Events pop in nondecreasing time order, with ties broken by
    /// insertion order, and nothing is lost or duplicated.
    #[test]
    fn scheduler_total_order(delays in prop::collection::vec(0u64..1000, 1..200)) {
        let mut s = Scheduler::new();
        for (i, &d) in delays.iter().enumerate() {
            s.schedule(SimTime::from_ns(d), i);
        }
        let mut popped = Vec::new();
        let mut last = SimTime::ZERO;
        let mut last_seq_at_time: Option<usize> = None;
        while let Some((t, id)) = s.pop() {
            prop_assert!(t >= last);
            if t == last {
                if let Some(prev) = last_seq_at_time {
                    // Same timestamp ⇒ insertion order (ids ascending,
                    // since all events were scheduled from time zero).
                    prop_assert!(id > prev, "tie-break violated: {prev} then {id}");
                }
            } else {
                last_seq_at_time = None;
            }
            if delays[id] == last.ps() / 1000 || t == last {
                last_seq_at_time = Some(id);
            }
            last = t;
            popped.push(id);
        }
        popped.sort_unstable();
        prop_assert_eq!(popped, (0..delays.len()).collect::<Vec<_>>());
    }

    /// The total order holds at any time a `u64` of picoseconds can
    /// name: events scheduled at absolute times from the bottom, the top
    /// and the middle of the range pop sorted by time, then by insertion.
    #[test]
    fn scheduler_total_order_over_the_whole_time_range(
        times in prop::collection::vec(
            prop_oneof![0u64..1000, (u64::MAX - 1000)..=u64::MAX, any::<u64>()],
            1..200,
        ),
    ) {
        let mut s = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule_at(SimTime::from_ps(t), i);
        }
        prop_assert_eq!(s.peek_time(), times.iter().min().map(|&t| SimTime::from_ps(t)));
        let mut expected: Vec<usize> = (0..times.len()).collect();
        expected.sort_by_key(|&i| (times[i], i));
        let mut popped = Vec::new();
        while let Some((t, id)) = s.pop() {
            prop_assert_eq!(t.ps(), times[id]);
            prop_assert_eq!(s.now(), t);
            popped.push(id);
        }
        prop_assert_eq!(popped, expected);
    }

    /// FIFO preserves order and never exceeds capacity; rejected items are
    /// returned intact.
    #[test]
    fn fifo_conservation(
        cap in 1usize..16,
        ops in prop::collection::vec(prop::bool::ANY, 1..200),
    ) {
        let mut f = Fifo::new("prop", cap);
        let mut model: std::collections::VecDeque<u32> = Default::default();
        let mut next = 0u32;
        for push in ops {
            if push {
                match f.push(next) {
                    Ok(()) => {
                        prop_assert!(model.len() < cap);
                        model.push_back(next);
                    }
                    Err(rejected) => {
                        prop_assert_eq!(rejected.0, next);
                        prop_assert_eq!(model.len(), cap);
                    }
                }
                next += 1;
            } else {
                prop_assert_eq!(f.pop(), model.pop_front());
            }
            prop_assert_eq!(f.len(), model.len());
            prop_assert!(f.len() <= cap);
        }
    }

    /// The arbiter grants every persistently raised line within one full
    /// rotation (no starvation) and never grants a lowered line.
    #[test]
    fn arbiter_no_starvation(
        n in 1usize..12,
        active_bits in prop::collection::vec(prop::bool::ANY, 1..12),
    ) {
        let flags: Vec<bool> = (0..n).map(|i| *active_bits.get(i).unwrap_or(&false)).collect();
        let mut arb = RoundRobinArbiter::new(n);
        for (i, _) in flags.iter().enumerate().filter(|(_, &f)| f) {
            arb.raise(i);
        }
        let active_count = flags.iter().filter(|&&b| b).count();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            match arb.grant() {
                Some(i) => {
                    prop_assert!(flags[i], "granted lowered line {i}");
                    seen.insert(i);
                }
                None => prop_assert_eq!(active_count, 0),
            }
        }
        prop_assert_eq!(seen.len(), active_count, "every raised line within one rotation");
    }

    /// The bitset arbiter grants exactly the sequence the plain scan over
    /// a `Vec<bool>` grants, under any interleaving of raises, lowers and
    /// grants, at every line count either side of a word boundary.
    #[test]
    fn arbiter_matches_the_reference_scan(
        which in 0usize..ARBITER_LINES.len(),
        ops in prop::collection::vec((0u8..4, any::<u32>()), 1..400),
    ) {
        let n = ARBITER_LINES[which];
        let mut arb = RoundRobinArbiter::new(n);
        let mut flags = vec![false; n];
        let mut last = n - 1;
        let mut grants = 0u64;
        for (op, line) in ops {
            let i = line as usize % n;
            match op {
                0 | 1 => {
                    arb.raise(i);
                    flags[i] = true;
                }
                2 => {
                    arb.lower(i);
                    flags[i] = false;
                }
                _ => {
                    let expected = reference_grant(&flags, &mut last);
                    grants += u64::from(expected.is_some());
                    prop_assert_eq!(arb.grant(), expected);
                }
            }
        }
        prop_assert_eq!(arb.grants(), grants);
    }

    /// Slot pool: grants + queue handoffs conserve slots; waiters release
    /// in FIFO order.
    #[test]
    fn slot_pool_conservation(
        slots in 1usize..8,
        ops in prop::collection::vec(prop::bool::ANY, 1..200),
    ) {
        let mut p = SlotPool::new("prop", slots);
        let mut held = 0usize; // grants outstanding (incl. handoffs)
        let mut queued: std::collections::VecDeque<u64> = Default::default();
        let mut next = 0u64;
        for acquire in ops {
            if acquire {
                match p.acquire(next) {
                    SlotGrant::Granted => {
                        prop_assert!(held < slots);
                        held += 1;
                    }
                    SlotGrant::Queued => {
                        prop_assert_eq!(held, slots);
                        queued.push_back(next);
                    }
                }
                next += 1;
            } else if held > 0 {
                match p.release() {
                    Some(w) => {
                        prop_assert_eq!(Some(w), queued.pop_front());
                        // Slot handed over: held count unchanged.
                    }
                    None => {
                        prop_assert!(queued.is_empty());
                        held -= 1;
                    }
                }
            }
            prop_assert_eq!(p.in_use(), held);
            prop_assert_eq!(p.waiting(), queued.len());
        }
    }
}
