//! Capacity-differential testing: a *bounded* sharded engine —
//! `ShardedEngine::with_capacity(N, C)`, whose submissions stall and
//! retry on full shards — must execute exactly the same task set, under
//! exactly the same readiness constraints, as the unbounded sharded
//! engine, the single [`DependencyEngine`], and the explicit-DAG oracle.
//! A second arm holds the bounded *dispatcher* to the oracle the same
//! way, through the service's call: `try_submit` → `CapacityFull` →
//! finish a ready task → retry.
//!
//! Strategy: random task streams over small address sets (heavy
//! RAW/WAW/WAR collision), submitted in program order to all four
//! resolvers. The bounded engine is the pacing one: when an admission is
//! rejected because a shard is at capacity, a commonly-ready task is
//! finished in *all four* resolvers and the admission retried — the
//! stall-then-resume interleaving the finite hardware tables force.
//! Because the retry loop never leaves a task half-ingested (admission is
//! atomic across shards), every task is eventually resident in all four,
//! so at each stable point the four ready sets must agree exactly, and at
//! the end every task must have finished exactly once with no leaked
//! residency slots.
//!
//! Swept: shard count N ∈ {1, 2, 4} × capacity C ∈ {1, 2, 8, ∞}. At
//! C = 1 almost every submission stalls (the deepest interleaving); at
//! C = ∞ the bounded resolvers degenerate to unbounded ones and the
//! harness doubles as a no-regression check.

use nexuspp_core::oracle::OracleResolver;
use nexuspp_core::testsupport::with_watchdog;
use nexuspp_core::{
    DependencyEngine, NexusConfig, ShardCapacity, Submission, SubmitError, TdIndex,
};
use nexuspp_desim::Rng;
use nexuspp_shard::{ShardDispatcher, ShardedEngine, TaskId, TaskTicket};
use nexuspp_trace::normalize::normalize_params;
use nexuspp_trace::{AccessMode, Param};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

#[derive(Debug, Clone)]
struct GenTask {
    params: Vec<Param>,
}

fn mode_strategy() -> impl Strategy<Value = AccessMode> {
    prop_oneof![
        Just(AccessMode::In),
        Just(AccessMode::Out),
        Just(AccessMode::InOut),
    ]
}

fn task_strategy(addr_space: u64, max_params: usize) -> impl Strategy<Value = GenTask> {
    prop::collection::vec((0..addr_space, mode_strategy()), 1..=max_params).prop_map(|ps| {
        let params: Vec<Param> = ps
            .into_iter()
            .map(|(a, m)| Param::new(0x2000 + a * 64, 16, m))
            .collect();
        GenTask {
            params: normalize_params(&params),
        }
    })
}

/// The four resolvers plus the bookkeeping to drive them in step.
struct Quad {
    bounded: ShardedEngine,
    unbounded: ShardedEngine,
    single: DependencyEngine,
    oracle: OracleResolver,
    bid_of_tag: HashMap<u64, TaskId>,
    uid_of_tag: HashMap<u64, TaskId>,
    td_of_tag: HashMap<u64, TdIndex>,
    bounded_ready: BTreeSet<u64>,
    unbounded_ready: BTreeSet<u64>,
    single_ready: BTreeSet<u64>,
    /// Exactly-once ledger: every tag finishes once, none twice.
    finished: BTreeSet<u64>,
}

impl Quad {
    fn new(cfg: &NexusConfig, n_shards: usize, capacity: ShardCapacity) -> Self {
        Quad {
            bounded: ShardedEngine::with_capacity(n_shards, cfg, capacity),
            unbounded: ShardedEngine::new(n_shards, cfg),
            single: DependencyEngine::new(cfg),
            oracle: OracleResolver::new(),
            bid_of_tag: HashMap::new(),
            uid_of_tag: HashMap::new(),
            td_of_tag: HashMap::new(),
            bounded_ready: BTreeSet::new(),
            unbounded_ready: BTreeSet::new(),
            single_ready: BTreeSet::new(),
            finished: BTreeSet::new(),
        }
    }

    fn oracle_ready(&self) -> BTreeSet<u64> {
        self.oracle
            .ready_set()
            .into_iter()
            .map(|i| i as u64)
            .collect()
    }

    /// Finish one commonly-ready task (seeded random pick) in all four
    /// resolvers, recording it in the exactly-once ledger.
    fn finish_one(&mut self, rng: &mut Rng) {
        let oracle_ready = self.oracle_ready();
        let candidates: Vec<u64> = self
            .bounded_ready
            .iter()
            .copied()
            .filter(|t| {
                self.unbounded_ready.contains(t)
                    && self.single_ready.contains(t)
                    && oracle_ready.contains(t)
            })
            .collect();
        assert!(
            !candidates.is_empty(),
            "no commonly-ready task: the bounded engine is deadlocked or diverged"
        );
        let pick = candidates[rng.gen_range(candidates.len() as u64) as usize];
        self.bounded_ready.remove(&pick);
        self.unbounded_ready.remove(&pick);
        self.single_ready.remove(&pick);
        assert!(
            self.finished.insert(pick),
            "task {pick} finished twice (exactly-once violated)"
        );

        let bid = self.bid_of_tag.remove(&pick).unwrap();
        let fin = self.bounded.finish(bid);
        assert_eq!(fin.tag, pick);
        for t in fin.newly_ready {
            self.bounded_ready.insert(self.bounded.tag_of(t));
        }
        let uid = self.uid_of_tag.remove(&pick).unwrap();
        let fin = self.unbounded.finish(uid);
        assert_eq!(fin.tag, pick);
        for t in fin.newly_ready {
            self.unbounded_ready.insert(self.unbounded.tag_of(t));
        }
        let td = self.td_of_tag.remove(&pick).unwrap();
        let fin = self.single.finish(td);
        assert_eq!(fin.tag, pick);
        for t in fin.newly_ready {
            self.single_ready.insert(self.single.tag_of(t));
        }
        self.oracle.finish(pick as usize);
    }

    /// Stable-point invariant: all four resolvers agree on the ready set.
    fn assert_ready_sets_match(&self, context: &str) {
        let oracle_ready = self.oracle_ready();
        assert_eq!(
            self.bounded_ready, oracle_ready,
            "bounded ready set diverges {context}"
        );
        assert_eq!(
            self.unbounded_ready, oracle_ready,
            "unbounded ready set diverges {context}"
        );
        assert_eq!(
            self.single_ready, oracle_ready,
            "single-engine ready set diverges {context}"
        );
    }
}

/// Drive all four resolvers through the workload, resolving the bounded
/// engine's capacity stalls by finishing commonly-ready tasks everywhere.
fn run_capacity_differential(
    tasks: &[GenTask],
    n_shards: usize,
    capacity: ShardCapacity,
    seed: u64,
) {
    let cfg = NexusConfig::unbounded();
    let mut quad = Quad::new(&cfg, n_shards, capacity);
    let mut rng = Rng::new(seed);
    let mut stall_resumes = 0u64;

    for (tag, task) in tasks.iter().enumerate() {
        let tag = tag as u64;
        let sub = Submission::from((0xF, tag, task.params.clone()));
        // The reference resolvers ingest unconditionally.
        let (uid, u_ready, _) = quad.unbounded.submit(&sub).unwrap();
        quad.uid_of_tag.insert(tag, uid);
        if u_ready {
            quad.unbounded_ready.insert(tag);
        }
        let (td, s_ready) = quad.single.submit(0xF, tag, task.params.clone()).unwrap();
        quad.td_of_tag.insert(tag, td);
        if s_ready {
            quad.single_ready.insert(tag);
        }
        let (oid, _) = quad.oracle.submit(&task.params);
        assert_eq!(oid as u64, tag);
        // The bounded engine stalls and retries: every rejection is
        // retryable, names a full shard, and resolves after completions.
        let (bid, b_ready) = loop {
            match quad.bounded.submit(&sub) {
                Ok((id, ready, _)) => break (id, ready),
                Err(SubmitError::CapacityFull { shard, limit }) => {
                    assert_eq!(Some(limit), capacity.limit());
                    assert_eq!(
                        quad.bounded.resident_on(shard as usize),
                        limit,
                        "rejection from a shard that is not actually full"
                    );
                    stall_resumes += 1;
                    quad.finish_one(&mut rng);
                }
                Err(e) => panic!("only capacity rejections are expected: {e}"),
            }
        };
        quad.bid_of_tag.insert(tag, bid);
        if b_ready {
            quad.bounded_ready.insert(tag);
        }
        // Stable point: every resolver has fully ingested the task.
        quad.assert_ready_sets_match(&format!(
            "after submitting task {tag} (N={n_shards}, C={capacity})"
        ));
    }

    // Drain everything; each completion is a stable point.
    while !quad.bounded_ready.is_empty() {
        quad.finish_one(&mut rng);
        quad.assert_ready_sets_match(&format!("during drain (N={n_shards}, C={capacity})"));
    }

    // Exactly-once, fully drained, no leaked residency.
    assert_eq!(quad.finished.len() as u64, tasks.len() as u64);
    assert!(quad.oracle.all_done(), "oracle has unfinished tasks");
    assert_eq!(quad.bounded.in_flight(), 0);
    assert_eq!(quad.unbounded.in_flight(), 0);
    assert_eq!(quad.single.in_flight(), 0);
    for s in 0..n_shards {
        assert_eq!(
            quad.bounded.resident_on(s),
            0,
            "shard {s} leaked residency slots"
        );
        assert_eq!(quad.bounded.shard(s).pool().in_use(), 0);
        assert_eq!(quad.bounded.shard(s).table().occupied(), 0);
    }
    if capacity == ShardCapacity::Bounded(1) && tasks.len() > n_shards {
        // The tight bound must actually exercise the stall path on any
        // stream long enough to overlap itself.
        let conflict_free = tasks.len() <= 1;
        assert!(
            stall_resumes > 0 || conflict_free,
            "C=1 over {} tasks never stalled — the bound is not enforced",
            tasks.len()
        );
    }
}

/// The dispatcher arm: a bounded [`ShardDispatcher`] driven in lockstep
/// against the oracle through `try_submit`. A `CapacityFull` must name a
/// shard that really is full; the driver then finishes a commonly-ready
/// task and retries. Ready sets match at every stable point, and at the
/// end nothing is resident and no stall episode was opened (`try_submit`
/// never parks).
fn run_dispatcher_arm(tasks: &[GenTask], n_shards: usize, capacity: ShardCapacity, seed: u64) {
    let d = ShardDispatcher::<u64>::with_capacity(n_shards, &NexusConfig::unbounded(), capacity);
    let mut oracle = OracleResolver::new();
    let mut rng = Rng::new(seed);
    // tag → ticket; the key set is the dispatcher's ready set.
    let mut ready: BTreeMap<u64, TaskTicket<u64>> = BTreeMap::new();
    let mut stall_resumes = 0u64;

    let oracle_ready = |oracle: &OracleResolver| -> BTreeSet<u64> {
        oracle.ready_set().into_iter().map(|i| i as u64).collect()
    };
    let mut finish_one = |ready: &mut BTreeMap<u64, TaskTicket<u64>>,
                          oracle: &mut OracleResolver| {
        let common = oracle_ready(oracle);
        let candidates: Vec<u64> = ready
            .keys()
            .copied()
            .filter(|t| common.contains(t))
            .collect();
        assert!(
            !candidates.is_empty(),
            "no commonly-ready task: the bounded dispatcher is deadlocked or diverged"
        );
        let pick = candidates[rng.gen_range(candidates.len() as u64) as usize];
        let ticket = ready.remove(&pick).expect("picked from the ready set");
        for (t, payload) in d.finish(ticket).woken {
            assert_eq!(t.tag(), payload, "payload must travel with its task");
            ready.insert(payload, t);
        }
        oracle.finish(pick as usize);
    };

    for (tag, task) in tasks.iter().enumerate() {
        let tag = tag as u64;
        let mut payload = tag;
        let r = loop {
            match d.try_submit(0xF, tag, &task.params, payload) {
                Ok(r) => break r,
                Err((SubmitError::CapacityFull { shard, limit }, p)) => {
                    assert_eq!(Some(limit), capacity.limit());
                    assert_eq!(
                        d.capacity_counts()[shard as usize].resident,
                        limit,
                        "rejection from a shard that is not actually full"
                    );
                    payload = p;
                    stall_resumes += 1;
                    finish_one(&mut ready, &mut oracle);
                }
                Err((e, _)) => panic!("only capacity rejections are expected: {e}"),
            }
        };
        if let Some(p) = r.ready {
            ready.insert(p, r.ticket);
        }
        let (oid, _) = oracle.submit(&task.params);
        assert_eq!(oid as u64, tag);
        assert_eq!(
            ready.keys().copied().collect::<BTreeSet<u64>>(),
            oracle_ready(&oracle),
            "dispatcher diverges after submitting task {tag} (N={n_shards}, C={capacity})"
        );
    }
    while !ready.is_empty() {
        finish_one(&mut ready, &mut oracle);
        assert_eq!(
            ready.keys().copied().collect::<BTreeSet<u64>>(),
            oracle_ready(&oracle),
            "dispatcher diverges during drain (N={n_shards}, C={capacity})"
        );
    }
    assert!(oracle.all_done(), "oracle has unfinished tasks");
    assert_eq!(d.sub_descriptors_in_flight(), 0);
    for (s, c) in d.capacity_counts().iter().enumerate() {
        assert_eq!(c.resident, 0, "shard {s} leaked residency slots");
        assert_eq!(c.stalls_observed, 0, "try_submit opened a stall episode");
    }
    if capacity == ShardCapacity::Bounded(1) && tasks.len() > n_shards {
        assert!(stall_resumes > 0, "C=1 never stalled the dispatcher");
    }
}

/// Both bounded resolvers over one (N, C) point.
fn run_both_arms(tasks: &[GenTask], n_shards: usize, capacity: ShardCapacity, seed: u64) {
    run_capacity_differential(tasks, n_shards, capacity, seed);
    run_dispatcher_arm(tasks, n_shards, capacity, seed);
}

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const CAPACITIES: [ShardCapacity; 4] = [
    ShardCapacity::Bounded(1),
    ShardCapacity::Bounded(2),
    ShardCapacity::Bounded(8),
    ShardCapacity::Unbounded,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random DAGs over a colliding address set: the full N × C sweep.
    #[test]
    fn bounded_matches_unbounded_single_and_oracle(
        tasks in prop::collection::vec(task_strategy(8, 4), 1..40),
        seed in any::<u64>(),
    ) {
        for n in SHARD_COUNTS {
            for c in CAPACITIES {
                run_both_arms(&tasks, n, c, seed);
            }
        }
    }

    /// Wide random address sets: low collision, so stalls come from
    /// capacity pressure alone (every task independent and resident).
    #[test]
    fn bounded_matches_on_wide_address_sets(
        tasks in prop::collection::vec(task_strategy(3000, 3), 1..40),
        seed in any::<u64>(),
    ) {
        for n in SHARD_COUNTS {
            for c in [ShardCapacity::Bounded(1), ShardCapacity::Bounded(2)] {
                run_both_arms(&tasks, n, c, seed);
            }
        }
    }
}

/// A long deterministic soak: heavier than the proptest cases, same
/// invariants, every (N, C) combination.
#[test]
fn soak_capacity_sweep_deterministic() {
    let mut rng = Rng::new(0xCAFA_57A1);
    let mut tasks = Vec::new();
    for _ in 0..600 {
        let n = 1 + rng.gen_range(4) as usize;
        let params: Vec<Param> = (0..n)
            .map(|_| {
                let addr = 0x2000 + rng.gen_range(10) * 64;
                let mode = match rng.gen_range(3) {
                    0 => AccessMode::In,
                    1 => AccessMode::Out,
                    _ => AccessMode::InOut,
                };
                Param::new(addr, 16, mode)
            })
            .collect();
        tasks.push(GenTask {
            params: normalize_params(&params),
        });
    }
    for n in SHARD_COUNTS {
        for c in CAPACITIES {
            run_both_arms(&tasks, n, c, 77);
        }
    }
}

/// The bounded *dispatcher*: four worker threads retire tasks while a
/// submitter thread spawns a dependency-rich random stream in program
/// order, parking on full shards (capacity 1 and 2 put the stall/retry
/// handshake on the hot path). The dispatcher must execute every task
/// exactly once, leak nothing and resolve every stall episode —
/// the threaded face of the single-threaded lockstep differential in
/// `sharded_differential.rs`.
#[test]
fn bounded_dispatcher_executes_exactly_once_under_stalls() {
    with_watchdog(120, "bounded dispatcher under stalls", || {
        use nexuspp_shard::{ShardDispatcher, TaskTicket};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::{Arc, Mutex};

        /// Shared ready queue: tickets with their tag payloads.
        type ReadyQueue = Arc<Mutex<Vec<(TaskTicket<u64>, u64)>>>;

        const TASKS: u64 = 400;
        const WORKERS: usize = 4;
        let mut rng = Rng::new(0x3A4E_5EED);
        let stream: Vec<Vec<Param>> = (0..TASKS)
            .map(|_| {
                let n = 1 + rng.gen_range(3) as usize;
                let params: Vec<Param> = (0..n)
                    .map(|_| {
                        let addr = 0x3000 + rng.gen_range(10) * 64;
                        let mode = match rng.gen_range(3) {
                            0 => AccessMode::In,
                            1 => AccessMode::Out,
                            _ => AccessMode::InOut,
                        };
                        Param::new(addr, 16, mode)
                    })
                    .collect();
                normalize_params(&params)
            })
            .collect();

        for (shards, capacity) in [
            (1usize, ShardCapacity::Bounded(2)),
            (4, ShardCapacity::Bounded(1)),
            (4, ShardCapacity::Bounded(8)),
        ] {
            let d = Arc::new(ShardDispatcher::<u64>::with_capacity(
                shards,
                &NexusConfig::unbounded(),
                capacity,
            ));
            let ready: ReadyQueue = Arc::new(Mutex::new(Vec::new()));
            let completed = Arc::new(AtomicU64::new(0));
            let executed: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
            let workers: Vec<_> = (0..WORKERS)
                .map(|_| {
                    let d = Arc::clone(&d);
                    let ready = Arc::clone(&ready);
                    let completed = Arc::clone(&completed);
                    let executed = Arc::clone(&executed);
                    std::thread::spawn(move || {
                        while completed.load(Ordering::SeqCst) < TASKS {
                            let next = ready.lock().unwrap().pop();
                            let Some((ticket, tag)) = next else {
                                std::thread::yield_now();
                                continue;
                            };
                            executed.lock().unwrap().push(tag);
                            let report = d.finish(ticket);
                            completed.fetch_add(report.completed, Ordering::SeqCst);
                            if !report.woken.is_empty() {
                                ready.lock().unwrap().extend(report.woken);
                            }
                        }
                    })
                })
                .collect();
            // Program-order submitter: parks on full shards; workers'
            // finish reports resume it.
            for (tag, params) in stream.iter().enumerate() {
                let r = d.submit(0xF, tag as u64, params, tag as u64);
                if let Some(p) = r.ready {
                    ready.lock().unwrap().push((r.ticket, p));
                }
            }
            for w in workers {
                w.join().unwrap();
            }
            let mut done = executed.lock().unwrap().clone();
            done.sort_unstable();
            assert_eq!(
                done,
                (0..TASKS).collect::<Vec<u64>>(),
                "N={shards} C={capacity}: tasks lost or duplicated"
            );
            assert_eq!(d.sub_descriptors_in_flight(), 0);
            for (s, c) in d.capacity_counts().iter().enumerate() {
                assert_eq!(
                    c.stalls_observed, c.retries_resolved,
                    "N={shards} C={capacity} shard {s}: unresolved stall episodes"
                );
                assert_eq!(c.resident, 0, "shard {s} leaked residency slots");
            }
        }
    });
}
