//! Three-way differential testing: for every shard count N ∈ {1, 2, 4, 8},
//! the sharded engine must impose exactly the same execution constraints
//! as the single [`DependencyEngine`] and as the explicit-DAG oracle.
//!
//! Strategy: random task streams over a small address space (heavy
//! RAW/WAW/WAR collision), submitted to all three resolvers; completions
//! picked randomly (seeded) among the commonly-ready tasks; the three
//! ready sets compared order-insensitively at every stable point (after
//! each task is fully submitted everywhere, and after every completion in
//! the drain phase). The single engine runs once with a roomy growable
//! configuration (pure protocol) and once with deliberately tiny fixed
//! capacities so pool-full rejections and dependence-table-full
//! stall/resume paths are on its hot path; a stall is resolved by
//! finishing ready tasks in *all three* resolvers, like the real
//! machines. The sharded engine always runs growable — the sharded
//! drivers have no fixed-table path; their finite-hardware bound is
//! residency, which `capacity_differential.rs` sweeps.
//!
//! Mid-submission (while the single engine's check is stalled and
//! completions are being used to free space) the sets may transiently
//! differ by the in-flight task — the sharded engine may already consider
//! it ready while the oracle has not seen it — which is why comparisons
//! happen at stable points and completions are drawn from the
//! intersection.

use nexuspp_core::engine::CheckProgress;
use nexuspp_core::oracle::OracleResolver;
use nexuspp_core::pool::PoolError;
use nexuspp_core::{DependencyEngine, NexusConfig, Submission, TdIndex};
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
            .map(|(a, m)| Param::new(0x1000 + a * 64, 16, m))
            .collect();
        GenTask {
            params: normalize_params(&params),
        }
    })
}

/// All three resolvers plus the bookkeeping to drive them in step.
struct Trio {
    single: DependencyEngine,
    sharded: ShardedEngine,
    oracle: OracleResolver,
    td_of_tag: HashMap<u64, TdIndex>,
    id_of_tag: HashMap<u64, TaskId>,
    single_ready: BTreeSet<u64>,
    sharded_ready: BTreeSet<u64>,
}

impl Trio {
    fn new(cfg: &NexusConfig, n_shards: usize) -> Self {
        Trio {
            single: DependencyEngine::new(cfg),
            sharded: ShardedEngine::new(n_shards, &NexusConfig::unbounded()),
            oracle: OracleResolver::new(),
            td_of_tag: HashMap::new(),
            id_of_tag: HashMap::new(),
            single_ready: BTreeSet::new(),
            sharded_ready: BTreeSet::new(),
        }
    }

    fn oracle_ready(&self) -> BTreeSet<u64> {
        self.oracle
            .ready_set()
            .into_iter()
            .map(|i| i as u64)
            .collect()
    }

    /// Finish one commonly-ready task (seeded random pick) in all three
    /// resolvers, applying each resolver's wake-ups to its own ready set.
    fn finish_one(&mut self, rng: &mut Rng) {
        let oracle_ready = self.oracle_ready();
        let candidates: Vec<u64> = self
            .single_ready
            .iter()
            .copied()
            .filter(|t| self.sharded_ready.contains(t) && oracle_ready.contains(t))
            .collect();
        assert!(!candidates.is_empty(), "no commonly-ready task (deadlock)");
        let pick = candidates[rng.gen_range(candidates.len() as u64) as usize];
        self.single_ready.remove(&pick);
        self.sharded_ready.remove(&pick);
        let td = self.td_of_tag.remove(&pick).unwrap();
        let id = self.id_of_tag.remove(&pick).unwrap();

        let single_fin = self.single.finish(td);
        assert_eq!(single_fin.tag, pick);
        for t in single_fin.newly_ready {
            self.single_ready.insert(self.single.tag_of(t));
        }
        let sharded_fin = self.sharded.finish(id);
        assert_eq!(sharded_fin.tag, pick);
        for t in sharded_fin.newly_ready {
            self.sharded_ready.insert(self.sharded.tag_of(t));
        }
        self.oracle.finish(pick as usize);
    }

    /// Stable-point invariant: all three resolvers agree on the ready set.
    fn assert_ready_sets_match(&self, context: &str) {
        let oracle_ready = self.oracle_ready();
        assert_eq!(
            self.single_ready, oracle_ready,
            "single-engine ready set diverges {context}"
        );
        assert_eq!(
            self.sharded_ready, oracle_ready,
            "sharded ready set diverges {context}"
        );
    }
}

/// Drive all three resolvers through the workload, resolving capacity
/// stalls in any of them by finishing ready tasks in all of them.
fn run_differential(tasks: &[GenTask], cfg: &NexusConfig, n_shards: usize, seed: u64) {
    let mut trio = Trio::new(cfg, n_shards);
    let mut rng = Rng::new(seed);

    for (tag, task) in tasks.iter().enumerate() {
        let tag = tag as u64;
        // Admit into the single engine (retry on pool-full).
        let td = loop {
            match trio.single.admit(0xF, tag, task.params.clone()) {
                Ok((td, _)) => break td,
                Err(PoolError::PoolFull { .. }) => trio.finish_one(&mut rng),
                Err(e @ PoolError::TaskTooLarge { .. }) => {
                    panic!("generator produced an unexecutable task: {e:?}")
                }
            }
        };
        trio.td_of_tag.insert(tag, td);
        // The sharded engine admits and checks in one call.
        let sub = Submission::from((0xF, tag, task.params.clone()));
        let (id, ready, _) = trio
            .sharded
            .submit(&sub)
            .expect("growable engine admits all");
        trio.id_of_tag.insert(tag, id);
        if ready {
            trio.sharded_ready.insert(tag);
        }
        // Check the single engine, resuming across table-full stalls.
        // Wake-ups that land on the in-flight task during the stall
        // interleave are absorbed by each resolver's own ready set.
        loop {
            match trio.single.check(td) {
                CheckProgress::Done { ready, .. } => {
                    if ready {
                        trio.single_ready.insert(tag);
                    }
                    break;
                }
                CheckProgress::Stalled { .. } => trio.finish_one(&mut rng),
            }
        }
        let (oid, _) = trio.oracle.submit(&task.params);
        assert_eq!(oid as u64, tag);
        // Stable point: every resolver has fully ingested the task.
        trio.assert_ready_sets_match(&format!("after submitting task {tag}"));
        trio.single.table().check_invariants();
        for s in 0..trio.sharded.n_shards() {
            trio.sharded.shard(s).table().check_invariants();
        }
    }

    // Drain everything; each completion is a stable point.
    while !trio.single_ready.is_empty() {
        trio.finish_one(&mut rng);
        trio.assert_ready_sets_match("during drain");
    }
    assert!(trio.oracle.all_done(), "oracle has unfinished tasks");
    assert_eq!(trio.single.in_flight(), 0);
    assert_eq!(trio.sharded.in_flight(), 0);
    assert_eq!(trio.single.table().occupied(), 0, "single engine leaked");
    for s in 0..trio.sharded.n_shards() {
        assert_eq!(
            trio.sharded.shard(s).table().occupied(),
            0,
            "shard {s} leaked dependence entries"
        );
        assert_eq!(
            trio.sharded.shard(s).pool().in_use(),
            0,
            "shard {s} leaked descriptors"
        );
    }
}

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The concurrent dispatcher driven in lockstep against the oracle: its
/// finish reports must produce the oracle's ready set at every stable
/// point (every wake a finish produces surfaces in that call's report).
fn run_dispatcher_differential(tasks: &[GenTask], n_shards: usize, seed: u64) {
    let d = ShardDispatcher::<u64>::new(n_shards, &NexusConfig::unbounded());
    let mut oracle = OracleResolver::new();
    let mut rng = Rng::new(seed);
    // tag → ticket; the key set is the dispatcher's ready set.
    let mut ready: BTreeMap<u64, TaskTicket<u64>> = BTreeMap::new();

    let assert_match =
        |ready: &BTreeMap<u64, TaskTicket<u64>>, oracle: &OracleResolver, context: &str| {
            let oracle_ready: BTreeSet<u64> =
                oracle.ready_set().into_iter().map(|i| i as u64).collect();
            let got: BTreeSet<u64> = ready.keys().copied().collect();
            assert_eq!(got, oracle_ready, "dispatcher diverges {context}");
        };

    for (tag, task) in tasks.iter().enumerate() {
        let tag = tag as u64;
        let r = d.submit(0xF, tag, &task.params, tag);
        if let Some(p) = r.ready {
            assert_eq!(p, tag);
            ready.insert(tag, r.ticket);
        }
        // Parked tickets resurface through some report's woken list.
        let (oid, _) = oracle.submit(&task.params);
        assert_eq!(oid as u64, tag);
        assert_match(&ready, &oracle, &format!("after submitting task {tag}"));
    }
    let mut delivered = 0u64;
    while !ready.is_empty() {
        let candidates: Vec<u64> = ready.keys().copied().collect();
        let pick = candidates[rng.gen_range(candidates.len() as u64) as usize];
        let ticket = ready.remove(&pick).expect("picked from the ready set");
        for (t, payload) in d.finish(ticket).woken {
            assert_eq!(t.tag(), payload, "payload must travel with its task");
            ready.insert(payload, t);
            delivered += 1;
        }
        oracle.finish(pick as usize);
        assert_match(&ready, &oracle, "during drain");
    }
    assert!(oracle.all_done(), "oracle has unfinished tasks");
    assert_eq!(d.sub_descriptors_in_flight(), 0);
    assert_eq!(
        d.wake_counts().delivered,
        delivered,
        "the delivery counter must equal the wakes the reports carried"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Roomy growable configuration: pure protocol semantics at every
    /// shard count.
    #[test]
    fn sharded_matches_single_and_oracle_unbounded(
        tasks in prop::collection::vec(task_strategy(10, 5), 1..50),
        seed in any::<u64>(),
    ) {
        for n in SHARD_COUNTS {
            run_differential(&tasks, &NexusConfig::unbounded(), n, seed);
        }
    }

    /// Tiny fixed configuration: dummy tasks, kick-off extensions,
    /// pool-full and table-full stall/resume on the single engine's hot
    /// path, against the growable sharded engine.
    #[test]
    fn sharded_matches_single_and_oracle_tiny_fixed(
        tasks in prop::collection::vec(task_strategy(8, 4), 1..40),
        seed in any::<u64>(),
    ) {
        let cfg = NexusConfig {
            task_pool_entries: 8,
            params_per_td: 3,
            dep_table_entries: 24,
            kickoff_entries: 2,
            growable: false,
        };
        for n in SHARD_COUNTS {
            run_differential(&tasks, &cfg, n, seed);
        }
    }

    /// The concurrent dispatcher's finish reports agree with the
    /// oracle (and hence with the engines above) on every ready set.
    #[test]
    fn dispatcher_wake_modes_match_oracle(
        tasks in prop::collection::vec(task_strategy(10, 5), 1..40),
        seed in any::<u64>(),
    ) {
        for n in SHARD_COUNTS {
            run_dispatcher_differential(&tasks, n, seed);
        }
    }

    /// Wide address space: low collision, exercising the insert path and
    /// shard routing over scattered hashes.
    #[test]
    fn sharded_matches_single_and_oracle_wide(
        tasks in prop::collection::vec(task_strategy(2000, 4), 1..40),
        seed in any::<u64>(),
    ) {
        let cfg = NexusConfig {
            task_pool_entries: 64,
            params_per_td: 4,
            dep_table_entries: 128,
            kickoff_entries: 4,
            growable: false,
        };
        for n in SHARD_COUNTS {
            run_differential(&tasks, &cfg, n, seed);
        }
    }
}

/// A long deterministic soak through the tiny fixed configuration (the
/// single engine's) at every shard count: thousands of tasks, heavier
/// than the proptest cases.
#[test]
fn soak_tiny_config_deterministic() {
    let mut rng = Rng::new(0x5AAD_BEEF);
    let mut tasks = Vec::new();
    for _ in 0..1200 {
        let n = 1 + rng.gen_range(4) as usize;
        let params: Vec<Param> = (0..n)
            .map(|_| {
                let addr = 0x1000 + rng.gen_range(12) * 64;
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
    let cfg = NexusConfig {
        task_pool_entries: 10,
        params_per_td: 3,
        dep_table_entries: 24,
        kickoff_entries: 2,
        growable: false,
    };
    for n in SHARD_COUNTS {
        run_differential(&tasks, &cfg, n, 42);
    }
}
