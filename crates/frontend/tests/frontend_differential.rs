//! The frontend's differential bar: **frontend-lowered ≡
//! hand-addressed ≡ oracle**.
//!
//! Random resource-declaration programs are run three ways:
//!
//! 1. Lowered by the frontend ([`Lowering::Renamed`]) and driven
//!    through the [`ShardedEngine`] in lockstep with the explicit-DAG
//!    [`OracleResolver`] — the ready sets must agree at every greedy
//!    round (the engine sees exactly the true edges the program
//!    declared, nothing more).
//! 2. Re-encoded **by hand** in this file — an independent
//!    implementation of the versioning semantics that assigns its own
//!    addresses from a different base — and executed on the
//!    [`Runtime`] at {1, 4} workers under unbounded *and*
//!    bounded shard capacities. Both encodings must execute the same
//!    task sets, and every executed order must respect the true-edge
//!    set the hand encoding derives for itself.
//! 3. The frontend's inferred edge set is compared edge-for-edge
//!    against the hand encoding's last-writer model.
//!
//! A second property drops the restriction to well-formed programs:
//! pins to future and never-minted versions, cycles, duplicate and
//! `read_writes` accesses, and names registered only by a write. Its
//! reference resolves names and versions at submit, finds producers by
//! search, orders with Kahn's algorithm popping the smallest index, and
//! normalizes parameters through `TaskBuilder`. The frontend's
//! declaration errors, `graph()` order, consumers and errors, and both
//! lowerings' tasks and edges must equal it element for element.

use nexuspp_core::oracle::OracleResolver;
use nexuspp_core::{NexusConfig, Priority, ShardCapacity, Submission, TaskBuilder};
use nexuspp_frontend::{FrontendError, LoweredProgram, Lowering, Program, ResourceId, Version};
use nexuspp_runtime::Runtime;
use nexuspp_shard::{ShardedEngine, TaskId};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Run the lowered stream on the threaded [`Runtime`]: every task body
/// logs its tag, and the logged order (the order bodies actually ran)
/// comes back after the barrier.
fn run_on_runtime(
    lp: &LoweredProgram,
    workers: usize,
    shards: usize,
    capacity: ShardCapacity,
) -> Vec<u64> {
    let rt = Runtime::with_capacity(workers, shards, capacity);
    let log = Arc::new(Mutex::new(Vec::with_capacity(lp.tasks.len())));
    for sub in lp.tasks.iter().cloned() {
        let tag = sub.tag;
        let log = Arc::clone(&log);
        rt.spawn_lowered(sub, move || log.lock().unwrap().push(tag));
    }
    rt.barrier();
    let order = log.lock().unwrap().clone();
    assert_eq!(order.len(), lp.tasks.len(), "every spawned task ran");
    order
}

/// Run the lowered stream through a **bounded** [`ShardedEngine`]: when
/// a shard's residency is full the feeder retires a ready task to free
/// a slot, then retries — the software form of the paper's master-core
/// stall. A topologically ordered stream cannot wedge: the oldest
/// resident always has all its producers retired.
fn run_on_engine_bounded(
    lp: &LoweredProgram,
    n_shards: usize,
    capacity: ShardCapacity,
) -> Vec<u64> {
    fn retire_one(
        eng: &mut ShardedEngine,
        ready: &mut VecDeque<TaskId>,
        order: &mut Vec<u64>,
    ) -> bool {
        let Some(id) = ready.pop_front() else {
            return false;
        };
        let fin = eng.finish(id);
        order.push(fin.tag);
        ready.extend(fin.newly_ready);
        true
    }
    let mut eng = ShardedEngine::with_capacity(n_shards, &NexusConfig::unbounded(), capacity);
    let mut ready = VecDeque::new();
    let mut order = Vec::with_capacity(lp.tasks.len());
    for sub in &lp.tasks {
        loop {
            match eng.submit(sub) {
                Ok((id, is_ready, _)) => {
                    if is_ready {
                        ready.push_back(id);
                    }
                    break;
                }
                Err(e) if e.is_retryable() => assert!(
                    retire_one(&mut eng, &mut ready, &mut order),
                    "bounded feed wedged with no ready task"
                ),
                Err(e) => panic!("lowered submission rejected: {e}"),
            }
        }
    }
    while retire_one(&mut eng, &mut ready, &mut order) {}
    assert_eq!(order.len(), lp.tasks.len(), "every submitted task retired");
    order
}

/// One declared access, as raw generator output.
#[derive(Debug, Clone, Copy)]
enum Acc {
    Read(u8),
    Write(u8),
    ReadWrite(u8),
    /// Pin resource `.0` to an already-minted version selected by
    /// seed `.1` (mapped into `0..=latest` at build time).
    Pin(u8, u16),
}

fn acc_strategy(resources: u8) -> impl Strategy<Value = Acc> {
    let r = 0..resources;
    prop_oneof![
        r.clone().prop_map(Acc::Read),
        r.clone().prop_map(Acc::Write),
        r.clone().prop_map(Acc::ReadWrite),
        (r, any::<u16>()).prop_map(|(a, s)| Acc::Pin(a, s)),
    ]
}

fn program_strategy(resources: u8) -> impl Strategy<Value = Vec<Vec<Acc>>> {
    prop::collection::vec(
        prop::collection::vec(acc_strategy(resources), 1..=3),
        1..=24,
    )
}

/// Build the frontend program from the generated declarations.
fn build_program(resources: u8, decls: &[Vec<Acc>]) -> Program {
    let mut p = Program::new();
    let names: Vec<String> = (0..resources).map(|i| format!("r{i}")).collect();
    for n in &names {
        p.resource(n);
    }
    for (i, accs) in decls.iter().enumerate() {
        // Resolve pin targets against pre-declaration state.
        let pins: Vec<Option<u32>> = accs
            .iter()
            .map(|a| match a {
                Acc::Pin(r, s) => {
                    let latest = p.latest_version(&names[*r as usize]).unwrap();
                    Some(u32::from(*s) % (latest + 1))
                }
                _ => None,
            })
            .collect();
        let mut t = p.task(0x7000).tag(i as u64);
        for (a, pin) in accs.iter().zip(&pins) {
            t = match a {
                Acc::Read(r) => t.reads(&names[*r as usize]),
                Acc::Write(r) => t.writes(&names[*r as usize]),
                Acc::ReadWrite(r) => t.read_writes(&names[*r as usize]),
                Acc::Pin(r, _) => t.reads_version(&names[*r as usize], pin.unwrap()),
            };
        }
        t.submit().expect("all names pre-registered");
    }
    p
}

/// An independent hand encoding of the same semantics: its own version
/// bookkeeping, its own renamed address scheme (base 0x2000, disjoint
/// from the frontend's 1 << 40), and its own RAW edge derivation.
/// Declaration order is already topological because pins only reference
/// minted history.
struct HandEncoding {
    tasks: Vec<nexuspp_core::Submission>,
    /// (producer tag, consumer tag) true RAW edges.
    edges: BTreeSet<(u64, u64)>,
}

fn hand_encode(resources: u8, decls: &[Vec<Acc>]) -> HandEncoding {
    let addr = |r: u8, v: u32| 0x2000 + u64::from(r) * 0x10_0000 + u64::from(v) * 64;
    let mut latest = vec![0u32; resources as usize];
    let mut minted_by: HashMap<(u8, u32), u64> = HashMap::new();
    let mut tasks = Vec::new();
    let mut edges = BTreeSet::new();
    for (i, accs) in decls.iter().enumerate() {
        let tag = i as u64;
        let mut reads: Vec<(u8, u32)> = Vec::new();
        let mut writes: Vec<u8> = Vec::new();
        for a in accs {
            match a {
                Acc::Read(r) => reads.push((*r, latest[*r as usize])),
                Acc::Pin(r, s) => reads.push((*r, u32::from(*s) % (latest[*r as usize] + 1))),
                Acc::ReadWrite(r) => {
                    reads.push((*r, latest[*r as usize]));
                    if !writes.contains(r) {
                        writes.push(*r);
                    }
                }
                Acc::Write(r) => {
                    if !writes.contains(r) {
                        writes.push(*r);
                    }
                }
            }
        }
        let mut b = TaskBuilder::new(0x7000).tag(tag);
        for &(r, v) in &reads {
            b = b.reads(addr(r, v), 64);
            if v > 0 {
                let p = minted_by[&(r, v)];
                if p != tag {
                    edges.insert((p, tag));
                }
            }
        }
        for &r in &writes {
            latest[r as usize] += 1;
            minted_by.insert((r, latest[r as usize]), tag);
            b = b.writes(addr(r, latest[r as usize]), 64);
        }
        tasks.push(b.build());
    }
    HandEncoding { tasks, edges }
}

/// Drive the renamed lowering through the sharded engine and the oracle
/// in greedy-round lockstep; the ready sets must agree at every round.
fn assert_engine_matches_oracle(lp: &LoweredProgram) {
    let mut eng = ShardedEngine::new(4, &NexusConfig::unbounded());
    let mut oracle = OracleResolver::new();
    let mut eng_ready: BTreeSet<u64> = BTreeSet::new();
    let mut oracle_ready: BTreeSet<u64> = BTreeSet::new();
    let mut id_of_tag = HashMap::new();
    let mut oid_of_tag = HashMap::new();
    for sub in &lp.tasks {
        let tag = sub.tag;
        let (id, ready, _) = eng.submit(sub).expect("unbounded admits all");
        id_of_tag.insert(tag, id);
        if ready {
            eng_ready.insert(tag);
        }
        let (oid, oready) = oracle.submit(&sub.params);
        oid_of_tag.insert(tag, oid);
        if oready {
            oracle_ready.insert(tag);
        }
    }
    let tag_of_oid: HashMap<_, _> = oid_of_tag.iter().map(|(t, o)| (*o, *t)).collect();
    while !eng_ready.is_empty() || !oracle_ready.is_empty() {
        assert_eq!(eng_ready, oracle_ready, "ready sets diverged");
        let round: Vec<u64> = eng_ready.iter().copied().collect();
        eng_ready.clear();
        oracle_ready.clear();
        for tag in round {
            let fin = eng.finish(id_of_tag[&tag]);
            for woke in fin.newly_ready {
                eng_ready.insert(eng.tag_of(woke));
            }
            for o in oracle.finish(oid_of_tag[&tag]) {
                oracle_ready.insert(tag_of_oid[&o]);
            }
        }
    }
    assert!(oracle.all_done(), "oracle retired every task");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn frontend_equals_hand_encoding_equals_oracle(decls in program_strategy(4)) {
        let resources = 4u8;
        let prog = build_program(resources, &decls);
        let lp = prog.lower(Lowering::Renamed).expect("pins reference minted history");
        let hand = hand_encode(resources, &decls);

        // Edge sets agree: the frontend inferred exactly the last-writer
        // RAW edges the independent encoding derives.
        let frontend_edges: BTreeSet<(u64, u64)> = lp.edges.iter().copied().collect();
        prop_assert_eq!(&frontend_edges, &hand.edges);
        prop_assert_eq!(lp.edges.len(), hand.edges.len(), "each edge listed once");

        // Engine ≡ oracle on the lowered stream, round for round.
        assert_engine_matches_oracle(&lp);

        // Frontend-lowered ≡ hand-addressed on the threaded runtime at
        // {1, 4} workers, unbounded and bounded.
        let hand_lp = LoweredProgram {
            lowering: Lowering::Renamed,
            tasks: hand.tasks.clone(),
            edges: hand.edges.iter().copied().collect(),
        };
        let all_tags: BTreeSet<u64> = (0..decls.len() as u64).collect();
        for workers in [1usize, 4] {
            for capacity in [ShardCapacity::Unbounded, ShardCapacity::Bounded(2)] {
                let f_order = run_on_runtime(&lp, workers, 2, capacity);
                let h_order = run_on_runtime(&hand_lp, workers, 2, capacity);
                let f_set: BTreeSet<u64> = f_order.iter().copied().collect();
                let h_set: BTreeSet<u64> = h_order.iter().copied().collect();
                prop_assert_eq!(&f_set, &all_tags, "frontend ran every task");
                prop_assert_eq!(&h_set, &all_tags, "hand encoding ran every task");
                prop_assert!(hand_lp.order_respects_edges(&f_order),
                    "frontend order respects independently derived edges");
                prop_assert!(hand_lp.order_respects_edges(&h_order),
                    "hand order respects its own edges");
            }
        }

        // And the bounded batch-engine path retires everything too.
        let b_order = run_on_engine_bounded(&lp, 2, ShardCapacity::Bounded(2));
        prop_assert_eq!(&b_order.iter().copied().collect::<BTreeSet<u64>>(), &all_tags);
        prop_assert!(lp.order_respects_edges(&b_order));
    }
}

/// One access of an unrestricted declaration: resource `.0` of
/// `REF_RESOURCES`, of which the first `REF_REGISTERED` are registered
/// up front; a pin's version may be past, future or never minted.
#[derive(Debug, Clone, Copy)]
enum RefAcc {
    Read(u8),
    Write(u8),
    ReadWrite(u8),
    Pin(u8, Version),
}

const REF_RESOURCES: u8 = 5;
const REF_REGISTERED: u8 = 3;

/// One unrestricted declaration: its accesses, an explicit tag or the
/// default, and whether it is high priority.
type RefDecl = (Vec<RefAcc>, Option<u64>, bool);

fn ref_decl_strategy() -> impl Strategy<Value = RefDecl> {
    let r = 0..REF_RESOURCES;
    let acc = prop_oneof![
        r.clone().prop_map(RefAcc::Read),
        r.clone().prop_map(RefAcc::Write),
        r.clone().prop_map(RefAcc::ReadWrite),
        (r, 0u32..6).prop_map(|(a, v)| RefAcc::Pin(a, v)),
    ];
    (
        prop::collection::vec(acc, 0..=4),
        (any::<bool>(), 0u64..1000).prop_map(|(some, t)| some.then_some(t)),
        any::<bool>(),
    )
}

/// The reference program: resolution done at submit from scratch
/// bookkeeping, with no producer recorded at declaration.
#[derive(Default)]
struct RefProgram {
    ids: HashMap<String, u32>,
    names: Vec<String>,
    latest: Vec<Version>,
    tasks: Vec<RefTask>,
}

/// An accepted reference declaration.
struct RefTask {
    tag: u64,
    priority: Priority,
    reads: Vec<(u32, Version)>,
    writes: Vec<(u32, Version)>,
}

/// A lowering's tasks and edges.
type Lowered = (Vec<Submission>, Vec<(u64, u64)>);

impl RefProgram {
    fn register(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.ids.insert(name.to_string(), id);
        self.names.push(name.to_string());
        self.latest.push(0);
        id
    }

    fn declare(&mut self, (accs, tag, high): &RefDecl) -> Result<u64, FrontendError> {
        let tag = tag.unwrap_or(self.tasks.len() as u64);
        let name = |r: u8| format!("r{r}");
        let unknown = |r: u8| FrontendError::UnknownResource { name: name(r) };
        let mut reads = Vec::new();
        for a in accs {
            let rv = match *a {
                RefAcc::Write(_) => continue,
                RefAcc::Read(r) => {
                    let id = *self.ids.get(&name(r)).ok_or_else(|| unknown(r))?;
                    (id, self.latest[id as usize])
                }
                RefAcc::Pin(r, v) => (*self.ids.get(&name(r)).ok_or_else(|| unknown(r))?, v),
                RefAcc::ReadWrite(r) => {
                    let id = self.register(&name(r));
                    (id, self.latest[id as usize])
                }
            };
            if !reads.contains(&rv) {
                reads.push(rv);
            }
        }
        let mut writes: Vec<(u32, Version)> = Vec::new();
        for a in accs {
            if let RefAcc::Write(r) | RefAcc::ReadWrite(r) = *a {
                let id = self.register(&name(r));
                if !writes.iter().any(|w| w.0 == id) {
                    self.latest[id as usize] += 1;
                    writes.push((id, self.latest[id as usize]));
                }
            }
        }
        let priority = if *high {
            Priority::High
        } else {
            Priority::Normal
        };
        self.tasks.push(RefTask {
            tag,
            priority,
            reads,
            writes,
        });
        Ok(tag)
    }

    /// Order and consumer lists by search and Kahn's algorithm.
    fn graph(&self) -> Result<(Vec<usize>, Vec<Vec<usize>>), FrontendError> {
        let n = self.tasks.len();
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, t) in self.tasks.iter().enumerate() {
            for &(r, v) in t.reads.iter().filter(|rv| rv.1 > 0) {
                let minter = self.tasks.iter().position(|w| w.writes.contains(&(r, v)));
                let p = minter.ok_or_else(|| FrontendError::UnknownProducer {
                    resource: self.names[r as usize].clone(),
                    version: v,
                    reader: t.tag,
                })?;
                if p != i && !consumers[p].contains(&i) {
                    consumers[p].push(i);
                }
            }
        }
        let mut indeg = vec![0; n];
        for &c in consumers.iter().flatten() {
            indeg[c] += 1;
        }
        let mut ready: BinaryHeap<Reverse<usize>> =
            (0..n).filter(|&i| indeg[i] == 0).map(Reverse).collect();
        let mut order = Vec::new();
        while let Some(Reverse(i)) = ready.pop() {
            order.push(i);
            for &c in &consumers[i] {
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    ready.push(Reverse(c));
                }
            }
        }
        if order.len() < n {
            let tags = (0..n).filter(|&i| indeg[i] > 0).map(|i| self.tasks[i].tag);
            return Err(FrontendError::Cycle {
                tags: tags.collect(),
            });
        }
        Ok((order, consumers))
    }

    /// Both lowerings' tasks and edges, parameters built through
    /// `TaskBuilder` from the public address mapping.
    fn lower(&self, lowering: Lowering) -> Result<Lowered, FrontendError> {
        let (order, consumers) = self.graph()?;
        let addr = |&(r, v): &(u32, Version)| lowering.address(ResourceId(r), v);
        let tasks = order
            .iter()
            .map(|&i| {
                let t = &self.tasks[i];
                let mut b = TaskBuilder::new(0x7000).tag(t.tag).priority(t.priority);
                for rv in &t.reads {
                    b = b.reads(addr(rv), 64);
                }
                for rv in &t.writes {
                    b = b.writes(addr(rv), 64);
                }
                b.build()
            })
            .collect();
        let tag = |i: usize| self.tasks[i].tag;
        let edges = consumers
            .iter()
            .enumerate()
            .flat_map(|(p, cs)| cs.iter().map(move |&c| (tag(p), tag(c))))
            .collect();
        Ok((tasks, edges))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn graph_and_lowering_equal_a_reference(
        decls in prop::collection::vec(ref_decl_strategy(), 0..=16),
    ) {
        let mut prog = Program::new();
        let mut reference = RefProgram::default();
        for r in 0..REF_REGISTERED {
            let name = format!("r{r}");
            prog.resource(&name);
            reference.register(&name);
        }
        for d in &decls {
            let (accs, tag, high) = d;
            let mut b = prog.task(0x7000);
            if let Some(tag) = tag {
                b = b.tag(*tag);
            }
            if *high {
                b = b.priority(Priority::High);
            }
            for a in accs {
                b = match *a {
                    RefAcc::Read(r) => b.reads(&format!("r{r}")),
                    RefAcc::Write(r) => b.writes(&format!("r{r}")),
                    RefAcc::ReadWrite(r) => b.read_writes(&format!("r{r}")),
                    RefAcc::Pin(r, v) => b.reads_version(&format!("r{r}"), v),
                };
            }
            prop_assert_eq!(b.submit(), reference.declare(d));
        }
        match (prog.graph(), reference.graph()) {
            (Ok(graph), Ok((order, consumers))) => {
                prop_assert_eq!(&graph.order, &order);
                for (p, cs) in consumers.iter().enumerate() {
                    prop_assert_eq!(graph.consumers(p), cs.as_slice());
                }
            }
            (got, want) => prop_assert_eq!(got.map(|_| ()), want.map(|_| ())),
        }
        for lowering in [Lowering::Renamed, Lowering::Raw] {
            let got = prog.lower(lowering).map(|lp| (lp.tasks, lp.edges));
            prop_assert_eq!(got, reference.lower(lowering));
        }
    }
}
