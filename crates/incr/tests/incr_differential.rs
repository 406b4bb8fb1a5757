//! The incremental layer's differential bar: **incremental re-run ≡
//! from-scratch ≡ oracle**, after *every* edit of a random edit
//! sequence, across both lowerings and every backend.
//!
//! A random resource program is grown and mutated by a random sequence
//! of edits (initial-contents changes, task adds/removes/retargets,
//! including pin-driven edits that attempt to create cycles). The same
//! concretized edit stream drives, in lockstep:
//!
//! * eight independent [`IncrementalProgram`] instances — one per
//!   (lowering ∈ {renamed, raw}) × (backend ∈ {engine, dispatcher,
//!   runtime×1 worker, runtime×4 workers}) combination — each re-run
//!   after every edit;
//! * an **oracle**: an independent reimplementation of the versioning
//!   semantics (its own binding resolution, producer map, cycle check
//!   via a fresh Kahn sort, and from-scratch content evaluation) that
//!   shares only the public hash primitives of [`nexuspp_incr::store`];
//! * a **from-scratch comparator**: a fresh `IncrementalProgram` fed
//!   the entire edit history and re-run once on an empty store (the
//!   degenerate case).
//!
//! After every edit, all three views must agree on (a) whether the edit
//! commits (and on the error kind when it does not), (b) the final
//! contents of every resource, and (c) the re-executed set: the keys an
//! incremental re-run actually resubmits must equal **exactly** the
//! oracle's semantically dirty set — the tasks whose independently
//! recomputed fingerprints changed — which is the dirty cone minus the
//! early-cutoff survivors, and always a subset of the structural cone
//! the report counts as `dirtied`.

use nexuspp_core::Priority;
use nexuspp_frontend::Lowering;
use nexuspp_incr::store::{fingerprint, hash_bytes, initial_contents, task_output};
use nexuspp_incr::{Access, Backend, Edit, IncrError, IncrementalProgram};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

const RESOURCES: u8 = 4;

fn rname(r: u8) -> String {
    format!("r{r}")
}

/// Generator-level access: pins carry a raw selector, concretized
/// against the live version history at application time.
#[derive(Debug, Clone, Copy)]
enum GenAcc {
    Read(u8),
    Write(u8),
    ReadWrite(u8),
    Pin(u8, u16),
}

/// Generator-level edit: task picks are raw selectors into the live
/// key set, so removals and retargets always hit declared tasks.
#[derive(Debug, Clone)]
enum GenEdit {
    SetInitial(u8, u64),
    AddTask { accs: Vec<GenAcc>, high: bool },
    RemoveTask(u16),
    Retarget { which: u16, accs: Vec<GenAcc> },
}

fn acc_strategy() -> impl Strategy<Value = GenAcc> {
    let r = 0..RESOURCES;
    prop_oneof![
        r.clone().prop_map(GenAcc::Read),
        r.clone().prop_map(GenAcc::Write),
        r.clone().prop_map(GenAcc::ReadWrite),
        (r, any::<u16>()).prop_map(|(a, s)| GenAcc::Pin(a, s)),
    ]
}

fn edit_strategy() -> impl Strategy<Value = GenEdit> {
    let accs = || prop::collection::vec(acc_strategy(), 1..=3);
    prop_oneof![
        (0..RESOURCES, any::<u64>()).prop_map(|(r, s)| GenEdit::SetInitial(r, s)),
        // Adds appear three times so programs actually grow.
        (accs(), any::<bool>()).prop_map(|(accs, high)| GenEdit::AddTask { accs, high }),
        (accs(), any::<bool>()).prop_map(|(accs, high)| GenEdit::AddTask { accs, high }),
        (accs(), any::<bool>()).prop_map(|(accs, high)| GenEdit::AddTask { accs, high }),
        any::<u16>().prop_map(GenEdit::RemoveTask),
        (any::<u16>(), accs()).prop_map(|(which, accs)| GenEdit::Retarget { which, accs }),
    ]
}

/// One declaration as the oracle keeps it (symbolic, name-based).
#[derive(Debug, Clone)]
struct ODecl {
    key: u64,
    fptr: u64,
    priority: Priority,
    accs: Vec<Access>,
}

/// One declaration after the oracle's own binding resolution.
struct OResolved {
    key: u64,
    fptr: u64,
    priority: Priority,
    reads: Vec<(String, u32)>,
    writes: Vec<(String, u32)>,
}

/// The oracle's view of a fully resolved declaration list.
struct OState {
    resolved: Vec<OResolved>,
    producers: HashMap<(String, u32), u64>,
    latest: BTreeMap<String, u32>,
    edges: BTreeSet<(u64, u64)>,
}

/// What the oracle predicts an edit application returns.
#[derive(Debug, PartialEq, Eq)]
enum OVerdict {
    Ok,
    UnknownProducer,
    Cycle,
}

/// Independent reimplementation of the incremental semantics: its own
/// resolution, validation, and from-scratch evaluation. Shares only the
/// public hash primitives with the layer under test.
struct Oracle {
    seeds: BTreeMap<String, u64>,
    decls: Vec<ODecl>,
    /// key → fingerprint as of the last run (independently computed).
    last_fp: BTreeMap<u64, u64>,
}

impl Oracle {
    fn new() -> Oracle {
        Oracle {
            seeds: BTreeMap::new(),
            decls: Vec::new(),
            last_fp: BTreeMap::new(),
        }
    }

    /// Mirror of the frontend's two-pass binding resolution, in names.
    fn resolve(decls: &[ODecl]) -> OState {
        let mut latest: BTreeMap<String, u32> = BTreeMap::new();
        let mut producers: HashMap<(String, u32), u64> = HashMap::new();
        let mut resolved = Vec::new();
        for d in decls {
            let mut reads: Vec<(String, u32)> = Vec::new();
            let mut writes: Vec<(String, u32)> = Vec::new();
            for a in &d.accs {
                let rv = match a {
                    Access::Read(n) | Access::ReadWrite(n) => {
                        Some((n.clone(), *latest.get(n).unwrap_or(&0)))
                    }
                    Access::ReadVersion(n, v) => Some((n.clone(), *v)),
                    Access::Write(_) => None,
                };
                if let Some(rv) = rv {
                    if !reads.contains(&rv) {
                        reads.push(rv);
                    }
                }
            }
            for a in &d.accs {
                if let Access::Write(n) | Access::ReadWrite(n) = a {
                    if !writes.iter().any(|(w, _)| w == n) {
                        let l = latest.entry(n.clone()).or_insert(0);
                        *l += 1;
                        writes.push((n.clone(), *l));
                        producers.insert((n.clone(), *l), d.key);
                    }
                }
            }
            resolved.push(OResolved {
                key: d.key,
                fptr: d.fptr,
                priority: d.priority,
                reads,
                writes,
            });
        }
        let mut edges = BTreeSet::new();
        for r in &resolved {
            for (n, v) in &r.reads {
                if *v == 0 {
                    continue;
                }
                if let Some(&p) = producers.get(&(n.clone(), *v)) {
                    if p != r.key {
                        edges.insert((p, r.key));
                    }
                }
            }
        }
        OState {
            resolved,
            producers,
            latest,
            edges,
        }
    }

    /// Producer completeness first, then acyclicity by a fresh Kahn
    /// sort — the same order the layer under test checks in.
    fn validate(st: &OState) -> OVerdict {
        for r in &st.resolved {
            for (n, v) in &r.reads {
                if *v > 0 && !st.producers.contains_key(&(n.clone(), *v)) {
                    return OVerdict::UnknownProducer;
                }
            }
        }
        let keys: BTreeSet<u64> = st.resolved.iter().map(|r| r.key).collect();
        let mut indeg: BTreeMap<u64, usize> = keys.iter().map(|&k| (k, 0)).collect();
        for &(_, t) in &st.edges {
            *indeg.get_mut(&t).expect("endpoint declared") += 1;
        }
        let mut ready: Vec<u64> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&k, _)| k)
            .collect();
        let mut seen = 0usize;
        while let Some(k) = ready.pop() {
            seen += 1;
            for &(_, t) in st.edges.range((k, 0)..=(k, u64::MAX)) {
                let d = indeg.get_mut(&t).expect("endpoint");
                *d -= 1;
                if *d == 0 {
                    ready.push(t);
                }
            }
        }
        if seen < keys.len() {
            OVerdict::Cycle
        } else {
            OVerdict::Ok
        }
    }

    /// Predict and (on success) commit one edit.
    fn try_edit(&mut self, e: &Edit) -> OVerdict {
        let mut scratch = self.decls.clone();
        match e {
            Edit::SetInitial { resource, seed } => {
                self.seeds.insert(resource.clone(), *seed);
                return OVerdict::Ok;
            }
            Edit::AddTask {
                key,
                fptr,
                priority,
                accesses,
            } => scratch.push(ODecl {
                key: *key,
                fptr: *fptr,
                priority: *priority,
                accs: accesses.clone(),
            }),
            Edit::RemoveTask { key } => scratch.retain(|d| d.key != *key),
            Edit::Retarget { key, accesses } => {
                let d = scratch
                    .iter_mut()
                    .find(|d| d.key == *key)
                    .expect("driver picks declared keys");
                d.accs = accesses.clone();
            }
        }
        let st = Self::resolve(&scratch);
        let verdict = Self::validate(&st);
        if verdict == OVerdict::Ok {
            self.decls = scratch;
        }
        verdict
    }

    fn seed_of(&self, name: &str) -> u64 {
        self.seeds.get(name).copied().unwrap_or(0)
    }

    /// From-scratch evaluation: contents of every (name, version),
    /// fingerprints of every task, and the semantically dirty set
    /// relative to the previous run. Updates the remembered
    /// fingerprints.
    fn run(&mut self) -> (HashMap<String, u64>, Vec<u64>) {
        let st = Self::resolve(&self.decls);
        assert_eq!(Self::validate(&st), OVerdict::Ok, "committed state valid");
        // Any topological order works (evaluation is functional); use
        // repeated sweeps until fixpoint over a work list to avoid
        // writing a third Kahn.
        let mut contents: HashMap<(String, u32), u64> = HashMap::new();
        let mut fps: BTreeMap<u64, u64> = BTreeMap::new();
        let mut pending: Vec<&OResolved> = st.resolved.iter().collect();
        while !pending.is_empty() {
            let before = pending.len();
            pending.retain(|r| {
                // A read of the task's own mint is circular and ignored
                // (mirrors the layer under test and the frontend's
                // no-self-edge rule).
                let ereads: Vec<&(String, u32)> = r
                    .reads
                    .iter()
                    .filter(|(n, v)| st.producers.get(&(n.clone(), *v)) != Some(&r.key))
                    .collect();
                let ready = ereads
                    .iter()
                    .all(|(n, v)| *v == 0 || contents.contains_key(&(n.clone(), *v)));
                if !ready {
                    return true; // keep pending
                }
                let inputs: Vec<u64> = ereads
                    .iter()
                    .map(|(n, v)| {
                        if *v == 0 {
                            initial_contents(n, self.seed_of(n))
                        } else {
                            contents[&(n.clone(), *v)]
                        }
                    })
                    .collect();
                let read_pairs: Vec<(u64, u64)> = ereads
                    .iter()
                    .zip(&inputs)
                    .map(|((n, _), &c)| (hash_bytes(n.as_bytes()), c))
                    .collect();
                let write_hashes: Vec<u64> = r
                    .writes
                    .iter()
                    .map(|(n, _)| hash_bytes(n.as_bytes()))
                    .collect();
                fps.insert(
                    r.key,
                    fingerprint(r.fptr, r.priority, &read_pairs, &write_hashes),
                );
                for (n, v) in &r.writes {
                    contents.insert((n.clone(), *v), task_output(r.fptr, n, &inputs));
                }
                false
            });
            assert!(pending.len() < before, "acyclic program always progresses");
        }
        let dirty: Vec<u64> = fps
            .iter()
            .filter(|(k, fp)| self.last_fp.get(k) != Some(fp))
            .map(|(&k, _)| k)
            .collect();
        self.last_fp = fps;
        // Final contents per name: latest version's content.
        let mut finals: HashMap<String, u64> = HashMap::new();
        let mut names: BTreeSet<String> = self.seeds.keys().cloned().collect();
        names.extend(st.latest.keys().cloned());
        for name in names {
            let v = st.latest.get(&name).copied().unwrap_or(0);
            let c = if v == 0 {
                initial_contents(&name, self.seed_of(&name))
            } else {
                contents[&(name.clone(), v)]
            };
            finals.insert(name, c);
        }
        (finals, dirty)
    }

    /// The oracle's content for any name (defaults for names it never
    /// saw — e.g. interned by a *rejected* edit of the layer under
    /// test).
    fn content_of_name(&self, finals: &HashMap<String, u64>, name: &str) -> u64 {
        finals
            .get(name)
            .copied()
            .unwrap_or_else(|| initial_contents(name, self.seed_of(name)))
    }
}

/// Concretize a generated edit against the oracle's current state (the
/// single source of truth all instances then receive verbatim).
fn concretize(e: &GenEdit, oracle: &Oracle, next_key: &mut u64) -> Option<Edit> {
    let st = Oracle::resolve(&oracle.decls);
    let to_access = |a: &GenAcc| match a {
        GenAcc::Read(r) => Access::Read(rname(*r)),
        GenAcc::Write(r) => Access::Write(rname(*r)),
        GenAcc::ReadWrite(r) => Access::ReadWrite(rname(*r)),
        GenAcc::Pin(r, s) => {
            let latest = st.latest.get(&rname(*r)).copied().unwrap_or(0);
            Access::ReadVersion(rname(*r), u32::from(*s) % (latest + 1))
        }
    };
    match e {
        GenEdit::SetInitial(r, s) => Some(Edit::SetInitial {
            resource: rname(*r),
            seed: *s,
        }),
        GenEdit::AddTask { accs, high } => {
            let key = *next_key;
            *next_key += 1;
            Some(Edit::AddTask {
                key,
                fptr: 0x9000 + (key % 5) * 0x10,
                priority: if *high {
                    Priority::High
                } else {
                    Priority::Normal
                },
                accesses: accs.iter().map(to_access).collect(),
            })
        }
        GenEdit::RemoveTask(w) => {
            if oracle.decls.is_empty() {
                return None;
            }
            let key = oracle.decls[*w as usize % oracle.decls.len()].key;
            Some(Edit::RemoveTask { key })
        }
        GenEdit::Retarget { which, accs } => {
            if oracle.decls.is_empty() {
                return None;
            }
            let key = oracle.decls[*which as usize % oracle.decls.len()].key;
            Some(Edit::Retarget {
                key,
                accesses: accs.iter().map(to_access).collect(),
            })
        }
    }
}

fn combos() -> Vec<(Lowering, Backend)> {
    let mut v = Vec::new();
    for lowering in [Lowering::Renamed, Lowering::Raw] {
        for backend in [
            Backend::Engine { shards: 2 },
            Backend::Runtime {
                workers: 1,
                shards: 2,
            },
            Backend::Runtime {
                workers: 4,
                shards: 2,
            },
        ] {
            v.push((lowering, backend));
        }
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn edit_sequences_rerun_exactly_the_dirty_set(
        edits in prop::collection::vec(edit_strategy(), 1..=14)
    ) {
        let mut oracle = Oracle::new();
        let mut instances: Vec<(Lowering, Backend, IncrementalProgram)> = combos()
            .into_iter()
            .map(|(l, b)| (l, b, IncrementalProgram::new()))
            .collect();
        let mut history: Vec<Edit> = Vec::new();
        let mut next_key = 0u64;

        for gen_edit in &edits {
            let Some(edit) = concretize(gen_edit, &oracle, &mut next_key) else {
                continue;
            };
            history.push(edit.clone());
            let verdict = oracle.try_edit(&edit);

            // (a) Accept/reject agreement, including the error kind.
            for (_, _, ip) in &mut instances {
                match (ip.edit(edit.clone()), &verdict) {
                    (Ok(()), OVerdict::Ok) => {}
                    (Err(IncrError::UnknownProducer { .. }), OVerdict::UnknownProducer) => {}
                    (Err(IncrError::Cycle { .. }), OVerdict::Cycle) => {}
                    (got, want) => prop_assert!(
                        false,
                        "verdict mismatch for {edit:?}: got {got:?}, oracle {want:?}"
                    ),
                }
            }

            if verdict != OVerdict::Ok {
                // A rejected edit committed nothing: a re-run must be a
                // no-op on every instance.
                for (lowering, backend, ip) in &mut instances {
                    let rep = ip.rerun(*lowering, backend);
                    prop_assert_eq!(rep.reran, 0, "rejected edit dirtied state");
                    prop_assert_eq!(rep.dirtied, 0);
                }
                continue;
            }

            // (b, c) Re-run everywhere; the re-executed set must equal
            // the oracle's independently computed dirty set, and final
            // contents must match the oracle's from-scratch evaluation.
            let (finals, dirty) = oracle.run();
            for (lowering, backend, ip) in &mut instances {
                let rep = ip.rerun(*lowering, backend);
                prop_assert_eq!(
                    &rep.reran_keys, &dirty,
                    "{} {}: reran set != oracle dirty set",
                    lowering.name(), backend.name()
                );
                prop_assert_eq!(rep.reran + rep.reused, rep.total);
                prop_assert!(rep.reran <= rep.dirtied, "cutoff can only shrink the cone");
                for (name, content) in ip.final_contents() {
                    prop_assert_eq!(
                        content,
                        oracle.content_of_name(&finals, &name),
                        "{} {}: contents diverged at {}",
                        lowering.name(), backend.name(), name
                    );
                }
            }

            // From-scratch comparator: the whole history replayed onto
            // an empty store must (re)run every task and agree on
            // contents — the degenerate case of incrementality.
            let mut scratch = IncrementalProgram::new();
            for e in &history {
                let _ = scratch.edit(e.clone());
            }
            let rep = scratch.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
            prop_assert_eq!(rep.reran, rep.total, "empty store reruns everything");
            for (name, content) in scratch.final_contents() {
                prop_assert_eq!(
                    content,
                    oracle.content_of_name(&finals, &name),
                    "from-scratch contents diverged at {}",
                    name
                );
            }
        }
    }
}
