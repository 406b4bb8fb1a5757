//! The memo [`Store`]: per-task cached fingerprints and outputs, plus
//! the content-hash primitives that define what "unchanged" means.
//!
//! The store is the PIE-style half of the incremental layer: one
//! [`TaskRecord`] per task key, remembering the **fingerprint** the
//! task last ran under and the **output contents** it produced. A
//! re-run validates a task by recomputing its fingerprint from current
//! input contents — if it matches, the cached outputs are spliced in
//! and the task is *not* resubmitted (early cutoff); if not, the task
//! re-executes and the record is refreshed.
//!
//! Everything is expressed over simulated 64-bit *contents*: every
//! (resource, version) has a `u64` content, initial contents derive
//! from a per-resource seed, and task outputs are a pure function of
//! the task's function pointer and its input contents. Fingerprints
//! hash **contents and resource names, never version numbers** — a
//! structural edit that renumbers versions without changing any
//! producer relationship or content is therefore invisible to
//! validation, which is exactly the early-cutoff property the
//! edit-sequence differential pins down.
//!
//! The hash primitives ([`initial_contents`], [`task_output`],
//! [`fingerprint`]) are public: they are the *contract* between the
//! incremental layer and the differential oracle, which shares the
//! hashes but independently re-implements resolution, ordering, and
//! invalidation.

use nexuspp_core::Priority;
use nexuspp_frontend::ResourceId;
use std::collections::HashMap;

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Deterministic 64-bit hash of a byte string (FNV-1a), the base
/// primitive every content hash builds on. Stable across runs,
/// platforms, and — crucially — across the incremental layer and the
/// test oracle.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold one more 64-bit word into a running hash.
pub(crate) fn hash_mix(h: u64, word: u64) -> u64 {
    let mut h = h;
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The simulated initial contents (version 0) of a resource: a pure
/// function of its *name* and the current initial-contents `seed`
/// (edited by `Edit::SetInitial`).
pub fn initial_contents(name: &str, seed: u64) -> u64 {
    hash_mix(hash_bytes(name.as_bytes()), seed)
}

/// The simulated content a task writes to resource `name`: a pure
/// function of the task's `fptr`, the written resource's name, and the
/// task's input contents in declaration order. Deliberately **not** a
/// function of the task key — re-keying or re-tagging a task does not
/// change what it computes.
pub fn task_output(fptr: u64, name: &str, inputs: &[u64]) -> u64 {
    let mut h = hash_mix(hash_bytes(name.as_bytes()), fptr);
    for &i in inputs {
        h = hash_mix(h, i);
    }
    h
}

/// The validation fingerprint of one task execution: hashes the
/// simulated function (`fptr`), the priority, each read as
/// `(resource-name hash, content)` in declaration order, and each
/// written resource's name hash. Version numbers are absent on
/// purpose — see the [module docs](self).
pub fn fingerprint(
    fptr: u64,
    priority: Priority,
    reads: &[(u64, u64)],
    write_names: &[u64],
) -> u64 {
    let mut h = hash_mix(FNV_OFFSET, fptr);
    h = hash_mix(h, priority as u64);
    h = hash_mix(h, reads.len() as u64);
    for &(name_hash, content) in reads {
        h = hash_mix(h, name_hash);
        h = hash_mix(h, content);
    }
    for &name_hash in write_names {
        h = hash_mix(h, name_hash);
    }
    h
}

/// One task's memo: the fingerprint it last validated or ran under and
/// the contents it produced, keyed by the written resource's id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskRecord {
    /// Fingerprint of the last consistent execution (see
    /// [`fingerprint`]).
    pub fingerprint: u64,
    /// Content produced per written resource. Keyed by [`ResourceId`]
    /// (stable across edits), **not** by version (renumbered by
    /// structural edits).
    pub outputs: Vec<(ResourceId, u64)>,
}

impl TaskRecord {
    /// The cached content this task wrote to `r`, if it writes `r`.
    pub fn output(&self, r: ResourceId) -> Option<u64> {
        self.outputs.iter().find(|&&(o, _)| o == r).map(|&(_, c)| c)
    }
}

/// The memo store: task key → [`TaskRecord`]. An empty store makes
/// every task dirty, so a from-scratch run is just the degenerate case
/// of an incremental one.
///
/// The store has a **single writer**: it is mutated only through
/// `IncrementalProgram`'s `&mut self` re-run path, never from executor
/// threads (executors receive pre-planned submissions and report back;
/// the store commit happens on the caller's thread).
#[derive(Debug, Clone, Default)]
pub struct Store {
    records: HashMap<u64, TaskRecord>,
}

impl Store {
    /// An empty store (everything dirty).
    pub fn new() -> Store {
        Store::default()
    }

    /// The record for task `key`, if it has ever run.
    pub fn record(&self, key: u64) -> Option<&TaskRecord> {
        self.records.get(&key)
    }

    /// Insert or replace the record for `key`.
    pub fn put(&mut self, key: u64, record: TaskRecord) {
        self.records.insert(key, record);
    }

    /// Drop the record for `key` (the task was removed or must re-run
    /// unconditionally). Returns `true` if a record existed.
    pub(crate) fn evict(&mut self, key: u64) -> bool {
        self.records.remove(&key).is_some()
    }

    /// Drop everything: the next re-run is from scratch.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Number of memoized tasks.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// No memoized tasks at all?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_deterministic_and_name_sensitive() {
        assert_eq!(hash_bytes(b"grid"), hash_bytes(b"grid"));
        assert_ne!(hash_bytes(b"grid"), hash_bytes(b"grip"));
        assert_ne!(initial_contents("a", 0), initial_contents("a", 1));
        assert_ne!(initial_contents("a", 0), initial_contents("b", 0));
    }

    #[test]
    fn task_output_depends_on_fptr_and_inputs_only() {
        let a = task_output(0x10, "out", &[1, 2]);
        assert_eq!(a, task_output(0x10, "out", &[1, 2]));
        assert_ne!(a, task_output(0x11, "out", &[1, 2]));
        assert_ne!(a, task_output(0x10, "out", &[2, 1]), "input order matters");
        assert_ne!(a, task_output(0x10, "out2", &[1, 2]));
    }

    #[test]
    fn fingerprint_sees_contents_not_versions() {
        let n = hash_bytes(b"x");
        let f = fingerprint(7, Priority::Normal, &[(n, 100)], &[n]);
        // Same contents, same fingerprint — no version number anywhere
        // to disagree on.
        assert_eq!(f, fingerprint(7, Priority::Normal, &[(n, 100)], &[n]));
        assert_ne!(f, fingerprint(7, Priority::Normal, &[(n, 101)], &[n]));
        assert_ne!(f, fingerprint(7, Priority::High, &[(n, 100)], &[n]));
        assert_ne!(f, fingerprint(8, Priority::Normal, &[(n, 100)], &[n]));
    }

    #[test]
    fn store_roundtrips_and_evicts() {
        let mut s = Store::new();
        assert!(s.is_empty());
        let rec = TaskRecord {
            fingerprint: 42,
            outputs: vec![(ResourceId(3), 99)],
        };
        s.put(7, rec.clone());
        assert_eq!(s.len(), 1);
        assert_eq!(s.record(7), Some(&rec));
        assert_eq!(s.record(7).unwrap().output(ResourceId(3)), Some(99));
        assert_eq!(s.record(7).unwrap().output(ResourceId(4)), None);
        assert!(s.evict(7));
        assert!(!s.evict(7));
        s.put(1, rec);
        s.clear();
        assert!(s.is_empty());
    }
}
