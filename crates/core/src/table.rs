//! The Dependence Table: where Nexus++ stores the task graph.
//!
//! "Each input/output that is accessed by a task will have an entry in the
//! Dependence Table indicating its access mode, and a Kick-Off List that
//! contains the IDs of tasks waiting for this address to be produced before
//! they can run. The Dependence Table is a hash table with a simple separate
//! chaining hash collisions resolution algorithm h()."
//!
//! Per entry (Table II of the paper): the full address (`fAddr`), segment
//! size, `isOut` (a writer currently owns the segment), `Rdrs` (count of
//! tasks currently reading it), `ww` ("a writer waits" — the write-after-
//! read guard), hash-chain links (`n_v`/`n_i`/`p_i`), and the dummy-entry
//! chain (`h_D`/`l_D`) that extends the fixed-size Kick-Off List.
//!
//! ## Chaining scheme
//!
//! The table *is* the bucket array: `h(addr)` names a home slot, collision
//! nodes are allocated from free slots and linked with `next`/`prev`
//! indices, exactly the fields the paper lists. Two invariants keep
//! deletion simple and lookups O(chain):
//!
//! 1. if any entry with home bucket `b` exists, the head of `b`'s chain
//!    occupies slot `b`;
//! 2. a parent's Kick-Off List is empty only if it has no extension
//!    (dummy) entries — when the parent list drains, the first extension's
//!    contents are promoted into it and the extension is freed.
//!
//! Maintaining invariant 1 means an insert may *relocate* a foreign node
//! out of the new entry's home slot (hardware does the same copy the paper
//! describes for dummy-entry promotion); every relocation is charged to
//! [`OpCost`]. Invariant 2 differs cosmetically from the paper — which
//! promotes the *parent's metadata into the dummy* and frees the home slot —
//! but occupies the same number of entries, costs the same accesses, and
//! keeps the head list directly addressable, which is the property the
//! paper cares about ("allows direct (and hence, fast) access to the first
//! Kick-Off List").

use crate::config::NexusConfig;
use crate::cost::OpCost;
use crate::pool::TdIndex;
use nexuspp_trace::AccessMode;
use std::collections::VecDeque;

/// The table has no free entry for a required allocation; the requesting
/// Maestro block must stall and retry after `Handle Finished` frees space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TableFull;

/// A task waiting in a Kick-Off List, with the access mode it wants for
/// the address (the hardware re-reads the mode from the Task Pool; storing
/// it alongside the ID is equivalent bookkeeping and is charged as the same
/// access).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Waiter {
    /// The waiting task.
    pub td: TdIndex,
    /// Its access mode for this address.
    pub mode: AccessMode,
}

/// Outcome of checking one parameter of a new task against the table
/// (one iteration of the Listing 2 loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CheckParamOutcome {
    /// Access granted immediately; no dependence recorded.
    NoDependency,
    /// The task was queued in the address's Kick-Off List; its Dependence
    /// Counter must be incremented.
    Dependent,
}

/// Outcome of releasing one parameter of a finished task.
#[derive(Debug, Clone, Default)]
#[cfg(test)]
pub(crate) struct WakeResult {
    /// Tasks granted access by this release (each one's Dependence Counter
    /// must be decremented).
    pub woken: Vec<Waiter>,
    /// The address entry was removed from the table.
    pub deleted: bool,
    /// Table accesses performed.
    pub cost: OpCost,
}

#[derive(Debug, Clone)]
struct ParentNode {
    addr: u64,
    #[allow(dead_code)] // carried per the paper's entry format; hazards use base addresses
    size: u32,
    is_out: bool,
    rdrs: u32,
    ww: bool,
    kick: VecDeque<Waiter>,
    /// Hash-chain link (`n_v`/`n_i`).
    next: Option<u32>,
    /// Hash-chain back link (`p_i`).
    prev: Option<u32>,
    /// First kick-off extension entry (`h_D`).
    ext_head: Option<u32>,
    /// Last kick-off extension entry (`l_D`).
    ext_last: Option<u32>,
    /// Number of extension entries (for the Fig 6 chain-length statistic).
    ext_count: u32,
    /// Total queued waiters (parent list + extensions).
    waiters: u32,
}

#[derive(Debug, Clone)]
struct ExtNode {
    /// Slot index of the owning parent (used to repair links on
    /// relocation).
    owner: u32,
    next: Option<u32>,
    items: VecDeque<Waiter>,
}

#[derive(Debug, Clone)]
enum Slot {
    Free,
    Parent(ParentNode),
    Ext(ExtNode),
}

/// Statistics for the evaluation reports and Figure 6.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    /// Address entries inserted.
    pub inserts: u64,
    /// Address entries removed.
    pub deletes: u64,
    /// Kick-off extension (dummy) entries allocated.
    pub ext_allocs: u64,
    /// Promotions of extension contents into a drained parent list.
    pub promotions: u64,
    /// Node relocations performed to keep chain heads at home slots.
    pub relocations: u64,
    /// Allocations rejected because the table was full.
    pub full_rejections: u64,
    /// Peak occupied slots (parents + extensions).
    pub peak_occupancy: usize,
    /// Hash-chain slots visited, summed over every recorded probe (one
    /// lookup per slot, the home slot included).
    pub probe_hops: u64,
    /// Longest hash chain ever observed.
    pub max_chain_len: u64,
    /// Longest kick-off chain (1 + extensions) ever observed for an entry.
    pub max_kick_chain: u64,
    /// Largest number of simultaneous waiters on one address (the fan-out
    /// pressure that classic Nexus' fixed lists cannot absorb).
    pub max_waiters_live: u64,
}

/// The Dependence Table.
#[derive(Debug, Clone)]
pub struct DepTable {
    kickoff_cap: usize,
    growable: bool,
    slots: Vec<Slot>,
    /// Candidate free indices. May contain stale entries (slots claimed
    /// directly as chain heads); `pop_free` skips those lazily, keeping
    /// every operation O(1) amortized.
    free: Vec<u32>,
    /// Emptied Kick-Off Lists of removed entries, reused by the next
    /// entries inserted, so a list's storage outlives the tasks queued
    /// in it as a hardware entry's does. At most one per entry that ever
    /// had a waiter at the peak.
    spare_kicks: Vec<VecDeque<Waiter>>,
    occupied: usize,
    stats: TableStats,
}

/// The address hash family shared by the Dependence Table and any layer
/// that partitions addresses over it (the sharded engine): the SplitMix64
/// finalizer — cheap, well-distributed, a plausible h().
#[inline]
pub(crate) fn address_hash(addr: u64) -> u64 {
    let mut z = addr.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which of `n_shards` address-partitioned engines owns `addr`. Uses the
/// high hash bits so the assignment stays statistically independent of the
/// in-table bucket choice, which consumes the low bits via the table-size
/// modulus.
#[inline]
pub fn shard_of_addr(addr: u64, n_shards: usize) -> usize {
    assert!(n_shards > 0, "need at least one shard");
    ((address_hash(addr) >> 32) % n_shards as u64) as usize
}

/// The `index`-th cache-line-aligned address (by a fixed scan order)
/// homed on `shard` of an `n_shards`-way partition. Shard-targeted
/// workload generators use this so the threaded harnesses and the trace
/// specs aim at *the same* addresses — the wake-stress pair in
/// `nexuspp-shard` and `nexuspp-workloads` must describe one DAG.
pub fn nth_addr_on_shard(shard: usize, n_shards: usize, index: u32) -> u64 {
    let mut found = 0;
    let mut a = 0u64;
    loop {
        let addr = 0xAE_0000 + a * 64;
        a += 1;
        if shard_of_addr(addr, n_shards) == shard {
            if found == index {
                return addr;
            }
            found += 1;
        }
    }
}

#[inline]
fn mix(addr: u64) -> u64 {
    address_hash(addr)
}

/// Result of walking a bucket chain.
struct Probe {
    /// Slot holding `addr`, if present.
    found: Option<u32>,
    /// Chain tail, if the home slot hosts this bucket's chain and `addr`
    /// is absent.
    tail: Option<u32>,
    /// Entries probed.
    hops: u64,
}

impl DepTable {
    /// Build a table from a configuration.
    pub fn new(cfg: &NexusConfig) -> Self {
        cfg.validate();
        let n = cfg.dep_table_entries;
        DepTable {
            kickoff_cap: cfg.kickoff_entries,
            growable: cfg.growable,
            slots: vec![Slot::Free; n],
            free: (0..n as u32).rev().collect(),
            spare_kicks: Vec::new(),
            occupied: 0,
            stats: TableStats::default(),
        }
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Occupied slots (parents + extensions).
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Number of live address entries (parents only). O(capacity);
    /// diagnostics only.
    #[cfg(test)]
    pub(crate) fn live_addresses(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, Slot::Parent(_)))
            .count()
    }

    /// Statistics so far.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// `addr`'s home slot: the hash modulo the table length. A
    /// power-of-two length (every growable table, and Table IV's 4096
    /// entries) takes it by mask, which picks the same slot.
    #[inline]
    fn bucket(&self, addr: u64) -> u32 {
        let n = self.slots.len() as u64;
        let h = mix(addr);
        if n.is_power_of_two() {
            (h & (n - 1)) as u32
        } else {
            (h % n) as u32
        }
    }

    fn parent(&self, idx: u32) -> &ParentNode {
        match &self.slots[idx as usize] {
            Slot::Parent(p) => p,
            other => panic!("slot {idx} is not a parent: {other:?}"),
        }
    }

    fn parent_mut(&mut self, idx: u32) -> &mut ParentNode {
        match &mut self.slots[idx as usize] {
            Slot::Parent(p) => p,
            other => panic!("slot {idx} is not a parent: {other:?}"),
        }
    }

    fn ext_mut(&mut self, idx: u32) -> &mut ExtNode {
        match &mut self.slots[idx as usize] {
            Slot::Ext(e) => e,
            other => panic!("slot {idx} is not an extension: {other:?}"),
        }
    }

    /// Walk the chain rooted at `addr`'s home slot. A parent in the home
    /// slot with no predecessor heads some bucket's chain, and invariant 1
    /// puts that chain's head in its own home slot: the resident's bucket
    /// is `home`, so it is not rehashed to tell.
    fn probe(&self, addr: u64) -> Probe {
        let home = self.bucket(addr);
        let mut hops = 1u64;
        match &self.slots[home as usize] {
            Slot::Parent(p) if p.prev.is_none() => {
                debug_assert_eq!(
                    self.bucket(p.addr),
                    home,
                    "a chain head outside its home slot (invariant 1)"
                );
                let mut idx = home;
                loop {
                    let node = self.parent(idx);
                    if node.addr == addr {
                        return Probe {
                            found: Some(idx),
                            tail: None,
                            hops,
                        };
                    }
                    match node.next {
                        Some(nx) => {
                            idx = nx;
                            hops += 1;
                        }
                        None => {
                            return Probe {
                                found: None,
                                tail: Some(idx),
                                hops,
                            }
                        }
                    }
                }
            }
            _ => Probe {
                found: None,
                tail: None,
                hops,
            },
        }
    }

    fn probe_recorded(&mut self, addr: u64) -> Probe {
        let p = self.probe(addr);
        self.stats.probe_hops += p.hops;
        if p.hops > self.stats.max_chain_len {
            self.stats.max_chain_len = p.hops;
        }
        p
    }

    /// True if the table currently tracks `addr` (test/diagnostic helper).
    pub fn contains(&self, addr: u64) -> bool {
        self.probe(addr).found.is_some()
    }

    /// Reader count for `addr` (diagnostics; `None` if absent).
    #[cfg(test)]
    pub(crate) fn readers_of(&self, addr: u64) -> Option<u32> {
        self.probe(addr).found.map(|i| self.parent(i).rdrs)
    }

    /// Writer-owned flag for `addr` (diagnostics; `None` if absent).
    #[cfg(test)]
    pub(crate) fn is_written(&self, addr: u64) -> Option<bool> {
        self.probe(addr).found.map(|i| self.parent(i).is_out)
    }

    /// Number of queued waiters for `addr` including extension entries
    /// (diagnostics; `None` if absent).
    #[cfg(test)]
    pub(crate) fn waiters_of(&self, addr: u64) -> Option<usize> {
        let idx = self.probe(addr).found?;
        let p = self.parent(idx);
        let mut n = p.kick.len();
        let mut ext = p.ext_head;
        while let Some(e) = ext {
            match &self.slots[e as usize] {
                Slot::Ext(x) => {
                    n += x.items.len();
                    ext = x.next;
                }
                other => panic!("broken ext chain: {other:?}"),
            }
        }
        Some(n)
    }

    /// Pop a genuinely free slot, skipping stale candidates. Does *not*
    /// bump occupancy — callers do, once the slot's role is decided.
    fn pop_free(&mut self) -> Result<u32, TableFull> {
        while let Some(i) = self.free.pop() {
            if matches!(self.slots[i as usize], Slot::Free) {
                return Ok(i);
            }
        }
        self.stats.full_rejections += 1;
        Err(TableFull)
    }

    fn note_occupied(&mut self) {
        self.occupied += 1;
        if self.occupied > self.stats.peak_occupancy {
            self.stats.peak_occupancy = self.occupied;
        }
    }

    fn release_slot(&mut self, idx: u32) {
        match std::mem::replace(&mut self.slots[idx as usize], Slot::Free) {
            Slot::Parent(p) => self.keep_kick(p.kick),
            Slot::Ext(_) => {}
            Slot::Free => debug_assert!(false, "releasing free slot {idx}"),
        }
        self.free.push(idx);
        self.occupied -= 1;
    }

    /// Keep a drained Kick-Off List's storage for the next entry.
    fn keep_kick(&mut self, kick: VecDeque<Waiter>) {
        debug_assert!(kick.is_empty(), "recycling a list with waiters");
        if kick.capacity() > 0 {
            self.spare_kicks.push(kick);
        }
    }

    /// Move the node at `from` into the free slot `to`, repairing all links
    /// that referenced `from`. Returns the access cost of the repair.
    fn relocate(&mut self, from: u32, to: u32) -> OpCost {
        debug_assert!(matches!(self.slots[to as usize], Slot::Free));
        let node = std::mem::replace(&mut self.slots[from as usize], Slot::Free);
        let mut cost = OpCost::table(2); // read `from` + write `to`
        match &node {
            Slot::Parent(p) => {
                debug_assert!(
                    p.prev.is_some(),
                    "chain heads live at their home slot and are never relocated"
                );
                if let Some(prev) = p.prev {
                    self.parent_mut(prev).next = Some(to);
                    cost += OpCost::table(1);
                }
                if let Some(next) = p.next {
                    self.parent_mut(next).prev = Some(to);
                    cost += OpCost::table(1);
                }
                // Extensions name their owner by slot; repoint them.
                let mut ext = p.ext_head;
                while let Some(e) = ext {
                    let x = self.ext_mut(e);
                    x.owner = to;
                    ext = x.next;
                    cost += OpCost::table(1);
                }
            }
            Slot::Ext(x) => {
                let owner = x.owner;
                let op = self.parent_mut(owner);
                if op.ext_head == Some(from) {
                    op.ext_head = Some(to);
                } else {
                    // Find the predecessor extension and repoint it.
                    let mut cur = op.ext_head.expect("owner must have extensions");
                    loop {
                        cost += OpCost::table(1);
                        let nx = self.ext_mut(cur).next.expect("chain must contain `from`");
                        if nx == from {
                            self.ext_mut(cur).next = Some(to);
                            break;
                        }
                        cur = nx;
                    }
                }
                let op = self.parent_mut(owner);
                if op.ext_last == Some(from) {
                    op.ext_last = Some(to);
                }
                cost += OpCost::table(1);
            }
            Slot::Free => unreachable!("relocating a free slot"),
        }
        self.slots[to as usize] = node;
        self.stats.relocations += 1;
        cost
    }

    /// Grow the table ×2 and rehash (growable mode only). Extension
    /// entries never exist in growable mode (unbounded kick lists), so only
    /// parents move.
    fn grow(&mut self) {
        assert!(self.growable, "grow() on a fixed-capacity table");
        let old = std::mem::take(&mut self.slots);
        let new_len = old.len() * 2;
        self.slots = vec![Slot::Free; new_len];
        self.free = (0..new_len as u32).rev().collect();
        self.occupied = 0;
        let saved_stats = self.stats.clone();
        for slot in old {
            match slot {
                Slot::Free => {}
                Slot::Ext(_) => unreachable!("extensions cannot exist in growable mode"),
                Slot::Parent(p) => {
                    let probe = self.probe(p.addr);
                    debug_assert!(probe.found.is_none());
                    let (idx, _) = self
                        .place_parent(p.addr, p.size, probe.tail)
                        .expect("doubled table cannot be full");
                    let node = self.parent_mut(idx);
                    node.is_out = p.is_out;
                    node.rdrs = p.rdrs;
                    node.ww = p.ww;
                    node.waiters = p.waiters;
                    let spare = std::mem::replace(&mut node.kick, p.kick);
                    self.keep_kick(spare);
                }
            }
        }
        // Rehash bookkeeping is an artifact of the software model; keep the
        // externally meaningful statistics.
        self.stats = saved_stats;
    }

    /// Insert a fresh parent node for `addr` (which must be absent; the
    /// caller passes the `tail` from its probe of `addr`). Maintains the
    /// home-slot invariant. Returns `(slot, cost)` where cost covers only
    /// the placement work (the probe was already charged).
    fn place_parent(
        &mut self,
        addr: u64,
        size: u32,
        tail: Option<u32>,
    ) -> Result<(u32, OpCost), TableFull> {
        let home = self.bucket(addr);
        let (slot, prev, cost) = if let Some(tail) = tail {
            // Chain exists at home: append at the tail.
            let slot = self.pop_free()?;
            self.parent_mut(tail).next = Some(slot);
            (slot, Some(tail), OpCost::table(2))
        } else if matches!(self.slots[home as usize], Slot::Free) {
            // Home free: become the chain head there (the slot's stale
            // entry in the free vector is skipped lazily later).
            (home, None, OpCost::table(1))
        } else {
            // Home occupied by a foreign node: relocate it, then claim
            // the home slot as this bucket's head.
            let spare = self.pop_free()?;
            (home, None, self.relocate(home, spare) + OpCost::table(1))
        };
        self.note_occupied();
        self.slots[slot as usize] = Slot::Parent(ParentNode {
            addr,
            size,
            is_out: false,
            rdrs: 0,
            ww: false,
            kick: self.spare_kicks.pop().unwrap_or_default(),
            next: None,
            prev,
            ext_head: None,
            ext_last: None,
            ext_count: 0,
            waiters: 0,
        });
        self.stats.inserts += 1;
        Ok((slot, cost))
    }

    /// Remove the parent at `idx` (kick list must be drained). Maintains
    /// the home-slot invariant by pulling the next chain node into the home
    /// slot when a head with successors is removed.
    fn remove_parent(&mut self, idx: u32) -> OpCost {
        let p = self.parent(idx);
        debug_assert!(
            p.kick.is_empty() && p.ext_head.is_none(),
            "removing entry with waiters"
        );
        let (prev, next) = (p.prev, p.next);
        let mut cost = OpCost::table(1);
        match prev {
            Some(pv) => {
                // Mid/tail node: unlink.
                self.parent_mut(pv).next = next;
                cost += OpCost::table(1);
                if let Some(nx) = next {
                    self.parent_mut(nx).prev = Some(pv);
                    cost += OpCost::table(1);
                }
                self.release_slot(idx);
            }
            None => {
                // Chain head at the home slot.
                match next {
                    None => self.release_slot(idx),
                    Some(nx) => {
                        // Pull the successor into the home slot.
                        if let Slot::Parent(p) =
                            std::mem::replace(&mut self.slots[idx as usize], Slot::Free)
                        {
                            self.keep_kick(p.kick);
                        }
                        let mut node =
                            match std::mem::replace(&mut self.slots[nx as usize], Slot::Free) {
                                Slot::Parent(p) => p,
                                other => panic!("chain successor is not a parent: {other:?}"),
                            };
                        node.prev = None;
                        if let Some(nn) = node.next {
                            self.parent_mut(nn).prev = Some(idx);
                            cost += OpCost::table(1);
                        }
                        let mut ext = node.ext_head;
                        while let Some(e) = ext {
                            let x = self.ext_mut(e);
                            x.owner = idx;
                            ext = x.next;
                            cost += OpCost::table(1);
                        }
                        self.slots[idx as usize] = Slot::Parent(node);
                        self.free.push(nx);
                        self.occupied -= 1;
                        cost += OpCost::table(2);
                    }
                }
            }
        }
        self.stats.deletes += 1;
        cost
    }

    /// Queue `w` in the kick-off list of the parent at `idx`, chaining a
    /// new extension (dummy) entry if the tail list is full.
    fn kick_push(&mut self, idx: u32, w: Waiter) -> Result<OpCost, TableFull> {
        let cap = self.kickoff_cap;
        let p = self.parent_mut(idx);
        if p.ext_head.is_none() && p.kick.len() < cap {
            p.kick.push_back(w);
            let n = p.waiters + 1;
            p.waiters = n;
            self.note_waiters(n);
            return Ok(OpCost::table(1));
        }
        if let Some(last) = p.ext_last {
            let x = self.ext_mut(last);
            if x.items.len() < cap {
                x.items.push_back(w);
                let p = self.parent_mut(idx);
                let n = p.waiters + 1;
                p.waiters = n;
                self.note_waiters(n);
                return Ok(OpCost::table(2));
            }
        }
        // Allocate a fresh extension entry.
        let slot = self.pop_free()?;
        self.note_occupied();
        let p = self.parent_mut(idx);
        let old_last = p.ext_last;
        if p.ext_head.is_none() {
            p.ext_head = Some(slot);
        }
        p.ext_last = Some(slot);
        p.ext_count += 1;
        let kick_chain = 1 + p.ext_count as u64;
        if kick_chain > self.stats.max_kick_chain {
            self.stats.max_kick_chain = kick_chain;
        }
        if let Some(ol) = old_last {
            self.ext_mut(ol).next = Some(slot);
        }
        let mut items = VecDeque::new();
        items.push_back(w);
        self.slots[slot as usize] = Slot::Ext(ExtNode {
            owner: idx,
            next: None,
            items,
        });
        self.stats.ext_allocs += 1;
        let p = self.parent_mut(idx);
        let n = p.waiters + 1;
        p.waiters = n;
        self.note_waiters(n);
        Ok(OpCost::table(3))
    }

    #[inline]
    fn note_waiters(&mut self, n: u32) {
        if n as u64 > self.stats.max_waiters_live {
            self.stats.max_waiters_live = n as u64;
        }
    }

    /// Pop the head waiter of the parent at `idx`, promoting the first
    /// extension's contents when the parent list drains (keeping invariant
    /// 2: list empty ⇒ no extensions).
    fn kick_pop(&mut self, idx: u32) -> (Option<Waiter>, OpCost) {
        let p = self.parent_mut(idx);
        let w = p.kick.pop_front();
        if w.is_some() {
            p.waiters -= 1;
        }
        let mut cost = OpCost::table(1);
        if p.kick.is_empty() {
            if let Some(e) = p.ext_head {
                let ext = match std::mem::replace(&mut self.slots[e as usize], Slot::Free) {
                    Slot::Ext(x) => x,
                    other => panic!("broken ext chain: {other:?}"),
                };
                self.free.push(e);
                self.occupied -= 1;
                let p = self.parent_mut(idx);
                p.kick = ext.items;
                p.ext_head = ext.next;
                p.ext_count -= 1;
                if ext.next.is_none() {
                    p.ext_last = None;
                }
                self.stats.promotions += 1;
                cost += OpCost::table(2);
            }
        }
        (w, cost)
    }

    /// Check one parameter of a new task against the table — one iteration
    /// of the Listing 2 loop. On `Dependent`, the caller increments the
    /// task's Dependence Counter.
    pub(crate) fn check_param(
        &mut self,
        td: TdIndex,
        addr: u64,
        size: u32,
        mode: AccessMode,
    ) -> Result<(CheckParamOutcome, OpCost), TableFull> {
        loop {
            let probe = self.probe_recorded(addr);
            let mut cost = OpCost::table(probe.hops);
            let result = match probe.found {
                None => {
                    // `if (A not exist) { Add A to DT; … }`
                    match self.place_parent(addr, size, probe.tail) {
                        Ok((idx, c2)) => {
                            cost += c2;
                            let p = self.parent_mut(idx);
                            if mode.is_read_only() {
                                p.rdrs = 1;
                                p.is_out = false;
                            } else {
                                p.is_out = true;
                            }
                            Ok((CheckParamOutcome::NoDependency, cost))
                        }
                        Err(TableFull) => Err(TableFull),
                    }
                }
                Some(idx) => {
                    let (is_out, ww) = {
                        let p = self.parent(idx);
                        (p.is_out, p.ww)
                    };
                    if mode.is_read_only() {
                        if !is_out && !ww {
                            // `DT[A].Rdrs++`
                            let p = self.parent_mut(idx);
                            debug_assert!(p.rdrs > 0, "live read entry must have readers");
                            p.rdrs += 1;
                            cost += OpCost::table(1);
                            Ok((CheckParamOutcome::NoDependency, cost))
                        } else {
                            // RAW (or reader behind a waiting writer).
                            match self.kick_push(idx, Waiter { td, mode }) {
                                Ok(c2) => Ok((CheckParamOutcome::Dependent, cost + c2)),
                                Err(TableFull) => Err(TableFull),
                            }
                        }
                    } else {
                        // Writer: queue regardless (RAW/WAW/WAR), set `ww`
                        // if the segment is currently reader-owned.
                        match self.kick_push(idx, Waiter { td, mode }) {
                            Ok(c2) => {
                                cost += c2;
                                let p = self.parent_mut(idx);
                                if !p.is_out {
                                    p.ww = true;
                                    cost += OpCost::table(1);
                                }
                                Ok((CheckParamOutcome::Dependent, cost))
                            }
                            Err(TableFull) => Err(TableFull),
                        }
                    }
                }
            };
            match result {
                Ok(ok) => return Ok(ok),
                Err(TableFull) if self.growable => {
                    self.grow();
                    continue;
                }
                Err(TableFull) => return Err(TableFull),
            }
        }
    }

    /// [`finish_param_into`](Self::finish_param_into) into a fresh
    /// [`WakeResult`].
    #[cfg(test)]
    pub(crate) fn finish_param(&mut self, addr: u64, mode: AccessMode) -> WakeResult {
        let mut wake = WakeResult::default();
        (wake.deleted, wake.cost) = self.finish_param_into(addr, mode, &mut wake.woken);
        wake
    }

    /// Release one parameter of a finished task — the `Handle Finished`
    /// narrative of §III-B — appending the woken to `woken`. Never
    /// stalls: a release claims no table entry. Returns whether the entry was removed, and the table
    /// accesses performed.
    pub(crate) fn finish_param_into(
        &mut self,
        addr: u64,
        mode: AccessMode,
        woken: &mut Vec<Waiter>,
    ) -> (bool, OpCost) {
        let probe = self.probe_recorded(addr);
        let mut cost = OpCost::table(probe.hops);
        let idx = probe
            .found
            .unwrap_or_else(|| panic!("finish_param: address {addr:#x} not tracked"));
        let first = woken.len();
        let mut deleted = false;

        if mode.is_read_only() {
            // "if T1 has read-only A, then the Rdrs count of A is
            // decremented."
            let p = self.parent_mut(idx);
            debug_assert!(p.rdrs > 0, "reader finish with Rdrs == 0");
            debug_assert!(!p.is_out, "reader finish on writer-owned entry");
            p.rdrs -= 1;
            cost += OpCost::table(1);
            if p.rdrs == 0 {
                if !p.ww {
                    // "If it becomes 0 and no writer task is waiting, then A
                    // is deleted from the Dependence Table."
                    debug_assert!(p.kick.is_empty());
                    cost += self.remove_parent(idx);
                    deleted = true;
                } else {
                    // "But if the ww flag was true, then a pending task T2
                    // must exist and is read from Kick-Off List of A."
                    let (w, c2) = self.kick_pop(idx);
                    cost += c2;
                    let w = w.expect("ww set but kick-off list empty");
                    debug_assert!(!w.mode.is_read_only(), "ww head must be a writer");
                    let p = self.parent_mut(idx);
                    p.is_out = true;
                    p.ww = false;
                    woken.push(w);
                }
            }
        } else {
            // Writer finished.
            let p = self.parent_mut(idx);
            debug_assert!(p.is_out, "writer finish on reader-owned entry");
            debug_assert_eq!(p.rdrs, 0, "writer finish with readers present");
            if p.kick.is_empty() {
                debug_assert!(p.ext_head.is_none());
                cost += self.remove_parent(idx);
                deleted = true;
            } else {
                // "continuously read these tasks IDs one after the other as
                // long as they read-only A, until it reads a task that is
                // willing to write A, or the Kick-Off List of A is empty."
                loop {
                    let head = self.parent(idx).kick.front().copied();
                    cost += OpCost::table(1);
                    match head {
                        Some(w) if w.mode.is_read_only() => {
                            let (popped, c2) = self.kick_pop(idx);
                            cost += c2;
                            debug_assert_eq!(popped, Some(w));
                            self.parent_mut(idx).rdrs += 1;
                            woken.push(w);
                        }
                        Some(w) => {
                            // A writer heads the queue.
                            if woken.len() == first {
                                // No intervening readers: hand over directly.
                                let (popped, c2) = self.kick_pop(idx);
                                cost += c2;
                                debug_assert_eq!(popped, Some(w));
                                debug_assert!(!self.parent(idx).ww);
                                woken.push(w);
                                // `is_out` stays true for the new writer.
                            } else {
                                // Readers drained first: the writer waits.
                                let p = self.parent_mut(idx);
                                p.is_out = false;
                                p.ww = true;
                                cost += OpCost::table(1);
                            }
                            break;
                        }
                        None => {
                            // All waiters were readers.
                            let p = self.parent_mut(idx);
                            debug_assert!(woken.len() > first);
                            p.is_out = false;
                            p.ww = false;
                            cost += OpCost::table(1);
                            break;
                        }
                    }
                }
            }
        }
        self.debug_check_entry(addr);
        (deleted, cost)
    }

    /// Debug invariant: a live entry is writer-owned or has readers; an
    /// empty parent kick list implies no extensions.
    fn debug_check_entry(&self, addr: u64) {
        #[cfg(debug_assertions)]
        {
            if let Some(idx) = self.probe(addr).found {
                let p = self.parent(idx);
                assert!(
                    p.is_out || p.rdrs > 0,
                    "live entry {addr:#x} neither written nor read"
                );
                if p.kick.is_empty() {
                    assert!(p.ext_head.is_none(), "empty kick list with extensions");
                }
                if p.ww {
                    assert!(!p.kick.is_empty(), "ww set with empty kick list");
                }
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = addr;
    }

    /// Full structural scan asserting every invariant (tests only; O(n)).
    pub fn check_invariants(&self) {
        let mut seen_occupied = 0;
        for (i, s) in self.slots.iter().enumerate() {
            match s {
                Slot::Free => {}
                Slot::Parent(p) => {
                    seen_occupied += 1;
                    let home = self.bucket(p.addr);
                    match p.prev {
                        None => assert_eq!(home, i as u32, "chain head not at home slot"),
                        Some(pv) => {
                            let prev = self.parent(pv);
                            assert_eq!(prev.next, Some(i as u32), "broken prev link");
                            assert_eq!(self.bucket(prev.addr), home, "mixed-bucket chain");
                        }
                    }
                    assert!(p.is_out || p.rdrs > 0, "dead entry {:#x} retained", p.addr);
                    if p.kick.is_empty() {
                        assert!(p.ext_head.is_none());
                    }
                    if p.ext_head.is_none() {
                        assert!(p.ext_last.is_none());
                        assert_eq!(p.ext_count, 0);
                    }
                    assert!(p.kick.len() <= self.kickoff_cap);
                    {
                        let mut total = p.kick.len();
                        let mut cur = p.ext_head;
                        while let Some(c) = cur {
                            match &self.slots[c as usize] {
                                Slot::Ext(x) => {
                                    total += x.items.len();
                                    cur = x.next;
                                }
                                other => panic!("broken ext chain: {other:?}"),
                            }
                        }
                        assert_eq!(total, p.waiters as usize, "waiter count drift");
                    }
                }
                Slot::Ext(x) => {
                    seen_occupied += 1;
                    assert!(!x.items.is_empty(), "empty extension entry retained");
                    assert!(x.items.len() <= self.kickoff_cap);
                    let owner = self.parent(x.owner);
                    // The owner's chain must reach this extension.
                    let mut cur = owner.ext_head;
                    let mut reached = false;
                    while let Some(c) = cur {
                        if c == i as u32 {
                            reached = true;
                            break;
                        }
                        cur = match &self.slots[c as usize] {
                            Slot::Ext(e) => e.next,
                            other => panic!("broken ext chain: {other:?}"),
                        };
                    }
                    assert!(reached, "orphan extension entry");
                }
            }
        }
        assert_eq!(seen_occupied, self.occupied, "occupancy accounting drift");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(entries: usize, kick: usize) -> DepTable {
        DepTable::new(&NexusConfig {
            dep_table_entries: entries,
            kickoff_entries: kick,
            ..Default::default()
        })
    }

    fn td(i: u32) -> TdIndex {
        TdIndex(i)
    }

    #[test]
    fn reader_then_reader_shares() {
        let mut t = table(16, 8);
        let (o, _) = t.check_param(td(1), 0xA0, 4, AccessMode::In).unwrap();
        assert_eq!(o, CheckParamOutcome::NoDependency);
        let (o, _) = t.check_param(td(2), 0xA0, 4, AccessMode::In).unwrap();
        assert_eq!(o, CheckParamOutcome::NoDependency);
        assert_eq!(t.readers_of(0xA0), Some(2));
        t.check_invariants();
    }

    #[test]
    fn raw_hazard_queues_reader() {
        let mut t = table(16, 8);
        t.check_param(td(1), 0xB0, 4, AccessMode::Out).unwrap();
        let (o, _) = t.check_param(td(2), 0xB0, 4, AccessMode::In).unwrap();
        assert_eq!(o, CheckParamOutcome::Dependent);
        assert_eq!(t.waiters_of(0xB0), Some(1));
        // Writer finishes → reader woken.
        let r = t.finish_param(0xB0, AccessMode::Out);
        assert_eq!(
            r.woken,
            vec![Waiter {
                td: td(2),
                mode: AccessMode::In
            }]
        );
        assert!(!r.deleted);
        assert_eq!(t.readers_of(0xB0), Some(1));
        // Reader finishes → entry deleted.
        let r = t.finish_param(0xB0, AccessMode::In);
        assert!(r.deleted);
        assert!(!t.contains(0xB0));
        t.check_invariants();
    }

    #[test]
    fn war_hazard_uses_ww_flag() {
        let mut t = table(16, 8);
        t.check_param(td(1), 0xC0, 4, AccessMode::In).unwrap();
        t.check_param(td(2), 0xC0, 4, AccessMode::In).unwrap();
        // Writer must wait for both readers (WAR).
        let (o, _) = t.check_param(td(3), 0xC0, 4, AccessMode::Out).unwrap();
        assert_eq!(o, CheckParamOutcome::Dependent);
        // A later reader may not jump the waiting writer.
        let (o, _) = t.check_param(td(4), 0xC0, 4, AccessMode::In).unwrap();
        assert_eq!(o, CheckParamOutcome::Dependent);
        let r = t.finish_param(0xC0, AccessMode::In);
        assert!(r.woken.is_empty(), "one reader still active");
        let r = t.finish_param(0xC0, AccessMode::In);
        assert_eq!(
            r.woken,
            vec![Waiter {
                td: td(3),
                mode: AccessMode::Out
            }]
        );
        assert_eq!(t.is_written(0xC0), Some(true));
        // Writer done → queued reader wakes.
        let r = t.finish_param(0xC0, AccessMode::Out);
        assert_eq!(
            r.woken,
            vec![Waiter {
                td: td(4),
                mode: AccessMode::In
            }]
        );
        let r = t.finish_param(0xC0, AccessMode::In);
        assert!(r.deleted);
        t.check_invariants();
    }

    #[test]
    fn waw_hand_over_without_intervening_readers() {
        let mut t = table(16, 8);
        t.check_param(td(1), 0xD0, 4, AccessMode::Out).unwrap();
        let (o, _) = t.check_param(td(2), 0xD0, 4, AccessMode::Out).unwrap();
        assert_eq!(o, CheckParamOutcome::Dependent);
        let r = t.finish_param(0xD0, AccessMode::Out);
        assert_eq!(
            r.woken,
            vec![Waiter {
                td: td(2),
                mode: AccessMode::Out
            }]
        );
        assert_eq!(t.is_written(0xD0), Some(true));
        let r = t.finish_param(0xD0, AccessMode::Out);
        assert!(r.deleted);
        t.check_invariants();
    }

    #[test]
    fn drain_readers_until_writer() {
        let mut t = table(32, 8);
        t.check_param(td(1), 0xE0, 4, AccessMode::Out).unwrap();
        t.check_param(td(2), 0xE0, 4, AccessMode::In).unwrap();
        t.check_param(td(3), 0xE0, 4, AccessMode::In).unwrap();
        t.check_param(td(4), 0xE0, 4, AccessMode::InOut).unwrap();
        t.check_param(td(5), 0xE0, 4, AccessMode::In).unwrap();
        // W1 finishes: R2, R3 drain; W4 blocks the queue; R5 stays behind.
        let r = t.finish_param(0xE0, AccessMode::Out);
        assert_eq!(
            r.woken.iter().map(|w| w.td).collect::<Vec<_>>(),
            vec![td(2), td(3)]
        );
        assert_eq!(t.readers_of(0xE0), Some(2));
        assert_eq!(t.waiters_of(0xE0), Some(2));
        t.finish_param(0xE0, AccessMode::In);
        let r = t.finish_param(0xE0, AccessMode::In);
        assert_eq!(
            r.woken.iter().map(|w| w.td).collect::<Vec<_>>(),
            vec![td(4)]
        );
        let r = t.finish_param(0xE0, AccessMode::InOut);
        assert_eq!(
            r.woken.iter().map(|w| w.td).collect::<Vec<_>>(),
            vec![td(5)]
        );
        let r = t.finish_param(0xE0, AccessMode::In);
        assert!(r.deleted);
        t.check_invariants();
    }

    #[test]
    fn kick_list_overflows_into_dummy_entries() {
        let mut t = table(64, 2); // tiny kick lists to force extensions
        t.check_param(td(0), 0xF0, 4, AccessMode::Out).unwrap();
        for i in 1..=7 {
            let (o, _) = t.check_param(td(i), 0xF0, 4, AccessMode::In).unwrap();
            assert_eq!(o, CheckParamOutcome::Dependent);
        }
        assert_eq!(t.waiters_of(0xF0), Some(7));
        // 7 waiters at cap 2 → parent(2) + ext(2) + ext(2) + ext(1).
        assert_eq!(t.stats().ext_allocs, 3);
        assert_eq!(t.stats().max_kick_chain, 4);
        t.check_invariants();
        // Waking drains across extension boundaries in FIFO order.
        let r = t.finish_param(0xF0, AccessMode::Out);
        assert_eq!(
            r.woken.iter().map(|w| w.td.0).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5, 6, 7]
        );
        assert_eq!(t.stats().promotions, 3);
        t.check_invariants();
        for _ in 0..6 {
            t.finish_param(0xF0, AccessMode::In);
        }
        let r = t.finish_param(0xF0, AccessMode::In);
        assert!(r.deleted);
        assert_eq!(t.occupied(), 0);
        t.check_invariants();
    }

    #[test]
    fn hash_collisions_chain_and_unchain() {
        // 2-entry table: everything collides.
        let mut t = table(2, 8);
        t.check_param(td(1), 0x10, 4, AccessMode::Out).unwrap();
        t.check_param(td(2), 0x20, 4, AccessMode::Out).unwrap();
        assert!(t.contains(0x10) && t.contains(0x20));
        t.check_invariants();
        // Third address: table full.
        assert_eq!(
            t.check_param(td(3), 0x30, 4, AccessMode::Out),
            Err(TableFull)
        );
        assert_eq!(t.stats().full_rejections, 1);
        // Delete in both orders.
        let r = t.finish_param(0x10, AccessMode::Out);
        assert!(r.deleted);
        assert!(t.contains(0x20));
        t.check_invariants();
        let r = t.finish_param(0x20, AccessMode::Out);
        assert!(r.deleted);
        assert_eq!(t.occupied(), 0);
        t.check_invariants();
    }

    #[test]
    fn table_full_then_retry_after_free() {
        let mut t = table(2, 8);
        t.check_param(td(1), 0x10, 4, AccessMode::Out).unwrap();
        t.check_param(td(2), 0x20, 4, AccessMode::Out).unwrap();
        assert_eq!(
            t.check_param(td(3), 0x30, 4, AccessMode::Out),
            Err(TableFull)
        );
        t.finish_param(0x10, AccessMode::Out);
        // Space freed → the stalled check can retry successfully.
        let (o, _) = t.check_param(td(3), 0x30, 4, AccessMode::Out).unwrap();
        assert_eq!(o, CheckParamOutcome::NoDependency);
        t.check_invariants();
    }

    #[test]
    fn many_addresses_roundtrip_with_invariants() {
        let mut t = table(256, 8);
        for a in 0..200u64 {
            t.check_param(td(a as u32), 0x1000 + a * 8, 8, AccessMode::Out)
                .unwrap();
        }
        t.check_invariants();
        assert_eq!(t.live_addresses(), 200);
        for a in (0..200u64).rev() {
            let r = t.finish_param(0x1000 + a * 8, AccessMode::Out);
            assert!(r.deleted);
        }
        t.check_invariants();
        assert_eq!(t.occupied(), 0);
        assert_eq!(t.stats().deletes, 200);
    }

    #[test]
    fn slot_reuse_after_churn() {
        // Repeated fill/drain cycles must not leak slots.
        let mut t = table(32, 2);
        for round in 0..50u64 {
            for a in 0..16u64 {
                t.check_param(td(a as u32), round * 1000 + a * 8, 8, AccessMode::Out)
                    .unwrap();
            }
            for a in 0..16u64 {
                assert!(
                    t.finish_param(round * 1000 + a * 8, AccessMode::Out)
                        .deleted
                );
            }
            assert_eq!(t.occupied(), 0);
        }
        t.check_invariants();
    }

    #[test]
    fn growable_table_never_fills() {
        let mut t = DepTable::new(&NexusConfig::unbounded());
        for a in 0..5000u64 {
            t.check_param(td(a as u32), a * 16, 8, AccessMode::Out)
                .unwrap();
        }
        assert!(t.capacity() >= 5000);
        assert_eq!(t.live_addresses(), 5000);
        t.check_invariants();
        for a in 0..5000u64 {
            assert!(t.finish_param(a * 16, AccessMode::Out).deleted);
        }
        assert_eq!(t.occupied(), 0);
    }

    #[test]
    fn chain_statistics_shrink_with_table_size() {
        // Same address stream through a small and a large table: the small
        // one must see longer chains (the Figure 6 effect).
        let run = |entries: usize| {
            let mut t = table(entries, 8);
            for a in 0..32u64 {
                t.check_param(td(a as u32), 0x40 + a * 8, 8, AccessMode::Out)
                    .unwrap();
            }
            t.stats().max_chain_len
        };
        let small = run(64);
        let large = run(4096);
        assert!(small >= large);
    }

    #[test]
    #[should_panic]
    fn finish_unknown_address_panics() {
        let mut t = table(8, 8);
        t.finish_param(0xDEAD, AccessMode::In);
    }

    #[test]
    fn shard_router_is_total_and_roughly_balanced() {
        for n in [1usize, 2, 4, 8] {
            let mut counts = vec![0u64; n];
            for a in 0..4096u64 {
                counts[shard_of_addr(0x1000 + a * 64, n)] += 1;
            }
            let expect = 4096 / n as u64;
            for (s, c) in counts.iter().enumerate() {
                assert!(
                    *c > expect / 2 && *c < expect * 2,
                    "shard {s}/{n} holds {c} of 4096 addresses"
                );
            }
        }
        // Determinism: the router is a pure function of (addr, n).
        assert_eq!(shard_of_addr(0xAB, 8), shard_of_addr(0xAB, 8));
    }
}
