//! The sharded resolution protocol, written once. [`ShardedEngine`]
//! (single-threaded, `&mut self`) and [`ShardDispatcher`] (per-shard
//! locks) are two drivers of the four rules below; each supplies only
//! its own concurrency.
//!
//! * **Route** ([`Route`]) — every parameter address belongs to exactly
//!   one shard, chosen by [`shard_of_addr`] (high bits of the table's own
//!   hash family, so the assignment is stable and statistically
//!   independent of in-shard bucketing). A task's parameter list splits
//!   into per-shard slices, parameter order kept inside each slice and
//!   first-touch order across shards.
//! * **Reserve** ([`Residency`]) — under a bounded [`ShardCapacity`] a
//!   task holds one residency slot on every shard it touches, reserved
//!   all-or-nothing before any slice is admitted, so a rejection names
//!   the first full shard and leaves nothing behind. Each finished slice
//!   releases its slot: that is the shard's "finish report" a stalled
//!   submitter resumes on, like the paper's master core on a full Task
//!   Pool.
//! * **Admit and check** ([`Slices`]) — each involved shard admits a
//!   *sub-descriptor* holding its slice and runs the paper's Listing 2
//!   loop over it against its own Dependence Table, recording which home
//!   record owns the sub-descriptor.
//! * **Remote count** ([`Remote`]) — the home record carries a remote
//!   dependence counter initialized to `slices + 1`. Every slice found (or
//!   later made) conflict-free releases one unit; the extra unit is a
//!   *submission guard* released only after every slice is admitted, so
//!   a task can never become ready half-submitted. Whoever performs the
//!   transition to zero — the submitter or a finisher — owns the task and
//!   schedules it, exactly once. Where a home record is the slot of its
//!   home slice's Task Pool index ([`Home`], the threaded driver's), the
//!   index is reused, so a reference carries the slot's generation
//!   ([`HomeRef`]) and [`Home::release`] rejects one taken before the
//!   slot was last freed, leaving the next occupant alone.
//! * **Finish** — every involved shard releases its slice and maps the
//!   sub-descriptors it kicked off to their home records; each is one
//!   remote release. Wake-ups only ever travel finish → home, so the
//!   per-shard wakes of one completion commute and the aggregate is
//!   order-insensitive.
//!
//! Equivalence with the single engine is structural: distinct addresses
//! impose independent constraints in the Dependence Table, so splitting
//! the table by address partitions both the state and the wake-up traffic
//! without changing either. `tests/sharded_differential.rs` and
//! `tests/capacity_differential.rs` check it against the single engine
//! and the oracle DAG, through both drivers.
//!
//! The shard engines must be growable: neither driver can resolve a
//! mid-admission table stall by waiting (the software structures
//! virtualize table capacity; the finite-hardware bound is
//! [`Residency`]).
//!
//! A route reads its slices off the caller's parameter list, and each
//! admission copies its slice into a list of the shard's own: one kept
//! from a released slice, a fresh one of the slice's length when none is
//! spare. Both drivers recycle alike, since a release keeps its slice's
//! list for the shard's next admission. A release reports the woken into
//! the caller's buffer.
//!
//! [`ShardedEngine`]: crate::ShardedEngine
//! [`ShardDispatcher`]: crate::ShardDispatcher

use nexuspp_core::engine::CheckProgress;
use nexuspp_core::{shard_of_addr, DependencyEngine, NexusConfig, OpCost, ShardCapacity, TdIndex};
use nexuspp_trace::Param;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

/// How many items a [`Few`] holds in place by default: a task routed over
/// at most this many shards needs no heap block for its route or its
/// parts.
const INLINE: usize = 4;

/// How many parameters a [`Route`] records in place: a Task Descriptor's
/// width in the paper's Table IV.
const TD_WIDTH: usize = 8;

/// A short list kept in place, spilling to a `Vec` past `N` items, as
/// the Task Pool chains a dummy descriptor past a full one.
#[derive(Clone)]
pub(crate) struct Few<T, const N: usize = INLINE> {
    len: usize,
    inline: [T; N],
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> Default for Few<T, N> {
    fn default() -> Self {
        Few {
            len: 0,
            inline: [T::default(); N],
            spill: Vec::new(),
        }
    }
}

impl<T: Copy, const N: usize> Few<T, N> {
    pub(crate) fn push(&mut self, item: T) {
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = item,
            None => self.spill.push(item),
        }
        self.len += 1;
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.inline[..self.len.min(N)]
            .iter()
            .chain(&self.spill)
            .copied()
    }

    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.inline[..self.len.min(N)]
            .iter_mut()
            .chain(&mut self.spill)
    }

    /// Empty the list, keeping the spill's storage.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }
}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for Few<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for Few<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<T: Copy + Eq, const N: usize> Eq for Few<T, N> {}

/// A task's parameter list split by shard without copying it, in one
/// pass that hashes each address once: the shards it touches in
/// first-touch order with their slice lengths, and each parameter's
/// shard, from which a slice is read off the list when its shard admits
/// it.
pub(crate) struct Route<'p> {
    params: &'p [Param],
    /// Each touched shard and the length of its slice.
    shards: Few<(u32, usize)>,
    /// Each parameter's shard, in parameter order.
    shard_of: Few<u32, TD_WIDTH>,
}

impl<'p> Route<'p> {
    pub(crate) fn new(params: &'p [Param], n_shards: usize) -> Self {
        let mut shards: Few<(u32, usize)> = Few::default();
        let mut shard_of = Few::default();
        for p in params {
            let s = shard_of_addr(p.addr, n_shards) as u32;
            shard_of.push(s);
            let seen = shards.iter_mut().find(|(g, _)| *g == s);
            match seen {
                Some((_, len)) => *len += 1,
                None => shards.push((s, 1)),
            }
        }
        Route {
            params,
            shards,
            shard_of,
        }
    }

    /// The shards touched, in first-touch order.
    pub(crate) fn shards(&self) -> impl Iterator<Item = u32> + '_ {
        self.shards.iter().map(|(s, _)| s)
    }

    /// How many shards the task touches.
    pub(crate) fn len(&self) -> usize {
        self.shards.len()
    }

    /// Each touched shard in first-touch order, with its slice: the
    /// slice's length and its parameters in parameter order.
    pub(crate) fn slices(
        &self,
    ) -> impl Iterator<Item = (u32, usize, impl Iterator<Item = Param> + '_)> + '_ {
        self.shards.iter().map(move |(s, len)| {
            let slice = self
                .params
                .iter()
                .zip(self.shard_of.iter())
                .filter(move |&(_, g)| g == s)
                .map(|(p, _)| *p);
            (s, len, slice)
        })
    }
}

/// Per-shard residency counts under a [`ShardCapacity`].
#[derive(Debug)]
pub(crate) struct Residency {
    capacity: ShardCapacity,
    resident: Box<[AtomicU32]>,
}

impl Residency {
    pub(crate) fn new(n_shards: usize, capacity: ShardCapacity) -> Self {
        capacity.validate();
        Residency {
            capacity,
            resident: (0..n_shards).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    pub(crate) fn capacity(&self) -> ShardCapacity {
        self.capacity
    }

    /// Tasks holding a slot on shard `s` (0 when unbounded).
    pub(crate) fn resident(&self, s: usize) -> usize {
        self.resident[s].load(Ordering::Acquire) as usize
    }

    /// Reserve one slot on every shard of `route`, in route order. On the
    /// first full shard, roll back what was taken and name that shard.
    pub(crate) fn try_reserve(&self, route: &Route) -> Result<(), u32> {
        if !self.capacity.is_bounded() {
            return Ok(());
        }
        for (i, s) in route.shards().enumerate() {
            let reserved = self.resident[s as usize]
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |r| {
                    self.capacity.admits(r as usize).then_some(r + 1)
                })
                .is_ok();
            if !reserved {
                for t in route.shards().take(i) {
                    self.release(t);
                }
                return Err(s);
            }
        }
        Ok(())
    }

    /// Give back shard `s`'s slot of one finished (or rolled-back) slice.
    pub(crate) fn release(&self, s: u32) {
        if self.capacity.is_bounded() {
            self.resident[s as usize].fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// One shard's state: its [`DependencyEngine`] plus the map from each
/// live sub-descriptor to the home record `H` of the task that owns it.
#[derive(Debug)]
pub(crate) struct Slices<H> {
    engine: DependencyEngine,
    owner: Vec<Option<H>>,
    /// The sub-descriptors one release made ready, reused across
    /// releases.
    ready: Vec<TdIndex>,
    /// Emptied parameter lists of released slices, kept for later
    /// admissions: at most one per sub-descriptor live at the shard's
    /// peak.
    spare: Vec<Vec<Param>>,
}

impl<H: Clone> Slices<H> {
    pub(crate) fn new(cfg: &NexusConfig) -> Self {
        Slices {
            engine: DependencyEngine::new(cfg),
            owner: Vec::new(),
            ready: Vec::new(),
            spare: Vec::new(),
        }
    }

    pub(crate) fn engine(&self) -> &DependencyEngine {
        &self.engine
    }

    /// Admit and check one slice of `len` parameters on behalf of the
    /// home record `home` names, given the slice's sub-descriptor.
    /// Returns the sub-descriptor, whether the slice is conflict-free,
    /// and the pool and table work done.
    pub(crate) fn submit(
        &mut self,
        fptr: u64,
        tag: u64,
        len: usize,
        slice: impl Iterator<Item = Param>,
        home: impl FnOnce(TdIndex) -> H,
    ) -> (TdIndex, bool, OpCost) {
        let mut list = self.spare.pop().unwrap_or_else(|| Vec::with_capacity(len));
        list.extend(slice);
        let (td, admit) = self
            .engine
            .admit(fptr, tag, list)
            .expect("growable engine cannot reject");
        let CheckProgress::Done { ready, cost } = self.engine.check(td) else {
            unreachable!("growable engine cannot stall");
        };
        let i = td.0 as usize;
        if i >= self.owner.len() {
            self.owner.resize_with(i + 1, || None);
        }
        self.owner[i] = Some(home(td));
        (td, ready, admit + cost)
    }

    /// Finish one slice: release it in the engine, clear its owner, keep
    /// its parameter list for a later admission, and append to `woken`
    /// the home records of the sub-descriptors it kicked off (one
    /// [`Remote::release`] each is due). Returns the work done.
    pub(crate) fn release(&mut self, td: TdIndex, woken: &mut Vec<H>) -> OpCost {
        let (cost, entry) = self.engine.finish_into(td, &mut self.ready);
        self.owner[td.0 as usize] = None;
        woken.extend(self.ready.drain(..).map(|w| {
            self.owner[w.0 as usize]
                .clone()
                .expect("woken sub-descriptor must have an owner")
        }));
        let mut list = entry.params;
        list.clear();
        self.spare.push(list);
        cost
    }
}

/// A task's remote dependence counter: its unready slices plus the
/// submission guard.
#[derive(Debug, Default)]
pub(crate) struct Remote(AtomicU32);

impl Remote {
    /// The counter of a task routed to `slices` shards, guard held.
    pub(crate) fn new(slices: usize) -> Self {
        Remote(AtomicU32::new(slices as u32 + 1))
    }

    /// Release one unit: a conflict-free slice, a remote wake, or the
    /// guard. True only for the release that reaches zero — its caller
    /// owns the task. The `AcqRel` chain orders everything every earlier
    /// releaser did (the submitter's payload store included) before the
    /// owner's hand-off.
    pub(crate) fn release(&self) -> bool {
        let before = self.0.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(before > 0, "remote decrement below zero");
        before == 1
    }

    /// True once every unit has been released (the task is, or was,
    /// ready).
    pub(crate) fn is_zero(&self) -> bool {
        self.0.load(Ordering::Acquire) == 0
    }
}

/// Where a task's home record lives: its home shard (the first shard of
/// its route), the slot there, which is its home slice's Task Pool
/// index, and the slot's generation when the task took it. Tickets and
/// kick-off references carry one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HomeRef {
    pub(crate) shard: u32,
    pub(crate) slot: u32,
    pub(crate) gen: u32,
}

/// A [`HomeRef`] whose slot was freed after the reference was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stale;

/// The shared half of a reusable home-record slot: the occupant's
/// [`Remote`] counter and the slot's generation, which every free
/// advances. Occupying and freeing run under the lock of the slot's
/// shard; releases come from any thread, holding only a [`HomeRef`].
#[derive(Debug, Default)]
pub(crate) struct Home {
    gen: AtomicU32,
    remote: Remote,
}

impl Home {
    /// Take the slot for a task routed to `slices` shards, guard held,
    /// and return the generation its references must carry. The caller
    /// holds the slot's shard lock.
    pub(crate) fn occupy(&self, slices: usize) -> u32 {
        self.remote.0.store(slices as u32 + 1, Ordering::Relaxed);
        self.gen.load(Ordering::Relaxed)
    }

    /// Free the slot of the occupant that took it at `gen`: every
    /// reference to it is stale from now on. The caller holds the slot's
    /// shard lock, so only loads and stores are needed.
    pub(crate) fn vacate(&self, gen: u32) {
        debug_assert_eq!(
            self.gen.load(Ordering::Relaxed),
            gen,
            "freeing a slot its ticket does not hold"
        );
        self.gen.store(gen.wrapping_add(1), Ordering::Release);
    }

    /// [`Remote::release`] on behalf of a reference taken at `gen`, or
    /// [`Stale`] — and the counter untouched — if the slot has been
    /// freed since. The one generation check. A reference that passes it
    /// cannot turn stale before its release lands: a holder of a live
    /// reference holds one of the occupant's units, so the occupant
    /// cannot become ready, run, finish and free the slot first.
    pub(crate) fn release(&self, gen: u32) -> Result<bool, Stale> {
        if self.gen.load(Ordering::Acquire) != gen {
            return Err(Stale);
        }
        Ok(self.remote.release())
    }

    /// True if only the submission guard is left: every slice released
    /// its unit, so no other thread will touch the slot again, and the
    /// submitter owns the task without releasing the guard.
    pub(crate) fn only_guard_left(&self) -> bool {
        self.remote.0.load(Ordering::Acquire) == 1
    }

    /// Units the occupant is still waiting for, guard included.
    #[cfg(test)]
    pub(crate) fn units(&self) -> u32 {
        self.remote.0.load(Ordering::Acquire)
    }
}
