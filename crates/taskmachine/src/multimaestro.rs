//! Multi-Maestro mode: a discrete-event model of *sharded* hardware
//! dependency resolution.
//!
//! Where [`machine`](crate::machine) models the paper's single Task
//! Maestro faithfully (five pipelined blocks, one Task Pool, one
//! Dependence Table), this module models the scaled-out design the
//! ROADMAP's north star asks for: **S** Maestro shards, each owning an
//! address partition with its own Task Pool slice and Dependence Table
//! (the semantics of [`ShardedEngine`], the single-threaded driver of the
//! sharded protocol the threaded dispatcher also runs), fed through a
//! **crossbar** —
//! per-shard round-robin arbiters over the request lines of the master
//! core and every worker's finish stream, the same
//! [`RoundRobinArbiter`] scan the single Maestro's `Send TDs` /
//! `Handle Finished` blocks use.
//!
//! Timing model (deliberately coarser than `machine`, focused on the
//! resolution fabric that sharding changes):
//!
//! * A task's admit+check decomposes into one **submit job** per involved
//!   shard, costing a fixed base plus the SRAM access time of that
//!   shard's pool/table touches (the paper's "on-chip access time
//!   multiplied by the number of lookups"). Jobs on different shards are
//!   serviced concurrently; a shard services one job at a time.
//! * Submissions are **batched** (the buffered-TP-write idea): up to
//!   `batch` consecutive tasks coalesce into a single job per involved
//!   shard, paying one base per shard per batch instead of one per task.
//! * A finished task likewise issues one **finish job** per involved
//!   shard from its worker's request line.
//! * Each shard owns a **kick-off FIFO** — a separate, *non-arbitrated*
//!   resource modeling the paper Maestro's Kick-Off List delivery (the
//!   software dispatcher, `nexuspp_shard::dispatch`, likewise delivers
//!   wakes outside the shard lock): when a shard's finish job completes, the tasks
//!   that release made ready enter that shard's FIFO immediately (no
//!   crossbar grant, no shard occupancy) and drain serially at
//!   [`MultiMaestroConfig::kickoff_cycles`] per wake. Per-shard peak
//!   depths and delivery counts are reported — the fan-in pressure
//!   `repro -- wakes` sweeps.
//! * Worker cores execute ready tasks for their trace `exec` time;
//!   memory modeling is out of scope here (use `machine` for that).
//!
//! The semantic engine runs eagerly at job *generation* (the model's
//! event order is a legal serial execution): one `ShardedEngine::submit`
//! per prepared task — a whole-task residency rejection is the master's
//! stall — and one `finish` per completion. So this mode inherits the
//! differentially-verified readiness semantics unchanged; only time is
//! modeled around it.

use crate::sram::SramTiming;
use nexuspp_core::{NexusConfig, ShardCapacity, Submission};
use nexuspp_desim::clock::NEXUS_CLOCK_MHZ;
use nexuspp_desim::stats::BusyTracker;
use nexuspp_desim::{Clock, RoundRobinArbiter, Scheduler, SimTime};
use nexuspp_shard::{OpBreakdown, ShardedEngine, ShardedFinish, TaskId};
use nexuspp_trace::Trace;
use std::collections::VecDeque;

/// Multi-Maestro configuration.
#[derive(Debug, Clone)]
pub struct MultiMaestroConfig {
    /// Maestro shards (address partitions).
    pub shards: usize,
    /// Worker cores.
    pub workers: usize,
    /// Submissions coalesced per shard visit (1 = unbatched).
    pub batch: usize,
    /// In-flight task window the master may run ahead (submission flow
    /// control; plays the role of the `TDs Sizes` backpressure).
    pub window: usize,
    /// Master task-preparation latency per task.
    pub prep_time: SimTime,
    /// Fixed cycles per submit job (Write TP + Check Deps bases).
    pub submit_base: u64,
    /// Fixed cycles per finish job (Handle Finished base).
    pub finish_base: u64,
    /// Cycles each kick-off notification spends leaving a shard's wake
    /// FIFO (the FIFO is non-arbitrated: delivery occupies neither the
    /// crossbar nor the shard, only the FIFO's own serial drain port).
    pub kickoff_cycles: u64,
    /// Per-shard SRAM timing.
    pub sram: SramTiming,
    /// Nexus++ clock domain.
    pub clock: Clock,
    /// Per-shard engine capacities. Must be growable (software tables
    /// virtualize in-shard storage); the *finite-hardware* bound is
    /// [`capacity`](Self::capacity).
    pub nexus: NexusConfig,
    /// Per-shard residency bound: each Maestro shard holds at most this
    /// many resident Task Descriptors. A submission hitting a full shard
    /// **stalls the master across the crossbar** — it stops preparing and
    /// sending Task Descriptors, exactly like the single-Maestro `machine`
    /// does on a full Task Pool — and retries when a finish phase
    /// completes at the shards (cycle-accounted: the master resumes at
    /// the finish job's crossbar completion time, not instantly).
    pub capacity: ShardCapacity,
}

impl Default for MultiMaestroConfig {
    fn default() -> Self {
        MultiMaestroConfig {
            shards: 4,
            workers: 8,
            batch: 8,
            window: 512,
            prep_time: SimTime::from_ns(30),
            submit_base: 4,
            finish_base: 6,
            kickoff_cycles: 1,
            sram: SramTiming::default(),
            clock: Clock::from_mhz(NEXUS_CLOCK_MHZ),
            nexus: NexusConfig::unbounded(),
            capacity: ShardCapacity::Unbounded,
        }
    }
}

impl MultiMaestroConfig {
    /// Default configuration at a given shard count.
    pub fn with_shards(shards: usize) -> Self {
        MultiMaestroConfig {
            shards,
            ..Default::default()
        }
    }

    /// Default configuration at a given shard count and residency bound.
    pub fn with_capacity(shards: usize, capacity: ShardCapacity) -> Self {
        MultiMaestroConfig {
            capacity,
            ..Self::with_shards(shards)
        }
    }

    /// Disable the master's preparation delay (resolution-bound studies).
    pub fn no_prep(mut self) -> Self {
        self.prep_time = SimTime::ZERO;
        self
    }

    /// Validate structural requirements.
    pub fn validate(&self) {
        assert!(self.shards >= 1, "need at least one shard");
        assert!(self.workers >= 1, "need at least one worker");
        assert!(self.batch >= 1, "batch must be >= 1");
        assert!(self.window >= self.batch, "window must cover one batch");
        assert!(self.kickoff_cycles >= 1, "kick-off delivery needs a cycle");
        assert!(
            self.nexus.growable,
            "multi-Maestro mode virtualizes table storage; use a growable NexusConfig \
             (bound residency via capacity)"
        );
        self.capacity.validate();
    }
}

/// Simulation results.
#[derive(Debug, Clone)]
pub struct MultiMaestroReport {
    /// Shards simulated.
    pub shards: usize,
    /// Worker cores simulated.
    pub workers: usize,
    /// Tasks completed.
    pub tasks: u64,
    /// Time of the last completion.
    pub makespan: SimTime,
    /// Busy time per shard (the load-balance picture).
    pub shard_busy: Vec<SimTime>,
    /// Jobs serviced per shard.
    pub shard_jobs: Vec<u64>,
    /// Largest backlog observed on any single shard's crossbar queues.
    pub peak_shard_queue: usize,
    /// Submission batches flushed.
    pub batches: u64,
    /// Total crossbar grants issued.
    pub crossbar_grants: u64,
    /// Residency bound the run was simulated under.
    pub capacity: ShardCapacity,
    /// Master stall episodes: times the master parked on a full shard and
    /// stopped sending Task Descriptors (0 when `capacity` is unbounded).
    pub master_capacity_stalls: u64,
    /// Stall episodes attributed to each shard (the episode's first full
    /// shard).
    pub shard_stalls: Vec<u64>,
    /// Episodes resolved by a successful retry, per shard (equals
    /// `shard_stalls` element-wise once the run drains — every stall is
    /// eventually resolved).
    pub shard_retries_resolved: Vec<u64>,
    /// Deepest each shard's kick-off wake FIFO got: how many ready tasks
    /// were queued for delivery at once (wide fan-in piles wakes onto the
    /// producer's home shard).
    pub shard_wake_peak: Vec<usize>,
    /// Kick-off notifications delivered per shard (every task that was
    /// not ready at submission is delivered exactly once).
    pub shard_wakes_delivered: Vec<u64>,
}

impl MultiMaestroReport {
    /// Modeled resolution throughput in tasks per second.
    pub fn tasks_per_sec(&self) -> f64 {
        if self.makespan.is_zero() {
            return 0.0;
        }
        self.tasks as f64 / (self.makespan.as_ns_f64() * 1e-9)
    }

    /// Busy-time imbalance: busiest shard over mean shard busy time
    /// (1.0 = perfectly balanced; ≈ shard count = single hot shard).
    pub fn imbalance(&self) -> f64 {
        let total: f64 = self.shard_busy.iter().map(|t| t.as_ns_f64()).sum();
        if total == 0.0 {
            return 1.0;
        }
        let max = self
            .shard_busy
            .iter()
            .map(|t| t.as_ns_f64())
            .fold(0.0, f64::max);
        max * self.shard_busy.len() as f64 / total
    }
}

#[derive(Debug, Clone)]
#[allow(clippy::enum_variant_names)] // the variants name completion edges
enum Ev {
    /// Master finished preparing the next task.
    PrepDone,
    /// Shard `s` finished its current job.
    ShardDone(u32),
    /// Worker `w` finished executing its task.
    ExecDone(u32),
    /// Shard `s`'s kick-off FIFO delivered its front wake.
    WakeDone(u32),
}

/// A buffered submission awaiting its batch flush: home record, its
/// readiness verdict, and the admit+check access tally per shard.
type BufferedSubmit = (TaskId, bool, OpBreakdown);

/// What completing a phase (all of an operation's per-shard jobs) means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhaseKind {
    /// A submission batch: release each member that checked ready.
    Submit,
    /// A task completion: count it at phase completion. Its wake-ups do
    /// not wait for the phase — each involved shard's slice-release
    /// wakes enter that shard's kick-off FIFO the moment *that shard's*
    /// finish job completes.
    Finish,
}

/// One operation in flight at the shards. A slot is reused, lists and
/// all, once its phase completes, so the slots stop allocating when the
/// most phases ever in flight at once have grown their lists.
#[derive(Debug, Default)]
struct Phase {
    /// `None` while the slot is free.
    kind: Option<PhaseKind>,
    jobs_left: u32,
    /// `Submit`: each batch member and whether it checked ready.
    members: Vec<(TaskId, bool)>,
    /// `Finish`: the engine's report, whose per-shard wake sets are
    /// posted as each involved shard's job completes.
    fin: ShardedFinish,
    /// `Finish`: wake sets posted so far.
    posted: usize,
}

/// One unit of shard service: part of a phase, with a service time.
#[derive(Debug, Clone, Copy)]
struct Job {
    phase: usize,
    dur: SimTime,
}

/// Per-task bookkeeping (indexed by the engine's reusable `TaskId`).
#[derive(Debug, Clone, Copy, Default)]
struct Meta {
    exec: SimTime,
    submit_done: bool,
    woken: bool,
}

struct Sim<'t> {
    cfg: MultiMaestroConfig,
    trace: &'t Trace,
    engine: ShardedEngine,
    sched: Scheduler<Ev>,
    // Master.
    cursor: usize,
    prepping: bool,
    /// The submission handed to the engine, refilled from each trace
    /// record in turn.
    sub: Submission,
    batch_buf: Vec<BufferedSubmit>,
    /// Accesses per involved shard of the operation being shipped.
    shard_tally: Vec<(u32, u64)>,
    in_window: usize,
    /// Trace index of a prepared task whose admission found a shard
    /// full: the master is stalled and sends nothing until a finish
    /// phase frees a slot.
    parked: Option<usize>,
    /// The current stall episode's first full shard (counter attribution).
    episode_shard: Option<u32>,
    shard_stalls: Vec<u64>,
    shard_retries_resolved: Vec<u64>,
    // Phases.
    phases: Vec<Phase>,
    free_phases: Vec<usize>,
    // Crossbar: per shard, one queue per source (0 = master, 1+w = worker w).
    queues: Vec<Vec<VecDeque<Job>>>,
    /// Jobs queued on each shard, over all its sources.
    backlog: Vec<usize>,
    /// Per shard, a source's request line is raised while its queue is
    /// non-empty.
    arbs: Vec<RoundRobinArbiter>,
    current: Vec<Option<Job>>,
    busy: Vec<BusyTracker>,
    peak_queue: usize,
    // Kick-off FIFOs: one per shard, non-arbitrated, serial drain.
    wake_fifo: Vec<VecDeque<TaskId>>,
    wake_busy: Vec<bool>,
    wake_peak: Vec<usize>,
    wakes_delivered: Vec<u64>,
    /// Tasks whose check found unresolved dependencies: each must be
    /// delivered through some kick-off FIFO exactly once (asserted at
    /// drain).
    kickoffs_expected: u64,
    // Workers.
    ready: VecDeque<TaskId>,
    free_workers: Vec<u32>,
    running: Vec<Option<TaskId>>,
    // Tasks.
    meta: Vec<Meta>,
    completed: u64,
    makespan: SimTime,
    batches: u64,
}

impl<'t> Sim<'t> {
    fn new(cfg: MultiMaestroConfig, trace: &'t Trace) -> Self {
        cfg.validate();
        let s = cfg.shards;
        let sources = 1 + cfg.workers;
        Sim {
            engine: ShardedEngine::with_capacity(s, &cfg.nexus, cfg.capacity),
            sched: Scheduler::new(),
            cursor: 0,
            prepping: false,
            sub: Submission::from((0, 0, Vec::new())),
            batch_buf: Vec::new(),
            shard_tally: Vec::new(),
            in_window: 0,
            parked: None,
            episode_shard: None,
            shard_stalls: vec![0; s],
            shard_retries_resolved: vec![0; s],
            phases: Vec::new(),
            free_phases: Vec::new(),
            queues: (0..s)
                .map(|_| (0..sources).map(|_| VecDeque::new()).collect())
                .collect(),
            backlog: vec![0; s],
            arbs: (0..s).map(|_| RoundRobinArbiter::new(sources)).collect(),
            current: vec![None; s],
            busy: (0..s).map(|_| BusyTracker::new()).collect(),
            peak_queue: 0,
            wake_fifo: (0..s).map(|_| VecDeque::new()).collect(),
            wake_busy: vec![false; s],
            wake_peak: vec![0; s],
            wakes_delivered: vec![0; s],
            kickoffs_expected: 0,
            ready: VecDeque::new(),
            free_workers: (0..cfg.workers as u32).rev().collect(),
            running: vec![None; cfg.workers],
            meta: Vec::new(),
            completed: 0,
            makespan: SimTime::ZERO,
            batches: 0,
            cfg,
            trace,
        }
    }

    fn meta_mut(&mut self, id: TaskId) -> &mut Meta {
        let i = id.0 as usize;
        if i >= self.meta.len() {
            self.meta.resize(i + 1, Meta::default());
        }
        &mut self.meta[i]
    }

    /// Claim a phase slot for an operation of `kind`; the caller fills
    /// its jobs and lists.
    fn alloc_phase(&mut self, kind: PhaseKind) -> usize {
        let i = self.free_phases.pop().unwrap_or_else(|| {
            self.phases.push(Phase::default());
            self.phases.len() - 1
        });
        let phase = &mut self.phases[i];
        debug_assert!(phase.kind.is_none(), "claimed a live phase slot");
        phase.kind = Some(kind);
        i
    }

    fn job_time(&self, base: u64, accesses: u64) -> SimTime {
        self.cfg.clock.cycles(base) + self.cfg.sram.access_time(accesses)
    }

    /// Enqueue one job on `shard` from `source` and poke the crossbar.
    fn enqueue(&mut self, shard: u32, source: usize, job: Job) {
        let s = shard as usize;
        self.queues[s][source].push_back(job);
        self.arbs[s].raise(source);
        self.backlog[s] += 1;
        if self.backlog[s] > self.peak_queue {
            self.peak_queue = self.backlog[s];
        }
        self.poll_shard(s);
    }

    /// Crossbar scan: grant the next queued source on an idle shard.
    fn poll_shard(&mut self, s: usize) {
        if self.current[s].is_some() {
            return;
        }
        let Some(src) = self.arbs[s].grant() else {
            return;
        };
        let queue = &mut self.queues[s][src];
        let job = queue.pop_front().expect("granted non-empty");
        if queue.is_empty() {
            self.arbs[s].lower(src);
        }
        self.backlog[s] -= 1;
        self.busy[s].record_busy(job.dur);
        self.current[s] = Some(job);
        self.sched.schedule(job.dur, Ev::ShardDone(s as u32));
    }

    // --------------------------------------------------------------
    // Master: prepare, admit eagerly, batch, flush.
    // --------------------------------------------------------------

    fn poll_master(&mut self) {
        if self.prepping {
            return;
        }
        if self.parked.is_some()
            || self.cursor >= self.trace.len()
            || self.in_window >= self.cfg.window
        {
            // Can't continue right now: ship whatever is buffered (a
            // stalled master must still flush, or the resident tasks the
            // retry waits on would never become runnable).
            if !self.batch_buf.is_empty() {
                self.flush_batch();
            }
            return;
        }
        self.prepping = true;
        self.sched.schedule(self.cfg.prep_time, Ev::PrepDone);
    }

    fn on_prep_done(&mut self) {
        self.prepping = false;
        let idx = self.cursor;
        self.cursor += 1;
        self.ingest(idx);
        self.poll_master();
    }

    /// Submit the prepared trace record at `idx` into the sharded engine,
    /// or park the master on the full shard (stall episode counted once,
    /// against the first rejecting shard).
    fn ingest(&mut self, idx: usize) {
        let trace = self.trace;
        let rec = &trace.tasks[idx];
        self.sub.fptr = rec.fptr;
        self.sub.tag = rec.id;
        self.sub.params.clear();
        self.sub.params.extend_from_slice(&rec.params);
        let (id, ready, cost) = match self.engine.submit(&self.sub) {
            Ok(v) => v,
            Err(e) => {
                assert!(e.is_retryable(), "malformed trace record {}: {e}", rec.id);
                let shard = e.shard().expect("capacity rejections name their shard");
                if self.episode_shard.is_none() {
                    self.episode_shard = Some(shard);
                    self.shard_stalls[shard as usize] += 1;
                }
                self.parked = Some(idx);
                // The stalled master sends nothing more; ship what it
                // already buffered so completions can free the shard.
                if !self.batch_buf.is_empty() {
                    self.flush_batch();
                }
                return;
            }
        };
        if let Some(first) = self.episode_shard.take() {
            self.shard_retries_resolved[first as usize] += 1;
        }
        self.in_window += 1;
        if !ready {
            self.kickoffs_expected += 1;
        }
        let exec = rec.exec;
        let m = self.meta_mut(id);
        *m = Meta {
            exec,
            submit_done: false,
            woken: false,
        };
        self.batch_buf.push((id, ready, cost));
        if self.batch_buf.len() >= self.cfg.batch {
            self.flush_batch();
        }
    }

    /// Retry the parked admission after a finish phase completed at the
    /// shards (the stall/retry handshake's wake edge — the master resumes
    /// at crossbar finish-completion time).
    fn retry_parked(&mut self) {
        if let Some(idx) = self.parked.take() {
            self.ingest(idx);
        }
    }

    /// Ship the buffered submissions: one job per involved shard, paying
    /// one base per shard for the whole batch (buffered TP writes).
    fn flush_batch(&mut self) {
        let phase = self.alloc_phase(PhaseKind::Submit);
        let p = &mut self.phases[phase];
        p.members.clear();
        p.members
            .extend(self.batch_buf.iter().map(|(id, r, _)| (*id, *r)));
        self.shard_tally.clear();
        for (_, _, cost) in self.batch_buf.drain(..) {
            // One admit+check access tally per shard.
            for (s, c) in cost.per_shard() {
                tally(&mut self.shard_tally, s, c.total());
            }
        }
        self.batches += 1;
        self.ship(phase, 0, self.cfg.submit_base);
    }

    /// Enqueue one job per shard in the tally for `phase`, from `source`,
    /// each paying `base` cycles plus its accesses — or complete the
    /// phase at once if it touches no shard (parameterless tasks).
    fn ship(&mut self, phase: usize, source: usize, base: u64) {
        self.phases[phase].jobs_left = self.shard_tally.len() as u32;
        if self.shard_tally.is_empty() {
            self.complete_phase(phase);
            return;
        }
        for i in 0..self.shard_tally.len() {
            let (s, accesses) = self.shard_tally[i];
            let dur = self.job_time(base, accesses);
            self.enqueue(s, source, Job { phase, dur });
        }
    }

    // --------------------------------------------------------------
    // Shard job + phase completion.
    // --------------------------------------------------------------

    fn on_shard_done(&mut self, s: usize) {
        let job = self.current[s].take().expect("ShardDone while idle");
        let phase = &mut self.phases[job.phase];
        let kind = phase.kind.expect("live phase");
        phase.jobs_left -= 1;
        let done = phase.jobs_left == 0;
        if kind == PhaseKind::Finish {
            // A finish job's completion is the moment this shard's slice
            // release lands: its wakes enter the kick-off FIFO now, not
            // at whole-phase completion.
            let fin = std::mem::take(&mut phase.fin);
            if let Some((_, wakes)) = fin.wakes_by_shard().find(|&(g, _)| g as usize == s) {
                self.post_kickoff(s, wakes);
                self.phases[job.phase].posted += 1;
            }
            self.phases[job.phase].fin = fin;
        }
        if done {
            self.complete_phase(job.phase);
        }
        self.poll_shard(s);
    }

    /// Queue `wakes` on shard `s`'s kick-off FIFO and start its serial
    /// drain if idle. The FIFO is non-arbitrated: posting costs no shard
    /// or crossbar time, only the per-wake drain latency.
    fn post_kickoff(&mut self, s: usize, wakes: &[TaskId]) {
        if wakes.is_empty() {
            return;
        }
        let fifo = &mut self.wake_fifo[s];
        fifo.extend(wakes);
        if fifo.len() > self.wake_peak[s] {
            self.wake_peak[s] = fifo.len();
        }
        if !self.wake_busy[s] {
            self.wake_busy[s] = true;
            self.sched.schedule(
                self.cfg.clock.cycles(self.cfg.kickoff_cycles),
                Ev::WakeDone(s as u32),
            );
        }
    }

    fn on_wake_done(&mut self, s: usize) {
        let id = self.wake_fifo[s]
            .pop_front()
            .expect("WakeDone on an empty kick-off FIFO");
        self.wakes_delivered[s] += 1;
        let m = self.meta_mut(id);
        m.woken = true;
        if m.submit_done {
            self.ready.push_back(id);
        }
        if self.wake_fifo[s].is_empty() {
            self.wake_busy[s] = false;
        } else {
            self.sched.schedule(
                self.cfg.clock.cycles(self.cfg.kickoff_cycles),
                Ev::WakeDone(s as u32),
            );
        }
        self.poll_workers();
    }

    fn complete_phase(&mut self, idx: usize) {
        let kind = self.phases[idx].kind.take().expect("phase completed twice");
        self.free_phases.push(idx);
        match kind {
            PhaseKind::Submit => {
                let members = std::mem::take(&mut self.phases[idx].members);
                for &(id, ready) in &members {
                    let m = self.meta_mut(id);
                    m.submit_done = true;
                    if ready || m.woken {
                        self.ready.push_back(id);
                    }
                }
                self.phases[idx].members = members;
            }
            PhaseKind::Finish => {
                let phase = &mut self.phases[idx];
                debug_assert_eq!(
                    phase.posted,
                    phase.fin.wakes_by_shard().count(),
                    "every involved shard's job completion must have posted its wakes"
                );
                phase.posted = 0;
                self.completed += 1;
                self.in_window -= 1;
                self.makespan = self.sched.now();
                // A finish phase is the wake edge for a stalled master.
                self.retry_parked();
                self.poll_master();
            }
        }
        self.poll_workers();
    }

    // --------------------------------------------------------------
    // Workers.
    // --------------------------------------------------------------

    fn poll_workers(&mut self) {
        while let (Some(&w), false) = (self.free_workers.last(), self.ready.is_empty()) {
            self.free_workers.pop();
            let id = self.ready.pop_front().expect("checked non-empty");
            let exec = self.meta[id.0 as usize].exec;
            self.running[w as usize] = Some(id);
            self.sched.schedule(exec, Ev::ExecDone(w));
        }
    }

    fn on_exec_done(&mut self, w: u32) {
        let id = self.running[w as usize]
            .take()
            .expect("ExecDone while idle");
        self.free_workers.push(w);
        let phase = self.alloc_phase(PhaseKind::Finish);
        let fin = &mut self.phases[phase].fin;
        self.engine.finish_into(id, fin);
        self.shard_tally.clear();
        for (s, c) in fin.cost.per_shard() {
            tally(&mut self.shard_tally, s, c.total());
        }
        self.ship(phase, 1 + w as usize, self.cfg.finish_base);
        self.poll_workers();
    }

    fn run(mut self) -> MultiMaestroReport {
        self.poll_master();
        while let Some((_, ev)) = self.sched.pop() {
            match ev {
                Ev::PrepDone => self.on_prep_done(),
                Ev::ShardDone(s) => self.on_shard_done(s as usize),
                Ev::ExecDone(w) => self.on_exec_done(w),
                Ev::WakeDone(s) => self.on_wake_done(s as usize),
            }
        }
        assert_eq!(
            self.completed,
            self.trace.len() as u64,
            "multi-Maestro deadlock: {} of {} tasks completed",
            self.completed,
            self.trace.len()
        );
        assert_eq!(self.engine.in_flight(), 0, "leaked in-flight tasks");
        assert!(self.parked.is_none(), "master still parked at drain");
        assert!(
            self.wake_fifo.iter().all(|f| f.is_empty()),
            "undelivered kick-off notifications at drain"
        );
        assert!(self.wake_busy.iter().all(|b| !b), "kick-off drain leaked");
        assert_eq!(
            self.wakes_delivered.iter().sum::<u64>(),
            self.kickoffs_expected,
            "every task that parked at its check must be kicked off exactly once"
        );
        debug_assert_eq!(
            self.shard_stalls, self.shard_retries_resolved,
            "every stall episode must resolve by drain time"
        );
        MultiMaestroReport {
            shards: self.cfg.shards,
            workers: self.cfg.workers,
            tasks: self.completed,
            makespan: self.makespan,
            shard_busy: self.busy.iter().map(|b| b.busy_time()).collect(),
            shard_jobs: self.busy.iter().map(|b| b.ops()).collect(),
            peak_shard_queue: self.peak_queue,
            batches: self.batches,
            crossbar_grants: self.arbs.iter().map(|a| a.grants()).sum(),
            capacity: self.cfg.capacity,
            master_capacity_stalls: self.shard_stalls.iter().sum(),
            shard_stalls: self.shard_stalls,
            shard_retries_resolved: self.shard_retries_resolved,
            shard_wake_peak: self.wake_peak,
            shard_wakes_delivered: self.wakes_delivered,
        }
    }
}

/// Add `accesses` to `shard`'s entry in `tally`, opening one if absent.
fn tally(tally: &mut Vec<(u32, u64)>, shard: u32, accesses: u64) {
    match tally.iter_mut().find(|(g, _)| *g == shard) {
        Some((_, t)) => *t += accesses,
        None => tally.push((shard, accesses)),
    }
}

/// Simulate `trace` through `cfg.shards` Maestro shards.
pub fn simulate_sharded(cfg: MultiMaestroConfig, trace: &Trace) -> MultiMaestroReport {
    Sim::new(cfg, trace).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexuspp_workloads::{GaussianSpec, ShardedStressSpec};

    /// Resolution-bound configuration: no prep delay, zero-exec handled
    /// by the workload, plenty of workers.
    fn resolution_bound(shards: usize) -> MultiMaestroConfig {
        MultiMaestroConfig {
            workers: 16,
            ..MultiMaestroConfig::with_shards(shards).no_prep()
        }
    }

    fn balanced(n: u32) -> nexuspp_trace::Trace {
        ShardedStressSpec {
            exec_ns: 0,
            ..ShardedStressSpec::balanced(n, 4)
        }
        .generate()
    }

    #[test]
    fn completes_every_task_and_balances_shards() {
        let trace = balanced(2000);
        let r = simulate_sharded(resolution_bound(4), &trace);
        assert_eq!(r.tasks, 2000);
        assert!(r.makespan > SimTime::ZERO);
        assert!(
            r.imbalance() < 1.5,
            "balanced stream must spread work (imbalance {:.2})",
            r.imbalance()
        );
        assert_eq!(r.shard_busy.len(), 4);
        assert!(r.batches >= 2000 / 8);
    }

    #[test]
    fn four_shards_at_least_double_one_shard_throughput() {
        // The acceptance bar for the sharded fabric: ≥ 2× modeled
        // resolution throughput at 4 shards on the balanced stream.
        let trace = balanced(4000);
        let t1 = simulate_sharded(resolution_bound(1), &trace).tasks_per_sec();
        let t4 = simulate_sharded(resolution_bound(4), &trace).tasks_per_sec();
        assert!(
            t4 >= 2.0 * t1,
            "4-shard throughput {t4:.0}/s must be >= 2x 1-shard {t1:.0}/s"
        );
    }

    #[test]
    fn shard_scaling_is_monotone_on_balanced_stream() {
        let trace = balanced(3000);
        let mk: Vec<f64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&s| {
                simulate_sharded(resolution_bound(s), &trace)
                    .makespan
                    .as_ns_f64()
            })
            .collect();
        for w in mk.windows(2) {
            assert!(
                w[1] <= w[0] * 1.05,
                "more shards must not slow the balanced stream: {mk:?}"
            );
        }
    }

    #[test]
    fn hot_shard_skew_defeats_sharding() {
        // With every address on shard 0, 4 shards buy nothing: the hot
        // shard serializes, visible as imbalance ≈ shard count and a
        // makespan close to the 1-shard run.
        let hot = ShardedStressSpec {
            exec_ns: 0,
            ..ShardedStressSpec::hot_shard(2000, 4)
        }
        .generate();
        let r4 = simulate_sharded(resolution_bound(4), &hot);
        assert!(
            r4.imbalance() > 3.0,
            "single-hot-shard stream must overload one shard (imbalance {:.2})",
            r4.imbalance()
        );
        let balanced = balanced(2000);
        let rb = simulate_sharded(resolution_bound(4), &balanced);
        assert!(
            r4.makespan > rb.makespan,
            "hot-shard skew must cost throughput"
        );
    }

    #[test]
    fn batching_amortizes_shard_visits() {
        let trace = balanced(2000);
        let unbatched = simulate_sharded(
            MultiMaestroConfig {
                batch: 1,
                ..resolution_bound(4)
            },
            &trace,
        );
        let batched = simulate_sharded(
            MultiMaestroConfig {
                batch: 16,
                ..resolution_bound(4)
            },
            &trace,
        );
        assert!(batched.batches < unbatched.batches);
        assert!(
            batched.makespan < unbatched.makespan,
            "coalesced bases must shorten the resolution-bound makespan \
             (batched {} vs unbatched {})",
            batched.makespan,
            unbatched.makespan
        );
    }

    #[test]
    fn gaussian_dependencies_resolve_correctly_across_shards() {
        // A real dependency-rich workload (RAW fan-out, WAW chains) end
        // to end through the sharded fabric.
        let trace = GaussianSpec::new(24).trace();
        for shards in [1, 2, 4] {
            let r = simulate_sharded(MultiMaestroConfig::with_shards(shards), &trace);
            assert_eq!(r.tasks, trace.len() as u64, "shards={shards}");
        }
    }

    #[test]
    fn capacity_one_stress_drains_for_every_worker_count() {
        // The modeled half of the deadlock-freedom stress: the sim's own
        // drain assertion is the watchdog — a lost stall wake-up leaves
        // tasks unfinished and fails the run loudly.
        use nexuspp_workloads::CapacityStressSpec;
        let trace = CapacityStressSpec::pressure(2).generate();
        for workers in [1usize, 2, 4, 8] {
            let r = simulate_sharded(
                MultiMaestroConfig {
                    workers,
                    capacity: ShardCapacity::Bounded(1),
                    ..MultiMaestroConfig::with_shards(2).no_prep()
                },
                &trace,
            );
            assert_eq!(r.tasks, trace.len() as u64, "workers={workers}");
            assert_eq!(
                r.shard_stalls, r.shard_retries_resolved,
                "workers={workers}: unresolved stall episodes"
            );
        }
    }

    #[test]
    fn bounded_capacity_completes_under_pressure_and_accounts_stalls() {
        use nexuspp_workloads::CapacityStressSpec;
        for shards in [1usize, 2, 4] {
            let trace = CapacityStressSpec::pressure(shards as u32).generate();
            let r = simulate_sharded(
                MultiMaestroConfig {
                    capacity: ShardCapacity::Bounded(1),
                    ..resolution_bound(shards)
                },
                &trace,
            );
            assert_eq!(r.tasks, trace.len() as u64, "shards={shards}");
            assert_eq!(r.capacity, ShardCapacity::Bounded(1));
            assert!(
                r.master_capacity_stalls > 0,
                "shards={shards}: a fan-out wider than capacity 1 must stall the master"
            );
            assert_eq!(
                r.master_capacity_stalls,
                r.shard_stalls.iter().sum::<u64>(),
                "shards={shards}: episode total must equal per-shard attribution"
            );
            for s in 0..shards {
                assert_eq!(
                    r.shard_stalls[s], r.shard_retries_resolved[s],
                    "shards={shards} shard {s}: every stall episode must resolve"
                );
            }
        }
    }

    #[test]
    fn unbounded_capacity_reports_zero_stalls_and_is_never_slower() {
        use nexuspp_workloads::CapacityStressSpec;
        let trace = CapacityStressSpec::pressure(4).generate();
        let free = simulate_sharded(resolution_bound(4), &trace);
        assert_eq!(free.capacity, ShardCapacity::Unbounded);
        assert_eq!(free.master_capacity_stalls, 0);
        assert!(free.shard_stalls.iter().all(|&s| s == 0));
        assert!(free.shard_retries_resolved.iter().all(|&s| s == 0));
        let tight = simulate_sharded(
            MultiMaestroConfig {
                capacity: ShardCapacity::Bounded(1),
                ..resolution_bound(4)
            },
            &trace,
        );
        assert!(
            tight.makespan >= free.makespan,
            "stalling on capacity must not beat unbounded tables \
             (bounded {} vs unbounded {})",
            tight.makespan,
            free.makespan
        );
    }

    #[test]
    fn capacity_one_stalls_hardest_and_unbounded_never() {
        // Stall *episodes* are not monotone in capacity (a tight bound
        // parks longer per episode, a wider one parks more often but
        // briefly), so the principled claims are the endpoints: the
        // tightest bound stalls strictly most, the unbounded table never.
        use nexuspp_workloads::CapacityStressSpec;
        let trace = CapacityStressSpec::pressure(4).generate();
        let stalls: Vec<u64> = [
            ShardCapacity::Bounded(1),
            ShardCapacity::Bounded(4),
            ShardCapacity::Bounded(16),
            ShardCapacity::Unbounded,
        ]
        .into_iter()
        .map(|capacity| {
            simulate_sharded(
                MultiMaestroConfig {
                    capacity,
                    ..resolution_bound(4)
                },
                &trace,
            )
            .master_capacity_stalls
        })
        .collect();
        assert!(stalls[0] > 0, "capacity 1 must be under pressure");
        for (i, &s) in stalls.iter().enumerate().skip(1) {
            assert!(
                s < stalls[0],
                "capacity 1 must stall strictly most: {stalls:?} (index {i})"
            );
        }
        assert_eq!(*stalls.last().unwrap(), 0);
    }

    #[test]
    fn gaussian_resolves_identically_across_capacities() {
        // Dependency-rich workload: the bounded fabric must execute the
        // same task set at every capacity (the machine-level face of the
        // capacity-differential suite).
        let trace = GaussianSpec::new(20).trace();
        for capacity in [
            ShardCapacity::Bounded(1),
            ShardCapacity::Bounded(4),
            ShardCapacity::Unbounded,
        ] {
            let r = simulate_sharded(MultiMaestroConfig::with_capacity(2, capacity), &trace);
            assert_eq!(r.tasks, trace.len() as u64, "capacity={capacity}");
        }
    }

    #[test]
    fn kickoff_fifo_conserves_wakes_and_reports_fan_in_depth() {
        // Steal-stress shape: one root whose completion releases every
        // chain head at once — all of those kick-off notifications are
        // attributed to the root address's home shard, so that shard's
        // FIFO must peak at exactly `chains` while every other wake (the
        // one-wakes-one chain steps) passes through depth >= 1.
        use nexuspp_workloads::StealStressSpec;
        let spec = StealStressSpec {
            chains: 16,
            chain_len: 12,
            exec_ns: 0,
        };
        let trace = spec.generate();
        let r = simulate_sharded(resolution_bound(4), &trace);
        assert_eq!(r.tasks, trace.len() as u64);
        // Every task except the root parked at submit and was therefore
        // delivered through some shard's kick-off FIFO, exactly once.
        assert_eq!(
            r.shard_wakes_delivered.iter().sum::<u64>(),
            trace.len() as u64 - 1,
            "each parked task must be kicked off exactly once"
        );
        assert_eq!(
            r.shard_wake_peak.iter().copied().max().unwrap(),
            spec.chains as usize,
            "the root's burst must pile every chain head onto one FIFO"
        );
        assert_eq!(r.shard_wake_peak.len(), 4);
    }

    #[test]
    fn independent_tasks_never_touch_the_kickoff_fifos() {
        let trace = balanced(500);
        let r = simulate_sharded(resolution_bound(4), &trace);
        assert_eq!(r.tasks, 500);
        assert!(
            r.shard_wakes_delivered.iter().all(|&w| w == 0),
            "ready-at-submit tasks bypass kick-off: {:?}",
            r.shard_wakes_delivered
        );
        assert!(r.shard_wake_peak.iter().all(|&p| p == 0));
    }

    #[test]
    fn slower_kickoff_delivery_never_speeds_the_fan_in_stream() {
        use nexuspp_workloads::StealStressSpec;
        let trace = StealStressSpec {
            chains: 8,
            chain_len: 40,
            exec_ns: 0,
        }
        .generate();
        let fast = simulate_sharded(resolution_bound(2), &trace);
        let slow = simulate_sharded(
            MultiMaestroConfig {
                kickoff_cycles: 64,
                ..resolution_bound(2)
            },
            &trace,
        );
        assert_eq!(fast.tasks, slow.tasks);
        assert!(
            slow.makespan >= fast.makespan,
            "a 64x slower kick-off port cannot beat the 1-cycle port \
             (slow {} vs fast {})",
            slow.makespan,
            fast.makespan
        );
    }

    #[test]
    fn worker_count_limits_execution_bound_streams() {
        // With real exec times and few workers, workers are the
        // bottleneck; shards shouldn't change makespan much.
        let trace = ShardedStressSpec::balanced(500, 4).generate(); // 200 ns exec
        let few = simulate_sharded(
            MultiMaestroConfig {
                workers: 1,
                ..MultiMaestroConfig::with_shards(4).no_prep()
            },
            &trace,
        );
        let many = simulate_sharded(
            MultiMaestroConfig {
                workers: 16,
                ..MultiMaestroConfig::with_shards(4).no_prep()
            },
            &trace,
        );
        assert!(few.makespan > many.makespan);
        // Serial exec floor: 500 tasks x 200 ns.
        assert!(few.makespan >= SimTime::from_ns(500 * 200));
    }
}
