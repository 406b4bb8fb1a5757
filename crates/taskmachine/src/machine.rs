//! The Task Machine: a discrete-event model of a multicore with Nexus++.
//!
//! Reproduces the paper's SystemC simulator at the same level of detail: a
//! Master Core prepares and submits variable-length Task Descriptors over
//! the on-chip bus; the Task Maestro's pipelined blocks (`Write TP`,
//! `Check Deps`, `Schedule`, `Send TDs`, `Handle Finished`) communicate
//! through bounded FIFO lists and operate on the Task Pool / Dependence
//! Table with per-access 2 ns costs; each worker core's Task Controller
//! runs the 4-stage GetTD → GetInputs → RunTask → PutOutputs pipeline with
//! configurable buffering depth; and off-chip memory admits at most 32
//! concurrent transfers ("task execution is simply modeled by waiting for
//! a certain time; memory accesses delays are modeled in the same way and
//! memory contention is also modeled").
//!
//! The model is a single-threaded deterministic event simulation: all
//! state mutation happens at operation *start*, commits to downstream
//! FIFOs happen at operation *end* (the block's service time), matching
//! the one-operation-at-a-time behaviour of the hardware blocks.

use crate::config::MachineConfig;
use crate::memory::MemoryMode;
use crate::report::{BlockReport, Report, SimError};
use nexuspp_core::engine::{CheckProgress, DependencyEngine};
use nexuspp_core::pool::{PoolError, TdIndex};
use nexuspp_desim::stats::BusyTracker;
use nexuspp_desim::{Fifo, RoundRobinArbiter, Scheduler, SimTime, SlotGrant, SlotPool};
use nexuspp_trace::{MemCost, TaskRecord, TraceSource};
use std::collections::VecDeque;

/// Completion events. All inter-block "1-bit signals" are modeled as free
/// direct polls; only time-consuming operations appear here.
#[derive(Debug, Clone)]
#[allow(clippy::enum_variant_names)] // the variants name the paper's blocks
enum Ev {
    MasterPrepDone,
    MasterSubmitDone,
    WriteTpDone,
    CheckDepsDone,
    ScheduleDone,
    SendTdsDone,
    HandleFinDone,
    TcReadDone(u32),
    TcExecDone(u32),
    TcWriteDone(u32),
}

#[derive(Debug)]
enum MasterState {
    Idle,
    Prepping(TaskRecord),
    /// Prep done but the `TDs Sizes` list or the `TDs Buffer` is full —
    /// "the Master Core stalls and stops sending new Task Descriptors".
    WaitSubmit(TaskRecord),
    Submitting(TaskRecord),
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CheckOutcome {
    Ready,
    NotReady,
    Stalled,
}

/// One task occupying a memory-touching TC stage.
#[derive(Debug)]
struct StageTask {
    td: TdIndex,
    rec: TaskRecord,
    /// Transfer duration once granted.
    dur: SimTime,
    /// Waiting for a memory bank slot (queued in the [`SlotPool`]).
    waiting: bool,
}

/// Per-worker Task Controller state (the 4-stage pipeline).
#[derive(Debug, Default)]
struct Tc {
    /// Descriptors received from `Send TDs`, awaiting input fetch.
    fetched: VecDeque<(TdIndex, TaskRecord)>,
    /// `Get Inputs` stage.
    read_stage: Option<StageTask>,
    /// Inputs fetched, awaiting the core.
    run_queue: VecDeque<(TdIndex, TaskRecord)>,
    /// `Run Task` stage (the worker core itself).
    running: Option<(TdIndex, TaskRecord)>,
    /// Executed, awaiting write-back.
    out_queue: VecDeque<(TdIndex, TaskRecord)>,
    /// `Put Outputs` stage.
    write_stage: Option<StageTask>,
    /// Completed tasks whose 1-bit task-finished signal is raised.
    fin_signal: u32,
}

/// The simulator.
pub(crate) struct TaskMachine<'s> {
    cfg: MachineConfig,
    source: &'s mut dyn TraceSource,
    sched: Scheduler<Ev>,
    engine: DependencyEngine,
    /// In-flight trace records, indexed by Task Pool slot.
    records: Vec<Option<TaskRecord>>,

    // Master core.
    master: MasterState,
    master_busy: SimTime,
    master_stalls: u64,
    /// Shared-bus serialization point (used when `cfg.shared_bus`).
    bus_free_at: SimTime,

    // Maestro FIFOs.
    tds_buffer: Fifo<TaskRecord>,
    tds_sizes: Fifo<u8>,
    new_tasks: Fifo<TdIndex>,
    global_ready: Fifo<TdIndex>,
    worker_ids: Fifo<u32>,

    // Maestro blocks.
    write_tp_busy: Option<TdIndex>,
    write_tp: BusyTracker,
    check_busy: Option<(TdIndex, CheckOutcome)>,
    check_parked: Option<TdIndex>,
    check_pulse_at_start: u64,
    check_deps: BusyTracker,
    sched_busy: Option<(TdIndex, u32)>,
    schedule: BusyTracker,
    send_busy: Option<(u32, TdIndex)>,
    send_tds: BusyTracker,
    /// Request lines: core `c` is raised while its `CxRdyTasks` list is
    /// non-empty.
    send_arb: RoundRobinArbiter,
    /// The core whose finish `Handle Finished` is processing.
    fin_busy: Option<u32>,
    /// The tasks that finish made ready, pushed to `Global Ready Tasks`
    /// when the block completes. Kept across finishes.
    fin_ready: Vec<TdIndex>,
    handle_fin: BusyTracker,
    /// Notification lines: core `c` is raised while its 1-bit
    /// task-finished signal is up (`fin_signal > 0`).
    fin_arb: RoundRobinArbiter,
    /// Incremented whenever `Handle Finished` frees table/pool space
    /// (wake-up edge for parked `Check Deps` / `Write TP`).
    free_pulse: u64,

    // Per-core structures.
    rdy_lists: Vec<Fifo<TdIndex>>,
    fin_lists: Vec<Fifo<TdIndex>>,
    tcs: Vec<Tc>,

    // Memory.
    mem_slots: SlotPool,

    // Progress accounting.
    submitted: u64,
    completed: u64,
    worker_exec: SimTime,
    last_completion: SimTime,
    /// (time, completed-count) samples, every `PROGRESS_STRIDE` finishes.
    progress: Vec<(SimTime, u64)>,
    error: Option<SimError>,
}

/// Completion-count sampling stride for the progress curve.
const PROGRESS_STRIDE: u64 = 64;

impl<'s> TaskMachine<'s> {
    /// Build a machine over a task source.
    pub fn new(cfg: MachineConfig, source: &'s mut dyn TraceSource) -> Self {
        cfg.validate();
        let workers = cfg.workers;
        let depth = cfg.buffering_depth;
        // Lists that hold task IDs can never exceed the pool's entry count;
        // cap them accordingly when the pool is swept larger than Table IV.
        let id_list_cap = |c: usize| c.max(cfg.nexus.task_pool_entries);
        let mut worker_ids = Fifo::new("WorkerCoresIDs", workers * depth);
        for c in 0..workers as u32 {
            for _ in 0..depth {
                worker_ids.push_expect(c);
            }
        }
        let mem_slots = match cfg.memory.mode {
            MemoryMode::Contended { slots } => SlotPool::new("mem-banks", slots),
            // Effectively unlimited: every transfer gets a slot.
            MemoryMode::ContentionFree => SlotPool::new("mem-banks", usize::MAX >> 1),
        };
        TaskMachine {
            source,
            sched: Scheduler::new(),
            engine: DependencyEngine::new(&cfg.nexus),
            records: (0..cfg.nexus.task_pool_entries).map(|_| None).collect(),
            master: MasterState::Idle,
            master_busy: SimTime::ZERO,
            master_stalls: 0,
            bus_free_at: SimTime::ZERO,
            tds_buffer: Fifo::new("TDsBuffer", cfg.lists.tds_buffer),
            tds_sizes: Fifo::new("TDsSizes", cfg.lists.tds_sizes),
            new_tasks: Fifo::new("NewTasks", id_list_cap(cfg.lists.new_tasks)),
            global_ready: Fifo::new("GlobalReadyTasks", id_list_cap(cfg.lists.global_ready)),
            worker_ids,
            write_tp_busy: None,
            write_tp: BusyTracker::new(),
            check_busy: None,
            check_parked: None,
            check_pulse_at_start: 0,
            check_deps: BusyTracker::new(),
            sched_busy: None,
            schedule: BusyTracker::new(),
            send_busy: None,
            send_tds: BusyTracker::new(),
            send_arb: RoundRobinArbiter::new(workers),
            fin_busy: None,
            fin_ready: Vec::new(),
            handle_fin: BusyTracker::new(),
            fin_arb: RoundRobinArbiter::new(workers),
            free_pulse: 0,
            rdy_lists: (0..workers)
                .map(|_| Fifo::new("CxRdyTasks", depth))
                .collect(),
            fin_lists: (0..workers)
                .map(|_| Fifo::new("CxFinTasks", depth))
                .collect(),
            tcs: (0..workers).map(|_| Tc::default()).collect(),
            mem_slots,
            submitted: 0,
            completed: 0,
            worker_exec: SimTime::ZERO,
            last_completion: SimTime::ZERO,
            progress: Vec::new(),
            error: None,
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Master core
    // ------------------------------------------------------------------

    fn poll_master(&mut self) {
        if !matches!(self.master, MasterState::Idle) {
            return;
        }
        match self.source.next_task() {
            Some(rec) => {
                let prep = self.cfg.master.prep_time;
                self.master_busy += prep;
                self.master = MasterState::Prepping(rec);
                self.sched.schedule(prep, Ev::MasterPrepDone);
            }
            None => self.master = MasterState::Done,
        }
    }

    fn on_master_prep_done(&mut self) {
        let rec = match std::mem::replace(&mut self.master, MasterState::Idle) {
            MasterState::Prepping(r) => r,
            other => panic!("master prep done in state {other:?}"),
        };
        if self.tds_sizes.is_full() || self.tds_buffer.is_full() {
            self.master_stalls += 1;
            self.master = MasterState::WaitSubmit(rec);
        } else {
            self.start_submission(rec);
        }
    }

    /// Charge the (possibly shared) bus and return the submission delay
    /// from *now* until the transfer completes.
    fn bus_occupy(&mut self, duration: SimTime) -> SimTime {
        if self.cfg.shared_bus {
            let now = self.sched.now();
            let start = now.max(self.bus_free_at);
            self.bus_free_at = start + duration;
            (start - now) + duration
        } else {
            duration
        }
    }

    fn start_submission(&mut self, rec: TaskRecord) {
        // Bus transfer plus the Get TDs block staging the descriptor into
        // the TDs Buffer; the master's transaction spans both.
        let words = 1 + rec.params.len() as u64;
        let dur = self
            .cfg
            .bus
            .submission_time(rec.params.len(), self.cfg.nexus_clock)
            + self
                .cfg
                .nexus_clock
                .cycles(self.cfg.blocks.getds_cycles_per_word * words);
        self.master_busy += dur;
        let delay = self.bus_occupy(dur);
        self.master = MasterState::Submitting(rec);
        self.sched.schedule(delay, Ev::MasterSubmitDone);
    }

    fn on_master_submit_done(&mut self) {
        let rec = match std::mem::replace(&mut self.master, MasterState::Idle) {
            MasterState::Submitting(r) => r,
            other => panic!("master submit done in state {other:?}"),
        };
        self.submitted += 1;
        let n_params = rec.params.len().min(255) as u8;
        self.tds_buffer.push_expect(rec);
        self.tds_sizes.push_expect(n_params);
        self.poll_write_tp();
        self.poll_master();
    }

    /// Re-poll a master stalled on a full `TDs Sizes` list or `TDs Buffer`
    /// (called when `Write TP` drains them).
    fn wake_master(&mut self) {
        if matches!(self.master, MasterState::WaitSubmit(_))
            && !self.tds_sizes.is_full()
            && !self.tds_buffer.is_full()
        {
            let rec = match std::mem::replace(&mut self.master, MasterState::Idle) {
                MasterState::WaitSubmit(r) => r,
                _ => unreachable!(),
            };
            self.start_submission(rec);
        }
    }

    // ------------------------------------------------------------------
    // Write TP
    // ------------------------------------------------------------------

    fn poll_write_tp(&mut self) {
        if self.write_tp_busy.is_some() || self.error.is_some() {
            return;
        }
        let Some(rec) = self.tds_buffer.peek() else {
            return;
        };
        let needed = self.engine.pool().tds_needed(rec.params.len());
        if needed > self.cfg.nexus.task_pool_entries {
            self.error = Some(SimError::TaskTooLarge {
                task: rec.id,
                needed,
                capacity: self.cfg.nexus.task_pool_entries,
            });
            return;
        }
        if self.engine.pool().free_count() < needed {
            self.write_tp.record_stall();
            return; // re-polled on HandleFinDone
        }
        self.tds_sizes.pop();
        let mut rec = self.tds_buffer.pop().expect("peeked above");
        // The parameter list moves into the Task Pool: the Task Controller
        // stages read only the record's `exec`, `read` and `write`.
        let params = std::mem::take(&mut rec.params);
        let (td, cost) = match self.engine.admit(rec.fptr, rec.id, params) {
            Ok(v) => v,
            Err(PoolError::PoolFull { .. } | PoolError::TaskTooLarge { .. }) => {
                unreachable!("capacity checked above")
            }
        };
        self.records[td.0 as usize] = Some(rec);
        let dur = self.cfg.nexus_clock.cycles(self.cfg.blocks.write_tp_base)
            + self.cfg.sram.access_time(cost.total());
        self.write_tp.record_busy(dur);
        self.write_tp_busy = Some(td);
        self.sched.schedule(dur, Ev::WriteTpDone);
        self.wake_master();
    }

    fn on_write_tp_done(&mut self) {
        let td = self.write_tp_busy.take().expect("WriteTpDone while idle");
        if self.cfg.fast_independent_queue && self.engine.pool().get(td).params.is_empty() {
            // Future-work fast path: a parameterless task cannot conflict;
            // enqueue it ready without a Check Deps pass.
            self.engine.mark_trivially_ready(td);
            self.global_ready.push_expect(td);
            self.poll_schedule();
        } else {
            self.new_tasks.push_expect(td);
            self.poll_check_deps();
        }
        self.poll_write_tp();
    }

    // ------------------------------------------------------------------
    // Check Deps
    // ------------------------------------------------------------------

    fn poll_check_deps(&mut self) {
        if self.check_busy.is_some() || self.check_parked.is_some() {
            return;
        }
        let Some(td) = self.new_tasks.pop() else {
            return;
        };
        self.start_check(td);
    }

    fn start_check(&mut self, td: TdIndex) {
        self.check_pulse_at_start = self.free_pulse;
        let (outcome, cost) = match self.engine.check(td) {
            CheckProgress::Done { ready, cost } => (
                if ready {
                    CheckOutcome::Ready
                } else {
                    CheckOutcome::NotReady
                },
                cost,
            ),
            CheckProgress::Stalled { cost } => {
                self.check_deps.record_stall();
                (CheckOutcome::Stalled, cost)
            }
        };
        let dur = self.cfg.nexus_clock.cycles(self.cfg.blocks.check_deps_base)
            + self.cfg.sram.access_time(cost.total());
        self.check_deps.record_busy(dur);
        self.check_busy = Some((td, outcome));
        self.sched.schedule(dur, Ev::CheckDepsDone);
    }

    fn on_check_deps_done(&mut self) {
        let (td, outcome) = self.check_busy.take().expect("CheckDepsDone while idle");
        match outcome {
            CheckOutcome::Ready => {
                self.global_ready.push_expect(td);
                self.poll_schedule();
                self.poll_check_deps();
            }
            CheckOutcome::NotReady => self.poll_check_deps(),
            CheckOutcome::Stalled => {
                if self.free_pulse != self.check_pulse_at_start {
                    // Space was freed while we were busy: retry now.
                    self.start_check(td);
                } else {
                    self.check_parked = Some(td);
                }
            }
        }
    }

    /// Wake a parked `Check Deps` after `Handle Finished` freed space.
    fn wake_check_deps(&mut self) {
        if self.check_busy.is_none() {
            if let Some(td) = self.check_parked.take() {
                self.start_check(td);
            }
        }
    }

    // ------------------------------------------------------------------
    // Schedule
    // ------------------------------------------------------------------

    fn poll_schedule(&mut self) {
        if self.sched_busy.is_some() {
            return;
        }
        if self.global_ready.is_empty() || self.worker_ids.is_empty() {
            return;
        }
        let td = self.global_ready.pop().expect("checked");
        let core = self.worker_ids.pop().expect("checked");
        let dur = self.cfg.nexus_clock.cycles(self.cfg.blocks.schedule_cycles);
        self.schedule.record_busy(dur);
        self.sched_busy = Some((td, core));
        self.sched.schedule(dur, Ev::ScheduleDone);
    }

    fn on_schedule_done(&mut self) {
        let (td, core) = self.sched_busy.take().expect("ScheduleDone while idle");
        self.rdy_lists[core as usize].push_expect(td);
        self.send_arb.raise(core as usize);
        self.poll_send_tds();
        self.poll_schedule();
    }

    // ------------------------------------------------------------------
    // Send TDs
    // ------------------------------------------------------------------

    fn poll_send_tds(&mut self) {
        if self.send_busy.is_some() {
            return;
        }
        let Some(core) = self.send_arb.grant() else {
            return;
        };
        let td = self.rdy_lists[core].pop().expect("granted on non-empty");
        if self.rdy_lists[core].is_empty() {
            self.send_arb.lower(core);
        }
        let read_cost = self.engine.pool().read_params_cost(td);
        let n_params = self.engine.pool().get(td).params.len();
        let transfer = self
            .cfg
            .bus
            .td_transfer_time(n_params, self.cfg.nexus_clock);
        let dur = self.cfg.nexus_clock.cycles(self.cfg.blocks.send_tds_base)
            + self.cfg.sram.access_time(read_cost.total())
            + self.bus_occupy(transfer);
        self.send_tds.record_busy(dur);
        self.send_busy = Some((core as u32, td));
        self.fin_lists[core].push_expect(td);
        self.sched.schedule(dur, Ev::SendTdsDone);
    }

    fn on_send_tds_done(&mut self) {
        let (core, td) = self.send_busy.take().expect("SendTdsDone while idle");
        let core = core as usize;
        let rec = self.records[td.0 as usize]
            .take()
            .expect("record must be in flight");
        self.tcs[core].fetched.push_back((td, rec));
        self.poll_tc(core);
        self.poll_send_tds();
    }

    // ------------------------------------------------------------------
    // Handle Finished
    // ------------------------------------------------------------------

    fn poll_handle_fin(&mut self) {
        if self.fin_busy.is_some() {
            return;
        }
        let Some(core) = self.fin_arb.grant() else {
            return;
        };
        self.tcs[core].fin_signal -= 1;
        if self.tcs[core].fin_signal == 0 {
            self.fin_arb.lower(core);
        }
        let td = self.fin_lists[core]
            .pop()
            .expect("finished signal without FinTasks entry");
        debug_assert!(self.fin_ready.is_empty());
        let (cost, _) = self.engine.finish_into(td, &mut self.fin_ready);
        self.free_pulse += 1;
        let dur = self.cfg.nexus_clock.cycles(self.cfg.blocks.handle_fin_base)
            + self.cfg.sram.access_time(cost.total());
        self.handle_fin.record_busy(dur);
        self.fin_busy = Some(core as u32);
        self.sched.schedule(dur, Ev::HandleFinDone);
    }

    fn on_handle_fin_done(&mut self) {
        let core = self.fin_busy.take().expect("HandleFinDone while idle");
        self.completed += 1;
        self.last_completion = self.sched.now();
        if self.completed.is_multiple_of(PROGRESS_STRIDE) {
            self.progress.push((self.last_completion, self.completed));
        }
        for td in self.fin_ready.drain(..) {
            self.global_ready.push_expect(td);
        }
        self.worker_ids.push_expect(core);
        self.wake_check_deps();
        self.poll_write_tp();
        self.poll_schedule();
        self.poll_handle_fin();
    }

    // ------------------------------------------------------------------
    // Task Controllers + memory
    // ------------------------------------------------------------------

    fn mem_duration(&self, cost: MemCost) -> SimTime {
        match cost {
            MemCost::None => SimTime::ZERO,
            MemCost::Time(t) => t,
            MemCost::Bytes(b) => self.cfg.memory.transfer_time(b),
        }
    }

    /// Begin a memory transfer for a TC stage, acquiring a bank slot.
    /// Returns the stage task to store (waiting or in flight).
    fn start_mem(&mut self, core: usize, phase: u32, st: StageTask) -> StageTask {
        let token = (core as u64) * 2 + phase as u64;
        match self.mem_slots.acquire(token) {
            SlotGrant::Granted => {
                let ev = if phase == 0 {
                    Ev::TcReadDone(core as u32)
                } else {
                    Ev::TcWriteDone(core as u32)
                };
                self.sched.schedule(st.dur, ev);
                StageTask {
                    waiting: false,
                    ..st
                }
            }
            SlotGrant::Queued => StageTask {
                waiting: true,
                ..st
            },
        }
    }

    /// Release a memory slot and, if a queued waiter inherits it, start
    /// that waiter's transfer.
    fn release_mem(&mut self) {
        if let Some(token) = self.mem_slots.release() {
            let core = (token / 2) as usize;
            let phase = (token % 2) as u32;
            let (dur, ev) = if phase == 0 {
                let st = self.tcs[core]
                    .read_stage
                    .as_mut()
                    .expect("queued reader vanished");
                debug_assert!(st.waiting);
                st.waiting = false;
                (st.dur, Ev::TcReadDone(core as u32))
            } else {
                let st = self.tcs[core]
                    .write_stage
                    .as_mut()
                    .expect("queued writer vanished");
                debug_assert!(st.waiting);
                st.waiting = false;
                (st.dur, Ev::TcWriteDone(core as u32))
            };
            self.sched.schedule(dur, ev);
        }
    }

    fn poll_tc(&mut self, core: usize) {
        // Get Inputs: start fetching the next buffered task.
        loop {
            if self.tcs[core].read_stage.is_some() {
                break;
            }
            let Some((td, rec)) = self.tcs[core].fetched.pop_front() else {
                break;
            };
            let dur = self.mem_duration(rec.read);
            if dur.is_zero() {
                self.tcs[core].run_queue.push_back((td, rec));
                continue;
            }
            let st = StageTask {
                td,
                rec,
                dur,
                waiting: false,
            };
            let st = self.start_mem(core, 0, st);
            self.tcs[core].read_stage = Some(st);
            break;
        }
        // Run Task: the worker core executes.
        if self.tcs[core].running.is_none() {
            if let Some((td, rec)) = self.tcs[core].run_queue.pop_front() {
                let exec = rec.exec;
                self.tcs[core].running = Some((td, rec));
                self.sched.schedule(exec, Ev::TcExecDone(core as u32));
            }
        }
        // Put Outputs: write results back.
        loop {
            if self.tcs[core].write_stage.is_some() {
                break;
            }
            let Some((td, rec)) = self.tcs[core].out_queue.pop_front() else {
                break;
            };
            let dur = self.mem_duration(rec.write);
            if dur.is_zero() {
                self.raise_fin_signal(core);
                continue;
            }
            let st = StageTask {
                td,
                rec,
                dur,
                waiting: false,
            };
            let st = self.start_mem(core, 1, st);
            self.tcs[core].write_stage = Some(st);
            break;
        }
    }

    /// Count one more completed task on `core`'s task-finished signal and
    /// poke `Handle Finished`.
    fn raise_fin_signal(&mut self, core: usize) {
        self.tcs[core].fin_signal += 1;
        self.fin_arb.raise(core);
        self.poll_handle_fin();
    }

    fn on_tc_read_done(&mut self, core: usize) {
        let st = self.tcs[core]
            .read_stage
            .take()
            .expect("read done on empty stage");
        debug_assert!(!st.waiting);
        self.release_mem();
        self.tcs[core].run_queue.push_back((st.td, st.rec));
        self.poll_tc(core);
    }

    fn on_tc_exec_done(&mut self, core: usize) {
        let (td, rec) = self.tcs[core].running.take().expect("exec done while idle");
        self.worker_exec += rec.exec;
        self.tcs[core].out_queue.push_back((td, rec));
        self.poll_tc(core);
    }

    fn on_tc_write_done(&mut self, core: usize) {
        let st = self.tcs[core]
            .write_stage
            .take()
            .expect("write done on empty stage");
        debug_assert!(!st.waiting);
        self.release_mem();
        self.raise_fin_signal(core);
        self.poll_tc(core);
    }

    // ------------------------------------------------------------------
    // Run loop
    // ------------------------------------------------------------------

    /// Run the simulation to completion.
    pub fn run(mut self) -> Result<Report, SimError> {
        let name = "trace".to_string();
        self.poll_master();
        while let Some((_, ev)) = self.sched.pop() {
            if self.error.is_some() {
                break;
            }
            match ev {
                Ev::MasterPrepDone => self.on_master_prep_done(),
                Ev::MasterSubmitDone => self.on_master_submit_done(),
                Ev::WriteTpDone => self.on_write_tp_done(),
                Ev::CheckDepsDone => self.on_check_deps_done(),
                Ev::ScheduleDone => self.on_schedule_done(),
                Ev::SendTdsDone => self.on_send_tds_done(),
                Ev::HandleFinDone => self.on_handle_fin_done(),
                Ev::TcReadDone(c) => self.on_tc_read_done(c as usize),
                Ev::TcExecDone(c) => self.on_tc_exec_done(c as usize),
                Ev::TcWriteDone(c) => self.on_tc_write_done(c as usize),
            }
        }
        if let Some(e) = self.error {
            return Err(e);
        }
        let all_drained = matches!(self.master, MasterState::Done)
            && self.completed == self.submitted
            && self.engine.in_flight() == 0
            && self.tds_buffer.is_empty();
        if !all_drained {
            return Err(SimError::Deadlock {
                at: self.sched.now(),
                in_flight: self.engine.in_flight() + self.tds_buffer.len(),
                completed: self.completed,
            });
        }
        let fifo_peaks = vec![
            (
                self.tds_buffer.name(),
                self.tds_buffer.high_water(),
                self.tds_buffer.capacity(),
            ),
            (
                self.tds_sizes.name(),
                self.tds_sizes.high_water(),
                self.tds_sizes.capacity(),
            ),
            (
                self.new_tasks.name(),
                self.new_tasks.high_water(),
                self.new_tasks.capacity(),
            ),
            (
                self.global_ready.name(),
                self.global_ready.high_water(),
                self.global_ready.capacity(),
            ),
            (
                self.worker_ids.name(),
                self.worker_ids.high_water(),
                self.worker_ids.capacity(),
            ),
        ];
        let block = |b: &BusyTracker| BlockReport {
            ops: b.ops(),
            busy: b.busy_time(),
            stalls: b.stalls(),
        };
        Ok(Report {
            name,
            workers: self.cfg.workers,
            makespan: self.last_completion,
            tasks: self.completed,
            events: self.sched.events_processed(),
            master_busy: self.master_busy,
            master_stalls: self.master_stalls,
            write_tp: block(&self.write_tp),
            check_deps: block(&self.check_deps),
            schedule: block(&self.schedule),
            send_tds: block(&self.send_tds),
            handle_fin: block(&self.handle_fin),
            worker_exec: self.worker_exec,
            mem_queued: self.mem_slots.queued_total(),
            mem_peak_waiters: self.mem_slots.high_water_waiters(),
            pool: self.engine.pool().stats().clone(),
            table: self.engine.table().stats().clone(),
            fifo_peaks,
            progress: self.progress,
        })
    }
}

/// Convenience: simulate `source` under `cfg`.
pub fn simulate(cfg: MachineConfig, source: &mut dyn TraceSource) -> Result<Report, SimError> {
    TaskMachine::new(cfg, source).run()
}

/// Convenience: simulate an in-memory trace under `cfg`.
pub fn simulate_trace(
    cfg: MachineConfig,
    trace: &nexuspp_trace::Trace,
) -> Result<Report, SimError> {
    let mut src = trace.clone().into_source();
    let mut report = simulate(cfg, &mut src)?;
    report.name = trace.name.clone();
    Ok(report)
}
