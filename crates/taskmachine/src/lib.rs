//! # nexuspp-taskmachine — the Task Machine full-system simulator
//!
//! "Nexus++ was simulated using the Task Machine, a SystemC simulator of a
//! task-based, trace-driven multicore system." This crate is that
//! simulator, rebuilt on its own discrete-event kernel (the role SystemC
//! plays in the paper, kept crate-private under `src/sim/`): a
//! deterministic event scheduler, bounded FIFO lists, round-robin arbiters
//! over a bitset of request lines, a FIFO-admission slot pool for the
//! memory banks, the 500 MHz Nexus++ clock and per-block busy trackers.
//! Models own their state and drive the scheduler from a plain
//! `while let Some(..) = sched.pop()` loop, so a run is a single-threaded
//! pure function of its inputs. The crate's modules:
//!
//! * [`config`] — every Table IV parameter, plus the variants used in §V
//!   (contention-free memory, zero task-prep delay, buffering-depth and
//!   structure-size sweeps),
//! * [`machine`] — the model itself: master core, bus, Maestro pipeline
//!   blocks around the [`nexuspp_core`] dependency engine, per-core Task
//!   Controllers, banked memory,
//! * [`report`] — makespans, per-block utilization, contention and
//!   occupancy statistics,
//! * [`analytic`] — closed-form bottleneck analysis (master rate, Maestro
//!   stage rates, worker pool, memory banks) that the simulator must agree
//!   with — the paper's §V/§VI reasoning as checked arithmetic,
//! * [`multimaestro`] — the scaled-out variant: S Maestro shards over an
//!   address-partitioned [`nexuspp_shard`] engine, fed through a crossbar
//!   of round-robin arbiters with batched submissions, for shard-scaling
//!   studies the single-Maestro model cannot express,
//! * [`hw`] — the timing substrates the machine is built from: banked
//!   memory, the on-chip bus, SRAM lookups and the Table IV storage
//!   budget,
//! * [`baseline`] — the systems Nexus++ is measured against: classic
//!   Nexus, a software runtime on the master core, and a zero-overhead
//!   list scheduler.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analytic;
pub mod config;
pub mod machine;
pub mod multimaestro;
pub mod report;

// The event kernel, crate-private: its files are grouped under `sim/`,
// and its modules sit at the crate root beside the models that drive it.
#[path = "sim/arbiter.rs"]
mod arbiter;
#[path = "sim/clock.rs"]
mod clock;
#[path = "sim/fifo.rs"]
mod fifo;
#[cfg(test)]
#[path = "sim/primitive_properties.rs"]
mod primitive_properties;
#[path = "sim/sched.rs"]
mod sched;
#[path = "sim/slots.rs"]
mod slots;
#[path = "sim/stats.rs"]
mod stats;

// The implementations behind `hw` and `baseline` below.
mod bus;
mod classic;
mod ideal;
mod memory;
mod software_rts;
mod sram;
mod storage;

pub mod hw {
    //! Hardware timing substrates: the platform pieces the Task Machine
    //! simulates around the task manager.
    //!
    //! * [`MemoryConfig`] — the banked off-chip memory: 12 ns per 128-byte
    //!   chunk, 32 banks with one port each, so at most 32 concurrent
    //!   accessors (the paper's contention model), or an idealized
    //!   contention-free mode ([`MemoryMode`]),
    //! * [`BusConfig`] — the 8-byte-wide, 2 GB/s on-chip bus between the
    //!   master core and the Task Maestro, including the task-submission
    //!   cost model (5-cycle handshake + per-word transfer) and the
    //!   Maestro→Task Controller descriptor transfer,
    //! * [`SramTiming`] — on-chip SRAM access timing (2 ns per lookup, from
    //!   CACTI in the paper); hash-table operations cost `accesses × 2 ns`,
    //! * [`StorageBudget`] — the storage-budget calculator behind Table IV
    //!   and the "all tables and FIFO lists do not exceed 210 KB" claim.

    pub use crate::bus::BusConfig;
    pub use crate::memory::{MemoryConfig, MemoryMode};
    pub use crate::sram::SramTiming;
    pub use crate::storage::{StorageBudget, StorageParams, TASK_SUPERSCALAR_BYTES};
}

pub mod baseline {
    //! Comparison systems. Nexus++ is motivated by the limitations of two
    //! prior systems, both modeled here, and bounded by a third:
    //!
    //! * [`classic_check_trace`] — the original **Nexus** (Meenderinck &
    //!   Juurlink, DSD 2010): hash-table-based hardware task management
    //!   with a *fixed* limit on parameters per task (5) and a *fixed*
    //!   Kick-Off List with no dummy-entry extension, plus a 3-table design
    //!   that performs more lookups per operation. The model classifies
    //!   workloads as supported/unsupported (Gaussian elimination is the
    //!   paper's flagship unsupported case) and counts the extra lookups
    //!   Nexus++ §III-B claims to save.
    //! * [`simulate_software_rts`] — the **software StarSs runtime** whose
    //!   bottleneck motivates hardware task management in the first place
    //!   ("the RTS cannot compute task dependencies and attend to finished
    //!   tasks fast enough to keep all worker cores busy"): every
    //!   submission and completion is serialized on the master core at
    //!   software cost.
    //! * [`ideal_makespan`] — a zero-overhead list scheduler: the upper
    //!   bound any task manager can approach for a given task graph and
    //!   core count.

    pub use crate::classic::{classic_check_trace, ClassicLimits, ClassicVerdict};
    pub use crate::ideal::ideal_makespan;
    pub use crate::software_rts::{simulate_software_rts, SoftwareRtsConfig};

    pub mod ideal {
        //! The zero-overhead list scheduler's two bounds.
        pub use crate::ideal::{ideal_makespan, ideal_makespan_overlapped};
    }
}

pub use config::{BlockTimings, ListConfig, MachineConfig, MasterConfig, NEXUS_CLOCK_PERIOD};
pub use machine::{simulate, simulate_trace};
pub use multimaestro::{simulate_sharded, MultiMaestroConfig, MultiMaestroReport};
pub use report::{BlockReport, Report, SimError};
