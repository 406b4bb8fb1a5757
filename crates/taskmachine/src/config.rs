//! Task Machine configuration (Table IV).
//!
//! Every parameter of the paper's simulation environment is configurable,
//! mirroring its claim that "the Task Machine is a fully configurable
//! system". Defaults reproduce Table IV: 2 GHz cores, 500 MHz Nexus++,
//! 2 ns on-chip access, 12 ns/128 B off-chip with 32 banks, 1K-entry Task
//! Pool, 4K-entry Dependence Table, double buffering, 30 ns task
//! preparation on the master core.

use crate::bus::BusConfig;
use crate::memory::{MemoryConfig, MemoryMode};
use crate::sram::SramTiming;
use nexuspp_core::NexusConfig;
use nexuspp_desim::clock::NEXUS_CLOCK_MHZ;
use nexuspp_desim::{Clock, SimTime};

/// Master-core modeling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MasterConfig {
    /// Task-preparation latency before each submission ("the task
    /// preparation was set to 30 ns"). The 221× headline experiment sets
    /// this to zero ("when disabling task preparation delay").
    pub prep_time: SimTime,
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            prep_time: SimTime::from_ns(30),
        }
    }
}

/// FIFO list capacities in entries (Table IV gives them in bytes; divided
/// by the 1- or 2-byte element sizes they hold 1K entries each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListConfig {
    /// `TDs Buffer` capacity in descriptors (the staging area between the
    /// `Get TDs` block and `Write TP`; not sized in the paper — 16 is our
    /// documented choice, small enough not to extend the task window).
    pub tds_buffer: usize,
    /// `TDs Sizes` list (1 KB of 1-byte sizes → 1024).
    pub tds_sizes: usize,
    /// `New Tasks` list (2 KB of 2-byte IDs → 1024).
    pub new_tasks: usize,
    /// `Global Ready Tasks` list (2 KB of 2-byte IDs → 1024).
    pub global_ready: usize,
}

impl Default for ListConfig {
    fn default() -> Self {
        ListConfig {
            tds_buffer: 16,
            tds_sizes: 1024,
            new_tasks: 1024,
            global_ready: 1024,
        }
    }
}

/// Per-block service-time constants, in Nexus++ cycles (2 ns each). Table
/// accesses are charged on top at [`SramTiming::access`] per touch,
/// reproducing "the on-chip access time multiplied by the number of
/// lookups". The bases model each block's fixed pipeline overhead
/// (reading its trigger FIFO, writing its output FIFO).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockTimings {
    /// `Write TP` fixed cycles per task.
    pub write_tp_base: u64,
    /// `Check Deps` fixed cycles per task.
    pub check_deps_base: u64,
    /// `Schedule` cycles per task (pop two FIFOs, write one).
    pub schedule_cycles: u64,
    /// `Send TDs` fixed cycles per task (request scan + FinTasks write),
    /// on top of the Task-Pool read and the descriptor transfer.
    pub send_tds_base: u64,
    /// `Handle Finished` fixed cycles per task (signal scan, FinTasks pop,
    /// free-index write-back), on top of table accesses.
    pub handle_fin_base: u64,
    /// `Get TDs` staging cost in cycles per received 8-byte word: the
    /// block "receives variable-length Task Descriptors … and writes them
    /// to the TDs Buffer"; the master's submission transaction completes
    /// only once the descriptor is staged.
    pub getds_cycles_per_word: u64,
}

impl Default for BlockTimings {
    fn default() -> Self {
        BlockTimings {
            write_tp_base: 2,
            check_deps_base: 2,
            schedule_cycles: 3,
            send_tds_base: 3,
            handle_fin_base: 6,
            getds_cycles_per_word: 2,
        }
    }
}

/// Full Task Machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Worker cores (the master core is additional).
    pub workers: usize,
    /// Nexus++ structure capacities.
    pub nexus: NexusConfig,
    /// Task-buffering depth per worker ("double buffering" = 2; the
    /// `Worker Cores IDs` list initially holds each core ID repeated
    /// `buffering_depth` times).
    pub buffering_depth: usize,
    /// On-chip bus / submission model.
    pub bus: BusConfig,
    /// Off-chip memory model.
    pub memory: MemoryConfig,
    /// On-chip SRAM timing.
    pub sram: SramTiming,
    /// Nexus++ clock (500 MHz).
    pub nexus_clock: Clock,
    /// Master-core model.
    pub master: MasterConfig,
    /// FIFO capacities.
    pub lists: ListConfig,
    /// Per-block fixed costs.
    pub blocks: BlockTimings,
    /// Serialize master→Maestro submissions and Maestro→TC descriptor
    /// transfers on one shared bus (ablation knob; the default models
    /// separate point-to-point links as Figure 1 draws them).
    pub shared_bus: bool,
    /// Fast independent-task queue (the paper's future-work note, after
    /// Carbon): descriptors with no parameters bypass `Check Deps` and go
    /// straight to the Global Ready Tasks list. Off by default — the paper
    /// evaluates without it.
    pub fast_independent_queue: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            workers: 8,
            nexus: NexusConfig::default(),
            buffering_depth: 2,
            // The evaluation model uses the bandwidth-accurate submission
            // cost (2 cycles per 8-byte word at 2 GB/s) rather than the
            // paper's cheaper worked example — see DESIGN.md §3 item 5;
            // together with the Get TDs staging cost this reproduces the
            // published master-limited plateau at high core counts.
            bus: BusConfig::prose_model(),
            memory: MemoryConfig::default(),
            sram: SramTiming::default(),
            nexus_clock: Clock::from_mhz(NEXUS_CLOCK_MHZ),
            master: MasterConfig::default(),
            lists: ListConfig::default(),
            blocks: BlockTimings::default(),
            shared_bus: false,
            fast_independent_queue: false,
        }
    }
}

impl MachineConfig {
    /// The paper's configuration at a given worker-core count.
    pub fn with_workers(workers: usize) -> Self {
        MachineConfig {
            workers,
            ..Default::default()
        }
    }

    /// Contention-free-memory variant (the 143×/221× experiments).
    pub fn contention_free(mut self) -> Self {
        self.memory = MemoryConfig {
            mode: MemoryMode::ContentionFree,
            ..self.memory
        };
        self
    }

    /// Disable the master's task-preparation delay (the 221× experiment).
    pub fn no_prep(mut self) -> Self {
        self.master.prep_time = SimTime::ZERO;
        self
    }

    /// Validate structural requirements.
    pub fn validate(&self) {
        assert!(self.workers >= 1, "need at least one worker core");
        assert!(self.buffering_depth >= 1, "buffering depth must be ≥ 1");
        assert!(
            !self.nexus.growable,
            "the Task Machine models fixed-capacity hardware; use a fixed NexusConfig"
        );
        self.nexus.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_iv() {
        let c = MachineConfig::default();
        assert_eq!(c.nexus.task_pool_entries, 1024);
        assert_eq!(c.nexus.dep_table_entries, 4096);
        assert_eq!(c.buffering_depth, 2);
        assert_eq!(c.master.prep_time, SimTime::from_ns(30));
        assert_eq!(c.nexus_clock.period(), SimTime::from_ns(2));
        assert_eq!(c.sram.access, SimTime::from_ns(2));
        assert_eq!(c.memory.chunk_time, SimTime::from_ns(12));
        c.validate();
    }

    #[test]
    fn variants() {
        let c = MachineConfig::with_workers(64).contention_free().no_prep();
        assert_eq!(c.workers, 64);
        assert_eq!(c.master.prep_time, SimTime::ZERO);
        assert_eq!(c.memory.slots(), usize::MAX);
    }

    #[test]
    #[should_panic]
    fn growable_rejected() {
        let c = MachineConfig {
            nexus: NexusConfig::unbounded(),
            ..Default::default()
        };
        c.validate();
    }
}
