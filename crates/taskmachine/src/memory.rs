//! Off-chip memory timing and contention model.
//!
//! From the paper (§IV-B, *Access Latencies*): off-chip RAM access time is
//! "12 ns per 128 bytes RAM chunk, assuming 32-bank 1 GB of RAM, which is
//! equivalent to a maximum memory bandwidth of 10.67 GB/s. The off-chip
//! memory is assumed to have 32 banks, each having one read/write port.
//! Therefore, no more than 32 tasks can access the memory at a given time,
//! and this is how contention accessing off-chip memory is modeled."
//!
//! The model therefore has two ingredients:
//!
//! 1. a *duration*: `ceil(bytes / 128) × 12 ns` for size-derived transfers
//!    (Gaussian elimination), or a trace-recorded duration (H.264), and
//! 2. an *admission limit*: at most 32 transfers in flight; further
//!    requesters queue FIFO. The headline result (54× with contention vs
//!    143× without at high core counts) comes entirely from this limiter.
//!
//! The admission queue itself lives in the simulator (it needs the event
//! loop); this module owns the configuration and the pure timing math.

use nexuspp_desim::SimTime;

/// Contention regime for off-chip memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryMode {
    /// At most `slots` concurrent accessors; excess requesters queue FIFO.
    /// The paper's default (32 banks × 1 port).
    Contended {
        /// Transfers in flight at once (one per bank port).
        slots: usize,
    },
    /// Idealized memory: transfers never queue ("assuming contention-free
    /// memory" in the 143×/221× experiments).
    ContentionFree,
}

/// Off-chip memory configuration (Table IV values as defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Transfer granularity in bytes (128 in the paper).
    pub chunk_bytes: u32,
    /// Time per chunk (12 ns in the paper).
    pub chunk_time: SimTime,
    /// Contention regime.
    pub mode: MemoryMode,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            chunk_bytes: 128,
            chunk_time: SimTime::from_ns(12),
            mode: MemoryMode::Contended { slots: 32 },
        }
    }
}

impl MemoryConfig {
    /// The paper's contention-free variant of the default configuration.
    pub fn contention_free() -> Self {
        MemoryConfig {
            mode: MemoryMode::ContentionFree,
            ..Self::default()
        }
    }

    /// Number of admission slots (`usize::MAX` when contention-free).
    pub fn slots(&self) -> usize {
        match self.mode {
            MemoryMode::Contended { slots } => slots,
            MemoryMode::ContentionFree => usize::MAX,
        }
    }

    /// Uncontended transfer time for `bytes` bytes: whole chunks, ceiling.
    /// Zero bytes take zero time.
    pub(crate) fn transfer_time(&self, bytes: u64) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        let chunks = bytes.div_ceil(self.chunk_bytes as u64);
        self.chunk_time * chunks
    }

    /// Peak bandwidth implied by the chunk parameters, in GB/s. With the
    /// defaults: 128 B / 12 ns = 10.67 GB/s, matching Table IV.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.chunk_bytes as f64 / self.chunk_time.as_ns_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bandwidth() {
        let m = MemoryConfig::default();
        assert!((m.peak_bandwidth_gbps() - 10.6666).abs() < 1e-3);
        assert_eq!(m.slots(), 32);
    }

    #[test]
    fn transfer_time_rounds_up_to_chunks() {
        let m = MemoryConfig::default();
        assert_eq!(m.transfer_time(0), SimTime::ZERO);
        assert_eq!(m.transfer_time(1), SimTime::from_ns(12));
        assert_eq!(m.transfer_time(128), SimTime::from_ns(12));
        assert_eq!(m.transfer_time(129), SimTime::from_ns(24));
        assert_eq!(m.transfer_time(1024), SimTime::from_ns(96));
    }

    #[test]
    fn gaussian_task_times_match_paper_scale() {
        // A 3523-FLOP average task (n = 5000) moves 3523 doubles each way.
        let m = MemoryConfig::default();
        let bytes = 3523u64 * 8;
        let t = m.transfer_time(bytes);
        // 28184 B → 221 chunks → 2652 ns.
        assert_eq!(t, SimTime::from_ns(2652));
    }

    #[test]
    fn contention_free_mode() {
        let m = MemoryConfig::contention_free();
        assert_eq!(m.mode, MemoryMode::ContentionFree);
        assert_eq!(m.slots(), usize::MAX);
        // Timing identical; only admission differs.
        assert_eq!(m.transfer_time(256), SimTime::from_ns(24));
    }
}
