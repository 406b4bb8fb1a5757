//! # nexuspp-workloads — the paper's benchmarks
//!
//! Generators for every workload in the Nexus++ evaluation (§IV-A):
//!
//! * [`grid`] — the 120×68-macroblock benchmarks of Figure 4: the H.264
//!   wavefront pattern (a), the horizontal- and vertical-dependency
//!   patterns (b)/(c) with a fixed number of parallel tasks, and the
//!   independent-tasks benchmark used for the headline speedups,
//! * [`timing`] — per-task execution/memory time synthesis matching the
//!   published Cell-trace averages (11.8 µs execution, 7.5 µs memory),
//! * [`gaussian`] — Gaussian elimination with partial pivoting (Figure 5 /
//!   Table II): `(n²+n−2)/2` tasks, weight `n+1−i` FLOPs on the diagonal
//!   and `n−i` off it, streaming generation for large matrices,
//! * [`video`] — a multi-frame H.264 extension: P-frames reference the
//!   previous frame, so successive wavefronts pipeline and recover the
//!   parallelism the single-frame ramp loses,
//! * [`stress`] — synthetic stressors for the dummy-task (many-parameter)
//!   and `ww`-flag (write-after-read) mechanisms that the paper's own
//!   benchmarks do not reach,
//! * [`sharded_stress`] — shard-aware address streams with tunable shard
//!   skew and hot-key ratio, driving the sharded resolver's balanced best
//!   case and its pathological single-hot-shard case,
//! * [`capacity_stress`] — deep serial `inout` chains fanned out wider
//!   than any bounded shard table, the stall/retry stressor for the
//!   fixed-capacity resolvers (`ShardCapacity`),
//! * [`steal_stress`] — the imbalanced fan-out (one root releasing many
//!   serial chains at once) that makes work stealing mandatory for
//!   speedup, driving the multi-Maestro kick-off FIFO tests,
//! * [`wake_stress`] — the wide fan-in (many finishers each releasing a
//!   burst of dependents homed on one shard) that concentrates kick-off
//!   traffic on a single shard, driving the wake-delivery study
//!   (`repro -- wakes`),
//! * [`incr_edits`] — an editable halo-exchange stencil for the
//!   incremental re-execution layer (`crates/incr`): build once, apply
//!   deterministic initial-contents edit batches, and measure how much
//!   of the 1000-task graph each edit's light-cone actually re-runs,
//! * [`version_stress`] — rename-heavy declarative programs (write-only
//!   version chains plus a halo-exchange stencil) built through the
//!   resource-versioning frontend, quantifying how much parallelism
//!   version renaming recovers over a raw single-address encoding,
//! * [`random`] — seeded random task streams for tests and fuzzing,
//! * [`analysis`] — task-graph analytics (parallelism profile, critical
//!   path) used to regenerate Figure 4's ramp-effect illustration.

pub mod analysis;
pub mod capacity_stress;
pub mod gaussian;
pub mod grid;
pub mod incr_edits;
pub mod random;
pub mod sharded_stress;
pub mod steal_stress;
pub mod stress;
pub mod timing;
pub mod version_stress;
pub mod video;
pub mod wake_stress;

pub use capacity_stress::CapacityStressSpec;
pub use gaussian::{GaussianSource, GaussianSpec};
pub use grid::{GridPattern, GridSpec};
pub use incr_edits::IncrStencilSpec;
pub use sharded_stress::ShardedStressSpec;
pub use steal_stress::StealStressSpec;
pub use timing::H264Timing;
pub use version_stress::VersionStressSpec;
pub use video::VideoSpec;
pub use wake_stress::WakeStressSpec;
