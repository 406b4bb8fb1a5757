//! The 120×68-macroblock grid benchmarks of Figure 4.
//!
//! All four benchmarks share the same task count (8160), the same per-task
//! timing model, and the same generation order ("from left to right and
//! from top to bottom" — row-major); they differ only in their dependency
//! pattern:
//!
//! * [`GridPattern::Wavefront`] (Fig 4a): `decode(X[i][j-1], X[i-1][j+1],
//!   X[i][j])` — the H.264 macroblock wavefront with its ramp effect
//!   (available parallelism grows to mid-frame, then shrinks),
//! * [`GridPattern::Horizontal`] (Fig 4b): each task depends on its left
//!   neighbour — rows are serial chains aligned *with* generation order, so
//!   ready tasks appear only once per row of submissions ("the processing
//!   of non-ready tasks before reaching the next ready task … limits the
//!   scalability of this benchmark"),
//! * [`GridPattern::Vertical`] (Fig 4c): each task depends on its upper
//!   neighbour — a whole row of independent chains is ready the moment it
//!   is generated, sustaining `cols`-way parallelism,
//! * [`GridPattern::Independent`]: no dependencies at all — the maximum-
//!   scalability benchmark behind the 54×/143×/221× headline numbers.

use crate::timing::H264Timing;
use nexuspp_core::TaskBuilder;
use nexuspp_desim::Rng;
use nexuspp_trace::{MemCost, Trace};

/// Which Figure 4 dependency pattern to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GridPattern {
    /// (a) H.264 wavefront: left + up-right inputs.
    Wavefront,
    /// (b) Row chains: left input only.
    Horizontal,
    /// (c) Column chains: up input only.
    Vertical,
    /// Independent tasks (maximum scalability).
    Independent,
}

impl GridPattern {
    /// Benchmark label used in reports.
    pub fn name(self) -> &'static str {
        match self {
            GridPattern::Wavefront => "h264-wavefront",
            GridPattern::Horizontal => "horizontal-deps",
            GridPattern::Vertical => "vertical-deps",
            GridPattern::Independent => "independent",
        }
    }

    /// All four patterns, in the order Figure 7 reports them.
    pub fn all() -> [GridPattern; 4] {
        [
            GridPattern::Independent,
            GridPattern::Wavefront,
            GridPattern::Horizontal,
            GridPattern::Vertical,
        ]
    }
}

/// Grid benchmark parameters.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Rows (`i` loop; 120 in the paper — one 1920×1088 frame).
    pub rows: u32,
    /// Columns (`j` loop; 68 in the paper).
    pub cols: u32,
    /// Bytes per macroblock (16×16 4-byte elements = 1 KiB).
    pub block_bytes: u32,
    /// Base address of the macroblock array.
    pub base_addr: u64,
    /// Per-task timing model.
    pub timing: H264Timing,
    /// RNG seed for the timing jitter.
    pub seed: u64,
}

impl Default for GridSpec {
    fn default() -> Self {
        GridSpec {
            rows: 120,
            cols: 68,
            block_bytes: 1024,
            base_addr: 0x1000_0000,
            timing: H264Timing::default(),
            seed: 0x4826_4C0D, // arbitrary fixed default: results reproducible
        }
    }
}

impl GridSpec {
    /// A smaller grid (for tests) with deterministic timing.
    pub fn small(rows: u32, cols: u32) -> Self {
        GridSpec {
            rows,
            cols,
            timing: H264Timing::deterministic(),
            ..Default::default()
        }
    }

    /// Total task count (`rows × cols`; 8160 in the paper).
    pub fn task_count(&self) -> u64 {
        self.rows as u64 * self.cols as u64
    }

    /// Address of macroblock `X[i][j]`.
    pub(crate) fn block_addr(&self, i: u32, j: u32) -> u64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.base_addr + (i as u64 * self.cols as u64 + j as u64) * self.block_bytes as u64
    }

    /// Generate the trace for `pattern` in row-major submission order.
    pub fn generate(&self, pattern: GridPattern) -> Trace {
        let mut rng = Rng::new(self.seed);
        let mut tasks = Vec::with_capacity(self.task_count() as usize);
        let b = self.block_bytes;
        // Address space for the Independent pattern's private blocks, laid
        // out beyond the shared array so nothing collides.
        let private_base = self.base_addr + self.task_count() * 4 * b as u64;
        for i in 0..self.rows {
            for j in 0..self.cols {
                let id = (i as u64) * self.cols as u64 + j as u64;
                let mut t = TaskBuilder::new(0xDEC0DE).tag(id);
                match pattern {
                    GridPattern::Wavefront => {
                        if j > 0 {
                            t = t.reads(self.block_addr(i, j - 1), b);
                        }
                        if i > 0 && j + 1 < self.cols {
                            t = t.reads(self.block_addr(i - 1, j + 1), b);
                        }
                        t = t.read_writes(self.block_addr(i, j), b);
                    }
                    GridPattern::Horizontal => {
                        if j > 0 {
                            t = t.reads(self.block_addr(i, j - 1), b);
                        }
                        t = t.read_writes(self.block_addr(i, j), b);
                    }
                    GridPattern::Vertical => {
                        if i > 0 {
                            t = t.reads(self.block_addr(i - 1, j), b);
                        }
                        t = t.read_writes(self.block_addr(i, j), b);
                    }
                    GridPattern::Independent => {
                        // Same 3-parameter shape as a wavefront interior
                        // task, but on task-private addresses.
                        let p = private_base + id * 4 * b as u64;
                        t = t
                            .reads(p, b)
                            .reads(p + b as u64, b)
                            .read_writes(p + 2 * b as u64, b);
                    }
                }
                let (exec, read, write) = self.timing.sample(&mut rng);
                tasks.push(t.record(exec, MemCost::Time(read), MemCost::Time(write)));
            }
        }
        Trace::from_tasks(pattern.name(), tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexuspp_core::oracle::OracleResolver;

    #[test]
    fn paper_dimensions() {
        let g = GridSpec::default();
        assert_eq!(g.task_count(), 8160);
        let t = g.generate(GridPattern::Wavefront);
        assert_eq!(t.len(), 8160);
    }

    #[test]
    fn wavefront_corner_tasks_have_fewer_inputs() {
        let g = GridSpec::small(3, 3);
        let t = g.generate(GridPattern::Wavefront);
        // (0,0): no left, no up-right → 1 param.
        assert_eq!(t.tasks[0].params.len(), 1);
        // (0,1): left only (no row above).
        assert_eq!(t.tasks[1].params.len(), 2);
        // (1,0): no left, up-right exists → 2 params.
        assert_eq!(t.tasks[3].params.len(), 2);
        // (1,1): left + up-right + self.
        assert_eq!(t.tasks[4].params.len(), 3);
        // (1,2): j+1 out of range → left + self.
        assert_eq!(t.tasks[5].params.len(), 2);
    }

    #[test]
    fn independent_tasks_are_all_ready_immediately() {
        let g = GridSpec::small(10, 10);
        let t = g.generate(GridPattern::Independent);
        let mut oracle = OracleResolver::new();
        for task in &t.tasks {
            let (_, ready) = oracle.submit(&task.params);
            assert!(ready);
        }
    }

    #[test]
    fn horizontal_rows_are_chains() {
        let g = GridSpec::small(4, 6);
        let t = g.generate(GridPattern::Horizontal);
        let mut oracle = OracleResolver::new();
        let mut ready_at_submit = 0;
        for task in &t.tasks {
            let (_, ready) = oracle.submit(&task.params);
            if ready {
                ready_at_submit += 1;
            }
        }
        // Exactly one immediately-ready task per row (its head).
        assert_eq!(ready_at_submit, 4);
    }

    #[test]
    fn vertical_first_row_all_ready() {
        let g = GridSpec::small(4, 6);
        let t = g.generate(GridPattern::Vertical);
        let mut oracle = OracleResolver::new();
        let mut ready = Vec::new();
        for task in &t.tasks {
            let (id, r) = oracle.submit(&task.params);
            if r {
                ready.push(id);
            }
        }
        // Exactly the 6 tasks of row 0.
        assert_eq!(ready, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = GridSpec::default().generate(GridPattern::Wavefront);
        let b = GridSpec::default().generate(GridPattern::Wavefront);
        assert_eq!(a, b);
    }

    #[test]
    fn trace_stats_match_published_averages() {
        let t = GridSpec::default().generate(GridPattern::Wavefront);
        let s = t.stats();
        let exec_us = s.mean_exec().as_us_f64();
        let mem_us = s.mean_mem_time().as_us_f64();
        assert!((exec_us - 11.8).abs() < 0.3, "exec mean {exec_us} µs");
        assert!((mem_us - 7.5).abs() < 0.2, "mem mean {mem_us} µs");
    }

    #[test]
    fn addresses_never_collide_across_patterns() {
        let g = GridSpec::small(5, 5);
        let ind = g.generate(GridPattern::Independent);
        let mut addrs = std::collections::HashSet::new();
        for t in &ind.tasks {
            for p in &t.params {
                assert!(addrs.insert(p.addr), "address reuse breaks independence");
            }
        }
    }
}
