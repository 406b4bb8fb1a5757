//! Multi-frame H.264 decoding — the natural extension of the paper's
//! single-frame trace.
//!
//! The paper's benchmark decodes "one full HD frame" (120×68 macroblocks)
//! and is therefore dominated by the wavefront's ramp effect: available
//! parallelism climbs from 1 and collapses back to 1 at the frame
//! boundary. A real decoder pipelines *frames*: macroblock (f, i, j) of a
//! P-frame additionally references the co-located (plus motion-range)
//! blocks of frame f−1, which lets the next frame's wavefront start long
//! before the current one retires — the overlapping-wavefront execution
//! the H.264-on-Cell literature (the paper's refs \[2\], \[15\]) analyzes.
//!
//! [`VideoSpec`] generates an `F`-frame trace with intra-frame wavefront
//! dependencies and optional inter-frame reference dependencies, letting
//! the evaluation show how much of the single-frame ramp limit the
//! pipeline recovers.

use crate::grid::GridSpec;
use nexuspp_core::TaskBuilder;
use nexuspp_desim::Rng;
use nexuspp_trace::{MemCost, Trace};

/// Multi-frame decode benchmark parameters.
#[derive(Debug, Clone)]
pub struct VideoSpec {
    /// Number of frames to decode.
    pub frames: u32,
    /// Per-frame geometry and timing (dimensions, block size, seed).
    pub grid: GridSpec,
    /// Whether P-frames reference the previous frame (motion
    /// compensation). Without it frames are independent wavefronts.
    pub inter_frame: bool,
}

impl VideoSpec {
    /// `frames` full-HD frames with the paper's geometry and timing.
    pub fn new(frames: u32) -> Self {
        VideoSpec {
            frames,
            grid: GridSpec::default(),
            inter_frame: true,
        }
    }

    /// A smaller geometry for tests, deterministic timing.
    pub fn small(frames: u32, rows: u32, cols: u32) -> Self {
        VideoSpec {
            frames,
            grid: GridSpec::small(rows, cols),
            inter_frame: true,
        }
    }

    /// Total task count: `frames × rows × cols`.
    pub fn task_count(&self) -> u64 {
        self.frames as u64 * self.grid.task_count()
    }

    /// Address of macroblock `(frame, i, j)` — each frame gets its own
    /// buffer region.
    pub(crate) fn block_addr(&self, frame: u32, i: u32, j: u32) -> u64 {
        debug_assert!(frame < self.frames);
        let frame_bytes = self.grid.task_count() * self.grid.block_bytes as u64;
        self.grid.base_addr
            + frame as u64 * frame_bytes
            + (i as u64 * self.grid.cols as u64 + j as u64) * self.grid.block_bytes as u64
    }

    /// Generate the trace in decode order: frames in sequence, macroblocks
    /// row-major within each frame.
    pub fn generate(&self) -> Trace {
        let mut rng = Rng::new(self.grid.seed ^ 0xF4A3);
        let b = self.grid.block_bytes;
        let mut tasks = Vec::with_capacity(self.task_count() as usize);
        let mut id = 0u64;
        for f in 0..self.frames {
            for i in 0..self.grid.rows {
                for j in 0..self.grid.cols {
                    let mut t = TaskBuilder::new(0xDEC1).tag(id);
                    if j > 0 {
                        t = t.reads(self.block_addr(f, i, j - 1), b);
                    }
                    if i > 0 && j + 1 < self.grid.cols {
                        t = t.reads(self.block_addr(f, i - 1, j + 1), b);
                    }
                    if self.inter_frame && f > 0 {
                        // Motion-compensation reference: co-located block
                        // of the previous frame.
                        t = t.reads(self.block_addr(f - 1, i, j), b);
                    }
                    t = t.read_writes(self.block_addr(f, i, j), b);
                    let (exec, read, write) = self.grid.timing.sample(&mut rng);
                    tasks.push(t.record(exec, MemCost::Time(read), MemCost::Time(write)));
                    id += 1;
                }
            }
        }
        Trace::from_tasks(
            format!(
                "h264-video-{}f{}",
                self.frames,
                if self.inter_frame { "-p" } else { "-i" }
            ),
            tasks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::parallelism_profile;
    use nexuspp_core::oracle::OracleResolver;

    #[test]
    fn task_count_and_order() {
        let v = VideoSpec::small(3, 6, 5);
        let t = v.generate();
        assert_eq!(t.len(), 90);
        assert_eq!(v.task_count(), 90);
        // Frame 1's first block depends on frame 0's first block.
        let t30 = &t.tasks[30];
        assert_eq!(t30.params.len(), 2); // reference + self (corner block)
    }

    #[test]
    fn frames_do_not_alias() {
        let v = VideoSpec::small(2, 4, 4);
        assert_ne!(v.block_addr(0, 3, 3), v.block_addr(1, 0, 0));
        assert_eq!(
            v.block_addr(1, 0, 0) - v.block_addr(0, 0, 0),
            (16 * v.grid.block_bytes) as u64
        );
    }

    #[test]
    fn pipelining_raises_average_parallelism() {
        // One frame: ramp-limited. Four frames with inter-frame refs:
        // wavefronts overlap, average parallelism rises.
        let single = parallelism_profile(&VideoSpec::small(1, 16, 12).generate());
        let multi = parallelism_profile(&VideoSpec::small(4, 16, 12).generate());
        assert!(
            multi.avg_parallelism() > single.avg_parallelism() * 1.5,
            "pipelined frames must overlap: {} vs {}",
            multi.avg_parallelism(),
            single.avg_parallelism()
        );
        // Critical path grows by ~1 wavefront step per extra frame (the
        // co-located dependency), not by a whole frame.
        assert!(multi.critical_path() < single.critical_path() * 2);
    }

    #[test]
    fn independent_frames_without_inter_frame_deps() {
        let mut v = VideoSpec::small(3, 8, 6);
        v.inter_frame = false;
        let t = v.generate();
        let mut oracle = OracleResolver::new();
        let mut ready = 0;
        for task in &t.tasks {
            let (_, r) = oracle.submit(&task.params);
            ready += r as usize;
        }
        // One independent wavefront head per frame.
        assert_eq!(ready, 3);
    }

    #[test]
    fn deterministic() {
        let a = VideoSpec::new(2).generate();
        let b = VideoSpec::new(2).generate();
        assert_eq!(a, b);
    }
}
