//! Per-task time synthesis for the H.264-derived benchmarks.
//!
//! The paper drives Figure 7 (and the headline speedups) with "a trace of
//! parallel H.264 decoder decoding one full HD frame on a Cell Broadband
//! Engine processor, consisting of 8160 tasks in total. […] On average a
//! task spends 7.5 µs for accessing off-chip memory and 11.8 µs for
//! execution."
//!
//! We do not have the Cell trace, so [`H264Timing`] synthesizes per-task
//! times from clamped normal distributions whose means match the published
//! averages. The read/write split follows the data footprint of a
//! macroblock decode (two read-only inputs plus the inout block read ≈ 3×
//! the single block written back). Only the averages are load-bearing for
//! the reproduced figures; the spread is a documented knob.

use nexuspp_desim::{Rng, SimTime};

/// Distribution parameters for one time component, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeDist {
    /// Mean.
    pub mean: f64,
    /// Standard deviation.
    pub sd: f64,
    /// Clamp floor.
    pub min: f64,
    /// Clamp ceiling.
    pub max: f64,
}

impl TimeDist {
    /// A distribution that always returns `ns`.
    pub const fn constant(ns: f64) -> Self {
        TimeDist {
            mean: ns,
            sd: 0.0,
            min: ns,
            max: ns,
        }
    }

    /// Draw one sample.
    pub fn sample(&self, rng: &mut Rng) -> SimTime {
        SimTime::from_ns_f64(rng.gen_normal_clamped(self.mean, self.sd, self.min, self.max))
    }
}

/// H.264-trace-equivalent task timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct H264Timing {
    /// Execution time (mean 11.8 µs in the paper).
    pub exec: TimeDist,
    /// Input-fetch time (≈ 3/4 of the 7.5 µs memory total).
    pub read: TimeDist,
    /// Output-writeback time (≈ 1/4 of the 7.5 µs memory total).
    pub write: TimeDist,
}

impl Default for H264Timing {
    fn default() -> Self {
        H264Timing {
            exec: TimeDist {
                mean: 11_800.0,
                sd: 2_500.0,
                min: 4_000.0,
                max: 19_600.0,
            },
            read: TimeDist {
                mean: 5_625.0,
                sd: 1_200.0,
                min: 1_500.0,
                max: 9_750.0,
            },
            write: TimeDist {
                mean: 1_875.0,
                sd: 400.0,
                min: 500.0,
                max: 3_250.0,
            },
        }
    }
}

impl H264Timing {
    /// A deterministic variant (zero variance) for analytical tests.
    pub fn deterministic() -> Self {
        H264Timing {
            exec: TimeDist::constant(11_800.0),
            read: TimeDist::constant(5_625.0),
            write: TimeDist::constant(1_875.0),
        }
    }

    /// Draw (exec, read, write) for one task.
    pub fn sample(&self, rng: &mut Rng) -> (SimTime, SimTime, SimTime) {
        (
            self.exec.sample(rng),
            self.read.sample(rng),
            self.write.sample(rng),
        )
    }

    /// Mean total memory time implied by the model (read + write means).
    #[cfg(test)]
    pub(crate) fn mean_mem_ns(&self) -> f64 {
        self.read.mean + self.write.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_means_match_paper() {
        let t = H264Timing::default();
        assert!((t.exec.mean - 11_800.0).abs() < 1e-9);
        assert!((t.mean_mem_ns() - 7_500.0).abs() < 1e-9);
    }

    #[test]
    fn sample_means_converge_to_published_averages() {
        let t = H264Timing::default();
        let mut rng = Rng::new(2012);
        let n = 20_000;
        let mut exec = 0.0;
        let mut mem = 0.0;
        for _ in 0..n {
            let (e, r, w) = t.sample(&mut rng);
            exec += e.as_ns_f64();
            mem += r.as_ns_f64() + w.as_ns_f64();
        }
        let exec_mean = exec / n as f64;
        let mem_mean = mem / n as f64;
        // Clamping is symmetric around the mean, so drift stays small.
        assert!(
            (exec_mean - 11_800.0).abs() < 150.0,
            "exec mean drifted: {exec_mean}"
        );
        assert!(
            (mem_mean - 7_500.0).abs() < 100.0,
            "mem mean drifted: {mem_mean}"
        );
    }

    #[test]
    fn deterministic_model_has_no_jitter() {
        let t = H264Timing::deterministic();
        let mut rng = Rng::new(1);
        let (e1, r1, w1) = t.sample(&mut rng);
        let (e2, r2, w2) = t.sample(&mut rng);
        assert_eq!((e1, r1, w1), (e2, r2, w2));
        assert_eq!(e1, SimTime::from_ns(11_800));
    }

    #[test]
    fn samples_respect_clamps() {
        let t = H264Timing::default();
        let mut rng = Rng::new(7);
        for _ in 0..5_000 {
            let (e, r, w) = t.sample(&mut rng);
            assert!(e >= SimTime::from_ns(4_000) && e <= SimTime::from_ns(19_600));
            assert!(r >= SimTime::from_ns(1_500) && r <= SimTime::from_ns(9_750));
            assert!(w >= SimTime::from_ns(500) && w <= SimTime::from_ns(3_250));
        }
    }
}
