//! Shard-aware synthetic address streams for the sharded resolver.
//!
//! The sharded engine partitions Dependence-Table traffic by address hash
//! ([`shard_of_addr`]); how well that pays off depends entirely on how
//! the workload's addresses distribute over shards. This generator makes
//! that distribution a knob:
//!
//! * **skew** — fraction of parameters forced onto shard 0. `0.0` is the
//!   balanced best case (addresses spread round-robin over all shards);
//!   `1.0` is the pathological single-hot-shard case where partitioning
//!   buys nothing and every operation serializes behind one shard.
//! * **hot-key ratio** — fraction of tasks that also *read* one shared
//!   hot address (homed on shard 0). This concentrates kick-off-list
//!   traffic on one Dependence-Table entry, the fan-out pressure the
//!   paper's fixed lists cannot absorb; every `hot_period`-th hot task
//!   accesses the key `inout`, rotating write epochs through it so the
//!   stream also exercises the WAR (`ww`) machinery continuously.
//!
//! Addresses are *steered* to shards by rejection-sampling candidate
//! segments against the engine's own router, so the generator stays
//! valid for any hash family the core exports.

use nexuspp_core::shard_of_addr;
use nexuspp_desim::{Rng, SimTime};
use nexuspp_trace::{MemCost, Param, TaskRecord, Trace};

/// Parameters of the sharded stress stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedStressSpec {
    /// Number of tasks to generate.
    pub n_tasks: u32,
    /// Fresh output parameters per task (excluding the optional hot-key
    /// read).
    pub params_per_task: u32,
    /// Shard count the stream is steered against (must match the
    /// consuming engine's shard count for the skew to mean anything).
    pub shards: u32,
    /// Probability that a parameter is forced onto shard 0 instead of its
    /// round-robin target. 0.0 = balanced, 1.0 = single hot shard.
    pub skew: f64,
    /// Probability that a task additionally touches the shared hot key.
    pub hot_ratio: f64,
    /// Every `hot_period`-th hot task writes (`inout`) the hot key
    /// instead of reading it, rotating the key through write epochs.
    pub hot_period: u32,
    /// Pure execution time per task.
    pub exec_ns: u64,
    /// RNG seed (streams are bit-reproducible).
    pub seed: u64,
}

impl ShardedStressSpec {
    /// The balanced best case: addresses spread evenly, no hot key.
    pub fn balanced(n_tasks: u32, shards: u32) -> Self {
        ShardedStressSpec {
            n_tasks,
            params_per_task: 2,
            shards,
            skew: 0.0,
            hot_ratio: 0.0,
            hot_period: 64,
            exec_ns: 200,
            seed: 0x5AD5_7E55,
        }
    }

    /// The pathological case: every parameter lands on shard 0.
    pub fn hot_shard(n_tasks: u32, shards: u32) -> Self {
        ShardedStressSpec {
            skew: 1.0,
            ..Self::balanced(n_tasks, shards)
        }
    }

    /// Balanced addresses plus a contended hot key read by `hot_ratio` of
    /// the tasks.
    #[cfg(test)]
    pub(crate) fn hot_key(n_tasks: u32, shards: u32, hot_ratio: f64) -> Self {
        ShardedStressSpec {
            hot_ratio,
            ..Self::balanced(n_tasks, shards)
        }
    }

    /// Generate the trace.
    pub fn generate(&self) -> Trace {
        assert!(self.shards >= 1, "need at least one shard");
        assert!(self.params_per_task >= 1, "tasks need at least one output");
        assert!(self.hot_period >= 1, "hot_period must be >= 1");
        let mut rng = Rng::new(self.seed);
        let mut cursor = 0u64; // next candidate segment index
        let stride = 64u64;
        let base = 0xC000_0000u64;
        // Find a segment homed on `target` by walking candidate segments
        // through the engine's own router.
        let mut addr_on_shard = |target: u32| -> u64 {
            loop {
                let addr = base + cursor * stride;
                cursor += 1;
                if shard_of_addr(addr, self.shards as usize) == target as usize {
                    return addr;
                }
            }
        };
        let hot_addr = addr_on_shard(0);
        let mut tasks = Vec::with_capacity(self.n_tasks as usize);
        let mut hot_seen = 0u32;
        let mut rr = 0u32; // round-robin shard cursor
        for id in 0..self.n_tasks as u64 {
            let mut params = Vec::with_capacity(self.params_per_task as usize + 1);
            if self.hot_ratio > 0.0 && rng.gen_f64() < self.hot_ratio {
                hot_seen += 1;
                if hot_seen.is_multiple_of(self.hot_period) {
                    params.push(Param::inout(hot_addr, 64));
                } else {
                    params.push(Param::input(hot_addr, 64));
                }
            }
            for _ in 0..self.params_per_task {
                let target = if self.skew > 0.0 && rng.gen_f64() < self.skew {
                    0
                } else {
                    let t = rr % self.shards;
                    rr += 1;
                    t
                };
                params.push(Param::output(addr_on_shard(target), 16));
            }
            tasks.push(TaskRecord {
                id,
                fptr: 0x54A2,
                params,
                exec: SimTime::from_ns(self.exec_ns),
                read: MemCost::None,
                write: MemCost::None,
            });
        }
        Trace::from_tasks(
            format!(
                "sharded-stress-{}x{}s{}k{:.0}h{:.0}",
                self.n_tasks,
                self.params_per_task,
                self.shards,
                self.skew * 100.0,
                self.hot_ratio * 100.0
            ),
            tasks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexuspp_core::oracle::OracleResolver;

    #[test]
    fn balanced_stream_spreads_over_shards() {
        let spec = ShardedStressSpec::balanced(512, 4);
        let trace = spec.generate();
        assert_eq!(trace.len(), 512);
        let mut counts = [0u64; 4];
        for t in &trace.tasks {
            for p in &t.params {
                counts[shard_of_addr(p.addr, 4)] += 1;
            }
        }
        let total: u64 = counts.iter().sum();
        assert_eq!(total, 512 * 2);
        for (s, c) in counts.iter().enumerate() {
            assert!(
                *c * 4 >= total * 8 / 10 && *c * 4 <= total * 12 / 10,
                "shard {s} holds {c}/{total} parameters — not balanced"
            );
        }
    }

    #[test]
    fn full_skew_hits_one_shard_only() {
        let trace = ShardedStressSpec::hot_shard(256, 8).generate();
        for t in &trace.tasks {
            for p in &t.params {
                assert_eq!(shard_of_addr(p.addr, 8), 0);
            }
        }
    }

    #[test]
    fn balanced_stream_is_fully_independent() {
        let trace = ShardedStressSpec::balanced(200, 4).generate();
        let mut oracle = OracleResolver::new();
        for t in &trace.tasks {
            let (_, ready) = oracle.submit(&t.params);
            assert!(ready, "balanced stream must have no dependencies");
        }
    }

    #[test]
    fn hot_key_creates_fanout_and_write_epochs() {
        let spec = ShardedStressSpec {
            hot_period: 8,
            ..ShardedStressSpec::hot_key(400, 4, 0.5)
        };
        let trace = spec.generate();
        // Identify the hot address as the only repeated one.
        let mut freq = std::collections::HashMap::new();
        for t in &trace.tasks {
            for p in &t.params {
                *freq.entry(p.addr).or_insert(0u32) += 1;
            }
        }
        let (&hot_addr, _) = freq.iter().max_by_key(|(_, c)| **c).unwrap();
        assert_eq!(shard_of_addr(hot_addr, 4), 0, "hot key is homed on shard 0");
        let mut readers = 0u32;
        let mut writers = 0u32;
        let mut parked = 0u32;
        let mut oracle = OracleResolver::new();
        for t in &trace.tasks {
            for p in &t.params {
                if p.addr == hot_addr {
                    if p.mode.is_read_only() {
                        readers += 1;
                    } else {
                        writers += 1;
                    }
                }
            }
            let (_, ready) = oracle.submit(&t.params);
            if !ready {
                parked += 1;
            }
        }
        assert!(readers > 50, "hot key must be widely read ({readers})");
        assert!(writers >= 2, "hot key must rotate write epochs ({writers})");
        assert!(
            parked > 0,
            "write epochs must create real dependencies ({parked})"
        );
        // All parked tasks must drain once everything finishes.
        let mut ready = oracle.ready_set();
        while let Some(id) = ready.pop() {
            ready.extend(oracle.finish(id));
        }
        assert!(oracle.all_done());
    }

    #[test]
    fn streams_are_reproducible() {
        let a = ShardedStressSpec::hot_key(64, 4, 0.3).generate();
        let b = ShardedStressSpec::hot_key(64, 4, 0.3).generate();
        assert_eq!(a.tasks, b.tasks);
    }
}
