//! Gaussian elimination with partial pivoting (Figure 5, Table II).
//!
//! "The execution starts with one task (T11), on which n−1 tasks
//! (T21..Tn1) depend. After that only one task (T22) can execute, and then
//! n−2 tasks, etc. Total number of tasks is relative to the matrix size,
//! and equals (n²+n−2)/2."
//!
//! We model the factorization column-wise as in LINPACK's `dgefa`: step `i`
//! has a pivot task `T_ii` (pivot search + scale, weight `n+1−i` FLOPs)
//! with `inout(col_i)`, and update tasks `T_ji` for `j > i` (weight `n−i`
//! FLOPs) with `input(col_i), inout(col_j)`. The final trivial pivot
//! `T_nn` is omitted, which yields exactly the paper's task count. The
//! fan-out of `col_i` to its `n−i` update readers is what overflows the
//! 8-slot Kick-Off Lists and validates the dummy-entry mechanism; the WAW
//! chain on each `col_j` across steps serializes a column's updates.
//!
//! Per the paper: "Each task performs \[W\] floating point operations […]
//! Hence the duration of a task Tji equals W(Tji) divided by the GFLOPS of
//! one core. Each task also reads W(Tji) floating point numbers from
//! memory, and writes the same number back when finished." Durations use
//! the configured GFLOPS (2 per core in §V); memory volumes are expressed
//! as byte counts (`MemCost::Bytes`) and timed by the banked memory model.
//! Tasks are generated in serial execution order: `T11, T21 … Tn1, T22, …`.
//!
//! For n = 5000 the trace has 12 502 499 tasks, so [`GaussianSource`]
//! synthesizes tasks on demand instead of materializing them.

use nexuspp_core::TaskBuilder;
use nexuspp_desim::SimTime;
use nexuspp_trace::{MemCost, TaskRecord, Trace, TraceSource};

/// Gaussian-elimination benchmark parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianSpec {
    /// Matrix dimension `n` (250–5000 in Table II).
    pub n: u32,
    /// Per-core floating-point rate ("Each single worker core is assumed to
    /// be able to do 2 GFLOPS").
    pub gflops_per_core: f64,
    /// Bytes per element (8 — LINPACK operates on doubles).
    pub elem_bytes: u32,
    /// Base address of the matrix columns.
    pub base_addr: u64,
}

impl GaussianSpec {
    /// The paper's configuration for a given matrix dimension.
    pub fn new(n: u32) -> Self {
        assert!(n >= 2, "need at least a 2×2 matrix");
        GaussianSpec {
            n,
            gflops_per_core: 2.0,
            elem_bytes: 8,
            base_addr: 0x4000_0000,
        }
    }

    /// Total task count: `(n² + n − 2) / 2` (Table II).
    pub fn task_count(&self) -> u64 {
        let n = self.n as u64;
        (n * n + n - 2) / 2
    }

    /// Weight of task `T_ji` in FLOPs (Formula 1 of the paper; 1-based
    /// `i`, `j`).
    pub(crate) fn weight(&self, j: u32, i: u32) -> u64 {
        debug_assert!(i >= 1 && j >= i && j <= self.n);
        let n = self.n as u64;
        if i == j {
            n + 1 - i as u64
        } else {
            n - i as u64
        }
    }

    /// Sum of all task weights in FLOPs.
    pub(crate) fn total_flops(&self) -> u64 {
        let n = self.n as u64;
        // Pivots i = 1..n-1: Σ (n+1−i); updates per i: (n−i)·(n−i).
        (1..n).map(|i| (n + 1 - i) + (n - i) * (n - i)).sum()
    }

    /// Average task weight in FLOPs (Table II's right column).
    pub fn avg_weight(&self) -> f64 {
        self.total_flops() as f64 / self.task_count() as f64
    }

    /// Average task duration implied by `gflops_per_core` (the paper
    /// quotes 1.77 µs for n = 5000).
    pub fn avg_task_time(&self) -> SimTime {
        SimTime::from_ns_f64(self.avg_weight() / self.gflops_per_core)
    }

    /// Address of column `j` (1-based).
    pub(crate) fn col_addr(&self, j: u32) -> u64 {
        debug_assert!(j >= 1 && j <= self.n);
        self.base_addr + (j as u64 - 1) * (self.n as u64 * self.elem_bytes as u64)
    }

    fn make_task(&self, id: u64, j: u32, i: u32) -> TaskRecord {
        let w = self.weight(j, i);
        let bytes = w * self.elem_bytes as u64;
        let col_bytes = self.n * self.elem_bytes;
        let t = if i == j {
            // Pivot kernel.
            TaskBuilder::new(0x6A05).read_writes(self.col_addr(i), col_bytes)
        } else {
            // Update kernel.
            TaskBuilder::new(0x6A06)
                .reads(self.col_addr(i), col_bytes)
                .read_writes(self.col_addr(j), col_bytes)
        };
        t.tag(id).record(
            SimTime::from_ns_f64(w as f64 / self.gflops_per_core),
            MemCost::Bytes(bytes),
            MemCost::Bytes(bytes),
        )
    }

    /// Streaming source generating tasks in serial execution order.
    pub fn source(&self) -> GaussianSource {
        GaussianSource {
            spec: *self,
            i: 1,
            j: 1,
            id: 0,
        }
    }

    /// Materialized trace (small `n` only — n=1000 is already 500K tasks).
    pub fn trace(&self) -> Trace {
        let mut src = self.source();
        let mut tasks = Vec::with_capacity(self.task_count() as usize);
        while let Some(t) = src.next_task() {
            tasks.push(t);
        }
        Trace::from_tasks(format!("gaussian-{}", self.n), tasks)
    }
}

/// Streaming [`TraceSource`] for the Gaussian benchmark.
#[derive(Debug, Clone)]
pub struct GaussianSource {
    spec: GaussianSpec,
    /// Current elimination step (1-based); `n` means exhausted.
    i: u32,
    /// Next row task within the step (`j == i` is the pivot).
    j: u32,
    id: u64,
}

impl TraceSource for GaussianSource {
    fn next_task(&mut self) -> Option<TaskRecord> {
        let n = self.spec.n;
        if self.i >= n {
            return None;
        }
        let (i, j) = (self.i, self.j);
        let task = self.spec.make_task(self.id, j, i);
        self.id += 1;
        // Advance: pivot T_ii, then updates T_(i+1..n),i, then next step.
        if self.j < n {
            self.j += 1;
        } else {
            self.i += 1;
            self.j = self.i;
        }
        Some(task)
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.spec.task_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table II of the paper.
    const TABLE_II: [(u32, u64, f64); 5] = [
        (250, 31_374, 167.0),
        (500, 125_249, 334.0),
        (1000, 500_499, 667.0),
        (3000, 4_501_499, 2012.0),
        (5000, 12_502_499, 3523.0),
    ];

    #[test]
    fn table_ii_task_counts_exact() {
        for (n, count, _) in TABLE_II {
            assert_eq!(GaussianSpec::new(n).task_count(), count, "n = {n}");
        }
    }

    #[test]
    fn table_ii_average_weights_close() {
        // Formula 1 reproduces Table II's averages within 0.7% for
        // n ≤ 3000. The n = 5000 row (3523) is inconsistent with the
        // paper's own Formula 1, which yields 3332.7 — a paper-internal
        // discrepancy documented in EXPERIMENTS.md; we follow the formula.
        for (n, _, avg) in TABLE_II {
            let ours = GaussianSpec::new(n).avg_weight();
            let rel = (ours - avg).abs() / avg;
            let tol = if n == 5000 { 0.06 } else { 0.01 };
            assert!(
                rel < tol,
                "n = {n}: ours {ours:.1} vs paper {avg} ({rel:.3})"
            );
        }
        // Pin the exact Formula-1 values so regressions are caught.
        assert!((GaussianSpec::new(250).avg_weight() - 166.013).abs() < 1e-3);
        assert!((GaussianSpec::new(5000).avg_weight() - 3332.667).abs() < 1e-3);
    }

    #[test]
    fn avg_task_time_matches_paper_for_5000() {
        // The paper quotes 1.77 µs average for n = 5000 at 2 GFLOPS
        // (consistent with its Table II average of 3523 FLOPs); Formula 1
        // gives 3332.7 FLOPs → 1.67 µs. We assert the Formula-1 value and
        // that it lands within 6% of the quoted figure.
        let t = GaussianSpec::new(5000).avg_task_time();
        assert!((t.as_us_f64() - 1.666).abs() < 0.01, "got {t}");
        assert!((t.as_us_f64() - 1.77).abs() / 1.77 < 0.06);
        // "the 250×250 has very small tasks (83.5 ns per task on average)".
        let t = GaussianSpec::new(250).avg_task_time();
        assert!((t.as_ns_f64() - 83.5).abs() < 1.0, "got {t}");
    }

    #[test]
    fn source_generates_exactly_task_count() {
        let spec = GaussianSpec::new(40);
        let mut src = spec.source();
        let mut count = 0u64;
        while src.next_task().is_some() {
            count += 1;
        }
        assert_eq!(count, spec.task_count());
        assert_eq!(src.len_hint(), Some(spec.task_count()));
    }

    #[test]
    fn generation_order_is_serial_execution_order() {
        let spec = GaussianSpec::new(4);
        let t = spec.trace();
        // T11, T21, T31, T41, T22, T32, T42, T33, T43 — 9 tasks; T44 omitted.
        assert_eq!(t.len(), 9);
        // Pivots have 1 param, updates 2.
        let shape: Vec<usize> = t.tasks.iter().map(|x| x.params.len()).collect();
        assert_eq!(shape, vec![1, 2, 2, 2, 1, 2, 2, 1, 2]);
    }

    #[test]
    fn weights_follow_formula_one() {
        let spec = GaussianSpec::new(10);
        assert_eq!(spec.weight(1, 1), 10); // W(T11) = n+1-1
        assert_eq!(spec.weight(5, 1), 9); // off-diagonal: n-i
        assert_eq!(spec.weight(9, 9), 2);
        assert_eq!(spec.weight(10, 9), 1);
    }

    #[test]
    fn fan_out_matches_figure_five() {
        use nexuspp_core::oracle::OracleResolver;
        let spec = GaussianSpec::new(6);
        let trace = spec.trace();
        let mut oracle = OracleResolver::new();
        let mut ready_flags = Vec::new();
        for t in &trace.tasks {
            let (_, r) = oracle.submit(&t.params);
            ready_flags.push(r);
        }
        // Only T11 is ready at submission; every later task depends on its
        // step's pivot (or, for pivots, on the previous step's update).
        assert!(ready_flags[0]);
        assert_eq!(ready_flags.iter().filter(|&&r| r).count(), 1);
        // T11 unblocks exactly the n−1 = 5 update tasks of step 1.
        let woken = oracle.finish(0);
        assert_eq!(woken.len(), 5);
    }

    #[test]
    fn exec_times_scale_with_weight() {
        let spec = GaussianSpec::new(100);
        let tr = spec.trace();
        // Pivot T11: weight 100 FLOPs / 2 GFLOPS = 50 ns.
        assert_eq!(tr.tasks[0].exec, SimTime::from_ns(50));
        // Update T21: weight 99 → 49.5 ns.
        assert_eq!(tr.tasks[1].exec, SimTime::from_ps(49_500));
        // Memory: W doubles each way.
        assert_eq!(tr.tasks[0].read, MemCost::Bytes(800));
        assert_eq!(tr.tasks[0].write, MemCost::Bytes(800));
    }

    #[test]
    fn columns_do_not_alias() {
        let spec = GaussianSpec::new(64);
        let mut addrs = std::collections::HashSet::new();
        for j in 1..=64 {
            assert!(addrs.insert(spec.col_addr(j)));
        }
    }
}
