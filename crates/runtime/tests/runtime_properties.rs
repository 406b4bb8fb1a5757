//! Property test: arbitrary dataflow programs executed by the threaded
//! runtime always produce the sequential (submission-order) result,
//! regardless of worker count, shard count, task shape, or scheduling
//! interleaving.

use nexuspp_runtime::Runtime;
use proptest::prelude::*;

/// One scripted operation: dst = f(src1, src2) over single-cell regions.
#[derive(Debug, Clone, Copy)]
struct Op {
    dst: usize,
    src1: usize,
    src2: usize,
    mul: u64,
    high_priority: bool,
}

fn op_strategy(regions: usize) -> impl Strategy<Value = Op> {
    (0..regions, 0..regions, 0..regions, 1u64..7, prop::bool::ANY).prop_map(
        |(dst, src1, src2, mul, high_priority)| Op {
            dst,
            src1,
            src2,
            mul,
            high_priority,
        },
    )
}

fn apply(vals: &mut [u64], op: Op) {
    vals[op.dst] = vals[op.src1]
        .wrapping_mul(op.mul)
        .wrapping_add(vals[op.src2])
        .wrapping_add(1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_equals_sequential(
        script in prop::collection::vec(op_strategy(5), 1..120),
        workers in 1usize..9,
        shards in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        const REGIONS: usize = 5;
        // Sequential reference.
        let mut reference = [1u64; REGIONS];
        for &op in &script {
            apply(&mut reference, op);
        }

        // Parallel execution with declared accesses.
        let rt = Runtime::new(workers, shards);
        let regions: Vec<_> = (0..REGIONS).map(|_| rt.region(vec![1u64])).collect();
        for &op in &script {
            let d = regions[op.dst].clone();
            let s1 = regions[op.src1].clone();
            let s2 = regions[op.src2].clone();
            let mut b = rt.task();
            // Declare reads for both sources and a write (or inout when a
            // source aliases the destination) — normalization merges the
            // duplicate declarations.
            b = b.input(&regions[op.src1]).input(&regions[op.src2]);
            b = if op.dst == op.src1 || op.dst == op.src2 {
                b.inout(&regions[op.dst])
            } else {
                b.output(&regions[op.dst])
            };
            if op.high_priority {
                b = b.high_priority();
            }
            b.spawn(move |t| {
                let v1 = t.read(&s1)[0];
                let v2 = t.read(&s2)[0];
                t.write(&d)[0] = v1.wrapping_mul(op.mul).wrapping_add(v2).wrapping_add(1);
            });
        }
        rt.barrier();
        for (k, r) in regions.iter().enumerate() {
            prop_assert_eq!(rt.with_data(r, |v| v[0]), reference[k], "region {}", k);
        }
    }
}
