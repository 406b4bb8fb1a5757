//! Threaded-runtime overhead: spawn/resolve/execute cost per task for
//! trivial closures (the software floor the hardware accelerator is
//! designed to beat).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nexuspp_runtime::Runtime;

fn bench_runtime(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_overhead");
    g.sample_size(15);
    const N: u64 = 2000;
    g.throughput(Throughput::Elements(N));

    g.bench_function("independent_empty_tasks", |b| {
        let rt = Runtime::new(4, 1);
        b.iter(|| {
            for _ in 0..N {
                rt.task().spawn(|_| {});
            }
            rt.barrier();
        });
    });

    g.bench_function("chained_inout_tasks", |b| {
        let rt = Runtime::new(4, 1);
        let r = rt.region(vec![0u64]);
        b.iter(|| {
            for _ in 0..N {
                let r2 = r.clone();
                rt.task().inout(&r).spawn(move |t| {
                    t.write(&r2)[0] += 1;
                });
            }
            rt.barrier();
        });
    });
    g.finish();
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
