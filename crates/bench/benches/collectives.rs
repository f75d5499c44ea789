//! Criterion: mpisim collective primitives — barrier, allgather,
//! alltoallv at several message sizes, async vs sync all-to-all.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpisim::{AsyncExchange, Communicator, NetModel, World};

const P: usize = 8;

fn world() -> World {
    World::new(P).cores_per_node(4).net(NetModel::zero())
}

fn bench_barrier(c: &mut Criterion) {
    c.bench_function("collectives/barrier_x10", |b| {
        b.iter(|| {
            world().run(|comm| {
                for _ in 0..10 {
                    comm.barrier();
                }
            })
        });
    });
}

fn bench_allgather(c: &mut Criterion) {
    c.bench_function("collectives/allgather_1k", |b| {
        b.iter(|| {
            world().run(|comm| {
                let data = vec![comm.rank() as u64; 1024];
                comm.allgather(&data).len()
            })
        });
    });
}

fn bench_alltoallv(c: &mut Criterion) {
    let mut group = c.benchmark_group("collectives/alltoallv");
    for per_peer in [64usize, 1024, 16 * 1024] {
        group.throughput(Throughput::Bytes((per_peer * P * P * 8) as u64));
        group.bench_with_input(BenchmarkId::new("sync", per_peer), &per_peer, |b, &n| {
            b.iter(|| {
                world().run(move |comm| {
                    let data = vec![comm.rank() as u64; n * P];
                    let counts = vec![n; P];
                    comm.alltoallv(&data, &counts).0.len()
                })
            });
        });
        group.bench_with_input(BenchmarkId::new("async", per_peer), &per_peer, |b, &n| {
            b.iter(|| {
                world().run(move |comm| {
                    let data = vec![comm.rank() as u64; n * P];
                    let counts = vec![n; P];
                    let mut pending = comm.alltoallv_async(&data, &counts);
                    let mut total = 0usize;
                    while let Some((_src, chunk)) = pending.wait_any(comm) {
                        total += chunk.len();
                    }
                    total
                })
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_barrier, bench_allgather, bench_alltoallv
}
criterion_main!(benches);
