//! Criterion: end-to-end distributed sorts on a small world — SDS-Sort
//! (fast + stable), HykSort, classical sample sort, bitonic.

use baselines::{bitonic_sort, hyksort, sample_sort, HykSortConfig, SampleSortConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpisim::{Communicator, NetModel, World};
use sdssort::{sds_sort, SdsConfig};
use workloads::{uniform_u64, zipf_keys};

const P: usize = 8;
const N_RANK: usize = 20_000;

fn world() -> World {
    World::new(P).cores_per_node(4).net(NetModel::zero())
}

fn bench_sorters(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.throughput(Throughput::Elements((P * N_RANK) as u64));

    for (workload, alpha) in [("uniform", None::<f64>), ("zipf_0.9", Some(0.9))] {
        let gen = move |r: usize| -> Vec<u64> {
            match alpha {
                None => uniform_u64(N_RANK, 9, r),
                Some(a) => zipf_keys(N_RANK, a, 9, r),
            }
        };
        group.bench_with_input(BenchmarkId::new("sds_fast", workload), &(), |b, ()| {
            let mut cfg = SdsConfig::default();
            cfg.tau_m_bytes = 0;
            b.iter(|| {
                world().run(|comm| {
                    sds_sort(comm, gen(comm.rank()), &cfg)
                        .expect("no budget")
                        .data
                        .len()
                })
            });
        });
        group.bench_with_input(BenchmarkId::new("sds_stable", workload), &(), |b, ()| {
            let mut cfg = SdsConfig::stable();
            cfg.tau_m_bytes = 0;
            b.iter(|| {
                world().run(|comm| {
                    sds_sort(comm, gen(comm.rank()), &cfg)
                        .expect("no budget")
                        .data
                        .len()
                })
            });
        });
        group.bench_with_input(BenchmarkId::new("hyksort", workload), &(), |b, ()| {
            let cfg = HykSortConfig::default();
            b.iter(|| {
                world().run(|comm| {
                    hyksort(comm, gen(comm.rank()), &cfg)
                        .expect("no budget")
                        .data
                        .len()
                })
            });
        });
        group.bench_with_input(BenchmarkId::new("samplesort", workload), &(), |b, ()| {
            let cfg = SampleSortConfig::default();
            b.iter(|| {
                world().run(|comm| {
                    sample_sort(comm, gen(comm.rank()), &cfg)
                        .expect("no budget")
                        .data
                        .len()
                })
            });
        });
        group.bench_with_input(BenchmarkId::new("bitonic", workload), &(), |b, ()| {
            b.iter(|| world().run(|comm| bitonic_sort(comm, gen(comm.rank())).len()));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sorters
}
criterion_main!(benches);
