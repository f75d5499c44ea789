//! Runtime auto-tuning of the τ thresholds — the paper's stated future
//! work ("we plan to systematically study the configuration parameters
//! τm, τo, and τs", §6), implemented as live micro-probes.
//!
//! The three thresholds are machine constants: the paper hand-tunes
//! 160 MB / 4096 / 4000 for Edison by running the Fig. 5 sweeps offline.
//! [`autotune`] runs miniature versions of those sweeps *on the actual
//! communicator* right before a sort:
//!
//! * **τm** — time a probe-sized all-to-all directly vs through node-level
//!   merging, pick the winner for the upcoming message size;
//! * **τo** — time a probe exchange synchronously vs overlapped with
//!   pairwise merging;
//! * **τs** — time the final ordering of `p` probe runs by k-way merge vs
//!   adaptive re-sort.
//!
//! Probes cost `O(probe·p)` virtual time with `probe ≪ n` and make the
//! same decision on every rank (timings are reduced with max across ranks
//! before comparison, so the collective never diverges).

use crate::config::{LocalKernel, SdsConfig};
use crate::merge::{kway_merge, merge_two};
use crate::node_merge::node_merge;
use crate::record::Sortable;
use comm::{AsyncExchange, Communicator};

/// What the probes measured, alongside the tuned configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutotuneReport {
    /// Direct exchange probe time (s).
    pub t_direct: f64,
    /// Node-merged exchange probe time (s).
    pub t_node_merge: f64,
    /// Synchronous exchange+order probe time (s).
    pub t_sync: f64,
    /// Overlapped exchange+order probe time (s).
    pub t_overlap: f64,
    /// k-way merge ordering probe time (s).
    pub t_merge_order: f64,
    /// Re-sort ordering probe time (s).
    pub t_sort_order: f64,
}

/// Probe record count per rank (clamped to the available data size).
fn probe_size(local_n: usize) -> usize {
    local_n.clamp(256, 1 << 14)
}

fn probe_keys(n: usize, rank: usize) -> Vec<u64> {
    // Deterministic pseudo-random keys; no external RNG needed.
    let mut x = 0x2545_F491_4F6C_DD1Du64 ^ (rank as u64) << 32;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

/// Tune τm, τo, τs for the upcoming sort of `local_n` records of `T` on
/// this communicator, starting from `base` (whose `stable`,
/// `local_threads`, and charge mode are preserved). Collective.
pub fn autotune<T: Sortable, C: Communicator>(
    comm: &C,
    local_n: usize,
    base: &SdsConfig,
) -> (SdsConfig, AutotuneReport) {
    let p = comm.size();
    let mut cfg = *base;
    let n = probe_size(local_n);
    let mut data = probe_keys(n, comm.rank());
    data.sort_unstable();
    let even_counts = {
        let mut c = vec![n / p; p];
        for item in c.iter_mut().take(n % p) {
            *item += 1;
        }
        c
    };

    // --- τm probe: direct vs node-merged exchange -----------------------
    comm.barrier();
    let t0 = comm.now();
    let _ = comm.alltoallv(&data, &even_counts);
    let t_direct = max_across(comm, comm.now() - t0);

    let t1 = comm.now();
    {
        let (cg, cl) = comm.refine_comm();
        let merged = comm.compute(|| node_merge(&cl, &data));
        if let (Some(cg), Some(merged)) = (cg, merged) {
            let pl = cg.size();
            let mut counts = vec![merged.len() / pl; pl];
            for item in counts.iter_mut().take(merged.len() % pl) {
                *item += 1;
            }
            let _ = cg.alltoallv(&merged, &counts);
        }
    }
    let t_node_merge = max_across(comm, comm.now() - t1);

    // The probe compares at the *probe* message size; extrapolate the τm
    // byte threshold: if merging won the probe, merge anything up to twice
    // the real message size, else disable.
    let real_msg_bytes = local_n / p.max(1) * std::mem::size_of::<T>();
    cfg.tau_m_bytes = if t_node_merge < t_direct {
        real_msg_bytes.saturating_mul(2).max(1)
    } else {
        0
    };

    // --- τo probe: sync vs overlapped exchange+order --------------------
    comm.barrier();
    let t2 = comm.now();
    {
        let buf = comm.alltoallv(&data, &even_counts).0;
        let runs: Vec<&[u64]> = buf.chunks(n.div_ceil(p).max(1)).collect();
        let _ = comm.compute(|| kway_merge(&runs));
    }
    let t_sync = max_across(comm, comm.now() - t2);

    let t3 = comm.now();
    {
        let mut pending = comm.alltoallv_async(&data, &even_counts);
        let mut acc: Vec<u64> = Vec::new();
        while let Some((_src, chunk)) = pending.wait_any(comm) {
            acc = comm.compute(|| merge_two(&acc, &chunk));
        }
    }
    let t_overlap = max_across(comm, comm.now() - t3);
    cfg.tau_o = if t_overlap < t_sync && !cfg.stable {
        p + 1
    } else {
        0
    };

    // --- τs probe: k-way merge vs adaptive re-sort (local only) ---------
    let chunk_len = n.div_ceil(p).max(1);
    let probe_runs: Vec<Vec<u64>> = data.chunks(chunk_len).map(<[u64]>::to_vec).collect();
    let refs: Vec<&[u64]> = probe_runs.iter().map(Vec::as_slice).collect();
    let t4 = comm.now();
    let merged = comm.compute(|| kway_merge(&refs));
    let t_merge_order = max_across(comm, comm.now() - t4);
    std::hint::black_box(merged.len());

    let t5 = comm.now();
    comm.compute(|| {
        let mut buf: Vec<u64> = probe_runs.iter().flatten().copied().collect();
        buf.sort_unstable();
        std::hint::black_box(buf.len());
    });
    let t_sort_order = max_across(comm, comm.now() - t5);
    cfg.tau_s = if t_merge_order < t_sort_order {
        p + 1
    } else {
        0
    };

    // No local-kernel probe: a probe small enough to be cheap fits in
    // cache and says nothing about the multi-MiB inputs where radix loses
    // to the std sorts, so radix-capable keys stay on the per-call Auto
    // gate. Non-radix keys resolve to Comparison outright, since Auto's
    // gate would re-test `T::RADIX` per sort for nothing.
    cfg.local_kernel = if T::RADIX {
        LocalKernel::Auto
    } else {
        LocalKernel::Comparison
    };

    (
        cfg,
        AutotuneReport {
            t_direct,
            t_node_merge,
            t_sync,
            t_overlap,
            t_merge_order,
            t_sort_order,
        },
    )
}

/// Reduce a probe time with max so every rank compares the same values
/// (f64 max is commutative/associative enough for identical inputs).
fn max_across<C: Communicator>(comm: &C, t: f64) -> f64 {
    let bits = comm.allreduce(t.to_bits(), |a, b| {
        if f64::from_bits(a) >= f64::from_bits(b) {
            a
        } else {
            b
        }
    });
    f64::from_bits(bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::sds_sort;
    use mpisim::{NetModel, World};

    #[test]
    fn decisions_are_uniform_across_ranks() {
        let report = World::new(6)
            .cores_per_node(3)
            .net(NetModel::edison())
            .run(|comm| {
                let (cfg, _) = autotune::<u64, _>(comm, 5000, &SdsConfig::default());
                (cfg.tau_m_bytes, cfg.tau_o, cfg.tau_s)
            });
        let first = report.results[0];
        for r in &report.results {
            assert_eq!(*r, first, "all ranks must agree on the tuned config");
        }
    }

    #[test]
    fn tuned_config_sorts_correctly() {
        let report = World::new(8)
            .cores_per_node(4)
            .net(NetModel::edison())
            .run(|comm| {
                let input = probe_keys(3000, comm.rank() + 100);
                let (cfg, _) = autotune::<u64, _>(comm, input.len(), &SdsConfig::default());
                let out = sds_sort(comm, input.clone(), &cfg).expect("no budget");
                (input, out.data)
            });
        let flat: Vec<u64> = report.results.iter().flat_map(|(_, o)| o.clone()).collect();
        assert!(flat.windows(2).all(|w| w[0] <= w[1]));
        let mut all_in: Vec<u64> = report.results.iter().flat_map(|(i, _)| i.clone()).collect();
        let mut all_out = flat;
        all_in.sort_unstable();
        all_out.sort_unstable();
        assert_eq!(all_in, all_out);
    }

    #[test]
    fn stable_base_never_enables_overlap() {
        let report = World::new(4)
            .cores_per_node(2)
            .net(NetModel::edison())
            .run(|comm| {
                let (cfg, _) = autotune::<u64, _>(comm, 4000, &SdsConfig::stable());
                (cfg.stable, cfg.should_overlap(comm.size()))
            });
        for (stable, overlap) in report.results {
            assert!(stable);
            assert!(!overlap, "stable sorting must never overlap");
        }
    }

    #[test]
    fn report_times_are_positive() {
        let report = World::new(4)
            .cores_per_node(2)
            .net(NetModel::edison())
            .run(|comm| {
                let (_, rep) = autotune::<u64, _>(comm, 4000, &SdsConfig::default());
                rep
            });
        for rep in report.results {
            assert!(rep.t_direct > 0.0);
            assert!(rep.t_node_merge > 0.0);
            assert!(rep.t_sync > 0.0);
            assert!(rep.t_overlap > 0.0);
            assert!(rep.t_merge_order >= 0.0);
            assert!(rep.t_sort_order >= 0.0);
        }
    }

    #[test]
    fn kernel_follows_key_type() {
        // Radix-capable keys stay on the size- and digit-aware Auto gate;
        // keys without a u64 embedding go straight to comparison.
        let report = World::new(4)
            .cores_per_node(2)
            .net(NetModel::edison())
            .run(|comm| {
                let (radix, _) = autotune::<u64, _>(comm, 8000, &SdsConfig::default());
                let (wide, _) = autotune::<u128, _>(comm, 4000, &SdsConfig::default());
                (radix.local_kernel, wide.local_kernel)
            });
        for kernels in report.results {
            assert_eq!(kernels, (LocalKernel::Auto, LocalKernel::Comparison));
        }
    }

    #[test]
    fn probe_size_clamps() {
        assert_eq!(probe_size(10), 256);
        assert_eq!(probe_size(5000), 5000);
        assert_eq!(probe_size(1 << 20), 1 << 14);
    }
}
