//! The SDS-Sort driver (paper Fig. 1).
//!
//! Orchestrates the full pipeline on a communicator:
//!
//! 1. initial local sort (`SdssLocalSort`);
//! 2. adaptive node-level merging when the average message is below `τm`
//!    (`SdssRefineComm` + `SdssNodeMerge`), after which the sort continues
//!    among node leaders only;
//! 3. regular sampling of local pivots and distributed global pivot
//!    selection (`SdssSelectPivots`);
//! 4. skew-aware partitioning (`SdssPartition`), fast or stable;
//! 5. collective memory check for the receive buffer (the step where an
//!    imbalanced sorter dies with OOM);
//! 6. all-to-all exchange — synchronous, or asynchronous overlapped with
//!    incremental merging when `p < τo` and the sort is unstable;
//! 7. adaptive final local ordering: k-way merge below `τs`, adaptive
//!    re-sort above.
//!
//! Every rank returns its slice of the globally sorted sequence (ascending
//! with rank) plus a [`SortStats`] phase breakdown.

use crate::config::{charged, LocalKernel, SdsConfig};
use crate::local_sort::{local_sort_with, LocalSortReport};
use crate::merge::{kway_merge_offsets, merge_two};
use crate::node_merge::node_merge;
use crate::partition::{
    cuts_to_counts, fast_cuts, local_dup_counts, replicated_runs, shares_for_source, stable_cuts,
};
use crate::pivots::{select_global_pivots, PivotMethod};
use crate::record::Sortable;
use crate::search::LocalPivotIndex;
use crate::stats::SortStats;
use comm::{AsyncExchange, Communicator, OomError};

/// Errors from a distributed sort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SortError {
    /// This rank's simulated memory budget was exceeded while allocating
    /// the receive buffer.
    Oom(OomError),
    /// Another rank hit its memory budget; the collective sort was
    /// abandoned everywhere (the paper's whole-job crash).
    PeerOom,
    /// A disk error on the resilient spill path.
    Io(String),
}

impl std::fmt::Display for SortError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SortError::Oom(e) => write!(f, "{e}"),
            SortError::PeerOom => write!(f, "sort aborted: a peer rank ran out of memory"),
            SortError::Io(e) => write!(f, "sort spill i/o failed: {e}"),
        }
    }
}

impl std::error::Error for SortError {}

/// Collectively check that every rank can allocate its `bytes`-sized
/// receive buffer. On success `bytes` stays reserved on every rank; if any
/// rank would exceed its budget, every rank releases its reservation and
/// fails together — [`SortError::Oom`] on the rank that ran out,
/// [`SortError::PeerOom`] elsewhere. This is the simulator's model of the
/// paper's whole-job out-of-memory crash.
pub fn collective_alloc<C: Communicator>(comm: &C, bytes: usize) -> Result<(), SortError> {
    let my_alloc = comm.try_alloc(bytes);
    let any_oom = comm.allreduce(u8::from(my_alloc.is_err()), |a, b| a.max(b)) > 0;
    if any_oom {
        if my_alloc.is_ok() {
            comm.free(bytes);
        }
        return Err(match my_alloc {
            Err(e) => SortError::Oom(e),
            Ok(()) => SortError::PeerOom,
        });
    }
    Ok(())
}

/// Result of one rank's participation in a distributed sort.
#[derive(Debug, Clone)]
pub struct SortOutput<T> {
    /// This rank's slice of the global sorted order (may be empty, e.g. on
    /// non-leader ranks after node merging).
    pub data: Vec<T>,
    /// Phase breakdown and load metrics.
    pub stats: SortStats,
}

/// Policy object for steps 5–7 of the pipeline: the collective memory
/// check, the all-to-all exchange, and the final local ordering. The
/// default [`InMemoryExchange`] is the paper's behaviour (whole-job OOM
/// crash when any receive buffer does not fit); the resilient backend in
/// [`crate::resilience`] degrades to disk spilling instead.
pub(crate) trait ExchangeBackend<T: Sortable, C: Communicator> {
    /// Exchange `data` according to `scounts` and return this rank's
    /// locally ordered slice. Called with the "exchange" phase/span open;
    /// implementations must close `sp_ex` and account `stats.exchange_s` /
    /// `stats.local_order_s` / `stats.recv_count` themselves.
    #[allow(clippy::too_many_arguments)]
    fn exchange(
        &self,
        comm: &C,
        data: Vec<T>,
        scounts: &[usize],
        cfg: &SdsConfig,
        stats: &mut SortStats,
        t1: f64,
        sp_ex: telemetry::SpanId,
    ) -> Result<Vec<T>, SortError>;
}

/// Sort `data` (one rank's share) across all ranks of `comm` by key.
///
/// On success every rank holds a sorted slice, slices ascend with rank,
/// and the multiset union equals the input union. With `cfg.stable`, equal
/// keys appear in their global input order (rank, then local position).
pub fn sds_sort<T: Sortable, C: Communicator>(
    comm: &C,
    data: Vec<T>,
    cfg: &SdsConfig,
) -> Result<SortOutput<T>, SortError> {
    sds_sort_impl(comm, data, cfg, &InMemoryExchange)
}

/// Record which local-sort kernel ran (and its transient scratch) in the
/// telemetry counters, and log the decision's inputs on rank 0: the
/// kernel, the `n` records' bytes, whether the requested stability was
/// observable, and the active digits when the gate read them.
fn count_local_sort<T: Sortable, C: Communicator>(
    comm: &C,
    n: usize,
    stable: bool,
    report: LocalSortReport,
) {
    let name = match report.kernel {
        LocalKernel::Radix => "local_sort.kernel.radix",
        _ => "local_sort.kernel.comparison",
    };
    comm.count(name, 1);
    if report.scratch_bytes > 0 {
        comm.count("local_sort.scratch_bytes", report.scratch_bytes as u64);
    }
    if comm.recorder().enabled() && comm.rank() == 0 {
        let digits = report
            .active_digits
            .map_or_else(|| "unread".to_string(), |d| d.to_string());
        comm.event(
            "decision.local_kernel",
            &format!(
                "{:?}: input {} B, ran stable {}, active digits {digits}",
                report.kernel,
                n * std::mem::size_of::<T>(),
                stable && !T::KEY_ONLY
            ),
        );
    }
}

/// Full pipeline, generic over the exchange backend.
pub(crate) fn sds_sort_impl<T: Sortable, C: Communicator, B: ExchangeBackend<T, C>>(
    comm: &C,
    mut data: Vec<T>,
    cfg: &SdsConfig,
    backend: &B,
) -> Result<SortOutput<T>, SortError> {
    let p = comm.size();
    let mut stats = SortStats {
        input_count: data.len(),
        ..SortStats::default()
    };
    let t0 = comm.now();

    // Step 1: initial local sort (pivot-selection phase per the paper's
    // "initial ordering" footnote).
    comm.trace_phase("pivot");
    let sp_pivot = comm.span_begin("pivot-select");
    let n0 = data.len();
    let lsr = charged(
        comm,
        cfg.charge,
        |m| m.sort_cost_with(n0, cfg.stable),
        || local_sort_with(&mut data, cfg.local_threads, cfg.stable, cfg.local_kernel),
    );
    count_local_sort::<T, C>(comm, n0, cfg.stable, lsr);

    if p == 1 {
        stats.pivot_s = comm.now() - t0;
        stats.recv_count = data.len();
        comm.span_end(sp_pivot);
        return Ok(SortOutput { data, stats });
    }

    // Step 2: adaptive node-level merging. The decision must be uniform
    // across ranks, so it uses the global average local size.
    let n_sum = comm.allreduce(data.len() as u64, |a, b| a + b);
    let n_avg = (n_sum / p as u64) as usize;
    let c = comm.cores_per_node();
    if c > 1 && cfg.should_node_merge::<T>(n_avg, p) {
        stats.node_merged = true;
        if comm.recorder().enabled() && comm.rank() == 0 {
            comm.event(
                "decision.node-merge",
                &format!("avg {n_avg} records/rank over {p} ranks"),
            );
        }
        let sp_nm = comm.span_begin("node-merge");
        let (cg, cl) = comm.refine_comm();
        let node_n = cl.allreduce(data.len(), |a, b| a + b);
        let k = cl.size();
        let merged = charged(
            comm,
            cfg.charge,
            |m| m.kway_merge_cost(node_n, k),
            || node_merge(&cl, &data),
        );
        drop(data);
        comm.span_end(sp_nm);
        return match (cg, merged) {
            (Some(cg), Some(merged)) => inner_sort(&cg, merged, cfg, stats, t0, sp_pivot, backend),
            (None, None) => {
                // Non-leader: its data now lives on the node leader.
                stats.pivot_s = comm.now() - t0;
                comm.span_end(sp_pivot);
                Ok(SortOutput {
                    data: Vec::new(),
                    stats,
                })
            }
            _ => unreachable!("leader status must agree between cg and node_merge"),
        };
    }

    inner_sort(comm, data, cfg, stats, t0, sp_pivot, backend)
}

/// Steps 3–7 on the (possibly refined) communicator. `data` is sorted.
fn inner_sort<T: Sortable, C: Communicator, B: ExchangeBackend<T, C>>(
    comm: &C,
    data: Vec<T>,
    cfg: &SdsConfig,
    mut stats: SortStats,
    t0: f64,
    sp_pivot: telemetry::SpanId,
    backend: &B,
) -> Result<SortOutput<T>, SortError> {
    let p = comm.size();
    if p == 1 {
        stats.pivot_s = comm.now() - t0;
        stats.recv_count = data.len();
        comm.span_end(sp_pivot);
        return Ok(SortOutput { data, stats });
    }

    // Step 3: sampling + global pivot selection.
    let index = LocalPivotIndex::build(&data, cfg.oversample.max(1) * (p - 1));
    let mut pivots = match cfg.pivot_source {
        crate::config::PivotSource::Sampling => {
            let local_pivots = index.keys().to_vec();
            select_global_pivots(comm, &local_pivots, PivotMethod::default())
        }
        crate::config::PivotSource::Histogram => crate::histogram::histogram_splitters(
            comm,
            &data,
            p,
            &crate::histogram::HistogramConfig::default(),
            0x5D55_0000 ^ p as u64,
        ),
    };
    // Degenerate tiny inputs can yield fewer than p-1 pivots; pad by
    // repeating the last pivot — the replicated-run machinery then spreads
    // the padded range evenly.
    if pivots.len() < p - 1 {
        if let Some(&last) = pivots.last() {
            pivots.resize(p - 1, last);
        }
    }

    // Step 4: skew-aware partition.
    let n = data.len();
    let cuts = if pivots.is_empty() {
        // No data anywhere beyond possibly ours: everything to rank 0.
        let mut cuts = vec![n; p + 1];
        cuts[0] = 0;
        cuts
    } else if cfg.stable {
        let runs = replicated_runs(&pivots);
        let my_counts = local_dup_counts(&data, &runs);
        let all_counts = comm.allgather(&my_counts);
        let by_source: Vec<Vec<usize>> = all_counts
            .chunks(runs.len().max(1))
            .map(<[usize]>::to_vec)
            .collect();
        let shares = if runs.is_empty() {
            Vec::new()
        } else {
            shares_for_source(&by_source, comm.rank())
        };
        charged(
            comm,
            cfg.charge,
            |m| m.scan_cost(p * 32),
            || stable_cuts(&data, &pivots, Some(&index), &shares),
        )
    } else {
        match cfg.partition {
            crate::config::PartitionStrategy::SkewAware => charged(
                comm,
                cfg.charge,
                |m| m.scan_cost(p * 32),
                || fast_cuts(&data, &pivots, Some(&index)),
            ),
            // Ablation: duplicate-blind upper_bound partitioning.
            crate::config::PartitionStrategy::Classic => charged(
                comm,
                cfg.charge,
                |m| m.scan_cost(p * 32),
                || crate::partition::classic_cuts(&data, &pivots),
            ),
        }
    };
    let scounts = cuts_to_counts(&cuts);
    debug_assert_eq!(scounts.len(), p);
    stats.pivot_s = comm.now() - t0;
    comm.span_end(sp_pivot);

    // Steps 5–7 are the backend's: collective memory check, exchange,
    // final local ordering.
    comm.trace_phase("exchange");
    let sp_ex = comm.span_begin("exchange");
    let t1 = comm.now();
    let out = backend.exchange(comm, data, &scounts, cfg, &mut stats, t1, sp_ex)?;
    Ok(SortOutput { data: out, stats })
}

/// The paper's exchange behaviour: allocate the whole receive buffer up
/// front; if any rank cannot, the collective sort fails everywhere.
pub(crate) struct InMemoryExchange;

impl<T: Sortable, C: Communicator> ExchangeBackend<T, C> for InMemoryExchange {
    fn exchange(
        &self,
        comm: &C,
        data: Vec<T>,
        scounts: &[usize],
        cfg: &SdsConfig,
        stats: &mut SortStats,
        t1: f64,
        sp_ex: telemetry::SpanId,
    ) -> Result<Vec<T>, SortError> {
        let p = comm.size();
        // Step 5: exchange counts and collectively check the receive buffer
        // against the simulated memory budget.
        let rcounts = comm.alltoall(scounts);
        let m: usize = rcounts.iter().sum();
        let bytes = m * std::mem::size_of::<T>();
        if let Err(e) = collective_alloc(comm, bytes) {
            // stats are discarded on the error path: the paper treats this
            // as a whole-job crash.
            comm.span_end(sp_ex);
            return Err(e);
        }
        stats.recv_count = m;

        // Steps 6–7: exchange + final local ordering.
        let out = if !cfg.should_overlap(p) {
            // Synchronous exchange...
            let buf = comm.alltoallv_given_counts(&data, scounts, &rcounts);
            drop(data);
            stats.exchange_s = comm.now() - t1;
            comm.span_end(sp_ex);
            // ...then ordering: merge below τs, adaptive re-sort above.
            comm.trace_phase("local-order");
            let sp_lo = comm.span_begin("local-order");
            let t2 = comm.now();
            let mut disp = Vec::with_capacity(p + 1);
            disp.push(0usize);
            for &rc in &rcounts {
                disp.push(disp.last().copied().expect("non-empty") + rc);
            }
            let sorted = if cfg.should_merge_local(p) {
                charged(
                    comm,
                    cfg.charge,
                    |mo| mo.kway_merge_cost(m, p),
                    || kway_merge_offsets(&buf, &disp),
                )
            } else {
                let mut buf = buf;
                let lsr = charged(
                    comm,
                    cfg.charge,
                    |mo| {
                        let base = mo.adaptive_sort_cost(m, p);
                        if cfg.stable {
                            base * mo.stable_factor
                        } else {
                            base
                        }
                    },
                    || local_sort_with(&mut buf, cfg.local_threads, cfg.stable, cfg.local_kernel),
                );
                count_local_sort::<T, C>(comm, buf.len(), cfg.stable, lsr);
                buf
            };
            stats.local_order_s = comm.now() - t2;
            comm.span_end(sp_lo);
            sorted
        } else {
            // Asynchronous exchange overlapped with incremental merging
            // (SdssAlltoallvAsync + SdssFinished + SdssMergeTwo).
            stats.overlapped = true;
            if comm.recorder().enabled() && comm.rank() == 0 {
                comm.event(
                    "decision.overlap",
                    &format!("p {p} below tau_o {}", cfg.tau_o),
                );
            }
            let mut pending = comm.alltoallv_async_given_counts(&data, scounts, rcounts.clone());
            drop(data);
            let mut merge_s = 0.0;
            // Binomial-counter progressive merging: every incoming chunk is a
            // level-0 run; two runs merge only when they are at the same
            // level. Total merged volume is then exactly the balanced
            // cascade's (m·⌈log2 p⌉), independent of chunk-size variance and
            // arrival order — overlapping adds no merge work over the
            // synchronous path, it only moves it earlier.
            let mut runs: Vec<(u32, Vec<T>)> = Vec::new();
            while let Some((_src, chunk)) = pending.wait_any(comm) {
                runs.push((0, chunk));
                while runs.len() >= 2 && runs[runs.len() - 1].0 == runs[runs.len() - 2].0 {
                    let (lvl, hi) = runs.pop().expect("len>=2");
                    let (_, lo) = runs.pop().expect("len>=2");
                    let tm = comm.now();
                    let merged = charged(
                        comm,
                        cfg.charge,
                        |mo| mo.kway_merge_cost(hi.len() + lo.len(), 2),
                        || merge_two(&lo, &hi),
                    );
                    merge_s += comm.now() - tm;
                    runs.push((lvl + 1, merged));
                }
            }
            // Overlap makes exchange and merge inseparable in wall order; the
            // "exchange" span covers the overlapped region, "local-order" the
            // final cascade. stats still split the virtual time exactly.
            comm.span_end(sp_ex);
            let sp_lo = comm.span_begin("local-order");
            // Balanced cascade over whatever the stack still holds (free when
            // the counter already collapsed everything into one run).
            let acc = if runs.len() == 1 {
                runs.pop().expect("len==1").1
            } else {
                let tm = comm.now();
                let refs: Vec<&[T]> = runs.iter().map(|(_, r)| r.as_slice()).collect();
                let left: usize = refs.iter().map(|r| r.len()).sum();
                let k_left = refs.len();
                let acc = charged(
                    comm,
                    cfg.charge,
                    |mo| mo.kway_merge_cost(left, k_left),
                    || crate::merge::kway_merge(&refs),
                );
                merge_s += comm.now() - tm;
                acc
            };
            let elapsed = comm.now() - t1;
            stats.local_order_s = merge_s;
            stats.exchange_s = (elapsed - merge_s).max(0.0);
            comm.span_end(sp_lo);
            acc
        };
        comm.free(bytes);
        debug_assert_eq!(out.len(), m);
        Ok(out)
    }
}
