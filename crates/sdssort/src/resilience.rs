//! Graceful degradation under memory pressure: the resilient exchange.
//!
//! The paper treats a receive buffer that exceeds the memory budget as a
//! whole-job crash (step 5 of Fig. 1) — that is what [`crate::sds_sort`]
//! faithfully reproduces and what the skew experiments of Fig. 8 measure.
//! This module adds the pragmatic alternative an operator would actually
//! want: when a rank's projected memory high-water crosses a configurable
//! pressure threshold mid-exchange, the rank *spills* received chunks
//! through [`crate::external`]'s run/merge machinery instead of aborting,
//! and the job completes (slower, but correctly and stably).
//!
//! The key interoperability property: the synchronous and asynchronous
//! exchanges consume exactly one collective tag with an identical staggered
//! wire format, so in resilient mode **all** ranks run the asynchronous
//! exchange and each rank independently decides in-memory vs. spill —
//! mixed decisions across ranks need no extra coordination. One allreduce
//! classifies ranks as `0` (in memory), `1` (spilling) or `2` (cannot even
//! stage a single chunk); only a `2` anywhere aborts the collective sort,
//! preserving the paper's crash semantics for truly hopeless budgets.
//!
//! Simulated-memory accounting on the spill path reserves only the staging
//! buffer (the largest incoming chunk): received chunks are written to disk
//! and dropped one at a time, and the final merge is modelled as streaming
//! to the consumer. Disk traffic is charged to the virtual clock through a
//! simple seek + bandwidth model.

use crate::config::{charged, SdsConfig};
use crate::external::{remove_run, write_run, PlainData, RunFile, RunMerger};
use crate::merge::kway_merge;
use crate::record::Sortable;
use crate::sort::{sds_sort_impl, ExchangeBackend, SortError, SortOutput};
use crate::stats::SortStats;
use comm::raw::RawAsync;
use comm::{AsyncExchange, Communicator};
use std::io;
use std::path::PathBuf;

/// Knobs for the resilient exchange.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Fraction of the effective memory budget above which a rank degrades
    /// to spilling even if the full receive buffer would still fit.
    pub pressure_threshold: f64,
    /// Directory for spilled run files (a `rank{NNNN}` subdirectory is
    /// created per rank).
    pub spill_dir: PathBuf,
    /// Maximum records per spilled run file; large incoming chunks are
    /// split into consecutive runs of at most this size.
    pub spill_chunk_records: usize,
    /// Modelled disk streaming bandwidth in bytes/second.
    pub disk_bw: f64,
    /// Modelled per-file seek/open latency in seconds.
    pub disk_seek_s: f64,
}

impl ResilienceConfig {
    /// Defaults: degrade at 80% pressure, 64 Ki records per run, 500 MB/s
    /// disk with 100 µs seeks.
    pub fn new(spill_dir: impl Into<PathBuf>) -> Self {
        Self {
            pressure_threshold: 0.8,
            spill_dir: spill_dir.into(),
            spill_chunk_records: 1 << 16,
            disk_bw: 5e8,
            disk_seek_s: 1e-4,
        }
    }
}

/// [`crate::sds_sort`] with graceful degradation: ranks whose receive
/// buffer would breach the memory-pressure threshold spill incoming chunks
/// to disk and stream-merge them instead of failing the whole job.
///
/// Requires [`PlainData`] records (they round-trip through disk). Output
/// and stability guarantees are identical to `sds_sort`; ranks that
/// degraded report it in [`SortStats::spilled`] / `spill_records`.
pub fn sds_sort_resilient<T: Sortable + PlainData, C: Communicator>(
    comm: &C,
    data: Vec<T>,
    cfg: &SdsConfig,
    rcfg: &ResilienceConfig,
) -> Result<SortOutput<T>, SortError> {
    sds_sort_impl(comm, data, cfg, &SpillExchange { rcfg })
}

/// Exchange backend that degrades to disk spilling under memory pressure.
struct SpillExchange<'a> {
    rcfg: &'a ResilienceConfig,
}

/// Per-rank exchange strategy, ordered by severity for the allreduce.
const IN_MEMORY: u8 = 0;
const SPILL: u8 = 1;
const HARD_OOM: u8 = 2;

impl<T: Sortable + PlainData, C: Communicator> ExchangeBackend<T, C> for SpillExchange<'_> {
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
        let rec = std::mem::size_of::<T>();
        let rcounts = comm.alltoall(scounts);
        let m: usize = rcounts.iter().sum();
        let bytes = m * rec;
        // Spilling stages one chunk at a time; the largest incoming chunk
        // bounds the resident set.
        let chunk_bytes = rcounts.iter().copied().max().unwrap_or(0) * rec;

        let pressure = comm.memory_pressure_with(bytes);
        let mut reserved = 0usize;
        let mut hard_oom = None;
        let code = if pressure <= self.rcfg.pressure_threshold && comm.try_alloc(bytes).is_ok() {
            reserved = bytes;
            IN_MEMORY
        } else {
            match comm.try_alloc(chunk_bytes) {
                Ok(()) => {
                    reserved = chunk_bytes;
                    SPILL
                }
                Err(e) => {
                    hard_oom = Some(e);
                    HARD_OOM
                }
            }
        };
        let worst = comm.allreduce(code, |a, b| a.max(b));
        if worst == HARD_OOM {
            if reserved > 0 {
                comm.free(reserved);
            }
            comm.span_end(sp_ex);
            return Err(match hard_oom {
                Some(e) => SortError::Oom(e),
                None => SortError::PeerOom,
            });
        }
        stats.recv_count = m;

        // All ranks take the asynchronous exchange (one collective tag,
        // wire-compatible with the synchronous path), so per-rank
        // in-memory/spill decisions interoperate freely.
        let mut pending = comm.alltoallv_async_given_counts(&data, scounts, rcounts.clone());
        drop(data);

        let result = if code == IN_MEMORY {
            let mut chunks: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
            while let Some((src, chunk)) = pending.wait_any(comm) {
                chunks[src] = chunk;
            }
            stats.exchange_s = comm.now() - t1;
            comm.span_end(sp_ex);
            comm.trace_phase("local-order");
            let sp_lo = comm.span_begin("local-order");
            let t2 = comm.now();
            // Source-rank order with a stable k-way merge (ties to the
            // lowest run index) preserves global stability.
            let refs: Vec<&[T]> = chunks.iter().map(|c| c.as_slice()).collect();
            let out = charged(
                comm,
                cfg.charge,
                |mo| mo.kway_merge_cost(m, p),
                || kway_merge(&refs),
            );
            stats.local_order_s = comm.now() - t2;
            comm.span_end(sp_lo);
            Ok(out)
        } else {
            stats.spilled = true;
            stats.spill_records = m;
            if comm.recorder().enabled() {
                comm.event(
                    "degrade.spill",
                    &format!(
                        "pressure {pressure:.2} over threshold {}; spilling {m} records",
                        self.rcfg.pressure_threshold
                    ),
                );
            }
            self.spill_and_merge(comm, cfg, stats, &mut pending, m, t1, sp_ex)
        };
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                comm.free(reserved);
                return Err(e);
            }
        };
        comm.free(reserved);
        debug_assert_eq!(out.len(), m);
        Ok(out)
    }
}

impl SpillExchange<'_> {
    /// Disk-time charge for touching one file of `bytes` payload.
    fn io_cost(&self, bytes: usize) -> f64 {
        self.rcfg.disk_seek_s + bytes as f64 / self.rcfg.disk_bw
    }

    #[allow(clippy::too_many_arguments)]
    fn spill_and_merge<T: Sortable + PlainData, C: Communicator>(
        &self,
        comm: &C,
        cfg: &SdsConfig,
        stats: &mut SortStats,
        pending: &mut RawAsync<T>,
        m: usize,
        t1: f64,
        sp_ex: telemetry::SpanId,
    ) -> Result<Vec<T>, SortError> {
        let rec = std::mem::size_of::<T>();
        let dir = self
            .rcfg
            .spill_dir
            .join(format!("rank{:04}", comm.world_rank()));
        let run_records = self.rcfg.spill_chunk_records.max(1);
        let io_err = |e: io::Error| SortError::Io(e.to_string());

        // Each incoming chunk is already sorted (a contiguous slice of the
        // sender's sorted share), so it spills as ready-made runs; keyed by
        // (source, part) the runs replay the stable merge order later.
        let mut runs: Vec<(usize, usize, RunFile)> = Vec::new();
        let spill_err = loop {
            let Some((src, chunk)) = pending.wait_any(comm) else {
                break None;
            };
            let mut failed = None;
            for (part, piece) in chunk.chunks(run_records).enumerate() {
                let path = dir.join(format!("src{src:06}-part{part:04}.bin"));
                match write_run(piece, &path) {
                    Ok(rf) => {
                        comm.charge_compute(self.io_cost(std::mem::size_of_val(piece)));
                        runs.push((src, part, rf));
                    }
                    Err(e) => {
                        failed = Some(io_err(e));
                        break;
                    }
                }
            }
            if failed.is_some() {
                break failed;
            }
            // `chunk` drops here: the resident set stays one chunk deep.
        };
        if let Some(e) = spill_err {
            // Drain the exchange so peers' sends are consumed, then clean
            // up before surfacing the disk failure.
            while pending.wait_any(comm).is_some() {}
            for (_, _, rf) in &runs {
                remove_run(rf);
            }
            let _ = std::fs::remove_dir(&dir);
            comm.span_end(sp_ex);
            return Err(e);
        }
        stats.exchange_s = comm.now() - t1;
        comm.span_end(sp_ex);

        comm.trace_phase("local-order");
        let sp_lo = comm.span_begin("local-order");
        let t2 = comm.now();
        runs.sort_by_key(|&(src, part, _)| (src, part));
        let run_files: Vec<RunFile> = runs.into_iter().map(|(_, _, rf)| rf).collect();
        // Read-back: one seek per run plus a full streaming pass.
        comm.charge_compute(
            run_files.len() as f64 * self.rcfg.disk_seek_s + (m * rec) as f64 / self.rcfg.disk_bw,
        );
        let merged = charged(
            comm,
            cfg.charge,
            |mo| mo.kway_merge_cost(m, run_files.len().max(2)),
            || -> io::Result<Vec<T>> { RunMerger::new(&run_files)?.collect() },
        );
        for rf in &run_files {
            remove_run(rf);
        }
        let _ = std::fs::remove_dir(&dir);
        let out = match merged {
            Ok(out) => out,
            Err(e) => {
                comm.span_end(sp_lo);
                return Err(io_err(e));
            }
        };
        stats.local_order_s = comm.now() - t2;
        comm.span_end(sp_lo);
        Ok(out)
    }
}
