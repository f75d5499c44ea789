//! # baselines — the distributed sorters SDS-Sort is compared against
//!
//! Every system the paper compares against, and the two published peers
//! added since, implemented from scratch over the backend-neutral
//! `comm::Communicator` trait and the [`sdssort`] record abstractions, so
//! each runs on the simulator, on OS threads and on socket-connected
//! processes alike:
//!
//! * [`hyksort()`](hyksort::hyksort) — HykSort (ICS'13), the state-of-the-art baseline:
//!   k-way hypercube sample sort with histogram-based splitter selection.
//! * [`histogram`] — the iterative histogram splitter refinement itself
//!   (Solomonik & Kale, IPDPS'10).
//! * [`samplesort`] — classical parallel sort by regular sampling (PSRS,
//!   Li et al. 1993).
//! * [`bitonic`] — full parallel bitonic / odd-even block sort, the
//!   non-sampling baseline from related work.
//! * [`radix`] — distributed radix sort with global digit histograms
//!   (related work \[30\]); skew-vulnerable like HykSort.
//! * [`seqscan`] — partitioning-kernel baselines for Fig. 6b (full linear
//!   scan and per-pivot binary search).
//! * [`ams_sort`] — **multi-level AMS-sort** (Axtmann, Bingmann, Sanders,
//!   Schulz — *Practical Massively Parallel Sorting*, SPAA'15): recursive
//!   `k`-way partitioning with overpartitioned splitters and a two-stage,
//!   hierarchy-aware data exchange (deliver buckets to rank *groups*,
//!   then rebalance exactly within each group). The first level aligns
//!   groups with nodes when the layout allows, and the `τm` node-merge
//!   machinery from `sdssort` is reused verbatim on the input side.
//! * [`hss_sort`] — **Histogram Sort with Sampling** (Harsh, Kale,
//!   Solomonik — SPAA'19): single-stage partitioning whose splitters are
//!   refined by iterative histogramming until every part is provably
//!   within `(1+ε)` of the ideal `N/p` — including under arbitrary
//!   duplication, because boundaries may *split ties* at a key by global
//!   rank order (where HykSort's value-only splitters famously cannot).
//!
//! [`Sorter`] names all of them together with the two SDS-Sort variants:
//! the CLI, the figure harnesses and the cross-backend tests pick a
//! sorter, and its configuration, through that one registry.
//!
//! HykSort, sample sort, radix sort, AMS-sort and HSS allocate their
//! receive buffers through the per-rank memory budget (enforced by the
//! simulator), reproducing the paper's observed OOM crashes on highly
//! skewed inputs. Modeled compute is charged through `sdssort::charged`,
//! like every other sorter in the workspace. AMS-sort and HSS are
//! deterministic end to end — seeded sampling, synchronous rank-order
//! exchanges, tie-to-lower-run merging — and their divergence from
//! SDS-Sort's partition strategy is discussed in DESIGN.md §14.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ams;
pub mod bitonic;
pub mod histogram;
pub mod hss;
pub mod hyksort;
pub mod radix;
pub mod samplesort;
pub mod seqscan;
pub mod sorter;

pub use ams::{ams_sort, AmsConfig};
pub use bitonic::bitonic_sort;
pub use histogram::{histogram_splitters, HistogramConfig};
pub use hss::{hss_sort, hss_splitters, HssConfig, HssCut};
pub use hyksort::{hyksort, HykSortConfig};
pub use radix::radix_sort;
pub use samplesort::{sample_sort, SampleSortConfig};
pub use seqscan::{binary_cuts, full_scan_cuts};
pub use sorter::Sorter;
