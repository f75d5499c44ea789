//! Backend equivalence: the same sort on the same seed must produce the
//! same answer whether it runs on the deterministic virtual-time simulator
//! (`mpisim`), on real OS threads (`shmem`), or on real OS *processes*
//! over sockets (`sockcomm`).
//!
//! All backends share the collective algorithms and rank-order reduction
//! folds in `comm::raw`, so this holds *bit-for-bit per rank*, not just as
//! a global multiset:
//!
//! - `u64` keys (any sorter, either SDS variant): identical per-rank
//!   output vectors.
//! - Stable variant over tagged records: identical per-rank `(key, tag)`
//!   sequences — stability pins the tie order to global input order,
//!   leaving nothing arrival-dependent.
//! - Fast variant over tagged records: identical per-rank *key* sequences
//!   and a global permutation of the input; equal-key tag order is the
//!   one place real-thread arrival order is allowed to show through.
//!
//! Also runs the Theorem 1 `O(4N/p)` skew-bound assertions on the threads
//! and sockets backends: the bound is a property of the partition, not the
//! simulator.
//!
//! Every run goes through one rank body, [`rank_body`], driven by one
//! runner per backend. Sockets worlds re-exec this test binary for their
//! rank processes, targeting the [`sockcomm_child_entry`] test by exact
//! name; in a normal parent test run that test is a no-op.

use baselines::Sorter;
use comm::Communicator;
use mpisim::{NetModel, World};
use sdssort::{Record, SdsConfig, Tagged};
use shmem::ThreadWorld;
use workloads::{heavy_hitters, staircase, uniform_u64, zipf_keys};

/// The u64 workload matrix.
const WORKLOADS: [&str; 5] = ["uniform", "zipf", "staircase", "adversarial", "identical"];

/// The competitors, each backend-generic like SDS-Sort. Every one is
/// deterministic end to end (the baselines' arrival-order merges combine
/// sorted `u64` runs, whose result does not depend on the order), so they
/// join the bit-identical matrix as first-class columns.
const COMPETITORS: [Sorter; 6] = [
    Sorter::Ams,
    Sorter::Hss,
    Sorter::HykSort,
    Sorter::SampleSort,
    Sorter::Bitonic,
    Sorter::Radix,
];

/// Workload name → per-rank `u64` generator (seeded, rank-dependent).
fn gen_keys(workload: &str, n: usize, seed: u64, rank: usize) -> Vec<u64> {
    match workload {
        "uniform" => uniform_u64(n, seed, rank),
        "zipf" => zipf_keys(n, 1.2, seed, rank),
        "staircase" => staircase(n, 4, seed, rank),
        "adversarial" => heavy_hitters(n, 2, 90.0, seed, rank),
        "identical" => vec![seed % 101; n],
        other => panic!("unknown workload {other}"),
    }
}

/// Records whose tag encodes (rank, position): ties are observable.
fn tagged_input(n: usize, seed: u64, rank: usize) -> Vec<Tagged<u32>> {
    let keys = zipf_keys(n, 1.1, seed, rank);
    keys.iter()
        .enumerate()
        .map(|(i, &k)| Record::new((k % 64) as u32, ((rank as u64) << 32) | i as u64))
        .collect()
}

/// The pseudo-workload that sorts [`tagged_input`] records instead of
/// `u64` keys.
const TAGGED: &str = "tagged";

/// One run of the matrix, as plain data so it can travel to the sockets
/// rank processes: (sorter name, workload, records per rank, seed, force
/// node merge). Node merging is otherwise off (`τm = 0`, full-width
/// exchange on every backend).
type Cell = (String, String, u64, u64, bool);

fn cell(sorter: Sorter, workload: &str, n: u64, seed: u64) -> Cell {
    (sorter.name().into(), workload.into(), n, seed, false)
}

fn merged(sorter: Sorter, workload: &str, n: u64, seed: u64) -> Cell {
    (sorter.name().into(), workload.into(), n, seed, true)
}

/// One rank's output: the sorted `u64` keys, or the sorted tagged records
/// for the [`TAGGED`] workload (the other vector stays empty).
type RankOut = (Vec<u64>, Vec<Tagged<u32>>);

fn rank_body<C: Communicator>(comm: &C, cell: &Cell) -> RankOut {
    let (name, workload, n, seed, force_merge) = cell;
    let sorter = Sorter::parse(name).expect("cell names a registered sorter");
    let cfg = SdsConfig {
        tau_m_bytes: if *force_merge { usize::MAX } else { 0 },
        ..SdsConfig::default()
    };
    let (n, rank) = (*n as usize, comm.rank());
    if workload == TAGGED {
        let data = tagged_input(n, *seed, rank);
        let out = sorter.sort(comm, data, &cfg).expect("no memory budget");
        (Vec::new(), out.data)
    } else {
        let data = gen_keys(workload, n, *seed, rank);
        let out = sorter.sort(comm, data, &cfg).expect("no memory budget");
        (out.data, Vec::new())
    }
}

fn run_sim(p: usize, cell: &Cell) -> Vec<RankOut> {
    let world = World::new(p).cores_per_node(4).net(NetModel::zero());
    world.run(|comm| rank_body(comm, cell)).results
}

fn run_threads(p: usize, cell: &Cell) -> Vec<RankOut> {
    let world = ThreadWorld::new(p).cores_per_node(4);
    world.run(|comm| rank_body(comm, cell)).results
}

const ENTRY_SORT: &str = "equiv-sort";

/// Rank processes of the sockets worlds re-enter this binary with
/// `sockcomm_child_entry --exact` and divert inside this `child_rank`
/// call (which never returns). In a parent test run no `SOCKCOMM_*`
/// environment is set, the call is a no-op, and the test trivially passes.
#[test]
fn sockcomm_child_entry() {
    sockcomm::child_rank(ENTRY_SORT, |comm, cell: Cell| rank_body(comm, &cell));
}

fn run_sockets(p: usize, cell: &Cell) -> Vec<RankOut> {
    sockcomm::SocketWorld::new(p)
        .cores_per_node(4)
        .child_args(["sockcomm_child_entry", "--exact"])
        .run::<Cell, RankOut>(ENTRY_SORT, cell)
        .expect("sockets world")
        .results
}

/// Per-rank sorted `u64` keys of a run.
fn keys(out: Vec<RankOut>) -> Vec<Vec<u64>> {
    out.into_iter().map(|(k, _)| k).collect()
}

/// Per-rank sorted records of a [`TAGGED`] run.
fn records(out: Vec<RankOut>) -> Vec<Vec<Tagged<u32>>> {
    out.into_iter().map(|(_, r)| r).collect()
}

/// Sorted tags of every record: equal for a permutation of the input.
fn sorted_tags<'a>(ranks: impl IntoIterator<Item = &'a Vec<Tagged<u32>>>) -> Vec<u64> {
    let mut tags: Vec<u64> = ranks.into_iter().flatten().map(|t| t.payload).collect();
    tags.sort_unstable();
    tags
}

fn sds(stable: bool) -> Sorter {
    if stable {
        Sorter::SdsStable
    } else {
        Sorter::Sds
    }
}

#[test]
fn ams_and_hss_output_is_bit_identical_across_backends() {
    // The peers and baselines join the same guarantee as sds_sort: seeded
    // sampling, rank-order exchanges, and tie-to-lower-run merging leave
    // nothing arrival-dependent, so per-rank outputs match bit for bit
    // between the simulator and real OS threads.
    for sorter in COMPETITORS {
        for p in [2usize, 4, 8] {
            for workload in WORKLOADS {
                let c = cell(sorter, workload, 1200, 0xA15 + p as u64);
                assert_eq!(
                    run_sim(p, &c),
                    run_threads(p, &c),
                    "per-rank divergence: {c:?} p={p}"
                );
            }
        }
    }
}

#[test]
fn sockets_ams_and_hss_output_is_bit_identical_to_sim_and_threads() {
    for sorter in COMPETITORS {
        for p in [2usize, 4] {
            for workload in WORKLOADS {
                let c = cell(sorter, workload, 800, 0xA15 + p as u64);
                let sock = run_sockets(p, &c);
                assert_eq!(run_sim(p, &c), sock, "sim vs sockets: {c:?} p={p}");
                assert_eq!(run_threads(p, &c), sock, "threads vs sockets: {c:?} p={p}");
            }
        }
    }
}

#[test]
fn u64_output_is_bit_identical_across_backends() {
    for p in [2usize, 4, 8] {
        for workload in WORKLOADS {
            for stable in [false, true] {
                let c = cell(sds(stable), workload, 1500, 0xE9 + p as u64);
                assert_eq!(
                    run_sim(p, &c),
                    run_threads(p, &c),
                    "per-rank divergence: {c:?} p={p}"
                );
            }
        }
    }
}

#[test]
fn u64_output_matches_with_node_merge_enabled() {
    // τm on, multi-rank nodes: the node-merge path (split + leader
    // gather) must agree across backends too.
    for stable in [false, true] {
        let c = merged(sds(stable), "zipf", 1200, 0x5EED);
        assert_eq!(
            run_sim(8, &c),
            run_threads(8, &c),
            "node-merge divergence: {c:?}"
        );
    }
}

#[test]
fn stable_variant_ties_are_bit_identical_across_backends() {
    for p in [2usize, 4, 8] {
        // Stability pins equal-key order to global input order, so even
        // the payloads match record-for-record.
        let c = cell(Sorter::SdsStable, TAGGED, 1000, 0xAB + p as u64);
        assert_eq!(
            run_sim(p, &c),
            run_threads(p, &c),
            "stable tagged divergence at p={p}"
        );
    }
}

#[test]
fn fast_variant_keys_match_and_tags_are_a_permutation() {
    let p = 8;
    let c = cell(Sorter::Sds, TAGGED, 1000, 0xFA57);
    let sim = records(run_sim(p, &c));
    let thr = records(run_threads(p, &c));
    for r in 0..p {
        let sim_keys: Vec<u32> = sim[r].iter().map(|t| t.key).collect();
        let thr_keys: Vec<u32> = thr[r].iter().map(|t| t.key).collect();
        assert_eq!(sim_keys, thr_keys, "key sequence divergence at rank {r}");
    }
    // The fast variant may reorder equal keys differently under real
    // concurrency, but each output is still a permutation of the input.
    let input: Vec<_> = (0..p).map(|r| tagged_input(1000, 0xFA57, r)).collect();
    let want = sorted_tags(&input);
    for out in [&sim, &thr] {
        assert_eq!(
            sorted_tags(out),
            want,
            "output is not a permutation of the input"
        );
    }
}

#[test]
fn sockets_u64_output_is_bit_identical_to_sim_and_threads() {
    for p in [2usize, 4] {
        for workload in WORKLOADS {
            for stable in [false, true] {
                let c = cell(sds(stable), workload, 800, 0xE9 + p as u64);
                let sock = run_sockets(p, &c);
                assert_eq!(run_sim(p, &c), sock, "sim vs sockets: {c:?} p={p}");
                assert_eq!(run_threads(p, &c), sock, "threads vs sockets: {c:?} p={p}");
            }
        }
    }
}

#[test]
fn sockets_u64_output_matches_with_node_merge_enabled() {
    // τm forced on, multi-rank nodes: the node-merge path (communicator
    // split + leader gather) over real processes must agree too.
    for stable in [false, true] {
        let c = merged(sds(stable), "zipf", 800, 0x5EED);
        assert_eq!(
            run_sim(4, &c),
            run_sockets(4, &c),
            "node-merge divergence on sockets: {c:?}"
        );
    }
}

#[test]
fn sockets_stable_ties_are_bit_identical_to_sim() {
    let p = 4;
    let seed = 0xAB + p as u64;
    let c = cell(Sorter::SdsStable, TAGGED, 800, seed);
    let sock = run_sockets(p, &c);
    // Stability pins equal-key order to global input order: even across
    // address spaces, payloads match record-for-record.
    assert_eq!(
        run_sim(p, &c),
        sock,
        "stable tagged divergence on sockets at p={p}"
    );
    let input: Vec<_> = (0..p).map(|r| tagged_input(800, seed, r)).collect();
    assert_eq!(
        sorted_tags(&records(sock)),
        sorted_tags(&input),
        "sockets output is not a permutation of the input"
    );
}

/// Theorem 1's bound with explicit lower-order slack (see
/// `tests/workload_bound.rs`): `U ≤ 4N/p + 2N/p² + p`. Every generator
/// emits exactly `n` records per rank, so `N = p·n`.
fn assert_skew_bound(backend: &str, p: usize, workload: &str, out: Vec<RankOut>) {
    let n_total = p * 2000;
    let bound = 4 * n_total / p + 2 * n_total / (p * p) + p;
    let max = keys(out).iter().map(Vec::len).max().expect("p >= 1");
    assert!(
        max <= bound,
        "{backend} backend: {workload} p={p}: max {max} > bound {bound}"
    );
}

#[test]
fn skew_bound_holds_on_sockets_backend() {
    for (p, workload) in [
        (4usize, "uniform"),
        (4, "zipf"),
        (4, "adversarial"),
        (4, "identical"),
    ] {
        let out = run_sockets(p, &cell(Sorter::Sds, workload, 2000, 3));
        assert_skew_bound("sockets", p, workload, out);
    }
}

#[test]
fn skew_bound_holds_on_threads_backend() {
    for (p, workload) in [
        (4usize, "uniform"),
        (8, "zipf"),
        (8, "adversarial"),
        (8, "identical"),
    ] {
        let out = run_threads(p, &cell(Sorter::Sds, workload, 2000, 3));
        assert_skew_bound("threads", p, workload, out);
    }
}

mod property {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// Any (seed, p, workload, variant) cell: per-rank u64 outputs are
        /// bit-identical across backends.
        #[test]
        fn backends_agree_on_any_seed(
            seed in 0u64..1_000_000,
            p_idx in 0usize..3,
            workload_idx in 0usize..4,
            stable in any::<bool>(),
        ) {
            let p = [2usize, 4, 8][p_idx];
            let workload = ["uniform", "zipf", "adversarial", "identical"][workload_idx];
            let c = cell(sds(stable), workload, 600, seed);
            prop_assert_eq!(run_sim(p, &c), run_threads(p, &c));
        }
    }
}
