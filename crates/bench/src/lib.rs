//! # bench — experiment harness for the SDS-Sort reproduction
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus
//! Criterion micro-benchmarks (`benches/`). This library holds the shared
//! plumbing: scaled experiment sizes, table printing, world construction,
//! and the harness configuration every sorter of the
//! [`Sorter`](baselines::Sorter) registry runs with.
//!
//! Every harness prints (a) the paper's rows/series at our reduced scale
//! and (b) a `shape:` verdict line summarizing whether the qualitative
//! result (who wins, where the crossover falls, who crashes) reproduced.
//!
//! Scale control: set `BENCH_SCALE=full` for larger sweeps (default
//! `small` finishes in seconds per harness).

use mpisim::{Communicator, NetModel, World};
use sdssort::{ComputeCharge, ComputeModel, SdsConfig, SortError, SortOutput, SortStats, Sortable};
use std::time::Instant;

pub mod emit;
pub mod experiments;
pub mod table;

pub use baselines::Sorter;
pub use emit::{metrics_out_path, Emitter};
pub use table::{fmt_bytes, fmt_time, Table};

/// Experiment scale, from the `BENCH_SCALE` env var.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-per-harness sizes (default; used by `cargo test`).
    Small,
    /// Larger sweeps for report-quality numbers.
    Full,
}

/// Read the scale from the environment.
pub fn scale() -> Scale {
    match std::env::var("BENCH_SCALE").as_deref() {
        Ok("full") | Ok("FULL") => Scale::Full,
        _ => Scale::Small,
    }
}

/// Pick `small` or `full` by scale.
pub fn by_scale<T>(small: T, full: T) -> T {
    match scale() {
        Scale::Small => small,
        Scale::Full => full,
    }
}

/// Calibrate the compute model once per harness.
pub fn model() -> ComputeModel {
    ComputeModel::calibrate()
}

/// A modelled world: Edison network, 24-core nodes, zero wall-clock
/// compute charging (compute enters through `ComputeCharge::Modeled`).
pub fn modeled_world(p: usize) -> World {
    World::new(p)
        .cores_per_node(24)
        .net(NetModel::edison())
        .compute_scale(0.0)
}

/// Which execution backend a harness runs on, from the `BENCH_BACKEND`
/// env var: the deterministic virtual-time simulator (default) or the real
/// OS-thread backend (`crates/shmem`), which reports wall-clock seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `mpisim`: modeled network, virtual time, deterministic.
    Sim,
    /// `shmem`: one OS thread per rank, measured wall-clock time.
    Threads,
}

impl Backend {
    /// Stable name embedded in emitted reports.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Threads => "threads",
        }
    }
}

/// Read the backend from the environment (`BENCH_BACKEND=threads`).
pub fn backend() -> Backend {
    match std::env::var("BENCH_BACKEND").as_deref() {
        Ok("threads") | Ok("THREADS") => Backend::Threads,
        _ => Backend::Sim,
    }
}

/// Short git revision of the checkout producing a report, or `"unknown"`
/// outside a repository — embedded in every emitted document so a BENCH
/// file identifies the code that produced it.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The configuration every harness runs: `cfg` of [`Sorter::sort`], so
/// the SDS variants get these knobs and every competitor its default
/// configuration with `charge`.
///
/// Node merging is disabled (τm = 0) in the comparative harnesses: our
/// memory budget is per rank, while node merging concentrates a node's
/// data on its leader by design (the real machine's budget is per
/// *node*). Fig. 5a studies node merging in isolation.
///
/// τo and τs are machine-specific tuning knobs: the paper calibrates
/// 4096/4000 for Edison (Figs. 5b/5c); our Fig. 5b/5c harnesses locate the
/// crossovers near 16 and 8 on the simulated machine, so the comparative
/// runs — on every backend, so cross-backend sweeps compare identical
/// algorithm configurations — use those.
pub fn harness_cfg(charge: ComputeCharge) -> SdsConfig {
    SdsConfig {
        charge,
        tau_m_bytes: 0,
        tau_o: 16,
        tau_s: 8,
        ..SdsConfig::default()
    }
}

/// Outcome of one distributed-sort run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Modelled makespan in seconds, `None` on OOM failure.
    pub time_s: Option<f64>,
    /// Per-rank post-exchange loads (empty on failure).
    pub loads: Vec<usize>,
    /// Phase maxima across ranks (zeroed on failure).
    pub phases: SortStats,
    /// Host wall time of the simulation.
    pub wall_s: f64,
}

impl RunOutcome {
    /// RDFA, or ∞ on failure (the paper's Tables 3/4 convention).
    pub fn rdfa(&self) -> f64 {
        if self.time_s.is_none() {
            sdssort::stats::rdfa_failed()
        } else {
            sdssort::rdfa(&self.loads)
        }
    }

    fn failed(wall_s: f64) -> Self {
        RunOutcome {
            time_s: None,
            loads: Vec::new(),
            phases: SortStats::default(),
            wall_s,
        }
    }

    /// A completed run from every rank's (output length, stats).
    fn completed(
        time_s: f64,
        wall_s: f64,
        ranks: impl Iterator<Item = (usize, SortStats)>,
    ) -> Self {
        let (loads, stats): (Vec<usize>, Vec<SortStats>) = ranks.unzip();
        RunOutcome {
            time_s: Some(time_s),
            loads,
            phases: sdssort::stats::phase_maxima(&stats),
            wall_s,
        }
    }

    /// Failed if any rank failed, else completed in `time_s`.
    fn from_results<T>(
        results: &[Result<SortOutput<T>, SortError>],
        time_s: f64,
        wall_s: f64,
    ) -> Self {
        if results.iter().any(Result::is_err) {
            return RunOutcome::failed(wall_s);
        }
        let ranks = results.iter().flatten().map(|o| (o.data.len(), o.stats));
        RunOutcome::completed(time_s, wall_s, ranks)
    }
}

/// Run `sorter` over `p` ranks where rank `r` sorts `gen(r)`; compute is
/// charged via the calibrated model, communication via the Edison network
/// model. `budget` optionally caps per-rank simulated memory.
pub fn run_sorter<T, G>(
    sorter: Sorter,
    p: usize,
    budget: Option<usize>,
    model: ComputeModel,
    gen: G,
) -> RunOutcome
where
    T: Sortable,
    G: Fn(usize) -> Vec<T> + Send + Sync,
{
    let mut world = modeled_world(p);
    if let Some(b) = budget {
        world = world.memory_budget(b);
    }
    let cfg = harness_cfg(ComputeCharge::Modeled(model));
    let started = Instant::now();
    let report = world.run(|comm| sorter.sort(comm, gen(comm.rank()), &cfg));
    let wall_s = started.elapsed().as_secs_f64();
    RunOutcome::from_results(&report.results, report.makespan, wall_s)
}

/// Run a sorter for real on the threads backend (`crates/shmem`): one OS
/// thread per rank, wall-clock timing. `time_s` in the outcome is the
/// measured wall clock of the whole world, so weak-scaling sweeps report
/// real seconds.
pub fn run_sorter_threads<T, G>(sorter: Sorter, p: usize, gen: G) -> RunOutcome
where
    T: Sortable,
    G: Fn(usize) -> Vec<T> + Send + Sync,
{
    let cfg = harness_cfg(ComputeCharge::Measured);
    let report = shmem::ThreadWorld::new(p)
        .cores_per_node(24)
        .run(|comm| sorter.sort(comm, gen(comm.rank()), &cfg));
    RunOutcome::from_results(&report.results, report.wall_s, report.wall_s)
}

/// Entry name the sockets bench worlds dispatch on. A binary that calls
/// [`run_sorter_sockets`] MUST call [`sockets_bench_child`] at the top of
/// `main`, or its re-exec'd rank processes will never find the entry.
pub const SOCKETS_BENCH_ENTRY: &str = "bench-sds-uniform";

/// Child-side hook for [`run_sorter_sockets`]: diverts re-exec'd rank
/// processes into the bench sort entry; a no-op in the parent. The
/// parameters are the sorter's index into [`Sorter::ALL`] and the records
/// per rank; each rank returns its output length, sort seconds and stats.
pub fn sockets_bench_child() {
    sockcomm::child_rank(
        SOCKETS_BENCH_ENTRY,
        |comm, (index, n_rank): (usize, usize)| -> (usize, f64, SortStats) {
            let sorter = *Sorter::ALL
                .get(index)
                .expect("sockets bench rank: bad sorter index");
            let data = workloads::uniform_u64(n_rank, 0xF167, comm.rank());
            let t0 = Instant::now();
            let o = sorter
                .sort(comm, data, &harness_cfg(ComputeCharge::Measured))
                .expect("sockets bench rank: sort failed");
            (o.data.len(), t0.elapsed().as_secs_f64(), o.stats)
        },
    );
}

/// Run `sorter` over `p` rank *processes* connected by Unix-domain
/// sockets, each sorting `n_rank` uniform `u64` keys (same generator and
/// seed as [`run_sorter_threads`] via `weak_scaling_uniform_threads`).
/// `time_s` is the slowest rank's measured sort seconds; `wall_s` is the
/// launcher's wall clock and additionally includes process spawn and
/// rendezvous (see EXPERIMENTS.md).
pub fn run_sorter_sockets(sorter: Sorter, p: usize, n_rank: usize) -> RunOutcome {
    let index = Sorter::ALL
        .iter()
        .position(|&s| s == sorter)
        .expect("every sorter is in Sorter::ALL");
    let world = sockcomm::SocketWorld::new(p).cores_per_node(24);
    match world
        .run::<(usize, usize), (usize, f64, SortStats)>(SOCKETS_BENCH_ENTRY, &(index, n_rank))
    {
        Err(e) => {
            eprintln!("sockets bench world failed: {e}");
            RunOutcome::failed(0.0)
        }
        Ok(report) => {
            let slowest_sort = report.results.iter().map(|r| r.1).fold(0.0f64, f64::max);
            let ranks = report.results.iter().map(|&(len, _, stats)| (len, stats));
            RunOutcome::completed(slowest_sort, report.wall_s, ranks)
        }
    }
}

/// Format an optional time, using the paper's "Out of Memory" marker.
pub fn fmt_opt_time(t: Option<f64>) -> String {
    match t {
        Some(t) => fmt_time(t),
        None => "OOM".to_string(),
    }
}

/// Format an RDFA value, with ∞ for failures (Tables 3/4).
pub fn fmt_rdfa(r: f64) -> String {
    if r.is_infinite() {
        "inf".to_string()
    } else {
        format!("{r:.4}")
    }
}

/// Print the standard harness header.
pub fn header(id: &str, paper_claim: &str) {
    println!("==============================================================");
    println!("{id}");
    println!("paper: {paper_claim}");
    println!(
        "scale: {:?} (set BENCH_SCALE=full for larger sweeps)",
        scale()
    );
    println!("==============================================================");
}

/// Print a shape verdict line.
pub fn verdict(ok: bool, what: &str) {
    println!(
        "shape: [{}] {what}",
        if ok { "REPRODUCED" } else { "DIVERGED" }
    );
}
