//! Reusable experiment drivers shared by the figure/table binaries.
//!
//! The weak-scaling sweeps feed both the time figures (Figs. 7/8) and the
//! RDFA table (Table 3); the science-data runs feed both the breakdown
//! figures (Figs. 9/10) and Table 4. Centralizing them keeps every harness
//! reporting from the *same* runs it prints.

use crate::emit::{outcome_values, Emitter};
use crate::{run_sorter, RunOutcome, Sorter};
use mpisim::telemetry::Json;
use sdssort::ComputeModel;
use workloads::{cosmology_particles, ptf_scores, uniform_u64, zipf_keys};

/// One (sorter, p) cell of a weak-scaling sweep.
#[derive(Debug, Clone)]
pub struct ScalingCell {
    /// Process count.
    pub p: usize,
    /// Which sorter.
    pub sorter: Sorter,
    /// Run outcome (time `None` on OOM).
    pub outcome: RunOutcome,
}

/// Weak-scaling sweep over `ps` with `n_rank` uniform `u64` keys per rank
/// (Fig. 7 / Table 3 "Uniform").
pub fn weak_scaling_uniform(ps: &[usize], n_rank: usize, model: ComputeModel) -> Vec<ScalingCell> {
    sweep(ps, model, None, move |r| uniform_u64(n_rank, 0xF167, r))
}

/// Weak-scaling sweep with Zipf keys and a per-rank memory budget tight
/// enough that duplicate concentration kills the duplicate-blind sorters
/// (Fig. 8 / Table 3 "Zipf"). `alpha` follows the paper's "Zipf(0.7–2.0)"
/// band; we use α = 1.4 (δ ≈ 32 %).
pub fn weak_scaling_zipf(ps: &[usize], n_rank: usize, model: ComputeModel) -> Vec<ScalingCell> {
    // 3.5× the per-rank input: comfortably above SDS-Sort's observed RDFA
    // (< 2.7, Table 3) and far below an all-duplicates-on-one-rank
    // concentration (1 + δ·p shares).
    let budget = n_rank * 8 * 7 / 2;
    sweep(ps, model, Some(budget), move |r| {
        zipf_keys(n_rank, 1.4, 0xF168, r)
    })
}

/// Weak-scaling sweep on the real threads backend with `n_rank` uniform
/// `u64` keys per rank: `time_s` is measured wall clock, not a model. SDS
/// variants only.
pub fn weak_scaling_uniform_threads(ps: &[usize], n_rank: usize) -> Vec<ScalingCell> {
    sweep_threads(ps, move |r| uniform_u64(n_rank, 0xF167, r))
}

/// Threads-backend weak scaling with Zipf(1.4) keys (same workload as
/// [`weak_scaling_zipf`], same seed). No memory budget: the simulator's
/// budget is a *model*; on the real backend host RAM is the budget.
pub fn weak_scaling_zipf_threads(ps: &[usize], n_rank: usize) -> Vec<ScalingCell> {
    sweep_threads(ps, move |r| zipf_keys(n_rank, 1.4, 0xF168, r))
}

/// Sockets-backend weak scaling: same uniform workload and seed as
/// [`weak_scaling_uniform_threads`], but every rank is a separate OS
/// process (`crates/sockcomm`). The calling binary must invoke
/// [`crate::sockets_bench_child`] at the top of `main`.
pub fn weak_scaling_uniform_sockets(ps: &[usize], n_rank: usize) -> Vec<ScalingCell> {
    let mut cells = Vec::new();
    for &p in ps {
        for sorter in [Sorter::Sds, Sorter::SdsStable] {
            let outcome = crate::run_sorter_sockets(sorter, p, n_rank);
            cells.push(ScalingCell { p, sorter, outcome });
        }
    }
    cells
}

fn sweep_threads<T, G>(ps: &[usize], gen: G) -> Vec<ScalingCell>
where
    T: sdssort::Sortable,
    G: Fn(usize) -> Vec<T> + Send + Sync + Copy,
{
    let mut cells = Vec::new();
    for &p in ps {
        for sorter in [Sorter::Sds, Sorter::SdsStable] {
            let outcome = crate::run_sorter_threads(sorter, p, gen);
            cells.push(ScalingCell { p, sorter, outcome });
        }
    }
    cells
}

/// Print a threads-backend weak-scaling table (wall-clock seconds, SDS
/// variants only) and return whether every cell completed — the harness
/// verdict for real-execution sweeps.
pub fn print_threads_scaling(ps: &[usize], n_rank: usize, cells: &[ScalingCell]) -> bool {
    let mut table = crate::Table::new(["p", "SDS-Sort", "SDS-Sort/stable", "SDS throughput"]);
    let mut all_ok = true;
    for &p in ps {
        let get = |s: Sorter| {
            cells
                .iter()
                .find(|c| c.p == p && c.sorter == s)
                .and_then(|c| c.outcome.time_s)
        };
        let (sds, stb) = (get(Sorter::Sds), get(Sorter::SdsStable));
        if sds.is_none() || stb.is_none() {
            all_ok = false;
        }
        let throughput = sds.map_or_else(
            || "-".into(),
            |t| {
                let bytes = (p * n_rank * 8) as f64;
                format!("{:.2} GB/min", bytes / t * 60.0 / 1e9)
            },
        );
        table.row([
            p.to_string(),
            crate::fmt_opt_time(sds),
            crate::fmt_opt_time(stb),
            throughput,
        ]);
    }
    table.print();
    all_ok
}

/// Drive a resident [`service::SortService`] with `jobs` Zipf-sized jobs
/// submitted concurrently from `clients` client handles (jobs are dealt
/// round-robin across clients, so the stream is deterministic given
/// `load`). Blocking submits exercise the queue's backpressure; every
/// ticket is awaited before shutdown, so the returned report accounts for
/// every job.
pub fn drive_service(
    cfg: service::ServiceConfig,
    load: &service::LoadGen,
    jobs: u64,
    clients: usize,
) -> service::ServiceReport {
    let clients = clients.max(1);
    let svc = service::SortService::start(cfg);
    std::thread::scope(|scope| {
        for c in 0..clients as u64 {
            let client = svc.client();
            let load = load.clone();
            scope.spawn(move || {
                let tickets: Vec<_> = (c..jobs)
                    .step_by(clients)
                    .map(|i| client.submit(load.spec(i)).expect("service accepting"))
                    .collect();
                for t in tickets {
                    t.wait();
                }
            });
        }
    });
    svc.shutdown()
}

/// The standard value set recorded for one [`service::ServiceReport`] —
/// shared by every harness that emits service-load points.
pub fn service_values(r: &service::ServiceReport) -> Vec<(&'static str, Json)> {
    vec![
        ("jobs_per_sec", Json::from(r.jobs_per_sec)),
        ("wall_s", Json::from(r.wall_s)),
        ("latency_p50_s", Json::from(r.latency_p50_s)),
        ("latency_p99_s", Json::from(r.latency_p99_s)),
        ("queue_wait_p50_s", Json::from(r.queue_wait_p50_s)),
        ("queue_wait_p99_s", Json::from(r.queue_wait_p99_s)),
        ("completed", Json::from(r.counters.completed)),
        ("shed", Json::from(r.counters.shed)),
        ("failed", Json::from(r.counters.failed)),
        ("spilled", Json::from(r.counters.spilled)),
        ("queue_full", Json::from(r.counters.queue_full)),
        ("arena_hits", Json::from(r.counters.arena_hits)),
        ("arena_misses", Json::from(r.counters.arena_misses)),
    ]
}

/// Print a service-load report as a metric/value table.
pub fn print_service_report(r: &service::ServiceReport) {
    let mut t = crate::Table::new(["metric", "value"]);
    t.row(["jobs/sec".to_string(), format!("{:.2}", r.jobs_per_sec)]);
    t.row(["wall clock".to_string(), crate::fmt_time(r.wall_s)]);
    t.row(["latency p50".to_string(), crate::fmt_time(r.latency_p50_s)]);
    t.row(["latency p99".to_string(), crate::fmt_time(r.latency_p99_s)]);
    t.row([
        "queue wait p50".to_string(),
        crate::fmt_time(r.queue_wait_p50_s),
    ]);
    t.row([
        "queue wait p99".to_string(),
        crate::fmt_time(r.queue_wait_p99_s),
    ]);
    t.row(["completed".to_string(), r.counters.completed.to_string()]);
    t.row(["shed".to_string(), r.counters.shed.to_string()]);
    t.row(["failed".to_string(), r.counters.failed.to_string()]);
    t.row(["spilled".to_string(), r.counters.spilled.to_string()]);
    t.row([
        "arena hits/misses".to_string(),
        format!("{}/{}", r.counters.arena_hits, r.counters.arena_misses),
    ]);
    t.print();
}

fn sweep<T, G>(ps: &[usize], model: ComputeModel, budget: Option<usize>, gen: G) -> Vec<ScalingCell>
where
    T: sdssort::Sortable,
    G: Fn(usize) -> Vec<T> + Send + Sync + Copy,
{
    let mut cells = Vec::new();
    for &p in ps {
        for sorter in [Sorter::HykSort, Sorter::Sds, Sorter::SdsStable] {
            let outcome = run_sorter(sorter, p, budget, model, gen);
            cells.push(ScalingCell { p, sorter, outcome });
        }
    }
    cells
}

/// Emit every cell of a weak-scaling sweep: one series per sorter, one
/// point per process count, with the shared [`outcome_values`] keys.
/// `extra` params are appended to every point (e.g. a workload tag when a
/// harness emits several sweeps).
pub fn emit_scaling_cells(em: &mut Emitter, cells: &[ScalingCell], extra: &[(&str, Json)]) {
    for c in cells {
        let mut params = vec![("p", Json::from(c.p as u64))];
        params.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
        em.point(c.sorter.label(), &params, &outcome_values(&c.outcome));
    }
}

/// Emit one row per sorter of a fixed-`p` experiment (Figs. 9/10,
/// Table 4), appending `extra` params to every point.
pub fn emit_outcome_rows(
    em: &mut Emitter,
    p: usize,
    rows: &[(Sorter, RunOutcome)],
    extra: &[(&str, Json)],
) {
    for (sorter, outcome) in rows {
        let mut params = vec![("p", Json::from(p as u64))];
        params.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
        em.point(sorter.label(), &params, &outcome_values(outcome));
    }
}

/// The PTF experiment (Fig. 9 / Table 4): `p` ranks sorting synthetic
/// real-bogus scores (δ ≈ 28 %). No memory budget — the paper notes the
/// whole 27 GB dataset fits on one 64 GB node, so HykSort finishes despite
/// RDFA ≈ 33.
pub fn ptf_experiment(p: usize, n_rank: usize, model: ComputeModel) -> Vec<(Sorter, RunOutcome)> {
    [Sorter::HykSort, Sorter::Sds, Sorter::SdsStable]
        .into_iter()
        .map(|s| {
            (
                s,
                run_sorter(s, p, None, model, move |r| ptf_scores(n_rank, 0x97F, r)),
            )
        })
        .collect()
}

/// The cosmology experiment (Fig. 10 / Table 4): particle records with
/// 24-byte payload, δ ≈ 0.73 %, under a per-rank budget of 2.5× the input
/// — enough for SDS-Sort's balanced partitions (RDFA < 2), fatal for
/// HykSort's duplicate concentration of ~`δ·p` input-shares on one rank
/// once `p` is large (the paper hits the same wall at 16K ranks with
/// δ·p ≈ 120).
pub fn cosmology_experiment(
    p: usize,
    n_rank: usize,
    model: ComputeModel,
) -> Vec<(Sorter, RunOutcome)> {
    let budget = n_rank * std::mem::size_of::<workloads::Particle>() * 5 / 2;
    [Sorter::HykSort, Sorter::Sds, Sorter::SdsStable]
        .into_iter()
        .map(|s| {
            (
                s,
                run_sorter(s, p, Some(budget), model, move |r| {
                    cosmology_particles(n_rank, 0xC05, r)
                }),
            )
        })
        .collect()
}
