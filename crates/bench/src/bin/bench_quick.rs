//! `bench_quick` — a fast real-execution sanity sweep.
//!
//! Runs the same small weak-scaling sweep of both SDS variants on the
//! Uniform workload twice — once on the threads backend (`crates/shmem`)
//! and once with one OS process per rank over Unix-domain sockets
//! (`crates/sockcomm`) — then drives the resident
//! [`service::SortService`] with a burst of Zipf-sized jobs from several
//! concurrent clients, and emits the wall-clock numbers as
//! `BENCH_quick.json` (honouring `BENCH_METRICS_OUT`, or
//! `--metrics-out <dir>`). Scaling points carry a `backend` axis so the
//! two substrates are directly comparable per (sorter, p) cell. Unlike
//! the figure harnesses this never touches the simulator: every time in
//! the output is a measured second (sockets `wall_s` includes process
//! spawn + rendezvous — see EXPERIMENTS.md). Intended for
//! `scripts/bench_quick.sh` and CI smoke. After writing, the emitted
//! document is read back, parsed, and checked for the
//! `git_rev`/`backend` meta so CI fails loudly on a malformed emission.

use bench::experiments::{
    drive_service, emit_scaling_cells, print_service_report, print_threads_scaling, service_values,
    weak_scaling_uniform_sockets, weak_scaling_uniform_threads,
};
use bench::{header, verdict, Emitter};
use mpisim::telemetry::Json;
use service::{LoadGen, ServiceConfig};

fn main() {
    // Rank processes of the sockets sweep re-enter this binary and divert
    // here; the parent falls through.
    bench::sockets_bench_child();
    header(
        "Quick real-execution weak scaling (threads vs sockets, wall-clock)",
        "both SDS variants sort, validate, and scale on OS threads and OS processes",
    );
    let ps = [1usize, 2, 4, 8];
    let n_rank = 20_000;
    let mut em = Emitter::from_env("quick");
    em.meta("workload", "uniform_u64");
    em.meta("n_rank", n_rank as u64);
    em.meta("backend", "threads+sockets");

    println!("records/rank: {n_rank} u64, uniform, backend: threads\n");
    let thr_cells = weak_scaling_uniform_threads(&ps, n_rank);
    emit_scaling_cells(&mut em, &thr_cells, &[("backend", Json::from("threads"))]);
    let thr_ok = print_threads_scaling(&ps, n_rank, &thr_cells);

    println!("\nrecords/rank: {n_rank} u64, uniform, backend: sockets (uds, process per rank)\n");
    let sock_cells = weak_scaling_uniform_sockets(&ps, n_rank);
    emit_scaling_cells(&mut em, &sock_cells, &[("backend", Json::from("sockets"))]);
    let sock_ok = print_threads_scaling(&ps, n_rank, &sock_cells);

    // Resident-service load: persistent ranks, Zipf-sized jobs, 4 clients.
    let (svc_ranks, svc_jobs, svc_clients, svc_min) = (4usize, 32u64, 4usize, 5_000usize);
    println!(
        "\nSortService: zipf:0.8 jobs on {svc_ranks} resident ranks, \
         {svc_jobs} jobs from {svc_clients} clients\n"
    );
    let load = LoadGen::new("zipf:0.8", svc_min, 42).with_size_skew(1.1, 16);
    let svc = drive_service(ServiceConfig::new(svc_ranks), &load, svc_jobs, svc_clients);
    print_service_report(&svc);
    em.meta("service_ranks", svc_ranks);
    em.meta("service_clients", svc_clients);
    em.meta("service_min_records_per_rank", svc_min);
    em.point(
        "SortService",
        &[("jobs", Json::from(svc_jobs))],
        &service_values(&svc),
    );
    let svc_ok = svc.counters.failed == 0
        && svc.counters.balanced()
        && svc.counters.completed + svc.counters.shed == svc_jobs;
    verdict(
        thr_ok && sock_ok && svc_ok,
        "SDS variants complete at every p on both real backends; \
         service resolves every job (wall-clock)",
    );
    if let Some(path) = em.finish().expect("write metrics") {
        let text = std::fs::read_to_string(&path).expect("read back emitted metrics");
        let doc = Json::parse(&text).expect("emitted metrics must parse");
        let meta = doc.get("meta").expect("emitted metrics must carry meta");
        for key in ["git_rev", "backend"] {
            assert!(
                meta.get(key).and_then(Json::as_str).is_some(),
                "emitted metrics must carry meta.{key}"
            );
        }
        let series = doc
            .get("series")
            .expect("emitted metrics must carry series");
        let backends: std::collections::BTreeSet<&str> = series
            .as_arr()
            .expect("series is an array")
            .iter()
            .filter_map(|s| s.get("points")?.as_arr())
            .flatten()
            .filter_map(|p| p.get("params")?.get("backend")?.as_str())
            .collect();
        assert!(
            backends.contains("threads") && backends.contains("sockets"),
            "emitted metrics must carry both backend columns, got {backends:?}"
        );
        println!("metrics validated: {}", path.display());
    }
}
