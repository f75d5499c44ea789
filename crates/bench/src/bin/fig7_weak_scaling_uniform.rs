//! Fig. 7 — weak scaling on the Uniform workload: SDS-Sort vs
//! SDS-Sort/stable vs HykSort, fixed records per rank, sweeping p.
//!
//! Paper result (0.5K–128K cores, 400 MB/rank): all three scale; SDS-Sort
//! is ~51 % faster than HykSort at the top end; SDS-Sort/stable is the
//! slowest of the three (extra pivot-selection and ordering work).

use bench::experiments::{
    emit_scaling_cells, print_threads_scaling, weak_scaling_uniform, weak_scaling_uniform_threads,
};
use bench::{
    backend, by_scale, fmt_opt_time, header, model, verdict, Backend, Emitter, Sorter, Table,
};

fn main() {
    header(
        "Fig 7 — weak scaling, Uniform workload",
        "SDS-Sort fastest (51% over HykSort at 128K); stable slowest",
    );
    let ps: Vec<usize> = by_scale(vec![8, 16, 32, 64, 128], vec![8, 16, 32, 64, 128, 256, 512]);
    let n_rank: usize = by_scale(20_000, 50_000);
    println!("records/rank: {n_rank} u64 (paper: 100M = 400 MB)\n");
    if backend() == Backend::Threads {
        // Real execution: wall-clock seconds from crates/shmem, SDS
        // variants only.
        println!("backend: threads — measured wall-clock, sds variants only\n");
        let ps: Vec<usize> = ps.into_iter().filter(|&p| p <= 64).collect();
        let cells = weak_scaling_uniform_threads(&ps, n_rank);
        let mut em = Emitter::from_env("fig7");
        em.meta("workload", "uniform_u64");
        em.meta("n_rank", n_rank as u64);
        em.meta("backend", "threads");
        emit_scaling_cells(&mut em, &cells, &[]);
        let all_ok = print_threads_scaling(&ps, n_rank, &cells);
        verdict(all_ok, "both SDS variants complete at every p (wall-clock)");
        em.finish().expect("write metrics");
        return;
    }
    let cells = weak_scaling_uniform(&ps, n_rank, model());
    let mut em = Emitter::from_env("fig7");
    em.meta("workload", "uniform_u64");
    em.meta("n_rank", n_rank as u64);
    em.meta("backend", "sim");
    emit_scaling_cells(&mut em, &cells, &[]);

    let mut table = Table::new([
        "p",
        "HykSort",
        "SDS-Sort",
        "SDS-Sort/stable",
        "SDS throughput",
    ]);
    let mut sds_beats_hyk_top = false;
    let mut stable_slowest_top = false;
    for &p in &ps {
        let get = |s: Sorter| {
            cells
                .iter()
                .find(|c| c.p == p && c.sorter == s)
                .and_then(|c| c.outcome.time_s)
        };
        let (hyk, sds, stb) = (
            get(Sorter::HykSort),
            get(Sorter::Sds),
            get(Sorter::SdsStable),
        );
        if p == *ps.last().expect("non-empty sweep") {
            if let (Some(h), Some(s), Some(st)) = (hyk, sds, stb) {
                sds_beats_hyk_top = s < h;
                stable_slowest_top = st >= s;
                println!(
                    "at p = {p}: SDS-Sort is {:.0}% faster than HykSort (paper: 51%)",
                    (h / s - 1.0) * 100.0
                );
            }
        }
        // The paper's headline metric: bytes sorted per minute (it reports
        // 111-117 TB/min at 128K cores on 52.4 TB).
        let throughput = sds.map_or_else(
            || "-".into(),
            |t| {
                let bytes = (p * n_rank * 8) as f64;
                format!("{:.2} GB/min", bytes / t * 60.0 / 1e9)
            },
        );
        table.row([
            p.to_string(),
            fmt_opt_time(hyk),
            fmt_opt_time(sds),
            fmt_opt_time(stb),
            throughput,
        ]);
    }
    table.print();
    verdict(
        sds_beats_hyk_top && stable_slowest_top,
        "SDS-Sort beats HykSort at the largest p; stable variant trails the fast one",
    );
    em.finish().expect("write metrics");
}
