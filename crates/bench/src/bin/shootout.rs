//! `shootout` — the 4-way skew shoot-out: SDS-Sort (fast + stable),
//! HykSort, AMS-sort, and Histogram Sort with Sampling head to head.
//!
//! Two sections, all on the virtual-time simulator with modeled compute
//! (so every cell is deterministic and machine-independent):
//!
//! 1. **Skew sweep** at fixed `p`: Uniform, low/high-α Zipf, and the
//!    staircase of duplication levels — the regimes where the partition
//!    strategies genuinely differ. RDFA (receive-data factor average)
//!    exposes who balances under duplicate mass; HSS must stay within its
//!    `(1+ε)` guarantee on *every* workload.
//! 2. **Weak scaling** on Uniform at `p/4`, `p/2`, `p`.
//!
//! `--ranks <p>` overrides the sweep width (CI runs `--ranks 4` as a
//! smoke); `BENCH_SCALE=full` enlarges inputs. Emits `BENCH_shootout.json`
//! via `--metrics-out <dir>` / `BENCH_METRICS_OUT`, then reads the
//! document back and asserts the meta and all five sorter columns are
//! present, so CI fails loudly on a malformed emission.

use bench::{
    by_scale, fmt_opt_time, fmt_rdfa, header, model, run_sorter, verdict, Emitter, Sorter, Table,
};
use mpisim::telemetry::Json;
use workloads::keys_by_name;

/// Every sorter in the shoot-out, in column order.
const SORTERS: [Sorter; 5] = [
    Sorter::Sds,
    Sorter::SdsStable,
    Sorter::HykSort,
    Sorter::Ams,
    Sorter::Hss,
];

/// The skew matrix: no duplication, mild and heavy Zipf (α per the
/// paper's Table 2 calibration), and two staircase grades.
const WORKLOADS: [&str; 5] = [
    "uniform",
    "zipf:0.4",
    "zipf:0.9",
    "staircase:8",
    "staircase:4",
];

/// HSS guarantees every part ≤ (1+ε)·N/p with the default ε = 0.1, so its
/// RDFA (max/avg load) must stay below this on every workload — a little
/// slack covers integer rounding at small N/p.
const HSS_RDFA_BOUND: f64 = 1.15;

fn parse_ranks() -> Option<usize> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--ranks" {
            return Some(
                args.next()
                    .and_then(|v| v.parse().ok())
                    .expect("--ranks takes a positive integer"),
            );
        }
    }
    None
}

fn main() {
    header(
        "4-way skew shoot-out: SDS (fast/stable) vs HykSort vs AMS-sort vs HSS",
        "skew-aware partitioning keeps every competitor honest: who balances, who concentrates",
    );
    let p = parse_ranks().unwrap_or_else(|| by_scale(32, 256));
    let n_rank: usize = by_scale(1500, 8000);
    let m = model();
    let mut em = Emitter::from_env("shootout");
    em.meta("p", p);
    em.meta("n_rank", n_rank as u64);

    println!("p = {p}, {n_rank} u64/rank, no memory budget (OOM regimes are fig6c's job)\n");
    println!("— skew sweep (time, RDFA) —");
    let mut t = Table::new([
        "workload".to_string(),
        format!("{} t/rdfa", Sorter::Sds.label()),
        format!("{} t/rdfa", Sorter::SdsStable.label()),
        format!("{} t/rdfa", Sorter::HykSort.label()),
        format!("{} t/rdfa", Sorter::Ams.label()),
        format!("{} t/rdfa", Sorter::Hss.label()),
    ]);
    let mut all_complete = true;
    let mut hss_balanced = true;
    for name in WORKLOADS {
        let mut row = vec![name.to_string()];
        for s in SORTERS {
            let o = run_sorter(s, p, None, m, move |r| {
                keys_by_name(name, n_rank, 0xA1, r).expect("workload from the fixed matrix")
            });
            all_complete &= o.time_s.is_some();
            if s == Sorter::Hss && o.rdfa() > HSS_RDFA_BOUND {
                hss_balanced = false;
            }
            em.point(
                s.label(),
                &[("workload", Json::from(name)), ("p", Json::from(p))],
                &bench::emit::outcome_values(&o),
            );
            row.push(format!("{}/{}", fmt_opt_time(o.time_s), fmt_rdfa(o.rdfa())));
        }
        t.row(row);
    }
    t.print();

    println!("\n— weak scaling, uniform (time) —");
    let ps: Vec<usize> = [p / 4, p / 2, p]
        .into_iter()
        .filter(|&q| q > 0)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut t = Table::new([
        "p",
        Sorter::Sds.label(),
        Sorter::SdsStable.label(),
        Sorter::HykSort.label(),
        Sorter::Ams.label(),
        Sorter::Hss.label(),
    ]);
    for &q in &ps {
        let mut row = vec![q.to_string()];
        for s in SORTERS {
            let o = run_sorter(s, q, None, m, move |r| {
                keys_by_name("uniform", n_rank, 0xA1, r).expect("uniform is valid")
            });
            all_complete &= o.time_s.is_some();
            em.point(
                s.label(),
                &[("workload", Json::from("uniform")), ("p", Json::from(q))],
                &bench::emit::outcome_values(&o),
            );
            row.push(fmt_opt_time(o.time_s));
        }
        t.row(row);
    }
    t.print();

    verdict(
        all_complete && hss_balanced,
        "all five sorters complete every cell; HSS honours its (1+eps) balance bound",
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
        let series = doc.get("series").and_then(Json::as_arr).expect("series");
        for s in SORTERS {
            let found = series
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(s.label()))
                .unwrap_or_else(|| panic!("emitted metrics must carry a {} series", s.label()));
            let points = found.get("points").and_then(Json::as_arr).expect("points");
            assert_eq!(
                points.len(),
                WORKLOADS.len() + ps.len(),
                "{} series must cover the full sweep",
                s.label()
            );
        }
        println!("metrics validated: {}", path.display());
    }
    assert!(all_complete && hss_balanced, "shoot-out verdict must hold");
}
