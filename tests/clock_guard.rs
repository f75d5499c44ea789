//! Clock guard: every simulated sorter's virtual clocks, message count and
//! byte count, pinned bit-for-bit.
//!
//! The runs are fully deterministic: compute is charged by the calibrated
//! model (never by host measurement — `compute_scale(0.0)` zeroes anything
//! measured), SDS overlap is off (`τo = 0`) and HykSort runs two-way
//! stages, so no merge cost depends on the arrival order of chunks, and
//! the network model is fixed. Any change to
//! a collective's message pattern, a charge, or the order in which a
//! charge and a clock advance happen moves at least one constant below.
//! A moved constant is a behaviour change to explain, not to re-capture.

use baselines::{HykSortConfig, SampleSortConfig};
use mpisim::{Comm, Communicator, NetModel, World};
use sdssort::{ComputeCharge, ComputeModel, SdsConfig};

const P: usize = 8;
const N: usize = 1500;
const CORES_PER_NODE: usize = 4;
const WORKLOAD: &str = "zipf:1.1";

/// What one case pins: per-rank clock bits, makespan bits, messages, bytes.
type Observed = ([u64; P], u64, u64, u64);

fn charge() -> ComputeCharge {
    ComputeCharge::Modeled(ComputeModel::nominal())
}

fn sds_cfg(stable: bool, node_merge: bool) -> SdsConfig {
    let mut cfg = if stable {
        SdsConfig::stable()
    } else {
        SdsConfig::default()
    };
    cfg.charge = charge();
    cfg.tau_o = 0;
    if !node_merge {
        cfg.tau_m_bytes = 0;
    }
    cfg
}

fn sort(name: &str, comm: &Comm, input: Vec<u64>) -> Vec<u64> {
    let out = match name {
        "sds" => sdssort::sds_sort(comm, input, &sds_cfg(false, false)),
        "sds-stable" => sdssort::sds_sort(comm, input, &sds_cfg(true, false)),
        "sds-node-merge" => sdssort::sds_sort(comm, input, &sds_cfg(false, true)),
        "ams" => {
            let mut cfg = baselines::AmsConfig::default();
            cfg.kmax = 4;
            cfg.charge = charge();
            baselines::ams_sort(comm, input, &cfg)
        }
        "hss" => {
            let mut cfg = baselines::HssConfig::default();
            cfg.charge = charge();
            baselines::hss_sort(comm, input, &cfg)
        }
        "hyksort" => {
            // k = 2: each stage receives from itself and one peer, so the
            // progressive merge order (and with it the summation order of
            // the merge charges) cannot depend on host scheduling.
            let mut cfg = HykSortConfig::default();
            cfg.k = 2;
            cfg.charge = charge();
            baselines::hyksort(comm, input, &cfg)
        }
        "samplesort" => baselines::sample_sort(comm, input, &SampleSortConfig { charge: charge() }),
        "radix" => baselines::radix_sort(comm, input),
        "bitonic" => return baselines::bitonic_sort(comm, input),
        other => panic!("no case {other}"),
    };
    out.expect("no memory budget is set").data
}

fn observe(name: &str) -> Observed {
    let report = World::new(P)
        .cores_per_node(CORES_PER_NODE)
        .net(NetModel::edison())
        .compute_scale(0.0)
        .run(|comm| {
            let input = workloads::keys_by_name(WORKLOAD, N, 7, comm.rank()).expect("workload");
            sort(name, comm, input)
        });
    let all: Vec<u64> = report.results.iter().flatten().copied().collect();
    assert_eq!(all.len(), P * N, "{name}: records lost");
    assert!(all.windows(2).all(|w| w[0] <= w[1]), "{name}: not sorted");
    let mut clocks = [0u64; P];
    for (slot, t) in clocks.iter_mut().zip(&report.per_rank_time) {
        *slot = t.to_bits();
    }
    (
        clocks,
        report.makespan.to_bits(),
        report.messages,
        report.bytes,
    )
}

/// Captured once on the runs above; a mismatch is a behaviour change (see
/// the module docs).
#[rustfmt::skip]
const GOLDEN: &[(&str, Observed)] = &[
    ("sds", ([4551846457065839850, 4551612782012948929, 4551662662008924240, 4551746742268412207, 4551672176839517459, 4551724572971384424, 4551709944703333972, 4551746561490320286], 4551846457065839850, 223, 88862)),
    ("sds-stable", ([4554078186574964091, 4553961349048518632, 4553986289046506288, 4554028329176250271, 4553991046461802897, 4554017244527736379, 4554009930393711153, 4554028238787204310], 4554078186574964091, 244, 89310)),
    ("sds-node-merge", ([4553263742055098224, 4551776052300070924, 4551776052300070924, 4551783430997700408, 4553226643346922985, 4551832277976007591, 4551832277976007591, 4551839656673637075], 4553263742055098224, 87, 123722)),
    ("ams", ([4553210273706231977, 4553213963055046719, 4553213963055046719, 4553217652403861461, 4553222275157926333, 4553225964506741075, 4553225964506741075, 4553229653855555817], 4553229653855555817, 327, 141046)),
    ("hss", ([4553209856809815917, 4553218182286584984, 4553241130036212679, 4553255970441819978, 4553246186288763283, 4553238582540856100, 4553231803362409012, 4553241257318746788], 4553255970441819978, 294, 100280)),
    ("hyksort", ([4552050862669909017, 4552044498543203587, 4552069541842958055, 4552064837923219259, 4552095817385216647, 4552101720343320234, 4552105358041251570, 4552103697834284936], 4552105358041251570, 304, 164826)),
    ("samplesort", ([4551541399569744100, 4551307724516853179, 4551357604512828490, 4551441684772316457, 4551367119343421709, 4551419515475288674, 4551404887207238222, 4551441503994224536], 4551541399569744100, 161, 88694)),
    ("bitonic", ([4534327931874465643, 4534209872712393902, 4534445991036537384, 4534327931874465643, 4533441307567306867, 4533323248405235126, 4533559366729378608, 4533441307567306867], 4534445991036537384, 62, 576224)),
    ("radix", ([4538218789693288548, 4538289330042626413, 4538578870137607358, 4538881396740416195, 4538520017645314596, 4538523736508919854, 4538563581476119067, 4538504551895083196], 4538881396740416195, 154, 84526)),
];

#[test]
fn simulated_clocks_messages_and_bytes_are_pinned() {
    let mut failures = Vec::new();
    for &(name, want) in GOLDEN {
        let got = observe(name);
        if got != want {
            failures.push(format!("    (\"{name}\", {got:?}),"));
        }
    }
    assert!(
        failures.is_empty(),
        "clock guard moved; observed:\n{}",
        failures.join("\n")
    );
}
