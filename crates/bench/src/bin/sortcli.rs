//! `sortcli` — run any sorter on any workload from the command line.
//!
//! ```text
//! Usage: sortcli [OPTIONS]
//!
//!   --sorter   sds | sds-stable | hyksort | samplesort | bitonic | radix
//!              | ams | hss        (`--algo` is an alias for `--sorter`;
//!                                  `ams` is multi-level AMS-sort and `hss`
//!                                  is Histogram Sort with Sampling; every
//!                                  name is a `baselines::Sorter`)
//!   --workload uniform | zipf:<alpha> | staircase[:<steps>] | ptf-like
//!              | adversarial
//!   --backend  sim | threads | sockets
//!                                  (default sim). `sim` runs on the
//!                                  deterministic virtual-time simulator;
//!                                  `threads` runs each rank on a real OS
//!                                  thread (crates/shmem); `sockets` runs
//!                                  each rank as a real OS *process*
//!                                  connected by sockets (crates/sockcomm).
//!                                  Every sorter runs on every backend; the
//!                                  real backends report wall-clock times.
//!                                  Fault injection, memory budgets,
//!                                  tracing and resilience are
//!                                  simulator-only
//!   --transport uds | tcp          (default uds; sockets backend only)
//!                                  socket family for rank-to-rank links
//!   --ranks    <p>                 (default 8)
//!   --records  <n per rank>        (default 20000)
//!   --cores    <cores per node>    (default 24)
//!   --budget   <bytes per rank>    (default unlimited)
//!   --oversample <s>               (default 1; sds sorters only)
//!   --trace                        print per-phase traffic matrices
//!   --seed     <u64>               (default 42)
//!   --faults   <spec>              inject deterministic message faults,
//!                                  e.g. seed=7,delay=0.5:1e-4,reorder=0.3:8,
//!                                  stall=2:0.3:1e-3,sendbuf=0.2:3:1e-5,
//!                                  ramp=0:0.01:0.5 (see mpisim::FaultSpec)
//!   --collective-timeout <secs>    wall-clock deadlock detector: if every
//!                                  rank blocks with no message progress for
//!                                  this long, abort with a diagnostic report
//!   --resilient <spill-dir>        sds only: degrade gracefully under
//!                                  memory pressure by spilling received
//!                                  chunks to <spill-dir> instead of aborting
//!   --metrics-out <path>           write a telemetry RunReport as JSON
//!                                  (a directory gets BENCH_sortcli.json;
//!                                  also honours BENCH_METRICS_OUT)
//!   --validate-metrics <file>      parse a previously written RunReport
//!                                  and exit 0 iff it is valid (CI smoke)
//!   --serve                        run a resident SortService (threads
//!                                  backend) and drive it with a stream of
//!                                  Zipf-sized jobs of --workload keys,
//!                                  --records per rank minimum; reports
//!                                  jobs/sec and latency percentiles
//!   --jobs     <n>                 (serve; default 32) jobs to submit
//!   --clients  <n>                 (serve; default 4) concurrent client
//!                                  handles submitting the jobs
//! ```
//!
//! Prints: correctness verdict (globally sorted + permutation), the
//! backend's timings (modelled makespan on the simulator, wall clock on
//! the real backends), phase breakdown, RDFA, message/byte totals.
//! Usage errors exit 2, failed or corrupt sorts exit 1.

use baselines::Sorter;
use bench::{fmt_bytes, fmt_time, Table};
use comm::Communicator;
use mpisim::telemetry::{Decisions, Json, MemoryReport, RunReport, Snapshot, WorldMeta};
use mpisim::{FaultSpec, NetModel, World};
use sdssort::{
    is_globally_sorted, is_permutation_of, rdfa, sds_sort_resilient, ResilienceConfig, SdsConfig,
    SortError, SortStats,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

#[derive(Debug, Clone)]
struct Args {
    sorter: Sorter,
    workload: String,
    backend: String,
    transport: String,
    ranks: usize,
    records: usize,
    cores: usize,
    budget: Option<usize>,
    oversample: usize,
    trace: bool,
    seed: u64,
    faults: Option<FaultSpec>,
    faults_text: Option<String>,
    collective_timeout: Option<Duration>,
    resilient: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    validate_metrics: Option<PathBuf>,
    serve: bool,
    jobs: u64,
    clients: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sorter: Sorter::Sds,
        workload: "uniform".into(),
        backend: "sim".into(),
        transport: "uds".into(),
        ranks: 8,
        records: 20_000,
        cores: 24,
        budget: None,
        oversample: 1,
        trace: false,
        seed: 42,
        faults: None,
        faults_text: None,
        collective_timeout: None,
        resilient: None,
        metrics_out: std::env::var_os("BENCH_METRICS_OUT").map(PathBuf::from),
        validate_metrics: None,
        serve: false,
        jobs: 32,
        clients: 4,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let take = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value for {}", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--sorter" | "--algo" => {
                let name = take(&mut i)?;
                args.sorter = Sorter::parse(&name).ok_or_else(|| {
                    let names: Vec<&str> = Sorter::ALL.map(Sorter::name).into();
                    format!(
                        "unknown sorter {name} (expected one of: {})",
                        names.join(", ")
                    )
                })?;
            }
            "--workload" => args.workload = take(&mut i)?,
            "--backend" => args.backend = take(&mut i)?,
            "--transport" => args.transport = take(&mut i)?,
            "--ranks" => args.ranks = take(&mut i)?.parse().map_err(|e| format!("--ranks: {e}"))?,
            "--records" => {
                args.records = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--records: {e}"))?;
            }
            "--cores" => args.cores = take(&mut i)?.parse().map_err(|e| format!("--cores: {e}"))?,
            "--budget" => {
                args.budget = Some(
                    take(&mut i)?
                        .parse()
                        .map_err(|e| format!("--budget: {e}"))?,
                );
            }
            "--oversample" => {
                args.oversample = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--oversample: {e}"))?;
            }
            "--trace" => args.trace = true,
            "--seed" => args.seed = take(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--faults" => {
                let spec = take(&mut i)?;
                args.faults = Some(FaultSpec::parse(&spec).map_err(|e| format!("--faults: {e}"))?);
                args.faults_text = Some(spec);
            }
            "--collective-timeout" => {
                let secs: f64 = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--collective-timeout: {e}"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err("--collective-timeout: must be a positive number".into());
                }
                args.collective_timeout = Some(Duration::from_secs_f64(secs));
            }
            "--resilient" => args.resilient = Some(PathBuf::from(take(&mut i)?)),
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(take(&mut i)?)),
            "--validate-metrics" => args.validate_metrics = Some(PathBuf::from(take(&mut i)?)),
            "--serve" => args.serve = true,
            "--jobs" => args.jobs = take(&mut i)?.parse().map_err(|e| format!("--jobs: {e}"))?,
            "--clients" => {
                args.clients = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
            }
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown option {other}")),
        }
        i += 1;
    }
    if args.ranks == 0 {
        return Err("--ranks must be at least 1".into());
    }
    if args.cores == 0 {
        return Err("--cores must be at least 1".into());
    }
    Ok(args)
}

impl Args {
    /// Whether the sorter is an SDS-Sort variant, the only sorters
    /// `--oversample`, `--resilient` and `--serve` apply to.
    fn is_sds(&self) -> bool {
        matches!(self.sorter, Sorter::Sds | Sorter::SdsStable)
    }

    /// The configuration this run hands to [`Sorter::sort`] (and to the
    /// resilient driver and the service): the defaults with `--oversample`,
    /// stable for `sds-stable`.
    fn cfg(&self) -> SdsConfig {
        SdsConfig {
            stable: self.sorter == Sorter::SdsStable,
            oversample: self.oversample,
            ..SdsConfig::default()
        }
    }
}

/// Per-rank outcome: (globally sorted, permutation, output length, stats).
type RankOut = (bool, bool, usize, SortStats);

/// One rank on any backend: generate this rank's keys, sort, validate.
fn rank_body<C: Communicator>(a: &Args, comm: &C) -> Result<RankOut, SortError> {
    let input = workloads::keys_by_name(&a.workload, a.records, a.seed, comm.rank())
        .expect("workload validated before launch");
    let o = match &a.resilient {
        Some(dir) => {
            sds_sort_resilient(comm, input.clone(), &a.cfg(), &ResilienceConfig::new(dir))?
        }
        None => a.sorter.sort(comm, input.clone(), &a.cfg())?,
    };
    let sorted = is_globally_sorted(comm, &o.data);
    let permutation = is_permutation_of(comm, &input, &o.data, |&k| k);
    Ok((sorted, permutation, o.data.len(), o.stats))
}

/// What one backend's run hands to the shared printer and metrics writer.
struct Run {
    /// Every rank's outcome, in rank order.
    ranks: Vec<Result<RankOut, SortError>>,
    /// Backend-specific timing rows, printed above the phase rows.
    timing: Vec<[String; 2]>,
    /// Backend-specific rows printed below the message and byte totals.
    extra: Vec<[String; 2]>,
    messages: u64,
    bytes: u64,
    /// Traffic by phase (simulator with `--trace` only).
    trace: Option<Table>,
    /// Telemetry recorded in this address space (empty on sockets: every
    /// rank is a separate process).
    snapshot: Snapshot,
    world: WorldMeta,
    memory: MemoryReport,
    /// Makespan in the backend's time base; on the real backends virtual
    /// time is wall time.
    makespan: f64,
    wall_s: f64,
}

/// The world shape of a real backend, which has no simulated topology.
fn real_world_meta(a: &Args) -> WorldMeta {
    WorldMeta {
        ranks: a.ranks,
        cores_per_node: a.cores,
        nodes: a.ranks.div_ceil(a.cores),
    }
}

/// Run on the deterministic virtual-time simulator.
fn run_sim(a: &Args) -> Run {
    let mut world = World::new(a.ranks)
        .cores_per_node(a.cores)
        .net(NetModel::edison())
        .trace(a.trace)
        .telemetry(a.metrics_out.is_some());
    if let Some(b) = a.budget {
        world = world.memory_budget(b);
    }
    if let Some(spec) = a.faults {
        world = world.faults(spec);
    }
    if let Some(window) = a.collective_timeout {
        world = world.collective_timeout(window);
    }
    let report = world.run(|comm| rank_body(a, comm));
    let trace = a.trace.then(|| {
        let mut tt = Table::new(["phase", "messages", "inter-node", "bytes"]);
        for (name, tr) in &report.trace_phases {
            tt.row([
                name.clone(),
                tr.total_messages().to_string(),
                tr.internode_messages(&report.topology).to_string(),
                fmt_bytes(tr.total_bytes() as usize),
            ]);
        }
        tt
    });
    Run {
        timing: vec![
            ["modelled makespan".into(), fmt_time(report.makespan)],
            ["host wall".into(), fmt_time(report.wall.as_secs_f64())],
        ],
        extra: vec![[
            "peak simulated memory".into(),
            fmt_bytes(report.max_memory_high_water),
        ]],
        messages: report.messages,
        bytes: report.bytes,
        trace,
        snapshot: report.telemetry.unwrap_or_default(),
        world: WorldMeta {
            ranks: a.ranks,
            cores_per_node: report.topology.cores_per_node(),
            nodes: report.topology.num_nodes(),
        },
        memory: MemoryReport {
            budget: report.memory_budget.map(|b| b as u64),
            max_high_water: report.max_memory_high_water as u64,
            per_rank_high_water: report
                .per_rank_memory_high_water
                .iter()
                .map(|&b| b as u64)
                .collect(),
        },
        makespan: report.makespan,
        wall_s: report.wall.as_secs_f64(),
        ranks: report.results,
    }
}

/// Run for real with one OS thread per rank; times are wall-clock seconds.
fn run_threads(a: &Args) -> Run {
    let report = shmem::ThreadWorld::new(a.ranks)
        .cores_per_node(a.cores)
        .telemetry(a.metrics_out.is_some())
        .run(|comm| rank_body(a, comm));
    Run {
        timing: vec![
            ["wall clock".into(), fmt_time(report.wall_s)],
            [
                "slowest rank".into(),
                fmt_time(slowest(&report.per_rank_wall)),
            ],
        ],
        extra: Vec::new(),
        messages: report.messages,
        bytes: report.bytes,
        trace: None,
        snapshot: report.telemetry.unwrap_or_default(),
        world: real_world_meta(a),
        memory: MemoryReport::default(),
        makespan: report.wall_s,
        wall_s: report.wall_s,
        ranks: report.results,
    }
}

/// Entry name the re-exec'd rank processes dispatch on.
const SOCKETS_SORT_ENTRY: &str = "sortcli-sort";

/// One rank process of a `--backend sockets` run. The child re-parses its
/// own argv (the launcher re-execs sortcli with identical arguments), so
/// no configuration needs to travel through the params payload.
fn sockets_rank_entry(comm: &sockcomm::SockComm, _params: u64) -> RankOut {
    let args = parse_args().expect("parent validated this argv before launching");
    rank_body(&args, comm).expect("sort failed on sockets rank")
}

/// Run for real with one OS process per rank over sockets; times are
/// wall-clock seconds, and `wall clock` includes process spawn and
/// rendezvous.
fn run_sockets(a: &Args) -> Result<Run, sockcomm::SockError> {
    let transport =
        sockcomm::Transport::parse(&a.transport).expect("transport validated before launch");
    println!("transport: {} (process per rank)", transport.as_str());
    let report = sockcomm::SocketWorld::new(a.ranks)
        .cores_per_node(a.cores)
        .transport(transport)
        .run::<u64, RankOut>(SOCKETS_SORT_ENTRY, &0)?;
    Ok(Run {
        timing: vec![
            ["wall clock (launch + sort)".into(), fmt_time(report.wall_s)],
            [
                "slowest rank".into(),
                fmt_time(slowest(&report.per_rank_wall)),
            ],
        ],
        extra: Vec::new(),
        messages: report.messages,
        bytes: report.bytes,
        trace: None,
        snapshot: Snapshot::default(),
        world: real_world_meta(a),
        memory: MemoryReport::default(),
        makespan: report.wall_s,
        wall_s: report.wall_s,
        ranks: report.results.into_iter().map(Ok).collect(),
    })
}

fn slowest(per_rank_wall: &[f64]) -> f64 {
    per_rank_wall.iter().copied().fold(0.0, f64::max)
}

fn main() -> ExitCode {
    // Rank processes of a `--backend sockets` run divert here (the
    // launcher re-execs this binary); everyone else falls through.
    sockcomm::child_rank(SOCKETS_SORT_ENTRY, sockets_rank_entry);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}\n");
            }
            eprintln!("see the module docs at the top of sortcli.rs for usage");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.validate_metrics {
        return match std::fs::read_to_string(path) {
            Ok(text) => match RunReport::from_json_str(&text) {
                Ok(r) => {
                    println!(
                        "valid run report: experiment {:?}, {} ranks, makespan {:.6} s",
                        r.experiment, r.world.ranks, r.makespan_v
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("invalid metrics file {}: {e}", path.display());
                    ExitCode::from(1)
                }
            },
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                ExitCode::from(1)
            }
        };
    }
    if let Err(e) = workloads::keys_by_name(&args.workload, 1, 0, 0) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    if !args.is_sds() {
        let sds_only = [
            (args.oversample != 1, "--oversample"),
            (args.resilient.is_some(), "--resilient"),
            (args.serve, "--serve"),
        ];
        for (set, flag) in sds_only {
            if set {
                eprintln!("error: {flag} applies to the sds sorters only");
                return ExitCode::from(2);
            }
        }
    }
    if args.serve {
        if args.clients == 0 {
            eprintln!("error: --clients must be at least 1");
            return ExitCode::from(2);
        }
        let incompatible = [
            (args.faults.is_some(), "--faults"),
            (args.collective_timeout.is_some(), "--collective-timeout"),
            (args.budget.is_some(), "--budget"),
            (args.trace, "--trace"),
            (args.resilient.is_some(), "--resilient"),
        ];
        for (set, flag) in incompatible {
            if set {
                eprintln!(
                    "error: {flag} does not apply to --serve \
                     (the service runs on the threads backend)"
                );
                return ExitCode::from(2);
            }
        }
        return serve_main(&args);
    }
    match args.backend.as_str() {
        "sim" | "threads" | "sockets" => {}
        other => {
            eprintln!("error: unknown backend {other} (expected sim, threads, or sockets)");
            return ExitCode::from(2);
        }
    }
    if args.transport != "uds" && args.backend != "sockets" {
        eprintln!("error: --transport applies to --backend sockets only");
        return ExitCode::from(2);
    }
    if args.backend == "sockets" && sockcomm::Transport::parse(&args.transport).is_none() {
        eprintln!(
            "error: unknown transport {} (expected uds or tcp)",
            args.transport
        );
        return ExitCode::from(2);
    }
    if args.backend != "sim" {
        let simulator_only = [
            (args.faults.is_some(), "--faults"),
            (args.collective_timeout.is_some(), "--collective-timeout"),
            (args.budget.is_some(), "--budget"),
            (args.trace, "--trace"),
            (args.resilient.is_some(), "--resilient"),
        ];
        for (set, flag) in simulator_only {
            if set {
                eprintln!(
                    "error: {flag} is simulator-only (remove --backend {})",
                    args.backend
                );
                return ExitCode::from(2);
            }
        }
    }

    println!(
        "sortcli: {} on {} | p = {}, {} records/rank, {} cores/node, {} backend{}",
        args.sorter.name(),
        args.workload,
        args.ranks,
        args.records,
        args.cores,
        args.backend,
        args.budget
            .map(|b| format!(", budget {}", fmt_bytes(b)))
            .unwrap_or_default()
    );
    if let Some(spec) = &args.faults_text {
        println!("faults: {spec}");
    }

    let run = match args.backend.as_str() {
        "threads" => run_threads(&args),
        "sockets" => match run_sockets(&args) {
            Ok(run) => run,
            Err(e) => {
                println!("\nresult: FAILED — {e}");
                return ExitCode::from(1);
            }
        },
        _ => run_sim(&args),
    };
    report(&args, run)
}

/// Print the verdict and result table of any backend's run, and write its
/// metrics when asked to.
fn report(args: &Args, run: Run) -> ExitCode {
    let ranks = match run
        .ranks
        .iter()
        .cloned()
        .collect::<Result<Vec<RankOut>, _>>()
    {
        Ok(ranks) => ranks,
        Err(e) => {
            println!("\nresult: FAILED — {e}");
            if args.budget.is_some() {
                println!(
                    "(the paper's imbalance-induced crash, reproduced under the memory budget)"
                );
            }
            return ExitCode::from(1);
        }
    };
    let all_ok = ranks.iter().all(|&(sorted, perm, ..)| sorted && perm);
    let loads: Vec<usize> = ranks.iter().map(|r| r.2).collect();
    let stats = ranks[0].3;
    println!(
        "\nresult: {}",
        if all_ok {
            "OK (sorted, permutation)"
        } else {
            "CORRUPT"
        }
    );
    let mut t = Table::new(["metric", "value"]);
    for row in &run.timing {
        t.row(row.clone());
    }
    t.row(["pivot phase (rank 0)".to_string(), fmt_time(stats.pivot_s)]);
    t.row([
        "exchange phase (rank 0)".to_string(),
        fmt_time(stats.exchange_s),
    ]);
    t.row([
        "ordering phase (rank 0)".to_string(),
        fmt_time(stats.local_order_s),
    ]);
    t.row([
        "node merged (τm)".to_string(),
        stats.node_merged.to_string(),
    ]);
    t.row(["RDFA".to_string(), format!("{:.4}", rdfa(&loads))]);
    t.row(["messages".to_string(), run.messages.to_string()]);
    t.row(["bytes".to_string(), fmt_bytes(run.bytes as usize)]);
    for row in &run.extra {
        t.row(row.clone());
    }
    t.print();
    if stats.spilled {
        println!(
            "note: memory pressure tripped graceful degradation — {} received\n\
             records were spilled through disk runs instead of aborting.",
            stats.spill_records
        );
    }
    if stats.node_merged {
        println!(
            "note: node-level merging ran (avg message below τm), so output\n\
             concentrates on node leaders — RDFA counts the empty non-leaders."
        );
    }
    if let Some(tt) = &run.trace {
        println!("\ntraffic by phase:");
        tt.print();
    }
    if let Some(out) = &args.metrics_out {
        match write_metrics(out, args, run, &loads, &stats) {
            Ok(path) => println!("metrics: wrote {}", path.display()),
            Err(e) => {
                eprintln!("error writing metrics: {e}");
                return ExitCode::from(1);
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run a resident [`service::SortService`] over the threads backend and
/// drive it with a stream of Zipf-sized jobs from several concurrent
/// client handles. Reports throughput and latency percentiles; with
/// `--metrics-out`, emits a self-describing experiment document.
fn serve_main(args: &Args) -> ExitCode {
    let mut cfg = service::ServiceConfig::new(args.ranks);
    cfg.cores_per_node = args.cores;
    cfg.sort = args.cfg();
    let load = service::LoadGen::new(args.workload.clone(), args.records, args.seed);
    println!(
        "sortsvc: {} on {} resident ranks | {} jobs from {} clients, >= {} records/rank",
        args.workload, args.ranks, args.jobs, args.clients, args.records
    );
    let report = bench::experiments::drive_service(cfg, &load, args.jobs, args.clients);
    bench::experiments::print_service_report(&report);
    if let Some(out) = &args.metrics_out {
        let mut em = bench::emit::Emitter::with_out("sortsvc", Some(out.clone()));
        em.meta("backend", "threads");
        em.meta("workload", args.workload.clone());
        em.meta("ranks", args.ranks);
        em.meta("min_records_per_rank", args.records);
        em.meta("clients", args.clients);
        em.point(
            "SortService",
            &[("jobs", Json::from(args.jobs))],
            &bench::experiments::service_values(&report),
        );
        if let Err(e) = em.finish() {
            eprintln!("error writing metrics: {e}");
            return ExitCode::from(1);
        }
    }
    if report.counters.failed == 0 && report.counters.balanced() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Assemble and write the telemetry [`RunReport`] for a successful run. A
/// `.json` path is written as-is; any other path is treated as a directory
/// receiving `BENCH_sortcli.json`.
fn write_metrics(
    out: &Path,
    args: &Args,
    run: Run,
    loads: &[usize],
    stats: &SortStats,
) -> std::io::Result<PathBuf> {
    let mut report = RunReport::from_snapshot(
        "sortcli",
        run.snapshot,
        loads.iter().map(|&l| l as u64).collect(),
    );
    report.config = [
        ("sorter", Json::from(args.sorter.name())),
        ("workload", Json::from(args.workload.clone())),
        ("backend", Json::from(args.backend.clone())),
        ("git_rev", Json::from(bench::git_rev())),
        ("ranks", Json::from(args.ranks)),
        ("records_per_rank", Json::from(args.records)),
        ("cores_per_node", Json::from(args.cores)),
        ("oversample", Json::from(args.oversample)),
        ("seed", Json::from(args.seed)),
        (
            "faults",
            Json::from(args.faults_text.clone().unwrap_or_default()),
        ),
        ("resilient", Json::from(args.resilient.is_some())),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    if args.backend == "sockets" {
        report
            .config
            .push(("transport".to_string(), Json::from(args.transport.clone())));
    }
    let cfg = args.is_sds().then(|| args.cfg());
    report.decisions = Decisions {
        tau_m_bytes: cfg.map_or(0, |c| c.tau_m_bytes as u64),
        tau_o: cfg.map_or(0, |c| c.tau_o as u64),
        tau_s: cfg.map_or(0, |c| c.tau_s as u64),
        stable: cfg.is_some_and(|c| c.stable),
        node_merged: stats.node_merged,
        overlapped: stats.overlapped,
    };
    report.world = run.world;
    report.memory = run.memory;
    report.makespan_v = run.makespan;
    report.wall_s = run.wall_s;

    let path = if out.extension().is_some_and(|e| e == "json") {
        out.to_path_buf()
    } else {
        out.join("BENCH_sortcli.json")
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&path, report.to_json_string() + "\n")?;
    Ok(path)
}
