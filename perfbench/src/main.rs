//! End-to-end and per-layer benchmark of the cache-partitioning engine.
//!
//! ```text
//! bash perfbench/run.sh --workload <serve-hot|serve-cold|sim-fig9> --seed N --seconds S --trace <0|1>
//! bash perfbench/run.sh steady [--runs N] [--seconds S] [--workloads a,b]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`).

mod client;
mod layers;
mod oracle;
mod refcache;
mod serve;
mod sim;
mod spans;
mod stats;
mod steady;

use layers::Metric;
use oracle::Oracle;
use serve::{ServeWorkload, ServerProc};
use spans::Spans;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["serve-hot", "serve-cold", "sim-fig9"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            out.workload
        ));
    }
    if out.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(out)
}

/// What a run prints as its last line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// The release `ccp` binary, built beside this one.
fn ccp_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let bin = exe.with_file_name("ccp");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found; run through perfbench/run.sh",
            bin.display()
        ))
    }
}

/// Where the traced run writes its spans.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let dir = exe
        .parent()
        .and_then(|d| d.parent())
        .map(|d| d.join("perfbench"))
        .unwrap_or_default();
    dir.join(format!("spans-{workload}-{seed}.json"))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A measured serving run: the closed loop plus what the traced run
/// derives from it.
struct ServeRun {
    report: Report,
    client_p50_us: f64,
    samples: Vec<serve::Sample>,
    deltas: Vec<(&'static str, f64, &'static str)>,
}

fn run_serve(w: &ServeWorkload, seed: u64, seconds: u64) -> Result<ServeRun, String> {
    let bin = ccp_binary()?;
    let oracle = Arc::new(Oracle::build(w.rows));
    let mut checks = serve::Checks::default();
    let (mut setups, mut rss, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    // Per process p50 and p99, when its own samples support a p99.
    let mut percentiles: Vec<Option<(f64, f64)>> = Vec::new();
    let mut counters = serve::Counters::default();
    let mut lo = serve::LoopOutcome::default();
    // Every set-up's server is measured for its share of the run. Thread
    // placement and memory layout differ from process to process, and a
    // burst of host noise (steal) can fill a few processes' windows, so
    // each metric is the median over the processes: that variance stays
    // inside the run.
    let share = Duration::from_secs(seconds) / w.setups as u32;
    for part in 0..w.setups {
        let (mut server, to_health) = ServerProc::start(&bin, &w.flags())?;
        if part == 0 {
            let (_, version) = client::fetch(server.addr, "GET", "/version", b"")
                .map_err(|e| format!("/version: {e}"))?;
            println!(
                "stamp: workload={} version={version} nproc={}",
                w.name,
                nproc()
            );
            println!("server: ccp serve {}", w.flags().join(" "));
            println!(
                "mix: {:?} per period of {}",
                w.mix.proportions(),
                oracle::PERIOD
            );
        }
        let warm = serve::warm_up(server.addr, w, &oracle, &mut checks)?;
        setups.push((to_health + warm).as_secs_f64());
        let before = serve::scrape(server.addr)?;
        let built = checks.built.clone();
        let part_lo = serve::closed_loop(server.addr, w, &oracle, seed, part as u64, share, &built);
        rates.push((part_lo.attempted - part_lo.failed) as f64 / part_lo.wall.as_secs_f64());
        let lat = stats::sorted(
            &part_lo
                .samples
                .iter()
                .map(|s| s.latency_us)
                .collect::<Vec<_>>(),
        );
        percentiles.push(
            stats::highest_supported_percentile(lat.len())
                .is_some_and(|p| p >= 99.0)
                .then(|| (stats::percentile(&lat, 50.0), stats::percentile(&lat, 99.0))),
        );
        lo.merge(part_lo);
        server.check_alive()?;
        let after = serve::scrape(server.addr)?;
        if after.panicked > 0.0 {
            return Err(format!("server reports {} panicked jobs", after.panicked));
        }
        counters.add_delta(&before, &after);
        rss.push(
            server
                .peak_rss_mb()
                .ok_or("cannot read the server's VmHWM")?,
        );
        server.stop()?;
    }
    serve::check_no_children()?;
    checks.merge(std::mem::take(&mut lo.checks));
    checks.check_q1_monotone();
    let n = lo.samples.len();
    if stats::highest_supported_percentile(n).is_none_or(|p| p < 99.0) {
        return Err(format!(
            "{n} answered requests cannot support a p99; raise --seconds"
        ));
    }
    // Per process when every process supports its own p99 (serve-hot);
    // otherwise over the pooled samples (serve-cold's processes answer
    // fewer than a thousand requests each). A burst of host steal time
    // lifts a process's p99 several-fold while barely moving its p50, and
    // such bursts can cover most of a run, so p99 takes the lower quartile
    // over processes rather than their median.
    let (p50, p99) = match percentiles.iter().copied().collect::<Option<Vec<_>>>() {
        Some(pp) => (
            stats::median(&pp.iter().map(|p| p.0).collect::<Vec<_>>()),
            stats::percentile(
                &stats::sorted(&pp.iter().map(|p| p.1).collect::<Vec<_>>()),
                25.0,
            ),
        ),
        None => {
            let lat: Vec<f64> = lo.samples.iter().map(|s| s.latency_us).collect();
            let sorted = stats::sorted(&lat);
            (
                stats::percentile(&sorted, 50.0),
                stats::percentile(&sorted, 99.0),
            )
        }
    };
    println!(
        "samples: {n} answered of {} sent over {:.2} s ({} connections, {} server processes)",
        lo.attempted,
        lo.wall.as_secs_f64(),
        serve::CONNECTIONS,
        w.setups
    );
    println!("rates: answered requests per second by server process: {rates:.1?}");
    let p99s: Vec<String> = percentiles
        .iter()
        .map(|p| p.map_or("-".to_string(), |p| format!("{:.0}", p.1)))
        .collect();
    println!("p99: by server process (us): {}", p99s.join(" "));
    for (p, band) in serve::bands(&lo.samples, &[50.0, 99.0]) {
        match band {
            Ok(kind) => println!("band: p{p} falls among {kind} requests"),
            Err(why) => println!("band: WARNING {why}"),
        }
    }
    for wrong in checks.wrong.iter().take(5) {
        eprintln!("WRONG: {wrong}");
    }
    let ok = (lo.attempted - lo.failed) as f64;
    Ok(ServeRun {
        report: Report {
            correct: checks.wrong.is_empty(),
            attempted: lo.attempted,
            failed: lo.failed,
            metrics: vec![
                ("throughput_per_s".into(), stats::median(&rates), "1/s"),
                ("p50_us".into(), p50, "us"),
                ("p99_us".into(), p99, "us"),
                ("setup_s".into(), stats::median(&setups), "s"),
                ("peak_rss_mb".into(), stats::median(&rss), "MiB"),
            ],
        },
        client_p50_us: p50,
        samples: lo.samples,
        deltas: counters.per_request(ok),
    })
}

fn run_sim(seed: u64, seconds: u64) -> Result<Report, String> {
    println!(
        "stamp: workload=sim-fig9 server=none (in process) nproc={}",
        nproc()
    );
    let setups: Vec<f64> = (0..11).map(|_| sim::setup_round().as_secs_f64()).collect();
    let mut wrong = Vec::new();
    // The reference model, on the Broadwell LLC geometry.
    let cfg = ccp_cachesim::HierarchyConfig::broadwell_e5_2699_v4();
    for masks in [&[0xfffff][..], &[0xfff], &[0x3], &[0xfffff, 0xfff, 0x3]] {
        if let Err(e) = refcache::compare(cfg.llc.size_bytes, cfg.llc.ways, masks, 1_000_000, seed)
        {
            wrong.push(format!("reference model: {e}"));
        }
    }
    let started = Instant::now();
    let mut first_digest = None;
    // Host µs of each point of the round, one list per round position.
    let mut point_us = vec![Vec::new(); sim::ROUND.len()];
    let mut round_rates = Vec::new();
    let mut rounds = 0;
    while rounds == 0 || started.elapsed() < Duration::from_secs(seconds) {
        let runs: Vec<sim::PointRun> = sim::ROUND.iter().map(|&p| sim::run_point(p)).collect();
        let digest = sim::digest(&runs);
        if rounds == 0 {
            wrong.extend(sim::check_properties(&runs));
            for (dict, q2b, q1b, q2p, q1p) in sim::figure_values(&runs) {
                println!(
                    "fig9: dict={}MiB groups=1e5 q2 {q2b:.4} -> {q2p:.4} q1 {q1b:.4} -> {q1p:.4} (unpartitioned -> scan {:#x})",
                    dict >> 20,
                    sim::SCAN_MASK
                );
            }
            let acc: u64 = runs.iter().map(|r| r.accesses()).sum();
            println!(
                "digest: {digest:016x} ({} points, {acc} simulated L2 accesses per round)",
                runs.len()
            );
            first_digest = Some(digest);
        } else if first_digest != Some(digest) {
            wrong.push(format!(
                "round {rounds} digest {digest:016x} differs from the first round"
            ));
        }
        let accesses: u64 = runs.iter().map(|r| r.accesses()).sum();
        let host: Duration = runs.iter().map(|r| r.host).sum();
        round_rates.push(accesses as f64 / host.as_secs_f64());
        for (i, r) in runs.iter().enumerate() {
            point_us[i].push(r.host.as_secs_f64() * 1e6);
        }
        rounds += 1;
    }
    println!("rounds: {rounds}, simulated L2 accesses per host second by round: {round_rates:.0?}");
    for w in wrong.iter().take(5) {
        eprintln!("WRONG: {w}");
    }
    // Every round does identical, deterministic work, and host noise only
    // ever slows it, so the fastest repetition is the least disturbed
    // measurement: each point's host time is its minimum over the rounds,
    // throughput the fastest round's. p50 and p99 are taken over the
    // points (fewer than forty, so p99 is the slowest point).
    let per_point: Vec<f64> = point_us
        .iter()
        .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let sorted = stats::sorted(&per_point);
    let rss = serve::peak_rss_mb("self").ok_or("cannot read VmHWM")?;
    Ok(Report {
        correct: wrong.is_empty(),
        attempted: (rounds * sim::ROUND.len()) as u64,
        failed: 0,
        metrics: vec![
            (
                "throughput_per_s".into(),
                round_rates.iter().copied().fold(0.0, f64::max),
                "1/s",
            ),
            ("p50_us".into(), stats::percentile(&sorted, 50.0), "us"),
            ("p99_us".into(), stats::percentile(&sorted, 99.0), "us"),
            ("setup_s".into(), stats::median(&setups), "s"),
            ("peak_rss_mb".into(), rss, "MiB"),
        ],
    })
}

/// The traced run: every per-layer metric. Serving layers come from the
/// run's own workload (`serve-hot` for `sim-fig9`, over a shorter loop);
/// engine and storage layers from the `serve-cold` data; simulator layers
/// from one Figure 9 point.
fn run_traced(a: &Args) -> Result<Report, String> {
    let (w, seconds) = match a.workload.as_str() {
        "serve-cold" => (serve::COLD, a.seconds),
        "serve-hot" => (serve::HOT, a.seconds),
        _ => (serve::HOT, a.seconds.min(5)),
    };
    let live = run_serve(&w, a.seed, seconds)?;
    let mut spans = Spans::default();
    // About the same replay time on both mixes: hot requests cost µs,
    // cold ones ms.
    let periods = if w.mix == oracle::Mix::Hot { 100 } else { 10 };
    let reqs: Vec<oracle::Req> = (0..periods)
        .flat_map(|k| w.mix.period(a.seed, 0, k, oracle::oltp_key_count(w.rows)))
        .collect();
    let replay = layers::replay(&w, &reqs, &mut spans);
    let mut m: Vec<Metric> = Vec::new();
    for (stage, p50) in &replay.stage_p50_us {
        m.push((format!("{stage}_us"), *p50, "us"));
    }
    m.push(("serve.stage_sum_us".into(), replay.stage_sum_p50_us, "us"));
    m.push((
        "serve.residual_us".into(),
        live.client_p50_us - replay.stage_sum_p50_us,
        "us",
    ));
    m.push((
        "trace.overhead_ratio".into(),
        replay.overhead_ratio,
        "ratio",
    ));
    println!(
        "replay: {} requests; stage sum p50 {:.1} us is {:.1} % of client p50 {:.1} us",
        replay.requests,
        replay.stage_sum_p50_us,
        100.0 * replay.stage_sum_p50_us / live.client_p50_us,
        live.client_p50_us
    );
    for (part, get) in [
        (
            "queue",
            (|s: &serve::Sample| s.queue_us) as fn(&serve::Sample) -> f64,
        ),
        ("bind", |s| s.bind_us),
        ("exec", |s| s.exec_us),
    ] {
        let v = stats::sorted(&live.samples.iter().map(get).collect::<Vec<_>>());
        m.push((
            format!("breakdown.{part}_us.p50"),
            stats::percentile(&v, 50.0),
            "us",
        ));
        m.push((
            format!("breakdown.{part}_us.p99"),
            stats::percentile(&v, 99.0),
            "us",
        ));
    }
    for (name, value, unit) in &live.deltas {
        m.push((name.to_string(), *value, unit));
    }
    m.extend(layers::engine_layers(&serve::COLD, &mut spans));
    m.extend(layers::cachesim_layers(a.seed, &mut spans));
    m.extend(layers::sim_layers(&mut spans));
    for (name, (calls, total, own)) in spans.self_times() {
        println!(
            "layer: {name:<32} calls={calls:<6} total_ms={:<10.3} self_ms={:.3}",
            total / 1e3,
            own / 1e3
        );
    }
    let path = spans_path(&a.workload, a.seed);
    spans
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans: {}", path.display());
    Ok(Report {
        correct: live.report.correct,
        attempted: live.report.attempted,
        failed: live.report.failed,
        metrics: m,
    })
}

fn run(a: &Args) -> Result<Report, String> {
    if a.trace {
        return run_traced(a);
    }
    match a.workload.as_str() {
        "serve-hot" => Ok(run_serve(&serve::HOT, a.seed, a.seconds)?.report),
        "serve-cold" => Ok(run_serve(&serve::COLD, a.seed, a.seconds)?.report),
        _ => run_sim(a.seed, a.seconds),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("steady") {
        return match steady::main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("steady: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&a) {
        Ok(report) if report.metrics.iter().all(|(_, v, _)| v.is_finite()) => {
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Ok(report) => {
            eprintln!("non-finite metric in {}", report.json());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{}: {e}", a.workload);
            ExitCode::FAILURE
        }
    }
}
