//! The serving workloads: a release `ccp serve` process on an ephemeral
//! port, driven closed loop by this process over two keep-alive
//! connections.

use crate::client::{self, field, prom_sum, Conn};
use crate::oracle::{Mix, Oracle, Req};
use crate::stats;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Keep-alive connections of the load generator (the host has two cores).
pub const CONNECTIONS: u64 = 2;

/// A serving workload: server configuration and request mix.
#[derive(Debug, Clone, Copy)]
pub struct ServeWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Request mix.
    pub mix: Mix,
    /// Rows of the server's resident data set (`--rows`).
    pub rows: usize,
    /// OLAP pool workers (`--olap-workers`).
    pub olap_workers: usize,
    /// Reuse cache on (off is `--no-reuse`).
    pub reuse: bool,
    /// Supervised in-memory resctrl (`--fake-resctrl`).
    pub fake_resctrl: bool,
    /// Server processes per run, each measured for an equal share of the
    /// run; `setup_s` is the median of their starts.
    pub setups: usize,
}

impl ServeWorkload {
    /// `ccp serve` flags beyond `--addr`.
    pub fn flags(&self) -> Vec<String> {
        let mut f = vec![
            "--rows".to_string(),
            self.rows.to_string(),
            "--olap-workers".to_string(),
            self.olap_workers.to_string(),
        ];
        if !self.reuse {
            f.push("--no-reuse".to_string());
        }
        if self.fake_resctrl {
            f.push("--fake-resctrl".to_string());
        }
        f
    }
}

/// `serve-hot`: the default server (60 k rows, two OLAP workers, reuse,
/// tracer and flight recorder on) under shared work.
pub const HOT: ServeWorkload = ServeWorkload {
    name: "serve-hot",
    mix: Mix::Hot,
    rows: 60_000,
    olap_workers: 2,
    reuse: true,
    fake_resctrl: false,
    setups: 10,
};

/// `serve-cold`: 1 M rows, reuse off, supervised fake resctrl, no shared
/// work. One OLAP worker: on two cores the other core serves connection
/// threads and the generator; with two workers every request waits for
/// its slower half, and run-to-run spread tripled (three interleaved
/// pairs of 20 s runs: 121-157 req/s with two workers, 76-82 with one).
pub const COLD: ServeWorkload = ServeWorkload {
    name: "serve-cold",
    mix: Mix::Cold,
    rows: 1_000_000,
    olap_workers: 1,
    reuse: false,
    fake_resctrl: true,
    setups: 5,
};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const SIGINT: i32 = 2;
const SIGKILL: u64 = 9;
const PR_SET_PDEATHSIG: i32 = 1;

/// A running `ccp serve` child. Dropping it kills and reaps the process.
pub struct ServerProc {
    child: Option<Child>,
    /// The address the server bound.
    pub addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Starts the server and waits for its first `200` on `/healthz`.
    /// Returns the server and the time from spawn to that answer.
    pub fn start(bin: &Path, flags: &[String]) -> Result<(ServerProc, Duration), String> {
        let started = Instant::now();
        let mut command = Command::new(bin);
        command
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        // SAFETY: the hook runs in the forked child before exec and only
        // makes the prctl(2) system call, which is async-signal-safe. It
        // has the kernel kill the server should this process die without
        // stopping it (the main thread, which spawns it, lives until exit).
        unsafe {
            command.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) == 0 {
                    Ok(())
                } else {
                    Err(std::io::Error::last_os_error())
                }
            });
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Drains the server's stdout until it exits, so its last lines
        // never meet a closed pipe.
        let drain = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            while let Some(Ok(line)) = lines.next() {
                if let Some(addr) = line.split("http://").nth(1) {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut server = ServerProc {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            drain: Some(drain),
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(120))
            .map_err(|_| "server never reported its address".to_string())?;
        server.addr = addr
            .parse()
            .map_err(|e| format!("bad server address {addr:?}: {e}"))?;
        loop {
            if let Ok((200, _)) = client::fetch(server.addr, "GET", "/healthz", b"") {
                return Ok((server, started.elapsed()));
            }
            server.check_alive()?;
            if started.elapsed() > Duration::from_secs(120) {
                return Err("server never answered /healthz".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Fails if the server has exited.
    pub fn check_alive(&mut self) -> Result<(), String> {
        let child = self.child.as_mut().expect("server not yet stopped");
        match child.try_wait() {
            Ok(None) => Ok(()),
            Ok(Some(status)) => Err(format!("server exited early: {status}")),
            Err(e) => Err(format!("cannot poll server: {e}")),
        }
    }

    /// Stops the server with SIGINT and checks that it exits cleanly.
    pub fn stop(mut self) -> Result<(), String> {
        self.check_alive()?;
        let mut child = self.child.take().expect("server not yet stopped");
        // SAFETY: kill(2) has no memory-safety preconditions; the pid is
        // our own child, not yet reaped, so it cannot name another process.
        unsafe { kill(child.id() as i32, SIGINT) };
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not exit within 30 s of SIGINT".to_string());
                }
            }
        };
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Request type.
    pub kind: &'static str,
    /// Client-observed latency, µs.
    pub latency_us: f64,
    /// The server's own breakdown, µs.
    pub queue_us: f64,
    pub bind_us: f64,
    pub exec_us: f64,
}

/// Outcome of the answer checks over a run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Every violated check (the first few are printed).
    pub wrong: Vec<String>,
    /// Answers of reuse misses, by request body, for the hit check.
    pub built: HashMap<String, (u64, i64)>,
    /// `(threshold, count)` of every Q1 answer.
    pub q1: Vec<(i64, i64)>,
}

impl Checks {
    /// Checks one `/query` response line against the oracle and the
    /// taxonomy. Returns the parsed sample on success.
    pub fn check(
        &mut self,
        oracle: &Oracle,
        req: &Req,
        line: &str,
        latency_us: f64,
        reuse_on: bool,
    ) -> Option<Sample> {
        let num = |k: &str| field(line, k).and_then(|v| v.parse::<f64>().ok());
        let (Some(rows), Some(result)) = (num("rows"), num("result")) else {
            self.wrong
                .push(format!("{req:?}: unparsable response {line:?}"));
            return None;
        };
        let (rows, result) = (rows as u64, result as i64);
        let body = req.body();
        if field(line, "workload") != Some(req.workload().as_str()) {
            self.wrong
                .push(format!("{body}: answered as {:?}", field(line, "workload")));
        }
        if (rows, result) != oracle.expect(req) {
            self.wrong.push(format!(
                "{body}: got rows={rows} result={result}, expected {:?}",
                oracle.expect(req)
            ));
        }
        let reuse = field(line, "reuse").unwrap_or("");
        let class = field(line, "class").unwrap_or("");
        // A predicted reuse hit is admitted sensitive-light; otherwise the
        // class is the paper's taxonomy.
        let class_ok = class == req.static_class() || (reuse == "hit" && class == "sensitive");
        // Polluting gets 0x3, sensitive the full 0xfffff; the join's bit
        // vector is far below LLC size here, so mixed also gets 0x3.
        let want_mask = match class {
            "sensitive" => "0xfffff",
            _ => "0x3",
        };
        if !class_ok || field(line, "mask") != Some(want_mask) {
            self.wrong.push(format!(
                "{body}: class {class} mask {:?}",
                field(line, "mask")
            ));
        }
        let reuse_ok = match (reuse_on, req) {
            (_, Req::Oltp(_)) | (false, _) => reuse == "bypass",
            (true, _) => reuse == "hit" || reuse == "miss",
        };
        if !reuse_ok {
            self.wrong.push(format!("{body}: reuse {reuse:?}"));
        }
        match reuse {
            "miss" => {
                self.built.insert(body, (rows, result));
            }
            "hit" => match self.built.get(&body) {
                Some(&first) if first != (rows, result) => {
                    self.wrong.push(format!(
                        "{body}: hit {:?} differs from its miss {first:?}",
                        (rows, result)
                    ));
                }
                _ => {}
            },
            _ => {}
        }
        if let Req::Q1(t) = req {
            self.q1.push((*t, result));
        }
        Some(Sample {
            // Reuse hits share one latency band whatever their query.
            kind: if reuse == "hit" {
                "olap-hit"
            } else {
                req.kind()
            },
            latency_us,
            queue_us: num("queue_us").unwrap_or(f64::NAN),
            bind_us: num("bind_us").unwrap_or(f64::NAN),
            exec_us: num("exec_us").unwrap_or(f64::NAN),
        })
    }

    /// Q1 answers must never rise as the threshold rises.
    pub fn check_q1_monotone(&mut self) {
        let mut q1 = self.q1.clone();
        q1.sort_unstable();
        q1.dedup();
        for w in q1.windows(2) {
            if w[1].1 > w[0].1 {
                self.wrong
                    .push(format!("q1 count rises from {:?} to {:?}", w[0], w[1]));
            }
        }
    }

    /// Merges another connection's checks.
    pub fn merge(&mut self, other: Checks) {
        self.wrong.extend(other.wrong);
        self.q1.extend(other.q1);
        for (k, v) in other.built {
            self.built.entry(k).or_insert(v);
        }
    }
}

/// Sends every warm-up request once on one connection; returns the time
/// it took.
pub fn warm_up(
    addr: SocketAddr,
    w: &ServeWorkload,
    oracle: &Oracle,
    checks: &mut Checks,
) -> Result<Duration, String> {
    let started = Instant::now();
    let mut conn = Conn::connect(addr).map_err(|e| format!("warm-up connect: {e}"))?;
    for req in w.mix.warmup() {
        match conn.request("POST", "/query", req.body().as_bytes()) {
            Ok((200, body)) => {
                checks.check(oracle, &req, &String::from_utf8_lossy(&body), 0.0, w.reuse);
            }
            Ok((status, body)) => {
                return Err(format!(
                    "warm-up {req:?}: status {status}: {}",
                    String::from_utf8_lossy(&body)
                ))
            }
            Err(e) => return Err(format!("warm-up {req:?}: {e}")),
        }
    }
    Ok(started.elapsed())
}

/// What one closed-loop measurement produced.
#[derive(Default)]
pub struct LoopOutcome {
    /// Answered requests.
    pub samples: Vec<Sample>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that got no `200` answer.
    pub failed: u64,
    /// Wall time from the start barrier to the last answer.
    pub wall: Duration,
    /// Answer checks.
    pub checks: Checks,
}

impl LoopOutcome {
    /// Adds another measurement (of another server instance).
    pub fn merge(&mut self, other: LoopOutcome) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall += other.wall;
        self.checks.merge(other.checks);
    }
}

/// Drives `addr` closed loop over [`CONNECTIONS`] keep-alive connections
/// for `length`; each connection runs whole mix periods. `part` numbers
/// the server instance, so every instance gets its own request sequence.
pub fn closed_loop(
    addr: SocketAddr,
    w: &ServeWorkload,
    oracle: &Arc<Oracle>,
    seed: u64,
    part: u64,
    length: Duration,
    built: &HashMap<String, (u64, i64)>,
) -> LoopOutcome {
    let barrier = Arc::new(Barrier::new(CONNECTIONS as usize + 1));
    let handles: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            let (barrier, oracle, w) = (Arc::clone(&barrier), Arc::clone(oracle), *w);
            let mut checks = Checks {
                built: built.clone(),
                ..Checks::default()
            };
            std::thread::spawn(move || {
                let mut conn = Conn::connect(addr).ok();
                let (mut samples, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
                barrier.wait();
                let deadline = Instant::now() + length;
                for k in 0.. {
                    if k > 0 && Instant::now() >= deadline {
                        break;
                    }
                    for req in w
                        .mix
                        .period(seed, part * CONNECTIONS + c, k, oracle.oltp_keys())
                    {
                        let body = req.body();
                        attempted += 1;
                        let sent = Instant::now();
                        let answer = match conn.as_mut() {
                            Some(conn) => conn.request("POST", "/query", body.as_bytes()),
                            None => Err(std::io::Error::other("not connected")),
                        };
                        let latency_us = sent.elapsed().as_secs_f64() * 1e6;
                        match answer {
                            Ok((200, body)) => {
                                let line = String::from_utf8_lossy(&body);
                                if let Some(s) =
                                    checks.check(&oracle, &req, &line, latency_us, w.reuse)
                                {
                                    samples.push(s);
                                }
                            }
                            Ok(_) => failed += 1,
                            Err(_) => {
                                failed += 1;
                                conn = Conn::connect(addr).ok();
                            }
                        }
                    }
                }
                (samples, attempted, failed, Instant::now(), checks)
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    let mut out = LoopOutcome::default();
    for h in handles {
        let (samples, attempted, failed, end, checks) = h.join().expect("load thread panicked");
        out.samples.extend(samples);
        out.attempted += attempted;
        out.failed += failed;
        out.wall = out.wall.max(end.duration_since(start));
        out.checks.merge(checks);
    }
    out
}

/// Counters scraped from `/metrics` and `/stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    reuse_hits: f64,
    reuse_misses: f64,
    jobs: f64,
    mask_switches: f64,
    deferrals: f64,
    /// Panicked jobs over both pools.
    pub panicked: f64,
}

/// Scrapes the server's counters.
pub fn scrape(addr: SocketAddr) -> Result<Counters, String> {
    let (_, metrics) =
        client::fetch(addr, "GET", "/metrics", b"").map_err(|e| format!("/metrics: {e}"))?;
    let (_, stats) =
        client::fetch(addr, "GET", "/stats", b"").map_err(|e| format!("/stats: {e}"))?;
    let num = |k: &str| field(&stats, k).and_then(|v| v.parse::<f64>().ok());
    let deferrals = num("deferrals").ok_or("no admission deferrals in /stats")?;
    let panicked = stats
        .match_indices("\"jobs_panicked\":")
        .filter_map(|(i, _)| field(&stats[i..], "jobs_panicked")?.parse::<f64>().ok())
        .sum();
    Ok(Counters {
        reuse_hits: prom_sum(&metrics, "ccp_reuse_hits_total"),
        reuse_misses: prom_sum(&metrics, "ccp_reuse_misses_total"),
        jobs: prom_sum(&metrics, "ccp_executor_jobs_total"),
        mask_switches: prom_sum(&metrics, "ccp_executor_mask_switches_total"),
        deferrals,
        panicked,
    })
}

impl Counters {
    /// Adds what the counters gained from `before` to `after`.
    pub fn add_delta(&mut self, before: &Counters, after: &Counters) {
        self.reuse_hits += after.reuse_hits - before.reuse_hits;
        self.reuse_misses += after.reuse_misses - before.reuse_misses;
        self.jobs += after.jobs - before.jobs;
        self.mask_switches += after.mask_switches - before.mask_switches;
        self.deferrals += after.deferrals - before.deferrals;
    }

    /// Per-request ratios of counter gains over `requests` answered
    /// requests.
    pub fn per_request(&self, requests: f64) -> Vec<(&'static str, f64, &'static str)> {
        let lookups = self.reuse_hits + self.reuse_misses;
        let per = |v: f64| v / requests.max(1.0);
        vec![
            (
                "reuse.hit_ratio",
                if lookups > 0.0 {
                    self.reuse_hits / lookups
                } else {
                    0.0
                },
                "ratio",
            ),
            ("executor.jobs_per_query", per(self.jobs), "count"),
            (
                "executor.mask_switches_per_query",
                per(self.mask_switches),
                "count",
            ),
            (
                "admission.deferrals_per_query",
                per(self.deferrals),
                "count",
            ),
        ]
    }
}

/// Every child process of this one must have been reaped.
pub fn check_no_children() -> Result<(), String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Ok(());
    };
    for task in tasks.flatten() {
        let children = std::fs::read_to_string(task.path().join("children")).unwrap_or_default();
        if !children.trim().is_empty() {
            return Err(format!("processes left behind: {}", children.trim()));
        }
    }
    Ok(())
}

/// Peak resident set of a process in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

impl ServerProc {
    /// The server's peak resident set in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&self.child.as_ref()?.id().to_string())
    }
}

/// Per-type latency bands: which request type each reported percentile
/// falls in, and whether it sits clear of every type boundary.
pub fn bands(samples: &[Sample], percentiles: &[f64]) -> Vec<(f64, Result<String, String>)> {
    let mut by_kind: HashMap<&str, Vec<f64>> = HashMap::new();
    for s in samples {
        by_kind.entry(s.kind).or_default().push(s.latency_us);
    }
    let n = samples.len() as f64;
    let mut kinds: Vec<_> = by_kind.iter().collect();
    kinds.sort_by(|a, b| stats::median(a.1).total_cmp(&stats::median(b.1)));
    for (k, v) in kinds {
        let v = stats::sorted(v);
        println!(
            "type: {k:<12} share {:>5.1}% p50 {:>9.1} us p99 {:>9.1} us",
            100.0 * v.len() as f64 / n,
            stats::percentile(&v, 50.0),
            stats::percentile(&v, 99.0)
        );
    }
    let types: Vec<stats::TypeBand> = by_kind
        .iter()
        .map(|(k, v)| stats::TypeBand {
            name: k.to_string(),
            share: v.len() as f64 / n,
            latency: stats::median(v),
        })
        .collect();
    percentiles
        .iter()
        .map(|&p| (p, stats::band_of(&types, p, 0.05)))
        .collect()
}
