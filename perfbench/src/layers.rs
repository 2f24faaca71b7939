//! The traced run: per-layer numbers from timed calls into each crate's
//! public functions, made from the benchmark's own files.

use crate::oracle::Req;
use crate::serve::ServeWorkload;
use crate::sim;
use crate::spans::Spans;
use crate::stats;
use ccp_cachesim::{AccessKind, HierarchyConfig, MemoryHierarchy, SetAssociativeCache, WayMask};
use ccp_engine::alloc::{CacheAllocator, NoopAllocator, ResctrlAllocator};
use ccp_engine::ops::{aggregate, join, scan};
use ccp_engine::{
    CacheAwareScheduler, CacheUsageClass, Job, JobExecutor, PartitionPolicy, SchedulerMetrics,
};
use ccp_server::http::{read_request, Response};
use ccp_server::{parse_query, AdmissionQueue, Breakdown, Json, QueryEngine, ServerMetrics};
use ccp_storage::{gen, Aggregate, DictColumn};
use std::hint::black_box;
use std::io::{BufReader, Cursor};
use std::ops::Bound;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A named per-layer value with its unit.
pub type Metric = (String, f64, &'static str);

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

/// The serving stages the replay times, in request order.
pub const STAGES: [&str; 8] = [
    "http.read_request",
    "json.parse",
    "query.parse",
    "query.classify",
    "admission.acquire",
    "query.execute",
    "json.render",
    "http.write",
];

/// What the replay of a request sequence measured.
pub struct Replay {
    /// `(stage, p50 µs)` in [`STAGES`] order.
    pub stage_p50_us: Vec<(&'static str, f64)>,
    /// p50 over requests of the stage sum, µs.
    pub stage_sum_p50_us: f64,
    /// Traced over untraced replay time.
    pub overhead_ratio: f64,
    /// Requests replayed per pass.
    pub requests: usize,
}

fn raw_request(req: &Req) -> Vec<u8> {
    let body = req.body();
    format!(
        "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The server's request path, stage by stage, on an in-process engine.
struct Pipeline {
    engine: QueryEngine,
    admission: Arc<AdmissionQueue>,
}

impl Pipeline {
    fn new(w: &ServeWorkload) -> Pipeline {
        // Same construction as `ccp serve` with the workload's flags.
        let mut engine = if w.fake_resctrl {
            QueryEngine::with_fake_resctrl(w.olap_workers, 1, w.rows)
        } else {
            QueryEngine::new(w.olap_workers, 1, w.rows)
        };
        if !w.reuse {
            engine.configure_reuse(None);
        }
        let registry = ccp_obs::Registry::new();
        let admission = Arc::new(AdmissionQueue::new(
            CacheAwareScheduler::new(engine.policy(), 2),
            16,
            SchedulerMetrics::new(),
            ServerMetrics::new(&registry),
        ));
        Pipeline { engine, admission }
    }

    /// Serves one raw request; with `spans`, each stage is a child span of
    /// one request span. Returns the response bytes.
    fn serve(&self, raw: &[u8], mut spans: Option<&mut Spans>) -> Vec<u8> {
        let root = spans.as_mut().map(|s| s.open("replay.request", None));
        let mut stage = |name: &'static str, f: &mut dyn FnMut()| match spans.as_mut() {
            Some(s) => {
                s.run(name, root, f);
            }
            None => f(),
        };
        let mut request = None;
        stage(STAGES[0], &mut || {
            request = read_request(&mut BufReader::new(Cursor::new(raw)))
                .ok()
                .flatten();
        });
        let request = request.expect("replayed requests are well formed");
        let line = std::str::from_utf8(&request.body)
            .expect("UTF-8 body")
            .trim();
        let mut value = None;
        stage(STAGES[1], &mut || value = Json::parse(line).ok());
        let value = value.expect("replayed JSON parses");
        let mut spec = None;
        stage(STAGES[2], &mut || spec = parse_query(&value, false).ok());
        let spec = spec.expect("replayed queries parse");
        let mut class = None;
        stage(STAGES[3], &mut || {
            class = Some(self.engine.classify_for_admission(&spec).0)
        });
        let cuid = class.expect("classified");
        let mut permit = None;
        stage(STAGES[4], &mut || {
            permit = self
                .admission
                .acquire_tenant(cuid, "default", Some(Duration::from_secs(30)))
                .ok();
        });
        let permit = permit.expect("an idle queue admits");
        let mut outcome = None;
        // The permit is released inside the execute stage, as the server
        // releases it before rendering.
        let mut held = Some(permit);
        stage(STAGES[5], &mut || {
            outcome = Some(self.engine.execute_admitted(&spec, cuid));
            held.take();
        });
        let outcome = outcome.expect("executed");
        let mut text = String::new();
        stage(STAGES[6], &mut || {
            text = outcome.to_json_with(&Breakdown::default()).to_string();
            text.push('\n');
        });
        let mut sink = Vec::with_capacity(text.len() + 128);
        stage(STAGES[7], &mut || {
            Response::ndjson(200, std::mem::take(&mut text))
                .write_to(&mut sink)
                .expect("writing to memory cannot fail");
        });
        if let (Some(s), Some(r)) = (spans, root) {
            s.close(r);
        }
        sink
    }
}

/// Replays `reqs` through the in-process request path twice — untraced
/// and traced, alternating which goes first per request — after the
/// workload's warm-up requests.
pub fn replay(w: &ServeWorkload, reqs: &[Req], spans: &mut Spans) -> Replay {
    let p = Pipeline::new(w);
    for req in w.mix.warmup() {
        black_box(p.serve(&raw_request(&req), None));
    }
    let first = spans.records().len();
    let (mut plain_ns, mut traced_ns) = (0u128, 0u128);
    for (i, req) in reqs.iter().enumerate() {
        let raw = raw_request(req);
        for traced in [i % 2 == 0, i % 2 != 0] {
            let t = Instant::now();
            if traced {
                black_box(p.serve(&raw, Some(spans)));
                traced_ns += t.elapsed().as_nanos();
            } else {
                black_box(p.serve(&raw, None));
                plain_ns += t.elapsed().as_nanos();
            }
        }
    }
    let mut per_stage: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    // A request span is recorded before its stage spans, so each stage
    // adds to the latest request's sum.
    let mut sums: Vec<f64> = Vec::new();
    for s in &spans.records()[first..] {
        let dur = (s.end_ns - s.start_ns) as f64 / 1e3;
        if s.name == "replay.request" {
            sums.push(0.0);
        } else if let Some(k) = STAGES.iter().position(|&n| n == s.name) {
            per_stage[k].push(dur);
            if let Some(sum) = sums.last_mut() {
                *sum += dur;
            }
        }
    }
    Replay {
        stage_p50_us: STAGES
            .iter()
            .zip(&per_stage)
            .map(|(&n, v)| (n, stats::median(v)))
            .collect(),
        stage_sum_p50_us: stats::median(&sums),
        overhead_ratio: traced_ns as f64 / plain_ns.max(1) as f64,
        requests: reqs.len(),
    }
}

fn median_ms(
    spans: &mut Spans,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> u64,
) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (out, us) = spans.run(name, None, &mut f);
        black_box(out);
        v.push(us / 1e3);
    }
    stats::median(&v)
}

fn fake_resctrl_allocator() -> Arc<dyn CacheAllocator> {
    let fs = ccp_resctrl::fs::FakeFs::new("/sys/fs/resctrl", 0xfffff, 2, 16, &[0]);
    match ccp_resctrl::CacheController::open_with(Box::new(fs), "/sys/fs/resctrl") {
        Ok(ctl) => Arc::new(ResctrlAllocator::new(ctl, vec![0])),
        Err(_) => Arc::new(NoopAllocator),
    }
}

/// Operator, storage-kernel and dispatch costs on the `serve-cold` data
/// (the server's 1 M-row columns, same generators and seeds) with the
/// `serve-cold` server's OLAP worker count.
pub fn engine_layers(w: &ServeWorkload, spans: &mut Spans) -> Vec<Metric> {
    let rows = w.rows;
    let keys = (rows / 4).max(16);
    let amounts = Arc::new(DictColumn::build(&gen::uniform_ints(rows, 50_000, 11)));
    let regions = Arc::new(DictColumn::build(&gen::uniform_ints(rows, 64, 12)));
    let pk = Arc::new(DictColumn::build(&gen::primary_keys(keys, 21)));
    let fk = Arc::new(DictColumn::build(&gen::foreign_keys(rows, keys as i64, 22)));
    let (lineitem, _) = ccp_tpch::sample_database(rows, keys, 7);
    let cfg = HierarchyConfig::broadwell_e5_2699_v4();
    let policy = PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes);
    let ex = JobExecutor::new(w.olap_workers, policy, Arc::new(NoopAllocator));
    let reps = 15;
    let mut out = vec![
        metric(
            "ops.column_scan_ms",
            median_ms(spans, "ops.column_scan", reps, || {
                scan::column_scan(&ex, &amounts, 25_000)
            }),
            "ms",
        ),
        metric(
            "ops.grouped_aggregate_ms",
            median_ms(spans, "ops.grouped_aggregate", reps, || {
                aggregate::grouped_aggregate(&ex, &amounts, &regions, Aggregate::Sum).len() as u64
            }),
            "ms",
        ),
        metric(
            "ops.fk_join_count_ms",
            median_ms(spans, "ops.fk_join_count", reps, || {
                join::fk_join_count(&ex, &pk, &fk)
            }),
            "ms",
        ),
        metric(
            "tpch.q1_ms",
            median_ms(spans, "tpch.q1", reps, || {
                ccp_tpch::q1_pricing_summary(&ex, &lineitem).len() as u64
            }),
            "ms",
        ),
        metric(
            "tpch.q6_ms",
            median_ms(spans, "tpch.q6", reps, || {
                ccp_tpch::q6_forecast_revenue(&ex, &lineitem, 24, 4..=6) as u64
            }),
            "ms",
        ),
    ];
    let range = amounts
        .dict()
        .code_range(Bound::Excluded(&25_000), Bound::Unbounded);
    let scan_ms = median_ms(spans, "storage.count_in_range", reps, || {
        amounts.codes().count_in_range_rows(range.clone(), 0..rows)
    });
    out.push(metric(
        "storage.scan_ns_per_row",
        scan_ms * 1e6 / rows as f64,
        "ns",
    ));
    drop(ex);
    // Dispatch through the supervised-path allocator `serve-cold` binds
    // with: an alternating batch rebinds the way mask on every job.
    let ex = JobExecutor::new(w.olap_workers, policy, fake_resctrl_allocator());
    for (name, span, alternate) in [
        (
            "executor.dispatch_us_per_job.same_class",
            "executor.batch_same_class",
            false,
        ),
        (
            "executor.dispatch_us_per_job.alternating",
            "executor.batch_alternating",
            true,
        ),
    ] {
        const JOBS: usize = 512;
        let per_job = median_ms(spans, span, reps, || {
            let jobs = (0..JOBS)
                .map(|i| {
                    let class = if alternate && i % 2 == 1 {
                        CacheUsageClass::Sensitive
                    } else {
                        CacheUsageClass::Polluting
                    };
                    Job::new("noop", class, || {
                        black_box(0u64);
                    })
                })
                .collect();
            ex.run_batch(jobs);
            JOBS as u64
        }) * 1e3
            / JOBS as f64;
        out.push(metric(name, per_job, "us"));
    }
    out
}

/// Cache-simulator access costs.
pub fn cachesim_layers(seed: u64, spans: &mut Spans) -> Vec<Metric> {
    let cfg = HierarchyConfig::broadwell_e5_2699_v4();
    let mut out = Vec::new();
    const N: u64 = 2_000_000;
    for (name, span, bits) in [
        (
            "cachesim.llc_access_ns.full_mask",
            "cachesim.llc_access_full",
            0xfffff,
        ),
        (
            "cachesim.llc_access_ns.mask_0x3",
            "cachesim.llc_access_0x3",
            0x3,
        ),
    ] {
        let mask = WayMask::new(bits).expect("valid CAT mask");
        let mut llc = SetAssociativeCache::new(cfg.llc.size_bytes, cfg.llc.ways);
        let lines = llc.sets() * u64::from(cfg.llc.ways) * 2;
        let mut rng = crate::refcache::Rng::new(seed);
        let trace: Vec<u64> = (0..N).map(|_| rng.below(lines)).collect();
        // Fill first, so the timed pass runs against a full cache.
        for &l in &trace {
            black_box(llc.access(l, mask));
        }
        let (_, us) = spans.run(span, None, || {
            for &l in &trace {
                black_box(llc.access(l, mask));
            }
        });
        out.push(metric(name, us * 1e3 / N as f64, "ns"));
    }
    let mut mem = MemoryHierarchy::new(cfg, 1);
    let (_, us) = spans.run("cachesim.hierarchy_stream", None, || {
        for i in 0..N {
            black_box(mem.access(0, i * 64, AccessKind::Read));
        }
    });
    out.push(metric(
        "cachesim.hierarchy_access_ns",
        us * 1e3 / N as f64,
        "ns",
    ));
    out
}

/// Whole-run simulator costs on one Figure 9 point (4 MiB, scan at
/// `0x3`), with its deterministic counts.
pub fn sim_layers(spans: &mut Spans) -> Vec<Metric> {
    let point = sim::Point::Pair(ccp_workloads::paper::DICT_4MIB, Some(sim::SCAN_MASK));
    let (run, _) = spans.run("sim.point", None, || sim::run_point(point));
    let secs = run.host.as_secs_f64();
    vec![
        metric("sim.point_s", secs, "s"),
        metric(
            "sim.host_ns_per_access",
            secs * 1e9 / run.accesses() as f64,
            "ns",
        ),
        metric("sim.accesses", run.accesses() as f64, "count"),
        metric("sim.llc_misses", run.llc_misses() as f64, "count"),
    ]
}
