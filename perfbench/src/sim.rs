//! `sim-fig9`: a fixed subset of Figure 9 on the Broadwell model.
//!
//! Two dictionaries at 10⁵ groups — 4 MiB, which fits the modelled
//! 55 MiB LLC, and 400 MiB, which far exceeds it — each co-run with the
//! Query 1 scan unpartitioned and with the scan confined to `0x3`, plus the
//! isolated baselines the figure normalizes by. The unpartitioned points
//! drive the 20-way victim search of `SetAssociativeCache::access`, the
//! confined scan the 2-way one.

use ccp_cachesim::{AddrSpace, HierarchyConfig, MemoryHierarchy, StreamStats, WayMask};
use ccp_engine::sim::{run_concurrent, SimWorkload, StreamOutcome};
use ccp_workloads::paper::{self, DICT_400MIB, DICT_4MIB};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Group count of every aggregation point (the paper's largest gain).
pub const GROUPS: u64 = 100_000;
/// Warm-up window per point, in virtual cycles.
pub const WARM_CYCLES: u64 = 2_000_000;
/// Measurement window per point, in virtual cycles.
pub const MEASURE_CYCLES: u64 = 4_000_000;
/// The scan's confined mask (10 % of the LLC).
pub const SCAN_MASK: u32 = 0x3;

/// One simulation of the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Point {
    /// Query 1 alone, full cache.
    IsoScan,
    /// Query 2 alone with a dictionary of the given bytes, full cache.
    IsoAgg(u64),
    /// Query 2 (full cache) co-running with Query 1 under the mask
    /// (`None` = unpartitioned).
    Pair(u64, Option<u32>),
}

impl Point {
    /// Stable label for reports.
    pub fn label(self) -> String {
        match self {
            Point::IsoScan => "iso q1".to_string(),
            Point::IsoAgg(d) => format!("iso q2 dict={}MiB", d >> 20),
            Point::Pair(d, None) => format!("q2+q1 dict={}MiB unpartitioned", d >> 20),
            Point::Pair(d, Some(m)) => format!("q2+q1 dict={}MiB scan={m:#x}", d >> 20),
        }
    }
}

/// One round: every point once, in this order. The trailing `IsoScan`
/// repeats the first point so a round checks its own determinism.
pub const ROUND: [Point; 8] = [
    Point::IsoScan,
    Point::IsoAgg(DICT_4MIB),
    Point::Pair(DICT_4MIB, None),
    Point::Pair(DICT_4MIB, Some(SCAN_MASK)),
    Point::IsoAgg(DICT_400MIB),
    Point::Pair(DICT_400MIB, None),
    Point::Pair(DICT_400MIB, Some(SCAN_MASK)),
    Point::IsoScan,
];

/// A simulated point with its host cost.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// Which point.
    pub point: Point,
    /// Per-stream outcomes (Query 2 first in a pair).
    pub streams: Vec<StreamOutcome>,
    /// Host wall time of the simulation.
    pub host: Duration,
}

impl PointRun {
    /// Simulated L2 accesses in the measurement window (every demand
    /// access starts at the L2).
    pub fn accesses(&self) -> u64 {
        self.streams.iter().map(|s| s.stats.l2.accesses()).sum()
    }

    /// Simulated LLC misses in the measurement window.
    pub fn llc_misses(&self) -> u64 {
        self.streams.iter().map(|s| s.stats.llc.misses).sum()
    }
}

fn scan_mask() -> WayMask {
    WayMask::new(SCAN_MASK).expect("0x3 is a valid CAT mask")
}

/// Runs one point on the Broadwell model.
pub fn run_point(point: Point) -> PointRun {
    let cfg = HierarchyConfig::broadwell_e5_2699_v4();
    let mut space = AddrSpace::new();
    let workloads = match point {
        Point::IsoScan => vec![SimWorkload::unpartitioned("q1", paper::q1_scan(&mut space))],
        Point::IsoAgg(dict) => vec![SimWorkload::unpartitioned(
            "q2",
            paper::q2_aggregation(&mut space, dict, GROUPS),
        )],
        Point::Pair(dict, mask) => vec![
            SimWorkload::unpartitioned("q2", paper::q2_aggregation(&mut space, dict, GROUPS)),
            SimWorkload {
                name: "q1".into(),
                op: paper::q1_scan(&mut space),
                mask: mask.map(|_| scan_mask()),
            },
        ],
    };
    let started = Instant::now();
    let out = run_concurrent(&cfg, workloads, WARM_CYCLES, MEASURE_CYCLES);
    let host = started.elapsed();
    PointRun {
        point,
        streams: out.streams,
        host,
    }
}

/// Time to build every point's operators and hierarchy for one round —
/// the set-up each point pays before its first simulated access. Each
/// point's structures are dropped before the next are built.
pub fn setup_round() -> Duration {
    let cfg = HierarchyConfig::broadwell_e5_2699_v4();
    let mut took = Duration::ZERO;
    for point in ROUND {
        let started = Instant::now();
        let mut space = AddrSpace::new();
        let ops = match point {
            Point::IsoScan => vec![paper::q1_scan(&mut space)],
            Point::IsoAgg(dict) => vec![paper::q2_aggregation(&mut space, dict, GROUPS)],
            Point::Pair(dict, _) => vec![
                paper::q2_aggregation(&mut space, dict, GROUPS),
                paper::q1_scan(&mut space),
            ],
        };
        let mem = MemoryHierarchy::new(cfg, ops.len());
        black_box((&ops, &mem));
        took += started.elapsed();
    }
    took
}

/// FNV-1a over every simulated statistic of a round, so two commits can
/// be compared exactly.
pub fn digest(runs: &[PointRun]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in runs {
        for s in &r.streams {
            eat(s.work);
            eat(s.cycles);
            eat(s.throughput.to_bits());
            stats_words(&s.stats).into_iter().for_each(&mut eat);
        }
    }
    h
}

fn stats_words(s: &StreamStats) -> [u64; 12] {
    [
        s.l2.hits,
        s.l2.misses,
        s.llc.hits,
        s.llc.misses,
        s.prefetch_covered,
        s.prefetches_issued,
        s.cycles,
        s.instructions,
        s.stall_dram_centi,
        s.stall_llc_centi,
        s.stall_l2_centi,
        s.stall_inflight_centi,
    ]
}

/// The Figure 9 values of a round: `(dict, q2 base, q1 base, q2 part,
/// q1 part)`, each throughput normalized to its isolated baseline.
pub fn figure_values(runs: &[PointRun]) -> Vec<(u64, f64, f64, f64, f64)> {
    let find = |p: Point| {
        runs.iter()
            .find(|r| r.point == p)
            .unwrap_or_else(|| panic!("round lacks point {}", p.label()))
    };
    let scan_iso = find(Point::IsoScan).streams[0].throughput;
    [DICT_4MIB, DICT_400MIB]
        .into_iter()
        .map(|dict| {
            let agg_iso = find(Point::IsoAgg(dict)).streams[0].throughput;
            let norm = |mask| {
                let pair = find(Point::Pair(dict, mask));
                (
                    pair.streams[0].throughput / agg_iso,
                    pair.streams[1].throughput / scan_iso,
                )
            };
            let (q2_base, q1_base) = norm(None);
            let (q2_part, q1_part) = norm(Some(SCAN_MASK));
            (dict, q2_base, q1_base, q2_part, q1_part)
        })
        .collect()
}

/// Checks the figure's properties on one round; returns every violation.
pub fn check_properties(runs: &[PointRun]) -> Vec<String> {
    let mut bad = Vec::new();
    let values = figure_values(runs);
    for &(dict, q2b, q1b, q2p, q1p) in &values {
        for (name, v) in [
            ("q2 base", q2b),
            ("q1 base", q1b),
            ("q2 part", q2p),
            ("q1 part", q1p),
        ] {
            if !(v > 0.0 && v <= 1.05) {
                bad.push(format!(
                    "dict={}MiB {name} normalized {v} outside (0, 1.05]",
                    dict >> 20
                ));
            }
        }
    }
    let (_, q2b4, q1b4, q2p4, q1p4) = values[0];
    if q2p4 <= q2b4 {
        bad.push(format!(
            "4 MiB: partitioning does not raise Q2 ({q2b4} -> {q2p4})"
        ));
    }
    if q1p4 < q1b4 {
        bad.push(format!(
            "4 MiB: partitioning lowers the scan ({q1b4} -> {q1p4})"
        ));
    }
    let (_, q2b400, _, q2p400, _) = values[1];
    let (gain4, gain400) = (q2p4 / q2b4, q2p400 / q2b400);
    if gain400 >= gain4 {
        bad.push(format!(
            "Q2 gain at 400 MiB ({gain400}) not below 4 MiB ({gain4})"
        ));
    }
    let first = &runs[0];
    let last = &runs[runs.len() - 1];
    if first.point == last.point
        && digest(std::slice::from_ref(first)) != digest(std::slice::from_ref(last))
    {
        bad.push(format!(
            "repeated point {} gave different statistics",
            first.point.label()
        ));
    }
    bad
}
