//! Request types, the seeded request mixes, and answers computed apart
//! from the server.
//!
//! The server builds its resident data once from fixed generator seeds
//! (`QueryEngine`'s data set in `crates/server/src/query.rs`). The oracle
//! regenerates the same columns from the same seeded `ccp_storage::gen`
//! and `ccp_tpch::gen` calls and answers every request type with plain
//! loops over the raw values.

use crate::refcache::Rng;
use ccp_storage::{gen, Column, Table};
use ccp_tpch::queries::PhaseSpec;
use std::collections::HashMap;

/// Domain of the Q1/Q2 value column (`1..=MAX_AMOUNT`).
pub const MAX_AMOUNT: i64 = 50_000;
/// The Q1 threshold the phase-played TPC-H scan phases use.
const PHASE_SCAN_THRESHOLD: i64 = 25_000;
/// The phase-played TPC-H query of `serve-cold`: scan, join and aggregate
/// phases, one of each operator.
pub const PHASE_PLAYED: u8 = 2;

/// Q2's aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Max,
    Min,
    Sum,
    Count,
}

impl Agg {
    /// Every aggregate, in request order.
    pub const ALL: [Agg; 4] = [Agg::Max, Agg::Min, Agg::Sum, Agg::Count];

    fn label(self) -> &'static str {
        match self {
            Agg::Max => "max",
            Agg::Min => "min",
            Agg::Sum => "sum",
            Agg::Count => "count",
        }
    }
}

/// One `/query` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// Paper Q1: count of `A.X > threshold`.
    Q1(i64),
    /// Paper Q2: grouped aggregation.
    Q2(Agg),
    /// Paper Q3: foreign-key join count.
    Q3,
    /// TPC-H query by number.
    Tpch(u8),
    /// OLTP point select by document key.
    Oltp(i64),
}

impl Req {
    /// The request body (one NDJSON line).
    pub fn body(&self) -> String {
        match self {
            Req::Q1(t) => format!(r#"{{"workload":"q1","threshold":{t}}}"#),
            Req::Q2(a) => format!(r#"{{"workload":"q2","agg":"{}"}}"#, a.label()),
            Req::Q3 => r#"{"workload":"q3"}"#.to_string(),
            Req::Tpch(id) => format!(r#"{{"workload":"tpch-{id}"}}"#),
            Req::Oltp(k) => format!(r#"{{"workload":"oltp","key":{k}}}"#),
        }
    }

    /// The request type, for per-type latency bands.
    pub fn kind(&self) -> &'static str {
        match self {
            Req::Q1(_) => "q1",
            Req::Q2(_) => "q2",
            Req::Q3 => "q3",
            Req::Tpch(1) => "tpch-1",
            Req::Tpch(6) => "tpch-6",
            Req::Tpch(_) => "tpch-phased",
            Req::Oltp(_) => "oltp",
        }
    }

    /// The workload name the server echoes.
    pub fn workload(&self) -> String {
        match self {
            Req::Tpch(id) => format!("tpch-{id}"),
            other => other.kind().to_string(),
        }
    }

    /// The class the paper's taxonomy gives this request before any reuse
    /// prediction: the scan pollutes, aggregation is sensitive, the join
    /// is mixed, and a TPC-H query takes the class of its largest phase.
    pub fn static_class(&self) -> &'static str {
        match self {
            Req::Q1(_) | Req::Tpch(6) => "polluting",
            Req::Q2(_) | Req::Tpch(1) | Req::Oltp(_) => "sensitive",
            Req::Q3 => "mixed",
            Req::Tpch(id) => {
                let phases = ccp_tpch::queries::profile(*id).phases;
                let rows = |p: &PhaseSpec| match *p {
                    PhaseSpec::Scan { rows, .. } | PhaseSpec::Aggregate { rows, .. } => rows,
                    PhaseSpec::Join { probe_rows, .. } => probe_rows,
                };
                let mut largest = &phases[0];
                for p in &phases[1..] {
                    if rows(p) > rows(largest) {
                        largest = p;
                    }
                }
                match largest {
                    PhaseSpec::Scan { .. } => "polluting",
                    PhaseSpec::Join { .. } => "mixed",
                    PhaseSpec::Aggregate { .. } => "sensitive",
                }
            }
        }
    }
}

/// Which serving mix to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Shared work: OLAP requests over a fixed set of reuse keys plus OLTP
    /// point selects on varying keys.
    Hot,
    /// No shared work: OLAP only, Q1 with a new threshold every request.
    Cold,
}

/// Requests per mix period; every connection runs whole periods, so the
/// proportions below hold exactly in every run.
pub const PERIOD: usize = 20;

/// The fixed Q1 thresholds of `serve-hot`.
pub const HOT_Q1_KEYS: [i64; 8] = [
    5_000, 10_000, 15_000, 20_000, 25_000, 30_000, 35_000, 40_000,
];

impl Mix {
    /// Requests of each type per period of [`PERIOD`].
    pub fn proportions(self) -> &'static [(&'static str, usize)] {
        match self {
            // 14 reuse keys once each (q1 x8, q2 x4, tpch-1, tpch-6), then
            // 6 OLTP selects: hits are the cheap 70 %, OLTP the dear 30 %.
            Mix::Hot => &[
                ("q1", 8),
                ("q2", 4),
                ("tpch-1", 1),
                ("tpch-6", 1),
                ("oltp", 6),
            ],
            // q1 is the cheapest type and q2 the next; tpch-phased is the
            // dearest. The median falls mid-q2 (ranks 0.40-0.60) and p99
            // inside the top tenth, tpch-phased (0.90-1.00).
            Mix::Cold => &[
                ("q1", 8),
                ("q2", 4),
                ("tpch-6", 2),
                ("q3", 2),
                ("tpch-1", 2),
                ("tpch-phased", 2),
            ],
        }
    }

    /// The reuse keys a warm-up pass must build (`serve-hot`), or one
    /// request of every type (`serve-cold`).
    pub fn warmup(self) -> Vec<Req> {
        let mut v: Vec<Req> = match self {
            Mix::Hot => HOT_Q1_KEYS.iter().map(|&t| Req::Q1(t)).collect(),
            Mix::Cold => vec![Req::Q1(MAX_AMOUNT / 2), Req::Q3, Req::Tpch(PHASE_PLAYED)],
        };
        v.extend(Agg::ALL.map(Req::Q2));
        v.extend([Req::Tpch(1), Req::Tpch(6)]);
        v
    }

    /// Period `k` of connection `conn`'s request sequence under `seed`.
    pub fn period(self, seed: u64, conn: u64, k: u64, oltp_keys: i64) -> Vec<Req> {
        let mut rng = Rng::new(seed.wrapping_mul(1_000_003) ^ (conn << 48) ^ k);
        let mut reqs = Vec::with_capacity(PERIOD);
        match self {
            Mix::Hot => {
                reqs.extend(HOT_Q1_KEYS.iter().map(|&t| Req::Q1(t)));
                reqs.extend(Agg::ALL.map(Req::Q2));
                reqs.extend([Req::Tpch(1), Req::Tpch(6)]);
                for _ in 0..6 {
                    reqs.push(Req::Oltp(1 + rng.below(oltp_keys as u64) as i64));
                }
            }
            Mix::Cold => {
                for _ in 0..8 {
                    reqs.push(Req::Q1(1 + rng.below(MAX_AMOUNT as u64) as i64));
                }
                reqs.extend(Agg::ALL.map(Req::Q2));
                reqs.extend([Req::Tpch(6); 2]);
                reqs.extend([Req::Q3; 2]);
                reqs.extend([Req::Tpch(1); 2]);
                reqs.extend([Req::Tpch(PHASE_PLAYED); 2]);
            }
        }
        debug_assert_eq!(reqs.len(), PERIOD);
        for i in (1..reqs.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            reqs.swap(i, j);
        }
        reqs
    }
}

/// OLTP document keys of the server's data set at `rows` rows: keys are
/// `1..=oltp_key_count(rows)`.
pub fn oltp_key_count(rows: usize) -> i64 {
    (rows.max(64) / 8).max(8) as i64
}

/// Answers for the server's data set at a given row count.
pub struct Oracle {
    amounts_len: u64,
    /// `gt[t]` = values of the Q1 column greater than `t`, `t` in `0..=MAX_AMOUNT`.
    gt: Vec<u64>,
    regions: i64,
    q3_matches: i64,
    fk_len: u64,
    lineitem_rows: u64,
    tpch1_groups: i64,
    tpch6_revenue: i64,
    /// OLTP key -> (matching rows, sum of their amounts).
    oltp: HashMap<i64, (u64, i64)>,
    oltp_keys: i64,
}

fn ints(t: &Table, name: &str) -> Vec<i64> {
    match t.column(name) {
        Some(Column::Int(c)) => (0..c.len()).map(|i| *c.value_at(i)).collect(),
        _ => panic!("lineitem sample lacks integer column {name}"),
    }
}

impl Oracle {
    /// Regenerates the server's columns for `--rows rows` and precomputes
    /// every answer.
    pub fn build(rows: usize) -> Oracle {
        let rows = rows.max(64);
        let keys = (rows / 4).max(16);
        let amounts = gen::uniform_ints(rows, MAX_AMOUNT, 11);
        let mut at = vec![0u64; MAX_AMOUNT as usize + 1];
        for &v in &amounts {
            at[v as usize] += 1;
        }
        let mut gt = vec![0u64; MAX_AMOUNT as usize + 1];
        for t in (0..MAX_AMOUNT as usize).rev() {
            gt[t] = gt[t + 1] + at[t + 1];
        }
        let mut seen = [false; 65];
        for v in gen::uniform_ints(rows, 64, 12) {
            seen[v as usize] = true;
        }
        let regions = seen.iter().filter(|&&s| s).count() as i64;
        let mut is_pk = vec![false; keys + 1];
        for k in gen::primary_keys(keys, 21) {
            is_pk[k as usize] = true;
        }
        let fk = gen::foreign_keys(rows, keys as i64, 22);
        let q3_matches = fk
            .iter()
            .filter(|&&k| k >= 0 && (k as usize) < is_pk.len() && is_pk[k as usize])
            .count() as i64;
        let lineitem = ccp_tpch::gen::lineitem_sample(rows, keys, 7);
        let (flag, status) = (
            ints(&lineitem, "L_RETURNFLAG"),
            ints(&lineitem, "L_LINESTATUS"),
        );
        let mut groups: Vec<(i64, i64)> =
            flag.iter().copied().zip(status.iter().copied()).collect();
        groups.sort_unstable();
        groups.dedup();
        let (qty, disc, price) = (
            ints(&lineitem, "L_QUANTITY"),
            ints(&lineitem, "L_DISCOUNT"),
            ints(&lineitem, "L_EXTENDEDPRICE"),
        );
        let mut tpch6_revenue = 0i64;
        for i in 0..rows {
            if qty[i] < 24 && (4..=6).contains(&disc[i]) {
                tpch6_revenue += price[i] * disc[i];
            }
        }
        let oltp_keys = oltp_key_count(rows);
        let mut oltp: HashMap<i64, (u64, i64)> = HashMap::new();
        let doc_amounts = gen::uniform_ints(rows, 1_000_000, 32);
        for (k, a) in gen::uniform_ints(rows, oltp_keys, 31)
            .into_iter()
            .zip(doc_amounts)
        {
            let e = oltp.entry(k).or_default();
            e.0 += 1;
            e.1 += a;
        }
        Oracle {
            amounts_len: rows as u64,
            gt,
            regions,
            q3_matches,
            fk_len: rows as u64,
            lineitem_rows: rows as u64,
            tpch1_groups: groups.len() as i64,
            tpch6_revenue,
            oltp,
            oltp_keys,
        }
    }

    /// Largest OLTP document key (keys are `1..=oltp_keys()`).
    pub fn oltp_keys(&self) -> i64 {
        self.oltp_keys
    }

    /// Rows processed and scalar result the server must report.
    pub fn expect(&self, req: &Req) -> (u64, i64) {
        match *req {
            Req::Q1(t) => (self.amounts_len, self.q1(t)),
            Req::Q2(_) => (self.amounts_len, self.regions),
            Req::Q3 => (self.fk_len, self.q3_matches),
            Req::Tpch(1) => (self.lineitem_rows, self.tpch1_groups),
            Req::Tpch(6) => (self.lineitem_rows, self.tpch6_revenue),
            Req::Tpch(id) => {
                let (mut rows, mut result) = (0, 0);
                for phase in ccp_tpch::queries::profile(id).phases {
                    let (r, v) = match phase {
                        PhaseSpec::Scan { .. } => (self.amounts_len, self.q1(PHASE_SCAN_THRESHOLD)),
                        PhaseSpec::Join { .. } => (self.fk_len, self.q3_matches),
                        PhaseSpec::Aggregate { .. } => (self.amounts_len, self.regions),
                    };
                    rows += r;
                    result += v;
                }
                (rows, result)
            }
            Req::Oltp(k) => self.oltp.get(&k).copied().unwrap_or((0, 0)),
        }
    }

    fn q1(&self, t: i64) -> i64 {
        self.gt[t.clamp(0, MAX_AMOUNT) as usize] as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q1_counts_strictly_greater_and_never_rises_with_the_threshold() {
        let o = Oracle::build(4_096);
        assert_eq!(o.q1(0), 4_096, "every value is at least 1");
        assert_eq!(o.q1(MAX_AMOUNT), 0);
        let values = gen::uniform_ints(4_096, MAX_AMOUNT, 11);
        for t in [1, 17, 25_000, 49_999] {
            assert_eq!(o.q1(t), values.iter().filter(|&&v| v > t).count() as i64);
            assert!(o.q1(t + 1) <= o.q1(t));
        }
    }

    #[test]
    fn every_foreign_key_matches() {
        let o = Oracle::build(4_096);
        assert_eq!(o.expect(&Req::Q3), (4_096, 4_096));
        assert_eq!(o.expect(&Req::Q2(Agg::Sum)).1, 64);
    }

    #[test]
    fn periods_hold_the_stated_proportions_and_repeat_per_seed() {
        for mix in [Mix::Hot, Mix::Cold] {
            let p = mix.period(5, 0, 3, 100);
            assert_eq!(p, mix.period(5, 0, 3, 100));
            assert_ne!(p, mix.period(6, 0, 3, 100));
            for &(kind, n) in mix.proportions() {
                assert_eq!(p.iter().filter(|r| r.kind() == kind).count(), n, "{kind}");
            }
            assert_eq!(
                mix.proportions().iter().map(|&(_, n)| n).sum::<usize>(),
                PERIOD
            );
        }
    }

    #[test]
    fn phase_played_query_mixes_all_three_operators_and_is_mixed() {
        let phases = ccp_tpch::queries::profile(PHASE_PLAYED).phases;
        assert!(phases.iter().any(|p| matches!(p, PhaseSpec::Scan { .. })));
        assert!(phases.iter().any(|p| matches!(p, PhaseSpec::Join { .. })));
        assert!(phases
            .iter()
            .any(|p| matches!(p, PhaseSpec::Aggregate { .. })));
        assert_eq!(Req::Tpch(PHASE_PLAYED).static_class(), "mixed");
    }
}
