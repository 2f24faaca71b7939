//! `steady`: runs each workload in two interleaved sets of runs and, for
//! every end-to-end metric, prints each set's median and quartiles and
//! whether the sets agree within the metric's bound in `BENCHMARK.json`.

use crate::stats;
use ccp_server::Json;
use std::process::Command;

struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// The end-to-end metrics, `run_seconds` and workload names of
/// `BENCHMARK.json`.
fn benchmark() -> Result<(Vec<Metric>, u64, Vec<String>), String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let Some(Json::Arr(list)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_string());
    };
    let Some(Json::Arr(listed)) = doc.get("workloads") else {
        return Err("BENCHMARK.json has no workloads list".to_string());
    };
    let workloads = listed
        .iter()
        .filter_map(|w| Some(w.get("name")?.as_str()?.to_string()))
        .collect();
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_u64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let metrics = list
        .iter()
        .map(|m| {
            Ok(Metric {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((metrics, seconds, workloads))
}

/// One run's result line.
struct RunResult {
    attempted: f64,
    failed: f64,
    values: Json,
}

fn one_run(workload: &str, seed: u64, seconds: u64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let doc =
        Json::parse(last).map_err(|e| format!("{workload} seed {seed}: bad result line: {e:?}"))?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{workload} seed {seed}: wrong answers"));
    }
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    Ok(RunResult {
        attempted: num("attempted"),
        failed: num("failed"),
        values: doc.get("metrics").cloned().unwrap_or(Json::Null),
    })
}

/// Entry point of `steady [--runs N] [--seconds S] [--workloads a,b]`.
pub fn main(args: &[String]) -> Result<(), String> {
    let (metrics, run_seconds, listed) = benchmark()?;
    let (mut runs, mut seconds, mut workloads) = (10u64, run_seconds, listed);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--runs" => runs = value.parse().map_err(|e| format!("--runs: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--workloads" => workloads = value.split(',').map(String::from).collect(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if runs < 2 {
        return Err("--runs must be at least 2".to_string());
    }
    let mut all_ok = true;
    for w in &workloads {
        // Sets A and B alternate run by run, each with its own seeds.
        let mut sets: [Vec<RunResult>; 2] = [Vec::new(), Vec::new()];
        for i in 0..runs {
            for (s, set) in sets.iter_mut().enumerate() {
                set.push(one_run(w, 1 + i + 1000 * s as u64, seconds)?);
            }
        }
        println!("== {w}: {runs} runs per set, {seconds} s each");
        let share = |set: &[RunResult]| {
            set.iter().map(|r| r.failed).sum::<f64>() / set.iter().map(|r| r.attempted).sum::<f64>()
        };
        let (fa, fb) = (share(&sets[0]), share(&sets[1]));
        println!(
            "   failed share: A {fa} B {fb} {}",
            if fa == fb { "same" } else { "DIFFER" }
        );
        all_ok &= fa == fb;
        for m in &metrics {
            let vals = |set: &[RunResult]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.values.get(&m.name)?.get("value")?.as_f64())
                    .collect()
            };
            let (a, b) = (vals(&sets[0]), vals(&sets[1]));
            if a.len() < 2 || b.len() < 2 {
                println!("   {:<18} missing", m.name);
                all_ok = false;
                continue;
            }
            let (qa, qb) = (stats::quartiles(&a), stats::quartiles(&b));
            let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1];
            let drift = if m.lower_is_better {
                qb[1] / qa[1] - 1.0
            } else {
                1.0 - qb[1] / qa[1]
            };
            let spread_ok = m.name == "setup_s" || (spread(qa) <= m.bound && spread(qb) <= m.bound);
            let all: Vec<f64> = a.iter().chain(&b).copied().collect();
            let spread_all = spread(stats::quartiles(&all));
            let ok = spread_ok && drift <= m.bound;
            all_ok &= ok;
            println!(
                "   {:<18} A median {:<12.6} q1 {:<12.6} q3 {:<12.6} spread {:>6.2}% | B median {:<12.6} q1 {:<12.6} q3 {:<12.6} spread {:>6.2}% | all {} runs spread {:>6.2}% | B worse by {:>6.2}% (bound {:.0}%) {}",
                m.name,
                qa[1],
                qa[0],
                qa[2],
                100.0 * spread(qa),
                qb[1],
                qb[0],
                qb[2],
                100.0 * spread(qb),
                all.len(),
                100.0 * spread_all,
                100.0 * drift,
                100.0 * m.bound,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    if all_ok {
        Ok(())
    } else {
        Err("the two sets do not agree within the bounds".to_string())
    }
}
