//! The repository benchmark for the Venice SSD simulator.
//!
//! It runs a named workload for a fixed number of host seconds, times the
//! simulator from outside around its public calls (`WorkloadSpec::generate`,
//! `SsdSim::new`, `SsdSim::run`, `RunMetrics::to_json`, `WorkerPool::run`),
//! checks every simulated output, and reports end-to-end host cost or, in
//! the traced mode, the per-layer numbers. See `perfbench/README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod metric;
pub mod runner;
pub mod span;
pub mod workload;

use std::collections::BTreeMap;

use metric::{median, ratio, Metric, Summary};
use runner::Round;
use span::{self_times, Span};
use workload::Workload;

/// The span names whose self time the traced run reports, root first.
pub const LAYERS: [&str; 7] = [
    "bench.workload",
    "workloads.generate",
    "bench.pool",
    "bench.point",
    "core.new",
    "core.run",
    "core.to_json",
];

/// Everything one invocation measured for one workload.
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// The result line. `correct`: every output check passed and every
    /// round repeated the warm-up's fingerprint and counters. `attempted`:
    /// points run, warm-up included. `failed`: points that panicked, were
    /// aborted, failed a check, or belong to a round whose fingerprint or
    /// counters differed from the warm-up's. `metrics`: end-to-end, or
    /// per-layer when traced.
    pub summary: Summary,
    /// The warm-up round's behaviour fingerprint.
    pub fingerprint: u64,
    /// Measured rounds.
    pub rounds: usize,
    /// Points per round.
    pub points: usize,
    /// Worker-pool size (`None`: the calling thread).
    pub pool: Option<usize>,
    /// Why points failed.
    pub errors: Vec<String>,
    /// Spans of each traced round.
    pub spans: Vec<Vec<Span>>,
}

/// Runs `workload` for `seconds` with trace seed `seed`. With `trace` off
/// it reports the end-to-end metrics; with it on, the per-layer ones.
pub fn measure(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Report {
    let plan = workload.plan(seed);
    let (warmup, rounds) = runner::run_rounds(&plan, seconds, trace);

    let mut failed = 0u64;
    let mut errors = Vec::new();
    for (k, round) in std::iter::once(&warmup).chain(&rounds).enumerate() {
        let repeated = round.fingerprint == warmup.fingerprint && round.counts == warmup.counts;
        failed += if repeated {
            round.errors.len() as u64
        } else {
            errors.push(format!(
                "round {k}: fingerprint or counters differ from the warm-up"
            ));
            round.attempted
        };
        errors.extend(round.errors.iter().map(|e| format!("round {k} {e}")));
    }
    let attempted = warmup.attempted + rounds.iter().map(|r| r.attempted).sum::<u64>();

    let metrics = if trace {
        per_layer(&warmup, &rounds)
    } else {
        end_to_end(&rounds, attempted, failed)
    };
    Report {
        workload,
        summary: Summary {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        },
        fingerprint: warmup.fingerprint,
        rounds: rounds.len(),
        points: plan.points.len(),
        pool: plan.pool,
        errors,
        spans: rounds
            .into_iter()
            .filter(|r| r.traced)
            .map(|r| r.spans)
            .collect(),
    }
}

fn med(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(rounds: &[Round], attempted: u64, failed: u64) -> Vec<Metric> {
    vec![
        Metric::new("wall_s", "s", med(rounds, |r| r.wall_s)),
        Metric::new(
            "events_per_s",
            "1/s",
            med(rounds, |r| ratio(r.counts.events() as f64, r.run_s)),
        ),
        Metric::new("setup_s", "s", med(rounds, |r| r.setup_s)),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mib()),
        Metric::new(
            "ops_ok_frac",
            "ratio",
            1.0 - ratio(failed as f64, attempted as f64),
        ),
    ]
}

fn per_layer(warmup: &Round, rounds: &[Round]) -> Vec<Metric> {
    let run_s = med(rounds, |r| r.run_s);
    let mut out = vec![
        Metric::new("workloads.generate_s", "s", med(rounds, |r| r.generate_s)),
        Metric::new("core.new_s", "s", med(rounds, |r| r.new_s)),
        Metric::new("core.run_s", "s", run_s),
        Metric::new(
            "core.ns_per_event",
            "ns",
            1e9 * ratio(run_s, warmup.counts.events() as f64),
        ),
        Metric::new("core.metrics_s", "s", med(rounds, |r| r.json_s)),
        Metric::new("bench.pool_s", "s", med(rounds, |r| r.pool_s)),
        Metric::new(
            "bench.pool_idle_frac",
            "ratio",
            med(rounds, |r| r.pool_idle_frac),
        ),
    ];
    out.extend(warmup.counts.metrics());
    out.extend(warmup.model.metrics());

    let (traced, untraced): (Vec<&Round>, Vec<&Round>) = rounds.iter().partition(|r| r.traced);
    let per_round: Vec<BTreeMap<&str, u64>> = traced.iter().map(|r| self_times(&r.spans)).collect();
    for layer in LAYERS {
        let secs: Vec<f64> = per_round
            .iter()
            .map(|t| t.get(layer).copied().unwrap_or(0) as f64 / 1e9)
            .collect();
        out.push(Metric::new(format!("self_s.{layer}"), "s", median(&secs)));
    }
    let round_s = |rs: &[&Round]| median(&rs.iter().map(|r| r.round_s).collect::<Vec<_>>());
    out.push(Metric::new(
        "trace.overhead_s",
        "s",
        round_s(&traced) - round_s(&untraced),
    ));
    out.push(Metric::new(
        "trace.spans",
        "count",
        traced.first().map_or(0, |r| r.spans.len()) as f64,
    ));
    out
}

/// Peak resident set of this process (`VmHWM`), in MiB. Each workload
/// runs in a process of its own (`--workload all` starts one per
/// workload), so this is the workload's own peak.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak RSS is read from /proc/self/status, which Linux provides");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB");
    kib / 1024.0
}

/// Every metric name one workload reports, in report order: the
/// end-to-end metrics, or with `trace` the per-layer ones.
pub fn metric_names(trace: bool) -> Vec<String> {
    let round = Round::empty(trace);
    let metrics = if trace {
        per_layer(&round, std::slice::from_ref(&round))
    } else {
        end_to_end(&[], 0, 0)
    };
    metrics.into_iter().map(|m| m.name).collect()
}
