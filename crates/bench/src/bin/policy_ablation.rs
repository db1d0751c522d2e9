//! Dispatch-policy ablation: measures the engine-throughput (events/sec)
//! and simulated-performance effect of each [`DispatchPolicyKind`] on the
//! congested bursty workload, the regime where ROADMAP follow-up (a)
//! identified failed scout walks as the dominant cost.
//!
//! ```sh
//! cargo run --release -p venice-bench --bin policy_ablation
//! cargo run --release -p venice-bench --bin policy_ablation -- --requests 6000 --repeat 5
//! ```
//!
//! Each `(policy, fabric)` cell runs the same trace `repeat` times
//! single-threaded and keeps the best wall-clock time (standard microbench
//! practice: the minimum is the least-noisy estimator of the true cost).
//! A markdown table goes to stdout and a JSON record to
//! `results/policy_ablation.json`.

use std::time::Instant;

use venice_interconnect::FabricKind;
use venice_ssd::json::{Layout, Writer};
use venice_ssd::report::{f2, Table};
use venice_ssd::{run_single, DispatchPolicyKind, RunMetrics, SsdConfig};
use venice_workloads::WorkloadAxis;

/// One measured cell: a policy × fabric pair on the congested workload.
struct Cell {
    policy: DispatchPolicyKind,
    fabric: FabricKind,
    metrics: RunMetrics,
    best_wall_s: f64,
}

impl Cell {
    fn events_per_sec(&self) -> f64 {
        self.metrics.events as f64 / self.best_wall_s.max(1e-9)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut requests = 4000usize;
    let mut repeat = 3usize;
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| panic!("missing value after {}", args[*i - 1]))
                .clone()
        };
        match args[i].as_str() {
            "--requests" => requests = value(&mut i).parse().expect("--requests takes a number"),
            "--repeat" => repeat = value(&mut i).parse().expect("--repeat takes a number"),
            other => panic!("unknown flag {other:?}"),
        }
        i += 1;
    }
    let repeat = repeat.max(1);
    let axis = WorkloadAxis::congested();
    let trace = axis.trace(requests);
    let fabrics = [FabricKind::Baseline, FabricKind::Venice];

    let mut cells: Vec<Cell> = Vec::new();
    for fabric in fabrics {
        for policy in DispatchPolicyKind::ALL {
            let cfg = SsdConfig::performance_optimized().with_dispatch_policy(policy);
            let mut best_wall_s = f64::INFINITY;
            let mut metrics = None;
            for _ in 0..repeat {
                let t0 = Instant::now();
                let m = run_single(&cfg, fabric, &trace);
                best_wall_s = best_wall_s.min(t0.elapsed().as_secs_f64());
                metrics = Some(m);
            }
            cells.push(Cell {
                policy,
                fabric,
                metrics: metrics.expect("repeat >= 1"),
                best_wall_s,
            });
        }
    }

    let baseline_eps = |fabric: FabricKind| {
        cells
            .iter()
            .find(|c| c.fabric == fabric && c.policy == DispatchPolicyKind::RetryAll)
            .expect("retry-all cell")
            .events_per_sec()
    };
    let mut t = Table::new(
        [
            "fabric",
            "policy",
            "events/s (M)",
            "vs retry-all",
            "sim exec (ms)",
            "attempts",
            "skipped",
            "conflict %",
        ]
        .map(String::from)
        .to_vec(),
    );
    for c in &cells {
        t.row(vec![
            c.fabric.label().to_string(),
            c.policy.label().to_string(),
            format!("{:.2}", c.events_per_sec() / 1e6),
            format!("{}x", f2(c.events_per_sec() / baseline_eps(c.fabric))),
            format!("{:.3}", c.metrics.execution_time.as_secs_f64() * 1e3),
            c.metrics.dispatch.attempts.to_string(),
            c.metrics.dispatch.skipped_backoff.to_string(),
            f2(c.metrics.conflict_pct()),
        ]);
    }
    println!(
        "# Dispatch-policy ablation: workload `{}`, {} requests, best of {}\n",
        axis.name(),
        requests,
        repeat
    );
    print!("{}", t.to_markdown());

    let mut json = String::new();
    let mut w = Writer::new(&mut json);
    w.object(Layout::Block)
        .field("bench", "policy_ablation")
        .field("workload", axis.name())
        .field("requests", requests)
        .field("repeat", repeat)
        .key("cells")
        .array(Layout::Block);
    for c in &cells {
        w.object(Layout::Inline)
            .field("fabric", c.fabric.label())
            .field("policy", c.policy.label())
            .field("events", c.metrics.events)
            .field("best_wall_s", c.best_wall_s)
            .field("events_per_sec", c.events_per_sec())
            .field(
                "speedup_vs_retry_all",
                c.events_per_sec() / baseline_eps(c.fabric),
            )
            .field("execution_time_ns", c.metrics.execution_time.as_nanos())
            .field("attempts", c.metrics.dispatch.attempts)
            .field("skipped_backoff", c.metrics.dispatch.skipped_backoff)
            .field("failed_walks", c.metrics.dispatch.failed_walks)
            .field("conflict_pct", c.metrics.conflict_pct())
            .end();
    }
    w.end().end();
    let path = venice_bench::results_dir().join("policy_ablation.json");
    venice_bench::write_result(&path, "policy ablation", &json);

    let venice_backoff = cells
        .iter()
        .find(|c| {
            c.fabric == FabricKind::Venice && c.policy == DispatchPolicyKind::ConflictBackoff
        })
        .expect("venice backoff cell");
    eprintln!(
        "[venice-bench] congested Venice: conflict-backoff {:.2}x retry-all events/sec",
        venice_backoff.events_per_sec() / baseline_eps(FabricKind::Venice)
    );
}
