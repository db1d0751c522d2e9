//! Rounds: one pass over a workload's points, timed around each public
//! call into the simulator crates.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use venice_bench::sweep::WorkerPool;
use venice_ssd::{RunMetrics, SsdSim};
use venice_workloads::Trace;

use crate::check::{check_point, fnv1a, mask_effort, FNV_OFFSET};
use crate::metric::{Counts, Model};
use crate::span::{Span, Tracer};
use crate::workload::{Expect, Plan, Point};

/// Rounds measured at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// What one point cost and produced.
struct PointOutcome {
    worker: ThreadId,
    /// Host seconds of `SsdSim::new` (with sizing the config).
    new_s: f64,
    /// Host seconds of `SsdSim::run`.
    run_s: f64,
    /// Host seconds of `RunMetrics::to_json`.
    json_s: f64,
    /// Host seconds of the whole job.
    job_s: f64,
    /// The metrics and the JSON of their effort-masked copy; `None` if the
    /// run panicked.
    result: Option<(RunMetrics, String)>,
    /// Why the point failed its checks, if it did.
    error: Option<String>,
}

/// One pass over a workload's points.
pub struct Round {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Host seconds of the whole round.
    pub round_s: f64,
    /// Host seconds of trace generation.
    pub generate_s: f64,
    /// Host seconds of `WorkerPool::run`.
    pub pool_s: f64,
    /// Σ `SsdSim::new` seconds over points.
    pub new_s: f64,
    /// Σ `SsdSim::run` seconds over points.
    pub run_s: f64,
    /// Σ `RunMetrics::to_json` seconds over points.
    pub json_s: f64,
    /// 1 − Σ job seconds / (workers × pool seconds).
    pub pool_idle_frac: f64,
    /// Set-up seconds: generation plus the busiest worker's `new` time.
    pub setup_s: f64,
    /// Simulation seconds: the busiest worker's `run` + `to_json` time.
    pub wall_s: f64,
    /// FNV over every point's effort-masked `to_json`, in point order.
    pub fingerprint: u64,
    /// Points run.
    pub attempted: u64,
    /// Why each failing point failed, as `point index: reason`.
    pub errors: Vec<String>,
    /// Per-layer counters.
    pub counts: Counts,
    /// Simulated results (empty in the measured rounds of [`run_rounds`]).
    pub model: Model,
    /// Recorded spans (empty unless traced).
    pub spans: Vec<Span>,
}

impl Round {
    /// A round that ran nothing.
    pub fn empty(traced: bool) -> Self {
        Round {
            traced,
            round_s: 0.0,
            generate_s: 0.0,
            pool_s: 0.0,
            new_s: 0.0,
            run_s: 0.0,
            json_s: 0.0,
            pool_idle_frac: 0.0,
            setup_s: 0.0,
            wall_s: 0.0,
            fingerprint: FNV_OFFSET,
            attempted: 0,
            errors: Vec::new(),
            counts: Counts::default(),
            model: Model::default(),
            spans: Vec::new(),
        }
    }
}

/// Runs one round of `plan`, on `pool` if it has one.
pub fn run_round(plan: &Plan, pool: Option<&WorkerPool>, traced: bool) -> Round {
    let tracer = Tracer::new(traced);
    let ((generate_s, pool_s, outcomes), round_s) =
        tracer.span("bench.workload", None, None, |root| {
            let mut generate_s = 0.0;
            let traces: Vec<Trace> = plan
                .traces
                .iter()
                .map(|recipe| {
                    let (trace, s) = tracer.span("workloads.generate", Some(root), None, |_| {
                        recipe.generate()
                    });
                    generate_s += s;
                    trace
                })
                .collect();
            let jobs = |parent: u64| -> Vec<_> {
                plan.points
                    .iter()
                    .enumerate()
                    .map(|(i, point)| {
                        let (tracer, trace) = (&tracer, &traces[point.trace]);
                        move || run_point(tracer, parent, i as u32, point, trace, plan.expect)
                    })
                    .collect()
            };
            let (outcomes, pool_s) = match pool {
                Some(pool) => tracer.span("bench.pool", Some(root), None, |id| pool.run(jobs(id))),
                // Single-threaded workloads run on this thread: a fresh pool
                // thread per round may get a fresh malloc arena, which makes
                // peak RSS vary from run to run.
                None => (jobs(root).into_iter().map(|job| job()).collect(), 0.0),
            };
            (generate_s, pool_s, outcomes)
        });

    let mut round = Round {
        round_s,
        generate_s,
        pool_s,
        attempted: outcomes.len() as u64,
        ..Round::empty(traced)
    };
    // Per worker: (set-up seconds, simulation seconds).
    let mut per_worker: Vec<(ThreadId, f64, f64)> = Vec::new();
    let mut job_s = 0.0;
    for (i, o) in outcomes.into_iter().enumerate() {
        round.new_s += o.new_s;
        round.run_s += o.run_s;
        round.json_s += o.json_s;
        job_s += o.job_s;
        match per_worker.iter_mut().find(|w| w.0 == o.worker) {
            Some(w) => {
                w.1 += o.new_s;
                w.2 += o.run_s + o.json_s;
            }
            None => per_worker.push((o.worker, o.new_s, o.run_s + o.json_s)),
        }
        if let Some((m, json)) = o.result {
            round.fingerprint = fnv1a(round.fingerprint, json.as_bytes());
            round.counts.add(&m);
            round.model.add(plan.points[i].trace, m);
        }
        if let Some(e) = o.error {
            round.errors.push(format!("point {i}: {e}"));
        }
    }
    round.setup_s = generate_s + per_worker.iter().map(|w| w.1).fold(0.0, f64::max);
    round.wall_s = per_worker.iter().map(|w| w.2).fold(0.0, f64::max);
    if let Some(pool) = pool {
        round.pool_idle_frac = 1.0 - job_s / (pool.threads() as f64 * pool_s);
    }
    round.spans = tracer.into_spans();
    round
}

/// One pool job: build, run and serialize one point, then check it.
fn run_point(
    tracer: &Tracer,
    parent: u64,
    index: u32,
    point: &Point,
    trace: &Trace,
    expect: Expect,
) -> PointOutcome {
    let worker = std::thread::current().id();
    let (mut outcome, job_s) = tracer.span("bench.point", Some(parent), Some(index), |id| {
        let mut outcome = PointOutcome {
            worker,
            new_s: 0.0,
            run_s: 0.0,
            json_s: 0.0,
            job_s: 0.0,
            result: None,
            error: None,
        };
        let sim = catch_unwind(AssertUnwindSafe(|| {
            let (sim, new_s) = tracer.span("core.new", Some(id), Some(index), |_| {
                let config = point
                    .config
                    .clone()
                    .sized_for_footprint(trace.footprint_bytes());
                SsdSim::new(config, point.fabric, trace)
            });
            outcome.new_s = new_s;
            let (m, run_s) = tracer.span("core.run", Some(id), Some(index), |_| sim.run());
            outcome.run_s = run_s;
            m
        }));
        let m = match sim {
            Ok(m) => m,
            Err(_) => {
                outcome.error = Some("the simulator panicked".into());
                return outcome;
            }
        };
        outcome.error = check_point(&m, trace.len(), expect).err();
        // Only the fingerprinted copy is masked: the counters keep the
        // scout cache's effort.
        let mut masked = m.clone();
        mask_effort(&mut masked);
        let (json, json_s) = tracer.span("core.to_json", Some(id), Some(index), |_| {
            masked.to_json()
        });
        outcome.json_s = json_s;
        outcome.result = Some((m, json));
        outcome
    });
    outcome.job_s = job_s;
    outcome
}

/// Every round of one invocation: an unmeasured warm-up round, then
/// measured rounds until `seconds` have passed (at least [`MIN_ROUNDS`]).
/// With `trace` on, measured rounds alternate untraced and traced.
pub fn run_rounds(plan: &Plan, seconds: u64, trace: bool) -> (Round, Vec<Round>) {
    let pool = plan.pool.map(WorkerPool::new);
    let warmup = run_round(plan, pool.as_ref(), false);
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let min_rounds = if trace { 2 * MIN_ROUNDS } else { MIN_ROUNDS };
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || start.elapsed() < budget {
        let traced = trace && rounds.len() % 2 == 1;
        let mut round = run_round(plan, pool.as_ref(), traced);
        // Only the warm-up's model is reported. Measured rounds drop theirs,
        // which holds whole runs, so peak RSS does not grow with the number
        // of rounds.
        round.model = Model::default();
        rounds.push(round);
    }
    (warmup, rounds)
}
