//! Metric names, the per-layer counters summed from `RunMetrics`, and the
//! result line.

use std::collections::BTreeMap;

use venice_interconnect::FabricKind;
use venice_sim::stats::geometric_mean;
use venice_ssd::{all_systems, RunMetrics};

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: String,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric; `name` must pass [`valid_name`].
    pub fn new(name: impl Into<String>, unit: impl Into<String>, value: f64) -> Self {
        let name = name.into();
        debug_assert!(valid_name(&name), "invalid metric name {name}");
        Metric {
            name,
            unit: unit.into(),
            value,
        }
    }
}

/// A metric name starts with a letter or digit and has at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-layer counters of one round, summed over its points. They depend
/// only on the seed, so they repeat exactly from round to round.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    events: u64,
    hil_submitted: u64,
    hil_fetched: u64,
    hil_backpressured: u64,
    ftl_user_writes: u64,
    ftl_gc_relocations: u64,
    ftl_gc_erases: u64,
    ftl_wear_relocations: u64,
    nand_transactions: u64,
    nand_retried_ops: u64,
    acquisitions: u64,
    conflicts: u64,
    controller_unavailable: u64,
    scout_steps: u64,
    scout_failed_steps: u64,
    scout_fastfails: u64,
    hops: u64,
    dispatch_rounds: u64,
    dispatch_attempts: u64,
    dispatch_failed_walks: u64,
    dispatch_skipped_backoff: u64,
    host_retries: u64,
    deadline_misses: u64,
    degraded_reads: u64,
    rebuilt_pages: u64,
    rebuild_skipped_pages: u64,
    data_loss_requests: u64,
}

impl Counts {
    /// Adds one point's counters.
    pub fn add(&mut self, m: &RunMetrics) {
        self.events += m.events;
        self.hil_submitted += m.hil.submitted;
        self.hil_fetched += m.hil.fetched;
        self.hil_backpressured += m.hil.backpressured;
        self.ftl_user_writes += m.ftl.user_writes;
        self.ftl_gc_relocations += m.ftl.gc_relocations;
        self.ftl_gc_erases += m.ftl.gc_erases;
        self.ftl_wear_relocations += m.ftl.wear_relocations;
        self.nand_transactions += m.transactions;
        self.nand_retried_ops += m.retried_ops;
        self.acquisitions += m.fabric.acquisitions;
        self.conflicts += m.fabric.conflicts;
        self.controller_unavailable += m.fabric.controller_unavailable;
        self.scout_steps += m.fabric.scout_steps;
        self.scout_failed_steps += m.fabric.scout_failed_steps;
        self.scout_fastfails += m.fabric.scout_fastfails;
        self.hops += m.fabric.hops_total;
        self.dispatch_rounds += m.dispatch.rounds;
        self.dispatch_attempts += m.dispatch.attempts;
        self.dispatch_failed_walks += m.dispatch.failed_walks;
        self.dispatch_skipped_backoff += m.dispatch.skipped_backoff;
        self.host_retries += m.host_retries;
        self.deadline_misses += m.deadline_misses;
        self.degraded_reads += m.degraded_reads;
        self.rebuilt_pages += m.rebuilt_pages;
        self.rebuild_skipped_pages += m.rebuild_skipped_pages;
        self.data_loss_requests += m.data_loss_requests;
    }

    /// Calendar events of the round.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The counters and the ratios derived from them, named by crate.
    pub fn metrics(&self) -> Vec<Metric> {
        let c = |name: &str, v: u64| Metric::new(name, "count", v as f64);
        let r = |name: &str, num: u64, den: u64| {
            Metric::new(name, "ratio", ratio(num as f64, den as f64))
        };
        let programs = self.ftl_user_writes + self.ftl_gc_relocations + self.ftl_wear_relocations;
        vec![
            c("sim.events", self.events),
            c("hil.fetched", self.hil_fetched),
            c("hil.backpressured", self.hil_backpressured),
            r(
                "hil.backpressure_ratio",
                self.hil_backpressured,
                self.hil_submitted + self.hil_backpressured,
            ),
            c("ftl.user_writes", self.ftl_user_writes),
            c("ftl.gc_relocations", self.ftl_gc_relocations),
            c("ftl.gc_erases", self.ftl_gc_erases),
            r("ftl.write_amplification", programs, self.ftl_user_writes),
            c("nand.transactions", self.nand_transactions),
            c("nand.retried_ops", self.nand_retried_ops),
            c("interconnect.acquisitions", self.acquisitions),
            c("interconnect.conflicts", self.conflicts),
            c(
                "interconnect.controller_unavailable",
                self.controller_unavailable,
            ),
            c("interconnect.scout_steps", self.scout_steps),
            c("interconnect.scout_failed_steps", self.scout_failed_steps),
            c("interconnect.scout_fastfails", self.scout_fastfails),
            r(
                "interconnect.failed_steps_per_event",
                self.scout_failed_steps,
                self.events,
            ),
            r(
                "interconnect.hops_per_acquisition",
                self.hops,
                self.acquisitions,
            ),
            c("core.dispatch.rounds", self.dispatch_rounds),
            c("core.dispatch.attempts", self.dispatch_attempts),
            c("core.dispatch.failed_walks", self.dispatch_failed_walks),
            c(
                "core.dispatch.skipped_backoff",
                self.dispatch_skipped_backoff,
            ),
            r(
                "core.dispatch.grant_ratio",
                self.acquisitions,
                self.dispatch_attempts,
            ),
            c("core.host_retries", self.host_retries),
            c("core.deadline_misses", self.deadline_misses),
            c("core.degraded_reads", self.degraded_reads),
            c("core.rebuilt_pages", self.rebuilt_pages),
            c("core.rebuild_skipped_pages", self.rebuild_skipped_pages),
            c("core.data_loss_requests", self.data_loss_requests),
        ]
    }
}

/// The simulated SSD's results, per fabric. Deterministic per seed and
/// recorded for reference only: the model is not validated against the
/// paper, and a model fix may move these either way.
#[derive(Clone, Debug, Default)]
pub struct Model {
    fabrics: [FabricModel; 6],
    /// Baseline and Venice runs by trace index, for the speedup.
    baseline: BTreeMap<usize, RunMetrics>,
    venice: BTreeMap<usize, RunMetrics>,
}

#[derive(Clone, Debug, Default, PartialEq)]
struct FabricModel {
    points: u64,
    exec_ns: u64,
    p99_ns_sum: u64,
    completed: u64,
    conflicted: u64,
    deadline_met: u64,
}

impl Model {
    /// Adds one point of trace `trace`.
    pub fn add(&mut self, trace: usize, mut m: RunMetrics) {
        let f = &mut self.fabrics[fabric_index(m.system)];
        f.points += 1;
        f.exec_ns += m.execution_time.as_nanos();
        if !m.latencies.is_empty() {
            f.p99_ns_sum += m.p99().as_nanos();
        }
        f.completed += m.completed_requests;
        f.conflicted += m.conflicted_requests;
        f.deadline_met += m.deadline_met_requests;
        match m.system {
            FabricKind::Baseline => self.baseline.insert(trace, m),
            FabricKind::Venice => self.venice.insert(trace, m),
            _ => None,
        };
    }

    /// Geometric mean over traces run on both Baseline and Venice of
    /// Venice's speedup over Baseline (0 without such a pair).
    fn venice_speedup_gmean(&self) -> f64 {
        geometric_mean(
            self.venice
                .iter()
                .filter_map(|(t, venice)| Some(venice.speedup_over(self.baseline.get(t)?))),
        )
    }

    /// The `model.*` metrics, every fabric listed whether it ran or not.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        for (kind, f) in all_systems().iter().zip(&self.fabrics) {
            let tag = kind.label().to_ascii_lowercase();
            let exec_s = f.exec_ns as f64 / 1e9;
            out.push(Metric::new(
                format!("model.exec_ms.{tag}"),
                "sim_ms",
                exec_s * 1e3,
            ));
            out.push(Metric::new(
                format!("model.p99_us.{tag}"),
                "sim_us",
                ratio(f.p99_ns_sum as f64 / 1e3, f.points as f64),
            ));
            out.push(Metric::new(
                format!("model.conflict_pct.{tag}"),
                "%",
                100.0 * ratio(f.conflicted as f64, f.completed as f64),
            ));
            out.push(Metric::new(
                format!("model.goodput.{tag}"),
                "req/sim_s",
                ratio(f.deadline_met as f64, exec_s),
            ));
        }
        out.push(Metric::new(
            "model.venice_speedup_gmean",
            "x",
            self.venice_speedup_gmean(),
        ));
        out
    }
}

fn fabric_index(kind: FabricKind) -> usize {
    all_systems()
        .iter()
        .position(|&k| k == kind)
        .expect("every fabric is one of the six systems")
}

/// What the result line reports.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Every output check passed.
    pub correct: bool,
    /// Points run.
    pub attempted: u64,
    /// Points that failed.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
}

impl Summary {
    /// Renders the result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn line(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }

    /// Reads back a line that [`Summary::line`] rendered.
    pub fn parse(line: &str) -> Option<Summary> {
        let rest = line.strip_prefix("{\"correct\": ")?;
        let (correct, rest) = rest.split_once(", \"attempted\": ")?;
        let (attempted, rest) = rest.split_once(", \"failed\": ")?;
        let (failed, rest) = rest.split_once(", \"metrics\": {")?;
        let body = rest.strip_suffix("}}")?;
        let metrics = body
            .split("}, ")
            .filter(|m| !m.is_empty())
            .map(|m| {
                let (name, rest) = m.strip_prefix('"')?.split_once("\": {\"value\": ")?;
                let (value, unit) = rest.split_once(", \"unit\": \"")?;
                let unit = unit.strip_suffix('}').unwrap_or(unit).strip_suffix('"')?;
                Some(Metric::new(name, unit, value.parse().ok()?))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Summary {
            correct: correct.parse().ok()?,
            attempted: attempted.parse().ok()?,
            failed: failed.parse().ok()?,
            metrics,
        })
    }
}

/// A value in Rust's shortest round-trip form, which keeps all its digits.
fn json_number(v: f64) -> String {
    assert!(
        v.is_finite(),
        "metrics are finite: ratios guard their denominators"
    );
    format!("{v}")
}
