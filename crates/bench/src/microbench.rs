//! A tiny self-contained benchmark harness.
//!
//! The build environment for this workspace has no access to a crates
//! registry, so the `benches/` targets cannot use criterion. This module
//! provides the small subset we need: warmup, automatic iteration-count
//! calibration, median-of-samples timing, and machine-readable output.
//!
//! Every [`Runner`] prints one `ns/iter` line per benchmark to stdout and, on
//! [`Runner::finish`], writes `results/bench_<name>.json` (honoring
//! `VENICE_RESULTS_DIR`) so successive runs leave a comparable perf
//! trajectory on disk.

use std::path::Path;
use std::time::{Duration, Instant};

use venice_ssd::json::{Layout, Value, Writer};

/// One measured benchmark result.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark name.
    pub name: String,
    /// Median wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
}

/// Collects measurements for one bench target and writes them out as JSON.
pub struct Runner {
    target: String,
    measurements: Vec<Measurement>,
    /// Target wall-clock budget for one sample.
    sample_budget: Duration,
    /// Timed samples per benchmark (the median is reported).
    samples: usize,
}

impl Runner {
    /// Creates a runner for the bench target `target` (used in the output
    /// file name `bench_<target>.json`).
    pub fn new(target: &str) -> Self {
        Runner {
            target: target.to_string(),
            measurements: Vec::new(),
            sample_budget: Duration::from_millis(50),
            samples: 7,
        }
    }

    /// Overrides the per-sample time budget (larger = steadier numbers).
    pub fn sample_budget(mut self, budget: Duration) -> Self {
        self.sample_budget = budget;
        self
    }

    /// Times `f`, printing a `ns/iter` line and recording the measurement.
    ///
    /// Calibration: `f` is run repeatedly, doubling the iteration count until
    /// one batch exceeds ~1/5 of the sample budget; that count is then used
    /// for `self.samples` timed samples and the median is reported.
    pub fn bench<F: FnMut()>(&mut self, name: &str, mut f: F) {
        // Warmup + calibration.
        let mut iters: u64 = 1;
        let calib_floor = self.sample_budget / 5;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            let elapsed = t.elapsed();
            if elapsed >= calib_floor || iters >= 1 << 30 {
                break;
            }
            // Aim straight for the budget once we have a usable estimate.
            iters = if elapsed.is_zero() {
                iters * 2
            } else {
                let scale = self.sample_budget.as_secs_f64() / elapsed.as_secs_f64();
                (iters as f64 * scale.clamp(1.5, 16.0)) as u64
            }
            .max(iters + 1);
        }
        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let median = per_iter[per_iter.len() / 2];
        println!(
            "bench {:<44} {:>14.1} ns/iter  ({} iters x {} samples)",
            format!("{}::{}", self.target, name),
            median,
            iters,
            self.samples
        );
        self.measurements.push(Measurement {
            name: name.to_string(),
            ns_per_iter: median,
            iters_per_sample: iters,
            samples: self.samples,
        });
    }

    /// The ns/iter of the most recent [`Runner::bench`] call, if any —
    /// for benches that post-process their own timings (e.g. into
    /// events/sec) on top of the recorded trajectory.
    pub fn last_ns_per_iter(&self) -> Option<f64> {
        self.measurements.last().map(|m| m.ns_per_iter)
    }

    /// Writes `results/bench_<target>.json` and returns the measurements.
    ///
    /// The schema is `[{"name": ..., "ns_per_iter": ..., "iters": ...,
    /// "samples": ...}]`, one measurement per line.
    pub fn finish(self) -> Vec<Measurement> {
        let mut json = String::new();
        let mut w = Writer::new(&mut json);
        w.array(Layout::Block);
        for m in &self.measurements {
            w.object(Layout::Inline)
                .field("name", &m.name)
                .field("ns_per_iter", round_to(m.ns_per_iter, 1))
                .field("iters", m.iters_per_sample)
                .field("samples", m.samples)
                .end();
        }
        w.end();
        let path = crate::results_dir().join(format!("bench_{}.json", self.target));
        crate::write_result(&path, "bench results", &json);
        self.measurements
    }
}

/// `x` rounded to `places` decimal places (for human-scale numbers in
/// bench summaries and ledgers).
pub fn round_to(x: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (x * scale).round() / scale
}

/// The perf-smoke gate shared by the ratio benches (`dispatch_scan`,
/// `scout_walk`): compares each measured `(scenario name, speedup)` ratio
/// against the matching `"name"`/`"speedup"` pair in the checked-in
/// baseline file and **exits the process with status 1** when any scenario
/// fell below `floor_fraction` of its baseline ratio. Speedups are
/// wall-clock ratios on the same machine and binary, so the gate is robust
/// to absolute machine speed. A missing baseline skips the gate (first run
/// on a fresh machine); `VENICE_PERF_WARN_ONLY=1` downgrades failures to
/// warnings on noisy runners.
pub fn enforce_speedup_baseline(
    bench: &str,
    baseline_path: &Path,
    speedups: &[(String, f64)],
    floor_fraction: f64,
) {
    let Ok(baseline) = std::fs::read_to_string(baseline_path) else {
        println!(
            "no baseline at {}; skipping regression gate",
            baseline_path.display()
        );
        return;
    };
    let baseline = match Value::parse(&baseline) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("{bench} perf-smoke: {}: {e}", baseline_path.display());
            std::process::exit(1);
        }
    };
    let warn_only = std::env::var("VENICE_PERF_WARN_ONLY").is_ok();
    let mut regressed = false;
    for scenario in baseline
        .get("scenarios")
        .and_then(Value::as_array)
        .unwrap_or_default()
    {
        let (Some(name), Some(base)) = (
            scenario.get("name").and_then(Value::as_str),
            scenario.get("speedup").and_then(Value::as_f64),
        ) else {
            continue;
        };
        let Some((_, now)) = speedups.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let floor = base * floor_fraction;
        if *now < floor {
            regressed = true;
            eprintln!(
                "PERF REGRESSION {name}: speedup {now:.2}x < {floor:.2}x \
                 (baseline {base:.2}x - {:.0}%)",
                (1.0 - floor_fraction) * 100.0
            );
        } else {
            println!("perf-smoke {name}: {now:.2}x vs baseline {base:.2}x ok");
        }
    }
    if regressed {
        if warn_only {
            eprintln!("VENICE_PERF_WARN_ONLY set: reporting only");
        } else {
            eprintln!(
                "{bench} perf-smoke failed (set VENICE_PERF_WARN_ONLY=1 on noisy runners)"
            );
            std::process::exit(1);
        }
    }
}
