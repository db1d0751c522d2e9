//! Tests of the benchmark's own machinery: self time, fingerprint masking,
//! output checks and metric names.

use venice_interconnect::{FabricKind, ScoutCacheKind};
use venice_perfbench::check::{check_point, fnv1a, mask_effort, FNV_OFFSET};
use venice_perfbench::metric::{valid_name, Metric, Summary};
use venice_perfbench::metric_names;
use venice_perfbench::runner::run_round;
use venice_perfbench::span::{self_times, Span, Tracer};
use venice_perfbench::workload::{Expect, Plan, Point, TraceRecipe, Workload};
use venice_ssd::{RunMetrics, RunStatus, SsdConfig};
use venice_workloads::WorkloadAxis;

fn span(name: &'static str, id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        id,
        parent,
        point: None,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = [
        span("root", 0, None, 0, 100),
        // Two overlapping children, as pool jobs on two threads are.
        span("job", 1, Some(0), 10, 40),
        span("job", 2, Some(0), 30, 70),
        span("leaf", 3, Some(1), 15, 25),
    ];
    let t = self_times(&spans);
    assert_eq!(t["root"], 100 - 60, "children cover [10, 70) once");
    assert_eq!(t["job"], (30 - 10) + 40, "summed over both job spans");
    assert_eq!(t["leaf"], 10);
}

#[test]
fn self_time_clips_children_to_the_parent() {
    let spans = [
        span("parent", 0, None, 10, 20),
        span("child", 1, Some(0), 5, 15),
        span("child", 2, Some(0), 18, 30),
    ];
    let t = self_times(&spans);
    assert_eq!(t["parent"], 10 - 5 - 2);
    assert_eq!(t["child"], 10 + 12);
}

#[test]
fn tracer_links_spans_and_records_only_when_asked() {
    let tracer = Tracer::new(true);
    let ((), _) = tracer.span("outer", None, None, |outer| {
        let (v, secs) = tracer.span("inner", Some(outer), Some(7), |_| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    });
    let spans = tracer.into_spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[0].name, "outer");
    assert_eq!(spans[1].parent, Some(spans[0].id));
    assert_eq!(spans[1].point, Some(7));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

    let quiet = Tracer::new(false);
    let (v, _) = quiet.span("outer", None, None, |_| 3);
    assert_eq!(v, 3);
    assert!(quiet.into_spans().is_empty());
}

fn complete_run(fabric: FabricKind) -> RunMetrics {
    let mut m = RunMetrics::failed(fabric, "w", "performance-optimized");
    m.status = RunStatus::Complete;
    m.completed_requests = 10;
    m.events = 100;
    m
}

fn fingerprint(m: &RunMetrics) -> u64 {
    let mut m = m.clone();
    mask_effort(&mut m);
    fnv1a(FNV_OFFSET, m.to_json().as_bytes())
}

#[test]
fn masking_ignores_effort_counters_but_not_behaviour() {
    let off = complete_run(FabricKind::Venice);
    let mut on = off.clone();
    on.scout_cache = ScoutCacheKind::On;
    on.fabric.scout_fastfails = 17;
    on.fabric.scout_cache_invalidations = 5;
    assert_ne!(off.to_json(), on.to_json());
    assert_eq!(
        fingerprint(&off),
        fingerprint(&on),
        "effort-only fields are masked"
    );

    for change in [
        |m: &mut RunMetrics| m.events += 1,
        |m: &mut RunMetrics| m.fabric.scout_failed_steps += 1,
        |m: &mut RunMetrics| m.ftl.gc_erases += 1,
    ] {
        let mut model_change = off.clone();
        change(&mut model_change);
        assert_ne!(fingerprint(&off), fingerprint(&model_change));
    }
}

#[test]
fn checks_fail_a_workload_that_stops_exercising_its_layer() {
    let ok = complete_run(FabricKind::Venice);
    assert!(check_point(&ok, 10, Expect::fault_free()).is_ok());
    assert!(
        check_point(&ok, 11, Expect::fault_free()).is_err(),
        "a lost request"
    );

    let mut aborted = ok.clone();
    aborted.status = RunStatus::Aborted;
    assert!(check_point(&aborted, 10, Expect::fault_free()).is_err());

    let mut failing = ok.clone();
    failing.failed_requests = 1;
    assert!(check_point(&failing, 10, Expect::fault_free()).is_err());

    let gc = Expect {
        gc: true,
        ..Expect::fault_free()
    };
    assert!(check_point(&ok, 10, gc).is_err(), "no GC erase");
    let scout = Expect {
        scout_failures: true,
        ..Expect::fault_free()
    };
    assert!(check_point(&ok, 10, scout).is_err(), "no failed scout step");
    assert!(
        check_point(&complete_run(FabricKind::Baseline), 10, scout).is_ok(),
        "only Venice walks a scout"
    );

    let lossless = Expect {
        fault_free: false,
        lossless: true,
        ..Expect::fault_free()
    };
    let mut lost = ok.clone();
    lost.failed_requests = 2;
    assert!(
        check_point(&lost, 10, lossless).is_ok(),
        "failed requests are allowed"
    );
    lost.rebuild_skipped_pages = 1;
    assert!(check_point(&lost, 10, lossless).is_err());
}

#[test]
fn metric_names_use_only_allowed_characters() {
    for good in [
        "wall_s",
        "core.dispatch.grant_ratio",
        "model.exec_ms.pssd",
        "9a-b",
    ] {
        assert!(valid_name(good), "{good}");
    }
    for bad in ["", "_lead", ".lead", "a b", "a/b", "p99%", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad}");
    }
    for trace in [false, true] {
        for name in metric_names(trace) {
            assert!(valid_name(&name), "{name}");
            for w in Workload::ALL {
                let prefixed = format!("{}.{name}", w.name());
                assert!(valid_name(&prefixed), "`--workload all` name {prefixed}");
            }
        }
    }
}

#[test]
fn benchmark_json_lists_every_reported_metric_once() {
    let manifest = include_str!("../../BENCHMARK.json");
    let mut listed = 0;
    for trace in [false, true] {
        let names = metric_names(trace);
        listed += names.len();
        for name in names {
            let entry = format!("\"name\": \"{name}\"");
            assert_eq!(manifest.matches(&entry).count(), 1, "{name}");
        }
    }
    for w in Workload::ALL {
        assert!(manifest.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    let entries = manifest.matches("\"name\": ").count();
    assert_eq!(entries, listed + Workload::ALL.len(), "no unreported names");
}

#[test]
fn result_line_has_exactly_the_four_keys_and_reads_back() {
    let summary = Summary {
        correct: true,
        attempted: 3,
        failed: 0,
        metrics: vec![
            Metric::new("wall_s", "s", 1.25),
            Metric::new("sim.events", "count", 7.0),
            Metric::new("model.goodput.venice", "req/sim_s", 0.1 + 0.2),
        ],
    };
    let line = summary.line();
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
         {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
         \"sim.events\": {\"value\": 7, \"unit\": \"count\"}, \
         \"model.goodput.venice\": {\"value\": 0.30000000000000004, \"unit\": \"req/sim_s\"}}}"
    );
    assert_eq!(Summary::parse(&line), Some(summary), "every digit reads back");
    let empty = Summary {
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: Vec::new(),
    };
    assert_eq!(Summary::parse(&empty.line()), Some(empty));
    assert_eq!(Summary::parse("spans -> target/perfbench/x.json"), None);
}

/// A point of the congested trace on a 16×16 Venice mesh.
fn congested_plan(cache: ScoutCacheKind) -> Plan {
    let WorkloadAxis::Spec(spec) = WorkloadAxis::congested() else {
        unreachable!("the congested axis is a custom spec")
    };
    Plan {
        traces: vec![TraceRecipe::new(spec, 300, 1)],
        points: vec![Point {
            trace: 0,
            fabric: FabricKind::Venice,
            config: SsdConfig::performance_optimized()
                .with_mesh(16, 16)
                .with_scout_cache(cache),
        }],
        pool: None,
        expect: Expect {
            scout_failures: true,
            ..Expect::fault_free()
        },
    }
}

#[test]
fn counters_keep_the_scout_fastfails_that_the_fingerprint_masks() {
    let fastfails = |cache| {
        let round = run_round(&congested_plan(cache), None, false);
        assert!(round.errors.is_empty(), "{:?}", round.errors);
        let metric = round
            .counts
            .metrics()
            .into_iter()
            .find(|m| m.name == "interconnect.scout_fastfails")
            .expect("the counters report scout fast-fails");
        (round.fingerprint, metric.value)
    };
    let (off_fingerprint, off) = fastfails(ScoutCacheKind::Off);
    let (on_fingerprint, on) = fastfails(ScoutCacheKind::On);
    assert_eq!(off, 0.0, "no cache, no fast-fails");
    assert!(on > 0.0, "the cache's fast-fails reach the counters");
    assert_eq!(
        on_fingerprint, off_fingerprint,
        "the cache changes effort, not behaviour"
    );
}
