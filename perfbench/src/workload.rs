//! The benchmark's four workloads: what each generates and simulates, and
//! which outputs each must show.
//!
//! Every trace is generated in-process from the command-line seed, mixed
//! into each spec's own name seed through [`WorkloadSpec::seed`]; the
//! engine receives only the generated traces. Seed 0 reproduces the
//! repository's default traces.

use venice_bench::real_systems;
use venice_bench::sweep::{SWEEP_MAX_EVENTS, SWEEP_MAX_SIM_NS};
use venice_interconnect::FabricKind;
use venice_ssd::{all_systems, FaultPlan, RedundancyKind, ResiliencePolicy, SsdConfig, TenantSet};
use venice_workloads::{catalog, Trace, WorkloadAxis, WorkloadSpec};

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 19 Table 2 traces × 6 fabrics on a pool of `nproc` workers.
    PaperCatalog,
    /// The congested trace on 16×16 and 32×32 Venice meshes.
    MeshCongested,
    /// Uniform random 8 KiB writes that force garbage collection.
    WriteGc,
    /// The congested trace with a chip death, host retries, parity rebuild
    /// and two tenants, on the five real fabrics.
    FaultRebuild,
}

/// Requests per catalog trace.
const CATALOG_REQUESTS: usize = 3_000;
/// Requests of the congested trace on the 16×16 and the 32×32 mesh.
const MESH_REQUESTS: [usize; 2] = [4_000, 150];
/// Requests of the garbage-collecting write trace.
const WRITE_GC_REQUESTS: usize = 40_000;
/// Requests of the congested trace under the fault plan.
const FAULT_REQUESTS: usize = 4_000;

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperCatalog,
        Workload::MeshCongested,
        Workload::WriteGc,
        Workload::FaultRebuild,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCatalog => "paper_catalog",
            Workload::MeshCongested => "mesh_congested",
            Workload::WriteGc => "write_gc",
            Workload::FaultRebuild => "fault_rebuild",
        }
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's traces, points and checks for `seed`.
    pub fn plan(self, seed: u64) -> Plan {
        let perf = SsdConfig::performance_optimized;
        match self {
            Workload::PaperCatalog => {
                let traces: Vec<TraceRecipe> = catalog::TABLE2
                    .iter()
                    .map(|e| TraceRecipe::new(catalog::spec(e), CATALOG_REQUESTS, seed))
                    .collect();
                let points = (0..traces.len())
                    .flat_map(|t| all_systems().map(|f| Point::new(t, f, perf())))
                    .collect();
                Plan {
                    traces,
                    points,
                    pool: Some(std::thread::available_parallelism().map_or(1, usize::from)),
                    expect: Expect::fault_free(),
                }
            }
            Workload::MeshCongested => Plan {
                traces: MESH_REQUESTS
                    .map(|n| TraceRecipe::new(congested(), n, seed))
                    .into(),
                points: [16, 32]
                    .into_iter()
                    .enumerate()
                    .map(|(t, n)| Point::new(t, FabricKind::Venice, perf().with_mesh(n, n)))
                    .collect(),
                pool: None,
                expect: Expect {
                    scout_failures: true,
                    ..Expect::fault_free()
                },
            },
            Workload::WriteGc => {
                // 768 MiB sits under the 8-blocks/plane sizing floor, which
                // leaves two spare blocks per plane: GC must run.
                let spec = WorkloadSpec::new("write_gc", 30.0, 8.0, 10.0)
                    .footprint_mb(768)
                    .zipf_theta(0.0)
                    .seq_fraction(0.0)
                    .size_sigma(0.0)
                    .burst_mean(1.0);
                Plan {
                    traces: vec![TraceRecipe::new(spec, WRITE_GC_REQUESTS, seed)],
                    points: vec![Point::new(0, FabricKind::Baseline, perf())],
                    pool: None,
                    expect: Expect {
                        gc: true,
                        ..Expect::fault_free()
                    },
                }
            }
            Workload::FaultRebuild => {
                let config = perf()
                    .with_fault_plan(FaultPlan::Chip)
                    .with_resilience(ResiliencePolicy::DeadlineRetry)
                    .with_redundancy(RedundancyKind::Parity { group: 4 })
                    .with_tenants(TenantSet::deadline_split());
                let mut trace = TraceRecipe::new(congested(), FAULT_REQUESTS, seed);
                trace.tenants = 2;
                Plan {
                    traces: vec![trace],
                    points: real_systems()
                        .map(|f| Point::new(0, f, config.clone()))
                        .into(),
                    pool: None,
                    expect: Expect {
                        fault_free: false,
                        lossless: true,
                        ..Expect::fault_free()
                    },
                }
            }
        }
    }
}

fn congested() -> WorkloadSpec {
    match WorkloadAxis::congested() {
        WorkloadAxis::Spec(spec) => spec,
        other => unreachable!("the congested axis is a custom spec, got {other:?}"),
    }
}

/// How to generate one trace.
#[derive(Clone, Debug)]
pub struct TraceRecipe {
    /// The spec, already reseeded.
    pub spec: WorkloadSpec,
    /// Requests to generate.
    pub requests: usize,
    /// Tenants to tag requests round-robin over (1: untagged).
    pub tenants: u8,
}

impl TraceRecipe {
    /// A recipe whose spec seed is the spec's name seed mixed with `seed`.
    pub fn new(spec: WorkloadSpec, requests: usize, seed: u64) -> Self {
        let mixed = spec.seed ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        TraceRecipe {
            spec: spec.seed(mixed),
            requests,
            tenants: 1,
        }
    }

    /// Generates the trace.
    pub fn generate(&self) -> Trace {
        let trace = self.spec.generate(self.requests);
        if self.tenants <= 1 {
            return trace;
        }
        let tags = (0..trace.len())
            .map(|i| (i % usize::from(self.tenants)) as u8)
            .collect();
        Trace::with_tenants(
            trace.name(),
            trace.footprint_bytes(),
            trace.events().to_vec(),
            tags,
        )
    }
}

/// One simulation: a trace on a fabric under a configuration.
#[derive(Clone, Debug)]
pub struct Point {
    /// Index into [`Plan::traces`].
    pub trace: usize,
    /// The fabric under test.
    pub fabric: FabricKind,
    /// The configuration before sizing for the trace's footprint, with the
    /// sweep engine's runaway-run watchdog armed.
    pub config: SsdConfig,
}

impl Point {
    fn new(trace: usize, fabric: FabricKind, config: SsdConfig) -> Self {
        Point {
            trace,
            fabric,
            config: config.with_watchdog(Some(SWEEP_MAX_EVENTS), Some(SWEEP_MAX_SIM_NS)),
        }
    }
}

/// A workload made concrete for one seed.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Traces generated at the start of every round.
    pub traces: Vec<TraceRecipe>,
    /// Simulations of one round, in fingerprint order.
    pub points: Vec<Point>,
    /// Worker-pool size; `None` runs the points on the calling thread.
    pub pool: Option<usize>,
    /// Output checks every point must pass.
    pub expect: Expect,
}

/// What a workload's outputs must show, so that a workload that silently
/// stops exercising its layer fails instead of reporting a faster number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expect {
    /// No request may fail.
    pub fault_free: bool,
    /// Garbage collection must erase blocks.
    pub gc: bool,
    /// Venice points must have failed scout walks.
    pub scout_failures: bool,
    /// No data loss and no skipped rebuild pages.
    pub lossless: bool,
}

impl Expect {
    /// Only the checks every fault-free workload shares.
    pub const fn fault_free() -> Self {
        Expect {
            fault_free: true,
            gc: false,
            scout_failures: false,
            lossless: false,
        }
    }
}
