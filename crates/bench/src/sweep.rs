//! The design-space sweep engine: grids of (config × workload × shape ×
//! timing × queue-depth × fabric) points executed on one shared worker
//! pool, with reproducible JSON artifacts.
//!
//! This module is the process's single arbiter of simulation parallelism.
//! PR 1 had two independent fan-out levels — `run_systems` spawned one
//! thread per system while the catalog sweep spawned `VENICE_PAR` workers,
//! multiplying to `VENICE_PAR × systems` threads — which oversubscribed
//! cores on wide sweeps. Here every simulation of a sweep becomes one job
//! on a [`WorkerPool`]; while the pool is draining jobs,
//! [`venice_ssd::run_systems`] detects it (via the shared-pool guard in
//! `venice_ssd`) and clamps its own fan-out to serial execution.
//!
//! # Determinism contract
//!
//! A sweep point's [`RunMetrics`] depend only on its `(config, system,
//! trace)` triple — never on the pool size, job interleaving, or which
//! worker ran it. Results are returned in point-id order, and the manifest
//! carries content fingerprints ([`SweepOutcome::grid_hash`],
//! [`SweepOutcome::metrics_fingerprint`]) that are bit-identical for every
//! pool size; `tests/integration.rs` asserts this for pool sizes 1 and 4.
//!
//! # Example
//!
//! ```no_run
//! use venice_bench::sweep::{SweepGrid, WorkerPool};
//! use venice_interconnect::FabricKind;
//! use venice_workloads::WorkloadAxis;
//!
//! let grid = SweepGrid::new("demo")
//!     .workload(WorkloadAxis::catalog("hm_0").unwrap())
//!     .fabrics(&[FabricKind::Baseline, FabricKind::Venice])
//!     .requests(500);
//! // `grid.run()` simulates every point in memory; the resumable run
//! // reuses the point records a previous run of this grid left on disk.
//! let results = venice_bench::results_dir();
//! let outcome = grid.run_resumable(&results, WorkerPool::global(), false);
//! println!("{} reused, {} simulated", outcome.reused_count(), outcome.records().len());
//! let dir = outcome.write(&results).unwrap();
//! println!("manifest at {}", dir.join("manifest.json").display());
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use venice_interconnect::FabricKind;
use venice_nand::NandTiming;
use venice_ssd::json::{Layout, Value, Writer};
use venice_ssd::{
    run_single, DispatchPolicyKind, FaultPlan, RedundancyKind, ResiliencePolicy, RunMetrics,
    ScoutCacheKind, SsdConfig, TenantSet,
};
use venice_workloads::{Trace, WorkloadAxis};

use crate::{fnv1a, git_describe, CatalogRow, SweepSummary, FNV_OFFSET};

/// The shared worker pool: a fixed thread budget draining a batch of
/// independent jobs through one atomic work queue.
///
/// There is one [`WorkerPool::global`] pool per process (sized by
/// `VENICE_PAR`, default: available cores); explicitly sized pools exist
/// for reproducibility tests. Workers are scoped threads spawned per
/// batch — idle sweeps keep no threads alive — but the pool's *activity*
/// is process-global: while any batch is draining, nested parallelism
/// requests (a second `run` call, or `venice_ssd::run_systems` invoked
/// from inside a job) log one warning and run inline on the calling
/// thread instead of multiplying threads.
#[derive(Debug)]
pub struct WorkerPool {
    threads: usize,
}

/// The process-wide pool instance behind [`WorkerPool::global`].
static GLOBAL_POOL: OnceLock<WorkerPool> = OnceLock::new();

/// Whether the nested-`run` clamp warning has been printed yet.
static NESTED_RUN_WARNED: AtomicBool = AtomicBool::new(false);

impl WorkerPool {
    /// Creates a pool with an explicit thread budget (floor of one).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// The process-wide shared pool, created on first use and sized by
    /// `VENICE_PAR` (default: available cores) at that moment.
    pub fn global() -> &'static WorkerPool {
        GLOBAL_POOL.get_or_init(|| WorkerPool::new(crate::venice_par()))
    }

    /// The pool's thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every job and returns their results in job order.
    ///
    /// Jobs are claimed from a shared atomic queue by `min(threads, jobs)`
    /// scoped workers, so an expensive job never blocks the queue — idle
    /// workers steal the remaining ones. If the pool is already active
    /// (nested call), the jobs run inline serially on the calling thread
    /// after a once-per-process warning; results are identical either way.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T + Send,
        T: Send,
    {
        // Claim-and-check is one atomic fetch_add inside enter_shared_pool,
        // so two concurrent top-level runs can never both take the parallel
        // path (the loser clamps inline).
        let guard = venice_ssd::enter_shared_pool();
        if guard.is_nested() {
            if !NESTED_RUN_WARNED.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "warning: nested WorkerPool::run ({} jobs) while the shared \
                     pool is active; running inline serially \
                     (further occurrences are silent)",
                    jobs.len()
                );
            }
            return jobs.into_iter().map(|job| job()).collect();
        }
        let n = jobs.len();
        let workers = self.threads.min(n.max(1));
        let next = AtomicUsize::new(0);
        let jobs: Vec<Mutex<Option<F>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = jobs[i]
                        .lock()
                        .expect("job slot poisoned")
                        .take()
                        .expect("job claimed twice");
                    *slots[i].lock().expect("result slot poisoned") = Some(job());
                });
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("result slot poisoned")
                    .expect("every job completed")
            })
            .collect()
    }
}

/// A design-space grid: axes that expand into a deterministic, id-stamped
/// list of [`SweepPoint`]s.
///
/// Empty axes fall back to the base: no `configs` means the Table 1
/// performance-optimized preset, no `fabrics` means all six systems, no
/// `workloads` means the whole Table 2 catalog, and no `shapes` /
/// `timings` / `queue_depths` / `policies` / `scout_caches` / `faults` /
/// `resiliences` / `redundancies` means each config's own values.
/// Expansion order is fixed — configs ▸ workloads ▸ shapes ▸ timings ▸
/// queue depths ▸ policies ▸ scout caches ▸ fault plans ▸ tenant sets ▸
/// resilience policies ▸ redundancy schemes ▸ fabrics (innermost) — so
/// point ids are stable for a given grid.
#[derive(Clone, Debug)]
pub struct SweepGrid {
    name: String,
    requests: usize,
    configs: Vec<SsdConfig>,
    workloads: Vec<WorkloadAxis>,
    shapes: Vec<(u16, u16)>,
    timings: Vec<NandTiming>,
    queue_depths: Vec<usize>,
    policies: Vec<DispatchPolicyKind>,
    scout_caches: Vec<ScoutCacheKind>,
    faults: Vec<FaultPlan>,
    tenant_sets: Vec<TenantSet>,
    resiliences: Vec<ResiliencePolicy>,
    redundancies: Vec<RedundancyKind>,
    fabrics: Vec<FabricKind>,
}

/// Watchdog event ceiling armed on every sweep point whose config does not
/// set its own (generous: orders of magnitude above any healthy point, so
/// it only ever fires on a genuinely runaway simulation).
pub const SWEEP_MAX_EVENTS: u64 = 2_000_000_000;

/// Watchdog simulated-time ceiling armed on every sweep point whose config
/// does not set its own (one simulated hour).
pub const SWEEP_MAX_SIM_NS: u64 = 3_600_000_000_000;

impl SweepGrid {
    /// Creates an empty grid named `name` (the name keys the output
    /// directory `results/sweep_<name>/`). Requests default to
    /// [`crate::requests`] (`VENICE_REQUESTS`, default 3000).
    pub fn new(name: impl Into<String>) -> Self {
        SweepGrid {
            name: name.into(),
            requests: crate::requests(),
            configs: Vec::new(),
            workloads: Vec::new(),
            shapes: Vec::new(),
            timings: Vec::new(),
            queue_depths: Vec::new(),
            policies: Vec::new(),
            scout_caches: Vec::new(),
            faults: Vec::new(),
            tenant_sets: Vec::new(),
            resiliences: Vec::new(),
            redundancies: Vec::new(),
            fabrics: Vec::new(),
        }
    }

    /// The grid's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the per-workload request budget.
    pub fn requests(mut self, requests: usize) -> Self {
        self.requests = requests.max(1);
        self
    }

    /// Adds one base configuration to the config axis.
    pub fn config(mut self, config: SsdConfig) -> Self {
        self.configs.push(config);
        self
    }

    /// Adds one workload to the workload axis.
    pub fn workload(mut self, axis: WorkloadAxis) -> Self {
        self.workloads.push(axis);
        self
    }

    /// Extends the workload axis.
    pub fn workloads(mut self, axes: Vec<WorkloadAxis>) -> Self {
        self.workloads.extend(axes);
        self
    }

    /// Extends the fabric axis.
    pub fn fabrics(mut self, fabrics: &[FabricKind]) -> Self {
        self.fabrics.extend_from_slice(fabrics);
        self
    }

    /// Replaces the fabric axis wholesale (CLI `--systems` override).
    pub fn replace_fabrics(mut self, fabrics: &[FabricKind]) -> Self {
        self.fabrics.clear();
        self.fabrics.extend_from_slice(fabrics);
        self
    }

    /// Extends the array-shape axis (`rows × cols` controller layouts).
    /// Shapes preserving the base config's chip count reshape it (the
    /// Figure 15 sweep); larger meshes — 16×16, 32×32 — resize the chip
    /// array with the fabric (`SsdConfig::with_mesh`), putting big-mesh
    /// scaling on the grid.
    pub fn shapes(mut self, shapes: &[(u16, u16)]) -> Self {
        self.shapes.extend_from_slice(shapes);
        self
    }

    /// Extends the NAND-timing axis.
    pub fn timings(mut self, timings: &[NandTiming]) -> Self {
        self.timings.extend_from_slice(timings);
        self
    }

    /// Extends the submission-queue-depth axis.
    pub fn queue_depths(mut self, depths: &[usize]) -> Self {
        self.queue_depths.extend_from_slice(depths);
        self
    }

    /// Extends the dispatch-policy axis.
    pub fn policies(mut self, policies: &[DispatchPolicyKind]) -> Self {
        self.policies.extend_from_slice(policies);
        self
    }

    /// Extends the scout fast-fail-cache axis (the Venice cache ablation).
    pub fn scout_caches(mut self, caches: &[ScoutCacheKind]) -> Self {
        self.scout_caches.extend_from_slice(caches);
        self
    }

    /// Replaces the scout fast-fail-cache axis wholesale (the CLI
    /// `--scout-cache` override — like [`SweepGrid::replace_fabrics`],
    /// so overriding a grid that already sets the axis restricts it
    /// instead of appending duplicate points).
    pub fn replace_scout_caches(mut self, caches: &[ScoutCacheKind]) -> Self {
        self.scout_caches.clear();
        self.scout_caches.extend_from_slice(caches);
        self
    }

    /// Extends the fault-plan axis (the degraded-mode ablation: each plan
    /// scripts a deterministic sequence of fabric/chip/NAND faults).
    pub fn fault_plans(mut self, plans: &[FaultPlan]) -> Self {
        self.faults.extend_from_slice(plans);
        self
    }

    /// Extends the tenant-set axis (the multi-tenant QoS ablation: each
    /// set defines tenant→queue partitioning, WRR weights, and per-tenant
    /// queue-depth caps).
    pub fn tenant_sets(mut self, sets: &[TenantSet]) -> Self {
        self.tenant_sets.extend_from_slice(sets);
        self
    }

    /// Extends the host-resilience axis (the resilience ablation: each
    /// preset arms a combination of request deadlines, bounded host retry,
    /// and submission-side admission control).
    pub fn resilience_policies(mut self, policies: &[ResiliencePolicy]) -> Self {
        self.resiliences.extend_from_slice(policies);
        self
    }

    /// Extends the redundancy-scheme axis (the RAIN rebuild ablation: each
    /// scheme stripes pages into die-level parity groups, arming degraded
    /// reads and the background rebuild engine on chip death).
    pub fn redundancy_kinds(mut self, kinds: &[RedundancyKind]) -> Self {
        self.redundancies.extend_from_slice(kinds);
        self
    }

    /// Resolved workload axis (Table 2 catalog when none was set).
    fn effective_workloads(&self) -> Vec<WorkloadAxis> {
        if self.workloads.is_empty() {
            WorkloadAxis::table2()
        } else {
            self.workloads.clone()
        }
    }

    /// Resolved config axis (performance-optimized when none was set).
    fn effective_configs(&self) -> Vec<SsdConfig> {
        if self.configs.is_empty() {
            vec![SsdConfig::performance_optimized()]
        } else {
            self.configs.clone()
        }
    }

    /// Resolved fabric axis (all six systems when none was set).
    fn effective_fabrics(&self) -> Vec<FabricKind> {
        if self.fabrics.is_empty() {
            FabricKind::ALL.to_vec()
        } else {
            self.fabrics.clone()
        }
    }

    /// Expands the grid into its deterministic, id-stamped point list.
    ///
    /// # Panics
    ///
    /// Panics if a shape-axis value is degenerate (zero rows/cols or a
    /// chip count beyond the u16 id space) — fail-fast, before any
    /// simulation runs.
    pub fn build_points(&self) -> Vec<SweepPoint> {
        let configs = self.effective_configs();
        let workloads = self.effective_workloads();
        let fabrics = self.effective_fabrics();
        let mut points = Vec::new();
        for base in &configs {
            let shapes: Vec<(u16, u16)> = if self.shapes.is_empty() {
                vec![(base.fabric.rows, base.fabric.cols)]
            } else {
                self.shapes.clone()
            };
            let timings: Vec<NandTiming> = if self.timings.is_empty() {
                vec![base.timing]
            } else {
                self.timings.clone()
            };
            let depths: Vec<usize> = if self.queue_depths.is_empty() {
                vec![base.hil.queue_depth]
            } else {
                self.queue_depths.clone()
            };
            let policies: Vec<DispatchPolicyKind> = if self.policies.is_empty() {
                vec![base.dispatch]
            } else {
                self.policies.clone()
            };
            let caches: Vec<ScoutCacheKind> = if self.scout_caches.is_empty() {
                vec![base.scout_cache()]
            } else {
                self.scout_caches.clone()
            };
            let faults: Vec<FaultPlan> = if self.faults.is_empty() {
                vec![base.fault_plan]
            } else {
                self.faults.clone()
            };
            let tenant_sets: Vec<TenantSet> = if self.tenant_sets.is_empty() {
                vec![base.tenants.clone()]
            } else {
                self.tenant_sets.clone()
            };
            let resiliences: Vec<ResiliencePolicy> = if self.resiliences.is_empty() {
                vec![base.resilience]
            } else {
                self.resiliences.clone()
            };
            let redundancies: Vec<RedundancyKind> = if self.redundancies.is_empty() {
                vec![base.redundancy]
            } else {
                self.redundancies.clone()
            };
            for (workload_idx, workload) in workloads.iter().enumerate() {
                for &(rows, cols) in &shapes {
                    for &timing in &timings {
                        for &depth in &depths {
                            for &policy in &policies {
                                for &scout_cache in &caches {
                                    for &fault_plan in &faults {
                                        for tenant_set in &tenant_sets {
                                        for &resilience in &resiliences {
                                        for &redundancy in &redundancies {
                                        for &fabric in &fabrics {
                                            let config = base
                                                .clone()
                                                .with_mesh(rows, cols)
                                                .with_timing(timing)
                                                .with_queue_depth(depth)
                                                .with_dispatch_policy(policy)
                                                .with_scout_cache(scout_cache)
                                                .with_fault_plan(fault_plan)
                                                .with_tenants(tenant_set.clone())
                                                .with_resilience(resilience)
                                                .with_redundancy(redundancy);
                                            // Sweeps run unattended: arm the
                                            // generous runaway-run watchdog
                                            // unless the base config set its
                                            // own ceilings.
                                            let config = if config.max_events.is_none()
                                                && config.max_sim_ns.is_none()
                                            {
                                                config.with_watchdog(
                                                    Some(SWEEP_MAX_EVENTS),
                                                    Some(SWEEP_MAX_SIM_NS),
                                                )
                                            } else {
                                                config
                                            };
                                            let timing_name = timing
                                                .preset_name()
                                                .unwrap_or("custom")
                                                .to_string();
                                            let label = format!(
                                                "{}/{}/{}x{}/{}/qd{}/{}/{}/{}/{}/{}/{}/{}",
                                                base.name,
                                                workload.name(),
                                                rows,
                                                cols,
                                                timing_name,
                                                depth,
                                                policy.label(),
                                                scout_cache.label(),
                                                fault_plan.label(),
                                                tenant_set.label(),
                                                resilience.label(),
                                                redundancy.label(),
                                                fabric.label()
                                            );
                                            points.push(SweepPoint {
                                                id: points.len(),
                                                label,
                                                workload_idx,
                                                workload: workload.name().to_string(),
                                                config_name: base.name,
                                                shape: (rows, cols),
                                                timing_name,
                                                queue_depth: depth,
                                                policy,
                                                scout_cache,
                                                fault_plan,
                                                tenants: tenant_set.label().to_string(),
                                                resilience,
                                                redundancy,
                                                fabric,
                                                config,
                                            });
                                        }
                                        }
                                        }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }

    /// Runs the grid on the process-wide [`WorkerPool::global`] pool.
    pub fn run(&self) -> SweepOutcome {
        self.run_on(WorkerPool::global())
    }

    /// Runs every point of the grid in memory on an explicit pool (used by
    /// the determinism tests to compare pool sizes; results are
    /// bit-identical for every size). Never reads or writes the disk.
    pub fn run_on(&self, pool: &WorkerPool) -> SweepOutcome {
        let start = Instant::now();
        let points = self.build_points();
        let prior = vec![None; points.len()];
        self.execute(pool, points, prior, self.definition_json(), None, start)
    }

    /// Runs the grid, reusing any point records already on disk from a
    /// previous run of the *same* grid — the resumable sweep.
    ///
    /// A prior artifact at `base_dir/sweep_<name>/` is trusted when its
    /// `grid.json` stamp byte-equals this grid's definition JSON (name,
    /// requests, every axis — so any change invalidates reuse; the
    /// stamp's FNV hash is the manifest's `grid_hash`). Points whose
    /// record file holds a whole, non-failed record are not re-simulated;
    /// only the rest run on `pool`. `fresh` forces a full re-run
    /// regardless (the CLI's `--fresh`).
    ///
    /// The grid stamp is written *before* any simulation and every
    /// executed point persists its record (atomically, via a temp-file
    /// rename) *as it completes*, so a killed sweep resumes from the
    /// points it finished. When the stamp does not match, stale point
    /// records are cleared first — records from two different grids can
    /// never mix. Call [`SweepOutcome::write`] with the same `base_dir`
    /// afterwards to (re)write the manifest indexing all points; until
    /// then, a prior run's manifest may lag the stamp.
    pub fn run_resumable(&self, base_dir: &Path, pool: &WorkerPool, fresh: bool) -> SweepOutcome {
        let start = Instant::now();
        let points = self.build_points();
        let grid_json = self.definition_json();
        let dir = base_dir.join(format!("sweep_{}", self.name));
        let grid_file = dir.join("grid.json");
        let resumable = !fresh
            && std::fs::read_to_string(&grid_file).is_ok_and(|g| g == grid_json);
        // Records are written atomically, so parsing is belt-and-suspenders:
        // only a whole JSON object is trusted. A failed (panicked) point's
        // placeholder record is never reused: the resumed sweep retries it.
        let prior = points
            .iter()
            .map(|p| {
                resumable
                    .then(|| std::fs::read_to_string(dir.join(p.file_name())).ok())
                    .flatten()
                    .filter(|s| {
                        Value::parse(s)
                            .is_ok_and(|r| r.as_object().is_some() && record_status(&r) != "failed")
                    })
            })
            .collect();
        if !resumable {
            // Different grid (or --fresh): clear stale records before
            // stamping the new definition.
            let _ = std::fs::remove_dir_all(dir.join("points"));
        }
        // Stamp the definition up front (best-effort: an unwritable
        // results dir degrades to a non-resumable sweep, not a failure).
        let _ = std::fs::create_dir_all(dir.join("points"));
        let _ = write_atomic(&grid_file, grid_json.as_bytes());
        self.execute(pool, points, prior, grid_json, Some(&dir), start)
    }

    /// The run body shared by [`SweepGrid::run_on`] and
    /// [`SweepGrid::run_resumable`]: simulates every point whose `prior`
    /// record is `None`, generating traces only for the workloads those
    /// points replay (once per workload, shared by reference across every
    /// point that replays it). When `persist` names a sweep directory, each
    /// record is written there the moment its point completes.
    fn execute(
        &self,
        pool: &WorkerPool,
        points: Vec<SweepPoint>,
        prior: Vec<Option<String>>,
        grid_json: String,
        persist: Option<&Path>,
        start: Instant,
    ) -> SweepOutcome {
        let workloads = self.effective_workloads();
        let requests = self.requests;
        let missing: Vec<&SweepPoint> = points.iter().filter(|p| prior[p.id].is_none()).collect();
        let mut needed = vec![false; workloads.len()];
        for p in &missing {
            needed[p.workload_idx] = true;
        }
        let traces: Vec<Option<Trace>> = pool.run(
            workloads
                .iter()
                .zip(&needed)
                .map(|(axis, &need)| move || need.then(|| axis.trace(requests)))
                .collect(),
        );
        let results: Vec<(RunMetrics, String)> = pool.run(
            missing
                .iter()
                .map(|&point| {
                    let trace = traces[point.workload_idx]
                        .as_ref()
                        .expect("trace generated for a missing point");
                    move || {
                        let metrics = run_point_guarded(point, trace);
                        let json = metrics.to_json();
                        if let Some(dir) = persist {
                            // Best-effort, like the stamp: a record that
                            // fails to land only re-runs on resume.
                            let _ = write_atomic(&dir.join(point.file_name()), json.as_bytes());
                        }
                        (metrics, json)
                    }
                })
                .collect(),
        );
        let mut point_jsons = prior;
        let mut records = Vec::with_capacity(results.len());
        for (point, (metrics, json)) in missing.into_iter().zip(results) {
            point_jsons[point.id] = Some(json);
            records.push(PointRecord {
                point: point.clone(),
                metrics,
            });
        }
        SweepOutcome {
            grid_json,
            name: self.name.clone(),
            requests,
            workload_count: workloads.len(),
            fabric_count: self.effective_fabrics().len(),
            pool_threads: pool.threads(),
            wall_seconds: start.elapsed().as_secs_f64(),
            point_jsons: point_jsons
                .into_iter()
                .map(|j| j.expect("every point reused or executed"))
                .collect(),
            points,
            records,
        }
    }

    /// The grid definition as one stable JSON object (embedded in the
    /// manifest and hashed into [`SweepOutcome::grid_hash`]).
    pub fn definition_json(&self) -> String {
        /// An empty axis keeps the base config's value, recorded as `base`.
        fn labels<T>(axis: &[T], label: impl Fn(&T) -> String) -> Vec<String> {
            if axis.is_empty() {
                vec!["base".to_string()]
            } else {
                axis.iter().map(label).collect()
            }
        }
        let axes: [(&str, Vec<String>); 12] = [
            (
                "configs",
                self.effective_configs()
                    .iter()
                    .map(|c| c.name.to_string())
                    .collect(),
            ),
            (
                "workloads",
                self.effective_workloads()
                    .iter()
                    .map(|w| w.name().to_string())
                    .collect(),
            ),
            ("shapes", labels(&self.shapes, |(r, c)| format!("{r}x{c}"))),
            (
                "timings",
                labels(&self.timings, |t| {
                    t.preset_name().unwrap_or("custom").to_string()
                }),
            ),
            (
                "queue_depths",
                labels(&self.queue_depths, |d| d.to_string()),
            ),
            (
                "policies",
                labels(&self.policies, |p| p.label().to_string()),
            ),
            (
                "scout_caches",
                labels(&self.scout_caches, |c| c.label().to_string()),
            ),
            ("faults", labels(&self.faults, |f| f.label().to_string())),
            (
                "tenants",
                labels(&self.tenant_sets, |t| t.label().to_string()),
            ),
            (
                "resilience",
                labels(&self.resiliences, |r| r.label().to_string()),
            ),
            ("redundancy", labels(&self.redundancies, |r| r.label())),
            (
                "fabrics",
                self.effective_fabrics()
                    .iter()
                    .map(|f| f.label().to_string())
                    .collect(),
            ),
        ];
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.object(Layout::Inline)
            .field("name", &self.name)
            .field("requests", self.requests);
        for (key, values) in &axes {
            w.key(key).array(Layout::Inline);
            for v in values {
                w.value(v);
            }
            w.end();
        }
        w.end();
        out
    }
}

/// One expanded grid point: a fully resolved configuration plus the axis
/// coordinates it came from.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Position in the grid's deterministic expansion order (also the
    /// result order and the point-file numbering).
    pub id: usize,
    /// Human-readable coordinates, e.g.
    /// `performance-optimized/hm_0/8x8/z-nand/qd8/Venice`.
    pub label: String,
    /// Index into the grid's workload axis (shared-trace lookup).
    pub workload_idx: usize,
    /// Workload axis value name.
    pub workload: String,
    /// Base configuration preset name.
    pub config_name: &'static str,
    /// Array shape (`rows`, `cols`).
    pub shape: (u16, u16),
    /// NAND-timing axis value name (`"z-nand"`, `"tlc-3d"`, or `"custom"`).
    pub timing_name: String,
    /// Submission-queue depth.
    pub queue_depth: usize,
    /// Dispatch policy under test.
    pub policy: DispatchPolicyKind,
    /// Scout fast-fail cache mode under test.
    pub scout_cache: ScoutCacheKind,
    /// Fault plan under test (`FaultPlan::None` on fault-free grids).
    pub fault_plan: FaultPlan,
    /// Tenant-set axis value label (`"single"` on single-tenant grids).
    pub tenants: String,
    /// Host-resilience policy under test (`ResiliencePolicy::None` on
    /// resilience-free grids).
    pub resilience: ResiliencePolicy,
    /// Redundancy scheme under test (`RedundancyKind::None` on
    /// redundancy-free grids).
    pub redundancy: RedundancyKind,
    /// The fabric under test.
    pub fabric: FabricKind,
    /// The fully resolved configuration this point simulates.
    pub config: SsdConfig,
}

impl SweepPoint {
    /// The point's result file name inside the sweep directory
    /// (`points/p<id>-<sanitized label>.json`).
    pub fn file_name(&self) -> String {
        let slug: String = self
            .label
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    c
                } else {
                    '-'
                }
            })
            .collect();
        format!("points/p{:04}-{}.json", self.id, slug)
    }

    /// The point's coordinates on every axis but the fabric: two points of
    /// a grid share it exactly when they differ only in fabric. It is the
    /// label without its fabric segment, keyed on the workload axis
    /// *index* (axis names are user-supplied and need not be unique).
    pub fn coord(&self) -> (usize, &str) {
        let (axes, _fabric) = self
            .label
            .rsplit_once('/')
            .expect("a point label ends in its fabric");
        (self.workload_idx, axes)
    }
}

/// One executed point: its coordinates plus the run's metrics.
#[derive(Clone, Debug)]
pub struct PointRecord {
    /// The grid coordinates and resolved configuration.
    pub point: SweepPoint,
    /// The simulation's metrics.
    pub metrics: RunMetrics,
}

/// The result of running a [`SweepGrid`]: every point and its stable JSON
/// record in point-id order, the metrics of the points simulated this run,
/// and everything needed to write a reproducible artifact. Records a
/// resumed run reused from disk have JSON but no [`RunMetrics`].
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    grid_json: String,
    name: String,
    requests: usize,
    workload_count: usize,
    fabric_count: usize,
    pool_threads: usize,
    wall_seconds: f64,
    /// Every grid point, in id order.
    points: Vec<SweepPoint>,
    /// One stable-JSON record per point, in id order: shared by the
    /// fingerprints, manifest, and artifact writer.
    point_jsons: Vec<String>,
    /// The points simulated this run, with their metrics, in id order.
    records: Vec<PointRecord>,
}

impl SweepOutcome {
    /// The points simulated this run, with their metrics, in point-id
    /// order (every point, unless a resumed run reused some).
    pub fn records(&self) -> &[PointRecord] {
        &self.records
    }

    /// Every grid point, in id order.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// The per-point stable-JSON records, in id order.
    pub fn point_jsons(&self) -> &[String] {
        &self.point_jsons
    }

    /// How many point records were reused from a prior artifact.
    pub fn reused_count(&self) -> usize {
        self.points.len() - self.records.len()
    }

    /// The grid's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Wall-clock seconds the sweep took.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_seconds
    }

    /// FNV-1a hash of the grid definition JSON: identifies *what* was swept.
    pub fn grid_hash(&self) -> String {
        self.fingerprints().grid_hash
    }

    /// FNV-1a hash chained over every point record in id order:
    /// identifies *what came out*. Bit-identical across pool sizes,
    /// execution orders, and resumed runs; wall-clock time and environment
    /// are excluded.
    pub fn metrics_fingerprint(&self) -> String {
        self.fingerprints().metrics
    }

    /// Grid hash and metrics fingerprint folded together (the point chain
    /// seeded with the grid-definition hash): the manifest's single
    /// comparison handle for "same sweep, same results".
    pub fn manifest_fingerprint(&self) -> String {
        self.fingerprints().manifest
    }

    fn fingerprints(&self) -> Fingerprints {
        Fingerprints::of(&self.grid_json, &self.point_jsons)
    }

    /// Total simulator events across all points (read back out of the
    /// records, so reused points count too).
    pub fn events(&self) -> u64 {
        self.point_jsons
            .iter()
            .filter_map(|j| Value::parse(j).ok()?.get("events")?.as_u64())
            .sum()
    }

    /// The sweep's throughput summary (the catalog-sweep summary line;
    /// reused points contribute their recorded events but no fresh
    /// wall-clock work).
    pub fn summary(&self) -> SweepSummary {
        SweepSummary {
            workloads: self.workload_count,
            systems: self.fabric_count,
            points: self.points.len(),
            par: self.pool_threads,
            wall_seconds: self.wall_seconds,
            events: self.events(),
        }
    }

    /// Regroups the simulated points into `(workload name, metrics per
    /// fabric)` rows for points matching `filter`, preserving point order —
    /// the shape the figure renderers consume.
    ///
    /// A row is one [`SweepPoint::coord`] — every axis but the fabric — so
    /// metrics from different configurations are never merged into one
    /// row: on a grid where `filter` leaves several values of another
    /// axis, the same workload name simply appears once per coordinate.
    /// Within a row, metrics are in fabric-axis order.
    pub fn rows_by_workload(
        &self,
        filter: impl Fn(&SweepPoint) -> bool,
    ) -> Vec<CatalogRow> {
        let mut rows: Vec<CatalogRow> = Vec::new();
        let mut last_coord = None;
        for r in self.records.iter().filter(|r| filter(&r.point)) {
            let key = Some(r.point.coord());
            if last_coord != key {
                rows.push((r.point.workload.clone(), Vec::new()));
                last_coord = key;
            }
            rows.last_mut()
                .expect("row pushed above")
                .1
                .push(r.metrics.clone());
        }
        rows
    }

    /// [`SweepOutcome::rows_by_workload`] over every point — the
    /// single-config catalog-sweep case (one row per workload).
    pub fn catalog_rows(&self) -> Vec<CatalogRow> {
        self.rows_by_workload(|_| true)
    }

    /// The sweep manifest as one JSON document: grid definition, git
    /// revision, environment knobs, pool/wall-clock info, fingerprints,
    /// and the per-point index with headline numbers for quick diffing.
    /// Headline numbers are read back out of the parsed point records, so
    /// a reused record and a fresh one index identically.
    pub fn manifest_json(&self) -> String {
        let fp = self.fingerprints();
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.object(Layout::Block)
            .field("name", &self.name)
            .field("engine", "venice_bench::sweep")
            .field("git", git_describe())
            .field("requests", self.requests)
            .field("points_total", self.points.len())
            .field("pool_threads", self.pool_threads)
            .field("wall_seconds", self.wall_seconds);
        w.key("env").object(Layout::Inline);
        for knob in ["VENICE_REQUESTS", "VENICE_PAR", "VENICE_RESULTS_DIR"] {
            w.field(knob, std::env::var(knob).ok());
        }
        w.end()
            .key("grid")
            .raw(&self.grid_json)
            .field("grid_hash", fp.grid_hash)
            .field("metrics_fingerprint", fp.metrics)
            .field("manifest_fingerprint", fp.manifest);
        w.key("points").array(Layout::Block);
        for (p, json) in self.points.iter().zip(&self.point_jsons) {
            let record = Value::parse(json).unwrap_or(Value::Null);
            let count = |key| record.get(key).and_then(Value::as_u64).unwrap_or(0);
            w.object(Layout::Inline)
                .field("id", p.id)
                .field("label", &p.label)
                .field("file", p.file_name())
                .field("status", record_status(&record))
                .field("execution_time_ns", count("execution_time_ns"))
                .field("events", count("events"))
                .end();
        }
        w.end().end();
        out.push('\n');
        out
    }

    /// Writes the sweep artifact under `base_dir/sweep_<name>/`: the
    /// `grid.json` definition stamp, one `points/p<id>-<label>.json` record
    /// per point, and the `manifest.json` indexing them all, each file
    /// atomically (a resumed run rewrites its reused records unchanged).
    /// Returns the sweep directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or file writes.
    pub fn write(&self, base_dir: &Path) -> std::io::Result<PathBuf> {
        let dir = base_dir.join(format!("sweep_{}", self.name));
        std::fs::create_dir_all(dir.join("points"))?;
        write_atomic(&dir.join("grid.json"), self.grid_json.as_bytes())?;
        for (p, json) in self.points.iter().zip(&self.point_jsons) {
            write_atomic(&dir.join(p.file_name()), json.as_bytes())?;
        }
        write_atomic(&dir.join("manifest.json"), self.manifest_json().as_bytes())?;
        Ok(dir)
    }
}

/// Runs one point with panic isolation: a panicking simulation becomes a
/// [`RunMetrics::failed`] placeholder (recorded with `"status": "failed"`)
/// instead of killing the worker pool — the rest of the sweep continues,
/// and a resumed sweep retries the point.
fn run_point_guarded(point: &SweepPoint, trace: &Trace) -> RunMetrics {
    catch_unwind(AssertUnwindSafe(|| {
        run_single(&point.config, point.fabric, trace)
    }))
    .unwrap_or_else(|_| {
        eprintln!(
            "warning: sweep point {} panicked; recording a failed placeholder",
            point.label
        );
        RunMetrics::failed(point.fabric, &point.workload, point.config_name)
    })
}

/// The `"status"` of a parsed point record (`"complete"` when the field is
/// absent — records written before run status existed).
fn record_status(record: &Value) -> &str {
    record
        .get("status")
        .and_then(Value::as_str)
        .unwrap_or("complete")
}

/// Writes `bytes` to `path` atomically: a temp file in the same directory
/// is renamed over the target, so readers (and a resumed sweep) never see
/// a torn or truncated record.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// A sweep's three FNV-1a fingerprints, as 16-digit hex.
struct Fingerprints {
    /// Hash of the grid definition JSON: *what* was swept.
    grid_hash: String,
    /// Hash chained over every point record in id order: *what came out*.
    metrics: String,
    /// The point chain seeded with the grid hash: both at once.
    manifest: String,
}

impl Fingerprints {
    fn of(grid_json: &str, point_jsons: &[String]) -> Self {
        let grid = fnv1a(grid_json.as_bytes(), FNV_OFFSET);
        let chain = |seed| point_jsons.iter().fold(seed, |h, j| fnv1a(j.as_bytes(), h));
        let hex = |h: u64| format!("{h:016x}");
        Fingerprints {
            grid_hash: hex(grid),
            metrics: hex(chain(FNV_OFFSET)),
            manifest: hex(chain(grid)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> SweepGrid {
        SweepGrid::new("unit")
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .workload(WorkloadAxis::catalog("proj_3").expect("catalog"))
            .fabrics(&[FabricKind::Baseline, FabricKind::Venice])
            .requests(80)
    }

    #[test]
    fn pool_preserves_job_order_and_results() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<_> = (0..37).map(|i| move || i * i).collect();
        let out = pool.run(jobs);
        assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        // Thread budget floors at one and is visible.
        assert_eq!(WorkerPool::new(0).threads(), 1);
    }

    #[test]
    fn nested_pool_runs_clamp_inline() {
        let pool = WorkerPool::new(2);
        // Jobs that themselves use a pool: must not deadlock or nest threads.
        let out = pool.run(vec![
            || WorkerPool::new(2).run(vec![|| 1, || 2]),
            || WorkerPool::new(2).run(vec![|| 3, || 4]),
        ]);
        assert_eq!(out, vec![vec![1, 2], vec![3, 4]]);
    }

    #[test]
    fn grid_expansion_is_deterministic_and_id_stamped() {
        let grid = tiny_grid();
        let a = grid.build_points();
        let b = grid.build_points();
        assert_eq!(a.len(), 4); // 2 workloads × 2 fabrics
        for (i, (pa, pb)) in a.iter().zip(&b).enumerate() {
            assert_eq!(pa.id, i);
            assert_eq!(pa.label, pb.label);
        }
        // Fabrics are the innermost axis.
        assert_eq!(a[0].workload, "hm_0");
        assert_eq!(a[0].fabric, FabricKind::Baseline);
        assert_eq!(a[1].workload, "hm_0");
        assert_eq!(a[1].fabric, FabricKind::Venice);
        assert_eq!(a[2].workload, "proj_3");
    }

    #[test]
    fn axes_expand_multiplicatively() {
        let grid = SweepGrid::new("axes")
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .fabrics(&[FabricKind::Venice])
            .shapes(&[(4, 16), (8, 8)])
            .timings(&[NandTiming::z_nand(), NandTiming::tlc_3d()])
            .queue_depths(&[4, 16])
            .requests(50);
        let points = grid.build_points();
        assert_eq!(points.len(), 8); // 1 × 2 shapes × 2 timings × 2 depths
        assert_eq!(points[0].shape, (4, 16));
        assert_eq!(points[0].timing_name, "z-nand");
        assert_eq!(points[0].queue_depth, 4);
        let last = points.last().expect("non-empty");
        assert_eq!(last.shape, (8, 8));
        assert_eq!(last.timing_name, "tlc-3d");
        assert_eq!(last.queue_depth, 16);
        assert_eq!(last.config.hil.queue_depth, 16);
        assert_eq!(last.config.fabric.rows, 8);
    }

    #[test]
    fn policy_axis_expands_and_round_trips_through_the_manifest() {
        let grid = SweepGrid::new("policy-axis")
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .policies(&DispatchPolicyKind::ALL)
            .fabrics(&[FabricKind::Venice])
            .requests(50);
        let points = grid.build_points();
        assert_eq!(points.len(), DispatchPolicyKind::ALL.len());
        for (p, kind) in points.iter().zip(DispatchPolicyKind::ALL) {
            assert_eq!(p.policy, kind);
            assert_eq!(p.config.dispatch, kind, "policy must reach the config");
            assert!(p.label.contains(kind.label()), "label {}", p.label);
            // Round-trip: every label the manifest stores resolves back to
            // the same axis value.
            assert_eq!(DispatchPolicyKind::by_label(kind.label()), Some(kind));
        }
        let def = grid.definition_json();
        assert!(
            def.contains("\"policies\": [\"retry-all\", \"conflict-backoff\", \"auto\"]"),
            "definition must carry the policy axis: {def}"
        );
        // An unset axis serializes as the base marker, like the other axes.
        let plain = SweepGrid::new("no-policy")
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .requests(50);
        assert!(plain.definition_json().contains("\"policies\": [\"base\"]"));
        assert_eq!(plain.build_points()[0].policy, DispatchPolicyKind::RetryAll);
    }

    #[test]
    fn tenant_axis_expands_and_reaches_the_config() {
        let grid = SweepGrid::new("tenant-axis")
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .tenant_sets(&TenantSet::presets())
            .fabrics(&[FabricKind::Venice])
            .requests(50);
        let points = grid.build_points();
        assert_eq!(points.len(), TenantSet::presets().len());
        for (p, set) in points.iter().zip(TenantSet::presets()) {
            assert_eq!(p.tenants, set.label());
            assert_eq!(p.config.tenants, set, "tenant set must reach the config");
            assert!(p.label.contains(set.label()), "label {}", p.label);
            assert_eq!(
                TenantSet::by_label(set.label()),
                Some(set),
                "manifest labels must round-trip"
            );
        }
        let def = grid.definition_json();
        assert!(
            def.contains("\"tenants\": [\"single\", \"pair-fair\", \"victim-boost\", \"trio-weighted\"]"),
            "definition must carry the tenant axis: {def}"
        );
        // An unset axis serializes as the base marker, like the other axes.
        let plain = SweepGrid::new("no-tenants")
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .requests(50);
        assert!(plain.definition_json().contains("\"tenants\": [\"base\"]"));
        assert!(plain.build_points()[0].config.tenants.is_single());
    }

    #[test]
    fn resilience_axis_expands_and_reaches_the_config() {
        let grid = SweepGrid::new("resilience-axis")
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .resilience_policies(&ResiliencePolicy::ALL)
            .fabrics(&[FabricKind::Venice])
            .requests(50);
        let points = grid.build_points();
        assert_eq!(points.len(), ResiliencePolicy::ALL.len());
        for (p, policy) in points.iter().zip(ResiliencePolicy::ALL) {
            assert_eq!(p.resilience, policy);
            assert_eq!(
                p.config.resilience, policy,
                "resilience policy must reach the config"
            );
            assert!(p.label.contains(policy.label()), "label {}", p.label);
            assert_eq!(
                ResiliencePolicy::by_label(policy.label()),
                Some(policy),
                "manifest labels must round-trip"
            );
        }
        let def = grid.definition_json();
        assert!(
            def.contains(
                "\"resilience\": [\"none\", \"deadline\", \"retry\", \"deadline-retry\", \
                 \"shed\", \"full\"]"
            ),
            "definition must carry the resilience axis: {def}"
        );
        // An unset axis serializes as the base marker, like the other axes.
        let plain = SweepGrid::new("no-resilience")
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .requests(50);
        assert!(plain.definition_json().contains("\"resilience\": [\"base\"]"));
        assert_eq!(
            plain.build_points()[0].config.resilience,
            ResiliencePolicy::None
        );
    }

    #[test]
    fn redundancy_axis_expands_and_reaches_the_config() {
        let grid = SweepGrid::new("redundancy-axis")
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .redundancy_kinds(&RedundancyKind::ALL)
            .fabrics(&[FabricKind::Venice])
            .requests(50);
        let points = grid.build_points();
        assert_eq!(points.len(), RedundancyKind::ALL.len());
        for (p, kind) in points.iter().zip(RedundancyKind::ALL) {
            assert_eq!(p.redundancy, kind);
            assert_eq!(
                p.config.redundancy, kind,
                "redundancy scheme must reach the config"
            );
            assert!(p.label.contains(&kind.label()), "label {}", p.label);
            assert_eq!(
                RedundancyKind::by_label(&kind.label()),
                Some(kind),
                "manifest labels must round-trip"
            );
        }
        let def = grid.definition_json();
        assert!(
            def.contains("\"redundancy\": [\"none\", \"parity4\"]"),
            "definition must carry the redundancy axis: {def}"
        );
        // An unset axis serializes as the base marker, like the other axes.
        let plain = SweepGrid::new("no-redundancy")
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .requests(50);
        assert!(plain.definition_json().contains("\"redundancy\": [\"base\"]"));
        assert_eq!(
            plain.build_points()[0].config.redundancy,
            RedundancyKind::None
        );
    }

    #[test]
    fn outcome_rows_group_by_workload_in_axis_order() {
        let outcome = tiny_grid().run_on(&WorkerPool::new(2));
        let rows = outcome.catalog_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "hm_0");
        assert_eq!(rows[1].0, "proj_3");
        assert_eq!(rows[0].1.len(), 2);
        assert_eq!(rows[0].1[0].system, FabricKind::Baseline);
        assert_eq!(rows[0].1[1].system, FabricKind::Venice);
        let venice_only = outcome.rows_by_workload(|p| p.fabric == FabricKind::Venice);
        assert_eq!(venice_only.len(), 2);
        assert_eq!(venice_only[0].1.len(), 1);
    }

    #[test]
    fn rows_never_merge_across_configs_or_axes() {
        // Two configs × one workload × one fabric: an undiscriminating
        // grouping must yield one row per config, not one merged row.
        let outcome = SweepGrid::new("unit-two-configs")
            .config(SsdConfig::performance_optimized())
            .config(SsdConfig::cost_optimized())
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .fabrics(&[FabricKind::Baseline, FabricKind::Venice])
            .requests(60)
            .run_on(&WorkerPool::new(1));
        let rows = outcome.catalog_rows();
        assert_eq!(rows.len(), 2, "one row per config coordinate");
        assert_eq!(rows[0].0, "hm_0");
        assert_eq!(rows[1].0, "hm_0");
        assert_eq!(rows[0].1.len(), 2, "fabric order within a row");
        assert_eq!(rows[0].1[0].config, "performance-optimized");
        assert_eq!(rows[1].1[0].config, "cost-optimized");
    }

    #[test]
    fn manifest_carries_fingerprints_and_points() {
        let outcome = tiny_grid().run_on(&WorkerPool::new(2));
        let manifest = outcome.manifest_json();
        assert!(manifest.contains("\"name\": \"unit\""));
        assert!(manifest.contains(&format!("\"grid_hash\": \"{}\"", outcome.grid_hash())));
        assert!(manifest
            .contains(&format!("\"metrics_fingerprint\": \"{}\"", outcome.metrics_fingerprint())));
        assert!(manifest.contains("\"points_total\": 4"));
        assert!(manifest.contains("p0000-"));
        let summary = outcome.summary();
        assert_eq!(summary.workloads, 2);
        assert_eq!(summary.systems, 2);
        assert_eq!(summary.events, outcome.events());
    }

    #[test]
    fn sweep_artifact_writes_manifest_and_points() {
        let outcome = SweepGrid::new("unit-write")
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .fabrics(&[FabricKind::Ideal])
            .requests(60)
            .run_on(&WorkerPool::new(1));
        let base = std::env::temp_dir().join("venice-sweep-test");
        let _ = std::fs::remove_dir_all(&base);
        let dir = outcome.write(&base).expect("write artifact");
        assert!(dir.join("manifest.json").is_file());
        let point_file = dir.join(outcome.records()[0].point.file_name());
        let json = std::fs::read_to_string(point_file).expect("point record");
        assert!(json.contains("\"workload\": \"hm_0\""));
        let _ = std::fs::remove_dir_all(&base);
    }
}
