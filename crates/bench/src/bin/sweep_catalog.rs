//! Design-space sweep CLI: expand a named grid, run it on the shared
//! worker pool, print a per-point table, and write a reproducible artifact
//! under `results/sweep_<grid>/`.
//!
//! ```sh
//! cargo run --release -p venice-bench --bin sweep_catalog -- --grid mini
//! cargo run --release -p venice-bench --bin sweep_catalog -- --grid shapes --requests 1000
//! cargo run --release -p venice-bench --bin sweep_catalog -- --list
//! ```
//!
//! Grids: `mini` (3 workloads × Baseline/Venice smoke test, 200 requests
//! unless overridden), `table2` (the whole catalog × all six systems),
//! `mixes` (Table 3), `shapes` (4×16 / 8×8 / 16×4 reshapes plus the 16×16 /
//! 32×32 big meshes), `nand` (z-nand vs tlc-3d timing axis), `qd`
//! (queue-depth axis), `design` (shape × timing × queue-depth cross on a
//! workload subset), `policy` (dispatch-policy ablation on the congested
//! bursty workload plus two catalog entries), `bigmesh` (8×8 / 16×16 /
//! 32×32 meshes × retry-all/auto policies on congestion-heavy traffic —
//! the incremental ready-set dispatcher is what makes these cheap enough
//! to sweep), `scoutcache` (the scout fast-fail cache ablation: cache-off
//! vs cache-on Venice on congested 16×16/32×32 meshes; diff the two
//! halves with the `sweep_diff` bin), `faults` (the degraded-mode
//! ablation: every fault plan × the five real fabrics on congestion-heavy
//! traffic; also distills `results/fault_ablation.json` comparing Venice
//! against the bus fabrics under a single link failure), `tenants` (the
//! multi-tenant QoS ablation: the victim-solo / noisy-neighbor scenario
//! pair × every tenant-set preset × the bus fabrics and Venice; also
//! distills `results/tenant_isolation.json` comparing each fabric's
//! victim-tenant p99 degradation under the aggressor burst), `resilience`
//! (the host-resilience ablation: congestion-heavy traffic × fault-free,
//! permanent-link, and fault-storm plans × every resilience preset ×
//! single vs deadline-split tenant sets × the five real fabrics; also
//! distills `results/resilience_ablation.json` comparing Venice against
//! the bus fabrics' goodput under the link fault with the full resilience
//! layer armed), `rebuild` (the RAIN redundancy ablation: congestion-heavy
//! traffic × the permanent chip-death plan × no-redundancy vs die-level
//! parity × the five real fabrics; also distills
//! `results/rebuild_ablation.json` comparing data loss, degraded-read
//! service, and rebuild MTTR across fabrics).
//!
//! Sweeps are *resumable*: when `results/sweep_<grid>/grid.json` holds
//! this grid's exact definition, points whose record file holds a whole,
//! non-failed record are reused instead of re-simulated; `--fresh` forces
//! a full re-run.
//!
//! Flags: `--grid <name>`, `--requests <n>` (default: the grid's own;
//! `VENICE_REQUESTS` for `table2`/`mixes`/`shapes`/`nand`/`qd`/`design`),
//! `--par <n>` (dedicated pool size; default: the shared pool),
//! `--systems a,b,c` (override the fabric axis by label, e.g.
//! `Baseline,Venice`), `--scout-cache <off|on|checked>` (override the
//! scout fast-fail-cache axis), `--fresh`, `--list`.

use std::path::Path;

use venice_bench::report_sweep;
use venice_bench::sweep::{SweepGrid, SweepOutcome, SweepPoint, WorkerPool};
use venice_interconnect::FabricKind;
use venice_nand::NandTiming;
use venice_ssd::json::{Layout, Value, Writer};
use venice_ssd::{
    all_systems, DispatchPolicyKind, FaultPlan, RedundancyKind, ResiliencePolicy, ScoutCacheKind,
    SsdConfig, TenantSet,
};
use venice_workloads::WorkloadAxis;

/// The read-intensity-diverse workload subset used by the multi-axis grids
/// (running the full catalog across a cross of axes would be hours, not a
/// smoke-able sweep).
const SUBSET: [&str; 5] = ["hm_0", "proj_3", "src1_0", "YCSB_B", "ssd-10"];

fn subset_axes() -> Vec<WorkloadAxis> {
    SUBSET
        .iter()
        .map(|n| WorkloadAxis::catalog(n).expect("subset workload in catalog"))
        .collect()
}

/// Builds a named grid; `None` for an unknown name. `requests` of `None`
/// means the grid's own default (`VENICE_REQUESTS` unless the grid sets
/// one).
fn named_grid(name: &str, requests: Option<usize>) -> Option<SweepGrid> {
    let grid = match name {
        "mini" => SweepGrid::new("mini")
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .workload(WorkloadAxis::catalog("proj_3").expect("catalog"))
            .workload(WorkloadAxis::catalog("YCSB_B").expect("catalog"))
            .fabrics(&[FabricKind::Baseline, FabricKind::Venice])
            .requests(200),
        "table2" => SweepGrid::new("table2")
            .workloads(WorkloadAxis::table2())
            .fabrics(&all_systems()),
        "mixes" => SweepGrid::new("mixes")
            .workloads(WorkloadAxis::table3())
            .fabrics(&all_systems()),
        "shapes" => SweepGrid::new("shapes")
            .workloads(subset_axes())
            .shapes(&[(4, 16), (8, 8), (16, 4), (16, 16), (32, 32)])
            .fabrics(&[
                FabricKind::Baseline,
                FabricKind::NoSsd,
                FabricKind::Venice,
                FabricKind::Ideal,
            ]),
        "nand" => SweepGrid::new("nand")
            .workloads(subset_axes())
            .timings(&[NandTiming::z_nand(), NandTiming::tlc_3d()])
            .fabrics(&[FabricKind::Baseline, FabricKind::Venice, FabricKind::Ideal]),
        "qd" => SweepGrid::new("qd")
            .workloads(subset_axes())
            .queue_depths(&[2, 8, 32])
            .fabrics(&[FabricKind::Baseline, FabricKind::Venice]),
        "design" => SweepGrid::new("design")
            .workloads(subset_axes())
            .shapes(&[(4, 16), (8, 8), (16, 4)])
            .timings(&[NandTiming::z_nand(), NandTiming::tlc_3d()])
            .queue_depths(&[4, 16])
            .fabrics(&[FabricKind::Baseline, FabricKind::Venice]),
        "policy" => SweepGrid::new("policy")
            .workload(WorkloadAxis::congested())
            .workload(WorkloadAxis::catalog("src2_1").expect("catalog"))
            .workload(WorkloadAxis::catalog("YCSB_B").expect("catalog"))
            .policies(&DispatchPolicyKind::ALL)
            .fabrics(&[FabricKind::Baseline, FabricKind::Venice])
            .requests(800),
        "bigmesh" => SweepGrid::new("bigmesh")
            .workload(WorkloadAxis::congested())
            .workload(WorkloadAxis::catalog("src2_1").expect("catalog"))
            .shapes(&[(8, 8), (16, 16), (32, 32)])
            .policies(&[DispatchPolicyKind::RetryAll, DispatchPolicyKind::Auto])
            .fabrics(&[FabricKind::Baseline, FabricKind::NoSsd, FabricKind::Venice])
            .requests(400),
        "faults" => SweepGrid::new("faults")
            .workload(WorkloadAxis::congested())
            .workload(WorkloadAxis::catalog("src2_1").expect("catalog"))
            .fault_plans(&FaultPlan::ALL)
            .fabrics(&[
                FabricKind::Baseline,
                FabricKind::Pssd,
                FabricKind::PnSsd,
                FabricKind::NoSsd,
                FabricKind::Venice,
            ])
            .requests(400),
        "tenants" => SweepGrid::new("tenants")
            .workload(WorkloadAxis::victim_solo())
            .workload(WorkloadAxis::noisy_neighbor())
            .workload(WorkloadAxis::noisy_neighbor_trio())
            .queue_depths(&[32])
            .tenant_sets(&TenantSet::presets())
            .fabrics(&[
                FabricKind::Baseline,
                FabricKind::Pssd,
                FabricKind::PnSsd,
                FabricKind::Venice,
            ])
            .requests(600),
        "resilience" => SweepGrid::new("resilience")
            .workload(WorkloadAxis::congested())
            .workload(WorkloadAxis::catalog("src2_1").expect("catalog"))
            .fault_plans(&[FaultPlan::None, FaultPlan::Link, FaultPlan::Storm])
            .tenant_sets(&[TenantSet::single(), TenantSet::deadline_split()])
            .resilience_policies(&ResiliencePolicy::ALL)
            .fabrics(&[
                FabricKind::Baseline,
                FabricKind::Pssd,
                FabricKind::PnSsd,
                FabricKind::NoSsd,
                FabricKind::Venice,
            ])
            .requests(800),
        "rebuild" => SweepGrid::new("rebuild")
            .workload(WorkloadAxis::congested())
            .fault_plans(&[FaultPlan::Chip, FaultPlan::ChipAndLink])
            .resilience_policies(&[ResiliencePolicy::DeadlineRetry])
            .redundancy_kinds(&RedundancyKind::ALL)
            .fabrics(&[
                FabricKind::Baseline,
                FabricKind::Pssd,
                FabricKind::PnSsd,
                FabricKind::NoSsd,
                FabricKind::Venice,
            ])
            .requests(800),
        "scoutcache" => SweepGrid::new("scoutcache")
            .workload(WorkloadAxis::congested())
            .workload(WorkloadAxis::catalog("src2_1").expect("catalog"))
            .shapes(&[(16, 16), (32, 32)])
            .policies(&[DispatchPolicyKind::RetryAll, DispatchPolicyKind::Auto])
            .scout_caches(&[ScoutCacheKind::Off, ScoutCacheKind::On])
            .fabrics(&[FabricKind::Venice])
            .requests(400),
        _ => return None,
    };
    let grid = grid.config(SsdConfig::performance_optimized());
    Some(match requests {
        Some(r) => grid.requests(r),
        None => grid,
    })
}

const GRID_NAMES: [&str; 14] = [
    "mini", "table2", "mixes", "shapes", "nand", "qd", "design", "policy", "bigmesh",
    "scoutcache", "faults", "tenants", "resilience", "rebuild",
];

/// Running means keyed by axis coordinates, in first-seen key order.
struct MeanBy<K> {
    cells: Vec<(K, f64, u32)>,
}

impl<K: PartialEq> MeanBy<K> {
    fn new() -> Self {
        MeanBy { cells: Vec::new() }
    }

    fn add(&mut self, key: K, x: f64) {
        match self.cells.iter_mut().find(|(k, _, _)| *k == key) {
            Some((_, sum, n)) => {
                *sum += x;
                *n += 1;
            }
            None => self.cells.push((key, x, 1)),
        }
    }

    fn mean(&self, key: &K) -> Option<f64> {
        self.means().find(|(k, _)| *k == key).map(|(_, m)| m)
    }

    fn means(&self) -> impl Iterator<Item = (&K, f64)> {
        self.cells
            .iter()
            .map(|(k, sum, n)| (k, sum / f64::from(*n)))
    }
}

/// The sweep's point records, parsed, beside their grid coordinates. A
/// record that does not parse reads as empty (every field absent).
fn parsed_points(outcome: &SweepOutcome) -> Vec<(&SweepPoint, Value)> {
    outcome
        .points()
        .iter()
        .zip(outcome.point_jsons())
        .map(|(p, json)| (p, Value::parse(json).unwrap_or(Value::Null)))
        .collect()
}

/// A number at `path` in a parsed point record, as `f64`.
fn num(record: &Value, path: &[&str]) -> Option<f64> {
    record.at(path)?.as_f64()
}

/// An exact count at `path` in a parsed point record (zero when absent).
fn count(record: &Value, path: &[&str]) -> u64 {
    record.at(path).and_then(Value::as_u64).unwrap_or(0)
}

/// One tenant's entry in a point record's `tenants` array, by name.
fn tenant<'a>(record: &'a Value, name: &str) -> Option<&'a Value> {
    record
        .get("tenants")?
        .as_array()?
        .iter()
        .find(|t| t.get("name").and_then(Value::as_str) == Some(name))
}

/// Starts an ablation document: one member per line, opening with its
/// `name` and source `grid`.
fn ablation_doc<'a>(out: &'a mut String, name: &str, grid: &str) -> Writer<'a> {
    let mut w = Writer::new(out);
    w.object(Layout::Block)
        .field("name", name)
        .field("grid", grid);
    w
}

/// Distills the `faults` grid into `results/fault_ablation.json`: one
/// entry per point plus per-(plan × fabric) mean availability, with a
/// headline comparing Venice against the bus fabrics under the single-link
/// plan (the bus loses a whole row to one dead link; the mesh reroutes).
fn write_fault_ablation(outcome: &SweepOutcome, path: &Path) {
    let records = parsed_points(outcome);
    let availability = |r: &Value| num(r, &["faults", "availability"]).unwrap_or(0.0);
    // (plan label, fabric label) -> mean availability
    let mut agg = MeanBy::new();
    for (p, r) in &records {
        agg.add((p.fault_plan.label(), p.fabric.label()), availability(r));
    }
    let mean = |plan, fabric| agg.mean(&(plan, fabric));
    // Two-tier headline. A single dead link strands a whole row on the
    // row-bus designs (Baseline, pSSD) while the mesh reroutes; pnSSD's
    // row+column redundancy genuinely survives one bus outage, so the
    // all-bus comparison uses the crossing row+column pair (`link-cross`),
    // where only the mesh fabrics still have path diversity left.
    let venice_link = mean("link", "Venice").unwrap_or(0.0);
    let best_row_bus = ["Baseline", "pSSD"]
        .iter()
        .filter_map(|b| mean("link", b))
        .fold(0.0f64, f64::max);
    let venice_cross = mean("link-cross", "Venice").unwrap_or(0.0);
    let best_bus_cross = ["Baseline", "pSSD", "pnSSD"]
        .iter()
        .filter_map(|b| mean("link-cross", b))
        .fold(0.0f64, f64::max);
    let sustains = venice_link > best_row_bus && venice_cross > best_bus_cross;
    let mut doc = String::new();
    let mut w = ablation_doc(&mut doc, "fault_ablation", "faults");
    w.key("headline")
        .object(Layout::Inline)
        .field("venice_sustains_higher", sustains);
    w.key("single_link")
        .object(Layout::Inline)
        .field("fault_plan", "link")
        .field("venice_availability", venice_link)
        .field("best_row_bus_availability", best_row_bus)
        .end();
    w.key("crossing_links")
        .object(Layout::Inline)
        .field("fault_plan", "link-cross")
        .field("venice_availability", venice_cross)
        .field("best_bus_availability", best_bus_cross)
        .end()
        .end();
    w.key("availability_by_plan").array(Layout::Block);
    for ((plan, fabric), m) in agg.means() {
        w.object(Layout::Inline)
            .field("fault_plan", plan)
            .field("fabric", fabric)
            .field("mean_availability", m)
            .end();
    }
    w.end().key("points").array(Layout::Block);
    for (p, r) in &records {
        w.object(Layout::Inline)
            .field("label", &p.label)
            .field("workload", &p.workload)
            .field("fabric", p.fabric.label())
            .field("fault_plan", p.fault_plan.label())
            .field("completed_requests", count(r, &["completed_requests"]))
            .field("failed_requests", count(r, &["faults", "failed_requests"]))
            .field("availability", availability(r))
            .end();
    }
    w.end().end();
    venice_bench::write_result(path, "fault ablation", &doc);
}

/// Distills the `tenants` grid into `results/tenant_isolation.json`.
///
/// For each fabric, the victim tenant's p99 under the aggressor burst
/// (the `noisy-neighbor` workload) is compared against the same stream
/// running alone (`victim-solo` × the `single` tenant set): the ratio is
/// the fabric's *victim degradation*. The headline
/// `venice_protects_victim` asserts Venice's degradation under the
/// fair-share tenant set is strictly lower than every bus design's — path
/// diversity, not just queue arbitration, is what isolates the victim.
fn write_tenant_isolation(outcome: &SweepOutcome, path: &Path) {
    let records = parsed_points(outcome);
    let p99 = |r, name| tenant(r, name).and_then(|t| num(t, &["p99_ns"]));
    // Single-tenant points carry one pooled "all" tenant; the victim
    // stream is tenant "victim" on the multi-tenant sets.
    let victim = |r| p99(r, "victim").or_else(|| p99(r, "all")).unwrap_or(0.0);
    // (workload, tenant set, fabric) -> victim p99 ns
    let mut victim_p99 = MeanBy::new();
    for (p, r) in &records {
        victim_p99.add(
            (p.workload.as_str(), p.tenants.as_str(), p.fabric.label()),
            victim(r),
        );
    }
    // Victim p99 degradation per fabric: shared run over solo run.
    let degradation = |fabric, set| {
        let p99 = |workload, set| {
            victim_p99
                .mean(&(workload, set, fabric))
                .filter(|v| *v > 0.0)
        };
        Some(p99("noisy-neighbor", set)? / p99("victim-solo", "single")?)
    };
    let buses = ["Baseline", "pSSD", "pnSSD"];
    let venice = degradation("Venice", "pair-fair").unwrap_or(f64::MAX);
    let worst_bus = buses
        .iter()
        .filter_map(|b| degradation(b, "pair-fair"))
        .fold(0.0f64, f64::max);
    let best_bus = buses
        .iter()
        .filter_map(|b| degradation(b, "pair-fair"))
        .fold(f64::MAX, f64::min);
    let mut doc = String::new();
    let mut w = ablation_doc(&mut doc, "tenant_isolation", "tenants");
    w.key("headline")
        .object(Layout::Inline)
        .field("venice_protects_victim", venice < best_bus)
        .field("venice_victim_p99_degradation", venice)
        .field("best_bus_victim_p99_degradation", best_bus)
        .field("worst_bus_victim_p99_degradation", worst_bus)
        .end();
    w.key("victim_p99_degradation_by_fabric")
        .array(Layout::Block);
    for fabric in ["Baseline", "pSSD", "pnSSD", "Venice"] {
        w.object(Layout::Inline)
            .field("fabric", fabric)
            .field("pair_fair", degradation(fabric, "pair-fair").unwrap_or(0.0))
            .field(
                "victim_boost",
                degradation(fabric, "victim-boost").unwrap_or(0.0),
            )
            .end();
    }
    w.end().key("points").array(Layout::Block);
    for (p, r) in &records {
        w.object(Layout::Inline)
            .field("label", &p.label)
            .field("workload", &p.workload)
            .field("tenants", &p.tenants)
            .field("fabric", p.fabric.label())
            .field("victim_p99_ns", victim(r))
            .field("aggressor_p99_ns", p99(r, "aggressor"))
            .field("fairness_index", num(r, &["fairness_index"]).unwrap_or(1.0))
            .end();
    }
    w.end().end();
    venice_bench::write_result(path, "tenant isolation", &doc);
}

/// Distills the `resilience` grid into `results/resilience_ablation.json`:
/// one entry per point plus per-(plan × policy × fabric) mean goodput
/// (deadline-met completions per second), with a headline comparing
/// Venice against the bus fabrics under the permanent link fault with the
/// full resilience layer armed. Venice keeps more requests inside their
/// deadlines when faults and overload hit together — path diversity turns
/// the host layer's aborts and retries into recovered goodput instead of
/// repeated misses against a dead row.
fn write_resilience_ablation(outcome: &SweepOutcome, path: &Path) {
    let records = parsed_points(outcome);
    let goodput = |r: &Value| num(r, &["resilience", "goodput"]).unwrap_or(0.0);
    // (fault plan, resilience policy, tenant set, fabric) -> mean goodput
    let mut agg = MeanBy::new();
    for (p, r) in &records {
        let key = (
            p.fault_plan.label(),
            p.resilience.label(),
            p.tenants.as_str(),
            p.fabric.label(),
        );
        agg.add(key, goodput(r));
    }
    // Headline means are scoped to the single-tenant rows so adding the
    // deadline-split axis can never shift the fabric comparison.
    let mean = |plan, policy, fabric| agg.mean(&(plan, policy, "single", fabric));
    // Headline: the permanent link fault with the whole host layer armed.
    // The bus fabrics lose a whole row to the dead link, so a slice of
    // every tenant's requests burns through its retry budget and goes
    // terminal while the survivors' tails push past the deadline; Venice
    // reroutes around the fault and keeps completions inside their
    // deadlines. (The storm plan's outages are short-lived repairs that
    // every fabric rides out, so it differentiates policies, not fabrics —
    // its cells are in `goodput_by_policy` but not the headline.)
    let venice = mean("link", "full", "Venice").unwrap_or(0.0);
    let best_bus = ["Baseline", "pSSD", "pnSSD"]
        .iter()
        .filter_map(|b| mean("link", "full", b))
        .fold(0.0f64, f64::max);
    let mut doc = String::new();
    let mut w = ablation_doc(&mut doc, "resilience_ablation", "resilience");
    w.key("headline")
        .object(Layout::Inline)
        .field("venice_highest_goodput", venice > best_bus)
        .field("fault_plan", "link")
        .field("resilience", "full")
        .field("venice_goodput", venice)
        .field("best_bus_goodput", best_bus)
        .end();
    w.key("goodput_by_policy").array(Layout::Block);
    for ((plan, policy, tenants, fabric), m) in agg.means() {
        w.object(Layout::Inline)
            .field("fault_plan", plan)
            .field("resilience", policy)
            .field("tenants", tenants)
            .field("fabric", fabric)
            .field("mean_goodput", m)
            .end();
    }
    w.end().key("points").array(Layout::Block);
    for (p, r) in &records {
        // On deadline-split points, the per-class miss counts show the
        // latency class absorbing the policy's pressure while the batch
        // class (relaxed deadline) and the unarmed class stay clean.
        let class_misses = |name| tenant(r, name).map_or(0, |t| count(t, &["deadline_misses"]));
        w.object(Layout::Inline)
            .field("label", &p.label)
            .field("workload", &p.workload)
            .field("fabric", p.fabric.label())
            .field("fault_plan", p.fault_plan.label())
            .field("resilience", p.resilience.label())
            .field("tenants", &p.tenants)
            .field("completed_requests", count(r, &["completed_requests"]))
            .field("deadline_met", count(r, &["resilience", "deadline_met"]))
            .field(
                "deadline_misses",
                count(r, &["resilience", "deadline_misses"]),
            )
            .field("latency_class_misses", class_misses("victim"))
            .field("batch_class_misses", class_misses("batch"))
            .field("host_retries", count(r, &["resilience", "host_retries"]))
            .field("shed_requests", count(r, &["resilience", "shed_requests"]))
            .field("goodput", goodput(r))
            .end();
    }
    w.end().end();
    venice_bench::write_result(path, "resilience ablation", &doc);
}

/// Simulated nanosecond at which [`FaultPlan::Chip`] kills its die — the
/// MTTR clock's start (`rebuild_done_ns - CHIP_DEATH_NS`).
const CHIP_DEATH_NS: f64 = 20_000.0;

/// One parity cell of the rebuild grid: the numbers the headline booleans
/// compare per `(fault plan, fabric)` coordinate.
struct RebuildCell {
    fault: &'static str,
    redundancy: String,
    fabric: &'static str,
    data_loss: u64,
    goodput: f64,
    mttr_ns: f64,
    rebuilt: u64,
    skipped: u64,
}

impl RebuildCell {
    /// A recovery is complete only when every dead-chip page was actually
    /// reconstructed: the engine drained (`mttr_ns > 0`), rebuilt
    /// something, and skipped nothing. A bus fabric whose severed row
    /// hides the survivors drains *fast* but skips every page — that is a
    /// failed recovery, not a low MTTR.
    fn recovered(&self) -> bool {
        self.mttr_ns > 0.0 && self.rebuilt > 0 && self.skipped == 0
    }
}

/// Distills the `rebuild` grid into `results/rebuild_ablation.json`: one
/// entry per point plus a headline with three claims. (1) Die-level
/// parity turns the permanent chip death from silent data loss into
/// degraded-but-correct service: every parity point on every fabric and
/// fault plan has zero [`venice_ssd::RequestOutcome::DataLoss`] requests.
/// (2, 3) On the `chip-link` plan — the chip death landing on an
/// already-degraded fabric: the severed row link plus the crossing column
/// cut through the east-neighbor survivor — Venice sustains the highest
/// foreground goodput (successful completions only) AND the lowest
/// rebuild MTTR of the bus designs, *completing* the recovery: Baseline
/// and pSSD cannot reach the survivors behind the severed row bus, and
/// even pnSSD's row+column redundancy loses the east-neighbor survivor,
/// so strict parity forces their rebuilds to skip pages (an incomplete
/// recovery never wins the MTTR comparison, however fast it drained).
/// NoSSD, the other mesh, is excluded from the booleans (its points still
/// land in the artifact), mirroring the bus-only precedent of the fault,
/// tenant-isolation, and resilience ablation headlines.
fn write_rebuild_ablation(outcome: &SweepOutcome, path: &Path) {
    let records = parsed_points(outcome);
    let cells: Vec<RebuildCell> = records
        .iter()
        .map(|(p, r)| {
            let completed = num(r, &["completed_requests"]).unwrap_or(0.0);
            let failed = num(r, &["faults", "failed_requests"]).unwrap_or(0.0);
            let exec_ns = num(r, &["execution_time_ns"]).unwrap_or(0.0);
            let done_ns = num(r, &["redundancy", "rebuild_done_ns"]).unwrap_or(0.0);
            // Successful completions only: a fabric that fast-fails the
            // severed row's requests must not "win" goodput on error
            // completions it never actually served.
            let goodput = if exec_ns > 0.0 {
                (completed - failed).max(0.0) / (exec_ns / 1e9)
            } else {
                0.0
            };
            let mttr_ns = if done_ns > CHIP_DEATH_NS {
                done_ns - CHIP_DEATH_NS
            } else {
                0.0
            };
            RebuildCell {
                fault: p.fault_plan.label(),
                redundancy: p.redundancy.label(),
                fabric: p.fabric.label(),
                data_loss: count(r, &["redundancy", "data_loss_requests"]),
                goodput,
                mttr_ns,
                rebuilt: count(r, &["redundancy", "rebuilt_pages"]),
                skipped: count(r, &["redundancy", "rebuild_skipped_pages"]),
            }
        })
        .collect();
    let parity: Vec<&RebuildCell> = cells
        .iter()
        .filter(|c| c.redundancy.starts_with("parity"))
        .collect();
    // Claim 1: parity turns the chip death into zero data-loss requests on
    // every fabric and every plan (the no-redundancy half records the
    // losses for contrast).
    let parity_zero_data_loss = !parity.is_empty() && parity.iter().all(|c| c.data_loss == 0);
    let bare_data_loss: u64 = cells
        .iter()
        .filter(|c| c.redundancy == "none")
        .map(|c| c.data_loss)
        .sum();
    // Claims 2 and 3 read the chip-link parity points: the degraded-fabric
    // head-to-head where the fabric — not the NAND — is the rebuild's
    // bottleneck, bus-scoped per the repo's ablation precedent.
    let bus = |f: &str| matches!(f, "Baseline" | "pSSD" | "pnSSD");
    let head: Vec<&&RebuildCell> = parity.iter().filter(|c| c.fault == "chip-link").collect();
    let venice = head.iter().find(|c| c.fabric == "Venice");
    let rivals: Vec<&&RebuildCell> = head.iter().copied().filter(|c| bus(c.fabric)).collect();
    let venice_highest_goodput = venice.is_some_and(|v| {
        !rivals.is_empty() && rivals.iter().all(|c| v.goodput > c.goodput)
    });
    let venice_lowest_mttr = venice.is_some_and(|v| {
        v.recovered()
            && !rivals.is_empty()
            && rivals.iter().all(|c| !c.recovered() || v.mttr_ns < c.mttr_ns)
    });
    let (venice_goodput, venice_mttr) =
        venice.map_or((0.0, 0.0), |v| (v.goodput, v.mttr_ns));
    let mut doc = String::new();
    let mut w = ablation_doc(&mut doc, "rebuild_ablation", "rebuild");
    w.key("headline")
        .object(Layout::Inline)
        .field("parity_zero_data_loss", parity_zero_data_loss)
        .field("venice_highest_goodput", venice_highest_goodput)
        .field("venice_lowest_mttr", venice_lowest_mttr)
        .field("bare_data_loss_requests", bare_data_loss)
        .field("venice_foreground_goodput", venice_goodput)
        .field("venice_mttr_ns", venice_mttr)
        .end();
    w.key("points").array(Layout::Block);
    for ((p, r), c) in records.iter().zip(&cells) {
        w.object(Layout::Inline)
            .field("label", &p.label)
            .field("workload", &p.workload)
            .field("fault", c.fault)
            .field("fabric", c.fabric)
            .field("redundancy", &c.redundancy)
            .field("completed_requests", count(r, &["completed_requests"]))
            .field("data_loss_requests", c.data_loss)
            .field(
                "degraded_reads",
                count(r, &["redundancy", "degraded_reads"]),
            )
            .field("rebuilt_pages", c.rebuilt)
            .field("rebuild_skipped_pages", c.skipped)
            .field("rebuild_mttr_ns", c.mttr_ns)
            .field("foreground_goodput", c.goodput)
            .end();
    }
    w.end().end();
    venice_bench::write_result(path, "rebuild ablation", &doc);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut grid_name = "table2".to_string();
    let mut requests: Option<usize> = None;
    let mut par: Option<usize> = None;
    let mut systems: Option<Vec<FabricKind>> = None;
    let mut scout_cache: Option<ScoutCacheKind> = None;
    let mut fresh = false;
    let mut i = 0;
    while i < args.len() {
        let flag_value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| panic!("missing value after {}", args[*i - 1]))
                .clone()
        };
        match args[i].as_str() {
            "--list" => {
                println!("available grids:");
                for name in GRID_NAMES {
                    let g = named_grid(name, None).expect("named grid");
                    println!("  {:<8} {} points", name, g.build_points().len());
                }
                return;
            }
            "--grid" => grid_name = flag_value(&mut i),
            "--requests" => {
                requests = Some(flag_value(&mut i).parse().expect("--requests takes a number"))
            }
            "--par" => par = Some(flag_value(&mut i).parse().expect("--par takes a number")),
            "--scout-cache" => {
                let v = flag_value(&mut i);
                scout_cache = Some(ScoutCacheKind::by_label(&v).unwrap_or_else(|| {
                    panic!("unknown scout-cache mode {v:?} (off|on|checked)")
                }));
            }
            "--fresh" => fresh = true,
            "--systems" => {
                systems = Some(
                    flag_value(&mut i)
                        .split(',')
                        .map(|label| {
                            FabricKind::by_label(label.trim())
                                .unwrap_or_else(|| panic!("unknown system {label:?}"))
                        })
                        .collect(),
                )
            }
            other => panic!("unknown flag {other:?} (try --list)"),
        }
        i += 1;
    }
    let mut grid = named_grid(&grid_name, requests).unwrap_or_else(|| {
        panic!("unknown grid {grid_name:?}; available: {}", GRID_NAMES.join(", "))
    });
    if let Some(systems) = systems {
        grid = grid.replace_fabrics(&systems);
    }
    if let Some(cache) = scout_cache {
        grid = grid.replace_scout_caches(&[cache]);
    }
    let results = venice_bench::results_dir();
    let outcome = match par {
        Some(par) => grid.run_resumable(&results, &WorkerPool::new(par), fresh),
        None => grid.run_resumable(&results, WorkerPool::global(), fresh),
    };
    report_sweep(&outcome, &results);
    if grid_name == "faults" {
        write_fault_ablation(&outcome, &results.join("fault_ablation.json"));
    }
    if grid_name == "tenants" {
        write_tenant_isolation(&outcome, &results.join("tenant_isolation.json"));
    }
    if grid_name == "resilience" {
        write_resilience_ablation(&outcome, &results.join("resilience_ablation.json"));
    }
    if grid_name == "rebuild" {
        write_rebuild_ablation(&outcome, &results.join("rebuild_ablation.json"));
    }
}
