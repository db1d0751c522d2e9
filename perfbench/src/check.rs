//! Output checks and the behaviour fingerprint.

use venice_interconnect::FabricKind;
use venice_ssd::{RunMetrics, RunStatus, ScoutCacheKind};

use crate::workload::Expect;

/// FNV-1a offset basis: the fingerprint of no points.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a hash `h`.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Resets the fields that record only how hard the engine worked, not what
/// it simulated: the scout cache label and its fast-fail and invalidation
/// counters (the fields `benches/scout_walk.rs` lets differ). A pure-speed
/// change keeps the masked record; a model change alters it.
pub fn mask_effort(m: &mut RunMetrics) {
    m.scout_cache = ScoutCacheKind::Off;
    m.fabric.scout_fastfails = 0;
    m.fabric.scout_cache_invalidations = 0;
}

/// Checks one point's outputs against what its workload must show.
pub fn check_point(m: &RunMetrics, trace_len: usize, expect: Expect) -> Result<(), String> {
    if m.status != RunStatus::Complete {
        return Err(format!("run ended {}", m.status.label()));
    }
    let accounted = m.completed_requests + m.shed_requests;
    if accounted != trace_len as u64 {
        return Err(format!(
            "completed + shed = {accounted}, trace has {trace_len} requests"
        ));
    }
    if expect.fault_free && m.failed_requests != 0 {
        return Err(format!("{} requests failed", m.failed_requests));
    }
    if expect.gc && m.ftl.gc_erases == 0 {
        return Err("garbage collection erased no block".into());
    }
    if expect.scout_failures && m.system == FabricKind::Venice && m.fabric.scout_failed_steps == 0 {
        return Err("no scout walk failed on a congested mesh".into());
    }
    if expect.lossless && (m.data_loss_requests != 0 || m.rebuild_skipped_pages != 0) {
        return Err(format!(
            "parity lost data: {} requests lost, {} rebuild pages skipped",
            m.data_loss_requests, m.rebuild_skipped_pages
        ));
    }
    Ok(())
}
