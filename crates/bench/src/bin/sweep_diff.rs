//! Cross-sweep diff tool (the ROADMAP follow-up): compare two
//! `results/sweep_<name>/` artifacts point-by-point.
//!
//! ```sh
//! cargo run --release -p venice-bench --bin sweep_diff -- \
//!     results/sweep_scoutcache results/sweep_scoutcache_before
//! cargo run --release -p venice-bench --bin sweep_diff -- --strict a b
//! ```
//!
//! Each argument is a sweep directory (containing `manifest.json`) or a
//! manifest path. Points are matched **by label**, and a pair is identical
//! when its two parsed point records are equal in every field. For each
//! differing pair the tool reports deltas in the headline metrics
//! (execution time, events, conflicted requests, energy); it also prints
//! the manifests' grid and metrics fingerprints. Use it to diff the same grid before and after an
//! engine change, or — with `--ignore-scout-cache`, which folds the
//! label's scout-cache segment so a `--scout-cache on` run lines up with a
//! `--scout-cache off` run — a cache-on vs cache-off big-mesh sweep, where
//! every simulated-behavior metric must come out identical. Under that
//! flag the scout-cache label and its fast-fail and invalidation counters
//! (the only fields the cache may change) are removed from both records
//! before comparing, and the tool reports an effort-masked fingerprint per
//! side.
//!
//! Exit status: 0 when every matched point's compared metrics are equal
//! and the point sets match, 1 otherwise *only* under `--strict` (without
//! it the tool is purely informational and always exits 0).

use std::path::{Path, PathBuf};

use venice_bench::{fnv1a, FNV_OFFSET};
use venice_ssd::json::{ToJson, Value};

/// One point as indexed by a manifest: label, record file, headline values.
struct PointEntry {
    label: String,
    file: String,
    /// `"complete"`, `"aborted"`, or `"failed"` (manifests written before
    /// run status existed index as `"complete"`).
    status: String,
    execution_time_ns: u64,
    events: u64,
}

/// A loaded manifest: fingerprints plus the point index.
struct Manifest {
    dir: PathBuf,
    name: String,
    grid_hash: String,
    metrics_fingerprint: String,
    points: Vec<PointEntry>,
}

fn load_manifest(arg: &str) -> Manifest {
    let path = Path::new(arg);
    let (dir, manifest_path) = if path.is_dir() {
        (path.to_path_buf(), path.join("manifest.json"))
    } else {
        (
            path.parent().unwrap_or(Path::new(".")).to_path_buf(),
            path.to_path_buf(),
        )
    };
    let doc = std::fs::read_to_string(&manifest_path)
        .map_err(|e| e.to_string())
        .and_then(|json| Value::parse(&json).map_err(|e| e.to_string()))
        .unwrap_or_else(|e| panic!("cannot read manifest {}: {e}", manifest_path.display()));
    let text = |v: &Value, key| v.get(key).and_then(Value::as_str).map(str::to_string);
    let count = |v: &Value, key| v.get(key).and_then(Value::as_u64).unwrap_or(0);
    let points = doc
        .get("points")
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{}: no points index", manifest_path.display()))
        .iter()
        .filter_map(|p| {
            Some(PointEntry {
                label: text(p, "label")?,
                file: text(p, "file")?,
                status: text(p, "status").unwrap_or_else(|| "complete".to_string()),
                execution_time_ns: count(p, "execution_time_ns"),
                events: count(p, "events"),
            })
        })
        .collect();
    Manifest {
        name: text(&doc, "name").unwrap_or_default(),
        grid_hash: text(&doc, "grid_hash").unwrap_or_default(),
        metrics_fingerprint: text(&doc, "metrics_fingerprint").unwrap_or_default(),
        dir,
        points,
    }
}

/// A point's parsed record (`None` when unreadable or malformed), with the
/// cache-effort fields removed under `--ignore-scout-cache`.
fn load_record(m: &Manifest, p: &PointEntry, ignore_cache: bool) -> Option<Value> {
    let mut record = Value::parse(&std::fs::read_to_string(m.dir.join(&p.file)).ok()?).ok()?;
    if ignore_cache {
        remove_cache_effort(&mut record);
    }
    Some(record)
}

/// Percent delta of `b` relative to `a` (`0` when both zero).
fn pct(a: u64, b: u64) -> f64 {
    if a == 0 {
        if b == 0 { 0.0 } else { f64::INFINITY }
    } else {
        (b as f64 - a as f64) / a as f64 * 100.0
    }
}

/// Folds the scout-cache axis segment out of a point label so cache-on
/// and cache-off runs of the same grid match up.
fn fold_cache_segment(label: &str) -> String {
    let mut out = label.to_string();
    for seg in ["/cache-off", "/cache-on", "/cache-checked"] {
        out = out.replace(seg, "/cache-*");
    }
    out
}

/// The fields the scout cache may change: its label and its effort
/// counters.
const CACHE_EFFORT_KEYS: [&str; 3] = [
    "scout_cache",
    "scout_fastfails",
    "scout_cache_invalidations",
];

/// Removes the [`CACHE_EFFORT_KEYS`] wherever they sit in a record.
fn remove_cache_effort(value: &mut Value) {
    match value {
        Value::Object(members) => {
            members.retain(|(k, _)| !CACHE_EFFORT_KEYS.contains(&k.as_str()));
            members.iter_mut().for_each(|(_, v)| remove_cache_effort(v));
        }
        Value::Array(items) => items.iter_mut().for_each(remove_cache_effort),
        _ => {}
    }
}

/// FNV-1a over the effort-masked point records in manifest order; an
/// unreadable record folds in as empty.
fn masked_fingerprint(m: &Manifest) -> String {
    let h = m.points.iter().fold(FNV_OFFSET, |h, p| {
        let mut text = String::new();
        if let Some(record) = load_record(m, p, true) {
            record.write_json(&mut text);
        }
        fnv1a(text.as_bytes(), h)
    });
    format!("{h:016x}")
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut take_flag = |name: &str| -> bool {
        args.iter()
            .position(|a| a == name)
            .map(|at| args.remove(at))
            .is_some()
    };
    let strict = take_flag("--strict");
    let ignore_cache = take_flag("--ignore-scout-cache");
    if args.len() != 2 {
        eprintln!(
            "usage: sweep_diff [--strict] [--ignore-scout-cache] \
             <sweep-dir-or-manifest A> <B>"
        );
        std::process::exit(2);
    }
    let mut a = load_manifest(&args[0]);
    let mut b = load_manifest(&args[1]);
    if ignore_cache {
        for m in [&mut a, &mut b] {
            for p in &mut m.points {
                p.label = fold_cache_segment(&p.label);
            }
        }
    }

    println!("A: {} ({} points)  grid {}", a.name, a.points.len(), a.grid_hash);
    println!("B: {} ({} points)  grid {}", b.name, b.points.len(), b.grid_hash);
    if a.metrics_fingerprint == b.metrics_fingerprint {
        println!("metrics fingerprints MATCH ({}) — results are bit-identical", a.metrics_fingerprint);
    } else {
        println!(
            "metrics fingerprints differ: {} vs {}",
            a.metrics_fingerprint, b.metrics_fingerprint
        );
    }
    let mut masked_differ = false;
    if ignore_cache {
        let (fa, fb) = (masked_fingerprint(&a), masked_fingerprint(&b));
        masked_differ = fa != fb;
        if masked_differ {
            println!("effort-masked fingerprints differ: {fa} vs {fb}");
        } else {
            println!("effort-masked fingerprints MATCH ({fa}) — same simulated behaviour");
        }
    }

    let mut mismatched_points = 0usize;
    let mut missing_in_b = 0usize;
    let mut failed_points = 0usize;
    let mut compared = 0usize;
    // Pair points by (label, occurrence) in manifest order: labels can
    // legally repeat after `--ignore-scout-cache` folding (a manifest that
    // carries both cache modes, like the `scoutcache` grid), so each B
    // point is consumed at most once instead of first-match winning twice.
    let mut b_used = vec![false; b.points.len()];
    println!(
        "\n{:<64} {:>14} {:>10} {:>10} {:>12}",
        "point (label)", "exec Δ%", "events Δ%", "confl Δ", "energy"
    );
    for pa in &a.points {
        let Some(bi) =
            (0..b.points.len()).find(|&i| !b_used[i] && b.points[i].label == pa.label)
        else {
            println!("{:<64} -- only in A --", pa.label);
            missing_in_b += 1;
            continue;
        };
        b_used[bi] = true;
        let pb = &b.points[bi];
        // A panicked point's record is a placeholder, not metrics: report
        // it instead of diffing meaningless zeros.
        if pa.status == "failed" || pb.status == "failed" {
            let side = match (pa.status.as_str(), pb.status.as_str()) {
                ("failed", "failed") => "A and B",
                ("failed", _) => "A",
                _ => "B",
            };
            println!("{:<64} -- FAILED in {side} --", pa.label);
            failed_points += 1;
            continue;
        }
        compared += 1;
        let ra = load_record(&a, pa, ignore_cache);
        let rb = load_record(&b, pb, ignore_cache);
        // An unreadable record never matches: the gate compares whole
        // records, not just the manifest's headline numbers.
        let same = ra.is_some()
            && ra == rb
            && pa.execution_time_ns == pb.execution_time_ns
            && pa.events == pb.events;
        // Print only differing points (plus a one-line summary below);
        // identical points would drown the signal on big grids.
        if !same {
            mismatched_points += 1;
            let field = |r: &Option<Value>, key| r.as_ref().and_then(|r| r.get(key)).cloned();
            let conflicted = |r| {
                field(r, "conflicted_requests")
                    .and_then(|v| v.as_u64())
                    .unwrap_or(0)
            };
            let energy_same = field(&ra, "energy_mj") == field(&rb, "energy_mj");
            println!(
                "{:<64} {:>+13.3}% {:>+9.3}% {:>+10} {:>12}",
                pa.label,
                pct(pa.execution_time_ns, pb.execution_time_ns),
                pct(pa.events, pb.events),
                conflicted(&rb) as i64 - conflicted(&ra) as i64,
                if energy_same { "same" } else { "DIFFERS" },
            );
            if ra.is_none() || rb.is_none() {
                println!("    point record unreadable in A or B");
            }
        }
    }
    let only_in_b = b_used.iter().filter(|&&u| !u).count();
    for (pb, used) in b.points.iter().zip(&b_used) {
        if !used {
            println!("{:<64} -- only in B --", pb.label);
        }
    }

    println!(
        "\n{compared} points compared: {} identical, {mismatched_points} differing; \
         {failed_points} failed, {missing_in_b} only in A, {only_in_b} only in B",
        compared - mismatched_points
    );
    if strict
        && (mismatched_points > 0
            || missing_in_b > 0
            || only_in_b > 0
            || failed_points > 0
            || masked_differ)
    {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_hides_only_the_cache_effort_fields() {
        let parse = |s: &str| {
            let mut v = Value::parse(s).unwrap();
            remove_cache_effort(&mut v);
            v
        };
        let on = "{\"scout_cache\": \"cache-on\",\n  \"fabric\": {\"scout_steps\": 9, \
                  \"scout_fastfails\": 14, \"scout_cache_invalidations\": 3, \"hops_total\": 5}}";
        let off = on
            .replace("cache-on", "cache-off")
            .replace("\"scout_fastfails\": 14", "\"scout_fastfails\": 0")
            .replace("\"scout_cache_invalidations\": 3", "\"scout_cache_invalidations\": 0");
        assert_eq!(parse(on), parse(&off));
        assert_eq!(
            parse(on).get("fabric").and_then(|f| f.get("scout_steps")),
            Some(&Value::U64(9))
        );
        let other = on.replace("\"scout_steps\": 9", "\"scout_steps\": 8");
        assert_ne!(parse(on), parse(&other));
    }
}
