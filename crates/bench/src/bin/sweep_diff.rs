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
//! manifest path. Points are matched **by label**; for every pair the tool
//! reports deltas in the headline metrics (execution time, events, and —
//! when the per-point records are readable — conflicted requests and
//! energy), plus the manifests' grid/metrics fingerprints. Use it to diff
//! the same grid before and after an engine change, or — with
//! `--ignore-scout-cache`, which folds the label's scout-cache segment so
//! a `--scout-cache on` run lines up with a `--scout-cache off` run — a
//! cache-on vs cache-off big-mesh sweep, where every simulated-behavior
//! metric must come out identical. Under that flag the tool also compares
//! each pair's *whole* point record, and reports an effort-masked
//! fingerprint per side, with the scout-cache label and its fast-fail and
//! invalidation counters masked (the only fields the cache may change).
//!
//! Exit status: 0 when every matched point's compared metrics are equal
//! and the point sets match, 1 otherwise *only* under `--strict` (without
//! it the tool is purely informational and always exits 0).

use std::path::{Path, PathBuf};

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

/// Extracts the string value of the **first** `"key": "..."` field.
fn json_str_field(json: &str, key: &str) -> Option<String> {
    venice_bench::microbench::json_str_fields(json, key)
        .into_iter()
        .next()
}

/// Extracts the unsigned integer right after the first `"key": ` in `json`
/// (kept exact — the shared f64 extractor would lose precision on large
/// event counts).
fn json_u64_field(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let at = json.find(&needle)?;
    let digits: String = json[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Extracts the raw token (number) after the first `"key": ` occurrence.
fn json_raw_field(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": ");
    let at = json.find(&needle)?;
    let rest = &json[at + needle.len()..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim().to_string())
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
    let json = std::fs::read_to_string(&manifest_path).unwrap_or_else(|e| {
        panic!("cannot read manifest {}: {e}", manifest_path.display())
    });
    let points_at = json
        .find("\"points\": [")
        .unwrap_or_else(|| panic!("{}: no points index", manifest_path.display()));
    let mut points = Vec::new();
    for line in json[points_at..].lines() {
        let line = line.trim();
        if !line.starts_with('{') {
            continue;
        }
        let (Some(label), Some(file)) =
            (json_str_field(line, "label"), json_str_field(line, "file"))
        else {
            continue;
        };
        points.push(PointEntry {
            label,
            file,
            status: json_str_field(line, "status").unwrap_or_else(|| "complete".to_string()),
            execution_time_ns: json_u64_field(line, "execution_time_ns").unwrap_or(0),
            events: json_u64_field(line, "events").unwrap_or(0),
        });
    }
    Manifest {
        name: json_str_field(&json, "name").unwrap_or_default(),
        grid_hash: json_str_field(&json, "grid_hash").unwrap_or_default(),
        metrics_fingerprint: json_str_field(&json, "metrics_fingerprint").unwrap_or_default(),
        dir,
        points,
    }
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

/// A point record with the fields the scout cache may change masked: the
/// `scout_cache` label and the `scout_fastfails` /
/// `scout_cache_invalidations` effort counters.
fn mask_cache_effort(record: &str) -> String {
    let mut out = String::with_capacity(record.len());
    let mut rest = record;
    loop {
        let next = ["\"scout_cache\": ", "\"scout_fastfails\": ", "\"scout_cache_invalidations\": "]
            .iter()
            .filter_map(|key| rest.find(key).map(|at| (at, key.len())))
            .min();
        let Some((at, key_len)) = next else {
            out.push_str(rest);
            return out;
        };
        out.push_str(&rest[..at + key_len]);
        out.push('*');
        rest = &rest[at + key_len..];
        rest = &rest[rest.find([',', '}', '\n']).unwrap_or(rest.len())..];
    }
}

/// FNV-1a over the effort-masked point records in manifest order; an
/// unreadable record folds in as empty.
fn masked_fingerprint(m: &Manifest) -> String {
    let h = m.points.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, p| {
        let record = std::fs::read_to_string(m.dir.join(&p.file)).unwrap_or_default();
        mask_cache_effort(&record)
            .bytes()
            .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
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
        // Prefer the full point records for deeper metrics; fall back to
        // the manifest's headline numbers when a record is unreadable.
        let ra = std::fs::read_to_string(a.dir.join(&pa.file)).ok();
        let rb = std::fs::read_to_string(b.dir.join(&pb.file)).ok();
        let field = |r: &Option<String>, key: &str, fallback: u64| {
            r.as_deref()
                .and_then(|j| json_u64_field(j, key))
                .unwrap_or(fallback)
        };
        let (exec_a, exec_b) = (
            field(&ra, "execution_time_ns", pa.execution_time_ns),
            field(&rb, "execution_time_ns", pb.execution_time_ns),
        );
        let (ev_a, ev_b) = (field(&ra, "events", pa.events), field(&rb, "events", pb.events));
        let (cf_a, cf_b) = (
            field(&ra, "conflicted_requests", 0),
            field(&rb, "conflicted_requests", 0),
        );
        let en_a = ra.as_deref().and_then(|j| json_raw_field(j, "energy_mj"));
        let en_b = rb.as_deref().and_then(|j| json_raw_field(j, "energy_mj"));
        let energy_same = en_a == en_b;
        let records_same = !ignore_cache
            || ra.as_deref().map(mask_cache_effort) == rb.as_deref().map(mask_cache_effort);
        let same =
            exec_a == exec_b && ev_a == ev_b && cf_a == cf_b && energy_same && records_same;
        if !same {
            mismatched_points += 1;
        }
        // Print only differing points (plus a one-line summary below);
        // identical points would drown the signal on big grids.
        if !same {
            println!(
                "{:<64} {:>+13.3}% {:>+9.3}% {:>+10} {:>12}",
                pa.label,
                pct(exec_a, exec_b),
                pct(ev_a, ev_b),
                cf_b as i64 - cf_a as i64,
                if energy_same { "same" } else { "DIFFERS" },
            );
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
    use super::mask_cache_effort;

    #[test]
    fn masking_hides_only_the_cache_effort_fields() {
        let on = "{\"scout_cache\": \"cache-on\",\n  \"fabric\": {\"scout_steps\": 9, \
                  \"scout_fastfails\": 14, \"scout_cache_invalidations\": 3, \"hops_total\": 5}}";
        let off = on
            .replace("cache-on", "cache-off")
            .replace("\"scout_fastfails\": 14", "\"scout_fastfails\": 0")
            .replace("\"scout_cache_invalidations\": 3", "\"scout_cache_invalidations\": 0");
        assert_eq!(mask_cache_effort(on), mask_cache_effort(&off));
        assert!(mask_cache_effort(on).contains("\"scout_steps\": 9"));
        let other = on.replace("\"scout_steps\": 9", "\"scout_steps\": 8");
        assert_ne!(mask_cache_effort(on), mask_cache_effort(&other));
    }
}
