//! Performance-trajectory ledger: folds the current `results/bench_*.json`
//! microbench artifacts into the repo-top `BENCH_dispatch.json` /
//! `BENCH_scout.json` ledgers, one entry per engine revision.
//!
//! ```sh
//! cargo bench -p venice-bench --bench dispatch_scan       # refresh results/bench_dispatch.json
//! cargo bench -p venice-bench --bench scout_walk          # refresh results/bench_scout.json
//! cargo run --release -p venice-bench --bin perf_ledger   # append both ledgers
//! ```
//!
//! Each ledger is one JSON document with an `entries` array; an entry
//! records the git revision, a fingerprint of the source artifact, and the
//! headline aggregates (scenario count, mean speedup, mean events/s of the
//! optimized engine). Re-running against an unchanged artifact is a no-op
//! (the fingerprint dedups), so CI can invoke this unconditionally; the
//! per-PR trajectory accumulates across revisions.
//!
//! An entry names the revision it measured, so the ledger refuses to run
//! on a tree with uncommitted changes (`git describe` ending in `-dirty`):
//! such an entry would name a revision whose code it did not measure.
//!
//! Flags: `--dir <path>` (ledger directory, default `.` — the repo top
//! when run via cargo); `--allow-dirty` (append from a dirty tree anyway,
//! e.g. for a local trial; the entry keeps its `-dirty` revision).

use std::path::{Path, PathBuf};

use venice_bench::microbench::round_to;
use venice_bench::{fnv1a, git_describe, FNV_OFFSET};
use venice_ssd::json::{Layout, Value, Writer};

/// Refuses a `-dirty` revision unless `allow_dirty` is set.
fn check_revision(describe: &str, allow_dirty: bool) -> Result<(), String> {
    if describe.ends_with("-dirty") && !allow_dirty {
        return Err(format!(
            "revision {describe} has uncommitted changes; commit them, or pass \
             --allow-dirty to record a dirty entry anyway"
        ));
    }
    Ok(())
}

/// Mean of `values` (`None` when empty).
fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Folds one microbench artifact into one ledger entry, or explains why it
/// cannot (missing artifact is a skip, not an error: the ledgers only grow
/// on machines that ran the benches).
fn entry_for(source: &Path, throughput_key: &str, git: &str) -> Result<Value, String> {
    let json = std::fs::read_to_string(source)
        .map_err(|e| format!("cannot read {} ({e}); run its bench first", source.display()))?;
    let doc = Value::parse(&json).map_err(|e| format!("{}: {e}", source.display()))?;
    let scenarios = doc
        .get("scenarios")
        .and_then(Value::as_array)
        .unwrap_or_default();
    let column = |key| -> Vec<f64> {
        scenarios
            .iter()
            .filter_map(|s| s.get(key).and_then(Value::as_f64))
            .collect()
    };
    let speedups = column("speedup");
    if scenarios.is_empty() || speedups.is_empty() {
        return Err(format!("{} has no scenarios", source.display()));
    }
    let rounded_mean = |values: &[f64]| Value::F64(round_to(mean(values).unwrap_or(0.0), 2));
    Ok(Value::Object(vec![
        ("git".into(), Value::Str(git.into())),
        (
            "fingerprint".into(),
            Value::Str(format!("{:016x}", fnv1a(json.as_bytes(), FNV_OFFSET))),
        ),
        ("scenarios".into(), Value::U64(scenarios.len() as u64)),
        ("mean_speedup".into(), rounded_mean(&speedups)),
        (
            format!("mean_{throughput_key}"),
            rounded_mean(&column(throughput_key)),
        ),
    ]))
}

/// Appends `entry` to the ledger at `path` (creating it), unless the last
/// entry already carries the same artifact fingerprint. A ledger that does
/// not parse is left untouched.
fn append(path: &Path, ledger_name: &str, entry: Value) -> std::io::Result<bool> {
    let mut entries = match std::fs::read_to_string(path) {
        Ok(doc) => Value::parse(&doc)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
            .get("entries")
            .and_then(Value::as_array)
            .unwrap_or_default()
            .to_vec(),
        Err(_) => Vec::new(),
    };
    let fingerprint = |e: &Value| e.get("fingerprint").cloned();
    if entries
        .last()
        .is_some_and(|last| fingerprint(last) == fingerprint(&entry))
    {
        return Ok(false);
    }
    entries.push(entry);
    let mut doc = String::new();
    let mut w = Writer::new(&mut doc);
    w.object(Layout::Block)
        .field("ledger", ledger_name)
        .key("entries")
        .array(Layout::Block);
    for e in &entries {
        w.value(e);
    }
    w.end().end();
    doc.push('\n');
    std::fs::write(path, doc)?;
    Ok(true)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dir = PathBuf::from(".");
    let mut allow_dirty = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dir" => {
                i += 1;
                dir = PathBuf::from(args.get(i).expect("missing value after --dir"));
            }
            "--allow-dirty" => allow_dirty = true,
            other => panic!("unknown flag {other:?} (supported: --dir, --allow-dirty)"),
        }
        i += 1;
    }
    let git = git_describe();
    if let Err(why) = check_revision(&git, allow_dirty) {
        eprintln!("error: [perf-ledger] {why}");
        std::process::exit(1);
    }
    let results = venice_bench::results_dir();
    let ledgers = [
        ("dispatch", "events_per_sec_incremental", "BENCH_dispatch.json"),
        ("scout", "events_per_sec_cache_on", "BENCH_scout.json"),
    ];
    for (name, throughput_key, ledger_file) in ledgers {
        let source = results.join(format!("bench_{name}.json"));
        match entry_for(&source, throughput_key, &git) {
            Err(why) => eprintln!("[perf-ledger] {name}: skipped ({why})"),
            Ok(entry) => {
                let path = dir.join(ledger_file);
                match append(&path, name, entry) {
                    Ok(true) => println!("[perf-ledger] {name}: appended to {}", path.display()),
                    Ok(false) => {
                        println!("[perf-ledger] {name}: unchanged artifact, nothing appended")
                    }
                    Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_keeps_entries_and_dedups_on_fingerprint() {
        let dir = std::env::temp_dir().join(format!("venice-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (source, ledger) = (dir.join("bench.json"), dir.join("BENCH_t.json"));
        std::fs::write(
            &source,
            "{\"scenarios\": [{\"name\": \"a\", \"speedup\": 2, \"eps\": 10.5}, \
             {\"name\": \"b\", \"speedup\": 3, \"eps\": 20}]}",
        )
        .unwrap();
        let entry = entry_for(&source, "eps", "abc1234").unwrap();
        assert_eq!(entry.get("scenarios"), Some(&Value::U64(2)));
        assert_eq!(entry.get("mean_speedup").and_then(Value::as_f64), Some(2.5));
        assert_eq!(entry.get("mean_eps").and_then(Value::as_f64), Some(15.25));
        assert!(append(&ledger, "t", entry.clone()).unwrap());
        assert!(
            !append(&ledger, "t", entry.clone()).unwrap(),
            "same artifact twice"
        );
        let doc = Value::parse(&std::fs::read_to_string(&ledger).unwrap()).unwrap();
        assert_eq!(
            doc.get("entries").and_then(Value::as_array),
            Some(&[entry][..])
        );
        std::fs::write(&ledger, "{\"entries\": [").unwrap();
        assert!(
            append(&ledger, "t", Value::Null).is_err(),
            "a torn ledger is not clobbered"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn dirty_revisions_need_allow_dirty() {
        assert!(check_revision("1568a7c", false).is_ok());
        assert!(check_revision("v0.1-3-g1568a7c", false).is_ok());
        let err = check_revision("1568a7c-dirty", false).unwrap_err();
        assert!(err.contains("--allow-dirty"), "{err}");
        assert!(check_revision("1568a7c-dirty", true).is_ok());
    }
}
