//! `perfbench`: runs one benchmark workload (or all) and prints every
//! metric by name and unit, ending with a one-line JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```

use std::io::Write;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use venice_perfbench::metric::{Metric, Summary};
use venice_perfbench::span::{self_times, Span};
use venice_perfbench::workload::Workload;
use venice_perfbench::{measure, Report, LAYERS};

const USAGE: &str = "usage: perfbench --workload <paper_catalog|mesh_congested|write_gc|\
fault_rebuild|all> [--seed <u64>] [--seconds <u64>] [--trace <0|1>]";

/// Where the traced run writes its spans, relative to the working directory.
const SPAN_DIR: &str = "target/perfbench";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let w =
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?;
                args.workloads = vec![w];
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let summary = match args.workloads.as_slice() {
        [one] => run_one(*one, &args),
        all => run_each_in_a_child(all, &args),
    };
    match summary {
        Ok(summary) => {
            println!("{}", summary.line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Measures one workload in this process and prints its report.
fn run_one(workload: Workload, args: &Args) -> Result<Summary, String> {
    let report = measure(workload, args.seed, args.seconds, args.trace);
    print_report(&report, args.seed, args.trace);
    if args.trace {
        let path = Path::new(SPAN_DIR).join(format!("spans-{}.json", workload.name()));
        write_spans(&path, &report, args.seed)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans -> {}", path.display());
    }
    Ok(report.summary)
}

/// Measures each workload in a child process of its own, so that each
/// reports its own peak RSS, and merges their results under
/// `<workload>.` prefixes.
fn run_each_in_a_child(workloads: &[Workload], args: &Args) -> Result<Summary, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut all = Summary {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for w in workloads {
        let out = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let text = stdout.trim_end();
        let (report, last) = text.rsplit_once('\n').unwrap_or(("", text));
        println!("{report}");
        if !out.status.success() {
            return Err(format!("{} exited with {}", w.name(), out.status));
        }
        let one = Summary::parse(last).ok_or_else(|| format!("{}: no result line", w.name()))?;
        all.correct &= one.correct;
        all.attempted += one.attempted;
        all.failed += one.failed;
        all.metrics.extend(one.metrics.into_iter().map(|m| Metric {
            name: format!("{}.{}", w.name(), m.name),
            ..m
        }));
    }
    Ok(all)
}

fn print_report(r: &Report, seed: u64, trace: bool) {
    println!(
        "## {} (seed {seed}, {} measured rounds + 1 warm-up, {} points per round, {}, {})",
        r.workload.name(),
        r.rounds,
        r.points,
        r.pool.map_or("on the calling thread".into(), |n| format!(
            "on a pool of {n}"
        )),
        if trace { "traced" } else { "timed" }
    );
    println!("fingerprint 0x{:016x}", r.fingerprint);
    println!(
        "checks: {} of {} points failed",
        r.summary.failed, r.summary.attempted
    );
    for e in r.errors.iter().take(20) {
        println!("  FAIL {e}");
    }
    if trace {
        print_self_times(&r.spans);
    }
    for m in &r.summary.metrics {
        println!("  {:<44} {:>20} {}", m.name, m.value, m.unit);
    }
}

/// The per-layer self-time table, summed over the traced rounds.
fn print_self_times(rounds: &[Vec<Span>]) {
    let mut total = vec![0u64; LAYERS.len()];
    for spans in rounds {
        let t = self_times(spans);
        for (sum, layer) in total.iter_mut().zip(LAYERS) {
            *sum += t.get(layer).copied().unwrap_or(0);
        }
    }
    let all: u64 = total.iter().sum::<u64>().max(1);
    println!("self time over {} traced rounds:", rounds.len());
    for (layer, ns) in LAYERS.iter().zip(&total) {
        println!(
            "  {:<20} {:>12.6} s {:>6.2}%",
            layer,
            *ns as f64 / 1e9,
            100.0 * *ns as f64 / all as f64
        );
    }
}

fn write_spans(path: &Path, r: &Report, seed: u64) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"rounds\": [",
        r.workload.name()
    )?;
    for (k, spans) in r.spans.iter().enumerate() {
        write!(out, "{}\n  [", if k == 0 { "" } else { "," })?;
        for (i, s) in spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            write!(
                out,
                "{}\n    {{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"point\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.id,
                opt(s.parent),
                opt(s.point.map(u64::from)),
                s.start_ns,
                s.end_ns
            )?;
        }
        write!(out, "]")?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}
