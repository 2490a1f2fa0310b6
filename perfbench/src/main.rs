//! The selfstab benchmark: three workloads over the library executors,
//! the resident service and the shipped daemon.
//!
//! `selfstab-perfbench --workload cold|churn|sparse --seed N --seconds S
//! --trace 0|1 [--cli PATH] [--workdir DIR]`
//!
//! Prints human-readable lines, one `metric <name> = <value> <unit>` line
//! per metric, an `ops:` line, and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` measures
//! the end-to-end metrics; `--trace 1` the per-layer ones (a layer the
//! workload does not exercise reads 0). `perfbench/run.py` builds this
//! binary and the daemon, and runs it.

mod check;
mod churn;
mod cold;
mod common;
mod sparse;
mod stream;

use common::Report;
use std::path::PathBuf;

/// End-to-end metrics with their units: every workload reports each one.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rounds", "rounds"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
];

/// Per-layer metrics with their units, in report order.
const PER_LAYER: [(&str, &str); 37] = [
    ("graph.gen_s", "s"),
    ("graph.rss_mb", "MB"),
    ("graph.mutate_us", "us"),
    ("core.partition_s", "s"),
    ("core.cut_fraction", "ratio"),
    ("core.adj_entries.smm", "count"),
    ("core.ns_per_adj_entry.smm", "ns"),
    ("engine.guard_eval_s.smm", "s"),
    ("engine.apply_s.smm", "s"),
    ("engine.other_s.smm", "s"),
    ("engine.evaluated.smm", "count"),
    ("engine.move_yield.smm", "ratio"),
    ("engine.guard_eval_s.smi.path", "s"),
    ("engine.apply_s.smi.path", "s"),
    ("engine.other_s.smi.path", "s"),
    ("engine.evaluated.smi.path", "count"),
    ("engine.move_yield.smi.path", "ratio"),
    ("runtime.compute_s", "s"),
    ("runtime.encode_s", "s"),
    ("runtime.send_s", "s"),
    ("runtime.recv_wait_s", "s"),
    ("runtime.barrier_wait_s", "s"),
    ("runtime.wire_bytes", "bytes"),
    ("runtime.frames", "count"),
    ("service.bootstrap_s", "s"),
    ("service.apply_us.p50", "us"),
    ("service.apply_us.p99", "us"),
    ("service.query_us.p50", "us"),
    ("service.recovery_rounds", "rounds"),
    ("service.perturbed", "count"),
    ("service.evaluated", "count"),
    ("service.telemetry_us", "us"),
    ("service.loop_us", "us"),
    ("json.parse_us", "us"),
    ("json.render_us", "us"),
    ("transport.rtt_awake_us", "us"),
    ("transport.idle_wait_us", "us"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    cli: PathBuf,
    workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = get("--workload").ok_or("--workload cold|churn|sparse is required")?;
    let num = |key: &str, default: &str| -> Result<f64, String> {
        let raw = get(key).unwrap_or(default);
        raw.parse::<f64>()
            .map_err(|_| format!("{key}: cannot parse '{raw}'"))
    };
    let seed = get("--seed").unwrap_or("1");
    Ok(Args {
        workload: workload.to_string(),
        seed: seed
            .parse()
            .map_err(|_| format!("--seed: cannot parse '{seed}'"))?,
        seconds: num("--seconds", "10")?,
        traced: num("--trace", "0")? != 0.0,
        cli: PathBuf::from(get("--cli").unwrap_or("target/release/selfstab-cli")),
        workdir: PathBuf::from(get("--workdir").unwrap_or(".bench_build/perfbench-run")),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("selfstab-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "cold" => cold::run(args.seed, args.seconds, args.traced),
        "churn" => churn::run(args.seed, args.seconds, args.traced),
        "sparse" => sparse::run(
            args.seed,
            args.seconds,
            args.traced,
            &args.cli,
            &args.workdir,
        ),
        other => {
            eprintln!("selfstab-perfbench: unknown workload '{other}' (cold|churn|sparse)");
            std::process::exit(2);
        }
    };
    std::process::exit(finish(&args, &mut report));
}

/// Print the report; the last stdout line is the JSON result. Returns the
/// exit code.
fn finish(args: &Args, report: &mut Report) -> i32 {
    let wanted: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    let mut complete = true;
    for &(name, unit) in wanted {
        let found = report.metrics.iter().find(|(n, _)| n == name);
        match found.map(|(_, v)| *v) {
            Some(v) if v.is_finite() => metrics.push((name, v, unit)),
            // A layer this workload does not exercise.
            None if args.traced => metrics.push((name, 0.0, unit)),
            _ => {
                complete = false;
                report.line(format!("FAILED: metric {name} was not measured"));
            }
        }
    }
    for line in &report.lines {
        println!("{line}");
    }
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    println!(
        "ops: workload={} attempted={} failed={}",
        args.workload, report.attempted, report.failed
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#))
        .collect();
    let correct = complete && report.failed == 0 && report.attempted > 0;
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    if complete {
        0
    } else {
        1
    }
}
