//! One workload run of the GLAIVE whole-system benchmark.
//!
//! ```text
//! glaive-perfbench --workload <fi-campaign|train-transfer|serve-mixed>
//!                  --seed N --seconds S --trace <0|1> [--spans PATH]
//! ```
//!
//! Every input is generated from `--seed`. The measured part of the
//! workload takes about `--seconds`. With `--trace 0` the run reports the
//! end-to-end metrics; with `--trace 1` it records spans around every call
//! into a layer and reports the per-layer metrics (and writes the spans to
//! `--spans` when given). The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`, and `details`
//! with everything else (per-workload metric names, sample counts, tail
//! percentiles, counters, notes). The exit code is 1 when any output check
//! failed and 2 on bad arguments.

mod fi;
mod json;
mod loadgen;
mod probes;
mod rawgen;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use std::time::Instant;

use json::Json;
use probes::Exercised;
use report::{peak_rss_mb, Ctx, Report};
use trace::Tracer;

/// The workloads, in the order the benchmark documents them.
const WORKLOADS: [&str; 3] = ["fi-campaign", "train-transfer", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--spans" => args.spans = Some(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("glaive-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        started,
        tracer: Tracer::new(args.trace),
    };
    let mut report = Report::default();

    let trained;
    let exercised = match args.workload.as_str() {
        "fi-campaign" => Exercised::Fi(fi::run(&ctx, &mut report)),
        "train-transfer" => {
            trained = train::run(&ctx, &mut report);
            Exercised::Train(&trained)
        }
        _ => Exercised::Serve(serve::run(&ctx, &mut report).map(Box::new)),
    };
    finish_e2e(&mut report);
    if args.trace {
        probes::run(&ctx, &mut report, exercised);
    }
    emit(&args, &ctx, &report)
}

/// Adds the metrics every workload shares, measured right after the
/// workload (before any probe can raise the memory peak).
fn finish_e2e(report: &mut Report) {
    match peak_rss_mb() {
        Some(mb) => {
            report.e2e("peak_rss_mb", mb, "MB", 1);
            report.named("peak_rss_mb", mb, "MB", 1);
        }
        None => report
            .notes
            .push("peak_rss_mb: /proc/self/status has no VmHWM line".into()),
    }
    let ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.named("failed_ratio", ratio, "ratio", report.attempted as usize);
}

fn emit(args: &Args, ctx: &Ctx, report: &Report) {
    if let Some(path) = &args.spans {
        if let Err(e) = trace::write_tsv(std::path::Path::new(path), &ctx.tracer.spans()) {
            eprintln!("glaive-perfbench: writing spans to {path}: {e}");
        }
    }
    for f in &report.failures {
        eprintln!("FAILED: {f}");
    }
    let mut provenance = Json::obj();
    provenance
        .set("workload", args.workload.as_str())
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("nproc", ctx.nproc)
        .set("wall_s", ctx.started.elapsed().as_secs_f64());
    println!("{}", report.to_json(args.trace, provenance));
    if report.failed > 0 || report.attempted == 0 {
        std::process::exit(1);
    }
}
