//! `fi-campaign`: ground-truth generation, serial and through the fabric.
//!
//! Each pass runs every suite program's campaign once as an in-process
//! `Campaign::run` and once through a loopback `Coordinator` with one
//! `run_worker` thread per CPU. The two ground truths must serialise to
//! the same bytes. No model code runs, which makes this workload the
//! "no change" control for model and serving work.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use glaive::PipelineConfig;
use glaive_bench_suite::{suite, Benchmark};
use glaive_campaign::{run_worker, Coordinator, FabricConfig, WorkerReport};
use glaive_faultsim::{Campaign, CampaignConfig, GroundTruth, RunControl};

use crate::json::Json;
use crate::report::{Ctx, Report};
use crate::stats::{median, summarize};

/// Seconds one pass (serial plus fabric over the suite) takes on a 2-CPU
/// host; the pass count is `seconds / PASS_SECONDS`, at least 2.
const PASS_SECONDS: f64 = 4.5;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// Fabric counters summed over every worker of every fabric run.
#[derive(Debug, Default, Clone, Copy)]
pub struct FabricTotals {
    /// Summed worker reports.
    pub chunks: u64,
    /// Transient failures survived.
    pub retries: u64,
    /// Sessions redialled.
    pub reconnects: u64,
    /// Workers that ended in an error (the coordinator reassigns their
    /// work, as it does a dead remote worker's).
    pub worker_errors: u64,
    /// Fabric wall ÷ serial wall over the same plans.
    pub overhead_ratio: f64,
}

/// Bit stride of every campaign: half the pipeline's default density,
/// so a run holds enough passes for a tail latency.
pub const STRIDE: usize = 16;

/// The paper's campaign shape (two instances per site, dead-definition
/// prediction on) at [`STRIDE`].
pub fn campaign_config() -> CampaignConfig {
    CampaignConfig {
        bit_stride: STRIDE,
        ..PipelineConfig::default().campaign()
    }
}

/// Runs one campaign through an in-process coordinator with `workers`
/// loopback worker threads; returns the merged truth, the reports of the
/// workers that finished cleanly, the errors of the others and the time
/// from coordinator start to merged truth.
///
/// A worker error alone does not fail the run: like the workspace's own
/// `run_distributed`, the coordinator reassigns a dead worker's chunks,
/// and a worker that dials only after the last chunk was merged finds the
/// listener closed. The merged truth is what gets checked.
fn fabric_run(
    bench: &Benchmark,
    config: CampaignConfig,
    workers: usize,
) -> Result<(GroundTruth, Vec<WorkerReport>, Vec<String>, Duration), String> {
    let coordinator = Coordinator::try_new(
        bench.program(),
        &bench.init_mem,
        config,
        FabricConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    std::thread::scope(|scope| {
        let start = Instant::now();
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                let addr = &addr;
                scope.spawn(move || run_worker(addr, &format!("bench-{i}"), None))
            })
            .collect();
        let truth = coordinator.run(listener, &RunControl::new());
        let wall = start.elapsed();
        let (mut reports, mut errors) = (Vec::new(), Vec::new());
        for h in handles {
            match h.join().expect("worker thread panicked") {
                Ok(r) => reports.push(r),
                Err(e) => errors.push(e.to_string()),
            }
        }
        Ok((truth.map_err(|e| e.to_string())?, reports, errors, wall))
    })
}

/// One program's campaign, serial and through the fabric.
pub struct ProgramRun {
    /// Injections of the campaign.
    pub injections: usize,
    /// Of those, resolved by dead-definition prediction.
    pub predicted: usize,
    /// Wall time of the serial `Campaign::run`.
    pub serial: Duration,
    /// Coordinator start to merged truth; `None` if the fabric run failed.
    pub fabric: Option<Duration>,
}

/// Runs `b`'s campaign as a serial `Campaign::run` and through the fabric
/// with one worker per CPU, and checks that the two truths serialise to
/// the same bytes. Both runs count as attempted operations; the worker
/// reports are added to `totals`.
pub fn serial_and_fabric(
    ctx: &Ctx,
    b: &Benchmark,
    totals: &mut FabricTotals,
    report: &mut Report,
) -> ProgramRun {
    let t = &ctx.tracer;
    let config = campaign_config();
    let start = Instant::now();
    let serial = t.span("faultsim.run", || {
        Campaign::try_new(b.program(), &b.init_mem, config)
            .expect("the pipeline's campaign config is valid")
            .run()
    });
    let serial_wall = start.elapsed();
    report.attempted += 2;
    let fabric = match t.span("campaign.fabric", || fabric_run(b, config, ctx.nproc)) {
        Ok((truth, reports, errors, wall)) => {
            for r in reports {
                totals.chunks += r.chunks;
                totals.retries += r.retries;
                totals.reconnects += r.reconnects;
            }
            totals.worker_errors += errors.len() as u64;
            for e in errors {
                report.notes.push(format!("{}: fabric worker: {e}", b.name));
            }
            if truth.to_bytes() != serial.to_bytes() {
                report.fail(format!("{}: fabric truth differs from serial", b.name));
            }
            Some(wall)
        }
        Err(e) => {
            report.fail(format!("{}: fabric failed: {e}", b.name));
            None
        }
    };
    ProgramRun {
        injections: serial.total_injections(),
        predicted: serial.predicted_injections(),
        serial: serial_wall,
        fabric,
    }
}

/// Runs the workload; returns the fabric counters for the traced run.
pub fn run(ctx: &Ctx, report: &mut Report) -> FabricTotals {
    let t = &ctx.tracer;

    // Set-up: compile the suite. The first repetition counts from process
    // start.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut benches = Vec::new();
    for rep in 0..SETUP_REPS {
        let from = if rep == 0 {
            ctx.started
        } else {
            Instant::now()
        };
        benches = t.span("lang.suite", || suite(ctx.seed));
        setups.push(from.elapsed().as_secs_f64());
    }

    let passes = ((ctx.seconds as f64 / PASS_SECONDS).round() as usize).max(2);
    let mut serial_rates = Vec::new();
    let mut fabric_rates = Vec::new();
    // Per program: fabric wall time per thousand injections, so programs
    // of different sizes (and inputs of different seeds) are comparable.
    let mut fabric_ms = Vec::new();
    let mut totals = FabricTotals::default();
    let (mut serial_wall, mut fabric_wall) = (0.0, 0.0);
    let mut injections = 0usize;
    let mut predicted = 0usize;
    t.span("bench.measure", || {
        for _ in 0..passes {
            let (mut pass_serial, mut pass_fabric, mut pass_inj) = (0.0, 0.0, 0usize);
            for b in &benches {
                let run = serial_and_fabric(ctx, b, &mut totals, report);
                pass_serial += run.serial.as_secs_f64();
                pass_inj += run.injections;
                predicted += run.predicted;
                if let Some(wall) = run.fabric {
                    pass_fabric += wall.as_secs_f64();
                    let kinj = run.injections.max(1) as f64 / 1e3;
                    fabric_ms.push(wall.as_secs_f64() * 1e3 / kinj);
                }
            }
            injections = pass_inj;
            serial_rates.push(pass_inj as f64 / pass_serial);
            fabric_rates.push(pass_inj as f64 / pass_fabric.max(1e-9));
            serial_wall += pass_serial;
            fabric_wall += pass_fabric;
        }
    });
    totals.overhead_ratio = fabric_wall / serial_wall;

    let setup_s = median(&setups);
    let fi_rate = median(&serial_rates);
    report.e2e("setup_s", setup_s, "s", setups.len());
    report.e2e("throughput_per_s", fi_rate, "1/s", passes);
    report.named("setup_s", setup_s, "s", setups.len());
    report.named("fi_inj_per_s", fi_rate, "inj/s", passes);
    report.named("fabric_inj_per_s", median(&fabric_rates), "inj/s", passes);
    if fabric_ms.is_empty() {
        report.notes.push("no fabric run completed".into());
    } else {
        let s = summarize(&fabric_ms);
        report.latency(
            Some(("op_p50_ms", "op_tail_ms")),
            ("fabric_ms_per_kinj_p50", "fabric_ms_per_kinj_tail"),
            &s,
        );
    }

    let mut d = Json::obj();
    d.set("passes", passes)
        .set("programs", benches.len())
        .set("bit_stride", STRIDE)
        .set("injections_per_pass", injections)
        .set("predicted_per_pass", predicted / passes)
        .set("fabric_workers", ctx.nproc)
        .set("serial_wall_s", serial_wall)
        .set("fabric_wall_s", fabric_wall)
        .set("worker_chunks", totals.chunks)
        .set("worker_retries", totals.retries)
        .set("worker_reconnects", totals.reconnects)
        .set("worker_errors", totals.worker_errors);
    report.detail("fi_campaign", d);
    totals
}
