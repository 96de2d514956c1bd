//! Chaos soak for the network edges (`BENCH_7.json`).
//!
//! Runs the two distributed subsystems under aggressive seeded fault
//! injection ([`glaive_wire::ChaosTransport`]) and verifies the defining
//! robustness property end-to-end:
//!
//! 1. **Campaign soak** — a coordinator plus a fleet of chaos-wrapped
//!    workers (delays, short reads/writes, byte corruption, hard
//!    disconnects on every connection) must merge a `GroundTruth`
//!    **byte-identical** to a serial single-process run.
//! 2. **Serve soak** — chaos-wrapped retrying [`Client`]s hammering a
//!    model server must receive replies **bit-identical** to serial
//!    inference; corrupted frames are caught by checksums and retried,
//!    never silently served.
//!
//! The survived-failure tallies (retries, reconnects, injected faults by
//! kind) are reported next to the identity verdicts, written as flat JSON
//! to `BENCH_7.json` (override with `--out PATH`) and printed as TSV. The
//! run fails (non-zero exit) if either identity check fails or if the
//! chaos layer injected nothing (a vacuous soak proves nothing).
//!
//! The fault schedule is a pure function of the seed (`--seed N`, default
//! below, or `GLAIVE_CHAOS_SEED`), so a failing run replays exactly.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use glaive_bench::EXPERIMENT_SEED;
use glaive_bench_suite::suite;
use glaive_campaign::{run_worker_with, Coordinator, FabricConfig, WorkerOptions, WorkerReport};
use glaive_cdfg::{Cdfg, CdfgConfig, FEATURE_DIM};
use glaive_faultsim::{Campaign, CampaignConfig, RunControl};
use glaive_gnn::{GraphSage, SageConfig};
use glaive_nn::Matrix;
use glaive_serve::{Client, ClientReport, ProgramSpec, Server, ServerConfig};
use glaive_wire::{ChaosConfig, ChaosPlan, ChaosReport, RetryPolicy};

/// Default master seed; any failure replays exactly under it.
const SOAK_SEED: u64 = 0xC4A0_5EED_0007;

/// Per-byte fault rate for the campaign fleet. `GLVCMP01` frames are
/// small (a chunk completion is ~1 KiB), so a few thousand ppm still
/// lets most frames through while forcing steady retries.
const CAMPAIGN_FAULT_PPM: u32 = 1_200;

/// Per-byte fault rate for the serve clients. Predict replies carry the
/// full per-node probability matrix (tens of KiB), so the rate is lower
/// for a comparable per-frame survival probability.
const SERVE_FAULT_PPM: u32 = 200;

/// Patience for every retry loop in the soak: generous enough that an
/// unlucky schedule cannot starve the run, bounded so a real hang fails
/// loudly instead of wedging CI.
const PATIENCE: Duration = Duration::from_secs(120);

struct Args {
    seed: u64,
    workers: usize,
    clients: usize,
    requests: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: ChaosConfig::from_env().map_or(SOAK_SEED, |c| c.seed),
        workers: 3,
        clients: 4,
        requests: 6,
        out: "BENCH_7.json".to_string(),
    };
    if glaive_bench::quick_requested() {
        args.clients = 2;
        args.requests = 3;
    }
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number");
            }
            "--workers" => {
                args.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers needs a number");
            }
            "--clients" => {
                args.clients = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--clients needs a number");
            }
            "--requests" => {
                args.requests = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--requests needs a number");
            }
            "--out" => args.out = it.next().expect("--out needs a path"),
            "--quick" => {}
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

struct CampaignSoak {
    identical: bool,
    chunks: u64,
    retries: u64,
    reconnects: u64,
    chaos: ChaosReport,
}

/// Serial campaign vs. a chaos-wrapped worker fleet over real TCP.
fn campaign_soak(args: &Args) -> CampaignSoak {
    let bench = &suite(EXPERIMENT_SEED)[0];
    let config = CampaignConfig::quick();
    let serial = Campaign::try_new(bench.program(), &bench.init_mem, config)
        .expect("valid campaign config")
        .run();

    let plan = ChaosPlan::new(ChaosConfig::new(args.seed).with_fault_ppm(CAMPAIGN_FAULT_PPM));
    // Small chunks: more round trips, more frames for the chaos layer to
    // maul, more lease requeues to absorb.
    let fabric = FabricConfig {
        chunk_size: 16,
        ..FabricConfig::default()
    };
    let coordinator = Coordinator::try_new(bench.program(), &bench.init_mem, config, fabric)
        .expect("valid fabric config");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();

    let finished = AtomicBool::new(false);
    let (truth, reports) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.workers)
            .map(|i| {
                let addr = addr.clone();
                let options = WorkerOptions {
                    retry: RetryPolicy::patient(PATIENCE),
                    chaos: Some(plan.clone()),
                    stream_base: (i as u64) << 32,
                    ..WorkerOptions::default()
                };
                let finished = &finished;
                scope.spawn(move || {
                    let report =
                        run_worker_with(&addr, &format!("chaos-{i}"), Some(finished), options);
                    report.unwrap_or_else(|e| panic!("chaos worker {i} gave up: {e}"))
                })
            })
            .collect();
        let truth = coordinator
            .run(listener, &RunControl::new())
            .expect("chaos campaign merges");
        // Unblock stragglers still in a reconnect backoff against the
        // now-closed listener.
        finished.store(true, Ordering::Relaxed);
        let reports: Vec<WorkerReport> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect();
        (truth, reports)
    });

    CampaignSoak {
        identical: truth.to_bytes() == serial.to_bytes(),
        chunks: reports.iter().map(|r| r.chunks).sum(),
        retries: reports.iter().map(|r| r.retries).sum(),
        reconnects: reports.iter().map(|r| r.reconnects).sum(),
        chaos: plan.report(),
    }
}

struct ServeSoak {
    identical: bool,
    replies: u64,
    report: ClientReport,
    chaos: ChaosReport,
}

/// Serial inference vs. chaos-wrapped resilient clients over real TCP.
fn serve_soak(args: &Args) -> ServeSoak {
    let model =
        GraphSage::try_new(FEATURE_DIM, &SageConfig::default()).expect("valid model config");
    let stride = 8usize;
    let bench = &suite(EXPERIMENT_SEED)[0];
    let cdfg = Cdfg::build(bench.program(), &CdfgConfig { bit_stride: stride });
    let features = Matrix::from_vec(cdfg.node_count(), FEATURE_DIM, cdfg.feature_matrix());
    let reference = model.predict_proba(&features, cdfg.preds_csr());

    let server = Server::bind(model, "127.0.0.1:0", ServerConfig::default()).expect("bind server");
    let addr = server.local_addr();
    let handle = server.spawn();

    let plan = ChaosPlan::new(ChaosConfig::new(args.seed ^ 1).with_fault_ppm(SERVE_FAULT_PPM));
    let (identical, replies, report) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|i| {
                let plan = plan.clone();
                let reference = &reference;
                let name = bench.name;
                scope.spawn(move || {
                    let mut client = Client::new(addr.to_string(), RetryPolicy::patient(PATIENCE))
                        .with_chaos(plan, (i as u64) << 32);
                    let mut identical = true;
                    for _ in 0..args.requests {
                        let spec = ProgramSpec::Suite {
                            name: name.to_string(),
                            seed: EXPERIMENT_SEED,
                        };
                        let reply = client
                            .predict(spec, stride as u32, 10, true)
                            .expect("resilient predict survives chaos");
                        let bits = reply.bit_probs.as_deref().unwrap_or_default();
                        identical &= bits.len() == reference.rows()
                            && bits.iter().enumerate().all(|(row, got)| {
                                got.iter()
                                    .zip(reference.row(row))
                                    .all(|(a, b)| a.to_bits() == b.to_bits())
                            });
                    }
                    (identical, client.report())
                })
            })
            .collect();
        let mut identical = true;
        let mut total = ClientReport::default();
        for h in handles {
            let (ok, report) = h.join().expect("client thread");
            identical &= ok;
            total.retries += report.retries;
            total.busy_responses += report.busy_responses;
            total.reconnects += report.reconnects;
        }
        (identical, (args.clients * args.requests) as u64, total)
    });

    // Plain (un-chaosed) control connection for the shutdown.
    let mut control = Client::connect(addr).expect("connect for shutdown");
    control.shutdown_server().expect("shutdown");
    handle.join().expect("server run");

    ServeSoak {
        identical,
        replies,
        report,
        chaos: plan.report(),
    }
}

fn main() {
    let args = parse_args();
    eprintln!(
        "chaos soak: seed {:#018x}, {} workers, {} clients x {} requests",
        args.seed, args.workers, args.clients, args.requests
    );

    let campaign = campaign_soak(&args);
    eprintln!(
        "campaign: identical={} ({} chunks, {} retries, {} reconnects, {} faults injected)",
        campaign.identical,
        campaign.chunks,
        campaign.retries,
        campaign.reconnects,
        campaign.chaos.total()
    );
    let serve = serve_soak(&args);
    eprintln!(
        "serve: identical={} ({} replies, {} retries, {} reconnects, {} faults injected)",
        serve.identical,
        serve.replies,
        serve.report.retries,
        serve.report.reconnects,
        serve.chaos.total()
    );

    println!("metric\tvalue");
    println!("seed\t{:#018x}", args.seed);
    println!("campaign_identical\t{}", campaign.identical);
    println!("campaign_chunks\t{}", campaign.chunks);
    println!("campaign_retries\t{}", campaign.retries);
    println!("campaign_reconnects\t{}", campaign.reconnects);
    println!("campaign_faults\t{}", campaign.chaos.total());
    println!("serve_identical\t{}", serve.identical);
    println!("serve_replies\t{}", serve.replies);
    println!("serve_retries\t{}", serve.report.retries);
    println!("serve_busy_responses\t{}", serve.report.busy_responses);
    println!("serve_reconnects\t{}", serve.report.reconnects);
    println!("serve_faults\t{}", serve.chaos.total());

    let json = format!(
        "{{\n  \"seed\": {},\n  \"campaign\": {{\n    \"identical\": {},\n    \
         \"workers\": {},\n    \"chunks\": {},\n    \"retries\": {},\n    \
         \"reconnects\": {},\n    \"delays\": {},\n    \"short_ops\": {},\n    \
         \"corruptions\": {},\n    \"disconnects\": {}\n  }},\n  \"serve\": {{\n    \
         \"identical\": {},\n    \"clients\": {},\n    \"replies\": {},\n    \
         \"retries\": {},\n    \"busy_responses\": {},\n    \"reconnects\": {},\n    \
         \"delays\": {},\n    \"short_ops\": {},\n    \"corruptions\": {},\n    \
         \"disconnects\": {}\n  }}\n}}\n",
        args.seed,
        campaign.identical,
        args.workers,
        campaign.chunks,
        campaign.retries,
        campaign.reconnects,
        campaign.chaos.delays,
        campaign.chaos.short_ops,
        campaign.chaos.corruptions,
        campaign.chaos.disconnects,
        serve.identical,
        args.clients,
        serve.replies,
        serve.report.retries,
        serve.report.busy_responses,
        serve.report.reconnects,
        serve.chaos.delays,
        serve.chaos.short_ops,
        serve.chaos.corruptions,
        serve.chaos.disconnects,
    );
    std::fs::write(&args.out, json).expect("write results");
    eprintln!("wrote {}", args.out);

    assert!(campaign.identical, "chaos campaign diverged from serial");
    assert!(serve.identical, "chaos serve replies diverged from serial");
    assert!(
        campaign.chaos.total() + serve.chaos.total() > 0,
        "the chaos layer injected nothing; the soak is vacuous"
    );
}
