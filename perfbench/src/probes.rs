//! Per-layer metrics of the traced run.
//!
//! Every workload reports the same per-layer metrics, each timing one
//! layer's public function on inputs generated from the workload's seed
//! (the suite programs, their graphs and plans). Where the workload itself
//! exercised a layer, the probe uses the workload's own data: the real
//! training matrices on `train-transfer`, the real fabric counters on
//! `fi-campaign`, the real serving session on `serve-mixed`. Elsewhere it
//! runs the layer on the suite with synthetic labels, or a short serving
//! session of its own. Each probe call is wrapped in a span, and the
//! workload's measured section is broken down into per-layer self-time
//! shares.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use glaive::PipelineConfig;
use glaive_bench_suite::{suite, Benchmark, Category, Split, SplitMix64};
use glaive_cdfg::{instruction_features, Cdfg, CdfgConfig, FEATURE_DIM, INSTR_FEATURE_DIM};
use glaive_faultsim::Campaign;
use glaive_gnn::{GraphSage, SageConfig, TrainGraph};
use glaive_nn::Matrix;
use glaive_serve::PreparedProgram;
use glaive_sim::{ExecConfig, Simulator};
use glaive_timing::{try_profile, InOrderCost, ProtectionItem, ProtectionSelector};

use crate::fi::{self, campaign_config, FabricTotals};
use crate::report::{Ctx, Report};
use crate::serve::{self, Session, Shape};
use crate::stats::median;
use crate::trace::{layer_self_ns, Span};
use crate::train::{bit_rows, train_by_layer, Baselines, LayerTimes, Trained, CATEGORIES};

/// Layers whose share of the measured section is reported.
pub const LAYERS: [&str; 13] = [
    "sim", "faultsim", "campaign", "wire", "lang", "cdfg", "nn", "gnn", "ml", "timing", "serve",
    "core", "loadgen",
];

/// What the workload itself measured that a probe reuses.
pub enum Exercised<'a> {
    /// `fi-campaign`: the fabric counters of its runs.
    Fi(FabricTotals),
    /// `train-transfer`: the prepared suite and trained models.
    Train(&'a Trained),
    /// `serve-mixed`: the serving session, if it completed.
    Serve(Option<Box<Session>>),
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// One suite program's graph, as the pipeline and the server build it.
struct Graph {
    category: Category,
    split: Split,
    prepared: Arc<PreparedProgram>,
}

/// Runs every probe and adds the per-layer metrics to `report`.
pub fn run(ctx: &Ctx, report: &mut Report, exercised: Exercised<'_>) {
    let t = &ctx.tracer;
    let config = PipelineConfig::default();

    // lang / bench-suite: the suite compile the server repeats per request.
    let mut compile = Vec::new();
    let mut benches: Vec<Benchmark> = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        benches = t.span("lang.suite", || suite(ctx.seed));
        compile.push(ms(start));
    }
    let suite_compile_ms = median(&compile);
    report.layer(
        "lang.suite_compile_ms",
        suite_compile_ms,
        "ms",
        compile.len(),
    );

    sim_and_faultsim(ctx, report, &benches);
    campaign(ctx, report, &benches, &exercised);
    let graphs = cdfg(ctx, report, &benches);
    nn(ctx, report, &graphs, config.sage.hidden);
    gnn_and_ml(ctx, report, &graphs, &config, &exercised);
    timing(ctx, report, &benches);

    let prepared: Vec<Arc<PreparedProgram>> = graphs.iter().map(|g| g.prepared.clone()).collect();
    match exercised {
        Exercised::Serve(Some(s)) => {
            serve::layer_metrics(ctx, report, &s, &prepared, suite_compile_ms)
        }
        Exercised::Serve(None) => report
            .notes
            .push("serve layer metrics: the serving session failed".into()),
        _ => {
            // A short session of the probe's own: 24 paced requests of the
            // workload's mix and a one-second saturated burst.
            let shape = Shape {
                paced: 24,
                rate: 10.0,
                saturated: std::time::Duration::from_secs(1),
            };
            match serve::session(ctx, report, &shape) {
                Ok(s) => serve::layer_metrics(ctx, report, &s, &prepared, suite_compile_ms),
                Err(e) => report.check(false, || format!("probe serving session: {e}")),
            }
        }
    }
    self_shares(report, &t.spans());
}

fn sim_and_faultsim(ctx: &Ctx, report: &mut Report, benches: &[Benchmark]) {
    let t = &ctx.tracer;
    let exec = ExecConfig::default();
    let (mut new_us, mut dyn_instrs, mut golden_s) = (Vec::new(), 0u64, 0.0);
    for b in benches {
        for _ in 0..5 {
            let start = Instant::now();
            let sim = t.span("sim.new", || {
                Simulator::try_new(b.program(), &b.init_mem, &exec)
            });
            new_us.push(start.elapsed().as_secs_f64() * 1e6);
            report.check(sim.is_ok(), || {
                format!("{}: simulator rejected the suite", b.name)
            });
        }
        let start = Instant::now();
        let golden = t.span("sim.run", || {
            glaive_sim::run(b.program(), &b.init_mem, &exec)
        });
        golden_s += start.elapsed().as_secs_f64();
        dyn_instrs += golden.dyn_instrs;
        report.check(golden.status.is_clean(), || {
            format!("{}: dirty golden run", b.name)
        });
    }
    report.layer(
        "sim.golden_minstr_per_s",
        dyn_instrs as f64 / golden_s / 1e6,
        "Minstr/s",
        benches.len(),
    );
    report.layer("sim.new_us", median(&new_us), "us", new_us.len());

    let config = campaign_config();
    let mut plan_ms = Vec::new();
    let (mut specs, mut predicted) = (0usize, 0usize);
    let mut plans = Vec::new();
    for b in benches {
        let campaign = Campaign::try_new(b.program(), &b.init_mem, config).expect("valid config");
        let start = Instant::now();
        let plan = t.span("faultsim.plan", || campaign.plan());
        plan_ms.push(ms(start));
        match plan {
            Ok(plan) => {
                specs += plan.specs.len();
                predicted += plan.predicted.len();
                plans.push((b, plan));
            }
            Err(e) => report.check(false, || format!("{}: plan failed: {e}", b.name)),
        }
    }
    report.layer(
        "faultsim.plan_ms",
        plan_ms.iter().sum::<f64>() / plan_ms.len() as f64,
        "ms",
        plan_ms.len(),
    );
    report.layer("faultsim.injections", specs as f64, "count", plans.len());
    report.layer(
        "faultsim.predicted_ratio",
        predicted as f64 / specs.max(1) as f64,
        "ratio",
        plans.len(),
    );

    // A seeded sample of simulated (not predicted) specs.
    let mut rng = SplitMix64::new(ctx.seed ^ 0x494e_4a45_4354);
    let mut inject_us = Vec::new();
    while inject_us.len() < 300 && !plans.is_empty() {
        let (b, plan) = &plans[rng.next_below(plans.len() as u64) as usize];
        let i = rng.next_below(plan.specs.len() as u64) as usize;
        if plan.predicted.binary_search_by_key(&i, |&(j, _)| j).is_ok() {
            continue;
        }
        let campaign = Campaign::try_new(b.program(), &b.init_mem, config).expect("valid config");
        let start = Instant::now();
        t.span("faultsim.inject", || {
            campaign.inject(&plan.specs[i], &plan.golden, &plan.fault_cfg)
        });
        inject_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    report.layer(
        "faultsim.inject_us",
        median(&inject_us),
        "us",
        inject_us.len(),
    );
}

fn campaign(ctx: &Ctx, report: &mut Report, benches: &[Benchmark], exercised: &Exercised<'_>) {
    let totals = match exercised {
        Exercised::Fi(totals) => *totals,
        _ => {
            // The smallest program, serial and through the fabric.
            let b = benches
                .iter()
                .min_by_key(|b| b.program().len())
                .expect("non-empty suite");
            let mut totals = FabricTotals::default();
            let run = fi::serial_and_fabric(ctx, b, &mut totals, report);
            if let Some(fabric) = run.fabric {
                totals.overhead_ratio = fabric.as_secs_f64() / run.serial.as_secs_f64();
            }
            totals
        }
    };
    report.layer("campaign.chunks", totals.chunks as f64, "count", 1);
    report.layer("campaign.retries", totals.retries as f64, "count", 1);
    report.layer("campaign.reconnects", totals.reconnects as f64, "count", 1);
    report.layer("campaign.overhead_ratio", totals.overhead_ratio, "ratio", 1);
}

fn cdfg(ctx: &Ctx, report: &mut Report, benches: &[Benchmark]) -> Vec<Graph> {
    let t = &ctx.tracer;
    let config = CdfgConfig {
        bit_stride: serve::STRIDE as usize,
    };
    let (mut secs, mut nodes, mut edges) = (0.0, 0usize, 0usize);
    let graphs: Vec<Graph> = benches
        .iter()
        .map(|b| {
            let start = Instant::now();
            let (cdfg, features) = t.span("cdfg.build", || {
                let cdfg = Cdfg::build(b.program(), &config);
                let features = cdfg.feature_matrix();
                (cdfg, features)
            });
            secs += start.elapsed().as_secs_f64();
            nodes += cdfg.node_count();
            edges += cdfg.edge_count();
            let features = Matrix::from_vec(cdfg.node_count(), FEATURE_DIM, features);
            Graph {
                category: b.category,
                split: b.split,
                prepared: Arc::new(PreparedProgram {
                    program: b.program().clone(),
                    cdfg,
                    features,
                }),
            }
        })
        .collect();
    report.layer(
        "cdfg.build_us_per_node",
        secs * 1e6 / nodes as f64,
        "us/node",
        graphs.len(),
    );
    report.layer("cdfg.nodes", nodes as f64, "count", graphs.len());
    report.layer("cdfg.edges", edges as f64, "count", graphs.len());
    graphs
}

/// Median seconds of `f` over at least three calls and a quarter second.
fn repeat(mut f: impl FnMut()) -> (f64, usize) {
    let mut times = Vec::new();
    let begin = Instant::now();
    while times.len() < 3 || begin.elapsed().as_secs_f64() < 0.25 {
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_secs_f64());
    }
    (median(&times), times.len())
}

fn nn(ctx: &Ctx, report: &mut Report, graphs: &[Graph], hidden: usize) {
    let t = &ctx.tracer;
    // The layer shape of training: the largest training graph's nodes,
    // the [self ‖ aggregate] width in, the hidden width out.
    let n = graphs
        .iter()
        .filter(|g| g.split == Split::TrainTest)
        .map(|g| g.prepared.cdfg.node_count())
        .max()
        .unwrap_or(1);
    let (k, m) = (2 * hidden, hidden);
    let a = Matrix::from_fn(n, k, |r, c| ((r * 31 + c * 17) % 97) as f32 / 97.0 - 0.5);
    let w = Matrix::from_fn(k, m, |r, c| ((r * 13 + c * 7) % 89) as f32 / 89.0 - 0.5);
    let g = Matrix::from_fn(n, m, |r, c| ((r * 11 + c * 5) % 83) as f32 / 83.0 - 0.5);
    let flops = 2.0 * (n * k * m) as f64;
    let (mm, reps) = repeat(|| {
        std::hint::black_box(t.span("nn.matmul", || std::hint::black_box(&a).matmul(&w)));
    });
    report.layer("nn.matmul_gflops", flops / mm / 1e9, "GFLOP/s", reps);
    let (tm, reps) = repeat(|| {
        std::hint::black_box(t.span("nn.transpose_matmul", || {
            std::hint::black_box(&a).transpose_matmul(&g)
        }));
    });
    report.layer(
        "nn.transpose_matmul_gflops",
        flops / tm / 1e9,
        "GFLOP/s",
        reps,
    );
}

/// Synthetic labels for probe training where no FI truth exists: the
/// training cost does not depend on label values.
fn synthetic_labels(n: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 7 + i / 3) % 3).collect()
}

/// `train_models`' training calls per category on its TrainTest graphs,
/// with synthetic targets: every node labelled, every instruction a
/// regression row.
fn synthetic_training(ctx: &Ctx, graphs: &[Graph], config: &PipelineConfig) -> LayerTimes {
    let mut times = LayerTimes::default();
    for category in CATEGORIES {
        let members: Vec<&PreparedProgram> = graphs
            .iter()
            .filter(|g| g.category == category && g.split == Split::TrainTest)
            .map(|g| &*g.prepared)
            .collect();
        let labels: Vec<Vec<usize>> = members
            .iter()
            .map(|p| synthetic_labels(p.cdfg.node_count()))
            .collect();
        let masks: Vec<Vec<bool>> = members
            .iter()
            .map(|p| vec![true; p.cdfg.node_count()])
            .collect();
        let train_graphs: Vec<TrainGraph<'_>> = members
            .iter()
            .zip(labels.iter().zip(&masks))
            .map(|(p, (labels, mask))| TrainGraph {
                features: &p.features,
                graph: p.cdfg.preds_csr(),
                labels,
                mask,
            })
            .collect();
        let (x, y) = bit_rows(&train_graphs);
        let irows: usize = members.iter().map(|p| p.program.len()).sum();
        let mut xi = Matrix::zeros(irows, INSTR_FEATURE_DIM);
        let mut yi = Matrix::zeros(irows, 3);
        let mut row = 0;
        for p in &members {
            let feats = instruction_features(&p.program);
            for pc in 0..p.program.len() {
                xi.row_mut(row)
                    .copy_from_slice(&feats[pc * INSTR_FEATURE_DIM..(pc + 1) * INSTR_FEATURE_DIM]);
                let a = (pc % 5) as f32 / 10.0;
                yi.row_mut(row).copy_from_slice(&[a, 0.5 - a, 0.5]);
                row += 1;
            }
        }
        let baselines = Baselines { x, y, xi, yi };
        train_by_layer(&ctx.tracer, &train_graphs, &baselines, config, &mut times);
    }
    times
}

/// GraphSAGE training (from the workload on `train-transfer`, synthetic
/// elsewhere), the baselines, and the served architecture's inference.
fn gnn_and_ml(
    ctx: &Ctx,
    report: &mut Report,
    graphs: &[Graph],
    config: &PipelineConfig,
    exercised: &Exercised<'_>,
) {
    let t = &ctx.tracer;
    let times = match exercised {
        Exercised::Train(Trained {
            layers: Some(times),
        }) => *times,
        _ => synthetic_training(ctx, graphs, config),
    };
    report.layer("gnn.train_s", times.gnn_s, "s", 2);
    report.layer(
        "gnn.epoch_ms",
        times.gnn_s * 1e3 / times.epochs.max(1) as f64,
        "ms",
        times.epochs,
    );
    report.layer("ml.mlp_s", times.mlp_s, "s", 2);
    report.layer("ml.forest_s", times.forest_s, "s", 2);
    report.layer("ml.svr_s", times.svr_s, "s", 2);

    let served =
        GraphSage::try_new(FEATURE_DIM, &SageConfig::default()).expect("valid model config");
    let (mut secs, mut nodes) = (0.0, 0usize);
    for g in graphs {
        let p = &g.prepared;
        let start = Instant::now();
        std::hint::black_box(t.span("gnn.forward", || {
            served.predict_proba(&p.features, p.cdfg.preds_csr())
        }));
        secs += start.elapsed().as_secs_f64();
        nodes += p.cdfg.node_count();
    }
    report.layer(
        "gnn.forward_ms_per_knode",
        secs * 1e3 / (nodes as f64 / 1e3),
        "ms/knode",
        graphs.len(),
    );
}

fn timing(ctx: &Ctx, report: &mut Report, benches: &[Benchmark]) {
    let t = &ctx.tracer;
    let mut rng = SplitMix64::new(ctx.seed ^ 0x5449_4d49_4e47);
    let (mut profile_ms, mut select_us) = (Vec::new(), Vec::new());
    for b in benches {
        let start = Instant::now();
        let profiled = t.span("timing.profile", || {
            try_profile(
                b.program(),
                &b.init_mem,
                &ExecConfig::default(),
                InOrderCost::default(),
            )
        });
        profile_ms.push(ms(start));
        let Ok((_, profile)) = profiled else {
            report.check(false, || format!("{}: profiling failed", b.name));
            continue;
        };
        let items: Vec<ProtectionItem> = profile
            .per_pc
            .iter()
            .enumerate()
            .filter(|(_, p)| p.executions > 0)
            .map(|(pc, p)| ProtectionItem {
                pc,
                value: rng.next_f64(),
                cost: p.cycles,
            })
            .collect();
        let selector = ProtectionSelector::with_overhead_pct(profile.total_cycles, 5);
        for _ in 0..20 {
            let start = Instant::now();
            let sel = t.span("timing.select", || selector.select(&items));
            select_us.push(start.elapsed().as_secs_f64() * 1e6);
            report.check(sel.spent <= sel.budget, || {
                format!("{}: selection over budget", b.name)
            });
        }
    }
    report.layer(
        "timing.profile_ms",
        profile_ms.iter().sum::<f64>() / profile_ms.len() as f64,
        "ms",
        profile_ms.len(),
    );
    report.layer(
        "timing.select_us",
        median(&select_us),
        "us",
        select_us.len(),
    );
}

/// Each layer's self time inside the workload's measured section, as a
/// share of that section's wall time. Concurrent spans (pipelined
/// requests) each count, so a share can exceed 1.
fn self_shares(report: &mut Report, spans: &[Span]) {
    let Some(root) = spans.iter().find(|s| s.name == "bench.measure") else {
        report.notes.push("no measured section was traced".into());
        return;
    };
    let parents: BTreeMap<u64, Option<u64>> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let mut inside: BTreeSet<u64> = BTreeSet::new();
    for s in spans {
        let mut at = s.parent;
        while let Some(p) = at {
            if p == root.id {
                inside.insert(s.id);
                break;
            }
            at = parents.get(&p).copied().flatten();
        }
    }
    let within: Vec<Span> = spans
        .iter()
        .filter(|s| inside.contains(&s.id))
        .cloned()
        .collect();
    let selfs = layer_self_ns(&within);
    let wall = (root.end_ns - root.start_ns).max(1) as f64;
    for layer in LAYERS {
        let share = selfs.get(layer).copied().unwrap_or(0) as f64 / wall;
        report.layer(&format!("{layer}.self_share"), share, "ratio", within.len());
    }
}
