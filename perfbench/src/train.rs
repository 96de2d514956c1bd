//! `train-transfer`: the paper's transfer setting (Table II).
//!
//! Set-up prepares all 12 programs (FI ground truth plus CDFG) under
//! `PipelineConfig::default()`. The measured part trains every model once
//! per category on its five TrainTest programs with `train_models`, scores
//! GLAIVE's instruction ranking of the held-out validation program against
//! FI truth, and then re-ranks both validation programs repeatedly, the
//! served use of a trained model. No sockets are opened.
//!
//! The traced run cannot see inside `train_models`, so it makes the same
//! public calls itself — `GraphSage::train_with_threads`,
//! `MlpClassifier::train`, `RandomForest::fit`, `SvrRff::fit` on the
//! matrices `train_models` builds — each in its own span. Its GraphSAGE
//! must be byte-identical to the untraced run's (`model_digests`).

use std::time::Instant;

use glaive::metrics::{ranking, spearman};
use glaive::PipelineConfig;
use glaive::{aggregate_bit_probs, prepare_benchmark, train_models, BenchData};
use glaive_bench_suite::{suite, Category, Split};
use glaive_cdfg::INSTR_FEATURE_DIM;
use glaive_gnn::{GraphSage, TrainGraph};
use glaive_ml::{MlpClassifier, RandomForest, SvrRff};
use glaive_nn::Matrix;
use glaive_wire::fnv1a;

use crate::json::Json;
use crate::report::{fresh_memory_peak, Ctx, Report};
use crate::stats::{median, summarize};
use crate::trace::Tracer;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Ranking operations per measured second: enough to span several
/// seconds, so a transient stall on a shared host moves few samples.
const RANKS_PER_SECOND: u64 = 2;

/// Seconds spent in each layer's training call, summed over categories
/// (traced run only).
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    /// `GraphSage::train_with_threads`.
    pub gnn_s: f64,
    /// GraphSAGE epochs run.
    pub epochs: usize,
    /// `MlpClassifier::train`.
    pub mlp_s: f64,
    /// `RandomForest::fit`.
    pub forest_s: f64,
    /// `SvrRff::fit`.
    pub svr_s: f64,
}

/// What the traced run's layer probes reuse.
pub struct Trained {
    /// Per-layer training times, when the run was traced.
    pub layers: Option<LayerTimes>,
}

/// The two categories, each with five TrainTest and one validation
/// program.
pub const CATEGORIES: [Category; 2] = [Category::Control, Category::Data];

/// The TrainTest programs of `category`.
fn train_split(data: &[BenchData], category: Category) -> Vec<&BenchData> {
    data.iter()
        .filter(|d| d.bench.category == category && d.bench.split == Split::TrainTest)
        .collect()
}

fn validation(data: &[BenchData], category: Category) -> &BenchData {
    data.iter()
        .find(|d| d.bench.category == category && d.bench.split == Split::Validation)
        .expect("every category has a validation program")
}

/// GLAIVE's instruction ranking of `val`: forward pass, aggregation to
/// instructions, ordering.
fn rank(model: &GraphSage, val: &BenchData) -> Vec<usize> {
    ranking(&estimate(model, val), val)
}

/// GLAIVE's instruction tuples for `val`, as `Models::estimate` computes
/// them.
fn estimate(model: &GraphSage, val: &BenchData) -> Vec<Option<glaive_faultsim::VulnTuple>> {
    let probs = model.predict_proba(&val.features, &val.preds);
    aggregate_bit_probs(&val.cdfg, val.bench.program().len(), &probs)
}

/// Spearman ρ of GLAIVE's instruction scores against FI truth over the
/// FI-covered instructions of `val`.
fn rank_correlation(model: &GraphSage, val: &BenchData) -> f64 {
    let est = estimate(model, val);
    let pcs = val.covered_pcs();
    let xs: Vec<f64> = pcs
        .iter()
        .map(|&pc| est[pc].map_or(-1.0, |t| t.ranking_key()))
        .collect();
    let ys: Vec<f64> = pcs
        .iter()
        .map(|&pc| val.fi_tuples[pc].expect("covered").ranking_key())
        .collect();
    spearman(&xs, &ys)
}

/// The baseline models' training matrices, as `train_models` builds them.
pub struct Baselines {
    /// Labelled bit rows (the MLP's input).
    pub x: Matrix,
    /// Their classes.
    pub y: Vec<usize>,
    /// Instruction rows (the forest's and SVR's input).
    pub xi: Matrix,
    /// Their (crash, SDC, masked) targets.
    pub yi: Matrix,
}

/// Every labelled node of `graphs` as one row, with its class.
pub fn bit_rows(graphs: &[TrainGraph<'_>]) -> (Matrix, Vec<usize>) {
    let rows = graphs
        .iter()
        .map(|g| g.mask.iter().filter(|&&m| m).count())
        .sum();
    let mut x = Matrix::zeros(rows, graphs[0].features.cols());
    let mut y = Vec::with_capacity(rows);
    for g in graphs {
        for (i, _) in g.mask.iter().enumerate().filter(|(_, &m)| m) {
            x.row_mut(y.len()).copy_from_slice(g.features.row(i));
            y.push(g.labels[i]);
        }
    }
    (x, y)
}

/// The training graphs of `train`.
fn train_graphs<'a>(train: &[&'a BenchData]) -> Vec<TrainGraph<'a>> {
    train
        .iter()
        .map(|d| TrainGraph {
            features: &d.features,
            graph: &d.preds,
            labels: &d.labels,
            mask: &d.mask,
        })
        .collect()
}

/// The baseline matrices `train_models` builds from `train`: labelled bit
/// rows with their classes, and covered instructions with their FI tuples.
fn baseline_matrices(train: &[&BenchData], graphs: &[TrainGraph<'_>]) -> Baselines {
    let (x, y) = bit_rows(graphs);
    let irows: usize = train.iter().map(|d| d.instr_datapoints()).sum();
    let mut xi = Matrix::zeros(irows, INSTR_FEATURE_DIM);
    let mut yi = Matrix::zeros(irows, 3);
    let mut row = 0;
    for d in train {
        for pc in d.covered_pcs() {
            xi.row_mut(row).copy_from_slice(d.instr_features.row(pc));
            let t = d.fi_tuples[pc].expect("covered");
            yi.row_mut(row)
                .copy_from_slice(&[t.crash as f32, t.sdc as f32, t.masked as f32]);
            row += 1;
        }
    }
    Baselines { x, y, xi, yi }
}

fn secs(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// `train_models`' public training calls, each in a span: GraphSAGE on
/// `graphs`, the baselines on `baselines`. Returns the GraphSAGE and adds
/// each call's time to `times`.
pub fn train_by_layer(
    t: &Tracer,
    graphs: &[TrainGraph<'_>],
    baselines: &Baselines,
    config: &PipelineConfig,
    times: &mut LayerTimes,
) -> GraphSage {
    let mut glaive =
        GraphSage::try_new(graphs[0].features.cols(), &config.sage).expect("valid model config");
    times.gnn_s += secs(|| {
        t.span("gnn.train", || {
            glaive.train_with_threads(graphs, config.train_threads)
        });
    });
    times.epochs += config.sage.epochs;
    let Baselines { x, y, xi, yi } = baselines;
    let mut mlp = MlpClassifier::try_new(x.cols(), 3, &config.mlp).expect("valid model config");
    times.mlp_s += secs(|| {
        t.span("ml.mlp", || mlp.train(x, y, None));
    });
    times.forest_s += secs(|| {
        std::hint::black_box(t.span("ml.forest", || RandomForest::fit(xi, yi, &config.forest)));
    });
    times.svr_s += secs(|| {
        std::hint::black_box(t.span("ml.svr", || SvrRff::fit(xi, yi, &config.svr)));
    });
    glaive
}

/// Runs the workload.
pub fn run(ctx: &Ctx, report: &mut Report) -> Trained {
    let t = &ctx.tracer;
    let config = PipelineConfig::default();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut data = Vec::new();
    for rep in 0..SETUP_REPS {
        let from = if rep == 0 {
            ctx.started
        } else {
            Instant::now()
        };
        drop(std::mem::take(&mut data));
        fresh_memory_peak();
        let benches = t.span("lang.suite", || suite(ctx.seed));
        data = benches
            .into_iter()
            .map(|b| t.span("core.prepare_benchmark", || prepare_benchmark(b, &config)))
            .collect();
        setups.push(from.elapsed().as_secs_f64());
    }

    let mut train_s = 0.0;
    let mut examples = 0usize;
    let mut models = Vec::new();
    let mut layers = LayerTimes::default();
    let traced = t.enabled();
    assert!(
        !config.train_vanilla,
        "the vanilla ablation is not part of the workload"
    );
    let mut rhos = Vec::new();
    let mut rank_ms = Vec::new();
    let mut digests = Vec::new();
    t.span("bench.measure", || {
        for category in CATEGORIES {
            let train = train_split(&data, category);
            examples += train.iter().map(|d| d.bit_datapoints()).sum::<usize>();
            let start = Instant::now();
            let m = if traced {
                let graphs = train_graphs(&train);
                let baselines = baseline_matrices(&train, &graphs);
                train_by_layer(t, &graphs, &baselines, &config, &mut layers)
            } else {
                train_models(&train, &config).glaive_model().clone()
            };
            train_s += start.elapsed().as_secs_f64();
            report.attempted += 1;

            let val = validation(&data, category);
            let rho = t.span("core.estimate", || rank_correlation(&m, val));
            report.check(rho.is_finite(), || {
                format!("{}: rank correlation is {rho}", val.bench.name)
            });
            rhos.push(rho);
            digests.push(Json::from(format!("{:016x}", fnv1a(&m.to_bytes()))));
            models.push(m);
        }

        // The served use of the trained models: rank both validation
        // programs; every ranking must equal the first.
        let vals: Vec<&BenchData> = CATEGORIES.iter().map(|&c| validation(&data, c)).collect();
        let reference: Vec<Vec<usize>> =
            vals.iter().zip(&models).map(|(v, m)| rank(m, v)).collect();
        for _ in 0..(RANKS_PER_SECOND * ctx.seconds).max(20) {
            let start = Instant::now();
            let ranks: Vec<Vec<usize>> = t.span("gnn.rank", || {
                vals.iter().zip(&models).map(|(v, m)| rank(m, v)).collect()
            });
            rank_ms.push(start.elapsed().as_secs_f64() * 1e3);
            report.check(ranks == reference, || "a repeated ranking differs".into());
        }
    });

    let setup_s = median(&setups);
    let rho = rhos.iter().sum::<f64>() / rhos.len() as f64;
    report.e2e("setup_s", setup_s, "s", setups.len());
    report.e2e("throughput_per_s", examples as f64 / train_s, "1/s", 2);
    report.named("setup_s", setup_s, "s", setups.len());
    report.named("train_s", train_s, "s", 2);
    report.named("rank_spearman", rho, "rho", rhos.len());
    let s = summarize(&rank_ms);
    report.latency(
        Some(("op_p50_ms", "op_tail_ms")),
        ("rank_p50_ms", "rank_tail_ms"),
        &s,
    );

    let mut d = Json::obj();
    d.set("training_examples", examples)
        .set(
            "rank_spearman_per_category",
            rhos.iter().map(|&r| Json::from(r)).collect::<Vec<_>>(),
        )
        .set("model_digests", digests);
    report.detail("train_transfer", d);
    Trained {
        layers: traced.then_some(layers),
    }
}
