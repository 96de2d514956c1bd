//! `serve-mixed`: one in-process model server under a mixed request load.
//!
//! Two phases against the same server:
//!
//! - **paced**: an open loop at [`PACED_RPS`] over one connection per
//!   CPU. The mix is Predict on suite programs (graph-cache hits after
//!   warm-up), Predict on seeded Raw programs never sent before (misses
//!   that build the CDFG on the request path) and Budget queries (golden
//!   timing profile plus knapsack selection). At this rate the batcher
//!   mostly sees one request at a time, so latency is per-request service
//!   time.
//! - **saturated**: a closed loop in which every connection keeps
//!   [`WINDOW`] pipelined Predict requests on one mid-size program
//!   outstanding, so the batcher coalesces them and admission control is
//!   exercised.
//!
//! Every reply is checked after the phases against references computed
//! serially with the same weights: Predict rankings and tuples exactly,
//! per-node probabilities bit for bit on a seeded sample (`want_bits`),
//! and Budget selections against a local `ProtectionSelector` with
//! spent ≤ budget. A `Busy` reply counts as a failure.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use glaive::aggregate_bit_probs;
use glaive_bench_suite::{suite, Benchmark, SplitMix64};
use glaive_cdfg::{CdfgConfig, FEATURE_DIM};
use glaive_gnn::{GraphSage, SageConfig};
use glaive_isa::Program;
use glaive_nn::Matrix;
use glaive_serve::{
    BatchWorkspace, Client, PreparedProgram, ProgramSpec, Request, Response, Server, ServerConfig,
    ServerHandle, StatsReply, WireTuple,
};
use glaive_sim::ExecConfig;
use glaive_timing::{try_profile, InOrderCost, ProtectionItem, ProtectionSelector, Selection};
use glaive_wire::Frame;

use crate::json::Json;
use crate::loadgen::{run_closed, run_open};
use crate::rawgen::raw_programs;
use crate::report::{self, Ctx, Report};
use crate::stats::{median, summarize};

/// Paced-phase arrival rate, requests per second: about a quarter of the
/// saturated throughput the parent commit reached on a 2-CPU host (see
/// the benchmark's README for how it was chosen). A constant, so every
/// commit is offered the same load.
pub const PACED_RPS: f64 = 8.0;

/// Share of the measured time given to the paced phase; the saturated
/// phase gets the rest.
const PACED_SHARE: f64 = 0.6;

/// Pipelined requests each connection keeps outstanding when saturated.
pub const WINDOW: usize = 4;

/// The program every saturated-phase Predict asks for: a mid-size suite
/// program (4,968 graph nodes at stride 8; the suite's mean is 4,529), so
/// batches differ only in size, not in which programs they happen to mix.
const SATURATED_PROGRAM: &str = "ctaes";

/// CDFG stride every request asks for (the stride the model is built for).
pub const STRIDE: u32 = 8;

const TOP_K: u32 = 10;
const SETUP_REPS: usize = 5;

/// Overhead of every Budget query, percent of golden-run cycles: the
/// default of `glaive-cli budget --overhead-pct`.
const BUDGET_PCT: u32 = 5;

/// What one request asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Predict on suite program `i`.
    Hit(usize),
    /// Predict on Raw program `i`.
    Miss(usize),
    /// Budget on suite program `i` at [`BUDGET_PCT`].
    Budget(usize),
}

/// One planned request.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    /// The request kind.
    pub kind: Kind,
    /// Whether a Predict asks for per-node probabilities.
    pub want_bits: bool,
}

/// The paced request mix: `n` requests over `programs` suite programs.
///
/// Nothing records how often each kind arrives in real use, so the three
/// kinds take equal shares, with suite programs taken round-robin, in one
/// fixed shuffled order: queueing behind the large programs happens at the
/// same places for every seed. Raw programs are numbered in order of use.
/// Per-node probabilities exist only for the bit-level output check, so
/// exactly one cache-hit and one cache-miss Predict, chosen by `seed`, ask
/// for them: the least that checks both paths bit for bit.
pub fn plan(n: usize, programs: usize, seed: u64) -> Vec<Planned> {
    let mut kinds: Vec<Kind> = (0..n)
        .map(|i| match i % 3 {
            0 => Kind::Hit(i / 3 % programs),
            1 => Kind::Miss(0),
            _ => Kind::Budget(i / 3 % programs),
        })
        .collect();
    let mut rng = SplitMix64::new(0x5345_5256_454d_4958);
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    let mut raws = 0;
    let mut planned: Vec<Planned> = kinds
        .into_iter()
        .map(|kind| Planned {
            kind: match kind {
                Kind::Miss(_) => {
                    raws += 1;
                    Kind::Miss(raws - 1)
                }
                k => k,
            },
            want_bits: false,
        })
        .collect();
    let mut rng = SplitMix64::new(seed ^ 0x4249_5453);
    for hit in [true, false] {
        let at: Vec<usize> = (0..planned.len())
            .filter(|&i| match planned[i].kind {
                Kind::Hit(_) => hit,
                Kind::Miss(_) => !hit,
                Kind::Budget(_) => false,
            })
            .collect();
        if !at.is_empty() {
            planned[at[rng.next_below(at.len() as u64) as usize]].want_bits = true;
        }
    }
    planned
}

fn suite_spec(b: &Benchmark, seed: u64) -> ProgramSpec {
    ProgramSpec::Suite {
        name: b.name.to_string(),
        seed,
    }
}

fn request(p: &Planned, suite: &[Benchmark], raws: &[Program], seed: u64) -> Request {
    match p.kind {
        Kind::Hit(i) => Request::Predict {
            spec: suite_spec(&suite[i], seed),
            stride: STRIDE,
            top_k: TOP_K,
            want_bits: p.want_bits,
        },
        Kind::Miss(i) => Request::Predict {
            spec: ProgramSpec::Raw(raws[i].clone()),
            stride: STRIDE,
            top_k: TOP_K,
            want_bits: p.want_bits,
        },
        Kind::Budget(i) => Request::Budget {
            spec: suite_spec(&suite[i], seed),
            stride: STRIDE,
            overhead_pct: BUDGET_PCT,
        },
    }
}

/// Serial reference for one program: what a Predict must answer.
struct Reference {
    probs: Matrix,
    tuples: Vec<Option<glaive_faultsim::VulnTuple>>,
    wire: Vec<Option<WireTuple>>,
    top_k: Vec<u32>,
}

fn reference(model: &GraphSage, program: &Program) -> Reference {
    let prepared = PreparedProgram::build(
        program.clone(),
        &CdfgConfig {
            bit_stride: STRIDE as usize,
        },
    );
    let probs = model.predict_proba(&prepared.features, prepared.cdfg.preds_csr());
    let tuples = aggregate_bit_probs(&prepared.cdfg, program.len(), &probs);
    let wire = tuples
        .iter()
        .map(|t| t.map(|v| [v.crash as f32, v.sdc as f32, v.masked as f32]))
        .collect();
    let mut top_k: Vec<u32> = (0..tuples.len())
        .filter(|&pc| tuples[pc].is_some())
        .map(|pc| pc as u32)
        .collect();
    let key = |pc: u32| tuples[pc as usize].expect("covered").ranking_key();
    top_k.sort_by(|&a, &b| key(b).total_cmp(&key(a)).then(a.cmp(&b)));
    top_k.truncate(TOP_K as usize);
    Reference {
        probs,
        tuples,
        wire,
        top_k,
    }
}

/// The selection a Budget query on `bench` must return.
fn budget_reference(bench: &Benchmark, r: &Reference) -> Result<Selection, String> {
    let (result, profile) = try_profile(
        bench.program(),
        &bench.init_mem,
        &ExecConfig::default(),
        InOrderCost::default(),
    )
    .map_err(|e| e.to_string())?;
    if !result.status.is_clean() {
        return Err(format!("{}: golden run is not clean", bench.name));
    }
    let items: Vec<ProtectionItem> = r
        .tuples
        .iter()
        .enumerate()
        .filter_map(|(pc, t)| {
            let t = (*t)?;
            let timing = profile.per_pc.get(pc)?;
            (timing.executions > 0).then_some(ProtectionItem {
                pc,
                value: t.ranking_key(),
                cost: timing.cycles,
            })
        })
        .collect();
    Ok(ProtectionSelector::with_overhead_pct(profile.total_cycles, BUDGET_PCT).select(&items))
}

fn same_bits(a: &[WireTuple], probs: &Matrix) -> bool {
    a.len() == probs.rows()
        && a.iter().enumerate().all(|(r, got)| {
            got.iter()
                .zip(probs.row(r))
                .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

fn same_wire(a: &[Option<WireTuple>], b: &[Option<WireTuple>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Some(x), Some(y)) => x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()),
            (None, None) => true,
            _ => false,
        })
}

/// Checks one decoded reply against its reference.
fn check_reply(
    resp: &Response,
    p: &Planned,
    r: &Reference,
    budget: Option<&Selection>,
) -> Result<(), String> {
    match (resp, p.kind) {
        (Response::Predict(reply), Kind::Hit(_) | Kind::Miss(_)) => {
            if reply.top_k != r.top_k || !same_wire(&reply.tuples, &r.wire) {
                return Err("ranking differs from the serial reference".into());
            }
            match (&reply.bit_probs, p.want_bits) {
                (Some(bits), true) if same_bits(bits, &r.probs) => Ok(()),
                (Some(_), true) => Err("per-node probabilities differ bit-wise".into()),
                (None, false) => Ok(()),
                _ => Err("per-node probabilities returned against the request".into()),
            }
        }
        (Response::Budget(reply), Kind::Budget(..)) => {
            let sel = budget.ok_or("no budget reference")?;
            let items_match = reply.items.len() == sel.chosen.len()
                && reply.items.iter().zip(&sel.chosen).all(|(got, want)| {
                    got.pc as usize == want.pc
                        && got.cycles == want.cost
                        && got.score.to_bits() == (want.value as f32).to_bits()
                });
            if !items_match {
                Err("protection set differs from the local selector".into())
            } else if reply.spent_cycles > reply.budget_cycles
                || reply.spent_cycles != sel.spent
                || reply.budget_cycles != sel.budget
            {
                Err(format!(
                    "spent {} of budget {} (selector: {} of {})",
                    reply.spent_cycles, reply.budget_cycles, sel.spent, sel.budget
                ))
            } else {
                Ok(())
            }
        }
        (Response::Busy { .. }, _) => Err("refused with Busy".into()),
        (Response::Error { code, message }, _) => Err(format!("error {code:?}: {message}")),
        (other, _) => Err(format!("unexpected reply {other:?}")),
    }
}

/// A running server with its model and the programs it serves.
struct Live {
    handle: ServerHandle,
    addr: SocketAddr,
    model: GraphSage,
}

/// Builds the model, binds and spawns the server, and warms its graph
/// cache with every suite program.
fn start(ctx: &Ctx, benches: &[Benchmark]) -> Result<Live, String> {
    let t = &ctx.tracer;
    let model = t
        .span("gnn.new", || {
            GraphSage::try_new(FEATURE_DIM, &SageConfig::default())
        })
        .map_err(|e| e.to_string())?;
    let server = Server::bind(model.clone(), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    t.span("serve.warmup", || {
        for b in benches {
            client
                .predict(suite_spec(b, ctx.seed), STRIDE, TOP_K, false)
                .map_err(|e| format!("warm-up {}: {e}", b.name))?;
        }
        Ok::<(), String>(())
    })?;
    Ok(Live {
        handle,
        addr,
        model,
    })
}

fn stop(live: Live) -> Result<StatsReply, String> {
    Client::connect(live.addr)
        .and_then(|mut c| c.shutdown_server())
        .map_err(|e| e.to_string())?;
    live.handle.join().map_err(|e| e.to_string())
}

fn stats(addr: SocketAddr) -> Result<StatsReply, String> {
    Client::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| e.to_string())
}

/// Phase sizes of one serving session.
pub struct Shape {
    /// Paced requests.
    pub paced: usize,
    /// Paced arrival rate, requests per second.
    pub rate: f64,
    /// How long the saturated phase keeps sending.
    pub saturated: Duration,
}

/// One answered paced Predict on a suite program.
pub struct Hit {
    /// Suite index of the program.
    pub program: usize,
    /// Due-to-reply latency, ms.
    pub latency_ms: f64,
    /// Time spent encoding its request and decoding its reply, µs.
    pub codec_us: f64,
}

/// What one load-generator phase sent and how it fared. `Busy`, error
/// frames, dropped and mismatched replies are failures.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseCounts {
    /// Requests that went out.
    pub sent: usize,
    /// Requests answered correctly.
    pub succeeded: usize,
    /// Requests attempted and not answered correctly.
    pub failed: usize,
}

impl PhaseCounts {
    fn to_json(self) -> Json {
        let mut o = Json::obj();
        o.set("sent", self.sent)
            .set("succeeded", self.succeeded)
            .set("failed", self.failed);
        o
    }
}

/// What a session measured, for the end-to-end and per-layer metrics.
pub struct Session {
    /// Paced-phase request counts.
    pub paced_counts: PhaseCounts,
    /// Saturated-phase request counts.
    pub saturated_counts: PhaseCounts,
    /// Paced Predict latencies (hits and misses), ms.
    pub predict_ms: Vec<f64>,
    /// The same latencies per thousand graph nodes of the program.
    pub predict_ms_per_knode: Vec<f64>,
    /// The paced Predicts that hit the graph cache.
    pub hits: Vec<Hit>,
    /// Paced Budget latencies, ms.
    pub budget_ms: Vec<f64>,
    /// Saturated latencies, ms.
    pub saturated_ms: Vec<f64>,
    /// Saturated answered requests per second.
    pub saturated_rps: f64,
    /// Largest paced send lateness, ms.
    pub lateness_ms: f64,
    /// Load-generator lanes (threads = connections).
    pub lanes: usize,
    /// Paced-phase graph-cache hit ratio.
    pub cache_hit_ratio: f64,
    /// Saturated-phase mean batch size.
    pub mean_batch: f64,
    /// Peak batch size over the session.
    pub peak_batch: u64,
    /// Deepest admission queue seen.
    pub queue_depth_max: u64,
    /// Busy refusals over both phases.
    pub busy_rejections: u64,
    /// Median Ping round trip on the idle server, µs.
    pub ping_rtt_us: f64,
    /// Median `Request::to_frame`, µs.
    pub encode_us: f64,
    /// Median `Response::from_frame`, µs.
    pub decode_us: f64,
    /// The served model, for the batch probes.
    pub model: GraphSage,
    /// Set-up times, s.
    pub setups: Vec<f64>,
}

/// Answered requests per second in the saturated phase: replies are
/// counted in one-second windows from one second after the start until
/// sending stopped, and the rate is the mean of the middle half of those
/// counts. The ramp-up, the final drain and windows hit by a transient
/// stall on a shared host are left out. Phases of three seconds or less
/// use their overall rate.
fn steady_rate(phase: &crate::loadgen::Phase, duration: Duration) -> f64 {
    let windows = duration.as_secs() as usize;
    if windows <= 3 {
        return phase.answered() as f64 / phase.wall.as_secs_f64().max(1e-9);
    }
    let mut counts = vec![0.0f64; windows];
    for r in phase.records.iter().filter(|r| r.reply.is_some()) {
        if let Some(c) = r
            .replied
            .and_then(|at| counts.get_mut(at.as_secs() as usize))
        {
            *c += 1.0;
        }
    }
    let mut steady = counts.split_off(1);
    steady.sort_by(f64::total_cmp);
    let quarter = steady.len() / 4;
    let middle = &steady[quarter..steady.len() - quarter];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Runs one serving session: set-up (repeated), paced phase, saturated
/// phase, checks. Failures are counted into `report`.
pub fn session(ctx: &Ctx, report: &mut Report, shape: &Shape) -> Result<Session, String> {
    let t = &ctx.tracer;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut live = None;
    let mut benches = Vec::new();
    for rep in 0..SETUP_REPS {
        let from = if rep == 0 {
            ctx.started
        } else {
            Instant::now()
        };
        if let Some(old) = live.take() {
            stop(old)?;
            report::fresh_memory_peak();
        }
        benches = t.span("lang.suite", || suite(ctx.seed));
        live = Some(t.span("serve.start", || start(ctx, &benches))?);
        setups.push(from.elapsed().as_secs_f64());
    }
    let live = live.expect("at least one set-up");
    let addr = live.addr;

    // The paced mix, encoded before the phase starts.
    let planned = plan(shape.paced, benches.len(), ctx.seed);
    let misses = planned
        .iter()
        .filter(|p| matches!(p.kind, Kind::Miss(_)))
        .count();
    let raws = raw_programs(&benches, ctx.seed, misses);
    // All spans of one request share its id: paced request `i` is `i + 1`,
    // the `k`-th saturated request follows every paced one.
    let paced_id = |i: usize| Some(i as u64 + 1);
    let saturated_id = |k: usize| Some((planned.len() + k) as u64 + 1);
    let mut encode_us = Vec::with_capacity(planned.len());
    let frames: Vec<Frame> = planned
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let req = request(p, &benches, &raws, ctx.seed);
            let start = Instant::now();
            let frame = t.span_under("wire.encode", None, paced_id(i), || req.to_frame());
            encode_us.push(start.elapsed().as_secs_f64() * 1e6);
            frame
        })
        .collect();
    let due: Vec<Duration> = (0..planned.len())
        .map(|i| Duration::from_secs_f64(i as f64 / shape.rate))
        .collect();
    let lanes = ctx.nproc.max(1);
    let sat_program = benches
        .iter()
        .position(|b| b.name == SATURATED_PROGRAM)
        .ok_or("the suite lost its saturated-phase program")?;
    let sat_frames = [Request::Predict {
        spec: suite_spec(&benches[sat_program], ctx.seed),
        stride: STRIDE,
        top_k: TOP_K,
        want_bits: false,
    }
    .to_frame()];

    let before = stats(addr)?;
    let (paced, mid, saturated, root) = t.span("bench.measure", || {
        let root = t.current();
        let paced = run_open(addr, lanes, &frames, &due);
        let mid = stats(addr);
        let saturated = run_closed(addr, lanes, WINDOW, &sat_frames, shape.saturated);
        (paced, mid, saturated, root)
    });
    let mid = mid?;
    let after = stats(addr)?;
    // Each phase is a span; under it one span per request from its due
    // time to its reply, itself parent of the generator's lateness.
    for (phase, name) in [(&paced, "loadgen.paced"), (&saturated, "loadgen.saturated")] {
        let id = t.record(name, root, None, phase.start, phase.start + phase.wall);
        for (k, rec) in phase.records.iter().enumerate() {
            let request = if name == "loadgen.paced" {
                paced_id(rec.frame)
            } else {
                saturated_id(k)
            };
            if let (Some(sent), Some(replied)) = (rec.sent, rec.replied) {
                let due = phase.start + rec.due;
                let r = t.record(
                    "serve.request",
                    Some(id),
                    request,
                    due,
                    phase.start + replied,
                );
                t.record("loadgen.late", Some(r), request, due, phase.start + sent);
            }
        }
    }

    // References, outside set-up and outside the measured phases.
    let refs: Vec<Reference> = t.span("gnn.reference", || {
        benches
            .iter()
            .map(|b| reference(&live.model, b.program()))
            .collect()
    });
    let raw_refs: Vec<Reference> = t.span("gnn.reference", || {
        raws.iter().map(|p| reference(&live.model, p)).collect()
    });
    let mut budgets = std::collections::BTreeMap::new();
    for p in &planned {
        if let Kind::Budget(i) = p.kind {
            if let std::collections::btree_map::Entry::Vacant(e) = budgets.entry(i) {
                e.insert(t.span("timing.reference", || {
                    budget_reference(&benches[i], &refs[i])
                })?);
            }
        }
    }

    let mut decode_us = Vec::new();
    let mut decode = |payload: &[u8], request: Option<u64>| {
        let start = Instant::now();
        let resp = t.span_under("wire.decode", None, request, || {
            Response::from_frame(payload).map_err(|e| e.to_string())
        });
        let us = start.elapsed().as_secs_f64() * 1e6;
        decode_us.push(us);
        (resp, us)
    };

    let (mut predict_ms, mut budget_ms, mut hits) = (Vec::new(), Vec::new(), Vec::new());
    let mut predict_ms_per_knode = Vec::new();
    // Every planned request is attempted; one a failed lane never
    // recorded counts as failed.
    let mut paced_counts = PhaseCounts::default();
    report.attempted += planned.len() as u64;
    let unrecorded = planned.len() - paced.records.len();
    if unrecorded > 0 {
        report.fail_n(
            unrecorded as u64,
            format!("{unrecorded} paced requests never went out"),
        );
    }
    for rec in &paced.records {
        let p = &planned[rec.frame];
        paced_counts.sent += usize::from(rec.sent.is_some());
        let Some(payload) = &rec.reply else {
            report.fail(format!("paced request {} got no reply", rec.frame));
            continue;
        };
        let (r, budget) = match p.kind {
            Kind::Hit(i) => (&refs[i], None),
            Kind::Miss(i) => (&raw_refs[i], None),
            Kind::Budget(i) => (&refs[i], budgets.get(&i)),
        };
        let (resp, dec_us) = decode(payload, paced_id(rec.frame));
        match resp.and_then(|resp| check_reply(&resp, p, r, budget)) {
            Ok(()) => {
                paced_counts.succeeded += 1;
                let ms = rec.latency_ms().expect("answered");
                if let Kind::Budget(..) = p.kind {
                    budget_ms.push(ms);
                    continue;
                }
                predict_ms.push(ms);
                predict_ms_per_knode.push(ms * 1e3 / r.probs.rows().max(1) as f64);
                if let Kind::Hit(i) = p.kind {
                    hits.push(Hit {
                        program: i,
                        latency_ms: ms,
                        codec_us: encode_us[rec.frame] + dec_us,
                    });
                }
            }
            Err(e) => report.fail(format!("paced request {} ({:?}): {e}", rec.frame, p.kind)),
        }
    }
    paced_counts.failed = planned.len() - paced_counts.succeeded;

    let mut saturated_ms = Vec::new();
    let sat_plan = Planned {
        kind: Kind::Hit(0),
        want_bits: false,
    };
    let mut saturated_counts = PhaseCounts::default();
    // A closed-loop lane that recorded nothing failed to connect: one
    // failed operation each.
    let silent = (0..lanes)
        .filter(|&lane| !saturated.records.iter().any(|r| r.lane == lane))
        .count();
    if silent > 0 {
        report.attempted += silent as u64;
        report.fail_n(
            silent as u64,
            format!("{silent} saturated lanes sent nothing"),
        );
    }
    for (k, rec) in saturated.records.iter().enumerate() {
        report.attempted += 1;
        saturated_counts.sent += 1;
        let Some(payload) = &rec.reply else {
            report.fail(format!(
                "saturated request on lane {} got no reply",
                rec.lane
            ));
            continue;
        };
        let checked = decode(payload, saturated_id(k))
            .0
            .and_then(|resp| check_reply(&resp, &sat_plan, &refs[sat_program], None));
        match checked {
            Ok(()) => saturated_ms.push(rec.latency_ms().expect("answered")),
            Err(e) => report.fail(format!("saturated request: {e}")),
        }
    }
    saturated_counts.succeeded = saturated_ms.len();
    saturated_counts.failed = saturated_counts.sent + silent - saturated_counts.succeeded;
    for e in paced.errors.iter().chain(&saturated.errors) {
        report.notes.push(format!("load generator: {e}"));
    }

    // Idle round trip: event loop and framing, no model.
    let mut ping_us = Vec::new();
    {
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        for _ in 0..200 {
            let start = Instant::now();
            t.span("serve.ping", || client.ping())
                .map_err(|e| e.to_string())?;
            ping_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    let model = live.model.clone();
    stop(live)?;

    let cache_hits = mid.cache_hits - before.cache_hits;
    let lookups = cache_hits + mid.cache_misses - before.cache_misses;
    let sat_batches = after.batches - mid.batches;
    Ok(Session {
        saturated_rps: steady_rate(&saturated, shape.saturated),
        lateness_ms: paced.max_lateness_ms(),
        lanes,
        cache_hit_ratio: cache_hits as f64 / lookups.max(1) as f64,
        mean_batch: (after.predictions - mid.predictions) as f64 / sat_batches.max(1) as f64,
        peak_batch: after.peak_batch,
        queue_depth_max: after.queue_depth_max,
        busy_rejections: after.busy_rejections - before.busy_rejections,
        ping_rtt_us: median(&ping_us),
        encode_us: median(&encode_us),
        decode_us: median(&decode_us),
        paced_counts,
        saturated_counts,
        predict_ms,
        predict_ms_per_knode,
        budget_ms,
        hits,
        saturated_ms,
        model,
        setups,
    })
}

/// The full workload: [`PACED_SHARE`] of the measured time paced, the
/// rest saturated.
pub fn run(ctx: &Ctx, report: &mut Report) -> Option<Session> {
    let paced_s = ctx.seconds as f64 * PACED_SHARE;
    let shape = Shape {
        paced: (PACED_RPS * paced_s).round() as usize,
        rate: PACED_RPS,
        saturated: Duration::from_secs_f64(ctx.seconds as f64 - paced_s),
    };
    let s = match session(ctx, report, &shape) {
        Ok(s) => s,
        Err(e) => {
            report.check(false, || format!("serving session failed: {e}"));
            return None;
        }
    };
    let setup_s = median(&s.setups);
    report.e2e("setup_s", setup_s, "s", s.setups.len());
    report.e2e(
        "throughput_per_s",
        s.saturated_rps,
        "1/s",
        s.saturated_ms.len(),
    );
    report.named("setup_s", setup_s, "s", s.setups.len());
    report.named(
        "saturated_rps",
        s.saturated_rps,
        "req/s",
        s.saturated_ms.len(),
    );
    for (samples, e2e, named) in [
        (&s.predict_ms, None, ("predict_p50_ms", "predict_tail_ms")),
        (
            &s.predict_ms_per_knode,
            Some(("op_p50_ms", "op_tail_ms")),
            ("predict_ms_per_knode_p50", "predict_ms_per_knode_tail"),
        ),
        (&s.budget_ms, None, ("budget_p50_ms", "budget_tail_ms")),
        (
            &s.saturated_ms,
            None,
            ("saturated_p50_ms", "saturated_tail_ms"),
        ),
    ] {
        if samples.is_empty() {
            report.check(false, || format!("no successful samples for {}", named.0));
        } else {
            report.latency(e2e, named, &summarize(samples));
        }
    }
    let mut d = Json::obj();
    d.set("paced_rps", PACED_RPS)
        .set("paced_requests", shape.paced)
        .set("paced", s.paced_counts.to_json())
        .set("saturated", s.saturated_counts.to_json())
        .set("window", WINDOW)
        .set("loadgen_threads", s.lanes)
        .set("loadgen_connections", s.lanes)
        .set("lateness_ms", s.lateness_ms)
        .set("cache_hit_ratio", s.cache_hit_ratio)
        .set("mean_batch", s.mean_batch)
        .set("peak_batch", s.peak_batch)
        .set("queue_depth_max", s.queue_depth_max)
        .set("busy_rejections", s.busy_rejections);
    report.detail("serve_mixed", d);
    Some(s)
}

/// Per-layer serving metrics from a session: its counters plus batched
/// forward passes on the session's model over `prepared`, the suite's
/// programs in suite order at [`STRIDE`]. `suite_compile_ms` feeds the
/// unattributed-time estimate.
pub fn layer_metrics(
    ctx: &Ctx,
    report: &mut Report,
    s: &Session,
    prepared: &[Arc<PreparedProgram>],
    suite_compile_ms: f64,
) {
    let t = &ctx.tracer;
    // The server's batcher reuses one warm workspace; so does the probe,
    // which times the second of two identical calls.
    let mut ws = BatchWorkspace::new();
    let timed = |ws: &mut BatchWorkspace, batch: &[Arc<PreparedProgram>]| {
        assert_eq!(ws.run_prepared(&s.model, batch).len(), batch.len());
        let start = Instant::now();
        std::hint::black_box(t.span("serve.batch_forward", || ws.run_prepared(&s.model, batch)));
        start.elapsed().as_secs_f64() * 1e3
    };
    let singles: Vec<f64> = prepared
        .iter()
        .map(|p| timed(&mut ws, std::slice::from_ref(p)))
        .collect();
    let batch1 = singles.iter().sum::<f64>() / singles.len() as f64;
    // Batches of the saturated phase's mean size, cycling over the suite.
    let n = (s.mean_batch.round() as usize).clamp(1, prepared.len());
    let (mut batched, mut serial) = (Vec::new(), 0.0);
    for start in (0..prepared.len()).step_by(n) {
        let group: Vec<Arc<PreparedProgram>> = (start..start + n)
            .map(|i| prepared[i % prepared.len()].clone())
            .collect();
        serial += (start..start + n)
            .map(|i| singles[i % prepared.len()])
            .sum::<f64>();
        batched.push(timed(&mut ws, &group));
    }
    let batchn = batched.iter().sum::<f64>() / batched.len() as f64;
    let gain = serial / batched.iter().sum::<f64>();

    report.layer("wire.encode_us", s.encode_us, "us", s.predict_ms.len());
    report.layer("wire.decode_us", s.decode_us, "us", s.predict_ms.len());
    report.layer("serve.ping_rtt_us", s.ping_rtt_us, "us", 200);
    report.layer("serve.batch1_forward_ms", batch1, "ms", singles.len());
    report.layer("serve.batchn_forward_ms", batchn, "ms", batched.len());
    report.layer("serve.batch_gain", gain, "ratio", batched.len());
    report.layer("serve.cache_hit_ratio", s.cache_hit_ratio, "ratio", 1);
    report.layer("serve.mean_batch", s.mean_batch, "count", 1);
    report.layer("serve.peak_batch", s.peak_batch as f64, "count", 1);
    report.layer(
        "serve.queue_depth_max",
        s.queue_depth_max as f64,
        "count",
        1,
    );
    report.layer(
        "serve.busy_rejections",
        s.busy_rejections as f64,
        "count",
        1,
    );
    report.layer(
        "loadgen.lateness_ms",
        s.lateness_ms,
        "ms",
        s.predict_ms.len(),
    );
    // Per cache-hit Predict: its latency minus what the layers explain
    // (suite compile, its program's batch-1 forward pass, its own encode
    // and decode, an idle round trip); the median of the remainders.
    let gaps: Vec<f64> = s
        .hits
        .iter()
        .map(|h| {
            h.latency_ms
                - suite_compile_ms
                - singles[h.program]
                - (h.codec_us + s.ping_rtt_us) / 1e3
        })
        .collect();
    if gaps.is_empty() {
        report
            .notes
            .push("serve.unattributed_ms: no successful cache-hit Predict".into());
    } else {
        report.layer("serve.unattributed_ms", median(&gaps), "ms", gaps.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_has_equal_shares_and_one_bit_check_per_predict_kind() {
        let planned = plan(96, 12, 7);
        let count = |f: fn(&Kind) -> bool| planned.iter().filter(|p| f(&p.kind)).count();
        assert_eq!(count(|k| matches!(k, Kind::Hit(_))), 32);
        assert_eq!(count(|k| matches!(k, Kind::Miss(_))), 32);
        assert_eq!(count(|k| matches!(k, Kind::Budget(_))), 32);
        // Raw programs are numbered in order of use.
        let raws: Vec<usize> = planned
            .iter()
            .filter_map(|p| match p.kind {
                Kind::Miss(i) => Some(i),
                _ => None,
            })
            .collect();
        assert_eq!(raws, (0..32).collect::<Vec<_>>());
        let bits: Vec<Kind> = planned
            .iter()
            .filter(|p| p.want_bits)
            .map(|p| p.kind)
            .collect();
        assert_eq!(bits.len(), 2);
        assert!(bits.iter().any(|k| matches!(k, Kind::Hit(_))));
        assert!(bits.iter().any(|k| matches!(k, Kind::Miss(_))));
        // The kinds and their order do not depend on the seed.
        let kinds = |p: &[Planned]| p.iter().map(|p| p.kind).collect::<Vec<_>>();
        assert_eq!(kinds(&planned), kinds(&plan(96, 12, 8)));
    }
}
