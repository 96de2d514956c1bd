//! End-to-end tests of the model server: differential correctness under
//! concurrency, graceful shutdown, and wire-level robustness against
//! corrupted frames.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use glaive_cdfg::{Cdfg, CdfgConfig, FEATURE_DIM};
use glaive_gnn::{GraphSage, SageConfig};
use glaive_isa::{AluOp, Asm, BranchCond, Program, Reg};
use glaive_nn::Matrix;
use glaive_serve::protocol::{read_frame, MAGIC};
use glaive_serve::{
    Client, ClientError, ClientReport, ErrorCode, ProgramSpec, ProtocolError, Request, Response,
    Server, ServerConfig,
};

const STRIDE: usize = 16;

/// Writes arbitrary bytes with the wire length prefix, bypassing the
/// sealed [`glaive_serve::protocol::Frame`] API — production code cannot
/// do this, which is exactly what the corruption tests need.
fn write_raw(w: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

fn model() -> GraphSage {
    GraphSage::try_new(
        FEATURE_DIM,
        &SageConfig {
            hidden: 8,
            layers: 2,
            classes: 3,
            sample_size: 4,
            lr: 1e-2,
            epochs: 1,
            seed: 9,
        },
    )
    .expect("valid model config")
}

/// Three small, structurally distinct programs so coalesced batches mix
/// different graph shapes.
fn programs() -> Vec<Program> {
    let mut out = Vec::new();

    let mut a = Asm::new("straightline");
    a.li(Reg(1), 2)
        .li(Reg(2), 40)
        .alu(AluOp::Add, Reg(3), Reg(1), Reg(2))
        .out(Reg(3))
        .halt();
    out.push(a.finish().expect("assembles"));

    let mut b = Asm::new("looped");
    let top = b.label();
    b.li(Reg(1), 5).li(Reg(2), 0);
    b.bind(top)
        .alu(AluOp::Add, Reg(2), Reg(2), Reg(1))
        .alu_imm(AluOp::Sub, Reg(1), Reg(1), 1)
        .branch(BranchCond::Ne, Reg(1), Reg(0), top)
        .out(Reg(2))
        .halt();
    out.push(b.finish().expect("assembles"));

    let mut c = Asm::new("memory");
    c.set_mem_words(4);
    c.li(Reg(1), 7)
        .store(Reg(1), Reg(0), 1)
        .load(Reg(2), Reg(0), 1)
        .alu_imm(AluOp::Mul, Reg(2), Reg(2), 6)
        .out(Reg(2))
        .halt();
    out.push(c.finish().expect("assembles"));

    out
}

fn serial_probs(model: &GraphSage, program: &Program) -> Matrix {
    let cdfg = Cdfg::build(program, &CdfgConfig { bit_stride: STRIDE });
    let features = Matrix::from_vec(cdfg.node_count(), FEATURE_DIM, cdfg.feature_matrix());
    model.predict_proba(&features, cdfg.preds_csr())
}

/// Concurrent clients hammering the coalescing path must each receive
/// results bit-identical to single-program serial inference with the same
/// weights — the service-level differential guarantee.
#[test]
fn batched_inference_is_bit_identical_to_serial_under_concurrency() {
    let model = model();
    let programs = programs();
    let references: Vec<Matrix> = programs.iter().map(|p| serial_probs(&model, p)).collect();
    let programs = Arc::new(programs);
    let references = Arc::new(references);

    const CLIENTS: usize = 6;
    const REQUESTS: usize = 8;
    let server = Server::bind(
        model,
        "127.0.0.1:0",
        ServerConfig {
            workers: CLIENTS,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mismatches = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let programs = programs.clone();
            let references = references.clone();
            let mismatches = mismatches.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                for r in 0..REQUESTS {
                    let which = (id + r) % programs.len();
                    let spec = ProgramSpec::Raw(programs[which].clone());
                    let reply = client
                        .predict(spec, STRIDE as u32, 5, true)
                        .expect("predict");
                    let serial = &references[which];
                    assert_eq!(reply.node_count as usize, serial.rows());
                    assert_eq!(reply.tuples.len(), programs[which].len());
                    let bits = reply.bit_probs.as_deref().expect("requested bit probs");
                    let identical = bits.len() == serial.rows()
                        && bits.iter().enumerate().all(|(row, got)| {
                            got.iter()
                                .zip(serial.row(row))
                                .all(|(a, b)| a.to_bits() == b.to_bits())
                        });
                    if !identical {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    assert_eq!(mismatches.load(Ordering::Relaxed), 0, "batched ≠ serial");

    let mut control = Client::connect(addr).expect("control");
    let stats = control.stats().expect("stats");
    assert!(
        stats.predictions >= (CLIENTS * REQUESTS) as u64,
        "all predictions counted"
    );
    assert_eq!(stats.errors, 0, "no server-side errors");
    control.shutdown_server().expect("shutdown");
    let final_stats = handle.join().expect("clean exit");
    assert!(final_stats.requests > stats.requests, "stats monotone");
}

/// Shutdown is graceful: the ack arrives, the server thread exits, and the
/// port stops accepting work.
#[test]
fn shutdown_is_acknowledged_and_terminal() {
    let server = Server::bind(model(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping before shutdown");
    client.shutdown_server().expect("shutdown acknowledged");
    handle.join().expect("server run returns");

    // The listener is gone: a fresh connection either fails outright or
    // dies on first use.
    if let Ok(mut late) = Client::connect(addr) {
        assert!(late.ping().is_err(), "server still serving after shutdown");
    }
}

/// Every single-byte flip of a sealed request payload must decode to a
/// typed error — magic, opcode, body and checksum positions alike.
#[test]
fn request_frames_reject_every_single_byte_flip_and_truncation() {
    let request = Request::Predict {
        spec: ProgramSpec::Raw(programs().remove(1)),
        stride: STRIDE as u32,
        top_k: 4,
        want_bits: true,
    };
    let payload = request.to_frame().into_bytes();
    assert!(payload.len() > MAGIC.len() + 8);
    for pos in 0..payload.len() {
        for flip in [0x01u8, 0xff] {
            let mut tampered = payload.clone();
            tampered[pos] ^= flip;
            assert!(
                Request::from_frame(&tampered).is_err(),
                "request flip {flip:#04x} at byte {pos} was not rejected"
            );
        }
    }
    for len in 0..payload.len() {
        assert!(
            Request::from_frame(&payload[..len]).is_err(),
            "request truncation to {len} bytes was not rejected"
        );
    }
}

/// The same property for response payloads, which carry f32 matrices and
/// optional sections.
#[test]
fn response_frames_reject_every_single_byte_flip_and_truncation() {
    let response = Response::Predict(glaive_serve::PredictReply {
        tuples: vec![Some([0.25, 0.5, 0.25]), None, Some([0.0, 0.125, 0.875])],
        top_k: vec![2, 0],
        node_count: 9,
        batch_size: 3,
        bit_probs: Some(vec![[0.5, 0.25, 0.25]; 9]),
    });
    let payload = response.to_frame().into_bytes();
    for pos in 0..payload.len() {
        for flip in [0x01u8, 0xff] {
            let mut tampered = payload.clone();
            tampered[pos] ^= flip;
            assert!(
                Response::from_frame(&tampered).is_err(),
                "response flip {flip:#04x} at byte {pos} was not rejected"
            );
        }
    }
    for len in 0..payload.len() {
        assert!(
            Response::from_frame(&payload[..len]).is_err(),
            "response truncation to {len} bytes was not rejected"
        );
    }
}

/// The flip/truncation property extends to the budget opcode pair: a
/// tampered `BudgetQuery` request or reply never decodes.
#[test]
fn budget_frames_reject_every_single_byte_flip_and_truncation() {
    let request = Request::Budget {
        spec: ProgramSpec::Raw(programs().remove(1)),
        stride: STRIDE as u32,
        overhead_pct: 5,
    };
    let response = Response::Budget(glaive_serve::BudgetReply {
        items: vec![
            glaive_serve::BudgetItem {
                pc: 2,
                cycles: 31,
                score: 1.5,
            },
            glaive_serve::BudgetItem {
                pc: 5,
                cycles: 9,
                score: 0.25,
            },
        ],
        node_count: 40,
        batch_size: 1,
        total_cycles: 800,
        budget_cycles: 40,
        spent_cycles: 40,
        covered: 1.75,
    });
    let req_payload = request.to_frame().into_bytes();
    let resp_payload = response.to_frame().into_bytes();
    for (what, payload) in [("request", req_payload), ("response", resp_payload)] {
        for pos in 0..payload.len() {
            for flip in [0x01u8, 0xff] {
                let mut tampered = payload.clone();
                tampered[pos] ^= flip;
                let rejected = if what == "request" {
                    Request::from_frame(&tampered).is_err()
                } else {
                    Response::from_frame(&tampered).is_err()
                };
                assert!(
                    rejected,
                    "budget {what} flip {flip:#04x} at byte {pos} was not rejected"
                );
            }
        }
        for len in 0..payload.len() {
            let rejected = if what == "request" {
                Request::from_frame(&payload[..len]).is_err()
            } else {
                Response::from_frame(&payload[..len]).is_err()
            };
            assert!(
                rejected,
                "budget {what} truncation to {len} bytes was not rejected"
            );
        }
    }
}

/// The budget opcode end-to-end: the same query twice against a live
/// server returns identical replies (greedy selection is deterministic),
/// the selection honors its own arithmetic (`budget = total·pct/100`,
/// `spent ≤ budget`, `spent = Σ chosen cycles`, `covered = Σ chosen
/// scores`), and chosen PCs are real instructions that executed.
#[test]
fn budget_query_is_deterministic_and_honors_the_cycle_budget() {
    let program = programs().remove(1); // the looped kernel: uneven residency
    let n_pcs = program.len();
    let server = Server::bind(model(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut client = Client::connect(addr).expect("connect");
    let spec = ProgramSpec::Raw(program);
    let first = client
        .budget(spec.clone(), STRIDE as u32, 50)
        .expect("budget");
    let second = client
        .budget(spec.clone(), STRIDE as u32, 50)
        .expect("budget again");
    assert_eq!(first, second, "budget selection must be deterministic");

    assert!(first.total_cycles > 0, "the golden run executed something");
    assert_eq!(
        first.budget_cycles,
        first.total_cycles * 50 / 100,
        "budget is the requested share of golden cycles"
    );
    assert!(first.spent_cycles <= first.budget_cycles, "over budget");
    assert!(
        !first.items.is_empty(),
        "50% budget on a tiny kernel picks something"
    );
    assert_eq!(
        first.spent_cycles,
        first.items.iter().map(|i| i.cycles).sum::<u64>(),
        "spent is the sum of chosen costs"
    );
    let score_sum: f32 = first.items.iter().map(|i| i.score).sum();
    assert!(
        (first.covered - score_sum).abs() < 1e-4,
        "covered ≠ Σ scores"
    );
    for item in &first.items {
        assert!((item.pc as usize) < n_pcs, "chosen PC outside the program");
        assert!(item.cycles > 0, "a chosen PC must have executed");
    }

    // A zero budget picks nothing but still answers.
    let zero = client.budget(spec, STRIDE as u32, 0).expect("zero budget");
    assert!(zero.items.is_empty());
    assert_eq!(zero.spent_cycles, 0);

    client.shutdown_server().expect("shutdown");
    handle.join().expect("clean exit");
}

/// A program whose golden run cannot finish (an infinite loop trips the
/// instruction ceiling) is rejected with a typed `BadRequest` — the cycle
/// budget is undefined without a finished baseline — and the server keeps
/// serving.
#[test]
fn budget_query_rejects_programs_whose_golden_run_never_halts() {
    let mut a = Asm::new("spinner");
    let top = a.label();
    a.bind(top)
        .alu_imm(AluOp::Add, Reg(1), Reg(1), 1)
        .branch(BranchCond::Eq, Reg(0), Reg(0), top)
        .halt();
    let spinner = a.finish().expect("assembles");

    let server = Server::bind(model(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut client = Client::connect(addr).expect("connect");
    match client.budget(ProgramSpec::Raw(spinner), STRIDE as u32, 5) {
        Err(glaive_serve::ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(
                message.contains("golden run"),
                "unexpected rejection reason: {message}"
            );
        }
        other => panic!("expected a typed BadRequest, got {other:?}"),
    }
    client.ping().expect("server healthy after rejection");
    client.shutdown_server().expect("shutdown");
    handle.join().expect("clean exit");
}

/// A live server answers a corrupted frame with a typed `BadRequest`
/// error — it neither dies nor hangs — and keeps serving well-formed
/// requests afterwards.
#[test]
fn server_survives_corrupt_frames_on_the_wire() {
    let server = Server::bind(model(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut payload = Request::Ping.to_frame().into_bytes();
    let last = payload.len() - 1;
    payload[last] ^= 0xff; // break the checksum
    let mut stream = std::net::TcpStream::connect(addr).expect("raw connect");
    // The sealed-frame API refuses to carry these bytes, so the attacker
    // frames them by hand: u32 length prefix, then the raw payload.
    write_raw(&mut stream, &payload).expect("send corrupt frame");
    let reply = read_frame(&mut stream).expect("server answers");
    match Response::from_frame(&reply) {
        Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest error, got {other:?}"),
    }
    drop(stream);

    // The server is still healthy.
    let mut client = Client::connect(addr).expect("connect after corruption");
    client.ping().expect("ping after corruption");
    client.shutdown_server().expect("shutdown");
    handle.join().expect("clean exit");
}

/// Oversized length prefixes are rejected before any allocation.
#[test]
fn read_frame_rejects_oversized_length_prefix() {
    let mut bogus: &[u8] = &[0xff, 0xff, 0xff, 0xff, 0x00];
    match read_frame(&mut bogus) {
        Err(ProtocolError::FrameTooLarge(_)) => {}
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
}

/// A retrying client under seeded chaos — corrupted frames, short ops,
/// delays, hard disconnects on its own connections — still receives
/// replies bit-identical to serial inference: checksums catch every
/// mangled frame and the retry loop re-sends on a fresh connection.
#[test]
fn resilient_client_under_chaos_is_bit_identical_to_serial() {
    use glaive_wire::{ChaosConfig, ChaosPlan, RetryPolicy};

    let model = model();
    let programs = programs();
    let references: Vec<Matrix> = programs.iter().map(|p| serial_probs(&model, p)).collect();

    let server = Server::bind(model, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let plan = ChaosPlan::new(ChaosConfig::new(0x5E4E_C4A0).with_fault_ppm(3_000));
    let mut client = Client::new(
        addr.to_string(),
        RetryPolicy::patient(std::time::Duration::from_secs(60)),
    )
    .with_chaos(plan.clone(), 0);
    for r in 0..12 {
        let which = r % programs.len();
        let reply = client
            .predict(
                ProgramSpec::Raw(programs[which].clone()),
                STRIDE as u32,
                5,
                true,
            )
            .expect("resilient predict survives chaos");
        let serial = &references[which];
        let bits = reply.bit_probs.as_deref().expect("requested bit probs");
        assert_eq!(bits.len(), serial.rows());
        for (row, got) in bits.iter().enumerate() {
            for (a, b) in got.iter().zip(serial.row(row)) {
                assert_eq!(a.to_bits(), b.to_bits(), "bit divergence at row {row}");
            }
        }
    }
    assert!(
        plan.report().total() > 0,
        "the schedule must actually inject faults for this test to mean anything"
    );

    let mut control = Client::connect(addr).expect("control");
    control.shutdown_server().expect("shutdown");
    handle.join().expect("clean exit");
}

/// Pipelining: one client writes K predict requests back-to-back on a
/// single socket before reading anything. The server must answer all K in
/// request order, each bit-identical to serial inference — the in-order
/// reply queue cannot reorder or drop slots however the frames coalesce.
#[test]
fn pipelined_requests_on_one_socket_reply_in_order_and_bit_identical() {
    use glaive_serve::protocol::write_frame;

    let model = model();
    let programs = programs();
    let references: Vec<Matrix> = programs.iter().map(|p| serial_probs(&model, p)).collect();

    let server = Server::bind(model, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    const K: usize = 12;
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("read timeout");
    for i in 0..K {
        let request = Request::Predict {
            spec: ProgramSpec::Raw(programs[i % programs.len()].clone()),
            stride: STRIDE as u32,
            top_k: 5,
            want_bits: true,
        };
        write_frame(&mut stream, &request.to_frame()).expect("send pipelined request");
    }

    for i in 0..K {
        let payload = read_frame(&mut stream).expect("reply arrives");
        let reply = match Response::from_frame(&payload).expect("reply decodes") {
            Response::Predict(reply) => reply,
            other => panic!("reply {i} was not a prediction: {other:?}"),
        };
        let serial = &references[i % references.len()];
        assert_eq!(
            reply.node_count as usize,
            serial.rows(),
            "reply {i} answers the wrong request — ordering broke"
        );
        let bits = reply.bit_probs.as_deref().expect("requested bit probs");
        assert_eq!(bits.len(), serial.rows());
        for (row, got) in bits.iter().enumerate() {
            for (a, b) in got.iter().zip(serial.row(row)) {
                assert_eq!(a.to_bits(), b.to_bits(), "reply {i} diverged at row {row}");
            }
        }
    }
    drop(stream);

    let mut control = Client::connect(addr).expect("control");
    control.shutdown_server().expect("shutdown");
    handle.join().expect("clean exit");
}

/// Admission control: with the in-flight bound pinned to 1, a pipelined
/// burst must see typed `Busy` rejections (carrying the configured retry
/// hint), every accepted request still answers bit-identically, reply
/// order is preserved across the Busy/Predict mix, and the rejection
/// counters surface in stats.
#[test]
fn saturated_server_sheds_load_with_typed_busy_replies() {
    use glaive_serve::protocol::write_frame;

    let model = model();
    let program = programs().remove(0);
    let serial = serial_probs(&model, &program);

    let server = Server::bind(
        model,
        "127.0.0.1:0",
        ServerConfig {
            queue_bound: 1,
            busy_retry_ms: 7,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    const K: usize = 16;
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("read timeout");
    for _ in 0..K {
        let request = Request::Predict {
            spec: ProgramSpec::Raw(program.clone()),
            stride: STRIDE as u32,
            top_k: 5,
            want_bits: true,
        };
        write_frame(&mut stream, &request.to_frame()).expect("send burst request");
    }

    let (mut answered, mut busy) = (0usize, 0usize);
    for i in 0..K {
        let payload = read_frame(&mut stream).expect("reply arrives");
        match Response::from_frame(&payload).expect("reply decodes") {
            Response::Predict(reply) => {
                answered += 1;
                let bits = reply.bit_probs.as_deref().expect("requested bit probs");
                assert_eq!(bits.len(), serial.rows());
                for (row, got) in bits.iter().enumerate() {
                    for (a, b) in got.iter().zip(serial.row(row)) {
                        assert_eq!(a.to_bits(), b.to_bits(), "reply {i} diverged at row {row}");
                    }
                }
            }
            Response::Busy { retry_after_ms } => {
                busy += 1;
                assert_eq!(retry_after_ms, 7, "Busy must carry the configured hint");
            }
            other => panic!("reply {i} was neither Predict nor Busy: {other:?}"),
        }
    }
    assert_eq!(answered + busy, K);
    assert!(answered >= 1, "at least the first request must be admitted");
    assert!(
        busy >= 1,
        "a burst of {K} against queue_bound=1 must shed load"
    );
    drop(stream);

    let mut control = Client::connect(addr).expect("control");
    let stats = control.stats().expect("stats");
    assert_eq!(stats.busy_rejections, busy as u64);
    assert!(stats.queue_depth_max >= 1);
    assert_eq!(stats.errors, 0, "Busy is not an error");
    control.shutdown_server().expect("shutdown");
    handle.join().expect("clean exit");
}

/// A scripted single-connection server: accepts once, then answers each
/// incoming frame with the next reply of `script` (checking that every
/// request is a `want` frame). Returns the listener address and a handle
/// yielding how many frames arrived before the client hung up.
fn scripted_server(
    want: Request,
    script: Vec<Response>,
) -> (std::net::SocketAddr, std::thread::JoinHandle<usize>) {
    use glaive_serve::protocol::write_frame;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind scripted server");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("single accept");
        // The listener closes here: a redial would surface as a
        // client-side connect error.
        drop(listener);
        let mut frames = 0;
        while let Ok(payload) = read_frame(&mut stream) {
            frames += 1;
            let request = Request::from_frame(&payload).expect("request decodes");
            assert_eq!(request, want, "scripted server got an unexpected request");
            match script.get(frames - 1) {
                Some(reply) => write_frame(&mut stream, &reply.to_frame()).expect("scripted reply"),
                None => break,
            }
        }
        frames
    });
    (addr, handle)
}

/// `Busy` is transient backpressure, and only a retrying client retries
/// it. Each case runs against a scripted server that never accepts a
/// second connection:
///
/// - `Client::new` keeps the connection, sleeps at least the server's
///   hint and re-sends on the SAME socket (Busy, Busy, then Pong);
/// - `Client::connect` makes no retries: the first `Busy` surfaces
///   unwrapped, nothing is redialled or counted, and the connection
///   still answers the next request;
/// - `shutdown_server` is sent exactly once even under a retry policy.
#[test]
fn busy_is_retried_on_the_same_connection_only_by_a_retrying_client() {
    use glaive_wire::RetryPolicy;

    let busy = Response::Busy { retry_after_ms: 5 };

    let (addr, script) = scripted_server(
        Request::Ping,
        vec![busy.clone(), busy.clone(), Response::Pong],
    );
    let mut client = Client::new(
        addr.to_string(),
        RetryPolicy::patient(std::time::Duration::from_secs(30)),
    );
    client.ping().expect("ping succeeds after two Busy replies");
    let report = client.report();
    assert_eq!(report.busy_responses, 2, "both Busy replies counted");
    assert!(report.retries >= 2, "each Busy consumed a retry");
    assert_eq!(report.reconnects, 0, "Busy never costs the connection");
    drop(client);
    assert_eq!(script.join().expect("scripted server"), 3);

    let (addr, script) = scripted_server(Request::Ping, vec![busy.clone(), Response::Pong]);
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.ping(), Err(ClientError::Busy { retry_after_ms: 5 }));
    assert_eq!(client.report(), ClientReport::default());
    client
        .ping()
        .expect("the same connection answers the next request");
    assert_eq!(client.report(), ClientReport::default(), "no redial");
    drop(client);
    assert_eq!(script.join().expect("scripted server"), 2);

    let (addr, script) = scripted_server(Request::Shutdown, vec![busy]);
    let mut client = Client::new(addr.to_string(), RetryPolicy::default());
    assert_eq!(
        client.shutdown_server(),
        Err(ClientError::Busy { retry_after_ms: 5 })
    );
    assert_eq!(client.report(), ClientReport::default());
    drop(client);
    assert_eq!(script.join().expect("scripted server"), 1, "one frame sent");
}

/// A peer that opens a frame and then stalls mid-payload is disconnected
/// once the server's `stall` deadline passes — it cannot pin a connection
/// worker — and the server keeps serving others.
#[test]
fn stalled_peer_is_cut_off_and_cannot_hang_a_worker() {
    use std::io::{Read as _, Write as _};
    use std::time::{Duration, Instant};

    let server = Server::bind(
        model(),
        "127.0.0.1:0",
        ServerConfig {
            stall: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    // Promise 100 payload bytes, deliver 10, go silent mid-frame.
    let mut staller = std::net::TcpStream::connect(addr).expect("raw connect");
    staller
        .write_all(&100u32.to_le_bytes())
        .expect("length prefix");
    staller.write_all(&[0u8; 10]).expect("partial payload");
    staller.flush().expect("flush");

    // Within the stall deadline (plus poll slack) the server answers
    // with a typed error frame and hangs up: an error reply, then EOF.
    staller
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let start = Instant::now();
    let reply = read_frame(&mut staller).expect("typed error before hangup");
    match Response::from_frame(&reply) {
        Ok(Response::Error { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("stalled"), "unexpected reason: {message}");
        }
        other => panic!("expected a stall error, got {other:?}"),
    }
    let mut sink = Vec::new();
    let got = staller.read_to_end(&mut sink).expect("EOF, not a timeout");
    assert_eq!(got, 0, "connection must be closed after the error");
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "stalled peer held its worker for {:?}",
        start.elapsed()
    );

    // The worker the staller occupied is free again.
    let mut client = Client::connect(addr).expect("connect after staller");
    client.ping().expect("ping after staller");
    client.shutdown_server().expect("shutdown");
    handle.join().expect("clean exit");
}
