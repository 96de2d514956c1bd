//! The campaign worker: connects to a coordinator, independently rebuilds
//! the campaign plan from the shipped job, and computes leased chunks
//! until told the campaign is done.
//!
//! The worker is deliberately stateless across chunks and paranoid about
//! the job it accepts: it recomputes the golden run, the site enumeration
//! and the dead-definition prediction *from scratch* and refuses the job
//! unless its plan fingerprint matches the coordinator's
//! ([`FabricError::PlanMismatch`]). After that handshake, a spec index
//! means the same fault on both sides by construction, so chunk results
//! need no context beyond their records.
//!
//! ## Resilience
//!
//! Statelessness is also what makes the worker *restartable*: a session
//! that dies — connection reset, corrupted frame, coordinator crash —
//! loses nothing but its current lease, which the coordinator requeues.
//! [`run_worker_with`] therefore wraps the session in a [`Backoff`]-driven
//! reconnect loop: transient failures ([`FabricError::is_transient`])
//! redial and re-handshake, so a fleet survives a coordinator being
//! killed and restarted from a GLVCKPT1 checkpoint; fatal failures
//! (plan mismatch, unplannable job) surface immediately. Every read on
//! the coordinator connection carries a reply deadline — the worker is a
//! strict request/response client, so a silent coordinator is
//! indistinguishable from a dead one and must not wedge the thread.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use glaive_faultsim::{Campaign, InjectionRecord};
use glaive_wire::{
    read_reply_cancellable, sleep_cancellable, write_frame, Backoff, ChaosPlan, ReadOutcome,
    RetryPolicy, Wait,
};

use crate::protocol::{chunk_sub_seed, ToCoordinator, ToWorker};
use crate::FabricError;

/// Socket read timeout: how often a blocked read re-checks cancellation.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// What a worker did before disconnecting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerReport {
    /// Chunks completed and acknowledged.
    pub chunks: u64,
    /// Records simulated (excludes statically predicted indices).
    pub simulated: u64,
    /// Sessions redialled after a transient failure.
    pub reconnects: u64,
    /// Transient failures survived (each one precedes a backoff wait).
    pub retries: u64,
}

/// Tuning for a resilient worker: retry policy, reply deadline, and an
/// optional chaos plan for fault-injection testing of the fabric itself.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Backoff policy across sessions; reset whenever a session makes
    /// progress (completes a chunk), so the budget bounds *consecutive*
    /// failures, not lifetime ones.
    pub retry: RetryPolicy,
    /// How long to wait for the coordinator's reply to any request
    /// before declaring the connection dead. The worker protocol is
    /// strictly request/response: there is no legitimate long silence.
    pub reply_deadline: Duration,
    /// When set, every connection is wrapped in a seeded
    /// [`ChaosTransport`](glaive_wire::ChaosTransport).
    pub chaos: Option<ChaosPlan>,
    /// Base for chaos stream ids: session `n` uses `stream_base + n`, so
    /// reconnections draw fresh fault schedules and concurrent workers
    /// can partition the id space.
    pub stream_base: u64,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions {
            retry: RetryPolicy::default(),
            reply_deadline: Duration::from_secs(10),
            chaos: None,
            stream_base: 0,
        }
    }
}

/// How a session ended without error.
enum SessionEnd {
    /// The coordinator declared the campaign complete.
    Done,
    /// The cancellation flag was raised.
    Cancelled,
}

/// Connects to a coordinator at `addr` and works until the campaign
/// completes (clean [`WorkerReport`]), retries are exhausted, or `cancel`
/// is raised (checked between injections and inside every wait; the
/// connection is dropped and the coordinator requeues the held chunk).
///
/// Equivalent to [`run_worker_with`] under [`WorkerOptions::default`].
///
/// # Errors
///
/// The [`run_worker_with`] error set.
pub fn run_worker(
    addr: &str,
    name: &str,
    cancel: Option<&AtomicBool>,
) -> Result<WorkerReport, FabricError> {
    run_worker_with(addr, name, cancel, WorkerOptions::default())
}

/// [`run_worker`] with explicit [`WorkerOptions`]: the resilient
/// session loop. Transient failures (transport errors, corrupted frames,
/// coordinator refusals) trigger a backoff-paced redial; a coordinator
/// that dies and is restarted with `--resume` is rejoined transparently,
/// with completed work adopted from its checkpoint.
///
/// # Errors
///
/// [`FabricError::RetriesExhausted`] when consecutive transient failures
/// outlast the retry budget (wrapping the last failure);
/// [`FabricError::PlanMismatch`] / [`FabricError::Campaign`] immediately
/// for fatal disagreements about the job itself.
pub fn run_worker_with(
    addr: &str,
    name: &str,
    cancel: Option<&AtomicBool>,
    opts: WorkerOptions,
) -> Result<WorkerReport, FabricError> {
    let cancelled = || cancel.is_some_and(|c| c.load(Ordering::Relaxed));
    let mut report = WorkerReport::default();
    let mut backoff = Backoff::new(opts.retry);
    let mut session: u64 = 0;
    loop {
        if cancelled() {
            return Ok(report);
        }
        let chunks_before = report.chunks;
        let outcome = dial_session(addr, name, cancel, &opts, session, &mut report);
        match outcome {
            Ok(SessionEnd::Done) | Ok(SessionEnd::Cancelled) => return Ok(report),
            Err(e) if !e.is_transient() => return Err(e),
            Err(e) => {
                if report.chunks > chunks_before {
                    backoff.reset();
                }
                report.retries += 1;
                match backoff.wait(cancel) {
                    Wait::Waited => {
                        report.reconnects += 1;
                        session += 1;
                    }
                    Wait::Cancelled => return Ok(report),
                    Wait::Exhausted => {
                        return Err(FabricError::RetriesExhausted {
                            attempts: backoff.attempts(),
                            last: Box::new(e),
                        })
                    }
                }
            }
        }
    }
}

/// Dials one session (optionally chaos-wrapped) and runs it to its end.
fn dial_session(
    addr: &str,
    name: &str,
    cancel: Option<&AtomicBool>,
    opts: &WorkerOptions,
    session: u64,
    report: &mut WorkerReport,
) -> Result<SessionEnd, FabricError> {
    let stream = TcpStream::connect(addr).map_err(|e| FabricError::Io(e.to_string()))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(opts.reply_deadline));
    match &opts.chaos {
        Some(plan) => {
            let mut wrapped = plan.wrap(stream, opts.stream_base.wrapping_add(session));
            run_session(&mut wrapped, name, cancel, opts.reply_deadline, report)
        }
        None => {
            let mut stream = stream;
            run_session(&mut stream, name, cancel, opts.reply_deadline, report)
        }
    }
}

/// Receives the coordinator's reply to a just-sent request, under the
/// reply deadline. `Ok(None)` means cancellation was raised mid-wait.
fn recv<S: Read>(
    stream: &mut S,
    cancel: Option<&AtomicBool>,
    deadline: Duration,
) -> Result<Option<Vec<u8>>, FabricError> {
    static NEVER: AtomicBool = AtomicBool::new(false);
    match read_reply_cancellable(stream, cancel.unwrap_or(&NEVER), deadline) {
        ReadOutcome::Frame(p) => Ok(Some(p)),
        ReadOutcome::Cancelled => Ok(None),
        ReadOutcome::Closed => Err(FabricError::Io("coordinator hung up".into())),
        ReadOutcome::Failed(e) => Err(FabricError::Protocol(e)),
    }
}

/// One worker session over `stream`: handshake, plan cross-check, then
/// the fetch/compute/complete loop until `Done`, cancellation, or error.
fn run_session<S: Read + Write>(
    stream: &mut S,
    name: &str,
    cancel: Option<&AtomicBool>,
    reply_deadline: Duration,
    report: &mut WorkerReport,
) -> Result<SessionEnd, FabricError> {
    let cancelled = || cancel.is_some_and(|c| c.load(Ordering::Relaxed));

    write_frame(
        stream,
        &ToCoordinator::Hello {
            worker: name.to_string(),
        }
        .to_frame(),
    )
    .map_err(|e| FabricError::Io(e.to_string()))?;
    let job = match recv(stream, cancel, reply_deadline)? {
        None => return Ok(SessionEnd::Cancelled),
        Some(payload) => match ToWorker::from_frame(&payload)? {
            ToWorker::Welcome(job) => job,
            ToWorker::Error { message } => return Err(FabricError::Rejected { message }),
            _ => {
                return Err(FabricError::Protocol(glaive_wire::ProtocolError::Corrupt(
                    "expected Welcome",
                )))
            }
        },
    };

    // Rebuild the plan independently and cross-check it. A worker that
    // would disagree about what spec index `i` means must refuse the job.
    let campaign = Campaign::try_new(&job.program, &job.init_mem, job.config())
        .map_err(FabricError::Campaign)?;
    let plan = campaign.plan().map_err(FabricError::Campaign)?;
    if plan.fingerprint != job.fingerprint || plan.specs.len() as u64 != job.total {
        return Err(FabricError::PlanMismatch {
            expected: job.fingerprint,
            actual: plan.fingerprint,
        });
    }
    // Dense predicted-record lookup: chunk computation takes predicted
    // indices from the plan instead of re-simulating provably-Masked
    // faults.
    let mut predicted: Vec<Option<InjectionRecord>> = vec![None; plan.specs.len()];
    for &(i, rec) in &plan.predicted {
        predicted[i] = Some(rec);
    }

    loop {
        if cancelled() {
            return Ok(SessionEnd::Cancelled);
        }
        write_frame(stream, &ToCoordinator::Fetch.to_frame())
            .map_err(|e| FabricError::Io(e.to_string()))?;
        let Some(payload) = recv(stream, cancel, reply_deadline)? else {
            return Ok(SessionEnd::Cancelled);
        };
        match ToWorker::from_frame(&payload)? {
            ToWorker::Assign(a) => {
                // Bounds-check before indexing: an assignment is wire
                // input, and a corrupt span must become a typed error.
                let start = usize::try_from(a.start)
                    .ok()
                    .filter(|&s| s <= plan.specs.len());
                let len = usize::try_from(a.len).ok();
                let (Some(start), Some(len)) = (start, len) else {
                    return Err(FabricError::Protocol(glaive_wire::ProtocolError::Corrupt(
                        "assignment span out of range",
                    )));
                };
                if start + len > plan.specs.len()
                    || a.sub_seed != chunk_sub_seed(plan.fingerprint, a.chunk)
                {
                    return Err(FabricError::Protocol(glaive_wire::ProtocolError::Corrupt(
                        "assignment disagrees with local plan",
                    )));
                }
                let heartbeat_after = Duration::from_millis((a.lease_ms / 3).max(1));
                let mut last_beat = Instant::now();
                let mut records = Vec::with_capacity(len);
                let span = predicted[start..start + len]
                    .iter()
                    .zip(&plan.specs[start..start + len]);
                for (pred, spec) in span {
                    if cancelled() {
                        return Ok(SessionEnd::Cancelled);
                    }
                    let rec = match *pred {
                        Some(rec) => rec,
                        None => {
                            report.simulated += 1;
                            campaign.inject(spec, &plan.golden, &plan.fault_cfg)
                        }
                    };
                    records.push(rec);
                    // Cooperative keep-alive: a chunk that computes longer
                    // than a third of its lease phones home so the lease
                    // never expires under an alive worker.
                    if last_beat.elapsed() >= heartbeat_after {
                        write_frame(
                            stream,
                            &ToCoordinator::Heartbeat { chunk: a.chunk }.to_frame(),
                        )
                        .map_err(|e| FabricError::Io(e.to_string()))?;
                        match recv(stream, cancel, reply_deadline)? {
                            None => return Ok(SessionEnd::Cancelled),
                            Some(payload) => match ToWorker::from_frame(&payload)? {
                                ToWorker::Ack => {}
                                ToWorker::Error { message } => {
                                    return Err(FabricError::Rejected { message })
                                }
                                _ => {
                                    return Err(FabricError::Protocol(
                                        glaive_wire::ProtocolError::Corrupt(
                                            "expected heartbeat Ack",
                                        ),
                                    ))
                                }
                            },
                        }
                        last_beat = Instant::now();
                    }
                }
                write_frame(
                    stream,
                    &ToCoordinator::Complete {
                        chunk: a.chunk,
                        sub_seed: a.sub_seed,
                        records,
                    }
                    .to_frame(),
                )
                .map_err(|e| FabricError::Io(e.to_string()))?;
                match recv(stream, cancel, reply_deadline)? {
                    None => return Ok(SessionEnd::Cancelled),
                    Some(payload) => match ToWorker::from_frame(&payload)? {
                        ToWorker::Ack => report.chunks += 1,
                        ToWorker::Error { message } => {
                            return Err(FabricError::Rejected { message })
                        }
                        ToWorker::Done => {
                            report.chunks += 1;
                            return Ok(SessionEnd::Done);
                        }
                        _ => {
                            return Err(FabricError::Protocol(glaive_wire::ProtocolError::Corrupt(
                                "expected completion Ack",
                            )))
                        }
                    },
                }
            }
            ToWorker::Wait { retry_ms } => {
                // Cancellable wait: a shutdown signal interrupts the
                // coordinator-suggested pause promptly instead of
                // sleeping it out.
                if !sleep_cancellable(Duration::from_millis(retry_ms.min(1000)), cancel) {
                    return Ok(SessionEnd::Cancelled);
                }
            }
            ToWorker::Done => return Ok(SessionEnd::Done),
            ToWorker::Error { message } => return Err(FabricError::Rejected { message }),
            _ => {
                return Err(FabricError::Protocol(glaive_wire::ProtocolError::Corrupt(
                    "unexpected coordinator reply",
                )))
            }
        }
    }
}
