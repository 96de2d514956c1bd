//! The blocking client for the `GLVSRV02` protocol.
//!
//! One [`Client`] serves both edges. [`Client::connect`] dials eagerly and
//! allows zero retries, so the first failure surfaces as-is — the shape
//! tests and one-shot control calls want. [`Client::new`] dials lazily
//! under a [`RetryPolicy`]: transient failures — transport errors,
//! corrupted frames (caught by the frame checksum on either side), a
//! server draining — are retried with a fresh connection per attempt,
//! giving up with [`ClientError::RetriesExhausted`] wrapping the last
//! failure. A request is only ever *re-sent whole* on a *new* connection,
//! so a half-written frame on a dead socket can never interleave with its
//! retry. The one exception is a typed [`ClientError::Busy`] admission
//! rejection: the connection is provably healthy (the server answered in
//! an orderly way), so the retry keeps it and waits at least the
//! server-provided `retry_after_ms` hint. [`Client::shutdown_server`] is
//! never retried: a lost ack after the server accepted it would make a
//! blind re-send ambiguous.

use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use glaive_wire::{sleep_cancellable, Backoff, ChaosPlan, Frame, RetryPolicy};

use crate::protocol::{
    read_frame, write_frame, BudgetReply, ErrorCode, PredictReply, ProgramSpec, ProtocolError,
    Request, Response, StatsReply,
};

/// Read/write deadline on every [`Client`] connection: a server that
/// stops responding fails the attempt instead of hanging the caller.
const CLIENT_DEADLINE: Duration = Duration::from_secs(30);

/// A client-side failure: transport/decoding problems or a server-issued
/// rejection.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The frame could not be exchanged or decoded.
    Protocol(ProtocolError),
    /// The server answered with an error frame.
    Server {
        /// Machine-readable rejection class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Admission control turned the request away: the server's bounded
    /// queue is full. The connection is still healthy — retry the same
    /// request after the server's hint, without redialling.
    Busy {
        /// Server-suggested delay before retrying, in milliseconds.
        retry_after_ms: u32,
    },
    /// The server answered with a frame of the wrong kind.
    UnexpectedReply,
    /// A retry loop gave up: consecutive transient failures outlasted
    /// the [`RetryPolicy`] budget. Wraps the last failure.
    RetriesExhausted {
        /// Attempts taken before giving up.
        attempts: u32,
        /// The transient failure that exhausted the budget.
        last: Box<ClientError>,
    },
}

impl ClientError {
    /// Whether retrying on a fresh connection may succeed. Transport and
    /// decode failures are transient (so is a server-side `BadRequest`:
    /// under fault injection it means *our* frame got corrupted in
    /// flight, and the checksum caught it server-side); rejections about
    /// the request's *content* — unknown benchmark, bad stride, model
    /// mismatch — are deterministic and final.
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Protocol(_) | ClientError::UnexpectedReply | ClientError::Busy { .. } => {
                true
            }
            ClientError::Server { code, .. } => matches!(
                code,
                ErrorCode::BadRequest | ErrorCode::ShuttingDown | ErrorCode::Internal
            ),
            ClientError::RetriesExhausted { .. } => false,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => {
                write!(f, "server rejected: {code}: {message}")
            }
            ClientError::Busy { retry_after_ms } => {
                write!(f, "server busy: retry after {retry_after_ms} ms")
            }
            ClientError::UnexpectedReply => write!(f, "server sent a mismatched reply kind"),
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> ClientError {
        ClientError::Protocol(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Protocol(ProtocolError::from(e))
    }
}

/// What a [`Client`] survived: the robustness columns the bench
/// harnesses report next to latency. A failure that is returned to the
/// caller was not survived and is not counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientReport {
    /// Transient failures retried (each one preceded a backoff wait).
    pub retries: u64,
    /// Retried failures that were typed `Busy` admission rejections or
    /// `ShuttingDown` rejections (the server was saturated or draining).
    pub busy_responses: u64,
    /// Fresh connections dialled beyond the first.
    pub reconnects: u64,
}

/// A client of one server address: typed operations over a connection
/// that is redialled on demand, retried under a [`RetryPolicy`], and
/// optionally chaos-wrapped, with a [`ClientReport`] tallying what was
/// survived.
pub struct Client {
    addr: String,
    policy: RetryPolicy,
    chaos: Option<ChaosPlan>,
    stream_base: u64,
    dials: u64,
    stream: Option<Box<dyn ClientStream>>,
    report: ClientReport,
}

/// The stream bound a [`Client`] needs; blanket-implemented so a
/// `TcpStream` and its chaos wrapper both qualify.
trait ClientStream: Read + Write + Send {}
impl<S: Read + Write + Send> ClientStream for S {}

impl Client {
    /// Connects to a running server now, with nodelay and the default
    /// read/write deadlines applied. The client makes no retries: the
    /// first failure of each operation is returned unwrapped, and a
    /// connection left suspect by a failure is redialled by the next
    /// operation.
    ///
    /// # Errors
    ///
    /// Transport failures while connecting.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let no_retries = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        let mut client = Client::new(stream.peer_addr()?.to_string(), no_retries);
        client.attach(stream)?;
        Ok(client)
    }

    /// A client for the server at `addr` that retries transient failures
    /// under `policy`. No connection is made until the first operation.
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> Client {
        Client {
            addr: addr.into(),
            policy,
            chaos: None,
            stream_base: 0,
            dials: 0,
            stream: None,
            report: ClientReport::default(),
        }
    }

    /// Wraps every connection dialled from now on in a seeded
    /// [`ChaosTransport`](glaive_wire::ChaosTransport): connection `n`
    /// uses stream id `stream_base + n`, so retries draw fresh fault
    /// schedules and concurrent clients can partition the id space.
    #[must_use]
    pub fn with_chaos(mut self, plan: ChaosPlan, stream_base: u64) -> Client {
        self.chaos = Some(plan);
        self.stream_base = stream_base;
        self
    }

    /// The robustness tallies so far.
    pub fn report(&self) -> ClientReport {
        self.report
    }

    /// Applies the deadlines to a fresh connection and makes it current.
    fn attach(&mut self, stream: TcpStream) -> Result<(), ClientError> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CLIENT_DEADLINE))?;
        stream.set_write_timeout(Some(CLIENT_DEADLINE))?;
        self.stream = Some(match &self.chaos {
            Some(plan) => Box::new(plan.wrap(stream, self.stream_base + self.dials)),
            None => Box::new(stream),
        });
        self.dials += 1;
        if self.dials > 1 {
            self.report.reconnects += 1;
        }
        Ok(())
    }

    /// One exchange of `frame` on the current connection, dialling first
    /// if there is none; server rejections become typed errors.
    fn attempt<T>(
        &mut self,
        frame: &Frame,
        extract: &impl Fn(Response) -> Option<T>,
    ) -> Result<T, ClientError> {
        if self.stream.is_none() {
            self.attach(TcpStream::connect(&self.addr)?)?;
        }
        let stream = self.stream.as_mut().expect("connection just attached");
        write_frame(stream, frame)?;
        let payload = read_frame(stream)?;
        match Response::from_frame(&payload)? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            Response::Busy { retry_after_ms } => Err(ClientError::Busy { retry_after_ms }),
            other => extract(other).ok_or(ClientError::UnexpectedReply),
        }
    }

    /// Encodes `request` once and sends it until it succeeds, fails
    /// fatally, or the retry policy is spent.
    fn call<T>(
        &mut self,
        request: &Request,
        extract: impl Fn(Response) -> Option<T>,
    ) -> Result<T, ClientError> {
        let frame = request.to_frame();
        let mut backoff = Backoff::new(self.policy);
        loop {
            let err = match self.attempt(&frame, &extract) {
                Ok(v) => return Ok(v),
                Err(e) if !e.is_transient() => return Err(e),
                Err(e) => e,
            };
            // An orderly Busy rejection leaves the connection healthy, so
            // the retry keeps it and waits at least the server's hint. Any
            // other failure leaves it suspect: the retry re-sends the
            // whole request on a fresh one.
            let hint = match err {
                ClientError::Busy { retry_after_ms } => {
                    Duration::from_millis(u64::from(retry_after_ms))
                }
                _ => {
                    self.stream = None;
                    Duration::ZERO
                }
            };
            let Some(delay) = backoff.next_delay() else {
                return Err(match backoff.attempts() {
                    0 => err,
                    attempts => ClientError::RetriesExhausted {
                        attempts,
                        last: Box::new(err),
                    },
                });
            };
            let draining = matches!(
                err,
                ClientError::Busy { .. }
                    | ClientError::Server {
                        code: ErrorCode::ShuttingDown,
                        ..
                    }
            );
            if draining {
                self.report.busy_responses += 1;
            }
            self.report.retries += 1;
            sleep_cancellable(delay.max(hint), None);
        }
    }

    /// Estimates per-instruction vulnerability for `spec`.
    ///
    /// # Errors
    ///
    /// Server rejections (unknown benchmark, bad stride, draining) as
    /// [`ClientError::Server`]; transport failures as
    /// [`ClientError::Protocol`]; [`ClientError::RetriesExhausted`] once
    /// a retrying client's policy is spent.
    pub fn predict(
        &mut self,
        spec: ProgramSpec,
        stride: u32,
        top_k: u32,
        want_bits: bool,
    ) -> Result<PredictReply, ClientError> {
        let request = Request::Predict {
            spec,
            stride,
            top_k,
            want_bits,
        };
        self.call(&request, |r| match r {
            Response::Predict(p) => Some(p),
            _ => None,
        })
    }

    /// Asks the server to pick a protection set for `spec` under a cycle
    /// budget of `overhead_pct`% of the program's golden-run runtime.
    ///
    /// # Errors
    ///
    /// As for [`Client::predict`]; additionally a typed `BadRequest` when
    /// the golden run of `spec` does not halt cleanly (the budget is
    /// undefined without a finished baseline).
    pub fn budget(
        &mut self,
        spec: ProgramSpec,
        stride: u32,
        overhead_pct: u32,
    ) -> Result<BudgetReply, ClientError> {
        let request = Request::Budget {
            spec,
            stride,
            overhead_pct,
        };
        self.call(&request, |r| match r {
            Response::Budget(b) => Some(b),
            _ => None,
        })
    }

    /// Reads the server's counters.
    ///
    /// # Errors
    ///
    /// As for [`Client::predict`].
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        self.call(&Request::Stats, |r| match r {
            Response::Stats(s) => Some(s),
            _ => None,
        })
    }

    /// Round-trips a liveness probe.
    ///
    /// # Errors
    ///
    /// As for [`Client::predict`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call(&Request::Ping, |r| match r {
            Response::Pong => Some(()),
            _ => None,
        })
    }

    /// Asks the server to drain and exit, in exactly one attempt whatever
    /// the retry policy. The connection is unusable afterwards.
    ///
    /// # Errors
    ///
    /// The first failure, unwrapped: server rejections as
    /// [`ClientError::Server`] or [`ClientError::Busy`], transport
    /// failures as [`ClientError::Protocol`].
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.attempt(&Request::Shutdown.to_frame(), &|r| match r {
            Response::ShutdownAck => Some(()),
            _ => None,
        })
    }
}
