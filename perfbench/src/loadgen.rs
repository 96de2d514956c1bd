//! Load generator: one process, one thread and one connection per lane.
//!
//! The caller chooses the lane count and keeps it at or below the host's
//! CPU count. Two disciplines:
//!
//! - **Open loop** ([`run_open`]): request `i` is due at a fixed offset
//!   from the phase start and goes out on lane `i % lanes` whether or not
//!   earlier replies have come back. Latency runs from the *due* time, so
//!   a stall is charged to every request it delays, and the generator
//!   records how late it actually sent each request.
//! - **Closed loop** ([`run_closed`]): each lane keeps a fixed window of
//!   requests outstanding and sends the next one only when a reply
//!   arrives, until the phase's duration has passed.
//!
//! Frames are encoded before the phase starts and reply payloads are kept
//! undecoded, so the generator does no protocol work while it measures.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use glaive_wire::{write_frame, Frame, FramePoll, FrameReader};

/// How long a lane waits for outstanding replies after its last send.
pub const DRAIN: Duration = Duration::from_secs(60);

/// One request's life, as offsets from the phase start.
#[derive(Debug, Clone)]
pub struct Record {
    /// Lane (connection) the request went out on.
    pub lane: usize,
    /// Index of the frame that was sent.
    pub frame: usize,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Duration,
    /// When the generator started writing it; `None` if never sent.
    pub sent: Option<Duration>,
    /// When its reply was complete; `None` if none arrived.
    pub replied: Option<Duration>,
    /// The reply payload, undecoded.
    pub reply: Option<Vec<u8>>,
}

impl Record {
    /// Due-to-reply latency in milliseconds, if answered.
    pub fn latency_ms(&self) -> Option<f64> {
        self.replied
            .map(|r| r.saturating_sub(self.due).as_secs_f64() * 1e3)
    }

    /// How late the generator started the send, in milliseconds.
    pub fn lateness_ms(&self) -> Option<f64> {
        self.sent
            .map(|s| s.saturating_sub(self.due).as_secs_f64() * 1e3)
    }
}

/// Everything one phase produced.
#[derive(Debug)]
pub struct Phase {
    /// When the phase started (after every lane connected).
    pub start: Instant,
    /// From the phase start to the last reply or give-up.
    pub wall: Duration,
    /// Records in lane order, each lane's in send order.
    pub records: Vec<Record>,
    /// Transport failures, one line each.
    pub errors: Vec<String>,
}

impl Phase {
    /// Records that went out and got a reply.
    pub fn answered(&self) -> usize {
        self.records.iter().filter(|r| r.reply.is_some()).count()
    }

    /// The largest send lateness, in milliseconds.
    pub fn max_lateness_ms(&self) -> f64 {
        self.records
            .iter()
            .filter_map(Record::lateness_ms)
            .fold(0.0, f64::max)
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(DRAIN))?;
    Ok(stream)
}

/// Reads until the front outstanding request's reply is complete or
/// `until` passes; returns `Ok(false)` on timeout.
fn await_reply(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    start: Instant,
    until: Instant,
    outstanding: &mut VecDeque<usize>,
    records: &mut [Record],
) -> Result<bool, String> {
    loop {
        let now = Instant::now();
        if now >= until {
            return Ok(false);
        }
        let wait = (until - now).max(Duration::from_micros(50));
        stream
            .set_read_timeout(Some(wait))
            .map_err(|e| e.to_string())?;
        match reader.poll(stream).map_err(|e| e.to_string())? {
            FramePoll::Ready => {
                let at = start.elapsed();
                let Some(i) = outstanding.pop_front() else {
                    return Err("reply without an outstanding request".into());
                };
                records[i].replied = Some(at);
                records[i].reply = Some(reader.frame().to_vec());
                reader.consume();
                return Ok(true);
            }
            FramePoll::Pending => {}
            FramePoll::Closed => return Err("server closed the connection".into()),
        }
    }
}

/// Runs lanes on scoped threads after a common start barrier and gathers
/// their records.
fn run_lanes(
    addr: SocketAddr,
    lanes: usize,
    lane_fn: impl Fn(usize, &mut TcpStream, Instant) -> (Vec<Record>, Option<String>) + Sync,
) -> Phase {
    assert!(lanes >= 1, "a phase needs at least one lane");
    let barrier = Barrier::new(lanes);
    let start_cell = std::sync::OnceLock::new();
    let results: Vec<(Vec<Record>, Option<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let barrier = &barrier;
                let start_cell = &start_cell;
                let lane_fn = &lane_fn;
                scope.spawn(move || {
                    let connected = connect(addr);
                    barrier.wait();
                    let start = *start_cell.get_or_init(Instant::now);
                    match connected {
                        Ok(mut stream) => lane_fn(lane, &mut stream, start),
                        Err(e) => (Vec::new(), Some(format!("lane {lane}: connect: {e}"))),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator lane panicked"))
            .collect()
    });
    let start = *start_cell.get().expect("every lane passed the barrier");
    let mut phase = Phase {
        start,
        wall: Duration::ZERO,
        records: Vec::new(),
        errors: Vec::new(),
    };
    for (records, error) in results {
        phase.records.extend(records);
        phase.errors.extend(error);
    }
    phase.wall = phase
        .records
        .iter()
        .filter_map(|r| r.replied.or(r.sent))
        .max()
        .unwrap_or_default();
    phase
}

/// Open loop: frame `i` is due at `due[i]` after the phase start and
/// goes out on lane `i % lanes`.
///
/// # Panics
///
/// Panics if `frames` and `due` differ in length or `lanes` is zero.
pub fn run_open(addr: SocketAddr, lanes: usize, frames: &[Frame], due: &[Duration]) -> Phase {
    assert_eq!(frames.len(), due.len(), "one due time per frame");
    run_lanes(addr, lanes, |lane, stream, start| {
        let mut records: Vec<Record> = (lane..frames.len())
            .step_by(lanes)
            .map(|i| Record {
                lane,
                frame: i,
                due: due[i],
                sent: None,
                replied: None,
                reply: None,
            })
            .collect();
        let mut reader = FrameReader::new();
        let mut outstanding = VecDeque::new();
        let mut error = None;
        for k in 0..records.len() {
            let at = start + records[k].due;
            // Collect replies while waiting for the next send time.
            while Instant::now() < at && !outstanding.is_empty() {
                if let Err(e) = await_reply(
                    stream,
                    &mut reader,
                    start,
                    at,
                    &mut outstanding,
                    &mut records,
                ) {
                    error = Some(e);
                    break;
                }
            }
            if error.is_some() {
                break;
            }
            if let Some(wait) = at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            records[k].sent = Some(start.elapsed());
            if let Err(e) = write_frame(stream, &frames[records[k].frame]) {
                error = Some(e.to_string());
                break;
            }
            outstanding.push_back(k);
        }
        let until = Instant::now() + DRAIN;
        while error.is_none() && !outstanding.is_empty() {
            match await_reply(
                stream,
                &mut reader,
                start,
                until,
                &mut outstanding,
                &mut records,
            ) {
                Ok(true) => {}
                Ok(false) => error = Some(format!("{} replies missing", outstanding.len())),
                Err(e) => error = Some(e),
            }
        }
        (records, error.map(|e| format!("lane {lane}: {e}")))
    })
}

/// Closed loop: each lane keeps `window` requests outstanding, choosing
/// frames round-robin from `frames` (offset by lane), and stops sending
/// once `duration` has passed since the phase start.
///
/// # Panics
///
/// Panics if `frames` is empty, or `lanes` or `window` is zero.
pub fn run_closed(
    addr: SocketAddr,
    lanes: usize,
    window: usize,
    frames: &[Frame],
    duration: Duration,
) -> Phase {
    assert!(
        !frames.is_empty() && window >= 1,
        "need frames and a window"
    );
    run_lanes(addr, lanes, |lane, stream, start| {
        let mut records: Vec<Record> = Vec::new();
        let mut reader = FrameReader::new();
        let mut outstanding = VecDeque::new();
        let mut error = None;
        // Frames round-robin, offset by lane.
        let send = |stream: &mut TcpStream, records: &mut Vec<Record>| {
            let frame = (lane * 5 + records.len() * lanes) % frames.len();
            let at = start.elapsed();
            records.push(Record {
                lane,
                frame,
                due: at,
                sent: Some(at),
                replied: None,
                reply: None,
            });
            write_frame(stream, &frames[frame]).map_err(|e| e.to_string())
        };
        for _ in 0..window {
            if let Err(e) = send(stream, &mut records) {
                error = Some(e);
                break;
            }
            outstanding.push_back(records.len() - 1);
        }
        while error.is_none() && !outstanding.is_empty() {
            let until = Instant::now() + DRAIN;
            match await_reply(
                stream,
                &mut reader,
                start,
                until,
                &mut outstanding,
                &mut records,
            ) {
                Ok(true) if start.elapsed() < duration => match send(stream, &mut records) {
                    Ok(()) => outstanding.push_back(records.len() - 1),
                    Err(e) => error = Some(e),
                },
                Ok(true) => {}
                Ok(false) => error = Some(format!("{} replies missing", outstanding.len())),
                Err(e) => error = Some(e),
            }
        }
        (records, error.map(|e| format!("lane {lane}: {e}")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaive_wire::{read_frame, FrameBuilder};
    use std::net::TcpListener;

    const MAGIC: &[u8; 8] = b"PERFTEST";

    /// A fake server that answers every frame with a small one, after
    /// not reading anything for `stall`.
    fn fake_server(stall: Duration) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            std::thread::sleep(stall);
            let mut n = 0;
            while read_frame(&mut stream).is_ok() {
                let mut reply = FrameBuilder::new(MAGIC);
                reply.u32(n as u32);
                if write_frame(&mut stream, &reply.seal()).is_err() {
                    break;
                }
                n += 1;
            }
            n
        });
        (addr, handle)
    }

    fn big_frames(count: usize, bytes: usize) -> Vec<Frame> {
        (0..count)
            .map(|i| {
                let mut b = FrameBuilder::new(MAGIC);
                b.raw(&vec![i as u8; bytes]);
                b.seal()
            })
            .collect()
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_request_it_delays() {
        let stall = Duration::from_millis(400);
        let (addr, server) = fake_server(stall);
        let count = 16;
        let interval = Duration::from_millis(10);
        // Frames large enough that the socket buffers fill during the
        // stall, so the generator itself falls behind its schedule.
        let frames = big_frames(count, 2 << 20);
        let due: Vec<Duration> = (0..count).map(|i| interval * i as u32).collect();
        let phase = run_open(addr, 1, &frames, &due);
        assert!(phase.errors.is_empty(), "{:?}", phase.errors);
        assert_eq!(phase.answered(), count);
        assert_eq!(server.join().unwrap(), count);

        // The generator ran late: some send started well after it was due.
        assert!(
            phase.max_lateness_ms() > 100.0,
            "lateness {} ms",
            phase.max_lateness_ms()
        );
        for r in &phase.records {
            let latency = r.latency_ms().unwrap();
            // Latency is timed from the due time, so it includes lateness.
            assert!(latency >= r.lateness_ms().unwrap());
            // Nothing was read before the stall ended.
            let stall_left = stall.saturating_sub(r.due).as_secs_f64() * 1e3;
            assert!(latency >= stall_left, "latency {latency} < {stall_left}");
        }
    }

    #[test]
    fn open_loop_keeps_schedule_against_a_prompt_server() {
        let (addr, server) = fake_server(Duration::ZERO);
        let count = 20;
        let frames = big_frames(count, 64);
        let due: Vec<Duration> = (0..count)
            .map(|i| Duration::from_millis(5) * i as u32)
            .collect();
        let phase = run_open(addr, 1, &frames, &due);
        assert!(phase.errors.is_empty(), "{:?}", phase.errors);
        assert_eq!(phase.answered(), count);
        assert_eq!(server.join().unwrap(), count);
        assert!(phase.max_lateness_ms() < 50.0);
        // Records keep send order and due times.
        for (i, r) in phase.records.iter().enumerate() {
            assert_eq!(r.frame, i);
            assert!(r.sent.unwrap() >= r.due);
        }
    }

    #[test]
    fn closed_loop_keeps_its_window() {
        let (addr, server) = fake_server(Duration::ZERO);
        let frames = big_frames(3, 16);
        let phase = run_closed(addr, 1, 4, &frames, Duration::from_millis(50));
        assert!(phase.errors.is_empty(), "{:?}", phase.errors);
        assert!(phase.records.len() >= 4);
        assert_eq!(phase.answered(), phase.records.len());
        assert_eq!(server.join().unwrap(), phase.records.len());
    }
}
