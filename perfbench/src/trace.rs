//! In-memory span recorder.
//!
//! The benchmark wraps each call into a layer's public function in a span
//! named `<layer>.<operation>`. A span has an id, a name, a start and an
//! end (nanoseconds since the tracer was created), the span that caused
//! it, and optionally a request id that all spans of one served request
//! share. Spans stay in memory until the run ends and are then written out
//! in one go, so recording costs a clock read and a vector push.
//!
//! A layer's *self time* is its spans' durations minus the part of each
//! span's interval that its direct children cover (children may overlap
//! each other or outlive the parent; only the covered part of the parent
//! interval counts).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within one tracer.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Shared by every span of one served request.
    pub request: Option<u64>,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

thread_local! {
    /// Open spans of the calling thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Records spans when enabled; otherwise every method is a pass-through.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The calling thread's innermost open span, to hand to work that
    /// runs on another thread as its parent.
    pub fn current(&self) -> Option<u64> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Runs `f` inside a span named `name`, under the calling thread's
    /// innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = self.current();
        self.span_under(name, parent, None, f)
    }

    /// Runs `f` inside a span with an explicit parent and request id.
    /// Spans opened inside `f` on this thread become its children.
    pub fn span_under<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push(id));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        OPEN.with(|open| open.borrow_mut().pop());
        self.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        out
    }

    /// Records an interval timed elsewhere (a request from its scheduled
    /// send to its reply). Returns its id, or 0 when tracing is off.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking thread")
            .push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking thread")
            .clone()
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (each clipped to the interval).
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                total += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + run.map_or(0, |(s, e)| e - s)
}

/// Self time of every span, by id: its duration minus what its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            let dur = s.end_ns.saturating_sub(s.start_ns);
            (s.id, dur - covered_ns(s.start_ns, s.end_ns, kids))
        })
        .collect()
}

/// Summed self time per layer.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer()).or_insert(0) += own[&s.id];
    }
    out
}

/// Writes `spans` as tab-separated lines: id, parent, request, name,
/// start and end in nanoseconds (`-` for an absent parent or request).
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
    let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            opt(s.parent),
            opt(s.request),
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: None,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        assert_eq!(covered_ns(0, 100, &[]), 0);
        assert_eq!(covered_ns(0, 100, &[(10, 30), (20, 50)]), 40);
        assert_eq!(covered_ns(0, 100, &[(20, 50), (10, 30), (60, 70)]), 50);
        // Children that start before or end after the parent are clipped.
        assert_eq!(covered_ns(10, 100, &[(0, 20), (90, 150)]), 20);
        // A child entirely outside contributes nothing.
        assert_eq!(covered_ns(10, 20, &[(30, 40)]), 0);
        // Nested children count once.
        assert_eq!(covered_ns(0, 100, &[(10, 90), (20, 30)]), 80);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(1, None, "gnn.train", 0, 100),
            // Two overlapping children: union [10, 50).
            span(2, Some(1), "nn.matmul", 10, 30),
            span(3, Some(1), "nn.matmul", 20, 50),
            // A child running past its parent: clipped to [90, 100).
            span(4, Some(1), "nn.transpose", 90, 120),
            // A grandchild: reduces span 2's self time, not span 1's.
            span(5, Some(2), "sim.run", 12, 18),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 40 - 10);
        assert_eq!(own[&2], 20 - 6);
        assert_eq!(own[&3], 30);
        assert_eq!(own[&4], 30);
        assert_eq!(own[&5], 6);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["gnn"], 50);
        assert_eq!(layers["nn"], 14 + 30 + 30);
        assert_eq!(layers["sim"], 6);
    }

    #[test]
    fn nested_calls_link_to_their_parent() {
        let t = Tracer::new(true);
        t.span("campaign.run", || {
            t.span("faultsim.plan", || {});
            t.span("faultsim.inject", || {});
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "campaign.run").unwrap();
        assert_eq!(root.parent, None);
        for s in spans.iter().filter(|s| s.layer() == "faultsim") {
            assert_eq!(s.parent, Some(root.id));
            assert!(s.start_ns >= root.start_ns && s.end_ns <= root.end_ns);
        }
        let off = Tracer::new(false);
        assert_eq!(off.span("sim.run", || 7), 7);
        assert!(off.spans().is_empty());
    }
}
