//! What a workload run reports: metrics, counts of attempted and failed
//! operations, and free-form details.

use std::time::Instant;

use crate::json::Json;
use crate::stats::Summary;
use crate::trace::Tracer;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
    /// For a tail metric, the percentile it was read at (100 = maximum).
    pub percentile: Option<f64>,
}

impl Metric {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("value", self.value)
            .set("unit", self.unit)
            .set("samples", self.samples);
        if let Some(p) = self.percentile {
            o.set("percentile", p);
        }
        o
    }
}

/// Run-wide settings every workload reads.
pub struct Ctx {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// How long the measured part should take, in seconds.
    pub seconds: u64,
    /// Host CPU count; the load generator never exceeds it.
    pub nproc: usize,
    /// Process start, the origin of set-up time.
    pub started: Instant,
    /// The span recorder (a pass-through when tracing is off).
    pub tracer: Tracer,
}

/// A workload's results.
#[derive(Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: error replies, refusals, dropped or
    /// mismatched replies, failed output checks.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// The end-to-end metrics of the benchmark contract.
    pub e2e: Vec<Metric>,
    /// The same measurements under their per-workload names.
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Remarks on how a metric was measured or why it could not be.
    pub notes: Vec<String>,
    /// Free-form details: counters, phase breakdowns.
    pub details: Vec<(String, Json)>,
}

const MAX_MESSAGES: usize = 20;

impl Report {
    /// Counts one attempted operation that succeeded iff `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts a failure of an already attempted operation.
    pub fn fail(&mut self, what: String) {
        self.fail_n(1, what);
    }

    /// Counts `n` failures of already attempted operations, with one
    /// message.
    pub fn fail_n(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.failures.len() < MAX_MESSAGES {
            self.failures.push(what);
        }
    }

    fn push(list: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str, samples: usize) {
        list.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            percentile: None,
        });
    }

    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        Self::push(&mut self.e2e, name, value, unit, samples);
    }

    /// Adds a named per-workload metric.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        Self::push(&mut self.named, name, value, unit, samples);
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        Self::push(&mut self.layers, name, value, unit, samples);
    }

    /// Adds `<p50>` and `<tail>` end-to-end and named metrics from one
    /// latency summary.
    pub fn latency(&mut self, e2e: Option<(&str, &str)>, named: (&str, &str), s: &Summary) {
        let pair = |p50: &str, tail: &str| {
            [
                Metric {
                    name: p50.to_string(),
                    value: s.p50,
                    unit: "ms",
                    samples: s.n,
                    percentile: None,
                },
                Metric {
                    name: tail.to_string(),
                    value: s.tail,
                    unit: "ms",
                    samples: s.n,
                    percentile: Some(s.tail_pct),
                },
            ]
        };
        if let Some((p50, tail)) = e2e {
            self.e2e.extend(pair(p50, tail));
        }
        self.named.extend(pair(named.0, named.1));
    }

    /// Records a detail.
    pub fn detail(&mut self, key: &str, value: impl Into<Json>) {
        self.details.push((key.to_string(), value.into()));
    }

    /// The result line: the contract's four keys, with `metrics` holding
    /// the per-layer metrics when `traced` and the end-to-end ones
    /// otherwise, followed by everything else under `details`.
    pub fn to_json(&self, traced: bool, provenance: Json) -> Json {
        let metrics = |list: &[Metric]| {
            Json::Obj(list.iter().map(|m| (m.name.clone(), m.to_json())).collect())
        };
        let mut details = Json::obj();
        details
            .set("provenance", provenance)
            .set("named", metrics(&self.named))
            .set("end_to_end", metrics(&self.e2e))
            .set(
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| Json::from(f.as_str()))
                        .collect(),
                ),
            )
            .set(
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::from(n.as_str())).collect()),
            );
        for (k, v) in &self.details {
            details.set(k.clone(), v.clone());
        }
        let mut out = Json::obj();
        out.set("correct", self.failed == 0 && self.attempted > 0)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set(
                "metrics",
                metrics(if traced { &self.layers } else { &self.e2e }),
            )
            .set("details", details);
        out
    }
}

/// Starts a fresh memory peak for the next set-up repetition: returns
/// freed heap memory to the operating system (glibc's `malloc_trim`), then
/// resets the kernel's peak-RSS mark (`/proc/self/clear_refs`), so
/// `peak_rss_mb` covers one set-up plus the workload, not the residue of
/// the repetitions before it. Best effort: a no-op where unsupported.
pub fn fresh_memory_peak() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only walks and shrinks the allocator's own
        // free lists; it takes no pointers from the caller and is safe to
        // call at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process in MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
