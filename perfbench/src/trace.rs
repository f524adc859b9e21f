//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (microseconds since the tracer was
//! made), the id of the span that caused it, and for serve requests the trace
//! id the server echoed. Spans stay in memory and are written as JSON lines
//! when the run ends. A disabled tracer still times every call (the
//! end-to-end metrics come from those timings) but keeps nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Span id; 0 is "no span".
pub type SpanId = u64;

struct Span {
    id: SpanId,
    name: &'static str,
    start_us: u64,
    end_us: u64,
    parent: SpanId,
    req: Option<String>,
}

/// Collects spans when enabled.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves an id for a span that will be recorded once it ends, so its
    /// children can name it as their parent (0 when disabled).
    pub fn reserve(&self) -> SpanId {
        if self.enabled {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a finished span under a reserved id.
    pub fn record(
        &self,
        id: SpanId,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
        req: Option<String>,
    ) {
        if !self.enabled {
            return;
        }
        let us = |t: Instant| t.saturating_duration_since(self.t0).as_micros() as u64;
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking workload thread")
            .push(Span {
                id,
                name,
                start_us: us(start),
                end_us: us(end),
                parent,
                req,
            });
    }

    /// Times `f` and records it as span `name` under `parent`; `f` receives
    /// the new span's id for its own children.
    pub fn timed<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, Duration) {
        let id = self.reserve();
        let start = Instant::now();
        let r = f(id);
        let end = Instant::now();
        self.record(id, name, parent, start, end, None);
        (r, end - start)
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("span list lock poisoned by a panicking workload thread");
        let mut out = String::new();
        for s in spans.iter() {
            let _ = write!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{}",
                s.id, s.name, s.start_us, s.end_us, s.parent
            );
            if let Some(r) = &s.req {
                let _ = write!(out, ",\"req\":\"{r}\"");
            }
            out.push_str("}\n");
        }
        std::fs::write(path, out)
    }

    /// Per span name: `(count, total seconds, self seconds)`, where self time
    /// is a span's duration minus the part of it its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self
            .spans
            .lock()
            .expect("span list lock poisoned by a panicking workload thread");
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter() {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_us, s.end_us));
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let covered = children.get_mut(&s.id).map_or(0, |c| union_len(c));
            let total = s.end_us.saturating_sub(s.start_us);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total as f64 * 1e-6;
            e.2 += total.saturating_sub(covered) as f64 * 1e-6;
        }
        out
    }

    /// Prints the self-time table.
    pub fn print_self_times(&self) {
        println!(
            "{:<34} {:>8} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        );
        for (name, (n, total, own)) in self.self_times() {
            println!("{name:<34} {n:>8} {total:>12.4} {own:>12.4}");
        }
    }
}

/// Length of the union of possibly overlapping intervals.
fn union_len(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut len = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in iv.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                len += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        len += ce - cs;
    }
    len
}
