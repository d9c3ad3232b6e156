//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each call into a
//! crate: the name's prefix before the first `.` is the layer
//! (`motif-finder.grow` → `motif-finder`). Every span has an id, a
//! parent (0 for a root), a request id, and start/end offsets from the
//! tracer's creation. Spans stay in memory until [`Tracer::write`].
//!
//! A disabled tracer hands out inert guards that read no clock, so the
//! untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer this span times: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder shared by every thread of a run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; records itself when dropped.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    request: u64,
    start: Option<Instant>,
}

impl Guard<'_> {
    /// This span's id, to pass as the parent of nested spans (0 when
    /// tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.tracer.push(
                self.id,
                self.parent,
                self.name,
                self.request,
                start,
                Instant::now(),
            );
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span named `name` under `parent` for request `request`.
    pub fn span(&self, name: &'static str, parent: u64, request: u64) -> Guard<'_> {
        let (id, start) = if self.enabled {
            (
                self.next_id.fetch_add(1, Ordering::Relaxed),
                Some(Instant::now()),
            )
        } else {
            (0, None)
        };
        Guard {
            tracer: self,
            id,
            parent,
            name,
            request,
            start,
        }
    }

    /// Record a span whose endpoints the caller already measured.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(id, parent, name, request, start, end);
        }
    }

    fn push(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let offset = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            request,
            start_ns: offset(start),
            end_ns: offset(end).max(offset(start)),
        };
        self.spans
            .lock()
            .expect("a span recorder panicked while holding the span list")
            .push(span);
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a span recorder panicked while holding the span list")
            .clone();
        spans.sort_unstable_by_key(|s| s.id);
        spans
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Write every span as one JSON line to `path`, preceded by `header`
    /// (itself one JSON object).
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"request\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cursor) = (0u64, lo);
    for (a, b) in intervals {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Each span's duration minus the part of its interval its children
/// cover, keyed by span id.
fn self_times_ns(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (
                s.id,
                s.duration_ns() - covered_ns(kids, s.start_ns, s.end_ns),
            )
        })
        .collect()
}

/// Self time in seconds per layer, summed over all spans.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times_ns(spans);
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        *by_layer.entry(s.layer()).or_default() += own[&s.id] as f64 * 1e-9;
    }
    by_layer
}

/// Smallest share, over every span named `root`, of the root's
/// duration that its direct children cover: how much of an end-to-end
/// time the per-stage spans account for.
pub fn child_coverage(spans: &[Span], root: &str) -> Option<f64> {
    let own = self_times_ns(spans);
    spans
        .iter()
        .filter(|s| s.name == root && s.duration_ns() > 0)
        .map(|s| 1.0 - own[&s.id] as f64 / s.duration_ns() as f64)
        .min_by(f64::total_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "bench.train", 0, 100),
            span(2, 1, "motif-finder.grow", 10, 50),
            span(3, 1, "core.label", 40, 80),
            span(4, 3, "lamo-serve.x", 60, 70),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[&1], 30);
        assert_eq!(own[&3], 30);
        let layers = layer_self_s(&spans);
        assert!((layers["bench"] - 30e-9).abs() < 1e-15);
        assert!((child_coverage(&spans, "bench.train").unwrap() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let g = tracer.span("core.label", 0, 0);
            assert_eq!(g.id(), 0);
        }
        tracer.record("core.label", 0, 0, Instant::now(), Instant::now());
        assert!(tracer.spans().is_empty());
    }
}
