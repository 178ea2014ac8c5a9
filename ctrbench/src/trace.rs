//! In-memory spans and per-layer self time.
//!
//! A span is one call into a layer: its name, start and end (ns since a
//! shared epoch), the span that caused it, and the request it belongs
//! to. Spans are only appended while the traced run measures; they are
//! written out once, at the end. A layer's **self time** is its span's
//! duration minus the part of that interval covered by its child spans
//! (the union of the children, clipped to the parent, so overlapping
//! children on parallel workers are not subtracted twice).

use std::collections::BTreeMap;
use std::io::Write;
// countlint: allow(wall-clock-in-core) -- the benchmark harness times counterlab from outside; no measured result reads this clock
use std::time::Instant;

/// Index of a span inside its [`Tracer`]; `NONE` marks a root.
pub type SpanId = u32;

/// Parent of a root span.
pub const NONE: SpanId = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `interface.pm.read`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch (`start` while still open).
    pub end: u64,
    /// The span that caused this one, or [`NONE`].
    pub parent: SpanId,
    /// Request (or pass) the span belongs to.
    pub req: u64,
}

/// An append-only span buffer. Parallel workers each fill their own
/// buffer against a shared epoch and the owner [`Tracer::absorb`]s them.
/// A tracer made with [`Tracer::off`] records nothing and reads no
/// clock, so the same code can run with and without tracing.
#[derive(Debug, Clone)]
pub struct Tracer {
    // countlint: allow(wall-clock-in-core) -- the benchmark harness times counterlab from outside; no measured result reads this clock
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty buffer timing against `epoch`.
    // countlint: allow(wall-clock-in-core) -- the benchmark harness times counterlab from outside; no measured result reads this clock
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            on: true,
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing: `open` returns [`NONE`] without
    /// reading the clock, and `close`, `push` and `absorb` do nothing.
    // countlint: allow(wall-clock-in-core) -- the benchmark harness times counterlab from outside; no measured result reads this clock
    pub fn off(epoch: Instant) -> Self {
        Tracer {
            on: false,
            ..Tracer::new(epoch)
        }
    }

    /// An empty buffer with this one's epoch and on/off state, for a
    /// parallel worker.
    pub fn child(&self) -> Self {
        Tracer {
            epoch: self.epoch,
            on: self.on,
            spans: Vec::new(),
        }
    }

    /// The shared time origin.
    // countlint: allow(wall-clock-in-core) -- the benchmark harness times counterlab from outside; no measured result reads this clock
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now.
    pub fn open(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return NONE;
        }
        let now = self.now();
        self.push(Span {
            name,
            start: now,
            end: now,
            parent,
            req,
        })
    }

    /// Closes `id` now.
    pub fn close(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let now = self.now();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end = now;
        }
    }

    /// Appends a span with explicit times (used for phases measured
    /// outside the buffer, and by tests).
    pub fn push(&mut self, span: Span) -> SpanId {
        if !self.on {
            return NONE;
        }
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(span);
        id
    }

    /// Moves `other`'s spans into this buffer, re-basing their ids;
    /// `other`'s roots become children of `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: SpanId) {
        if !self.on {
            return;
        }
        let base = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NONE {
                parent
            } else {
                s.parent + base
            };
            s
        }));
    }

    /// The recorded spans, in record order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line:
    /// `id name start_ns end_ns parent req` (`-` for no parent).
    ///
    /// # Errors
    ///
    /// I/O errors of `w`.
    pub fn write_tsv<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (id, s) in self.spans.iter().enumerate() {
            if s.parent == NONE {
                writeln!(w, "{id}\t{}\t{}\t{}\t-\t{}", s.name, s.start, s.end, s.req)?;
            } else {
                writeln!(
                    w,
                    "{id}\t{}\t{}\t{}\t{}\t{}",
                    s.name, s.start, s.end, s.parent, s.req
                )?;
            }
        }
        w.flush()
    }
}

/// Self time of every span (same order as `spans`): its duration minus
/// the union of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = children.get_mut(s.parent as usize) {
            kids.push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.clamp(s.start, s.end).max(reach), b.clamp(s.start, s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Self times grouped by span name (each group in record order).
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        out.entry(s.name).or_default().push(t as f64);
    }
    out
}
