//! Spans recorded by the benchmark's own code around each call into a
//! layer: workload → phase → service call / round trip / query / sim slice.
//!
//! Spans go into a pre-sized in-memory vector and are written out once, when
//! the run ends. Nothing inside the program under test is instrumented: a
//! layer the benchmark cannot call separately gets its time from the
//! engine's own histograms or from a differential replay (see `layers.rs`).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// `0` means "no parent".
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// Spans of one request (service call, round trip, query) share this.
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A single-owner span buffer. Each thread of a multi-threaded workload owns
/// one (distinct `id_base`), so recording never takes a lock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    id_base: SpanId,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing; every call is one branch.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            id_base: 0,
            spans: Vec::new(),
            capacity: 0,
            dropped: 0,
        }
    }

    /// A recording tracer whose ids start at `id_base + 1` and whose buffer
    /// holds `capacity` spans (later spans are counted as dropped, not
    /// recorded, so the buffer never reallocates inside a timed region).
    pub fn new(epoch: Instant, id_base: SpanId, capacity: usize) -> Self {
        Tracer {
            enabled: true,
            epoch,
            id_base,
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now. Returns 0 when disabled or full.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u32) -> SpanId {
        let now = Instant::now();
        self.leaf(name, parent, request, now, now)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if id == 0 {
            return;
        }
        let now = self.ns(Instant::now());
        if let Some(span) = self.spans.get_mut((id - self.id_base - 1) as usize) {
            span.end_ns = now;
        }
    }

    /// Records a finished span from the two instants the caller already took
    /// to time the call, so tracing adds no clock reads to the hot loop.
    #[inline]
    pub fn leaf(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return 0;
        }
        let id = self.id_base + self.spans.len() as SpanId + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A tracer for worker thread `n` of a multi-threaded phase: same
    /// epoch, its own id range, disabled when this one is.
    pub fn child(&self, n: u32) -> Tracer {
        const CHILD_BASE: SpanId = 100_000_000;
        const CHILD_SPANS: usize = 200_000;
        if self.enabled {
            Tracer::new(
                self.epoch,
                CHILD_BASE + n * CHILD_SPANS as SpanId,
                CHILD_SPANS,
            )
        } else {
            Tracer::disabled()
        }
    }

    /// Moves a child's spans into this tracer, hanging its root spans
    /// under `parent`.
    pub fn adopt(&mut self, child: Tracer, parent: SpanId) {
        self.dropped += child.dropped;
        self.spans.extend(child.spans.into_iter().map(|mut s| {
            if s.parent == 0 {
                s.parent = parent;
            }
            s
        }));
    }
}

/// Per span name: how many, total duration, and self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span's self time: its duration minus the part of its interval that its
/// child spans cover (children of different threads may overlap; the covered
/// part is the union, clipped to the parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = match children.get_mut(&s.id) {
            None => 0,
            Some(kids) => {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                covered
            }
        };
        out.insert(s.id, dur.saturating_sub(covered));
    }
    out
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.end_ns.saturating_sub(s.start_ns);
        e.self_ns += selfs.get(&s.id).copied().unwrap_or(0);
    }
    out
}

/// Writes the trace file: a header, the per-name totals, the engine's top
/// statements over the traced rounds, then every span.
pub fn write_json(
    out: &mut impl Write,
    header: &[(&str, String)],
    top_statements: &[(String, f64)],
    tracer: &Tracer,
) -> io::Result<()> {
    use crate::json::escape;
    writeln!(out, "{{")?;
    for (k, v) in header {
        writeln!(out, "  \"{}\": {},", escape(k), v)?;
    }
    writeln!(out, "  \"dropped_spans\": {},", tracer.dropped())?;
    writeln!(out, "  \"by_name\": {{")?;
    let totals = totals_by_name(tracer.spans());
    let mut first = true;
    for (name, t) in &totals {
        if !first {
            writeln!(out, ",")?;
        }
        first = false;
        write!(
            out,
            "    \"{}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            escape(name),
            t.count,
            t.total_ns,
            t.self_ns
        )?;
    }
    writeln!(out, "\n  }},")?;
    writeln!(out, "  \"top_statements\": [")?;
    for (i, (sql, total_us)) in top_statements.iter().enumerate() {
        let comma = if i + 1 < top_statements.len() {
            ","
        } else {
            ""
        };
        writeln!(
            out,
            "    {{\"sql\": \"{}\", \"total_us\": {:.3}}}{}",
            escape(sql),
            total_us,
            comma
        )?;
    }
    writeln!(out, "  ],")?;
    writeln!(out, "  \"spans\": [")?;
    let spans = tracer.spans();
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}",
            s.id, s.parent, s.request, escape(s.name), s.start_ns, s.end_ns, comma
        )?;
    }
    writeln!(out, "  ]")?;
    writeln!(out, "}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(1, 0, "phase", 0, 100),
            span(2, 1, "call", 10, 30),
            span(3, 1, "call", 40, 70),
            span(4, 3, "inner", 45, 55),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 20 - 30);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 30 - 10);
        assert_eq!(st[&4], 10);
        let by = totals_by_name(&spans);
        assert_eq!(
            by["call"],
            NameTotals {
                count: 2,
                total_ns: 50,
                self_ns: 40
            }
        );
        // Self times of a tree sum to the root's duration.
        let total: u64 = st.values().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn overlapping_children_cover_their_union_clipped_to_the_parent() {
        // Two threads' spans under one phase: [10,60] ∪ [40,120) clipped to 100.
        let spans = vec![
            span(1, 0, "phase", 0, 100),
            span(2, 1, "conn", 10, 60),
            span(3, 1, "conn", 40, 120),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 90);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_full_tracer_counts_drops() {
        let mut off = Tracer::disabled();
        let now = Instant::now();
        assert_eq!(off.leaf("x", 0, 0, now, now), 0);
        assert_eq!(off.begin("x", 0, 0), 0);
        off.end(0);
        assert!(off.spans().is_empty());

        let mut t = Tracer::new(now, 100, 2);
        let a = t.begin("a", 0, 1);
        assert_eq!(a, 101);
        let b = t.leaf("b", a, 1, now, now);
        assert_eq!(b, 102);
        assert_eq!(t.leaf("c", a, 1, now, now), 0);
        assert_eq!(t.dropped(), 1);
        t.end(a);
        assert!(t.spans()[0].end_ns >= t.spans()[0].start_ns);
        assert_eq!(t.spans()[1].parent, 101);
    }

    #[test]
    fn trace_file_is_valid_json() {
        let now = Instant::now();
        let mut t = Tracer::new(now, 0, 8);
        let p = t.begin("measure", 0, 0);
        t.leaf("call \"q\"", p, 1, now, now);
        t.end(p);
        let mut buf = Vec::new();
        write_json(
            &mut buf,
            &[("workload", "\"w\"".to_string()), ("seed", "7".to_string())],
            &[("SELECT 'a'\n".to_string(), 1.5)],
            &t,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let v = crate::json::parse(&text).unwrap();
        assert_eq!(v.get("seed").and_then(|s| s.as_f64()), Some(7.0));
        assert_eq!(
            v.get("spans").and_then(|s| s.as_array()).map(|a| a.len()),
            Some(2)
        );
    }
}
