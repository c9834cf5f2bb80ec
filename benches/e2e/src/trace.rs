//! Spans recorded by the bench around its calls into each layer.
//!
//! The program under test carries no spans of its own yet, so a traced
//! run times the public function at each layer boundary from out here.
//! Spans stay in memory and are written once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::exec::ExecTotals;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The workload operation this span belongs to.
    pub op_id: u32,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Operation id of spans recorded outside the replayed operations (a
/// layer timed on the side); they count toward neither coverage nor
/// the span shares.
pub const PROBE_OP: u32 = u32::MAX;

pub struct Tracer {
    /// Off for untraced runs: every call below then records nothing,
    /// so one code path serves both kinds of run.
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u32,
    /// Executor and engine counters, read where the executor spans
    /// close.
    pub exec: ExecTotals,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
            exec: ExecTotals::default(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span opened from here on belongs to operation `op_id`.
    pub fn set_op(&mut self, op_id: u32) {
        self.op_id = op_id;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: u32) {
        if !self.on {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// A leaf span around `f`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// A finished span under `parent`, measured elsewhere (a served
    /// request, timed by the load generator). Such spans may overlap
    /// one another, so their parent's self time bottoms out at zero.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        op_id: u32,
    ) {
        if !self.on {
            return;
        }
        let ns = |at: Instant| at.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: Some(parent),
            op_id,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in microseconds, of every span called `name`.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64 / 1e3)
            .collect()
    }

    /// Total self time, in nanoseconds, of the operations' spans whose
    /// name satisfies `pick`.
    pub fn self_nanos(&self, pick: impl Fn(&str) -> bool) -> u64 {
        self_times(&self.spans)
            .iter()
            .zip(&self.spans)
            .filter(|(_, span)| span.op_id != PROBE_OP && pick(span.name))
            .map(|(ns, _)| ns)
            .sum()
    }

    /// Total duration, in nanoseconds, of the operations' top-level
    /// spans.
    pub fn top_level_nanos(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.op_id != PROBE_OP)
            .map(Span::nanos)
            .sum()
    }

    /// Write the spans as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        )?;
        let selfs = self_times(&self.spans);
        for (i, (span, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{},\"self_ns\":{self_ns}}}",
                if i == 0 { "" } else { "," },
                span.name,
                span.start_ns,
                span.end_ns,
                span.op_id,
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// A span's self time: its duration minus the durations of its direct
/// children (which never overlap: one thread opens and closes them).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::nanos).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut out[parent as usize];
            *slot = slot.saturating_sub(span.nanos());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span("op", 0, 100, None),
            span("plan", 10, 60, Some(0)),
            span("determinize", 20, 50, Some(1)),
            span("execute", 60, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![15, 20, 30, 35]);
    }

    #[test]
    fn tracer_nests_and_attributes() {
        let mut t = Tracer::new();
        t.set_op(4);
        let op = t.begin("op");
        t.time("leaf", || std::hint::black_box(1 + 1));
        t.end(op);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op_id, 4);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.top_level_nanos(), spans[0].nanos());
        assert_eq!(
            t.self_nanos(|n| n == "op") + t.self_nanos(|n| n == "leaf"),
            spans[0].nanos()
        );
        let mut off = Tracer::off();
        let id = off.begin("op");
        assert_eq!(off.time("leaf", || 7), 7);
        off.end(id);
        assert!(off.spans().is_empty());
    }
}
