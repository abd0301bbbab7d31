//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent, operation id, work count)`,
//! recorded by the benchmark's own code around a call into one layer's
//! public function — nothing inside the measured program is instrumented.
//! Spans stay in memory until the run ends; [`self_times`] subtracts
//! children from parents and [`chrome_trace`] renders them for Perfetto.

use std::time::Instant;

use crate::json;

/// Interned span name (index into [`Recorder::names`]), so opening a span
/// inside a timed region allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NameId(u32);

/// One recorded span.  Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Which layer call this is.
    pub name: NameId,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Operation the span belongs to: spans of one evaluation share it.
    pub op: u32,
    /// Work items the span covered (a batched span times `count` calls).
    pub count: u32,
    /// Recording thread (0 = the main thread).
    pub tid: u32,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store, owned by the main thread.  Client threads time their
/// own requests and hand the `(start, end)` pairs to [`Recorder::record`]
/// after the pass.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
    tid: u32,
}

impl Recorder {
    /// An empty recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Recorder { epoch, names: Vec::new(), spans: Vec::new(), stack: Vec::new(), op: 0, tid }
    }

    /// Interns `name`.
    pub fn name(&mut self, name: &str) -> NameId {
        let index = self.names.iter().position(|n| n == name).unwrap_or_else(|| {
            self.names.push(name.to_owned());
            self.names.len() - 1
        });
        NameId(index as u32)
    }

    /// The text of an interned name.
    pub fn name_of(&self, id: NameId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Starts the next operation: spans opened from now on carry its id.
    pub fn next_op(&mut self) -> u32 {
        self.op += 1;
        self.op
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span covering one work item.
    pub fn span<R>(&mut self, name: NameId, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.span_n(name, 1, f)
    }

    /// Runs `f` inside a span covering `count` work items; spans opened by
    /// `f` become its children.
    pub fn span_n<R>(&mut self, name: NameId, count: u32, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let index = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op: self.op,
            count,
            tid: self.tid,
        });
        self.stack.push(index);
        let start_ns = self.now_ns();
        let result = f(self);
        let end_ns = self.now_ns();
        self.stack.pop();
        let span = &mut self.spans[index as usize];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        result
    }

    /// Records a span timed elsewhere (a client thread's request), as a
    /// child of the currently open span.
    pub fn record(&mut self, name: NameId, start: Instant, end: Instant, op: u32, tid: u32) {
        let since = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: since(start),
            end_ns: since(end),
            parent: self.stack.last().copied(),
            op,
            count: 1,
            tid,
        });
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-item durations (ns per work item) of every span named `name`.
    pub fn per_item_nanos(&self, name: &str) -> Vec<f64> {
        let Some(index) = self.names.iter().position(|n| n == name) else {
            return Vec::new();
        };
        self.spans
            .iter()
            .filter(|s| s.name.0 as usize == index)
            .map(|s| s.nanos() as f64 / f64::from(s.count.max(1)))
            .collect()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (children are clamped to the parent's interval,
/// and overlapping children — client threads under one pass span — are
/// counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            children[parent as usize].push((start, end));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.nanos().saturating_sub(covered)
        })
        .collect()
}

/// Renders at most `per_name` spans of each name as Chrome-trace JSON
/// (`chrome://tracing` / <https://ui.perfetto.dev>): complete (`"X"`)
/// events in microseconds, one track per recording thread.
pub fn chrome_trace(recorder: &Recorder, per_name: usize) -> String {
    let mut emitted = vec![0usize; recorder.names.len()];
    let mut events = Vec::new();
    for span in recorder.spans() {
        let seen = &mut emitted[span.name.0 as usize];
        if *seen >= per_name {
            continue;
        }
        *seen += 1;
        events.push(format!(
            "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\
             \"args\":{{\"op\":{},\"count\":{}}}}}",
            json::string(recorder.name_of(span.name)),
            json::number(span.start_ns as f64 / 1e3),
            json::number(span.nanos() as f64 / 1e3),
            span.tid,
            span.op,
            span.count,
        ));
    }
    format!("{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ns\"}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name: NameId(0), start_ns, end_ns, parent, op: 1, count: 1, tid: 0 }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // root 0..100 > mid 10..60 > leaf 20..30
        let spans = [span(0, 100, None), span(10, 60, Some(0)), span(20, 30, Some(1))];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn sibling_spans_add_up() {
        let spans = [
            span(0, 100, None),
            span(5, 25, Some(0)),
            span(25, 40, Some(0)),
            span(70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 20 - 15 - 20, 20, 15, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clamped() {
        // Two client threads under one pass span overlap 30..50; the
        // second overhangs the parent's end.
        let spans = [span(0, 100, None), span(10, 50, Some(0)), span(30, 120, Some(0))];
        assert_eq!(self_times(&spans), vec![10, 40, 90]);
    }

    #[test]
    fn closures_nest_and_carry_the_operation_id() {
        let mut rec = Recorder::new(Instant::now(), 0);
        let outer = rec.name("outer");
        let inner = rec.name("inner");
        assert_eq!(rec.name("outer"), outer);
        let op = rec.next_op();
        let value = rec.span(outer, |rec| {
            rec.span_n(inner, 4, |_| ());
            rec.span(inner, |_| 7)
        });
        assert_eq!(value, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == op));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(rec.per_item_nanos("inner").len(), 2);
        assert_eq!(rec.per_item_nanos("inner")[0], spans[1].nanos() as f64 / 4.0);
        assert!(rec.per_item_nanos("absent").is_empty());
    }

    #[test]
    fn chrome_trace_is_capped_per_name() {
        let mut rec = Recorder::new(Instant::now(), 0);
        let name = rec.name("layer \"x\"");
        for _ in 0..5 {
            rec.span(name, |_| ());
        }
        let text = chrome_trace(&rec, 2);
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"name\":\"layer \\\"x\\\"\""));
    }
}
