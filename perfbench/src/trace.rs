//! In-memory span recording for the traced run.
//!
//! Each span is a named interval with an optional parent span and a trace
//! id shared by every span of one operation (one request, one project, one
//! append). Spans are appended to a vector under a mutex and written out
//! once, when the benchmark ends. The benchmark records spans around its
//! own calls into each layer's public functions; the program itself is not
//! instrumented. [`overhead_pct`] measures what the recording costs on
//! those same instrumented calls.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use schemachron_stats::median;

/// One finished span; times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans; a disabled tracer records nothing and costs one branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// An open span; hand it back to [`Tracer::end`].
pub struct Open {
    id: u32,
    parent: Option<u32>,
    trace: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> Option<u32> {
        (self.id != 0).then_some(self.id)
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn begin(&self, name: &'static str, parent: Option<u32>, trace: u64) -> Open {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            parent,
            trace,
            name,
            start: Instant::now(),
        }
    }

    /// Closes `open`, records it and returns its duration in nanoseconds.
    pub fn end(&self, open: Open) -> u64 {
        let end = Instant::now();
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if self.enabled {
            let start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
            self.spans
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Span {
                    id: open.id,
                    parent: open.parent,
                    trace: open.trace,
                    name: open.name,
                    start_ns,
                    end_ns: start_ns + dur,
                });
        }
        dur
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        trace: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, parent, trace);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    pub fn span_count(&self) -> usize {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Paired runs behind each tracing-overhead figure.
pub const OVERHEAD_REPS: usize = 7;

/// What recording spans costs on `walk`, an instrumented piece of work, in
/// percent of its untraced time: `reps` pairs of one run with a disabled
/// tracer and one with a fresh enabled tracer, the order alternating from
/// pair to pair so drift between the two halves cancels out. Returns the
/// median of the paired differences and the untraced median in seconds.
pub fn overhead_pct(reps: usize, walk: impl Fn(&Tracer)) -> (f64, f64) {
    let timed = |enabled: bool| {
        let tracer = Tracer::new(enabled);
        let t = Instant::now();
        walk(&tracer);
        t.elapsed().as_secs_f64()
    };
    let mut pct = Vec::with_capacity(reps);
    let mut base = Vec::with_capacity(reps);
    for rep in 0..reps {
        let (off, on) = if rep % 2 == 0 {
            let off = timed(false);
            (off, timed(true))
        } else {
            let on = timed(true);
            (timed(false), on)
        };
        pct.push((on - off) / off * 100.0);
        base.push(off);
    }
    (median(&pct), median(&base))
}

/// Self time of every span, in input order: its duration minus the part of
/// its interval covered by its direct children (overlapping children are
/// merged, and children are clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u32, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get(&s.id) else {
                return s.dur_ns();
            };
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per trace id, the summed self time of the spans named `name`, in
/// microseconds: the cost of one layer per operation.
pub fn per_trace_self_us(spans: &[Span], name: &str) -> Vec<f64> {
    let selfs = self_times(spans);
    let mut by_trace: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for (s, st) in spans.iter().zip(selfs) {
        if s.name == name {
            *by_trace.entry(s.trace).or_default() += st;
        }
    }
    by_trace.values().map(|&ns| ns as f64 / 1e3).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span(1, None, 10, 35)]), vec![25]);
    }

    #[test]
    fn children_are_subtracted_once_even_when_they_overlap() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 40), // overlaps span 2: 10..40 covered
            span(4, Some(1), 60, 70),
            span(5, Some(2), 12, 18), // grandchild: counts against 2, not 1
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 20 - 6, 20, 10, 6]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(1, None, 50, 100),
            span(2, Some(1), 40, 60),
            span(3, Some(1), 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 50 - 10 - 10);
    }

    #[test]
    fn per_trace_sums_self_time_by_operation() {
        let mut spans = vec![span(1, None, 0, 1000), span(2, None, 0, 3000)];
        spans[1].trace = 2;
        let mut third = span(3, None, 5000, 6000);
        third.trace = 2;
        spans.push(third);
        assert_eq!(per_trace_self_us(&spans, "x"), vec![1.0, 4.0]);
    }

    #[test]
    fn tracer_records_when_enabled_only() {
        let on = Tracer::new(true);
        let parent = on.begin("outer", None, 7);
        on.time("inner", parent.id(), 7, || ());
        on.end(parent);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        let off = Tracer::new(false);
        off.time("inner", None, 1, || ());
        assert_eq!(off.span_count(), 0);
    }
}
