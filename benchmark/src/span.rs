//! In-memory spans around the calls the benchmark makes into a crate.
//!
//! A span is a name, a start, an end, the span that was open when it
//! began, and the repetition it belongs to. Spans live in memory until
//! the run ends and are then written as one JSON file. A span's self
//! time is its duration minus the part its direct children cover; the
//! benchmark runs on one thread, so children never overlap.

use crate::json::Value;
use crate::stats::Summary;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span; hand it back to [`Tracer::end`].
#[must_use = "an open span must be ended"]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// Records spans when enabled. Disabled, `begin`/`end` still time the
/// interval (the untraced end-to-end run uses the same call sites) but
/// record nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Labels the spans that follow with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let start_ns = self.ns_since_epoch(start);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                rep: self.rep,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// Closes `open` and returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order — a bug in the caller.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(index) = open.index {
            assert_eq!(self.open.pop(), Some(index), "spans must nest");
            self.spans[index].end_ns = self.ns_since_epoch(end);
        }
        (end - open.start).as_secs_f64()
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name);
        let result = f();
        let secs = self.end(open);
        (result, secs)
    }

    fn ns_since_epoch(&self, at: Instant) -> u64 {
        u64::try_from((at - self.epoch).as_nanos()).expect("a run is shorter than 584 years")
    }

    /// Self time of every span, in span order: duration minus the
    /// durations of its direct children.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Durations in seconds of every closed span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    }

    /// Summary of the durations of the spans called `name`.
    pub fn summary_s(&self, name: &str) -> Option<Summary> {
        Summary::of(&self.durations_s(name))
    }

    /// The whole trace as one JSON object.
    pub fn to_value(&self, workload: &str) -> Value {
        let selfs = self.self_times_ns();
        let spans = self
            .spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (span, self_ns))| {
                Value::obj([
                    ("id", Value::Num(id as f64)),
                    ("name", Value::from(span.name)),
                    ("start_ns", Value::Num(span.start_ns as f64)),
                    ("end_ns", Value::Num(span.end_ns as f64)),
                    ("self_ns", Value::Num(self_ns as f64)),
                    (
                        "parent",
                        span.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("workload", Value::from(workload)),
                    ("rep", Value::Num(f64::from(span.rep))),
                ])
            })
            .collect();
        Value::obj([
            ("workload", Value::from(workload)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            selfs[parent] = selfs[parent].saturating_sub(span.duration_ns());
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // rep [0,100] ─ kernel [10,60] ─ sink [20,30]
        //             │               └ sink [30,45]   (adjacent)
        //             └ finish [60,70]                 (adjacent to kernel)
        let spans = [
            span("rep", 0, 100, None),
            span("kernel", 10, 60, Some(0)),
            span("sink", 20, 30, Some(1)),
            span("sink", 30, 45, Some(1)),
            span("finish", 60, 70, Some(0)),
        ];
        // Grandchildren are charged to their parent only, not twice.
        assert_eq!(self_times_ns(&spans), [40, 25, 10, 15, 10]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn tracer_records_parents_and_reps() {
        let mut tracer = Tracer::new(true);
        tracer.set_rep(3);
        let outer = tracer.begin("outer");
        let ((), inner_s) = tracer.time("inner", || std::hint::black_box(()));
        let outer_s = tracer.end(outer);
        assert!(outer_s >= inner_s);
        let spans = &tracer.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].rep),
            ("outer", None, 3)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(tracer.durations_s("inner").len(), 1);
        assert_eq!(tracer.summary_s("absent"), None);
        let trace = tracer.to_value("w");
        assert_eq!(trace.get("spans").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut tracer = Tracer::new(false);
        let (value, secs) = tracer.time("x", || 7);
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        assert!(tracer.spans.is_empty());
    }
}
