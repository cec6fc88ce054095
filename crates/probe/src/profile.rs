//! Report containers: named metric sections and the `RunProfile` JSON
//! object reports embed.
//!
//! Unlike the collection primitives in [`metrics`](crate::metrics),
//! these are *not* feature gated: building a profile happens once per
//! run on the cold path, and keeping the containers functional in both
//! modes lets report code assemble profiles unconditionally and gate
//! only the embedding on [`enabled`](crate::enabled).

use crate::metrics::Slot;
use crate::{json, HistogramOf, HistogramSnapshot};

/// One named metric inside a [`Section`].
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    /// A monotonic count.
    Counter(u64),
    /// A point-in-time float (rates, ratios).
    Gauge(f64),
    /// A value distribution.
    Histogram(HistogramSnapshot),
}

/// An ordered collection of named metrics for one layer of the system
/// (`"sched"`, `"l2"`, `"latency"`, …).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Section {
    name: String,
    metrics: Vec<(String, Metric)>,
}

impl Section {
    /// Creates an empty section.
    pub fn new(name: impl Into<String>) -> Self {
        Section {
            name: name.into(),
            metrics: Vec::new(),
        }
    }

    /// The section's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The metrics in insertion order.
    pub fn metrics(&self) -> &[(String, Metric)] {
        &self.metrics
    }

    /// Adds a counter metric.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) -> &mut Self {
        self.metrics.push((name.into(), Metric::Counter(value)));
        self
    }

    /// Adds a gauge metric.
    pub fn gauge(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.metrics.push((name.into(), Metric::Gauge(value)));
        self
    }

    /// Adds a histogram metric (snapshotting `histogram` now). Empty
    /// histograms are skipped — a disabled probe layer contributes no
    /// all-zero noise to reports.
    pub fn histogram<S: Slot>(
        &mut self,
        name: impl Into<String>,
        histogram: &HistogramOf<S>,
    ) -> &mut Self {
        let snapshot = histogram.snapshot();
        if snapshot.count > 0 {
            self.metrics
                .push((name.into(), Metric::Histogram(snapshot)));
        }
        self
    }

    /// Serializes the section body as one JSON object (without the
    /// surrounding `"name":` key).
    pub fn to_json(&self) -> String {
        json::write(|w| self.write_json(w))
    }

    /// Writes the section body as the next value of `w`.
    pub fn write_json(&self, w: &mut json::Writer) {
        w.object(|w| {
            for (name, metric) in &self.metrics {
                w.key(name);
                match metric {
                    Metric::Counter(v) => w.uint(*v),
                    Metric::Gauge(v) => w.float(*v, 3),
                    Metric::Histogram(h) => w.object(|w| {
                        w.key("count").uint(h.count);
                        w.key("sum").uint(h.sum);
                        w.key("min").uint(h.min);
                        w.key("max").uint(h.max);
                        w.key("mean").float(h.mean(), 1);
                        w.key("p50").uint(h.quantile(0.5));
                        w.key("p90").uint(h.quantile(0.9));
                        w.key("p99").uint(h.quantile(0.99));
                        w.key("buckets").array(|w| {
                            for &(upper, count) in &h.buckets {
                                w.array(|w| {
                                    w.uint(upper).uint(count);
                                });
                            }
                        });
                    }),
                };
            }
        });
    }
}

/// Everything one run's probes measured: an ordered list of
/// [`Section`]s, serialized as one JSON object keyed by section name.
///
/// Reports embed this under a `"run_profile"` key when the probe layer
/// is compiled in (see [`enabled`](crate::enabled)).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct RunProfile {
    sections: Vec<Section>,
}

impl RunProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        RunProfile::default()
    }

    /// Appends a section (skipping empty ones).
    pub fn push(&mut self, section: Section) -> &mut Self {
        if !section.metrics.is_empty() {
            self.sections.push(section);
        }
        self
    }

    /// The sections in insertion order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Whether no section carries any metric.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Serializes the profile as one JSON object keyed by section name.
    pub fn to_json(&self) -> String {
        json::write(|w| self.write_json(w))
    }

    /// Writes the profile as the next value of `w`.
    pub fn write_json(&self, w: &mut json::Writer) {
        w.object(|w| {
            for section in &self.sections {
                section.write_json(w.key(&section.name));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalHistogram;

    #[test]
    fn section_json_shape() {
        let mut section = Section::new("sched");
        section.counter("forks", 42).gauge("rate", 1.5);
        let json = section.to_json();
        assert_eq!(json, "{\"forks\":42,\"rate\":1.500}");
    }

    #[test]
    fn non_finite_gauges_become_null() {
        let mut section = Section::new("x");
        section.gauge("bad", f64::NAN).gauge("inf", f64::INFINITY);
        assert_eq!(section.to_json(), "{\"bad\":null,\"inf\":null}");
    }

    #[test]
    fn histogram_metric_embeds_buckets() {
        let h = LocalHistogram::new();
        h.record(1);
        h.record(100);
        let mut section = Section::new("lat");
        section.histogram("ns", &h);
        let json = section.to_json();
        if crate::enabled() {
            assert!(json.contains("\"count\":2"), "{json}");
            assert!(json.contains("\"max\":100"), "{json}");
            assert!(json.contains("\"buckets\":[[1,1],[127,1]]"), "{json}");
            assert!(json.contains("\"p50\":"), "{json}");
        } else {
            assert_eq!(json, "{}", "empty histograms are skipped");
        }
    }

    #[test]
    fn profile_keys_sections_by_name() {
        let mut profile = RunProfile::new();
        let mut a = Section::new("a");
        a.counter("x", 1);
        let mut b = Section::new("b");
        b.counter("y", 2);
        profile.push(a).push(Section::new("empty")).push(b);
        assert_eq!(profile.to_json(), "{\"a\":{\"x\":1},\"b\":{\"y\":2}}");
        assert_eq!(profile.sections().len(), 2, "empty section dropped");
    }

    #[test]
    fn hostile_section_and_metric_names_parse_back() {
        let hostile = "l\"1\\\nx";
        let mut section = Section::new(hostile);
        section.counter(hostile, 7).gauge("inf", f64::INFINITY);
        let mut profile = RunProfile::new();
        profile.push(section);
        let doc = json::Json::parse(&profile.to_json()).expect("valid JSON");
        let body = doc.get(hostile).expect("section keyed by its raw name");
        assert_eq!(body.get(hostile), Some(&json::Json::Num(7.0)));
        assert_eq!(body.get("inf"), Some(&json::Json::Null));
    }

    #[test]
    fn empty_profile_is_empty_object() {
        assert!(RunProfile::new().is_empty());
        assert_eq!(RunProfile::new().to_json(), "{}");
    }
}
