//! In-memory span recorder for the probe chain.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (name, start, end, parent, workload id), kept
//! in memory, and written as a Chrome trace when the run ends. A layer's
//! self time is its span minus the part of that interval its children
//! cover.

use crate::json::Json;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// `layer.what`, e.g. `esm.step`; the part before the dot is the layer.
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

impl SpanRec {
    pub fn dur_us(&self) -> f64 {
        (self.end_us - self.start_us).max(0.0)
    }

    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

pub struct Tracer {
    epoch: Instant,
    /// Spans of one traced run share this id (the workload name).
    pub workload: String,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer { epoch: Instant::now(), workload: workload.to_string(), spans: Mutex::new(vec![]) }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Times `f` as a span named `name` under `parent`, returning the new
    /// span's id (to parent further spans on) and `f`'s value.
    pub fn span<T>(&self, name: &str, parent: Option<usize>, f: impl FnOnce(usize) -> T) -> T {
        let id = {
            let mut spans = self.spans.lock().expect("tracer lock: a probe panicked");
            spans.push(SpanRec {
                name: name.to_string(),
                start_us: self.now_us(),
                end_us: f64::NAN,
                parent,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now_us();
        self.spans.lock().expect("tracer lock: a probe panicked")[id].end_us = end;
        out
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("tracer lock: a probe panicked").clone()
    }

    /// Chrome trace-event JSON (`chrome://tracing` / Perfetto).
    pub fn chrome_trace(&self) -> Json {
        let spans = self.spans();
        let events = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.end_us.is_finite())
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::Str(s.name.clone())),
                    ("cat", Json::Str(s.layer().to_string())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.dur_us())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                            ("workload", Json::Str(self.workload.clone())),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::Str("ms".into()))])
    }
}

/// A place in the span tree that workload code threads through its calls:
/// the same code runs untraced ([`Probe::off`], spans cost nothing) and
/// traced, so the probe chain replays exactly what the timed reps do.
#[derive(Clone, Copy)]
pub struct Probe<'a> {
    tracer: Option<&'a Tracer>,
    parent: Option<usize>,
}

impl<'a> Probe<'a> {
    pub fn off() -> Self {
        Probe { tracer: None, parent: None }
    }

    pub fn root(tracer: &'a Tracer) -> Self {
        Probe { tracer: Some(tracer), parent: None }
    }

    /// Runs `f` inside a span named `name` (when tracing), handing it the
    /// probe to nest further spans under.
    pub fn span<T>(&self, name: &str, f: impl FnOnce(Probe<'a>) -> T) -> T {
        match self.tracer {
            None => f(*self),
            Some(t) => {
                t.span(name, self.parent, |id| f(Probe { tracer: Some(t), parent: Some(id) }))
            }
        }
    }
}

/// Self time of every span, microseconds: duration minus the union of its
/// children's intervals clipped to the span — overlapping children are
/// not subtracted twice and a child leaking past its parent only counts
/// where it overlaps.
pub fn self_times_us(spans: &[SpanRec]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let (lo, hi) = (s.start_us.max(spans[p].start_us), s.end_us.min(spans[p].end_us));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(cursor);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            (s.dur_us() - covered).max(0.0)
        })
        .collect()
}

/// Summed duration of every span named `name`, milliseconds.
pub fn total_ms(spans: &[SpanRec], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_us() / 1e3).sum()
}

/// How many spans are named `name`.
pub fn count(spans: &[SpanRec], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Total self time per layer (the span-name prefix), milliseconds,
/// largest first.
pub fn layer_self_ms(spans: &[SpanRec]) -> Vec<(String, f64)> {
    let mut by_layer: Vec<(String, f64)> = Vec::new();
    for (s, self_us) in spans.iter().zip(self_times_us(spans)) {
        match by_layer.iter_mut().find(|(l, _)| l == s.layer()) {
            Some((_, total)) => *total += self_us / 1e3,
            None => by_layer.push((s.layer().to_string(), self_us / 1e3)),
        }
    }
    by_layer.sort_by(|a, b| b.1.total_cmp(&a.1));
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, start: f64, end: f64, parent: Option<usize>) -> SpanRec {
        SpanRec { name: name.into(), start_us: start, end_us: end, parent }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child a 10..40 with grandchild 20..30; child b 50..70.
        let spans = vec![
            rec("core.year", 0.0, 100.0, None),
            rec("datacube.import", 10.0, 40.0, Some(0)),
            rec("ncformat.read", 20.0, 30.0, Some(1)),
            rec("extremes.indices", 50.0, 70.0, Some(0)),
        ];
        assert_eq!(self_times_us(&spans), vec![50.0, 20.0, 10.0, 20.0]);
        let layers = layer_self_ms(&spans);
        assert_eq!(layers[0], ("core".to_string(), 0.05));
        let total: f64 = layers.iter().map(|(_, ms)| ms).sum();
        assert!((total - 0.1).abs() < 1e-12, "self times sum to the root span");
    }

    #[test]
    fn overlapping_and_leaking_children_are_clipped() {
        // Children 10..60 and 40..90 overlap on 40..60; a third leaks past
        // the parent's end and only its inside part (95..100) counts.
        let spans = vec![
            rec("a.root", 0.0, 100.0, None),
            rec("b.x", 10.0, 60.0, Some(0)),
            rec("b.y", 40.0, 90.0, Some(0)),
            rec("b.z", 95.0, 130.0, Some(0)),
        ];
        assert_eq!(self_times_us(&spans)[0], 100.0 - 80.0 - 5.0);
    }

    #[test]
    fn tracer_nests_and_exports_chrome_events() {
        let t = Tracer::new("wl");
        t.span("core.year", None, |root| {
            t.span("esm.step", Some(root), |_| std::hint::black_box(1 + 1));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
        let doc = t.chrome_trace();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").and_then(Json::as_str), Some("esm"));
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("workload")).and_then(Json::as_str),
            Some("wl")
        );
        assert!(Json::parse(&doc.pretty()).is_ok());
    }
}
