//! Event-stream exporters: JSONL, Chrome trace format, and a Prometheus
//! text dump — three folds of one drained stream.
//!
//! All JSON here is hand-rolled — the crate is dependency-free by
//! design — so the escaping helper is deliberately strict: everything
//! outside the printable-ASCII comfort zone becomes a `\u` escape.

use crate::event::{Event, EventKind, TaskOutcome};
use crate::metrics::Histogram;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Escape `s` for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 || (c as u32) > 0x7e => {
                let mut buf = [0u16; 2];
                for unit in c.encode_utf16(&mut buf) {
                    let _ = write!(out, "\\u{unit:04x}");
                }
            }
            c => out.push(c),
        }
    }
    out
}

impl Event {
    /// One-line JSON object for the JSONL event log: the envelope (`seq`,
    /// `ts_us`, `thread`, `event`, and `ambient_span` when the emitting
    /// thread had one) followed by the kind's own fields.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"seq\":{},\"ts_us\":{},\"thread\":{},\"event\":\"{}\"",
            self.seq,
            self.ts_micros,
            self.thread,
            self.kind.tag()
        );
        write_fields(&mut s, self);
        s.push('}');
        s
    }
}

/// Appends `,"key":value` for each field of `e.kind`, then the ambient span
/// when set: the one encoding of an event's fields, shared by the JSONL log
/// and the Chrome-trace `args`.
fn write_fields(s: &mut String, e: &Event) {
    let field_u = |s: &mut String, k: &str, v: u64| {
        let _ = write!(s, ",\"{k}\":{v}");
    };
    let field_s = |s: &mut String, k: &str, v: &str| {
        let _ = write!(s, ",\"{k}\":\"{}\"", json_escape(v));
    };
    match &e.kind {
        EventKind::TaskSubmitted { task, name } => {
            field_u(s, "task", *task);
            field_s(s, "name", name);
        }
        EventKind::TaskReady { task } => field_u(s, "task", *task),
        EventKind::TaskStarted { task, name, worker, attempt } => {
            field_u(s, "task", *task);
            field_s(s, "name", name);
            field_u(s, "worker", *worker as u64);
            field_u(s, "attempt", *attempt as u64);
        }
        EventKind::TaskRetryBackoff { task, name, attempt, delay_ms } => {
            field_u(s, "task", *task);
            field_s(s, "name", name);
            field_u(s, "attempt", *attempt as u64);
            field_u(s, "delay_ms", *delay_ms);
        }
        EventKind::CheckpointWritten { key, bytes } => {
            field_s(s, "key", key);
            field_u(s, "bytes", *bytes);
        }
        EventKind::ResumedFrom { task, key } => {
            field_u(s, "task", *task);
            field_s(s, "key", key);
        }
        EventKind::FaultInjected { site, fault, occurrence } => {
            field_s(s, "site", site);
            field_s(s, "fault", fault);
            field_u(s, "occurrence", *occurrence);
        }
        EventKind::TaskFinished { task, name, worker, outcome, micros } => {
            field_u(s, "task", *task);
            field_s(s, "name", name);
            if let Some(w) = worker {
                field_u(s, "worker", *w as u64);
            }
            field_s(s, "outcome", outcome.label());
            field_u(s, "dur_us", *micros);
        }
        EventKind::QueueDepth { ready, running } => {
            field_u(s, "ready", *ready as u64);
            field_u(s, "running", *running as u64);
        }
        EventKind::SchedulerDecision { task, name, worker, est_us } => {
            field_u(s, "task", *task);
            field_s(s, "name", name);
            field_u(s, "worker", *worker as u64);
            field_u(s, "est_us", *est_us);
        }
        EventKind::KernelDone { op, server, rows, micros } => {
            field_s(s, "op", op);
            field_u(s, "server", *server as u64);
            field_u(s, "rows", *rows as u64);
            field_u(s, "dur_us", *micros);
        }
        EventKind::OperatorDone { op, fragments, micros } => {
            field_s(s, "op", op);
            field_u(s, "fragments", *fragments as u64);
            field_u(s, "dur_us", *micros);
        }
        EventKind::StepCompleted { year, day, micros } => {
            let _ = write!(s, ",\"year\":{year}");
            field_u(s, "day", *day as u64);
            field_u(s, "dur_us", *micros);
        }
        EventKind::FileWritten { path, bytes, micros } => {
            field_s(s, "path", path);
            field_u(s, "bytes", *bytes);
            field_u(s, "dur_us", *micros);
        }
        EventKind::TransferStaged { label, bytes, virtual_ms } => {
            field_s(s, "label", label);
            field_u(s, "bytes", *bytes);
            field_u(s, "virtual_ms", *virtual_ms);
        }
        EventKind::ImageBuilt { image, built, cache_hits, cost_ms } => {
            field_s(s, "image", image);
            field_u(s, "built", *built as u64);
            field_u(s, "cache_hits", *cache_hits as u64);
            field_u(s, "cost_ms", *cost_ms);
        }
        EventKind::ExecutionStarted { execution, workflow } => {
            field_u(s, "execution", *execution);
            field_s(s, "workflow", workflow);
        }
        EventKind::ExecutionFinished { execution, workflow, ok, micros } => {
            field_u(s, "execution", *execution);
            field_s(s, "workflow", workflow);
            let _ = write!(s, ",\"ok\":{ok}");
            field_u(s, "dur_us", *micros);
        }
        EventKind::ExecutionQueued { execution, workflow, tenant } => {
            field_u(s, "execution", *execution);
            field_s(s, "workflow", workflow);
            field_s(s, "tenant", tenant);
        }
        EventKind::ExecutionRejected { workflow, tenant, reason } => {
            field_s(s, "workflow", workflow);
            field_s(s, "tenant", tenant);
            field_s(s, "reason", reason);
        }
        EventKind::ExecutionCoalesced { execution, workflow, tenant } => {
            field_u(s, "execution", *execution);
            field_s(s, "workflow", workflow);
            field_s(s, "tenant", tenant);
        }
        EventKind::SpanStarted { name, trace, span, parent } => {
            field_s(s, "name", name);
            field_u(s, "trace", *trace);
            field_u(s, "span", *span);
            field_u(s, "parent", *parent);
        }
        EventKind::SpanEnded { name, trace, span, parent, micros } => {
            field_s(s, "name", name);
            field_u(s, "trace", *trace);
            field_u(s, "span", *span);
            field_u(s, "parent", *parent);
            field_u(s, "dur_us", *micros);
        }
        EventKind::YearStreamed { year, days, bytes } => {
            field_u(s, "year", *year as u64);
            field_u(s, "days", *days as u64);
            field_u(s, "bytes", *bytes);
        }
        EventKind::BackpressureStall { channel, waited_us } => {
            field_s(s, "channel", channel);
            field_u(s, "waited_us", *waited_us);
        }
        EventKind::InferBatchFlushed { batch, capacity, wait_us } => {
            field_u(s, "batch", *batch as u64);
            field_u(s, "capacity", *capacity as u64);
            field_u(s, "wait_us", *wait_us);
        }
    }
    if e.span != 0 {
        field_u(s, "ambient_span", e.span);
    }
}

/// Render events in Chrome trace format (the `{"traceEvents": [...]}`
/// JSON object loadable in `chrome://tracing` and Perfetto).
///
/// Duration-carrying events become complete ("X") slices whose start is
/// back-computed as `ts - dur` (our events are stamped at completion);
/// `QueueDepth` becomes counter ("C") series; everything else becomes an
/// instant ("i") mark. Hierarchical spans render from their `SpanEnded`
/// event (the `SpanStarted` row would duplicate the slice), and a
/// parent→child pair that ran on *different* threads additionally gets a
/// flow arrow ("s"/"f" rows sharing the child's span id) so causality
/// stays visible across the pool handoff.
pub fn chrome_trace(events: &[Event]) -> String {
    // Where each span's slice starts: span id -> (tid, start ts).
    let mut span_slices: std::collections::HashMap<u64, (u64, u64)> = Default::default();
    for e in events {
        if let EventKind::SpanEnded { span, micros, .. } = &e.kind {
            span_slices.insert(*span, (e.thread, e.ts_micros.saturating_sub(*micros)));
        }
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push_row = |out: &mut String, row: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&row);
    };
    for e in events {
        if let Some(row) = chrome_row(e) {
            push_row(&mut out, row);
        }
        // Cross-thread causality: arrow from the parent's slice to the
        // start of the child's slice.
        if let EventKind::SpanEnded { span, parent, micros, .. } = &e.kind {
            if *parent != 0 {
                if let Some(&(ptid, _)) = span_slices.get(parent) {
                    if ptid != e.thread {
                        let start = e.ts_micros.saturating_sub(*micros);
                        push_row(
                            &mut out,
                            format!(
                                "{{\"name\":\"span\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{span},\"ts\":{start},\"pid\":0,\"tid\":{ptid}}}",
                            ),
                        );
                        push_row(
                            &mut out,
                            format!(
                                "{{\"name\":\"span\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{span},\"ts\":{start},\"pid\":0,\"tid\":{}}}",
                                e.thread
                            ),
                        );
                    }
                }
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

fn chrome_row(e: &Event) -> Option<String> {
    let tid = e.thread;
    let row = match &e.kind {
        // The slice is drawn from SpanEnded; a row here would duplicate it.
        EventKind::SpanStarted { .. } => return None,
        EventKind::QueueDepth { ready, running } => {
            format!(
                "{{\"name\":\"queue\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"tid\":0,\"args\":{{\"ready\":{},\"running\":{}}}}}",
                e.ts_micros, ready, running
            )
        }
        kind => match kind.micros() {
            Some(dur) => {
                let name = slice_name(kind);
                let ts = e.ts_micros.saturating_sub(dur);
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{}}}",
                    json_escape(&name),
                    kind.tag(),
                    ts,
                    dur,
                    tid,
                    chrome_args(e)
                )
            }
            None => {
                let name = slice_name(kind);
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\"s\":\"t\",\"args\":{}}}",
                    json_escape(&name),
                    kind.tag(),
                    e.ts_micros,
                    tid,
                    chrome_args(e)
                )
            }
        },
    };
    Some(row)
}

/// Human-facing slice name for the trace viewer timeline.
fn slice_name(kind: &EventKind) -> String {
    match kind {
        EventKind::TaskSubmitted { name, .. } => format!("submit {name}"),
        EventKind::TaskReady { task } => format!("ready #{task}"),
        EventKind::TaskStarted { name, .. } => format!("start {name}"),
        EventKind::TaskRetryBackoff { name, delay_ms, .. } => {
            format!("backoff {name} +{delay_ms}ms")
        }
        EventKind::CheckpointWritten { key, .. } => format!("ckpt {key}"),
        EventKind::ResumedFrom { key, .. } => format!("resume {key}"),
        EventKind::FaultInjected { site, fault, .. } => format!("fault {fault}@{site}"),
        EventKind::TaskFinished { name, .. } => name.to_string(),
        EventKind::QueueDepth { .. } => "queue".to_string(),
        EventKind::SchedulerDecision { name, worker, .. } => format!("place {name}→w{worker}"),
        EventKind::KernelDone { op, .. } => format!("kernel {op}"),
        EventKind::OperatorDone { op, .. } => format!("operator {op}"),
        EventKind::StepCompleted { year, day, .. } => format!("step y{year} d{day}"),
        EventKind::FileWritten { path, .. } => {
            let base = path.rsplit('/').next().unwrap_or(path);
            format!("write {base}")
        }
        EventKind::TransferStaged { label, .. } => format!("transfer {label}"),
        EventKind::ImageBuilt { image, .. } => format!("image {image}"),
        EventKind::ExecutionStarted { workflow, .. } => format!("exec {workflow}"),
        EventKind::ExecutionFinished { workflow, .. } => format!("exec {workflow}"),
        EventKind::ExecutionQueued { workflow, tenant, .. } => format!("queue {workflow}@{tenant}"),
        EventKind::ExecutionRejected { tenant, reason, .. } => {
            format!("reject {tenant} ({reason})")
        }
        EventKind::ExecutionCoalesced { workflow, tenant, .. } => {
            format!("coalesce {workflow}@{tenant}")
        }
        EventKind::SpanStarted { name, .. } | EventKind::SpanEnded { name, .. } => name.to_string(),
        EventKind::YearStreamed { year, days, .. } => format!("stream y{year} ({days}d)"),
        EventKind::BackpressureStall { channel, waited_us } => {
            format!("stall {channel} {waited_us}us")
        }
        EventKind::InferBatchFlushed { batch, capacity, .. } => {
            format!("infer batch {batch}/{capacity}")
        }
    }
}

/// The `args` object carried on each trace row: the event's JSONL fields
/// (ambient span id included, so any slice can be traced back to its
/// causal span), without the envelope the row already carries.
fn chrome_args(e: &Event) -> String {
    let mut fields = String::new();
    write_fields(&mut fields, e);
    format!("{{{}}}", fields.strip_prefix(',').unwrap_or(""))
}

type Labels = Vec<(&'static str, String)>;

/// One metric series of the fold.
enum Series {
    Counter(u64),
    Gauge(i64),
    Histogram(Box<Histogram>),
}

/// Every series the stream carries, keyed by name then labels (sorted,
/// so dumps and report tables come out stable).
#[derive(Default)]
struct Fold(BTreeMap<(&'static str, Labels), Series>);

impl Fold {
    fn slot(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        new: Series,
    ) -> &mut Series {
        let labels = labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect();
        self.0.entry((name, labels)).or_insert(new)
    }

    fn add(&mut self, name: &'static str, labels: &[(&'static str, &str)], n: u64) {
        if let Series::Counter(c) = self.slot(name, labels, Series::Counter(0)) {
            *c += n;
        }
    }

    fn set(&mut self, name: &'static str, v: usize) {
        *self.slot(name, &[], Series::Gauge(0)) = Series::Gauge(v as i64);
    }

    fn observe(&mut self, name: &'static str, labels: &[(&'static str, &str)], v: u64) {
        if let Series::Histogram(h) = self.slot(name, labels, Series::Histogram(Box::default())) {
            h.observe(v);
        }
    }

    /// Folds a drained stream. Each series is a read of one event kind;
    /// `serve_queue_wait_us` joins an execution's `ExecutionQueued` to its
    /// `ExecutionStarted`. Gauges hold the last sample in the stream.
    fn of(events: &[Event]) -> Fold {
        let mut f = Fold::default();
        let mut queued_at: HashMap<u64, u64> = HashMap::new();
        for e in events {
            match &e.kind {
                EventKind::TaskFinished { outcome, worker, micros, .. } => {
                    f.add("dataflow_tasks_total", &[("outcome", outcome.label())], 1);
                    // Only a completion a worker ran has a duration to sample.
                    if *outcome == TaskOutcome::Completed && worker.is_some() {
                        f.observe("dataflow_task_duration_us", &[], *micros);
                    }
                }
                EventKind::TaskRetryBackoff { .. } => f.add("dataflow_task_retries_total", &[], 1),
                EventKind::QueueDepth { ready, running } => {
                    f.set("dataflow_queue_ready", *ready);
                    f.set("dataflow_queue_running", *running);
                }
                EventKind::KernelDone { op, micros, .. } => {
                    f.observe("datacube_kernel_us", &[("op", op)], *micros)
                }
                EventKind::OperatorDone { op, fragments, .. } => {
                    f.add("datacube_fragments_total", &[("op", op)], *fragments as u64)
                }
                EventKind::StepCompleted { micros, .. } => f.observe("esm_step_us", &[], *micros),
                EventKind::FileWritten { bytes, micros, .. } => {
                    f.observe("esm_write_us", &[], *micros);
                    f.add("esm_files_written_total", &[], 1);
                    f.add("esm_bytes_written_total", &[], *bytes);
                }
                EventKind::TransferStaged { virtual_ms, .. } => {
                    f.observe("hpcwaas_stage_ms", &[], *virtual_ms)
                }
                EventKind::ImageBuilt { built, cache_hits, .. } => {
                    f.add("hpcwaas_layers_built_total", &[], *built as u64);
                    f.add("hpcwaas_layer_cache_hits_total", &[], *cache_hits as u64);
                }
                EventKind::ExecutionQueued { execution, tenant, .. } => {
                    f.add("serve_admitted_total", &[("tenant", tenant)], 1);
                    queued_at.insert(*execution, e.ts_micros);
                }
                EventKind::ExecutionStarted { execution, .. } => {
                    if let Some(t0) = queued_at.remove(execution) {
                        f.observe("serve_queue_wait_us", &[], e.ts_micros.saturating_sub(t0));
                    }
                }
                EventKind::ExecutionCoalesced { .. } => f.add("serve_coalesced_total", &[], 1),
                EventKind::ExecutionRejected { reason, .. } => {
                    f.add("serve_rejected_total", &[("reason", reason)], 1)
                }
                EventKind::ExecutionFinished { ok, .. } => {
                    let outcome = if *ok { "completed" } else { "failed" };
                    f.add("hpcwaas_executions_total", &[("outcome", outcome)], 1);
                }
                EventKind::FaultInjected { .. } => f.add("chaos_faults_injected_total", &[], 1),
                _ => {}
            }
        }
        f
    }
}

fn fmt_labels(labels: &Labels, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Render the metrics a drained stream carries in Prometheus text
/// exposition format, plus `obs_bus_dropped_total` — the `dropped` count
/// of the receiver the stream came from, so a lossy fold says so.
/// Histogram buckets are cumulative with power-of-two `le` bounds.
pub fn prometheus(events: &[Event], dropped: u64) -> String {
    let mut fold = Fold::of(events);
    fold.0.insert(("obs_bus_dropped_total", Vec::new()), Series::Counter(dropped));
    let mut out = String::new();
    let mut last_name = "";
    for ((name, labels), series) in &fold.0 {
        if *name != last_name {
            let kind = match series {
                Series::Counter(_) => "counter",
                Series::Gauge(_) => "gauge",
                Series::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# TYPE {name} {kind}");
            last_name = name;
        }
        match series {
            Series::Counter(c) => {
                let _ = writeln!(out, "{name}{} {c}", fmt_labels(labels, None));
            }
            Series::Gauge(g) => {
                let _ = writeln!(out, "{name}{} {g}", fmt_labels(labels, None));
            }
            Series::Histogram(h) => {
                for (le, cum) in h.cumulative() {
                    let le = fmt_labels(labels, Some(&le.to_string()));
                    let _ = writeln!(out, "{name}_bucket{le} {cum}");
                }
                let inf = fmt_labels(labels, Some("+Inf"));
                let plain = fmt_labels(labels, None);
                let _ = writeln!(out, "{name}_bucket{inf} {}", h.count());
                let _ = writeln!(out, "{name}_sum{plain} {}", h.sum());
                let _ = writeln!(out, "{name}_count{plain} {}", h.count());
            }
        }
    }
    out
}

/// Every histogram [`prometheus`] would dump, as `(name with labels,
/// histogram)` — e.g. `datacube_kernel_us{op="aggregate"}` — sorted by
/// name: the rows of `climate-wf report`'s latency-percentile table.
pub fn histograms(events: &[Event]) -> Vec<(String, Histogram)> {
    Fold::of(events)
        .0
        .into_iter()
        .filter_map(|((name, labels), series)| match series {
            Series::Histogram(h) => Some((format!("{name}{}", fmt_labels(&labels, None)), *h)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::Bus;
    use crate::event::TaskOutcome;
    use std::sync::Arc;

    fn sample_events() -> Vec<Event> {
        let bus = Bus::new();
        let rx = bus.subscribe_with_capacity(crate::DEFAULT_CAPACITY);
        let name: Arc<str> = Arc::from("esm_simulation");
        bus.emit(EventKind::TaskSubmitted { task: 1, name: Arc::clone(&name) });
        bus.emit(EventKind::TaskStarted {
            task: 1,
            name: Arc::clone(&name),
            worker: 0,
            attempt: 1,
        });
        bus.emit(EventKind::TaskFinished {
            task: 1,
            name,
            worker: Some(0),
            outcome: TaskOutcome::Completed,
            micros: 1500,
        });
        bus.emit(EventKind::QueueDepth { ready: 2, running: 1 });
        rx.drain()
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak\t"), "line\\nbreak\\t");
        assert_eq!(json_escape("λ"), "\\u03bb");
        assert_eq!(json_escape("🛰"), "\\ud83d\\udef0");
    }

    #[test]
    fn jsonl_one_object_per_line() {
        let lines: Vec<String> = sample_events().iter().map(Event::to_json).collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        assert!(lines[0].contains("\"event\":\"task_submitted\""));
        assert!(lines[2].contains("\"outcome\":\"completed\""));
    }

    #[test]
    fn chrome_trace_shape() {
        let text = chrome_trace(&sample_events());
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        // The finished task becomes an X slice with ts back-computed.
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"dur\":1500"));
        // Queue depth becomes a counter series.
        assert!(text.contains("\"ph\":\"C\""));
        assert!(text.contains("\"ready\":2"));
        // Lifecycle marks become instants.
        assert!(text.contains("\"ph\":\"i\""));
    }

    #[test]
    fn span_slices_and_cross_thread_flow_arrows() {
        let bus = Bus::new();
        let rx = bus.subscribe_with_capacity(crate::DEFAULT_CAPACITY);
        let parent: Arc<str> = Arc::from("parent");
        let child: Arc<str> = Arc::from("child");
        bus.emit(EventKind::SpanStarted {
            name: Arc::clone(&parent),
            trace: 1,
            span: 1,
            parent: 0,
        });
        let tx = bus.clone();
        let child_kind =
            EventKind::SpanEnded { name: child, trace: 1, span: 2, parent: 1, micros: 10 };
        std::thread::spawn(move || tx.emit(child_kind)).join().unwrap();
        bus.emit(EventKind::SpanEnded { name: parent, trace: 1, span: 1, parent: 0, micros: 50 });
        let text = chrome_trace(&rx.drain());
        // SpanStarted produces no row of its own...
        assert!(!text.contains("\"cat\":\"span_started\""));
        // ...SpanEnded becomes an X slice carrying its ids...
        assert!(text.contains("\"cat\":\"span_ended\""));
        assert!(text.contains("\"span\":2"));
        // ...and the cross-thread parent/child pair gets flow arrows.
        assert!(text.contains("\"ph\":\"s\",\"id\":2"));
        assert!(text.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":2"));
    }

    #[test]
    fn prometheus_folds_the_stream() {
        let mut events = sample_events();
        let bus = Bus::new();
        let rx = bus.subscribe_with_capacity(crate::DEFAULT_CAPACITY);
        bus.emit(EventKind::KernelDone { op: "aggregate", server: 0, rows: 4, micros: 3 });
        bus.emit(EventKind::KernelDone { op: "aggregate", server: 1, rows: 4, micros: 300 });
        bus.emit(EventKind::FileWritten { path: "d.ncx".into(), bytes: 10, micros: 7 });
        events.extend(rx.drain());
        let text = prometheus(&events, 2);
        assert!(text.contains("# TYPE dataflow_tasks_total counter"));
        assert!(text.contains("dataflow_tasks_total{outcome=\"completed\"} 1"));
        assert!(text.contains("dataflow_task_duration_us_count 1"));
        assert!(text.contains("# TYPE dataflow_queue_ready gauge\ndataflow_queue_ready 2"));
        assert!(text.contains("# TYPE datacube_kernel_us histogram"));
        assert!(text.contains("datacube_kernel_us_bucket{op=\"aggregate\",le=\"3\"} 1"));
        assert!(text.contains("datacube_kernel_us_bucket{op=\"aggregate\",le=\"+Inf\"} 2"));
        assert!(text.contains("datacube_kernel_us_sum{op=\"aggregate\"} 303"));
        assert!(text.contains("esm_files_written_total 1"));
        assert!(text.contains("esm_bytes_written_total 10"));
        assert!(text.contains("obs_bus_dropped_total 2"));
        let hists: Vec<String> = histograms(&events).into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            hists,
            ["datacube_kernel_us{op=\"aggregate\"}", "dataflow_task_duration_us", "esm_write_us"]
        );
    }

    #[test]
    fn chrome_trace_is_balanced_json() {
        // Cheap structural check: braces/brackets balance outside strings.
        let text = chrome_trace(&sample_events());
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in text.chars() {
            if in_str {
                if esc {
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }
}
