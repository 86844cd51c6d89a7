//! # obs — workspace-wide observability substrate
//!
//! Dependency-free building blocks for watching the climate workflow
//! system run:
//!
//! * [`Bus`] / [`EventReceiver`] — a typed event bus with multi-subscriber
//!   fan-out, bounded drop-oldest queues, and a no-subscriber fast path
//!   that costs a single relaxed atomic load;
//! * folds of a drained event stream — JSONL event log ([`Event::to_json`]
//!   per line),
//!   Chrome trace format ([`chrome_trace`], loadable in
//!   `chrome://tracing`/Perfetto), and a Prometheus text dump
//!   ([`prometheus`]) whose latency [`Histogram`]s ([`histograms`]) feed
//!   `climate-wf report`'s percentile table. The stream is the one record
//!   of what happened: there is no second, live metrics store.
//!
//! Instrumented crates emit to both their local bus (scoped observation,
//! e.g. `dataflow::Runtime::subscribe`) and the process-wide [`global`]
//! bus (whole-run tracing, e.g. `climate-wf run --trace`). With nothing
//! subscribed both paths are a branch on an atomic.
//!
//! ```
//! let rx = obs::global().subscribe_with_capacity(obs::DEFAULT_CAPACITY);
//! obs::emit(obs::EventKind::QueueDepth { ready: 3, running: 2 });
//! let events = rx.drain();
//! assert_eq!(events.len(), 1);
//! println!("{}", obs::chrome_trace(&events));
//! ```

mod bus;
pub mod chaos;
mod event;
mod export;
pub mod flight;
mod metrics;
pub mod trace;

pub use bus::{Bus, EventReceiver, DEFAULT_CAPACITY};
pub use event::{thread_ordinal, Event, EventKind, TaskOutcome};
pub use export::{chrome_trace, histograms, json_escape, prometheus};
pub use metrics::Histogram;
pub use trace::{Span, SpanContext};

use std::sync::OnceLock;

/// The process-wide event bus. Subscribe here to observe every
/// instrumented subsystem in one ordered stream.
pub fn global() -> &'static Bus {
    static GLOBAL: OnceLock<Bus> = OnceLock::new();
    GLOBAL.get_or_init(Bus::new)
}

/// Emit onto the [`global`] bus (fast-path no-op with no subscriber).
#[inline]
pub fn emit(kind: EventKind) {
    global().emit(kind);
}

/// Emit onto the [`global`] bus, constructing the event lazily.
#[inline]
pub(crate) fn emit_with<F: FnOnce() -> EventKind>(f: F) {
    global().emit_with(f);
}

/// True when something is subscribed to the [`global`] bus.
#[inline]
pub fn global_active() -> bool {
    global().is_active()
}
