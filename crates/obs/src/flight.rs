//! Crash flight recorder: a fixed-size lock-free ring of the most recent
//! events, dumped as JSONL when something goes wrong.
//!
//! While enabled, every event dispatched through the global bus (and any
//! bus with flight recording switched on) is also written into a ring of
//! [`FLIGHT_CAPACITY`] slots. Writers claim a slot with one relaxed
//! `fetch_add` on the head cursor and store the event through a per-slot
//! mutex taken with `try_lock` — a writer never blocks on the ring; on
//! the rare slot collision the newer event wins or is skipped, which is
//! the right trade for a lossy black box.
//!
//! [`dump`] (called by the dataflow runtime on task failure) and the
//! panic hook installed by [`install_panic_hook`] snapshot the ring,
//! order it by sequence number, and write one JSON object per line plus
//! a header line recording the reason — the post-mortem you wish you had
//! started tracing for.

use crate::event::Event;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};

/// Ring capacity (power of two: slot = head & (capacity-1)).
pub const FLIGHT_CAPACITY: usize = 4096;

struct Slot {
    event: Mutex<Option<Event>>,
}

/// The ring itself. One per process, reached through [`recorder`].
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    head: AtomicUsize,
    enabled: AtomicBool,
    dump_path: Mutex<Option<PathBuf>>,
}

impl FlightRecorder {
    fn new() -> Self {
        FlightRecorder {
            slots: (0..FLIGHT_CAPACITY).map(|_| Slot { event: Mutex::new(None) }).collect(),
            head: AtomicUsize::new(0),
            enabled: AtomicBool::new(false),
            dump_path: Mutex::new(None),
        }
    }

    /// Append one event. Non-blocking: on per-slot contention the event
    /// is dropped rather than stalling the emitter.
    pub fn record(&self, event: &Event) {
        let i = self.head.fetch_add(1, Ordering::Relaxed) & (FLIGHT_CAPACITY - 1);
        if let Ok(mut slot) = self.slots[i].event.try_lock() {
            *slot = Some(event.clone());
        }
    }

    /// The ring's current contents in sequence order.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut events: Vec<Event> =
            self.slots.iter().filter_map(|s| s.event.lock().unwrap().clone()).collect();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Write the snapshot as JSONL to `path`: a header object with the
    /// dump reason, then one event per line (oldest first).
    fn dump_to(&self, path: &Path, reason: &str) -> std::io::Result<usize> {
        let events = self.snapshot();
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            f,
            "{{\"event\":\"flight_dump\",\"reason\":\"{}\",\"events\":{}}}",
            crate::json_escape(reason),
            events.len()
        )?;
        for e in &events {
            writeln!(f, "{}", e.to_json())?;
        }
        f.flush()?;
        Ok(events.len())
    }
}

/// The process-wide flight recorder.
pub fn recorder() -> &'static FlightRecorder {
    static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();
    RECORDER.get_or_init(FlightRecorder::new)
}

/// Switch recording on: the global bus starts copying every dispatched
/// event into the ring (and stamps events even with no subscriber).
pub fn enable() {
    recorder().enabled.store(true, Ordering::Relaxed);
    crate::global().set_flight_recording(true);
}

fn is_enabled() -> bool {
    recorder().enabled.load(Ordering::Relaxed)
}

/// Where [`dump`] (and the panic hook) writes. Unset by default: with no
/// path configured, `dump` is a no-op so library users cannot be
/// surprised by files appearing on disk.
pub fn set_dump_path(path: impl Into<PathBuf>) {
    *recorder().dump_path.lock().unwrap() = Some(path.into());
}

/// Dump the ring to the configured path (if recording is enabled and a
/// path was set). Returns the path written. Never panics — this runs on
/// failure paths, including inside the panic hook.
pub fn dump(reason: &str) -> Option<PathBuf> {
    if !is_enabled() {
        return None;
    }
    let path = recorder().dump_path.lock().ok()?.clone()?;
    match recorder().dump_to(&path, reason) {
        Ok(n) => {
            eprintln!("flight recorder: dumped {} events to {} ({reason})", n, path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("flight recorder: dump to {} failed: {e}", path.display());
            None
        }
    }
}

/// Install a panic hook (once) that dumps the ring before delegating to
/// the previous hook. Safe to call repeatedly.
pub fn install_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let reason = match info.payload().downcast_ref::<&str>() {
                Some(s) => format!("panic: {s}"),
                None => match info.payload().downcast_ref::<String>() {
                    Some(s) => format!("panic: {s}"),
                    None => "panic".to_string(),
                },
            };
            dump(&reason);
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn ring_keeps_most_recent_and_dumps_jsonl() {
        let ring = FlightRecorder::new();
        let bus = crate::Bus::new();
        for t in 0..(FLIGHT_CAPACITY as u64 + 100) {
            ring.record(&bus.stamp(EventKind::TaskReady { task: t }));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), FLIGHT_CAPACITY);
        // Oldest 100 events were overwritten; order is by seq.
        assert_eq!(snap.first().unwrap().seq, 100);
        for w in snap.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }

        let dir = std::env::temp_dir().join("obs_flight_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.jsonl");
        let n = ring.dump_to(&path, "unit \"test\"").unwrap();
        assert_eq!(n, FLIGHT_CAPACITY);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), FLIGHT_CAPACITY + 1);
        assert!(lines[0].contains("\"reason\":\"unit \\\"test\\\"\""));
        assert!(lines[1].contains("\"event\":\"task_ready\""));
        std::fs::remove_file(&path).ok();
    }
}
