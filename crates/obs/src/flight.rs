//! Crash flight recorder: a subscription to the global bus holding the
//! most recent events, dumped as JSONL when something goes wrong.
//!
//! [`enable`] subscribes one receiver of [`FLIGHT_CAPACITY`] events to the
//! global bus. Nothing drains it, so once full its queue drops the oldest
//! event for each new one and counts the drop: the recorder always holds
//! the most recent window, and the dump says how much came before it.
//!
//! [`dump`] (called by the dataflow runtime on task failure) and the
//! panic hook installed by [`install_panic_hook`] copy the queue without
//! draining it and write one JSON object per line plus a header line
//! recording the reason — the post-mortem you wish you had started
//! tracing for. A dump never waits on the queue lock, which the panic
//! hook may find held by a dispatch on its own thread.

use crate::bus::EventReceiver;
use crate::event::Event;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, Once, OnceLock};

/// Events the recorder keeps.
pub const FLIGHT_CAPACITY: usize = 4096;

/// The recorder's subscription, once [`enable`]d.
static RECORDER: OnceLock<EventReceiver> = OnceLock::new();
static DUMP_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Switch recording on: subscribes the recorder to the global bus.
pub fn enable() {
    RECORDER.get_or_init(|| crate::global().subscribe_with_capacity(FLIGHT_CAPACITY));
}

/// Write `events` as JSONL to `path`: a header object with the dump
/// reason and the count of older events already `dropped`, then one event
/// per line (oldest first).
fn write_jsonl(path: &Path, reason: &str, events: &[Event], dropped: u64) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        f,
        "{{\"event\":\"flight_dump\",\"reason\":\"{}\",\"events\":{},\"dropped\":{dropped}}}",
        crate::json_escape(reason),
        events.len()
    )?;
    for e in events {
        writeln!(f, "{}", e.to_json())?;
    }
    f.flush()
}

/// Where [`dump`] (and the panic hook) writes. Unset by default: with no
/// path configured, `dump` is a no-op so library users cannot be
/// surprised by files appearing on disk.
pub fn set_dump_path(path: impl Into<PathBuf>) {
    *DUMP_PATH.lock().unwrap() = Some(path.into());
}

/// Dump the recorder to the configured path (if recording is enabled
/// and a path was set). Returns the path written. Never panics — this
/// runs on failure paths, including inside the panic hook.
pub fn dump(reason: &str) -> Option<PathBuf> {
    let rx = RECORDER.get()?;
    let path = DUMP_PATH.lock().ok()?.clone()?;
    // A dispatch holds the queue lock only to push one event, so a few
    // yields see it free; on the thread that holds it (a panic inside a
    // dispatch) it never frees, and the dump is skipped.
    let events = (0..1000).find_map(|_| {
        let events = rx.try_snapshot();
        if events.is_none() {
            std::thread::yield_now();
        }
        events
    })?;
    match write_jsonl(&path, reason, &events, rx.dropped()) {
        Ok(()) => {
            eprintln!(
                "flight recorder: dumped {} events to {} ({reason})",
                events.len(),
                path.display()
            );
            Some(path)
        }
        Err(e) => {
            eprintln!("flight recorder: dump to {} failed: {e}", path.display());
            None
        }
    }
}

/// Install a panic hook (once) that dumps the recorder before delegating to
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
    fn keeps_the_most_recent_and_dumps_jsonl_without_draining() {
        let bus = crate::Bus::new();
        let rx = bus.subscribe_with_capacity(FLIGHT_CAPACITY);
        for t in 0..(FLIGHT_CAPACITY as u64 + 100) {
            bus.emit(EventKind::TaskReady { task: t });
        }
        let events = rx.try_snapshot().unwrap();
        assert_eq!(rx.try_snapshot().unwrap().len(), FLIGHT_CAPACITY, "a snapshot drains nothing");
        let dir = std::env::temp_dir().join("obs_flight_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.jsonl");
        write_jsonl(&path, "unit \"test\"", &events, rx.dropped()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), FLIGHT_CAPACITY + 1);
        assert!(lines[0].contains("\"reason\":\"unit \\\"test\\\"\""), "{}", lines[0]);
        // The oldest 100 events were dropped, and counted; order is by seq.
        assert!(lines[0].contains("\"dropped\":100"), "{}", lines[0]);
        assert!(lines[1].contains("\"event\":\"task_ready\"") && lines[1].contains("\"seq\":100"));
        std::fs::remove_file(&path).ok();
    }
}
