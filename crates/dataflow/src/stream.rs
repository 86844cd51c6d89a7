//! Streaming interface: in-memory channels and file-group detection.
//!
//! Section 5.2 of the paper: the ESM writes one file per simulated day; the
//! analytics sub-workflows must start "as soon as a full year of NetCDF
//! files is available", while the simulation keeps running. PyCOMPSs
//! exposes this through its streaming interface; here two mechanisms
//! cooperate:
//!
//! * [`bounded`] builds an in-memory channel of year-blocks with
//!   backpressure — the hot path that avoids the file round-trip. The
//!   sender blocks when the consumer lags (capacity is the overlap
//!   window), and every stall is accounted and emitted as a
//!   [`obs::EventKind::BackpressureStall`].
//! * [`DirWatcher`] polls a directory and reports each *complete group*
//!   (e.g. 365 daily files of one year) exactly once — the durable
//!   fallback that still works across process restarts, chaos kills and
//!   checkpoint resumes, because the simulation keeps writing files even
//!   when the channel carries the data.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// Classifies files into groups (e.g. filename → simulation year) and
/// knows how many members make a group complete.
pub trait GroupRule: Send {
    /// Group key for a file, or `None` to ignore the file.
    fn group_of(&self, path: &Path) -> Option<String>;
    /// Number of files that completes the group.
    fn group_size(&self, group: &str) -> usize;
}

/// Groups files named `<prefix>-<group>-<member>.<ext>` — the ESM's naming
/// scheme `esm-YYYY-DDD.ncx` — into per-year groups of `days_per_year`.
pub struct YearlyRule {
    pub prefix: String,
    pub days_per_year: usize,
}

impl GroupRule for YearlyRule {
    fn group_of(&self, path: &Path) -> Option<String> {
        let stem = path.file_stem()?.to_str()?;
        let rest = stem.strip_prefix(&self.prefix)?.strip_prefix('-')?;
        let (year, _day) = rest.split_once('-')?;
        Some(year.to_string())
    }

    fn group_size(&self, _group: &str) -> usize {
        self.days_per_year
    }
}

/// A complete group discovered by the watcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompleteGroup {
    pub key: String,
    /// Member files, sorted by path.
    pub files: Vec<PathBuf>,
}

/// Polling directory watcher that emits each complete group once.
///
/// Polls are incremental: each path is stat-ed and classified the first
/// time it appears and then remembered, so a poll costs O(directory
/// entries) name lookups but only O(new files) stats and classifications —
/// not O(total files) re-grouping per tick, which over a long run made the
/// watcher quadratic. Groups that have already been delivered drop their
/// per-group state entirely.
pub struct DirWatcher<R: GroupRule> {
    dir: PathBuf,
    rule: R,
    /// Every path already classified (including ignored ones), so repeat
    /// polls skip them without a stat.
    seen_paths: BTreeSet<PathBuf>,
    /// Accumulated members of groups not yet complete, kept sorted.
    pending: BTreeMap<String, BTreeSet<PathBuf>>,
    seen_groups: BTreeSet<String>,
}

impl<R: GroupRule> DirWatcher<R> {
    /// Watches `dir` with the given grouping rule.
    pub fn new<P: AsRef<Path>>(dir: P, rule: R) -> Self {
        DirWatcher {
            dir: dir.as_ref().to_path_buf(),
            rule,
            seen_paths: BTreeSet::new(),
            pending: BTreeMap::new(),
            seen_groups: BTreeSet::new(),
        }
    }

    /// One poll: scans the directory and returns groups that became
    /// complete since the last poll (sorted by key).
    pub fn poll(&mut self) -> std::io::Result<Vec<CompleteGroup>> {
        let mut completed: BTreeSet<String> = BTreeSet::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if self.seen_paths.contains(&path) {
                continue;
            }
            if !path.is_file() {
                continue;
            }
            self.seen_paths.insert(path.clone());
            if let Some(g) = self.rule.group_of(&path) {
                if self.seen_groups.contains(&g) {
                    continue;
                }
                let members = self.pending.entry(g.clone()).or_default();
                members.insert(path);
                if members.len() >= self.rule.group_size(&g) {
                    completed.insert(g);
                }
            }
        }
        let mut out = Vec::new();
        for key in completed {
            let files: Vec<PathBuf> =
                self.pending.remove(&key).unwrap_or_default().into_iter().collect();
            self.seen_groups.insert(key.clone());
            out.push(CompleteGroup { key, files });
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Bounded in-memory stream channel with backpressure.
// ---------------------------------------------------------------------

/// Why a [`StreamSender::send`] did not deliver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError<T> {
    /// The receiver was dropped; the item is handed back so the producer
    /// can fall through to the durable file path.
    Disconnected(T),
}

/// Result of a [`StreamReceiver::recv_timeout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvTimeout<T> {
    /// An item arrived.
    Item(T),
    /// Nothing arrived within the timeout; senders still exist.
    TimedOut,
    /// All senders are gone and the queue is drained.
    Disconnected,
}

struct ChannelState<T> {
    buf: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

struct Channel<T> {
    name: Arc<str>,
    capacity: usize,
    state: Mutex<ChannelState<T>>,
    /// Senders wait here for space, receivers for items.
    space: Condvar,
    items: Condvar,
    stall_us: AtomicU64,
}

/// Producer half of a bounded stream channel (clone for MPSC).
pub struct StreamSender<T> {
    ch: Arc<Channel<T>>,
}

/// Consumer half of a bounded stream channel (single consumer).
pub struct StreamReceiver<T> {
    ch: Arc<Channel<T>>,
}

/// Creates a bounded in-memory channel named `name` with room for
/// `capacity` in-flight items. The sender blocks when the channel is
/// full — that block *is* the backpressure contract: a producer can run
/// at most `capacity` items ahead of the consumer. Every stall emits a
/// [`obs::EventKind::BackpressureStall`] carrying the wait in µs.
pub fn bounded<T>(name: &str, capacity: usize) -> (StreamSender<T>, StreamReceiver<T>) {
    let ch = Arc::new(Channel {
        name: Arc::from(name),
        capacity: capacity.max(1),
        state: Mutex::new(ChannelState { buf: VecDeque::new(), senders: 1, receiver_alive: true }),
        space: Condvar::new(),
        items: Condvar::new(),
        stall_us: AtomicU64::new(0),
    });
    (StreamSender { ch: Arc::clone(&ch) }, StreamReceiver { ch })
}

impl<T> StreamSender<T> {
    /// Blocking send: parks until the channel has space (backpressure) or
    /// the receiver goes away. On success returns the µs spent stalled
    /// (0 when the channel had room immediately).
    pub fn send(&self, item: T) -> Result<u64, SendError<T>> {
        let mut st = self.ch.state.lock();
        if !st.receiver_alive {
            return Err(SendError::Disconnected(item));
        }
        let mut stalled = None::<Instant>;
        while st.buf.len() >= self.ch.capacity {
            stalled.get_or_insert_with(Instant::now);
            self.ch.space.wait(&mut st);
            if !st.receiver_alive {
                return Err(SendError::Disconnected(item));
            }
        }
        st.buf.push_back(item);
        drop(st);
        self.ch.items.notify_one();
        let waited_us = stalled.map_or(0, |t| t.elapsed().as_micros() as u64);
        if waited_us > 0 {
            self.ch.stall_us.fetch_add(waited_us, Ordering::Relaxed);
            obs::emit(obs::EventKind::BackpressureStall {
                channel: Arc::clone(&self.ch.name),
                waited_us,
            });
        }
        Ok(waited_us)
    }
}

impl<T> Clone for StreamSender<T> {
    fn clone(&self) -> Self {
        self.ch.state.lock().senders += 1;
        StreamSender { ch: Arc::clone(&self.ch) }
    }
}

impl<T> Drop for StreamSender<T> {
    fn drop(&mut self) {
        let mut st = self.ch.state.lock();
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            // Wake a receiver blocked on an empty queue so it observes
            // the disconnect.
            self.ch.items.notify_all();
        }
    }
}

impl<T> StreamReceiver<T> {
    /// Blocks up to `timeout` for the next item. Disconnection is only
    /// reported once the queue is fully drained, so no item is lost.
    pub fn recv_timeout(&self, timeout: Duration) -> RecvTimeout<T> {
        let deadline = Instant::now() + timeout;
        let mut st = self.ch.state.lock();
        loop {
            if let Some(item) = st.buf.pop_front() {
                drop(st);
                self.ch.space.notify_one();
                return RecvTimeout::Item(item);
            }
            if st.senders == 0 {
                return RecvTimeout::Disconnected;
            }
            let now = Instant::now();
            if now >= deadline {
                return RecvTimeout::TimedOut;
            }
            self.ch.items.wait_for(&mut st, deadline - now);
        }
    }

    /// Total µs senders on this channel have spent blocked so far.
    pub fn stall_micros(&self) -> u64 {
        self.ch.stall_us.load(Ordering::Relaxed)
    }
}

impl<T> Drop for StreamReceiver<T> {
    fn drop(&mut self) {
        self.ch.state.lock().receiver_alive = false;
        // Unblock every stalled sender so it can fall back to files.
        self.ch.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> StreamReceiver<T> {
        /// Current queue depth.
        fn depth(&self) -> usize {
            self.ch.state.lock().buf.len()
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dataflow-stream").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn touch(dir: &Path, name: &str) {
        std::fs::write(dir.join(name), b"x").unwrap();
    }

    fn rule() -> YearlyRule {
        YearlyRule { prefix: "esm".into(), days_per_year: 3 }
    }

    #[test]
    fn yearly_rule_parses_names() {
        let r = rule();
        assert_eq!(r.group_of(Path::new("/a/esm-2030-001.ncx")), Some("2030".into()));
        assert_eq!(r.group_of(Path::new("/a/esm-2031-365.ncx")), Some("2031".into()));
        assert_eq!(r.group_of(Path::new("/a/other-2030-001.ncx")), None);
        assert_eq!(r.group_of(Path::new("/a/esm-2030.ncx")), None);
    }

    #[test]
    fn incomplete_group_not_reported() {
        let dir = tmpdir("incomplete");
        let mut w = DirWatcher::new(&dir, rule());
        touch(&dir, "esm-2030-001.ncx");
        touch(&dir, "esm-2030-002.ncx");
        assert!(w.poll().unwrap().is_empty());
    }

    #[test]
    fn complete_group_reported_once_with_sorted_files() {
        let dir = tmpdir("complete");
        let mut w = DirWatcher::new(&dir, rule());
        touch(&dir, "esm-2030-002.ncx");
        touch(&dir, "esm-2030-001.ncx");
        touch(&dir, "esm-2030-003.ncx");
        let batch = w.poll().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].key, "2030");
        let names: Vec<_> = batch[0]
            .files
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["esm-2030-001.ncx", "esm-2030-002.ncx", "esm-2030-003.ncx"]);
        // Second poll: nothing new.
        assert!(w.poll().unwrap().is_empty());
        assert_eq!(w.seen_groups.iter().collect::<Vec<_>>(), vec!["2030"]);
    }

    #[test]
    fn groups_stream_in_as_files_arrive() {
        let dir = tmpdir("streaming");
        let mut w = DirWatcher::new(&dir, rule());
        for d in 1..=3 {
            touch(&dir, &format!("esm-2030-{d:03}.ncx"));
        }
        assert_eq!(w.poll().unwrap().len(), 1);
        for d in 1..=3 {
            touch(&dir, &format!("esm-2031-{d:03}.ncx"));
        }
        let batch = w.poll().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].key, "2031");
    }

    #[test]
    fn multiple_groups_complete_in_one_poll_sorted() {
        let dir = tmpdir("multi");
        let mut w = DirWatcher::new(&dir, rule());
        for y in [2032, 2030, 2031] {
            for d in 1..=3 {
                touch(&dir, &format!("esm-{y}-{d:03}.ncx"));
            }
        }
        let keys: Vec<_> = w.poll().unwrap().into_iter().map(|g| g.key).collect();
        assert_eq!(keys, vec!["2030", "2031", "2032"]);
    }

    #[test]
    fn group_accumulates_across_polls() {
        let dir = tmpdir("accumulate");
        let mut w = DirWatcher::new(&dir, rule());
        touch(&dir, "esm-2030-001.ncx");
        assert!(w.poll().unwrap().is_empty());
        touch(&dir, "esm-2030-002.ncx");
        assert!(w.poll().unwrap().is_empty());
        touch(&dir, "esm-2030-003.ncx");
        let batch = w.poll().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].files.len(), 3);
        // Late extra file for a delivered group is ignored, not re-grouped.
        touch(&dir, "esm-2030-004.ncx");
        assert!(w.poll().unwrap().is_empty());
    }

    #[test]
    fn channel_delivers_in_order_and_reports_depth() {
        let (tx, rx) = bounded::<u32>("test-order", 4);
        for v in 0..3 {
            assert_eq!(tx.send(v), Ok(0), "no stall below capacity");
        }
        assert_eq!(rx.depth(), 3);
        for v in 0..3 {
            assert_eq!(rx.recv_timeout(Duration::from_secs(1)), RecvTimeout::Item(v));
        }
        assert_eq!(rx.depth(), 0);
    }

    #[test]
    fn full_channel_blocks_sender_until_receiver_drains() {
        let (tx, rx) = bounded::<u32>("test-backpressure", 1);
        tx.send(1).unwrap();
        let sender = std::thread::spawn(move || tx.send(2).unwrap());
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), RecvTimeout::Item(1));
        let waited = sender.join().unwrap();
        assert!(waited > 0, "second send must have stalled");
        assert!(rx.stall_micros() >= waited);
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), RecvTimeout::Item(2));
    }

    #[test]
    fn dropped_senders_disconnect_after_drain() {
        let (tx, rx) = bounded::<u32>("test-disconnect", 4);
        let tx2 = tx.clone();
        tx.send(7).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv_timeout(Duration::from_millis(50)), RecvTimeout::Item(7));
        assert_eq!(rx.recv_timeout(Duration::from_millis(50)), RecvTimeout::Disconnected);
    }

    #[test]
    fn dropped_receiver_unblocks_and_fails_sender() {
        let (tx, rx) = bounded::<u32>("test-rx-gone", 1);
        tx.send(1).unwrap();
        let sender = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert_eq!(sender.join().unwrap(), Err(SendError::Disconnected(2)));
    }

    #[test]
    fn recv_timeout_times_out_while_senders_live() {
        let (tx, rx) = bounded::<u32>("test-timeout", 1);
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), RecvTimeout::TimedOut);
        drop(tx);
    }
}
