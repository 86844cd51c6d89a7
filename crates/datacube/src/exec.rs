//! Parallel operator execution over fragments.
//!
//! Ophidia scales analytics by distributing fragments over in-memory I/O
//! servers that process them concurrently (Section 4.2.2: "the number of
//! Ophidia computing components can be scaled up ... over multiple nodes").
//! Here each I/O server is a *lane* on the workspace-wide [`par`] pool:
//! an operator submits at most `io_servers` lane tasks which dynamically
//! claim fragments one at a time, so a slow fragment stalls only its own
//! lane instead of idling a statically dealt stripe, and no threads are
//! spawned per operator call. Bench C4 measures the scaling this buys;
//! wfbench's `par.task_overhead_ns` pins the dispatch cost.
//!
//! [`par_map_fragments_named`] is the one implementation of lane dispatch,
//! kernel timing and event emission; only the engine ([`crate::fuse`])
//! and the scalar oracle kernels call it.

use crate::model::{Fragment, SharedData};
use std::time::Instant;

/// Execution configuration: how many simulated I/O servers (parallel
/// lanes on the shared pool) run operator kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    pub io_servers: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { io_servers: 4 }
    }
}

impl ExecConfig {
    /// Single-threaded execution (the baseline of a scaling comparison).
    pub fn serial() -> Self {
        ExecConfig { io_servers: 1 }
    }

    /// `n`-server execution.
    pub fn with_servers(n: usize) -> Self {
        ExecConfig { io_servers: n.max(1) }
    }
}

/// `par_map_fragments_on` on the process-global [`par`] pool: maps every
/// fragment through `kernel` in parallel, preserving order. The kernel
/// returns the transformed payload (any length, as a [`SharedData`]
/// buffer — built once via [`SharedData::from_fn`]/`collect()`, or an O(1)
/// view of the input).
pub fn par_map_fragments_named<F>(
    cfg: ExecConfig,
    op: &'static str,
    frags: &[Fragment],
    kernel: F,
) -> Vec<Fragment>
where
    F: Fn(&Fragment) -> SharedData + Sync,
{
    par_map_fragments_on(par::global(), cfg, op, frags, kernel)
}

/// Maps every fragment through `kernel` on `cfg.io_servers` lanes of
/// `pool` (tests use dedicated pools to pin down scheduling behaviour).
/// The output fragments keep `row_start`/`row_count`/`server` and the
/// input order.
///
/// Every fragment kernel is timed; when a tracer is subscribed to
/// [`obs::global`] each timing lands as an [`obs::EventKind::KernelDone`]
/// event (the `datacube_kernel_us{op}` histogram of the metrics dump) whose
/// `server` is the I/O-server lane that *actually executed* the kernel
/// (dynamic attribution, not the static round-robin home), so per-server
/// utilization reflects real load balance. The whole operator emits one
/// [`obs::EventKind::OperatorDone`]. Without a subscriber the event cost
/// is a single atomic load; the timing cost is two clock reads per
/// fragment, negligible next to any real kernel.
fn par_map_fragments_on<F>(
    pool: &par::Pool,
    cfg: ExecConfig,
    op: &'static str,
    frags: &[Fragment],
    kernel: F,
) -> Vec<Fragment>
where
    F: Fn(&Fragment) -> SharedData + Sync,
{
    if frags.is_empty() {
        return Vec::new();
    }
    // Operator span: kernel lane tasks spawned below inherit this as
    // their parent, so a trace shows kernels nested under the operator
    // (and the operator under whatever workflow task invoked it).
    let _op_span = if obs::global_active() { Some(obs::trace::span(op)) } else { None };
    let op_start = Instant::now();

    /// Per-kernel execution record: which I/O-server lane actually ran it
    /// and for how long.
    struct KernelRun {
        out: SharedData,
        server: usize,
        micros: u64,
    }
    // Lane tasks claim fragments dynamically and write into disjoint
    // output slots inside `par_map_lanes` — no per-fragment mutex, no
    // per-call thread spawn.
    let runs: Vec<KernelRun> = pool.par_map_lanes(cfg.io_servers, frags, |lane, _i, f| {
        let t0 = Instant::now();
        let out = kernel(f);
        KernelRun { out, server: lane, micros: t0.elapsed().as_micros() as u64 }
    });

    let bus = obs::global();
    let mut out = Vec::with_capacity(frags.len());
    for (f, r) in frags.iter().zip(runs) {
        bus.emit_with(|| obs::EventKind::KernelDone {
            op,
            server: r.server,
            rows: f.row_count,
            micros: r.micros,
        });
        out.push(Fragment {
            row_start: f.row_start,
            row_count: f.row_count,
            server: f.server,
            data: r.out,
        });
    }
    bus.emit_with(|| obs::EventKind::OperatorDone {
        op,
        fragments: out.len(),
        micros: op_start.elapsed().as_micros() as u64,
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn frags(n: usize, rows_each: usize, ilen: usize) -> Vec<Fragment> {
        (0..n)
            .map(|i| Fragment {
                row_start: i * rows_each,
                row_count: rows_each,
                server: i % 2,
                data: (0..rows_each * ilen).map(|k| (i * 1000 + k) as f32).collect(),
            })
            .collect()
    }

    #[test]
    fn parallel_map_matches_serial() {
        let input = frags(7, 3, 5);
        let kernel = |f: &Fragment| f.data.iter().map(|v| v * 2.0 + 1.0).collect::<SharedData>();
        let serial = par_map_fragments_named(ExecConfig::serial(), "map", &input, kernel);
        let parallel = par_map_fragments_named(ExecConfig::with_servers(4), "map", &input, kernel);
        assert_eq!(serial, parallel);
        assert_eq!(serial[3].data[0], input[3].data[0] * 2.0 + 1.0);
    }

    #[test]
    fn order_and_metadata_preserved() {
        let input = frags(5, 2, 1);
        let out =
            par_map_fragments_named(ExecConfig::with_servers(3), "map", &input, |f| f.data.clone());
        for (a, b) in input.iter().zip(&out) {
            assert_eq!(a.row_start, b.row_start);
            assert_eq!(a.row_count, b.row_count);
            assert_eq!(a.server, b.server);
            assert_eq!(a.data, b.data);
        }
    }

    #[test]
    fn kernel_may_change_payload_length() {
        let input = frags(3, 4, 6);
        // Collapse each row's 6 values to their sum (reduce-like kernel).
        let out = par_map_fragments_named(ExecConfig::with_servers(2), "map", &input, |f| {
            f.data.chunks(6).map(|row| row.iter().sum()).collect()
        });
        assert_eq!(out[0].data.len(), 4);
        assert_eq!(out[0].data[0], input[0].data[..6].iter().sum::<f32>());
    }

    #[test]
    fn empty_input_is_fine() {
        let out = par_map_fragments_named(ExecConfig::default(), "map", &[], |f| f.data.clone());
        assert!(out.is_empty());
    }

    #[test]
    fn more_servers_than_fragments_is_fine() {
        let input = frags(2, 1, 1);
        let out = par_map_fragments_named(ExecConfig::with_servers(16), "map", &input, |f| {
            f.data.clone()
        });
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn named_map_emits_kernel_and_operator_events() {
        let rx = obs::global().subscribe_with_capacity(obs::DEFAULT_CAPACITY);
        let input = frags(4, 2, 3);
        let out = par_map_fragments_named(ExecConfig::with_servers(2), "double", &input, |f| {
            f.data.iter().map(|v| v * 2.0).collect()
        });
        assert_eq!(out.len(), 4);
        // Other tests in the process may also be emitting to the global
        // bus; look only at this operator's events.
        let events = rx.drain();
        let kernels: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                obs::EventKind::KernelDone { op: "double", server, rows, .. } => {
                    Some((server, rows))
                }
                _ => None,
            })
            .collect();
        assert_eq!(kernels.len(), 4);
        assert!(kernels.iter().all(|(server, rows)| *server < 2 && *rows == 2));
        assert!(events.iter().any(|e| matches!(
            e.kind,
            obs::EventKind::OperatorDone { op: "double", fragments: 4, .. }
        )));
    }

    /// One pathologically slow fragment must not idle its stripe: with
    /// the old static round-robin deal, server 0 owned fragments
    /// {0, 4, 8} and the two fast ones waited behind the 150ms
    /// straggler. With dynamic lane scheduling the straggler's lane runs
    /// exactly one kernel while the other lanes drain the rest.
    #[test]
    fn skewed_fragment_sizes_keep_all_lanes_busy() {
        // A dedicated pool so the host's core count (possibly 1) cannot
        // serialize the lanes: 4 OS threads sleep concurrently.
        let pool = par::Pool::with_name(4, "adhoc");
        let input = frags(9, 1, 1);
        let rx = obs::global().subscribe_with_capacity(obs::DEFAULT_CAPACITY);
        let t0 = Instant::now();
        let out = par_map_fragments_on(&pool, ExecConfig::with_servers(4), "skew", &input, |f| {
            if f.row_start == 0 {
                std::thread::sleep(Duration::from_millis(150));
            }
            std::thread::sleep(Duration::from_millis(5));
            f.data.clone()
        });
        let wall = t0.elapsed();
        assert_eq!(out.len(), 9);

        let servers: Vec<usize> = rx
            .drain()
            .iter()
            .filter_map(|e| match e.kind {
                obs::EventKind::KernelDone { op: "skew", server, .. } => Some(server),
                _ => None,
            })
            .collect();
        assert_eq!(servers.len(), 9);
        // The lane that picked up the straggler ran nothing else; the
        // remaining 8 fast fragments spread over the other lanes.
        let slow_lane = servers[0];
        assert!(
            servers[1..].iter().all(|&s| s != slow_lane),
            "straggler lane also ran fast fragments: {servers:?}"
        );
        let distinct: std::collections::BTreeSet<usize> = servers.iter().copied().collect();
        assert!(distinct.len() >= 3, "expected >=3 busy lanes, got {distinct:?}");
        // Wall time ~ straggler (150ms), nowhere near the serial sum
        // (150 + 9*5 = 195ms serial; static-stripe worst case adds the
        // straggler's stripe on top).
        assert!(wall < Duration::from_millis(600), "lanes idled: {wall:?}");
    }
}
