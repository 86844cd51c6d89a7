//! Timed critical-path analysis over measured task executions.
//!
//! [`TaskGraph::critical_path_len`](crate::graph::TaskGraph::critical_path_len)
//! counts hops; this module weighs the same DAG with *measured* per-task
//! durations and answers the optimisation questions a hop count cannot:
//! which chain of tasks actually bounded the run, how much slack every
//! off-path task had, and what the workflow would gain if a given task
//! function were free ([`TimedPath::what_if`]).
//!
//! The analysis is a classic two-sweep longest-path computation in
//! topological order (task ids are submission-ordered and edges point
//! from lower to higher ids, so no explicit sort is needed):
//!
//! * forward:  `finish(t) = dur(t) + max over preds p of finish(p)`
//! * backward: `tail(t)   = dur(t) + max over succs s of tail(s)`
//!
//! The longest `finish` value is the **timed critical path**; a task's
//! slack is `path − (finish(t) + tail(t) − dur(t))` — how much longer it
//! could have run without growing the critical path. Both invariants the
//! property tests pin down follow directly: the path is at least the
//! longest single task, and (tasks on a dependency chain cannot overlap)
//! at most the measured wall time.

use crate::task::TaskId;
use std::collections::HashMap;
use std::sync::Arc;

/// One measured task execution on the runtime's bus clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpan {
    pub task: TaskId,
    pub name: Arc<str>,
    /// Start, microseconds since the runtime bus epoch.
    pub start_us: u64,
    /// End, same clock. `end_us - start_us` is the measured duration.
    pub end_us: u64,
}

impl TaskSpan {
    fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// One step of the measured critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    pub task: TaskId,
    pub name: Arc<str>,
    pub start_us: u64,
    pub duration_us: u64,
}

/// "If every task of this function were free, the path would shrink to
/// `path_us`."
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIf {
    /// A task function on the critical path.
    pub name: Arc<str>,
    /// Critical path length with every instance of the function zeroed.
    pub path_us: u64,
    /// `old path / new path` — the ceiling on whole-run speedup from
    /// optimising only this function (Amdahl over the DAG).
    pub speedup: f64,
}

/// Result of [`analyze`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimedPath {
    /// Measured wall time: last end minus first start over all spans.
    pub wall_us: u64,
    /// Sum of durations along the critical path.
    pub path_us: u64,
    /// The critical path itself, in execution order.
    pub path: Vec<PathStep>,
    /// Per-task slack in microseconds (0 for tasks on the path),
    /// ordered by task id.
    pub slack_us: Vec<(TaskId, u64)>,
    /// Total self-time and count per task name, largest first.
    pub self_time: Vec<(Arc<str>, u64, usize)>,
    /// One what-if per task function on the path, largest speedup first.
    pub what_if: Vec<WhatIf>,
}

impl TimedPath {
    /// Fraction of wall time explained by the critical path. Close to
    /// 1.0 means the run was dependency-bound, not resource-bound.
    pub fn path_fraction(&self) -> f64 {
        if self.wall_us == 0 {
            0.0
        } else {
            self.path_us as f64 / self.wall_us as f64
        }
    }
}

/// Longest path with `dur` durations, where `node_durs[i]` may be
/// overridden to 0 for the what-if pass. Returns (best finish, argmax).
fn forward_pass(
    n: usize,
    durs: &[u64],
    preds: &[Vec<usize>],
    finish: &mut [u64],
    best_pred: &mut [Option<usize>],
) -> (u64, usize) {
    let (mut best, mut best_at) = (0u64, 0usize);
    for i in 0..n {
        let (mut base, mut via) = (0u64, None);
        for &p in &preds[i] {
            if finish[p] > base {
                base = finish[p];
                via = Some(p);
            }
        }
        finish[i] = base + durs[i];
        best_pred[i] = via;
        if finish[i] > best {
            best = finish[i];
            best_at = i;
        }
    }
    (best, best_at)
}

/// Fold measured task spans and DAG edges into the timed critical path.
/// Only tasks that actually executed participate (cancelled or failed
/// tasks have no span; edges touching them are ignored). Returns `None`
/// when no task completed.
pub fn analyze(edges: &[(TaskId, TaskId)], spans: &[TaskSpan]) -> Option<TimedPath> {
    if spans.is_empty() {
        return None;
    }
    // Dense index in task-id order — a topological order, because edges
    // always point from an earlier submission to a later one.
    let mut spans: Vec<&TaskSpan> = spans.iter().collect();
    spans.sort_by_key(|s| s.task);
    spans.dedup_by_key(|s| s.task); // one span per task: keep the first
    let n = spans.len();
    let index: HashMap<TaskId, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.task, i)).collect();
    let durs: Vec<u64> = spans.iter().map(|s| s.duration_us()).collect();

    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (from, to) in edges {
        if let (Some(&f), Some(&t)) = (index.get(from), index.get(to)) {
            preds[t].push(f);
            succs[f].push(t);
        }
    }

    let mut finish = vec![0u64; n];
    let mut best_pred = vec![None; n];
    let (path_us, mut at) = forward_pass(n, &durs, &preds, &mut finish, &mut best_pred);

    // Walk the argmax chain back to recover the path.
    let mut path_idx = vec![at];
    while let Some(p) = best_pred[at] {
        path_idx.push(p);
        at = p;
    }
    path_idx.reverse();
    let path: Vec<PathStep> = path_idx
        .iter()
        .map(|&i| PathStep {
            task: spans[i].task,
            name: Arc::clone(&spans[i].name),
            start_us: spans[i].start_us,
            duration_us: durs[i],
        })
        .collect();

    // Backward pass for slack: longest downstream tail from each task.
    let mut tail = vec![0u64; n];
    for i in (0..n).rev() {
        let down = succs[i].iter().map(|&s| tail[s]).max().unwrap_or(0);
        tail[i] = durs[i] + down;
    }
    let slack_us: Vec<(TaskId, u64)> = (0..n)
        .map(|i| {
            let through = finish[i] + tail[i] - durs[i];
            (spans[i].task, path_us.saturating_sub(through))
        })
        .collect();

    // Self-time leaderboard, aggregated by task name.
    let mut by_name: HashMap<Arc<str>, (u64, usize)> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = by_name.entry(Arc::clone(&s.name)).or_insert((0, 0));
        e.0 += durs[i];
        e.1 += 1;
    }
    let mut self_time: Vec<(Arc<str>, u64, usize)> =
        by_name.into_iter().map(|(k, (us, cnt))| (k, us, cnt)).collect();
    self_time.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    // What-if: for each function with time on the path, re-run the
    // forward pass with all of its instances zeroed. O(functions · n),
    // fine at workflow scale.
    let mut functions: Vec<&Arc<str>> =
        path_idx.iter().filter(|&&i| durs[i] > 0).map(|&i| &spans[i].name).collect();
    functions.sort();
    functions.dedup();
    let mut what_if: Vec<WhatIf> = functions
        .into_iter()
        .map(|name| {
            let zeroed: Vec<u64> = spans
                .iter()
                .zip(&durs)
                .map(|(s, &d)| if s.name == *name { 0 } else { d })
                .collect();
            let mut f = vec![0u64; n];
            let mut bp = vec![None; n];
            let (new_path, _) = forward_pass(n, &zeroed, &preds, &mut f, &mut bp);
            WhatIf {
                name: Arc::clone(name),
                path_us: new_path,
                speedup: path_us as f64 / new_path.max(1) as f64,
            }
        })
        .collect();
    what_if.sort_by(|a, b| a.path_us.cmp(&b.path_us).then(a.name.cmp(&b.name)));

    let wall_us = spans.iter().map(|s| s.end_us).max().unwrap_or(0)
        - spans.iter().map(|s| s.start_us).min().unwrap_or(0);
    Some(TimedPath { wall_us, path_us, path, slack_us, self_time, what_if })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &str, start: u64, end: u64) -> TaskSpan {
        TaskSpan { task: TaskId(id), name: Arc::from(name), start_us: start, end_us: end }
    }

    #[test]
    fn empty_input_is_none() {
        assert!(analyze(&[], &[]).is_none());
    }

    #[test]
    fn diamond_picks_the_slow_arm() {
        //      1 (10)
        //     /       \
        //  2 (50)    3 (5)
        //     \       /
        //      4 (10)
        let edges = [
            (TaskId(1), TaskId(2)),
            (TaskId(1), TaskId(3)),
            (TaskId(2), TaskId(4)),
            (TaskId(3), TaskId(4)),
        ];
        let spans = [
            span(1, "src", 0, 10),
            span(2, "slow", 10, 60),
            span(3, "fast", 10, 15),
            span(4, "sink", 60, 70),
        ];
        let t = analyze(&edges, &spans).unwrap();
        assert_eq!(t.path_us, 70);
        assert_eq!(t.wall_us, 70);
        let names: Vec<&str> = t.path.iter().map(|s| &*s.name).collect();
        assert_eq!(names, vec!["src", "slow", "sink"]);
        // The fast arm could have run 45µs longer without mattering.
        let slack: HashMap<TaskId, u64> = t.slack_us.iter().copied().collect();
        assert_eq!(slack[&TaskId(3)], 45);
        assert_eq!(slack[&TaskId(2)], 0);
        assert_eq!(slack[&TaskId(1)], 0);
        // Zeroing "slow" leaves 1→3→4 = 25µs.
        let wi = t.what_if.iter().find(|w| &*w.name == "slow").unwrap();
        assert_eq!(wi.path_us, 25);
        assert!((wi.speedup - 70.0 / 25.0).abs() < 1e-9);
    }

    #[test]
    fn what_if_zeroes_every_instance_of_a_function_at_once() {
        // Three chained years of "sim" (100 each), each followed by a
        // 40-long "ana" of that year:
        //   sim1 → sim2 → sim3 → ana3
        //      ↘ ana1   ↘ ana2
        // Path: sim1 → sim2 → sim3 → ana3 = 340.
        let edges = [
            (TaskId(1), TaskId(2)),
            (TaskId(2), TaskId(3)),
            (TaskId(1), TaskId(4)),
            (TaskId(2), TaskId(5)),
            (TaskId(3), TaskId(6)),
        ];
        let spans = [
            span(1, "sim", 0, 100),
            span(2, "sim", 100, 200),
            span(3, "sim", 200, 300),
            span(4, "ana", 100, 140),
            span(5, "ana", 200, 240),
            span(6, "ana", 300, 340),
        ];
        let t = analyze(&edges, &spans).unwrap();
        assert_eq!(t.path_us, 340);
        assert_eq!(t.path.len(), 4);
        let names: Vec<&str> = t.what_if.iter().map(|w| &*w.name).collect();
        assert_eq!(names, vec!["sim", "ana"], "one entry per function, largest speedup first");
        // Every sim free: only one 40-long ana remains on any chain. One
        // instance at a time would leave 240.
        assert_eq!(t.what_if[0].path_us, 40);
        assert!((t.what_if[0].speedup - 340.0 / 40.0).abs() < 1e-9);
        // Every ana free: the three sims remain.
        assert_eq!(t.what_if[1].path_us, 300);
    }

    #[test]
    fn path_steps_follow_edges() {
        let edges = [(TaskId(1), TaskId(2)), (TaskId(2), TaskId(3))];
        let spans = [span(1, "a", 0, 5), span(2, "b", 5, 20), span(3, "c", 20, 30)];
        let t = analyze(&edges, &spans).unwrap();
        for w in t.path.windows(2) {
            assert!(
                edges.iter().any(|(f, to)| *f == w[0].task && *to == w[1].task),
                "consecutive path steps must be DAG edges"
            );
        }
        assert_eq!(t.path_us, 30);
    }

    #[test]
    fn independent_tasks_path_is_longest_single() {
        let spans = [span(1, "a", 0, 30), span(2, "b", 0, 12), span(3, "c", 5, 20)];
        let t = analyze(&[], &spans).unwrap();
        assert_eq!(t.path_us, 30, "no edges: the path is the longest task");
        assert_eq!(t.path.len(), 1);
        assert_eq!(t.wall_us, 30);
    }

    #[test]
    fn edges_to_unexecuted_tasks_are_ignored() {
        // Task 9 was cancelled: no span. The edge must not break analysis.
        let edges = [(TaskId(1), TaskId(9)), (TaskId(1), TaskId(2))];
        let spans = [span(1, "a", 0, 10), span(2, "b", 10, 25)];
        let t = analyze(&edges, &spans).unwrap();
        assert_eq!(t.path_us, 25);
    }

    #[test]
    fn self_time_aggregates_by_name() {
        let spans = [span(1, "k", 0, 10), span(2, "k", 0, 15), span(3, "other", 0, 5)];
        let t = analyze(&[], &spans).unwrap();
        assert_eq!(&*t.self_time[0].0, "k");
        assert_eq!(t.self_time[0].1, 25);
        assert_eq!(t.self_time[0].2, 2);
    }
}
