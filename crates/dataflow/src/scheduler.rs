//! Pluggable task-placement schedulers for the worker pool.
//!
//! The runtime keeps a ready list; every idle worker asks the boxed
//! [`Scheduler`] which ready task (if any) it should run. The trait owns
//! all placement decisions — the runtime only supplies a consistent
//! snapshot ([`ReadyTask`], whose estimates come from the measured
//! [`crate::timing::TimingStats`]) and the worker profiles.
//!
//! Three portfolio policies ship behind the [`Policy`] selector:
//!
//! * [`Fifo`] — oldest compatible task first. The baseline most WMSs
//!   default to.
//! * [`Locality`] — among compatible tasks, pick the one with the most
//!   input bytes already resident on this worker; bounded-delay stealing
//!   after [`PATIENCE`] passes. Implements the paper's Section 3 claim
//!   that a single WMS can "allow for better optimization in terms of
//!   data movement and access"; bench A1 quantifies it via the ledger.
//! * [`Heft`] — pull-model HEFT: tasks are ordered by *upward rank* (the
//!   task's estimated duration plus the longest estimated chain of
//!   dependents below it, from measured per-name durations with a
//!   byte-size cold-start fallback), and the asking worker takes the
//!   highest-ranked compatible task. Seeded hashing breaks exact-rank
//!   ties deterministically.
//!
//! Every policy is deterministic given the same ready-set evolution:
//! selection depends only on the snapshot, stable orderings and the
//! runtime seed, never on wall-clock time or map iteration order.

use crate::inject::splitmix64;
use crate::resources::WorkerProfile;
use crate::task::TaskId;
use std::collections::HashMap;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

pub use crate::resources::Constraint;

/// Scheduling policy selector. Builds the boxed [`Scheduler`] the runtime
/// drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Oldest compatible ready task first.
    #[default]
    Fifo,
    /// Prefer tasks whose inputs already live on the asking worker.
    Locality,
    /// Upward-rank list scheduling from measured durations.
    Heft,
}

impl Policy {
    /// Every portfolio policy, in a stable order (benches sweep this).
    pub const ALL: [Policy; 3] = [Policy::Fifo, Policy::Locality, Policy::Heft];

    /// Stable lowercase name (CLI values, bench labels, event fields).
    pub fn name(self) -> &'static str {
        match self {
            Policy::Fifo => "fifo",
            Policy::Locality => "locality",
            Policy::Heft => "heft",
        }
    }

    /// Builds the scheduler implementing this policy. `seed` feeds the
    /// deterministic tie-breaks of the rank-aware policy.
    pub fn build(self, seed: u64) -> Box<dyn Scheduler> {
        match self {
            Policy::Fifo => Box::new(Fifo),
            Policy::Locality => Box::new(Locality::default()),
            Policy::Heft => Box::new(Heft::new(seed)),
        }
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Policy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fifo" => Ok(Policy::Fifo),
            "locality" => Ok(Policy::Locality),
            "heft" => Ok(Policy::Heft),
            other => {
                Err(format!("unknown scheduling policy '{other}' (expected fifo|locality|heft)"))
            }
        }
    }
}

/// Snapshot of one ready task handed to the scheduler.
#[derive(Debug, Clone)]
pub struct ReadyTask {
    pub task: TaskId,
    pub name: Arc<str>,
    pub constraint: Constraint,
    /// For each input: the worker index holding it (None = master/restored)
    /// and its approximate size in bytes.
    pub input_locations: Vec<(Option<usize>, u64)>,
    /// Estimated execution duration
    /// ([`crate::timing::TimingStats::estimate_us`]).
    pub est_us: u64,
    /// Upward rank: `est_us` plus the longest estimated chain of
    /// dependents below this task in the submitted graph.
    pub rank_us: u64,
}

impl ReadyTask {
    /// Bytes of input already resident on `worker`.
    pub fn local_bytes(&self, worker: usize) -> u64 {
        self.input_locations.iter().filter(|(loc, _)| *loc == Some(worker)).map(|(_, b)| *b).sum()
    }
}

/// A task-placement policy driven by the runtime.
///
/// `pick` is called with a consistent snapshot of the ready set each time
/// a worker goes idle; the lifecycle hooks let stateful policies track
/// arrivals and completions. Implementations must be deterministic: same
/// seed, same call sequence ⇒ same decisions.
pub trait Scheduler: Send {
    /// Stable policy name (event fields, reports).
    fn name(&self) -> &'static str;

    /// A task entered the ready set.
    fn on_ready(&mut self, _task: TaskId) {}

    /// Picks the index (into `ready`) of the task `worker` should run,
    /// or `None` to let the worker wait. `workers` are the profiles,
    /// indexed by worker id.
    fn pick(
        &mut self,
        worker: usize,
        ready: &[ReadyTask],
        workers: &[WorkerProfile],
    ) -> Option<usize>;

    /// A task reached a terminal state. `worker`/`duration_us` are set
    /// only for successful completions; cancellations and failures call
    /// this with `None`/`0` so policies can drop per-task state.
    fn on_task_finished(
        &mut self,
        _task: TaskId,
        _name: &str,
        _worker: Option<usize>,
        _duration_us: u64,
    ) {
    }

    /// How long an idle worker should wait before re-polling after this
    /// scheduler returned `None` while compatible work existed. `None`
    /// means wait for a state change (the FIFO behaviour); deferring
    /// policies return a short interval so passed-over tasks are
    /// reconsidered without a wakeup.
    fn poll_hint(&self) -> Option<Duration> {
        None
    }
}

/// Passes an idle worker waits before stealing a task another worker
/// would run more cheaply (bounded delay scheduling).
pub const PATIENCE: u32 = 3;

const REPOLL: Duration = Duration::from_micros(300);

fn compatible<'a>(
    ready: &'a [ReadyTask],
    profile: &'a WorkerProfile,
) -> impl Iterator<Item = (usize, &'a ReadyTask)> {
    ready.iter().enumerate().filter(move |(_, t)| profile.satisfies(&t.constraint))
}

/// Seeded deterministic tie-break key for a task.
fn tie_key(seed: u64, task: TaskId) -> u64 {
    splitmix64(seed ^ task.0)
}

/// Oldest compatible ready task first.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fifo;

impl Scheduler for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn pick(
        &mut self,
        worker: usize,
        ready: &[ReadyTask],
        workers: &[WorkerProfile],
    ) -> Option<usize> {
        let profile = &workers[worker];
        compatible(ready, profile).map(|(i, _)| i).next()
    }
}

/// Data-locality-aware placement with bounded-delay stealing.
#[derive(Debug, Default)]
pub struct Locality {
    /// Times each ready task has been passed over for locality reasons;
    /// once it exceeds [`PATIENCE`] any worker may steal it.
    passes: HashMap<TaskId, u32>,
}

impl Locality {
    /// Best candidate by resident bytes, ties broken FIFO by task id.
    fn best(
        &self,
        worker: usize,
        ready: &[ReadyTask],
        profile: &WorkerProfile,
    ) -> Option<(usize, u64)> {
        let mut best: Option<(usize, u64, TaskId)> = None;
        for (i, t) in compatible(ready, profile) {
            let local = t.local_bytes(worker);
            let better = match best {
                None => true,
                Some((_, bl, bt)) => local > bl || (local == bl && t.task < bt),
            };
            if better {
                best = Some((i, local, t.task));
            }
        }
        best.map(|(i, local, _)| (i, local))
    }
}

impl Scheduler for Locality {
    fn name(&self) -> &'static str {
        "locality"
    }

    fn pick(
        &mut self,
        worker: usize,
        ready: &[ReadyTask],
        workers: &[WorkerProfile],
    ) -> Option<usize> {
        let profile = &workers[worker];
        let (bi, blocal) = self.best(worker, ready, profile)?;
        // Take it when some input is already here, or when nothing is
        // placed anywhere yet (first consumers of master data).
        if blocal > 0 || ready[bi].input_locations.iter().all(|(loc, _)| loc.is_none()) {
            self.passes.remove(&ready[bi].task);
            return Some(bi);
        }
        // Data lives on another worker: pass (bumping patience on every
        // compatible task) so the owning worker gets a chance, stealing
        // only once a task has waited long enough.
        let mut steal: Option<usize> = None;
        for (i, t) in compatible(ready, profile) {
            let passes = self.passes.entry(t.task).or_insert(0);
            *passes += 1;
            if *passes > PATIENCE && steal.is_none() {
                steal = Some(i);
            }
        }
        if let Some(i) = steal {
            self.passes.remove(&ready[i].task);
        }
        steal
    }

    fn on_task_finished(
        &mut self,
        task: TaskId,
        _name: &str,
        _worker: Option<usize>,
        _duration_us: u64,
    ) {
        // A terminal task can never be picked again; drop its patience
        // slot so cancellations don't leak map entries.
        self.passes.remove(&task);
    }

    fn poll_hint(&self) -> Option<Duration> {
        Some(REPOLL)
    }
}

/// Pull-model HEFT: highest upward rank first, seeded tie-breaks.
#[derive(Debug, Clone, Copy)]
pub struct Heft {
    seed: u64,
}

impl Heft {
    pub fn new(seed: u64) -> Self {
        Heft { seed }
    }
}

impl Scheduler for Heft {
    fn name(&self) -> &'static str {
        "heft"
    }

    fn pick(
        &mut self,
        worker: usize,
        ready: &[ReadyTask],
        workers: &[WorkerProfile],
    ) -> Option<usize> {
        let profile = &workers[worker];
        compatible(ready, profile)
            .max_by(|(_, a), (_, b)| {
                a.rank_us
                    .cmp(&b.rank_us)
                    .then_with(|| tie_key(self.seed, b.task).cmp(&tie_key(self.seed, a.task)))
                    .then_with(|| b.task.cmp(&a.task))
            })
            .map(|(i, _)| i)
    }
}

/// Cumulative data-movement accounting, updated by the runtime whenever a
/// task starts on a worker that does not hold one of its inputs.
#[derive(Debug, Default, Clone)]
pub struct TransferLedger {
    /// Total bytes moved between workers (or from the master).
    pub bytes_moved: u64,
    /// Number of individual datum transfers.
    pub transfers: u64,
    /// Bytes served locally (input already on the executing worker).
    pub bytes_local: u64,
}

impl TransferLedger {
    /// Records the inputs of one task execution on `worker`.
    pub fn record(&mut self, worker: usize, inputs: &[(Option<usize>, u64)]) {
        for (loc, bytes) in inputs {
            if *loc == Some(worker) {
                self.bytes_local += bytes;
            } else {
                self.bytes_moved += bytes;
                self.transfers += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::WorkerKind;

    fn rt(id: u64, locs: Vec<(Option<usize>, u64)>) -> ReadyTask {
        ReadyTask {
            task: TaskId(id),
            name: Arc::from("t"),
            constraint: Constraint::any(),
            input_locations: locs,
            est_us: 1_000,
            rank_us: 1_000,
        }
    }

    #[test]
    fn fifo_picks_first_compatible() {
        let workers = [WorkerProfile::cpu(4)];
        let mut gpu_task = rt(1, vec![]);
        gpu_task.constraint = Constraint::gpu();
        let ready = vec![gpu_task, rt(2, vec![]), rt(3, vec![])];
        assert_eq!(Fifo.pick(0, &ready, &workers), Some(1));
    }

    #[test]
    fn fifo_none_when_incompatible() {
        let workers = [WorkerProfile::cpu(2)];
        let mut t = rt(1, vec![]);
        t.constraint = Constraint::cores(16);
        assert_eq!(Fifo.pick(0, &[t], &workers), None);
    }

    #[test]
    fn locality_prefers_resident_inputs() {
        let workers = [WorkerProfile::cpu(4), WorkerProfile::cpu(4)];
        let ready = vec![
            rt(1, vec![(Some(1), 1000)]), // resident on worker 1
            rt(2, vec![(Some(0), 1000)]), // resident on worker 0
        ];
        assert_eq!(Locality::default().pick(0, &ready, &workers), Some(1));
        assert_eq!(Locality::default().pick(1, &ready, &workers), Some(0));
    }

    #[test]
    fn locality_ties_break_fifo() {
        let workers = [WorkerProfile::cpu(4)];
        let ready = vec![rt(5, vec![]), rt(2, vec![])];
        // No local bytes anywhere: lowest task id wins (task 2, index 1).
        assert_eq!(Locality::default().pick(0, &ready, &workers), Some(1));
    }

    #[test]
    fn locality_defers_then_steals_after_patience() {
        let workers = [WorkerProfile::cpu(4), WorkerProfile::cpu(4)];
        // Data on worker 1: worker 0 should pass PATIENCE times, then steal.
        let ready = vec![rt(1, vec![(Some(1), 4096)])];
        let mut sched = Locality::default();
        for _ in 0..PATIENCE {
            assert_eq!(sched.pick(0, &ready, &workers), None, "deferring to the data's owner");
        }
        assert_eq!(sched.pick(0, &ready, &workers), Some(0), "patience exhausted: steal");
        assert!(sched.poll_hint().is_some(), "deferring policy must re-poll");
    }

    #[test]
    fn locality_respects_constraints() {
        let workers = [WorkerProfile { kind: WorkerKind::Cpu, cores: 2, memory_gb: 8 }];
        let mut big = rt(1, vec![(Some(0), 10_000)]);
        big.constraint = Constraint::cores(8);
        let ready = vec![big, rt(2, vec![])];
        assert_eq!(Locality::default().pick(0, &ready, &workers), Some(1));
    }

    #[test]
    fn heft_takes_highest_rank() {
        let workers = [WorkerProfile::cpu(4)];
        let mut shallow = rt(1, vec![]);
        shallow.rank_us = 2_000;
        let mut deep = rt(2, vec![]);
        deep.rank_us = 50_000; // heads a long chain
        let ready = vec![shallow, deep];
        assert_eq!(Heft::new(7).pick(0, &ready, &workers), Some(1));
    }

    #[test]
    fn heft_tie_break_is_seed_deterministic() {
        let workers = [WorkerProfile::cpu(4)];
        let ready = vec![rt(1, vec![]), rt(2, vec![]), rt(3, vec![])]; // equal ranks
        let a = Heft::new(42).pick(0, &ready, &workers);
        let b = Heft::new(42).pick(0, &ready, &workers);
        assert_eq!(a, b, "same seed ⇒ same tie-break");
        assert!(a.is_some());
    }

    #[test]
    fn heft_respects_constraints() {
        let workers = [WorkerProfile::cpu(4)];
        let mut deep = rt(1, vec![]);
        deep.rank_us = 1_000_000;
        deep.constraint = Constraint::gpu();
        let ready = vec![deep, rt(2, vec![])];
        assert_eq!(
            Heft::new(0).pick(0, &ready, &workers),
            Some(1),
            "rank cannot override constraints"
        );
    }

    #[test]
    fn policy_parses_and_builds() {
        for p in Policy::ALL {
            assert_eq!(p.name().parse::<Policy>().unwrap(), p);
            assert_eq!(p.build(1).name(), p.name());
        }
        assert_eq!("HEFT".parse::<Policy>().unwrap(), Policy::Heft);
        assert!("steal".parse::<Policy>().is_err());
    }

    #[test]
    fn ready_task_byte_accounting() {
        let t = rt(1, vec![(Some(0), 10), (Some(1), 20), (None, 5)]);
        assert_eq!(t.local_bytes(0), 10);
        assert_eq!(t.local_bytes(1), 20);
    }

    #[test]
    fn ledger_tracks_moves() {
        let mut l = TransferLedger::default();
        l.record(0, &[(Some(0), 100), (Some(1), 300)]);
        assert_eq!(l.bytes_local, 100);
        assert_eq!(l.bytes_moved, 300);
        assert_eq!(l.transfers, 1);
    }
}
