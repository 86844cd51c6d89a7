//! Simulated HPC cluster with an LSF-like batch queue.
//!
//! The testbed cluster of the paper (Zeus: 348 nodes, GPFS, IBM Spectrum
//! LSF) is simulated as a set of nodes with cores/memory/GPUs and a batch
//! scheduler running first-come-first-served with conservative
//! backfilling — enough fidelity for deployment placement and for
//! queue-behaviour experiments. The simulation is discrete-event over a
//! virtual millisecond clock.

use crate::error::{Error, Result};

/// Static description of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSpec {
    pub cores: u32,
    pub memory_gb: u32,
    pub gpus: u32,
}

impl NodeSpec {
    /// A standard CPU node.
    pub fn cpu(cores: u32) -> Self {
        NodeSpec { cores, memory_gb: cores * 4, gpus: 0 }
    }

    /// A GPU node.
    pub fn gpu(cores: u32, gpus: u32) -> Self {
        NodeSpec { cores, memory_gb: cores * 8, gpus }
    }
}

/// A batch job request (single-node placement).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub name: String,
    pub cores: u32,
    pub memory_gb: u32,
    pub gpus: u32,
    /// Virtual runtime in milliseconds.
    pub duration_ms: u64,
    /// Virtual submission time.
    pub submit_ms: u64,
}

impl JobSpec {
    /// Convenience constructor for CPU jobs submitted at time zero.
    pub fn new(name: &str, cores: u32, duration_ms: u64) -> Self {
        JobSpec { name: name.into(), cores, memory_gb: 1, gpus: 0, duration_ms, submit_ms: 0 }
    }

    /// Builder: submission time.
    pub fn at(mut self, submit_ms: u64) -> Self {
        self.submit_ms = submit_ms;
        self
    }
}

/// The placement/schedule of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    pub job: JobSpec,
    pub node: usize,
    pub start_ms: u64,
    pub end_ms: u64,
    /// Placement attempts this job needed (1 = placed first try; more
    /// when the chaos site bounced it back to the queue).
    pub attempts: u32,
}

impl Placement {
    /// Queue wait time.
    pub fn wait_ms(&self) -> u64 {
        self.start_ms - self.job.submit_ms
    }
}

/// Result of scheduling a job batch.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub placements: Vec<Placement>,
    pub makespan_ms: u64,
    /// Core-milliseconds used / core-milliseconds available over makespan.
    pub utilization: f64,
    /// Total requeue bounces across all jobs (0 without fault injection).
    pub requeued: u32,
}

/// Placement attempts per job before a requeue fault is ignored: a
/// flapping node can bounce a job back to the queue only so many times.
const MAX_JOB_ATTEMPTS: u32 = 3;

/// The simulated cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    pub nodes: Vec<NodeSpec>,
    queue: Vec<JobSpec>,
}

impl Cluster {
    /// A cluster of identical CPU nodes.
    pub fn homogeneous(n_nodes: usize, cores_per_node: u32) -> Self {
        Cluster { nodes: vec![NodeSpec::cpu(cores_per_node); n_nodes], queue: Vec::new() }
    }

    /// A cluster with an explicit node list.
    pub fn new(nodes: Vec<NodeSpec>) -> Self {
        Cluster { nodes, queue: Vec::new() }
    }

    fn fits(node: &NodeSpec, job: &JobSpec) -> bool {
        node.cores >= job.cores && node.memory_gb >= job.memory_gb && node.gpus >= job.gpus
    }

    /// First fit: the lowest-indexed node with room for the job.
    fn pick_node(&self, job: &JobSpec, free: impl Fn(usize) -> (u32, u32, u32)) -> Option<usize> {
        (0..self.nodes.len()).find(|&n| {
            let (c, g, m) = free(n);
            c >= job.cores && g >= job.gpus && m >= job.memory_gb
        })
    }

    /// Enqueues a job; rejects requests no node can ever satisfy.
    pub fn submit(&mut self, job: JobSpec) -> Result<()> {
        if !self.nodes.iter().any(|n| Self::fits(n, &job)) {
            return Err(Error::UnsatisfiableJob(format!(
                "job '{}' needs {} cores / {} GB / {} GPUs",
                job.name, job.cores, job.memory_gb, job.gpus
            )));
        }
        self.queue.push(job);
        Ok(())
    }

    /// Runs FCFS + conservative backfill over the queued jobs and returns
    /// the schedule. The queue is consumed.
    pub fn schedule(&mut self) -> Schedule {
        struct Queued {
            job: JobSpec,
            attempts: u32,
        }
        let mut pending: Vec<Queued> = std::mem::take(&mut self.queue)
            .into_iter()
            .map(|job| Queued { job, attempts: 0 })
            .collect();
        pending.sort_by_key(|q| q.job.submit_ms);
        let mut requeued = 0u32;
        // Running jobs as (node, end_ms, cores, gpus, mem).
        let mut running: Vec<(usize, u64, u32, u32, u32)> = Vec::new();
        let mut placements: Vec<Placement> = Vec::new();
        let mut now: u64 = 0;

        let free_at =
            |running: &[(usize, u64, u32, u32, u32)], node: usize, t: u64, nodes: &[NodeSpec]| {
                let mut cores = nodes[node].cores;
                let mut gpus = nodes[node].gpus;
                let mut mem = nodes[node].memory_gb;
                for &(n, end, c, g, m) in running {
                    if n == node && end > t {
                        cores = cores.saturating_sub(c);
                        gpus = gpus.saturating_sub(g);
                        mem = mem.saturating_sub(m);
                    }
                }
                (cores, gpus, mem)
            };

        while !pending.is_empty() {
            // Drop finished jobs.
            running.retain(|&(_, end, ..)| end > now);

            // Find the FCFS head among jobs already submitted.
            let head_idx =
                pending.iter().position(|q| q.job.submit_ms <= now).unwrap_or(usize::MAX);

            if head_idx == usize::MAX {
                // Nothing submitted yet: jump to the next submission.
                now = pending.iter().map(|q| q.job.submit_ms).min().unwrap();
                continue;
            }

            // Try to start the head now.
            let head = pending[head_idx].job.clone();
            let node_for_head = self.pick_node(&head, |n| free_at(&running, n, now, &self.nodes));

            if let Some(node) = node_for_head {
                let attempts = pending[head_idx].attempts + 1;
                // Chaos site "hpcwaas.cluster.job": the node bounces the
                // job back to the queue (capped, with a deterministic
                // half-runtime resubmission delay).
                if attempts < MAX_JOB_ATTEMPTS
                    && matches!(
                        obs::chaos::fire("hpcwaas.cluster.job"),
                        Some(obs::chaos::Fault::Requeue)
                    )
                {
                    requeued += 1;
                    let q = &mut pending[head_idx];
                    q.attempts = attempts;
                    q.job.submit_ms = now + q.job.duration_ms / 2 + 1;
                    pending.sort_by_key(|q| q.job.submit_ms);
                    continue;
                }
                running.push((node, now + head.duration_ms, head.cores, head.gpus, head.memory_gb));
                placements.push(Placement {
                    node,
                    start_ms: now,
                    end_ms: now + head.duration_ms,
                    job: head,
                    attempts,
                });
                pending.remove(head_idx);
                continue;
            }

            // Head blocked: compute its shadow start (earliest time enough
            // resources free up on some node).
            let mut end_times: Vec<u64> = running.iter().map(|&(_, e, ..)| e).collect();
            end_times.sort_unstable();
            end_times.dedup();
            let shadow = end_times
                .iter()
                .copied()
                .find(|&t| {
                    (0..self.nodes.len()).any(|n| {
                        let (c, g, m) = free_at(&running, n, t, &self.nodes);
                        c >= head.cores && g >= head.gpus && m >= head.memory_gb
                    })
                })
                .unwrap_or(u64::MAX);

            // Conservative backfill: start any later job that fits now and
            // finishes before the shadow time.
            let mut backfilled = false;
            for i in 0..pending.len() {
                if i == head_idx {
                    continue;
                }
                let j = &pending[i].job;
                if j.submit_ms > now || now + j.duration_ms > shadow {
                    continue;
                }
                let node = self.pick_node(j, |n| free_at(&running, n, now, &self.nodes));
                if let Some(node) = node {
                    let q = pending.remove(i);
                    let j = q.job;
                    running.push((node, now + j.duration_ms, j.cores, j.gpus, j.memory_gb));
                    placements.push(Placement {
                        node,
                        start_ms: now,
                        end_ms: now + j.duration_ms,
                        job: j,
                        attempts: q.attempts + 1,
                    });
                    backfilled = true;
                    break;
                }
            }
            if backfilled {
                continue;
            }

            // Advance time to the next event.
            let next_end = running.iter().map(|&(_, e, ..)| e).min();
            let next_submit =
                pending.iter().filter(|q| q.job.submit_ms > now).map(|q| q.job.submit_ms).min();
            now = match (next_end, next_submit) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break, // cannot happen: head would have started
            };
        }

        let makespan_ms = placements.iter().map(|p| p.end_ms).max().unwrap_or(0);

        let bus = obs::global();
        for p in &placements {
            bus.emit_with(|| obs::EventKind::JobScheduled {
                job: p.job.name.as_str().into(),
                node: p.node,
                wait_ms: p.wait_ms(),
                duration_ms: p.job.duration_ms,
            });
        }

        let used: u64 =
            placements.iter().map(|p| (p.end_ms - p.start_ms) * p.job.cores as u64).sum();
        let capacity: u64 = makespan_ms * self.nodes.iter().map(|n| n.cores as u64).sum::<u64>();
        Schedule {
            placements,
            makespan_ms,
            utilization: if capacity > 0 { used as f64 / capacity as f64 } else { 0.0 },
            requeued,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_job_starts_immediately() {
        let mut c = Cluster::homogeneous(1, 8);
        c.submit(JobSpec::new("a", 4, 100)).unwrap();
        let s = c.schedule();
        assert_eq!(s.placements.len(), 1);
        assert_eq!(s.placements[0].start_ms, 0);
        assert_eq!(s.makespan_ms, 100);
        assert_eq!(s.placements[0].attempts, 1, "clean path places first try");
        assert_eq!(s.requeued, 0);
    }

    #[test]
    fn requeue_fault_bounces_jobs_with_capped_attempts() {
        use std::sync::Arc;
        // Every placement attempt is bounced; the cap forces the third.
        let _guard = obs::chaos::install(Arc::new(|site: &str| {
            (site == "hpcwaas.cluster.job").then_some((obs::chaos::Fault::Requeue, 0))
        }));
        let mut c = Cluster::homogeneous(2, 8);
        c.submit(JobSpec::new("a", 4, 100)).unwrap();
        c.submit(JobSpec::new("b", 4, 100)).unwrap();
        let s = c.schedule();
        assert_eq!(s.placements.len(), 2, "requeued jobs still complete");
        for p in &s.placements {
            assert_eq!(p.attempts, MAX_JOB_ATTEMPTS, "cap forces placement");
            // Two bounces, each delaying resubmission by duration/2 + 1.
            assert!(p.start_ms >= 2 * (100 / 2 + 1), "bounce delays apply: {}", p.start_ms);
        }
        assert_eq!(s.requeued, 4);
    }

    #[test]
    fn requeue_schedule_is_deterministic() {
        use std::sync::Arc;
        let run = || {
            let _guard = obs::chaos::install(Arc::new(|site: &str| {
                (site == "hpcwaas.cluster.job").then_some((obs::chaos::Fault::Requeue, 0))
            }));
            let mut c = Cluster::homogeneous(2, 8);
            for i in 0..6 {
                c.submit(JobSpec::new(&format!("j{i}"), 2 + (i % 3), 50 + i as u64 * 10)).unwrap();
            }
            c.schedule()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.placements, b.placements);
        assert_eq!(a.requeued, b.requeued);
        assert_eq!(a.makespan_ms, b.makespan_ms);
    }

    #[test]
    fn oversized_job_rejected() {
        let mut c = Cluster::homogeneous(2, 8);
        assert!(matches!(c.submit(JobSpec::new("huge", 64, 10)), Err(Error::UnsatisfiableJob(_))));
        assert!(c.submit(JobSpec { gpus: 1, ..JobSpec::new("gpu", 1, 10) }).is_err());
    }

    #[test]
    fn parallel_jobs_share_nodes() {
        let mut c = Cluster::homogeneous(2, 8);
        for i in 0..4 {
            c.submit(JobSpec::new(&format!("j{i}"), 4, 100)).unwrap();
        }
        let s = c.schedule();
        // 4 x 4 cores fit in 2 x 8 cores simultaneously.
        assert_eq!(s.makespan_ms, 100);
        assert!(s.placements.iter().all(|p| p.start_ms == 0));
    }

    #[test]
    fn fcfs_queues_when_full() {
        let mut c = Cluster::homogeneous(1, 8);
        c.submit(JobSpec::new("first", 8, 100)).unwrap();
        c.submit(JobSpec::new("second", 8, 50)).unwrap();
        let s = c.schedule();
        let second = s.placements.iter().find(|p| p.job.name == "second").unwrap();
        assert_eq!(second.start_ms, 100);
        assert_eq!(s.makespan_ms, 150);
        assert_eq!(second.wait_ms(), 100);
    }

    #[test]
    fn backfill_fills_holes_without_delaying_head() {
        let mut c = Cluster::homogeneous(1, 8);
        // Running wide job leaves 2 cores free; a big head job must wait;
        // a small short job can backfill.
        c.submit(JobSpec::new("wide", 6, 100)).unwrap();
        c.submit(JobSpec::new("head", 8, 100)).unwrap();
        c.submit(JobSpec::new("small", 2, 50)).unwrap();
        let s = c.schedule();
        let get = |n: &str| s.placements.iter().find(|p| p.job.name == n).unwrap().clone();
        assert_eq!(get("wide").start_ms, 0);
        assert_eq!(get("small").start_ms, 0, "small job should backfill");
        assert_eq!(get("head").start_ms, 100, "head must not be delayed by backfill");
    }

    #[test]
    fn backfill_must_not_delay_head() {
        let mut c = Cluster::homogeneous(1, 8);
        c.submit(JobSpec::new("wide", 6, 100)).unwrap();
        c.submit(JobSpec::new("head", 8, 100)).unwrap();
        // Long small job would push the head back: must NOT backfill.
        c.submit(JobSpec::new("long-small", 2, 500)).unwrap();
        let s = c.schedule();
        let get = |n: &str| s.placements.iter().find(|p| p.job.name == n).unwrap().clone();
        assert_eq!(get("head").start_ms, 100);
        assert!(get("long-small").start_ms >= 100);
    }

    #[test]
    fn gpu_jobs_land_on_gpu_nodes() {
        let mut c = Cluster::new(vec![NodeSpec::cpu(8), NodeSpec::gpu(8, 2)]);
        c.submit(JobSpec { gpus: 1, ..JobSpec::new("train", 2, 100) }).unwrap();
        c.submit(JobSpec::new("cpu", 8, 100)).unwrap();
        let s = c.schedule();
        let train = s.placements.iter().find(|p| p.job.name == "train").unwrap();
        assert_eq!(train.node, 1);
    }

    #[test]
    fn later_submissions_wait_for_their_submit_time() {
        let mut c = Cluster::homogeneous(1, 8);
        c.submit(JobSpec::new("late", 2, 10).at(500)).unwrap();
        let s = c.schedule();
        assert_eq!(s.placements[0].start_ms, 500);
        assert_eq!(s.makespan_ms, 510);
    }

    #[test]
    fn utilization_accounting() {
        let mut c = Cluster::homogeneous(1, 8);
        c.submit(JobSpec::new("half", 4, 100)).unwrap();
        let s = c.schedule();
        assert!((s.utilization - 0.5).abs() < 1e-9);
    }

    #[test]
    fn many_jobs_all_complete() {
        let mut c = Cluster::homogeneous(3, 8);
        for i in 0..50 {
            c.submit(JobSpec::new(&format!("j{i}"), 1 + (i % 8) as u32, 10 + i as u64)).unwrap();
        }
        let s = c.schedule();
        assert_eq!(s.placements.len(), 50);
        // Instantaneous usage at every start event stays within capacity
        // (cores can only be over-subscribed at some job's start instant).
        for p in &s.placements {
            let t = p.start_ms;
            let mut used = 0u32;
            for q in &s.placements {
                if q.node == p.node && q.start_ms <= t && t < q.end_ms {
                    used += q.job.cores;
                }
            }
            assert!(
                used <= c.nodes[p.node].cores,
                "node {} over-subscribed at t={t}: {used} cores",
                p.node
            );
        }
    }
}
