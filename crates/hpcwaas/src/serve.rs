//! Admission control and weighted fair-share scheduling for the
//! Execution API.
//!
//! The paper's Execution API fronts a *shared* service: many final users
//! hitting one deployment of the workflow. Serving them all from an
//! unbounded thread-per-submit would let any one tenant monopolise the
//! machine, so submission goes through three gates before any work runs:
//!
//! 1. **Per-tenant quota** — a ceiling on queued + running executions
//!    ([`TenantQuota::max_in_flight`]).
//! 2. **Token-bucket rate limit** — a burst allowance refilled at a
//!    steady rate ([`TenantQuota::submit_burst`] /
//!    [`TenantQuota::submit_rate_per_sec`]).
//! 3. **Bounded global queue** — backpressure once the service as a
//!    whole is saturated ([`ServeConfig::queue_capacity`]).
//!
//! Admitted work waits in a per-tenant lane; a stride scheduler picks the
//! lane with the smallest virtual time, advancing it by `1/weight` per
//! dispatch, so a tenant with weight 3 drains three times faster than a
//! tenant with weight 1 and no lane ever starves. The lanes feed a
//! bounded executor pool owned by [`crate::ExecutionApi`].

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Tenant submissions without an explicit tenant land under this name.
pub const DEFAULT_TENANT: &str = "default";

/// Interned tenant name: cheap to clone, hashable, ordered.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(Arc<str>);

impl TenantId {
    pub fn new(name: &str) -> Self {
        TenantId(Arc::from(name))
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The interned name, shareable with event payloads.
    pub fn arc(&self) -> Arc<str> {
        Arc::clone(&self.0)
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-tenant admission policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantQuota {
    /// Ceiling on executions queued or running at once.
    pub max_in_flight: usize,
    /// Token-bucket depth for submission bursts; `0` disables rate
    /// limiting entirely.
    pub submit_burst: u32,
    /// Steady-state refill rate for the bucket. With `submit_burst > 0`
    /// and a zero rate the tenant has a hard budget of `submit_burst`
    /// submissions (useful for deterministic tests).
    pub submit_rate_per_sec: f64,
    /// Fair-share weight: relative fraction of executor dispatches this
    /// tenant receives under contention. Clamped to at least 1.
    pub weight: u32,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota { max_in_flight: 1024, submit_burst: 0, submit_rate_per_sec: 0.0, weight: 1 }
    }
}

/// Serving-layer configuration for an [`crate::ExecutionApi`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Executor pool size (threads actually running entrypoints).
    pub workers: usize,
    /// Bound on executions waiting for a worker, across all tenants.
    pub queue_capacity: usize,
    /// Quota applied to tenants without an explicit
    /// [`crate::ExecutionApi::set_quota`].
    pub default_quota: TenantQuota,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { workers: 4, queue_capacity: 256, default_quota: TenantQuota::default() }
    }
}

/// Typed admission refusal, carried by [`crate::Error::Rejected`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The tenant is at its in-flight ceiling.
    QuotaExceeded { tenant: String, in_flight: usize, max_in_flight: usize },
    /// The tenant's token bucket is empty.
    RateLimited { tenant: String },
    /// The global admission queue is full.
    QueueFull { depth: usize, capacity: usize },
}

impl Rejection {
    /// Stable label for metrics and events (`quota` / `rate` /
    /// `queue_full`).
    pub fn label(&self) -> &'static str {
        match self {
            Rejection::QuotaExceeded { .. } => "quota",
            Rejection::RateLimited { .. } => "rate",
            Rejection::QueueFull { .. } => "queue_full",
        }
    }
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::QuotaExceeded { tenant, in_flight, max_in_flight } => {
                write!(f, "tenant '{tenant}' at quota ({in_flight}/{max_in_flight} in flight)")
            }
            Rejection::RateLimited { tenant } => {
                write!(f, "tenant '{tenant}' exceeded its submission rate")
            }
            Rejection::QueueFull { depth, capacity } => {
                write!(f, "admission queue full ({depth}/{capacity})")
            }
        }
    }
}

/// Counters a serving API exposes through
/// [`crate::ExecutionApi::serve_stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Submissions that passed admission and entered the queue.
    pub admitted: u64,
    /// Rejections at the in-flight quota gate.
    pub rejected_quota: u64,
    /// Rejections at the token-bucket gate.
    pub rejected_rate: u64,
    /// Rejections at the global queue bound.
    pub rejected_queue_full: u64,
    /// Submissions answered by attaching to an identical in-flight
    /// execution instead of running again.
    pub coalesced: u64,
    /// Dispatches per tenant since the API was created.
    pub dispatched: BTreeMap<String, u64>,
    /// Tenant name of each dispatch, in order (capped; fairness tests
    /// read interleaving from this).
    pub dispatch_order: Vec<String>,
    /// Executions currently waiting for a worker.
    pub queue_depth: usize,
    /// Executions currently running on the pool.
    pub running: usize,
}

impl ServeStats {
    /// Total submissions refused by admission control.
    pub fn rejected(&self) -> u64 {
        self.rejected_quota + self.rejected_rate + self.rejected_queue_full
    }
}

/// Classic token bucket over wall-clock time.
#[derive(Debug)]
pub struct TokenBucket {
    capacity: f64,
    tokens: f64,
    refill_per_sec: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(capacity: u32, refill_per_sec: f64, now: Instant) -> Self {
        let cap = f64::from(capacity.max(1));
        TokenBucket {
            capacity: cap,
            tokens: cap,
            refill_per_sec: refill_per_sec.max(0.0),
            last: now,
        }
    }

    /// Takes one token if available, refilling for the elapsed time first.
    fn try_take(&mut self, now: Instant) -> bool {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * self.refill_per_sec).min(self.capacity);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// One tenant's lane in the fair queue.
struct Lane<T> {
    queue: VecDeque<T>,
    quota: TenantQuota,
    bucket: Option<TokenBucket>,
    /// Stride-scheduler virtual time; the lane with the minimum value is
    /// dispatched next and pays `1/weight` per dispatch.
    vtime: f64,
    /// Queued + running executions charged to this tenant.
    in_flight: usize,
}

impl<T> Lane<T> {
    fn new(quota: TenantQuota, now: Instant) -> Self {
        let bucket = (quota.submit_burst > 0)
            .then(|| TokenBucket::new(quota.submit_burst, quota.submit_rate_per_sec, now));
        Lane { queue: VecDeque::new(), quota, bucket, vtime: 0.0, in_flight: 0 }
    }
}

/// Admission gate + weighted fair-share queue over per-tenant lanes.
///
/// Generic over the queued item so scheduling policy is testable without
/// constructing real executions.
pub(crate) struct FairQueue<T> {
    lanes: BTreeMap<TenantId, Lane<T>>,
    default_quota: TenantQuota,
    capacity: usize,
    len: usize,
    /// Virtual time of the most recent dispatch; newly-active lanes start
    /// here so an idle tenant cannot bank credit and then burst.
    global_vtime: f64,
}

impl<T> FairQueue<T> {
    pub(crate) fn new(default_quota: TenantQuota, capacity: usize) -> Self {
        FairQueue { lanes: BTreeMap::new(), default_quota, capacity, len: 0, global_vtime: 0.0 }
    }

    pub(crate) fn set_quota(&mut self, tenant: TenantId, quota: TenantQuota, now: Instant) {
        let default = self.default_quota;
        let lane = self.lanes.entry(tenant).or_insert_with(|| Lane::new(default, now));
        lane.quota = quota;
        lane.bucket = (quota.submit_burst > 0)
            .then(|| TokenBucket::new(quota.submit_burst, quota.submit_rate_per_sec, now));
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Runs all three admission gates and enqueues on success; a rejected
    /// submission consumes no token and changes no state.
    pub(crate) fn try_enqueue(
        &mut self,
        tenant: &TenantId,
        item: T,
        now: Instant,
    ) -> Result<(), Rejection> {
        let default = self.default_quota;
        let global_vtime = self.global_vtime;
        let (len, capacity) = (self.len, self.capacity);
        let lane = self.lanes.entry(tenant.clone()).or_insert_with(|| Lane::new(default, now));
        if lane.in_flight >= lane.quota.max_in_flight {
            return Err(Rejection::QuotaExceeded {
                tenant: tenant.to_string(),
                in_flight: lane.in_flight,
                max_in_flight: lane.quota.max_in_flight,
            });
        }
        if len >= capacity {
            return Err(Rejection::QueueFull { depth: len, capacity });
        }
        if let Some(bucket) = &mut lane.bucket {
            if !bucket.try_take(now) {
                return Err(Rejection::RateLimited { tenant: tenant.to_string() });
            }
        }
        if lane.queue.is_empty() {
            lane.vtime = lane.vtime.max(global_vtime);
        }
        lane.queue.push_back(item);
        lane.in_flight += 1;
        self.len += 1;
        Ok(())
    }

    /// Dispatches from the non-empty lane with the smallest virtual time.
    pub(crate) fn pop(&mut self) -> Option<(TenantId, T)> {
        let tenant = self
            .lanes
            .iter()
            .filter(|(_, lane)| !lane.queue.is_empty())
            .min_by(|a, b| a.1.vtime.total_cmp(&b.1.vtime))
            .map(|(t, _)| t.clone())?;
        let lane = self.lanes.get_mut(&tenant).expect("lane exists");
        let item = lane.queue.pop_front().expect("lane non-empty");
        lane.vtime += 1.0 / f64::from(lane.quota.weight.max(1));
        self.global_vtime = lane.vtime;
        self.len -= 1;
        Some((tenant, item))
    }

    /// Releases the in-flight slot a terminal execution held.
    pub(crate) fn complete(&mut self, tenant: &TenantId) {
        if let Some(lane) = self.lanes.get_mut(tenant) {
            lane.in_flight = lane.in_flight.saturating_sub(1);
        }
    }

    #[cfg(test)]
    fn in_flight(&self, tenant: &TenantId) -> usize {
        self.lanes.get(tenant).map_or(0, |l| l.in_flight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn q(max_in_flight: usize, burst: u32, rate: f64, weight: u32) -> TenantQuota {
        TenantQuota { max_in_flight, submit_burst: burst, submit_rate_per_sec: rate, weight }
    }

    #[test]
    fn token_bucket_burst_then_refill() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(2, 10.0, t0);
        assert!(b.try_take(t0));
        assert!(b.try_take(t0));
        assert!(!b.try_take(t0), "burst exhausted");
        // 100ms at 10/s refills exactly one token.
        assert!(b.try_take(t0 + Duration::from_millis(100)));
        assert!(!b.try_take(t0 + Duration::from_millis(100)));
    }

    #[test]
    fn token_bucket_zero_rate_is_a_hard_budget() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(3, 0.0, t0);
        for _ in 0..3 {
            assert!(b.try_take(t0));
        }
        assert!(!b.try_take(t0 + Duration::from_secs(3600)));
    }

    #[test]
    fn quota_gate_counts_queued_and_running() {
        let now = Instant::now();
        let mut fq: FairQueue<u32> = FairQueue::new(q(2, 0, 0.0, 1), 64);
        let t = TenantId::new("a");
        fq.try_enqueue(&t, 1, now).unwrap();
        fq.try_enqueue(&t, 2, now).unwrap();
        assert!(matches!(
            fq.try_enqueue(&t, 3, now),
            Err(Rejection::QuotaExceeded { in_flight: 2, max_in_flight: 2, .. })
        ));
        // Dispatching does not release the slot; completion does.
        fq.pop().unwrap();
        assert!(matches!(fq.try_enqueue(&t, 3, now), Err(Rejection::QuotaExceeded { .. })));
        fq.complete(&t);
        fq.try_enqueue(&t, 3, now).unwrap();
        assert_eq!(fq.in_flight(&t), 2);
    }

    #[test]
    fn queue_capacity_is_global() {
        let now = Instant::now();
        let mut fq: FairQueue<u32> = FairQueue::new(TenantQuota::default(), 2);
        fq.try_enqueue(&TenantId::new("a"), 1, now).unwrap();
        fq.try_enqueue(&TenantId::new("b"), 2, now).unwrap();
        assert!(matches!(
            fq.try_enqueue(&TenantId::new("c"), 3, now),
            Err(Rejection::QueueFull { depth: 2, capacity: 2 })
        ));
    }

    #[test]
    fn weighted_interleaving_matches_strides() {
        let now = Instant::now();
        let mut fq: FairQueue<u32> = FairQueue::new(TenantQuota::default(), 64);
        let (heavy, light) = (TenantId::new("heavy"), TenantId::new("light"));
        fq.set_quota(heavy.clone(), q(1024, 0, 0.0, 3), now);
        fq.set_quota(light.clone(), q(1024, 0, 0.0, 1), now);
        for i in 0..12 {
            fq.try_enqueue(&heavy, i, now).unwrap();
            fq.try_enqueue(&light, i, now).unwrap();
        }
        let order: Vec<String> =
            std::iter::from_fn(|| fq.pop()).map(|(t, _)| t.to_string()).collect();
        // 3:1 stride ratio in any aligned window of 4.
        let heavy_in_first_8 = order[..8].iter().filter(|t| *t == "heavy").count();
        assert_eq!(heavy_in_first_8, 6, "order {order:?}");
        // Light is never starved: it appears in every window of 4.
        for w in order.chunks(4).take(3) {
            assert!(w.contains(&"light".to_string()), "order {order:?}");
        }
    }

    #[test]
    fn idle_tenant_cannot_bank_credit() {
        let now = Instant::now();
        let mut fq: FairQueue<u32> = FairQueue::new(TenantQuota::default(), 64);
        let (busy, idle) = (TenantId::new("busy"), TenantId::new("idle"));
        // busy alone dispatches many times, advancing global vtime.
        for i in 0..10 {
            fq.try_enqueue(&busy, i, now).unwrap();
        }
        for _ in 0..10 {
            fq.pop().unwrap();
        }
        // idle arrives late: it starts at the current vtime, so it
        // alternates with busy rather than draining its backlog first.
        for i in 0..4 {
            fq.try_enqueue(&idle, i, now).unwrap();
            fq.try_enqueue(&busy, 100 + i, now).unwrap();
        }
        let order: Vec<String> =
            std::iter::from_fn(|| fq.pop()).map(|(t, _)| t.to_string()).collect();
        let idle_in_first_4 = order[..4].iter().filter(|t| *t == "idle").count();
        assert!(idle_in_first_4 <= 3, "late tenant must not monopolise: {order:?}");
        assert!(idle_in_first_4 >= 1, "late tenant must not starve: {order:?}");
    }

    #[test]
    fn rejection_messages_are_specific() {
        let r = Rejection::QuotaExceeded { tenant: "acme".into(), in_flight: 8, max_in_flight: 8 };
        assert!(r.to_string().contains("acme"));
        assert_eq!(r.label(), "quota");
        let r = Rejection::QueueFull { depth: 256, capacity: 256 };
        assert!(r.to_string().contains("256"));
        assert_eq!(Rejection::RateLimited { tenant: "t".into() }.label(), "rate");
    }
}
