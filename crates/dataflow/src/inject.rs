//! Deterministic, seeded fault injection.
//!
//! A [`FaultPlan`] is built from a single `u64` seed: it enumerates a
//! concrete set of [`Injection`]s — *(site, occurrence, fault)* triples —
//! at construction time, so the full set of faults a run will see is
//! known (and printable) before anything executes. [`FaultPlan::arm`]
//! installs the plan into the process-wide [`obs::chaos`] hook; every
//! instrumented subsystem then consults its named site on the hot path
//! (`obs::chaos::fire("dataflow.task")` etc.) and the plan fires a fault
//! exactly when that site's per-plan occurrence counter hits a planned
//! index. A failing chaos run therefore replays exactly from its seed:
//! same seed, same plan, same faults at the same sites.
//!
//! The module also owns [`backoff_delay_ms`], the deterministic-jitter
//! exponential backoff used by
//! [`FailurePolicy::RetryBackoff`](crate::task::FailurePolicy): pure in
//! `(seed, task, attempt)` so retry schedules are replayable too.

use obs::chaos::{self, ChaosGuard};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

pub use obs::chaos::Fault;

/// Injection site inside the dataflow runtime: fires once per task
/// attempt, honoring `Panic` / `Stall` / `Error` / `Poison`.
pub const SITE_TASK: &str = "dataflow.task";
/// Injection site inside the `par` compute pool's worker loop: honors
/// `Stall` only (a slow worker, not a broken one).
pub const SITE_POOL: &str = "par.worker";
/// Injection site per DLS transfer-stage attempt: honors `Drop`.
pub const SITE_TRANSFER: &str = "hpcwaas.dls.transfer";
/// Injection site at the start of each simulated ESM year: honors
/// `Stall` and `Error`.
pub const SITE_ESM: &str = "esm.year";

/// Every site a default plan may target, with the faults each honors.
const MENU: &[(&str, &[Fault])] = &[
    (SITE_TASK, &[Fault::Panic, Fault::Stall { millis: 25 }, Fault::Error, Fault::Poison]),
    (SITE_POOL, &[Fault::Stall { millis: 25 }]),
    (SITE_TRANSFER, &[Fault::Drop]),
    (SITE_ESM, &[Fault::Stall { millis: 10 }, Fault::Error]),
];

/// Highest per-site occurrence index a generated plan targets. Small on
/// purpose: early occurrences are the ones every run reaches, so seeded
/// faults actually fire instead of aiming past the end of the run.
const MAX_OCCURRENCE: u64 = 6;

/// One planned fault: fire `fault` the `occurrence`-th time (0-based)
/// the armed plan is consulted at `site`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    pub site: &'static str,
    pub occurrence: u64,
    pub fault: Fault,
}

impl std::fmt::Display for Injection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}:{}", self.fault.label(), self.site, self.occurrence)
    }
}

/// SplitMix64: the tiny, high-quality mixer used everywhere this module
/// needs a deterministic stream (public so tests can pin sequences).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded set of planned injections. Build with [`FaultPlan::from_seed`]
/// (samples the whole site menu) or [`FaultPlan::for_sites`] (restricts
/// to a site subset, e.g. dataflow-only for graph-level chaos tests).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    injections: Vec<Injection>,
}

impl FaultPlan {
    /// Enumerates `faults` injections from `seed` across every site in
    /// the menu. Deterministic: same `(seed, faults)` → same plan.
    pub fn from_seed(seed: u64, faults: usize) -> FaultPlan {
        Self::for_sites(seed, faults, MENU)
    }

    /// Like [`from_seed`](Self::from_seed) but restricted to `sites`
    /// (each paired with the faults it may receive).
    pub fn for_sites(seed: u64, faults: usize, sites: &[(&'static str, &[Fault])]) -> FaultPlan {
        let mut injections: Vec<Injection> = Vec::with_capacity(faults);
        let mut state = splitmix64(seed ^ 0xc1a0_5c1a_05c1_a05c);
        for _ in 0..faults {
            state = splitmix64(state);
            let (site, menu) = sites[(state % sites.len() as u64) as usize];
            state = splitmix64(state);
            let fault = menu[(state % menu.len() as u64) as usize];
            state = splitmix64(state);
            let mut occurrence = state % MAX_OCCURRENCE;
            // Linear-probe occurrence collisions so each (site, occurrence)
            // slot carries at most one fault; give up (skip) after a lap.
            let mut probes = 0;
            while injections.iter().any(|i| i.site == site && i.occurrence == occurrence) {
                occurrence = (occurrence + 1) % (MAX_OCCURRENCE * 2);
                probes += 1;
                if probes > MAX_OCCURRENCE * 2 {
                    break;
                }
            }
            if probes <= MAX_OCCURRENCE * 2 {
                injections.push(Injection { site, occurrence, fault });
            }
        }
        injections.sort_by_key(|i| (i.site, i.occurrence));
        FaultPlan { seed, injections }
    }

    /// Arms the plan process-wide. Blocks until any previously armed plan
    /// drops (chaos sections serialize), then installs a hook that fires
    /// each planned injection at its site/occurrence. Dropping the
    /// returned [`ArmedPlan`] disarms.
    pub fn arm(&self) -> ArmedPlan {
        let mut by_site: HashMap<String, HashMap<u64, Injection>> = HashMap::new();
        for inj in &self.injections {
            by_site.entry(inj.site.to_string()).or_default().insert(inj.occurrence, *inj);
        }
        let state = Arc::new(PlanState {
            by_site,
            counters: Mutex::new(HashMap::new()),
            fired: Mutex::new(Vec::new()),
        });
        let hook_state = Arc::clone(&state);
        let guard = chaos::install(Arc::new(move |site: &str| {
            let occ = {
                let mut counters =
                    hook_state.counters.lock().unwrap_or_else(PoisonError::into_inner);
                let c = counters.entry(site.to_string()).or_insert(0);
                let occ = *c;
                *c += 1;
                occ
            };
            let inj = *hook_state.by_site.get(site)?.get(&occ)?;
            hook_state.fired.lock().unwrap_or_else(PoisonError::into_inner).push(inj);
            Some((inj.fault, occ))
        }));
        ArmedPlan { _guard: guard, state }
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan[seed={}]", self.seed)?;
        for inj in &self.injections {
            write!(f, " {inj}")?;
        }
        Ok(())
    }
}

struct PlanState {
    by_site: HashMap<String, HashMap<u64, Injection>>,
    counters: Mutex<HashMap<String, u64>>,
    fired: Mutex<Vec<Injection>>,
}

/// A live plan: holds the process-wide chaos gate (see
/// [`obs::chaos::install`]) and records which injections actually fired.
pub struct ArmedPlan {
    _guard: ChaosGuard,
    state: Arc<PlanState>,
}

impl ArmedPlan {
    /// The injections that have fired so far, in firing order.
    pub fn fired(&self) -> Vec<Injection> {
        self.state.fired.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// How many times `site` has been consulted so far.
    pub fn consultations(&self, site: &str) -> u64 {
        self.state
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(site)
            .copied()
            .unwrap_or(0)
    }
}

/// Exponential backoff with deterministic full jitter. Attempt `n`
/// (1-based) targets `exp = min(base_ms << (n-1), cap_ms)` and returns a
/// delay in `[exp/2, exp]`, the jitter drawn from a SplitMix64 hash of
/// `(seed, task, attempt)` — pure, so a retry schedule replays exactly
/// from the runtime seed.
pub fn backoff_delay_ms(seed: u64, task: u64, attempt: u32, base_ms: u64, cap_ms: u64) -> u64 {
    let shift = u32::min(attempt.saturating_sub(1), 20);
    let exp = base_ms.saturating_mul(1u64 << shift).min(cap_ms.max(base_ms));
    let half = exp / 2;
    let r = splitmix64(seed ^ task.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(attempt));
    half + r % (exp - half + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        let a = FaultPlan::from_seed(7, 5);
        let b = FaultPlan::from_seed(7, 5);
        assert_eq!(a.injections, b.injections);
        assert_eq!(a.injections.len(), 5);
        let c = FaultPlan::from_seed(8, 5);
        assert_ne!(a.injections, c.injections, "seeds 7 and 8 coincide?");
    }

    #[test]
    fn no_duplicate_site_occurrence_slots() {
        for seed in 0..50u64 {
            let plan = FaultPlan::from_seed(seed, 8);
            let mut slots: Vec<_> =
                plan.injections.iter().map(|i| (i.site, i.occurrence)).collect();
            let n = slots.len();
            slots.sort();
            slots.dedup();
            assert_eq!(slots.len(), n, "seed {seed} produced colliding slots");
        }
    }

    #[test]
    fn armed_plan_fires_at_planned_occurrences() {
        let plan = FaultPlan::for_sites(3, 2, &[("test.site", &[Fault::Error])]);
        assert_eq!(plan.injections.len(), 2);
        let armed = plan.arm();
        let mut hits = Vec::new();
        for occ in 0..(MAX_OCCURRENCE * 2) {
            if let Some(f) = chaos::fire("test.site") {
                hits.push((occ, f));
            }
        }
        let planned: Vec<_> = plan.injections.iter().map(|i| (i.occurrence, i.fault)).collect();
        assert_eq!(hits, planned);
        assert_eq!(armed.fired().len(), 2);
        assert_eq!(armed.consultations("test.site"), MAX_OCCURRENCE * 2);
        assert!(chaos::fire("other.site").is_none());
    }

    #[test]
    fn backoff_sequence_is_pinned_for_seed_42() {
        // Pins the exact jitter sequence: any change to the hash or the
        // window arithmetic is a replay-compatibility break.
        let seq: Vec<u64> = (1..=5).map(|a| backoff_delay_ms(42, 3, a, 10, 1000)).collect();
        assert_eq!(seq, vec![7, 16, 27, 69, 108]);
        // Pure: same inputs, same outputs.
        assert_eq!(backoff_delay_ms(42, 3, 2, 10, 1000), seq[1]);
    }

    #[test]
    fn backoff_respects_window_and_cap() {
        for attempt in 1..=12u32 {
            for task in [1u64, 9, 1000] {
                let d = backoff_delay_ms(99, task, attempt, 10, 200);
                let exp = (10u64 << u32::min(attempt - 1, 20)).min(200);
                assert!(
                    d >= exp / 2 && d <= exp,
                    "attempt {attempt}: {d} outside [{}, {exp}]",
                    exp / 2
                );
            }
        }
        assert_eq!(backoff_delay_ms(1, 1, 1, 0, 0), 0, "zero base never sleeps");
    }
}
