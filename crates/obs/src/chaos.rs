//! Chaos-engineering hook points: named fault-injection sites consulted
//! by instrumented subsystems.
//!
//! This module is deliberately tiny and lives in `obs` (the bottom of the
//! workspace layering) so that every crate — the dataflow runtime, the
//! compute pool, the HPCWaaS simulators, the ESM — can expose injection
//! sites without depending on the crate that *plans* the faults
//! (`dataflow::inject` builds seeded [`super::EventKind::FaultInjected`]
//! plans and installs them here). Disarmed, [`fire`] is a single relaxed
//! atomic load, so production paths pay nothing.
//!
//! Only one hook can be armed at a time: [`install`] takes a process-wide
//! gate lock that the returned [`ChaosGuard`] holds until dropped, which
//! serializes chaos tests running concurrently in one test binary.

use crate::event::EventKind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// A fault to apply at an injection site. Sites interpret the variants
/// they understand and ignore the rest: the dataflow runtime honors
/// `Panic`/`Stall`/`Error`/`Poison`, the DLS honors `Drop`, the compute
/// pool honors `Stall`, and the ESM's daily-file write honors `Poison`
/// (it leaves a torn file).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the instrumented code path.
    Panic,
    /// Sleep for `millis` before proceeding (stall / slow-node).
    Stall { millis: u64 },
    /// Return an injected error from the instrumented operation.
    Error,
    /// Corrupt the operation's payload (surfaced as a distinct error).
    Poison,
    /// Drop a transfer stage (the DLS retries it).
    Drop,
}

impl Fault {
    /// Stable lowercase label (events, logs, plan descriptions).
    pub fn label(self) -> &'static str {
        match self {
            Fault::Panic => "panic",
            Fault::Stall { .. } => "stall",
            Fault::Error => "error",
            Fault::Poison => "poison",
            Fault::Drop => "drop",
        }
    }
}

/// The hook: given a site name, decide whether a fault fires there and
/// report the per-site occurrence index it fired at.
pub type Hook = dyn Fn(&str) -> Option<(Fault, u64)> + Send + Sync;

static ARMED: AtomicBool = AtomicBool::new(false);

fn hook_slot() -> &'static Mutex<Option<Arc<Hook>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<Hook>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Process-wide exclusivity gate: only one armed plan at a time.
fn gate() -> &'static Mutex<()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
}

/// Disarms the hook when dropped (and releases the exclusivity gate).
pub struct ChaosGuard {
    _gate: MutexGuard<'static, ()>,
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::Release);
        *hook_slot().lock().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// Arms `hook` as the process's fault-injection decision function.
/// Blocks until any previously armed hook is dropped.
pub fn install(hook: Arc<Hook>) -> ChaosGuard {
    let gate = gate().lock().unwrap_or_else(PoisonError::into_inner);
    *hook_slot().lock().unwrap_or_else(PoisonError::into_inner) = Some(hook);
    ARMED.store(true, Ordering::Release);
    ChaosGuard { _gate: gate }
}

/// True when a fault plan is armed.
#[inline]
fn is_armed() -> bool {
    ARMED.load(Ordering::Acquire)
}

/// Consults the armed hook at `site`. Returns the fault to apply, if one
/// fires here. Disarmed this is one atomic load; armed it emits a
/// [`EventKind::FaultInjected`] event for every fault that fires.
pub fn fire(site: &str) -> Option<Fault> {
    if !is_armed() {
        return None;
    }
    let hook = hook_slot().lock().unwrap_or_else(PoisonError::into_inner).clone()?;
    let (fault, occurrence) = hook(site)?;
    crate::emit_with(|| EventKind::FaultInjected {
        site: site.into(),
        fault: fault.label(),
        occurrence,
    });
    Some(fault)
}

/// Applies the fault fired at `site` inline: `Stall` sleeps and succeeds,
/// `Panic` panics, everything else becomes an `Err` naming the fault.
/// Convenience for sites with no fault-specific handling of their own.
pub fn point(site: &str) -> Result<(), String> {
    match fire(site) {
        None => Ok(()),
        Some(Fault::Stall { millis }) => {
            std::thread::sleep(std::time::Duration::from_millis(millis));
            Ok(())
        }
        Some(Fault::Panic) => panic!("chaos: injected panic at {site}"),
        Some(f) => Err(format!("chaos: injected {} fault at {site}", f.label())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn disarmed_fire_is_none() {
        // Holding the gate keeps a concurrent test from arming a hook
        // while this one asserts the disarmed path.
        let _gate = gate().lock().unwrap_or_else(PoisonError::into_inner);
        assert!(fire("nowhere").is_none());
        assert!(point("nowhere").is_ok());
    }

    #[test]
    fn armed_hook_fires_and_disarms_on_drop() {
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        let guard = install(Arc::new(move |site: &str| {
            let n = c.fetch_add(1, Ordering::SeqCst);
            (site == "x").then_some((Fault::Error, n))
        }));
        assert_eq!(fire("x"), Some(Fault::Error));
        assert_eq!(fire("y"), None);
        assert!(point("x").unwrap_err().contains("injected error"));
        drop(guard);
        assert!(!is_armed());
        assert!(fire("x").is_none());
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn stall_point_sleeps_and_succeeds() {
        let _guard = install(Arc::new(|_: &str| Some((Fault::Stall { millis: 1 }, 0))));
        let t0 = std::time::Instant::now();
        assert!(point("anywhere").is_ok());
        assert!(t0.elapsed() >= std::time::Duration::from_millis(1));
    }

    #[test]
    fn fault_labels_are_stable() {
        assert_eq!(Fault::Panic.label(), "panic");
        assert_eq!(Fault::Stall { millis: 3 }.label(), "stall");
        assert_eq!(Fault::Poison.label(), "poison");
        assert_eq!(Fault::Drop.label(), "drop");
    }
}
