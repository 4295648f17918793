//! Deterministic fault injection for exercising the engine's recovery
//! paths (compiled only under the `fault-injection` cargo feature).
//!
//! The executor names a fault point at the top of every stage attempt
//! (`"{stage}:{label}"`, e.g. `"symmetrize:Bibliometric"`). Tests arm a
//! point with a [`FaultAction`] and run a normal sweep; the armed point
//! then misbehaves in a precisely-controlled way:
//!
//! * [`FaultAction::Panic`] — the stage panics, exercising panic
//!   isolation (`catch_unwind` + the cache's in-flight guard).
//! * [`FaultAction::Transient`] — the stage fails with a retryable error
//!   a fixed number of times, exercising the backoff/retry loop.
//! * [`FaultAction::Oom`] — the stage behaves as if the memory-budget
//!   estimator reported an over-budget product (effective budget forced
//!   to one stored entry), exercising degraded-mode SpGEMM.
//!
//! The registry is a process-global map, so tests that arm points must
//! serialize against each other (the integration suite shares one mutex)
//! and [`reset`] between scenarios.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// What an armed fault point does when fired.
#[derive(Debug, Clone)]
pub enum FaultAction {
    /// Panic with a recognizable message.
    Panic,
    /// Fail with a transient (retryable) error this many times, then
    /// behave normally.
    Transient {
        /// Remaining failures before the point goes quiet.
        failures: usize,
    },
    /// Simulate memory exhaustion: the executor clamps the stage's
    /// effective SpGEMM budget to a single stored entry.
    Oom,
}

fn registry() -> &'static Mutex<HashMap<String, FaultAction>> {
    static REG: OnceLock<Mutex<HashMap<String, FaultAction>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock() -> std::sync::MutexGuard<'static, HashMap<String, FaultAction>> {
    // Robust against a panic injected while the lock was held elsewhere.
    registry()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Arms `name` with `action` (replacing any previous arming).
pub fn arm(name: &str, action: FaultAction) {
    lock().insert(name.to_string(), action);
}

/// Disarms `name`.
pub fn disarm(name: &str) {
    lock().remove(name);
}

/// Disarms every fault point.
pub fn reset() {
    lock().clear();
}

/// Fires the named fault point: panics under [`FaultAction::Panic`],
/// returns a transient error (and decrements the remaining-failure count)
/// under [`FaultAction::Transient`], and is a no-op otherwise.
pub fn fire(name: &str) -> Result<(), String> {
    let mut reg = lock();
    match reg.get_mut(name) {
        Some(FaultAction::Panic) => {
            drop(reg); // don't poison the registry for later scenarios
            panic!("injected panic at fault point {name}");
        }
        Some(FaultAction::Transient { failures }) if *failures > 0 => {
            *failures -= 1;
            Err(format!("transient: injected fault at {name}"))
        }
        _ => Ok(()),
    }
}

/// Whether `name` is armed with [`FaultAction::Oom`].
pub(crate) fn oom_armed(name: &str) -> bool {
    matches!(lock().get(name), Some(FaultAction::Oom))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_budget_decrements_then_goes_quiet() {
        let name = "unit:transient-point";
        arm(name, FaultAction::Transient { failures: 2 });
        assert!(fire(name).is_err());
        assert!(fire(name).is_err());
        assert!(fire(name).is_ok(), "budget exhausted, point goes quiet");
        assert!(!oom_armed(name));
        disarm(name);
        assert!(fire(name).is_ok());
    }

    #[test]
    fn oom_arming_is_observable_and_fire_is_noop() {
        let name = "unit:oom-point";
        arm(name, FaultAction::Oom);
        assert!(oom_armed(name));
        assert!(fire(name).is_ok());
        disarm(name);
        assert!(!oom_armed(name));
    }
}
