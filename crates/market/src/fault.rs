//! Seeded, schedulable fault injection for the market simulator.
//!
//! The paper's market is a live cloud service; calls against it can fail
//! transiently, stall, come back truncated, or arrive corrupted on the
//! wire. A [`FaultInjector`] attached to a [`crate::DataMarket`] reproduces
//! those failure modes deterministically: every decision is a pure function
//! of the plan's `u64` seed and the market's global call index, so a fault
//! schedule replays bit-identically regardless of when or how often the
//! test harness interleaves queries.
//!
//! Billing semantics per fault kind (the part tests pin down):
//!
//! | kind          | billed?            | visible effect                      |
//! |---------------|--------------------|-------------------------------------|
//! | `Unavailable` | no                 | `PaylessError::Unavailable`         |
//! | `Stall`       | yes (normal call)  | call sleeps, then delivers normally |
//! | `Truncate`    | yes, full pages    | fewer rows than billed pages        |
//! | `Corrupt`     | yes, full pages    | `PaylessError::BilledFailure`       |

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One injectable failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Transient seller-side error before any work happens; nothing billed.
    Unavailable,
    /// The call succeeds normally but only after a latency stall.
    Stall {
        /// How long the call sleeps before answering.
        millis: u64,
    },
    /// The seller bills the full page count but the response body carries
    /// fewer rows than those pages hold — always detectable by the client,
    /// because the billed pages exceed `ceil(returned_records / t)`.
    Truncate,
    /// The seller bills the full page count but the wire payload fails to
    /// decode (the body is mangled; see [`corrupt_body`]).
    Corrupt,
}

impl FaultKind {
    /// Stable label [`FaultInjector::injections`] counts fired faults under.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Unavailable => "unavailable",
            FaultKind::Stall { .. } => "stall",
            FaultKind::Truncate => "truncate",
            FaultKind::Corrupt => "corrupt",
        }
    }
}

/// A reproducible fault schedule.
///
/// Two layers compose, explicit schedule first:
///
/// * **Scheduled faults**: exact `call index -> kind` entries via
///   [`FaultPlan::at`]. Call indices are 0-based over every validated
///   `DataMarket::get` for the market's lifetime.
/// * **Seeded random faults**: per-kind probabilities drawn from a
///   [`StdRng`] reseeded *per call index* (`seed ^ mix(index)`), so the
///   decision for call `i` never depends on how many other calls were
///   made first. At most one fault fires per call.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    scheduled: BTreeMap<u64, FaultKind>,
    p_unavailable: f64,
    p_stall: f64,
    stall_millis: u64,
    p_truncate: f64,
    p_corrupt: f64,
    /// Optional cap on total injections (schedule entries included).
    max_faults: Option<u64>,
}

impl FaultPlan {
    /// A plan that never injects anything (useful as a determinism control:
    /// an attached empty plan must be bit-identical to no injector at all).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An empty random plan reproducible from `seed`; add probabilities
    /// with the `with_*` builders.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// A moderately hostile preset exercising all four fault kinds, used by
    /// `tests/fault_matrix.rs` and the server's `PAYLESS_FAULT_SEED`, and
    /// reproducible from `seed` alone.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan::seeded(seed)
            .with_unavailable(0.12)
            .with_stall(0.05, 1)
            .with_truncate(0.08)
            .with_corrupt(0.08)
    }

    /// Schedule `kind` to fire at exactly the `index`-th market call.
    pub fn at(mut self, index: u64, kind: FaultKind) -> Self {
        self.scheduled.insert(index, kind);
        self
    }

    /// Probability of a transient unbilled `Unavailable` per call.
    pub fn with_unavailable(mut self, p: f64) -> Self {
        self.p_unavailable = p;
        self
    }

    /// Probability of a latency stall per call, and its duration.
    pub fn with_stall(mut self, p: f64, millis: u64) -> Self {
        self.p_stall = p;
        self.stall_millis = millis;
        self
    }

    /// Probability of a billed-but-truncated delivery per call.
    pub fn with_truncate(mut self, p: f64) -> Self {
        self.p_truncate = p;
        self
    }

    /// Probability of a billed-but-corrupt payload per call.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.p_corrupt = p;
        self
    }

    /// Stop injecting after `n` faults have fired.
    pub fn with_max_faults(mut self, n: u64) -> Self {
        self.max_faults = Some(n);
        self
    }

    /// The fault (if any) this plan assigns to call `index`. Pure: the
    /// answer depends only on the plan and `index`.
    pub fn fault_for(&self, index: u64) -> Option<FaultKind> {
        if let Some(&kind) = self.scheduled.get(&index) {
            return Some(kind);
        }
        let total = self.p_unavailable + self.p_stall + self.p_truncate + self.p_corrupt;
        if total <= 0.0 {
            return None;
        }
        // Reseed per call index so decisions are order-independent.
        let mut rng = StdRng::seed_from_u64(self.seed ^ mix(index));
        let u: f64 = rng.random_range(0.0..1.0);
        let mut edge = self.p_unavailable;
        if u < edge {
            return Some(FaultKind::Unavailable);
        }
        edge += self.p_stall;
        if u < edge {
            return Some(FaultKind::Stall {
                millis: self.stall_millis,
            });
        }
        edge += self.p_truncate;
        if u < edge {
            return Some(FaultKind::Truncate);
        }
        edge += self.p_corrupt;
        if u < edge {
            return Some(FaultKind::Corrupt);
        }
        None
    }
}

/// SplitMix64 finalizer: decorrelates consecutive call indices before they
/// perturb the plan seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Attachable fault source for a [`crate::DataMarket`].
///
/// Owns the global call counter the plan is evaluated against, plus
/// always-on injection accounting (independent of telemetry, so tests can
/// reconcile billing even with tracing off).
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    calls: AtomicU64,
    injected: Mutex<BTreeMap<&'static str, u64>>,
    wasted_pages: AtomicU64,
}

impl FaultInjector {
    /// Build an injector over a plan, ready for
    /// `DataMarket::attach_fault_injector`.
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        Arc::new(FaultInjector {
            plan,
            ..FaultInjector::default()
        })
    }

    /// Consume one call index and decide its fault. Respects the plan's
    /// `max_faults` cap.
    pub(crate) fn decide(&self) -> Option<FaultKind> {
        let index = self.calls.fetch_add(1, Ordering::Relaxed);
        let kind = self.plan.fault_for(index)?;
        if let Some(cap) = self.plan.max_faults {
            if self.injections_total() >= cap {
                return None;
            }
        }
        Some(kind)
    }

    /// Record that a fault actually fired, billing `wasted_pages` without a
    /// usable delivery (0 for `Unavailable` and `Stall`).
    pub(crate) fn note(&self, kind: FaultKind, wasted_pages: u64) {
        *self
            .injected
            .lock()
            .unwrap()
            .entry(kind.label())
            .or_insert(0) += 1;
        self.wasted_pages.fetch_add(wasted_pages, Ordering::Relaxed);
    }

    /// Calls the injector has seen (faulted or not).
    pub fn calls_seen(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Injection counts per fault-kind label, sorted by label.
    pub fn injections(&self) -> Vec<(&'static str, u64)> {
        self.injected
            .lock()
            .unwrap()
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// Total faults that actually fired.
    pub fn injections_total(&self) -> u64 {
        self.injected.lock().unwrap().values().sum()
    }

    /// Pages billed without a usable delivery, over the injector lifetime.
    /// The reconciliation tests' ground truth: with retries enabled, the
    /// meter's total must equal a fault-free run's total plus this.
    pub fn wasted_pages(&self) -> u64 {
        self.wasted_pages.load(Ordering::Relaxed)
    }
}

/// Mangle an encoded response body so that `decode_rows` must reject it.
///
/// Dropping the final byte is guaranteed detectable: a valid body is
/// self-delimiting (`u32` row count up front, every declared row fully
/// present, no trailing bytes), so any strict prefix fails to decode.
pub fn corrupt_body(body: &[u8]) -> Vec<u8> {
    match body.split_last() {
        Some((_, rest)) => rest.to_vec(),
        // An empty body is already undecodable (the count needs 4 bytes);
        // hand back a poisoned frame anyway so the caller sees *something*.
        None => vec![0xFF],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_faults_fire_at_exact_indices() {
        let plan = FaultPlan::none()
            .at(0, FaultKind::Unavailable)
            .at(3, FaultKind::Corrupt);
        assert_eq!(plan.fault_for(0), Some(FaultKind::Unavailable));
        assert_eq!(plan.fault_for(1), None);
        assert_eq!(plan.fault_for(2), None);
        assert_eq!(plan.fault_for(3), Some(FaultKind::Corrupt));
        assert_eq!(plan.fault_for(4), None);
    }

    #[test]
    fn random_schedule_is_order_independent() {
        let plan = FaultPlan::chaos(42);
        let forward: Vec<_> = (0..200).map(|i| plan.fault_for(i)).collect();
        let mut backward: Vec<_> = (0..200).rev().map(|i| plan.fault_for(i)).collect();
        backward.reverse();
        assert_eq!(forward, backward);
        // And reproducible from the seed alone.
        let again = FaultPlan::chaos(42);
        let replay: Vec<_> = (0..200).map(|i| again.fault_for(i)).collect();
        assert_eq!(forward, replay);
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a: Vec<_> = (0..200).map(|i| FaultPlan::chaos(1).fault_for(i)).collect();
        let b: Vec<_> = (0..200).map(|i| FaultPlan::chaos(2).fault_for(i)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn chaos_preset_exercises_every_kind() {
        let plan = FaultPlan::chaos(7);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..2000 {
            if let Some(k) = plan.fault_for(i) {
                seen.insert(k.label());
            }
        }
        assert_eq!(
            seen.into_iter().collect::<Vec<_>>(),
            vec!["corrupt", "stall", "truncate", "unavailable"]
        );
    }

    #[test]
    fn empty_plan_never_faults() {
        let plan = FaultPlan::none();
        assert!((0..1000).all(|i| plan.fault_for(i).is_none()));
    }

    #[test]
    fn max_faults_caps_injections() {
        let injector = FaultInjector::new(
            FaultPlan::seeded(0)
                .with_unavailable(1.0)
                .with_max_faults(2),
        );
        let mut fired = 0;
        for _ in 0..10 {
            if let Some(k) = injector.decide() {
                injector.note(k, 0);
                fired += 1;
            }
        }
        assert_eq!(fired, 2);
        assert_eq!(injector.calls_seen(), 10);
        assert_eq!(injector.injections(), vec![("unavailable", 2)]);
    }

    #[test]
    fn corrupt_body_always_mangles() {
        assert_eq!(corrupt_body(&[1, 2, 3]), vec![1, 2]);
        assert_eq!(corrupt_body(&[]), vec![0xFF]);
    }
}
