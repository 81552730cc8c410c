//! Fault-domain resilience for the serving layer.
//!
//! Each [`ServedCore`](tmu_sim::ServedCore) slot is a fault domain: a
//! crash, a watchdog-caught hang, or a TMU-unserviceable degrade takes
//! out the engine incarnation on it, and the *scheduler* — not the
//! engine — must recover. This module holds the declarative knobs
//! ([`ResilienceConfig`]: slot chaos, retry budget and backoff,
//! checkpoint cadence, circuit breaker) and the typed vocabulary of what
//! happened ([`JobFault`], [`FailReason`], [`FailedJob`], [`ShedCounts`]),
//! plus the per-tenant [`CircuitBreaker`].
//!
//! Faults enter only at the slot level: a served engine runs the paper
//! configuration without engine-level injection, so every attempt of a
//! job runs the same engine configuration. Admission sheds an arrival
//! when its tenant's queue is full or its breaker is open.
//!
//! The contract the chaos differential grid pins: no silent loss, ever.
//! Every admitted job either completes with an outQ digest bit-identical
//! to its solo replay, or lands in a typed terminal state, and the
//! conservation invariant `arrivals = completed + shed + failed` holds
//! exactly.

use std::fmt;

pub use tmu_sim::{SlotFaultEvent, SlotFaultKind, SlotFaultPlan, SlotFaultSpec, SlotFaultStats};

/// Resilience knobs of a serving run. Plain `Copy` data riding inside
/// [`ServeConfig`](crate::ServeConfig); the default disables every fault
/// source and keeps scheduling behaviour byte-identical to the
/// pre-resilience server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Slot-level chaos schedule (crash / hang / degrade per slot).
    pub slot_faults: SlotFaultSpec,
    /// Retries a faulted job gets beyond its first attempt before it is
    /// declared [`FailedJob`] (terminal, typed).
    pub retry_budget: u32,
    /// Base of the deterministic exponential backoff, in cycles: attempt
    /// `n` (1-based) waits `min(base << (n-1), cap)` before it is
    /// eligible to run again.
    pub backoff_base: u64,
    /// Ceiling of the exponential backoff, in cycles.
    pub backoff_cap: u64,
    /// Cycles of service between periodic job-level checkpoints; 0
    /// disables checkpointing (a faulted job restarts from scratch).
    pub checkpoint_every: u64,
    /// Consecutive job faults of one tenant that trip its circuit
    /// breaker; 0 disables the breaker.
    pub breaker_threshold: u32,
    /// Cycles a tripped breaker stays open (the tenant's arrivals are
    /// shed as `circuit_open` meanwhile).
    pub breaker_open_cycles: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            slot_faults: SlotFaultSpec::none(),
            retry_budget: 3,
            backoff_base: 2_000,
            backoff_cap: 64_000,
            checkpoint_every: 0,
            breaker_threshold: 0,
            breaker_open_cycles: 50_000,
        }
    }
}

impl ResilienceConfig {
    /// Backoff before attempt `attempt` (1-based count of completed
    /// attempts) may run again: deterministic exponential with a cap.
    pub fn backoff_after(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(63);
        self.backoff_base
            .saturating_mul(1u64 << shift)
            .min(self.backoff_cap.max(self.backoff_base))
    }
}

/// What killed one attempt of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobFault {
    /// The serving slot crashed under the job.
    SlotCrash,
    /// The slot hung; the progress watchdog caught it.
    SlotHang,
    /// The TMU engine degraded to unserviceable mid-job.
    Degraded,
}

impl JobFault {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            JobFault::SlotCrash => "slot_crash",
            JobFault::SlotHang => "slot_hang",
            JobFault::Degraded => "degraded",
        }
    }
}

impl fmt::Display for JobFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a job landed in the terminal `Failed` state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// Every attempt in the retry budget faulted.
    RetryBudgetExhausted {
        /// The configured budget (retries beyond the first attempt).
        budget: u32,
        /// The fault that killed the final attempt.
        last: JobFault,
    },
}

impl fmt::Display for FailReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailReason::RetryBudgetExhausted { budget, last } => {
                write!(f, "retry budget ({budget}) exhausted; last fault: {last}")
            }
        }
    }
}

/// A job that terminally failed — the typed end state the no-silent-loss
/// guarantee demands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedJob {
    /// Job id from the trace.
    pub id: u32,
    /// Owning tenant.
    pub tenant: u32,
    /// Report label of the job's shape.
    pub label: String,
    /// Arrival cycle.
    pub arrival: u64,
    /// Attempts consumed (first run + retries).
    pub attempts: u32,
    /// Why the job failed.
    pub reason: FailReason,
}

/// Shed arrivals of one tenant, by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShedCounts {
    /// The tenant's bounded queue was full.
    pub queue_full: u64,
    /// The tenant's circuit breaker was open.
    pub circuit_open: u64,
}

impl ShedCounts {
    /// Total shed arrivals across all causes.
    pub fn total(&self) -> u64 {
        self.queue_full + self.circuit_open
    }
}

/// Per-tenant circuit breaker: after `threshold` consecutive job faults
/// the breaker opens for a cooldown window, during which the tenant's
/// arrivals are shed at admission. A completed job closes the count; a
/// cooled-down breaker re-closes on its next consultation.
#[derive(Debug, Clone, Copy, Default)]
pub struct CircuitBreaker {
    consecutive: u32,
    open_until: Option<u64>,
}

impl CircuitBreaker {
    /// Whether the breaker is open at `now` (re-closes itself once the
    /// cooldown has elapsed).
    pub fn is_open(&mut self, now: u64) -> bool {
        if let Some(t) = self.open_until {
            if now >= t {
                self.open_until = None;
                self.consecutive = 0;
            }
        }
        self.open_until.is_some()
    }

    /// Records one job fault of the tenant. Returns `true` when this
    /// fault tripped the breaker open (the caller counts/traces opens).
    /// A `threshold` of 0 disables the breaker entirely.
    pub fn record_fault(&mut self, now: u64, threshold: u32, open_cycles: u64) -> bool {
        if threshold == 0 {
            return false;
        }
        self.consecutive += 1;
        if self.consecutive >= threshold && self.open_until.is_none() {
            self.open_until = Some(now + open_cycles);
            self.consecutive = 0;
            return true;
        }
        false
    }

    /// Records one completed job of the tenant (resets the consecutive
    /// fault count).
    pub fn record_success(&mut self) {
        if self.open_until.is_none() {
            self.consecutive = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let cfg = ResilienceConfig {
            backoff_base: 1_000,
            backoff_cap: 6_000,
            ..ResilienceConfig::default()
        };
        assert_eq!(cfg.backoff_after(1), 1_000);
        assert_eq!(cfg.backoff_after(2), 2_000);
        assert_eq!(cfg.backoff_after(3), 4_000);
        assert_eq!(cfg.backoff_after(4), 6_000, "capped");
        assert_eq!(cfg.backoff_after(60), 6_000, "huge attempts stay capped");
        // Attempt 0 is clamped into attempt-1 territory.
        assert_eq!(cfg.backoff_after(0), 1_000);
    }

    #[test]
    fn breaker_trips_after_threshold_and_cools_down() {
        let mut b = CircuitBreaker::default();
        assert!(!b.record_fault(100, 3, 1_000));
        assert!(!b.record_fault(200, 3, 1_000));
        assert!(!b.is_open(250));
        assert!(b.record_fault(300, 3, 1_000), "third fault trips");
        assert!(b.is_open(400));
        assert!(b.is_open(1_299));
        assert!(!b.is_open(1_300), "cooldown elapsed");
        // After cooldown the count restarts from zero.
        assert!(!b.record_fault(1_400, 3, 1_000));
        b.record_success();
        assert!(!b.record_fault(1_500, 3, 1_000));
        assert!(!b.record_fault(1_600, 3, 1_000));
        assert!(b.record_fault(1_700, 3, 1_000), "success reset the count");
    }

    #[test]
    fn breaker_threshold_zero_never_trips() {
        let mut b = CircuitBreaker::default();
        for i in 0..100 {
            assert!(!b.record_fault(i, 0, 1_000));
        }
        assert!(!b.is_open(1_000));
    }

    #[test]
    fn default_config_disables_every_fault_source() {
        let cfg = ResilienceConfig::default();
        assert!(!cfg.slot_faults.is_active());
        assert_eq!(cfg.checkpoint_every, 0);
        assert_eq!(cfg.breaker_threshold, 0);
        assert!(cfg.retry_budget > 0, "retries stay armed for genuine hangs");
    }
}
