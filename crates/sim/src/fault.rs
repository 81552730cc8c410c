//! Deterministic fault injection for resilience testing.
//!
//! The paper's §5.6 argues the TMU is OS-friendly because a marshaled
//! load can take a page fault, the engine can quiesce at a traversal-group
//! boundary, save a small architectural context, and resume bit-exactly.
//! This module provides the adversity side of that claim: a seeded
//! [`FaultPlan`] decides — at chosen load ordinals / cycles, or by a
//! seeded rate — when to inject which [`FaultKind`] into an attached
//! engine. The plan itself is pure bookkeeping (no simulator state): the
//! engine consults it at its injection points and reacts, so a plan drives
//! any [`crate::Accelerator`] implementation.
//!
//! Determinism: rate-based plans draw from a SplitMix64 stream seeded by
//! `spec.seed ^ salt` (the salt distinguishes engines of one run), so the
//! same configuration injects the same schedule on every host, worker
//! count, or run.

use serde::{Deserialize, Serialize};

/// The kinds of injected adversity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A marshaled stream load touches an unmapped page (or is NACKed):
    /// the access does not complete and the engine must trap precisely.
    PageFault,
    /// A transient DRAM-level retry: the load completes after an extra
    /// latency penalty. Functionally transparent.
    DramRetry,
    /// A transient NoC-level retry on the request path. Functionally
    /// transparent, like [`FaultKind::DramRetry`].
    NocRetry,
    /// The outQ consumer side applies backpressure: entry pushes stall
    /// for a configured window. Timing-only.
    OutQStall,
    /// The OS forcibly preempts the engine: quiesce, save context, and
    /// resume after the service window.
    Preempt,
}

impl FaultKind {
    /// Every kind, in discriminant order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::PageFault,
        FaultKind::DramRetry,
        FaultKind::NocRetry,
        FaultKind::OutQStall,
        FaultKind::Preempt,
    ];

    /// Kinds consulted per issued load (the rest are cycle-triggered).
    pub const LOAD_KINDS: [FaultKind; 3] = [
        FaultKind::PageFault,
        FaultKind::DramRetry,
        FaultKind::NocRetry,
    ];

    /// Stable bitmask bit for [`FaultSpec::kinds`].
    pub fn bit(self) -> u8 {
        match self {
            FaultKind::PageFault => 1 << 0,
            FaultKind::DramRetry => 1 << 1,
            FaultKind::NocRetry => 1 << 2,
            FaultKind::OutQStall => 1 << 3,
            FaultKind::Preempt => 1 << 4,
        }
    }

    /// Stable display name (used in stats dumps and trace payload docs).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::PageFault => "page_fault",
            FaultKind::DramRetry => "dram_retry",
            FaultKind::NocRetry => "noc_retry",
            FaultKind::OutQStall => "outq_stall",
            FaultKind::Preempt => "preempt",
        }
    }
}

/// Declarative fault configuration. Plain `Copy` data so it can ride
/// inside engine configurations (the TMU carries one in `TmuConfig`) and
/// participate in memo keys via `Debug`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Seed of the injection schedule (combined with a per-engine salt).
    pub seed: u64,
    /// Expected injected faults per 100 000 issued loads; 0 disables
    /// rate-based injection entirely.
    pub rate_per_100k: u32,
    /// Bitmask of enabled [`FaultKind`]s (see [`FaultKind::bit`]).
    pub kinds: u8,
    /// Simulated OS fault-service latency in cycles (quiesce → resume).
    pub service_cycles: u32,
    /// Extra completion latency of a DRAM/NoC retry, in cycles.
    pub retry_cycles: u32,
    /// Length of an injected outQ backpressure stall, in cycles.
    pub stall_cycles: u32,
    /// Page faults the simulated OS is willing to service; one more and
    /// the engine retires with a typed error (graceful degradation).
    pub max_serviced: u32,
}

impl FaultSpec {
    /// No injection at all — the default, and byte-identical to the
    /// pre-fault-model behaviour.
    pub fn none() -> Self {
        Self {
            seed: 0,
            rate_per_100k: 0,
            kinds: 0,
            service_cycles: 0,
            retry_cycles: 0,
            stall_cycles: 0,
            max_serviced: 0,
        }
    }

    /// Rate-based injection of every fault kind with workable defaults:
    /// 500-cycle OS service window, 64-cycle retries, 256-cycle outQ
    /// stalls, and an effectively unlimited service budget.
    pub fn with_rate(seed: u64, rate_per_100k: u32) -> Self {
        Self {
            seed,
            rate_per_100k,
            kinds: FaultKind::ALL.iter().fold(0, |m, k| m | k.bit()),
            service_cycles: 500,
            retry_cycles: 64,
            stall_cycles: 256,
            max_serviced: u32::MAX,
        }
    }

    /// Whether this spec can ever inject anything.
    pub fn is_active(&self) -> bool {
        self.rate_per_100k > 0 && self.kinds != 0
    }

    /// Whether `kind` is enabled.
    pub fn enables(&self, kind: FaultKind) -> bool {
        self.kinds & kind.bit() != 0
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self::none()
    }
}

/// When a scripted [`FaultEvent`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// At the n-th issued load (0-based ordinal across the engine).
    AtLoad(u64),
    /// At the first tick at or after the given cycle.
    AtCycle(u64),
}

/// One scripted injection: `kind` fires at `trigger`, once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub trigger: FaultTrigger,
    /// What is injected.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// A fault at the n-th issued load.
    pub fn at_load(ordinal: u64, kind: FaultKind) -> Self {
        Self {
            trigger: FaultTrigger::AtLoad(ordinal),
            kind,
        }
    }

    /// A fault at the given cycle.
    pub fn at_cycle(cycle: u64, kind: FaultKind) -> Self {
        Self {
            trigger: FaultTrigger::AtCycle(cycle),
            kind,
        }
    }
}

/// Counters of everything a [`FaultPlan`] injected and how the engine
/// coped. Surfaced through `OutQStats`, the `StatsRegistry`, and
/// `bench.json` rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Total faults injected (all kinds).
    pub injected: u64,
    /// Page faults / NACKs on stream loads.
    pub page_faults: u64,
    /// Transient DRAM retries.
    pub dram_retries: u64,
    /// Transient NoC retries.
    pub noc_retries: u64,
    /// Injected outQ backpressure stalls.
    pub outq_stalls: u64,
    /// Forced preemptions.
    pub preemptions: u64,
    /// Precise traps taken (quiesce + context save).
    pub traps: u64,
    /// Context restores (resume after OS service).
    pub restores: u64,
    /// Faults the OS refused to service (led to retirement).
    pub unserviceable: u64,
}

impl FaultStats {
    /// Records one injected fault of `kind`.
    pub fn record(&mut self, kind: FaultKind) {
        self.injected += 1;
        match kind {
            FaultKind::PageFault => self.page_faults += 1,
            FaultKind::DramRetry => self.dram_retries += 1,
            FaultKind::NocRetry => self.noc_retries += 1,
            FaultKind::OutQStall => self.outq_stalls += 1,
            FaultKind::Preempt => self.preemptions += 1,
        }
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.injected += other.injected;
        self.page_faults += other.page_faults;
        self.dram_retries += other.dram_retries;
        self.noc_retries += other.noc_retries;
        self.outq_stalls += other.outq_stalls;
        self.preemptions += other.preemptions;
        self.traps += other.traps;
        self.restores += other.restores;
        self.unserviceable += other.unserviceable;
    }
}

/// SplitMix64 step — the same generator the vendored `rand` stub uses,
/// inlined so the fault model has no dependency beyond `std`.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Scale factor between the per-load rate and the per-cycle rate of the
/// cycle-triggered kinds (preemptions and outQ stalls are much rarer
/// events than load perturbations at equal `rate_per_100k`).
const CYCLE_RATE_DIVISOR: u64 = 64;

/// A deterministic injection schedule consumed by one engine.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultSpec,
    rng: u64,
    events: Vec<FaultEvent>,
    fired: Vec<bool>,
    loads_seen: u64,
    /// Running injection/recovery counters (the engine also increments
    /// `traps`/`restores`/`unserviceable` here as it reacts).
    pub stats: FaultStats,
}

impl FaultPlan {
    /// A rate-based plan from `spec`; `salt` decorrelates engines sharing
    /// one spec (the TMU uses its outQ base address). Returns `None` for
    /// an inactive spec so fault-free runs carry no plan at all.
    pub fn from_spec(spec: FaultSpec, salt: u64) -> Option<Self> {
        if !spec.is_active() {
            return None;
        }
        Some(Self {
            spec,
            rng: spec.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            events: Vec::new(),
            fired: Vec::new(),
            loads_seen: 0,
            stats: FaultStats::default(),
        })
    }

    /// A scripted plan firing exactly `events` (tests pin injection
    /// points with this). `spec` supplies the latency/service parameters;
    /// its rate is ignored.
    pub fn with_events(spec: FaultSpec, events: Vec<FaultEvent>) -> Self {
        let fired = vec![false; events.len()];
        Self {
            spec,
            rng: spec.seed,
            events,
            fired,
            loads_seen: 0,
            stats: FaultStats::default(),
        }
    }

    /// The latency/service parameters of this plan.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Loads the engine has reported issuing so far.
    pub fn loads_seen(&self) -> u64 {
        self.loads_seen
    }

    fn rate_roll(&mut self, scale: u64) -> bool {
        let rate = u64::from(self.spec.rate_per_100k);
        rate > 0 && splitmix64(&mut self.rng) % (100_000 * scale) < rate
    }

    fn pick(&mut self, candidates: &[FaultKind]) -> Option<FaultKind> {
        let enabled: Vec<FaultKind> = candidates
            .iter()
            .copied()
            .filter(|&k| self.spec.enables(k))
            .collect();
        if enabled.is_empty() {
            return None;
        }
        let i = (splitmix64(&mut self.rng) % enabled.len() as u64) as usize;
        Some(enabled[i])
    }

    fn scripted(&mut self, matches: impl Fn(FaultTrigger) -> bool) -> Option<FaultKind> {
        for (i, ev) in self.events.iter().enumerate() {
            if !self.fired[i] && matches(ev.trigger) {
                self.fired[i] = true;
                return Some(ev.kind);
            }
        }
        None
    }

    /// Consulted by the engine once per load it is about to issue.
    /// Returns the fault to inject on this load, if any, and records it.
    pub fn on_load(&mut self) -> Option<FaultKind> {
        let ordinal = self.loads_seen;
        self.loads_seen += 1;
        let kind = self
            .scripted(|t| t == FaultTrigger::AtLoad(ordinal))
            .or_else(|| {
                if self.rate_roll(1) {
                    self.pick(&FaultKind::LOAD_KINDS)
                } else {
                    None
                }
            })?;
        self.stats.record(kind);
        Some(kind)
    }

    /// Consulted by the engine once per tick for cycle-triggered kinds
    /// (preemption, outQ stall). Records whatever it returns.
    pub fn on_cycle(&mut self, now: u64) -> Option<FaultKind> {
        let kind = self
            .scripted(|t| matches!(t, FaultTrigger::AtCycle(c) if c <= now))
            .or_else(|| {
                if self.rate_roll(CYCLE_RATE_DIVISOR) {
                    self.pick(&[FaultKind::OutQStall, FaultKind::Preempt])
                } else {
                    None
                }
            })?;
        self.stats.record(kind);
        Some(kind)
    }
}

/// Serving-visible slot failures. Where [`FaultKind`] perturbs one engine
/// *inside* a run (and the engine recovers transparently), a slot fault
/// takes out the fault domain the engine runs in: the serving scheduler —
/// not the engine — must react, by restarting the victim job elsewhere or
/// declaring it failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlotFaultKind {
    /// The slot dies outright: core, memory hierarchy, and the engine
    /// incarnation on it are lost. The slot reboots after a configured
    /// delay; the job restarts from its last checkpoint (or from scratch).
    Crash,
    /// The slot wedges: no forward progress until the progress watchdog
    /// fires. The job's incarnation is lost, the slot burns one watchdog
    /// window, then reboots.
    Hang,
    /// The TMU on the slot degrades to unserviceable mid-job (the §5.6
    /// OS refuses further fault service). The slot survives; the job's
    /// incarnation is lost.
    Degrade,
}

impl SlotFaultKind {
    /// Every kind, in discriminant order.
    pub const ALL: [SlotFaultKind; 3] = [
        SlotFaultKind::Crash,
        SlotFaultKind::Hang,
        SlotFaultKind::Degrade,
    ];

    /// Stable bitmask bit for [`SlotFaultSpec::kinds`].
    pub fn bit(self) -> u8 {
        match self {
            SlotFaultKind::Crash => 1 << 0,
            SlotFaultKind::Hang => 1 << 1,
            SlotFaultKind::Degrade => 1 << 2,
        }
    }

    /// Stable display name (stats dumps, trace payload docs, bench text).
    pub fn name(self) -> &'static str {
        match self {
            SlotFaultKind::Crash => "crash",
            SlotFaultKind::Hang => "hang",
            SlotFaultKind::Degrade => "degrade",
        }
    }
}

/// Declarative slot-fault configuration. Plain `Copy` data so it can ride
/// inside a serving configuration the way [`FaultSpec`] rides in
/// `TmuConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotFaultSpec {
    /// Seed of the injection schedule (combined with a per-slot salt).
    pub seed: u64,
    /// Expected injected slot faults per 1 000 completed scheduling
    /// quanta; 0 disables rate-based injection entirely.
    pub rate_per_1k: u32,
    /// Bitmask of enabled [`SlotFaultKind`]s (see [`SlotFaultKind::bit`]).
    pub kinds: u8,
    /// Cycles a crashed or hung slot stays down before it reboots.
    pub reboot_cycles: u64,
}

impl SlotFaultSpec {
    /// No slot faults at all — the default; serving behaviour is
    /// byte-identical to the pre-resilience scheduler.
    pub fn none() -> Self {
        Self {
            seed: 0,
            rate_per_1k: 0,
            kinds: 0,
            reboot_cycles: 0,
        }
    }

    /// Rate-based injection of every slot-fault kind with a 2 000-cycle
    /// reboot penalty.
    pub fn with_rate(seed: u64, rate_per_1k: u32) -> Self {
        Self {
            seed,
            rate_per_1k,
            kinds: SlotFaultKind::ALL.iter().fold(0, |m, k| m | k.bit()),
            reboot_cycles: 2_000,
        }
    }

    /// Whether this spec can ever inject anything.
    pub fn is_active(&self) -> bool {
        self.rate_per_1k > 0 && self.kinds != 0
    }

    /// Whether `kind` is enabled.
    pub fn enables(&self, kind: SlotFaultKind) -> bool {
        self.kinds & kind.bit() != 0
    }
}

impl Default for SlotFaultSpec {
    fn default() -> Self {
        Self::none()
    }
}

/// One scripted slot fault: `kind` fires when the plan is consulted for
/// the `at_quantum`-th time (0-based). Tests pin exact failure points
/// with this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotFaultEvent {
    /// 0-based ordinal of the consultation ([`SlotFaultPlan::on_quantum`]
    /// call) at which the fault fires.
    pub at_quantum: u64,
    /// What is injected.
    pub kind: SlotFaultKind,
}

/// Counters of injected (or observed) slot faults, aggregated by the
/// serving layer across all slots of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotFaultStats {
    /// Total slot faults (all kinds).
    pub injected: u64,
    /// Slot crashes.
    pub crashes: u64,
    /// Slot hangs (watchdog-caught).
    pub hangs: u64,
    /// TMU-unserviceable degrades.
    pub degrades: u64,
}

impl SlotFaultStats {
    /// Records one slot fault of `kind`.
    pub fn record(&mut self, kind: SlotFaultKind) {
        self.injected += 1;
        match kind {
            SlotFaultKind::Crash => self.crashes += 1,
            SlotFaultKind::Hang => self.hangs += 1,
            SlotFaultKind::Degrade => self.degrades += 1,
        }
    }
}

/// A deterministic slot-fault schedule consumed by one serving slot. The
/// scheduler consults it once per completed scheduling quantum that left
/// a job unfinished on the slot ([`SlotFaultPlan::on_quantum`]).
#[derive(Debug, Clone)]
pub struct SlotFaultPlan {
    spec: SlotFaultSpec,
    rng: u64,
    events: Vec<SlotFaultEvent>,
    fired: Vec<bool>,
    quanta_seen: u64,
}

impl SlotFaultPlan {
    /// A rate-based plan from `spec`; `slot_salt` (the slot index)
    /// decorrelates slots sharing one spec. Returns `None` for an
    /// inactive spec so fault-free serving carries no plan at all.
    pub fn from_spec(spec: SlotFaultSpec, slot_salt: u64) -> Option<Self> {
        if !spec.is_active() {
            return None;
        }
        Some(Self {
            spec,
            rng: spec.seed ^ slot_salt.wrapping_mul(0xD6E8_FEB8_6659_FD93),
            events: Vec::new(),
            fired: Vec::new(),
            quanta_seen: 0,
        })
    }

    /// A scripted plan firing exactly `events`; `spec` supplies the
    /// reboot penalty, its rate is ignored.
    pub fn with_events(spec: SlotFaultSpec, events: Vec<SlotFaultEvent>) -> Self {
        let fired = vec![false; events.len()];
        Self {
            spec,
            rng: spec.seed,
            events,
            fired,
            quanta_seen: 0,
        }
    }

    /// The reboot/rate parameters of this plan.
    pub fn spec(&self) -> &SlotFaultSpec {
        &self.spec
    }

    /// Consulted once per completed scheduling quantum that left a job
    /// running on the slot. Returns the slot fault to inject now, if any.
    pub fn on_quantum(&mut self) -> Option<SlotFaultKind> {
        let ordinal = self.quanta_seen;
        self.quanta_seen += 1;
        let scripted = self
            .events
            .iter()
            .enumerate()
            .find(|(i, ev)| !self.fired[*i] && ev.at_quantum == ordinal)
            .map(|(i, ev)| (i, ev.kind));
        match scripted {
            Some((i, kind)) => {
                self.fired[i] = true;
                Some(kind)
            }
            None => {
                let rate = u64::from(self.spec.rate_per_1k);
                if rate > 0 && splitmix64(&mut self.rng) % 1_000 < rate {
                    let enabled: Vec<SlotFaultKind> = SlotFaultKind::ALL
                        .iter()
                        .copied()
                        .filter(|&k| self.spec.enables(k))
                        .collect();
                    if enabled.is_empty() {
                        None
                    } else {
                        let i = (splitmix64(&mut self.rng) % enabled.len() as u64) as usize;
                        Some(enabled[i])
                    }
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only: unwraps on known-Some fixtures
mod tests {
    use super::*;

    #[test]
    fn inactive_spec_builds_no_plan() {
        assert!(FaultPlan::from_spec(FaultSpec::none(), 7).is_none());
        assert!(FaultSpec::none() == FaultSpec::default());
        assert!(!FaultSpec::none().is_active());
        assert!(FaultSpec::with_rate(1, 10).is_active());
    }

    #[test]
    fn scripted_events_fire_once_at_their_trigger() {
        let spec = FaultSpec::with_rate(0, 0); // rate 0: scripted only
        let mut plan = FaultPlan::with_events(
            spec,
            vec![
                FaultEvent::at_load(2, FaultKind::PageFault),
                FaultEvent::at_cycle(100, FaultKind::Preempt),
            ],
        );
        assert_eq!(plan.on_load(), None);
        assert_eq!(plan.on_load(), None);
        assert_eq!(plan.on_load(), Some(FaultKind::PageFault));
        assert_eq!(plan.on_load(), None, "load events fire once");
        assert_eq!(plan.on_cycle(99), None);
        assert_eq!(plan.on_cycle(150), Some(FaultKind::Preempt), "late tick ok");
        assert_eq!(plan.on_cycle(151), None, "cycle events fire once");
        assert_eq!(plan.stats.injected, 2);
        assert_eq!(plan.stats.page_faults, 1);
        assert_eq!(plan.stats.preemptions, 1);
    }

    #[test]
    fn rate_plans_are_deterministic_and_seed_sensitive() {
        let run = |seed: u64, salt: u64| -> Vec<Option<FaultKind>> {
            let mut plan = FaultPlan::from_spec(FaultSpec::with_rate(seed, 5_000), salt).unwrap();
            (0..2_000).map(|_| plan.on_load()).collect()
        };
        assert_eq!(run(1, 0), run(1, 0), "same seed ⇒ same schedule");
        assert_ne!(run(1, 0), run(2, 0), "seed changes the schedule");
        assert_ne!(run(1, 0), run(1, 1), "salt decorrelates engines");
        let injected = run(1, 0).iter().flatten().count();
        assert!(
            (20..200).contains(&injected),
            "5% rate over 2000 loads ≈ 100 faults, got {injected}"
        );
    }

    #[test]
    fn kind_mask_filters_injection() {
        let mut spec = FaultSpec::with_rate(3, 50_000);
        spec.kinds = FaultKind::DramRetry.bit();
        let mut plan = FaultPlan::from_spec(spec, 0).unwrap();
        let kinds: Vec<FaultKind> = (0..500).filter_map(|_| plan.on_load()).collect();
        assert!(!kinds.is_empty());
        assert!(kinds.iter().all(|&k| k == FaultKind::DramRetry));
        assert_eq!(plan.stats.dram_retries as usize, kinds.len());
        assert_eq!(plan.stats.page_faults, 0);
    }

    #[test]
    fn inactive_slot_spec_builds_no_plan() {
        assert!(SlotFaultPlan::from_spec(SlotFaultSpec::none(), 0).is_none());
        assert!(SlotFaultSpec::none() == SlotFaultSpec::default());
        assert!(!SlotFaultSpec::none().is_active());
        assert!(SlotFaultSpec::with_rate(1, 10).is_active());
    }

    #[test]
    fn scripted_slot_events_fire_once_at_their_quantum() {
        let spec = SlotFaultSpec {
            seed: 0,
            rate_per_1k: 0,
            kinds: 0,
            reboot_cycles: 100,
        };
        let mut plan = SlotFaultPlan::with_events(
            spec,
            vec![
                SlotFaultEvent {
                    at_quantum: 1,
                    kind: SlotFaultKind::Crash,
                },
                SlotFaultEvent {
                    at_quantum: 3,
                    kind: SlotFaultKind::Degrade,
                },
            ],
        );
        assert_eq!(plan.on_quantum(), None);
        assert_eq!(plan.on_quantum(), Some(SlotFaultKind::Crash));
        assert_eq!(plan.on_quantum(), None, "events fire once");
        assert_eq!(plan.on_quantum(), Some(SlotFaultKind::Degrade));
        assert_eq!(plan.on_quantum(), None);
    }

    #[test]
    fn rate_slot_plans_are_deterministic_and_slot_decorrelated() {
        let run = |seed: u64, slot: u64| -> Vec<Option<SlotFaultKind>> {
            let mut plan = SlotFaultPlan::from_spec(SlotFaultSpec::with_rate(seed, 100), slot)
                .expect("active spec");
            (0..1_000).map(|_| plan.on_quantum()).collect()
        };
        assert_eq!(run(9, 0), run(9, 0), "same seed ⇒ same schedule");
        assert_ne!(run(9, 0), run(10, 0), "seed changes the schedule");
        assert_ne!(run(9, 0), run(9, 1), "slot salt decorrelates slots");
        let injected = run(9, 0).iter().flatten().count();
        assert!(
            (40..250).contains(&injected),
            "10% rate over 1000 quanta ≈ 100 faults, got {injected}"
        );
    }

    #[test]
    fn slot_kind_mask_filters_injection() {
        let mut spec = SlotFaultSpec::with_rate(5, 500);
        spec.kinds = SlotFaultKind::Hang.bit();
        let mut plan = SlotFaultPlan::from_spec(spec, 0).unwrap();
        let kinds: Vec<SlotFaultKind> = (0..400).filter_map(|_| plan.on_quantum()).collect();
        assert!(!kinds.is_empty());
        assert!(kinds.iter().all(|&k| k == SlotFaultKind::Hang));
    }
}
