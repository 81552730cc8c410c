//! Re-entrant single-core driver for a serving scheduler.
//!
//! [`System::run_accelerated`] drives a fixed set of borrowed engines
//! from cycle 0 to completion — one job per core per run. A serving layer
//! time-sharing a core across many jobs needs the opposite shape: a slot
//! whose clock, core, and memory hierarchy persist while *different*
//! accelerator incarnations come and go. [`ServedCore`]
//! is that slot: each [`ServedCore::drive`] call runs the batch runs' cycle
//! driver on the slot's persistent clock for up to one scheduling quantum,
//! then returns control to the scheduler, which may quiesce the engine,
//! swap in another tenant's context, and call `drive` again. The clock's
//! watchdog window counts driven cycles across quanta, so a job that
//! commits nothing is caught however short its quanta are.
//!
//! The slot accumulates per-tenant busy cycles ([`SlotStats`]) so the
//! serving layer can report who consumed the machine.
//!
//! [`System::run_accelerated`]: crate::System::run_accelerated

use std::collections::BTreeMap;
use std::slice;

use crate::accel::Accelerator;
use crate::core::{Core, CoreConfig};
use crate::driver::{Clock, EngineFeed, EngineQueue};
use crate::memsys::{MemSys, MemSysConfig};
use crate::system::{SimError, DEFAULT_WATCHDOG_CYCLES};

/// Result of one [`ServedCore::drive`] quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveOutcome {
    /// Simulated cycles consumed by this call.
    pub cycles: u64,
    /// Whether the accelerator (and the core consuming its ops) fully
    /// drained — the job segment is complete, nothing is left in flight.
    pub finished: bool,
}

/// Aggregate statistics of one serving slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotStats {
    /// Cycles spent driving jobs.
    pub busy_cycles: u64,
    /// Cycles skipped while the slot sat idle awaiting arrivals.
    pub idle_cycles: u64,
    /// Job segments driven to completion.
    pub segments_finished: u64,
    /// Preemptions (quanta that expired with work still in flight).
    pub preemptions: u64,
    /// Times the slot was rebooted after a crash or hang (fresh core and
    /// memory hierarchy; the clock stays monotonic).
    pub reboots: u64,
    /// Busy cycles attributed per tenant id (deterministic order).
    pub tenant_cycles: BTreeMap<u32, u64>,
}

/// One serving slot: a persistent core + private memory hierarchy whose
/// clock survives across jobs. See the module docs.
#[derive(Debug)]
pub struct ServedCore {
    core: Core,
    mem: MemSys,
    queue: EngineQueue,
    clock: Clock,
    stats: SlotStats,
    slot: usize,
    core_cfg: CoreConfig,
    mem_cfg: MemSysConfig,
}

impl ServedCore {
    /// Builds a slot from a core and memory configuration. The memory
    /// configuration should describe a single-core hierarchy (the slot
    /// owns it exclusively). Both configurations are retained so the slot
    /// can [`reboot`](Self::reboot) after a fault.
    pub fn new(core: CoreConfig, mem: MemSysConfig) -> Self {
        Self {
            core: Core::new(0, core),
            mem: MemSys::new(mem),
            queue: EngineQueue::default(),
            clock: Clock::new(DEFAULT_WATCHDOG_CYCLES),
            stats: SlotStats::default(),
            slot: 0,
            core_cfg: core,
            mem_cfg: mem,
        }
    }

    /// The slot's current simulated cycle.
    pub fn now(&self) -> u64 {
        self.clock.now
    }

    /// Names the slot for diagnostics: the id shows up in watchdog dumps
    /// so a serving-layer hang identifies its fault domain.
    pub fn set_slot(&mut self, slot: usize) {
        self.slot = slot;
    }

    /// The slot id (see [`set_slot`](Self::set_slot)).
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// The slot's accumulated statistics.
    pub fn stats(&self) -> &SlotStats {
        &self.stats
    }

    /// The slot's memory hierarchy — mutable so a scheduler can pass it
    /// to an engine's quiesce path (sealing the open outQ chunk issues
    /// accelerator writes at deschedule time).
    pub fn mem_mut(&mut self) -> &mut MemSys {
        &mut self.mem
    }

    /// Overrides the no-progress watchdog window. The window counts the
    /// slot's driven cycles across quanta; idle gaps, context switches,
    /// host charges, hangs and reboots do not count.
    pub fn set_watchdog(&mut self, cycles: u64) {
        self.clock.window = cycles.max(1);
    }

    /// Jumps the slot clock forward to `cycle` (an idle gap before the
    /// next arrival). No-op if the slot is already past it.
    pub fn skip_idle_to(&mut self, cycle: u64) {
        if cycle > self.clock.now {
            let delta = cycle - self.clock.now;
            self.clock.jump(slice::from_mut(&mut self.core), delta);
            self.stats.idle_cycles += delta;
        }
    }

    /// Advances the slot by up to `quantum` cycles while driving `accel`,
    /// attributing the consumed cycles to `tenant`. Returns early with
    /// `finished: true` as soon as the engine reports done, its op stream
    /// has drained, and the core is idle.
    ///
    /// The quantum is a scheduling bound, not a correctness bound: the
    /// caller decides whether to preempt (quiesce the engine) or grant
    /// another quantum when the call returns unfinished.
    pub fn drive(
        &mut self,
        accel: &mut dyn Accelerator,
        tenant: u32,
        quantum: u64,
    ) -> Result<DriveOutcome, SimError> {
        let start = self.clock.now;
        let mut feed = EngineFeed {
            accel,
            queue: &mut self.queue,
        };
        let finished = self.clock.drive(
            slice::from_mut(&mut self.core),
            slice::from_mut(&mut feed),
            &mut self.mem,
            quantum,
            Some((self.slot, tenant)),
        )?;
        Ok(self.outcome(start, tenant, finished))
    }

    /// Drives `accel` until it fully drains, with no quantum bound (used
    /// to flush a parked engine's sealed-chunk ops after a quiesce).
    pub fn drain(&mut self, accel: &mut dyn Accelerator, tenant: u32) -> Result<u64, SimError> {
        let out = self.drive(accel, tenant, u64::MAX)?;
        debug_assert!(out.finished, "unbounded drive only returns on drain");
        Ok(out.cycles)
    }

    /// Charges `cycles` of host-side work to the slot, attributed to
    /// `tenant`. Application pipelines use this for the dense
    /// stage-boundary phases that run on the core but outside any engine
    /// drive (axpy/dot updates, convergence tests, contribution
    /// refreshes): the slot's clock advances and the cycles count as
    /// busy, not idle.
    pub fn charge_busy(&mut self, tenant: u32, cycles: u64) {
        if cycles == 0 {
            return;
        }
        self.clock.jump(slice::from_mut(&mut self.core), cycles);
        self.bill(tenant, cycles);
    }

    /// Rebuilds the slot after a crash or hang: fresh core and memory
    /// hierarchy from the retained configurations, all in-flight state of
    /// the dead incarnation discarded. The clock stays monotonic and
    /// skips forward to `restart_at` (the configured reboot delay).
    pub fn reboot(&mut self, restart_at: u64) {
        self.core = Core::new(0, self.core_cfg);
        self.mem = MemSys::new(self.mem_cfg);
        self.queue = EngineQueue::default();
        self.stats.reboots += 1;
        self.skip_idle_to(restart_at);
    }

    /// Discards the op stream and core pipeline state of a dead engine
    /// incarnation without rebooting the slot (caches stay warm, no
    /// penalty). Required before reusing a slot whose engine was torn
    /// down mid-quantum: the core may still hold that engine's chunk-end
    /// markers, and letting them drain would ack chunks the *next*
    /// incarnation hasn't produced.
    pub fn flush_inflight(&mut self) {
        self.core = Core::new(0, self.core_cfg);
        self.queue = EngineQueue::default();
    }

    /// Simulates a slot hang caught by the progress watchdog: the slot
    /// burns one full watchdog window with no forward progress (the
    /// cycles are attributed to `tenant`, whose job occupied the slot),
    /// then reports the same typed [`SimError::Watchdog`] — including
    /// the diagnostic dump — that a genuine wedge inside
    /// [`drive`](Self::drive) produces. The caller decides what survives:
    /// typically it discards the engine and [`reboot`](Self::reboot)s.
    pub fn hang(&mut self, accel: &dyn Accelerator, tenant: u32) -> SimError {
        let window = self.clock.window;
        self.clock.jump(slice::from_mut(&mut self.core), window);
        self.bill(tenant, window);
        self.clock.fire(
            slice::from_ref(&self.core),
            &self.mem,
            &[accel.status_line()],
            Some((self.slot, tenant)),
        )
    }

    fn outcome(&mut self, start: u64, tenant: u32, finished: bool) -> DriveOutcome {
        let cycles = self.clock.now - start;
        self.bill(tenant, cycles);
        if finished {
            self.stats.segments_finished += 1;
        } else {
            self.stats.preemptions += 1;
        }
        DriveOutcome { cycles, finished }
    }

    /// Counts `cycles` as busy time of `tenant`.
    fn bill(&mut self, tenant: u32, cycles: u64) {
        self.stats.busy_cycles += cycles;
        *self.stats.tenant_cycles.entry(tenant).or_insert(0) += cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::NullAccelerator;
    use crate::op::{Deps, Op, OpId, OpKind, Site};

    fn slot() -> ServedCore {
        ServedCore::new(CoreConfig::neoverse_n1_like(), MemSysConfig::table5(1))
    }

    /// Emits `n` int ops, one per tick, then reports done.
    #[derive(Debug)]
    struct Ticker {
        left: u64,
        next: u64,
    }

    impl Accelerator for Ticker {
        fn tick(&mut self, _now: u64, _core: usize, _mem: &mut MemSys) {
            if self.left > 0 {
                self.left -= 1;
                self.next += 1;
            }
        }
        fn drain_ops(&mut self, out: &mut Vec<Op>) {
            if self.next > 0 {
                out.push(Op {
                    id: OpId(self.next),
                    site: Site(1),
                    kind: OpKind::IntAlu,
                    deps: Deps::NONE,
                    visible_at: 0,
                });
                self.next = 0;
            }
        }
        fn ack_chunk(&mut self, _chunk: u32, _now: u64) {}
        fn done(&self) -> bool {
            self.left == 0
        }
    }

    #[test]
    fn quantum_bounds_a_drive_and_the_clock_persists() {
        let mut s = slot();
        let mut accel = Ticker { left: 500, next: 0 };
        let out = s.drive(&mut accel, 7, 100).expect("no wedge");
        assert!(!out.finished);
        assert_eq!(out.cycles, 100);
        assert_eq!(s.now(), 100);
        let out = s.drive(&mut accel, 7, u64::MAX).expect("no wedge");
        assert!(out.finished);
        assert!(s.now() > 500, "all 500 ops must commit");
        assert_eq!(s.stats().preemptions, 1);
        assert_eq!(s.stats().segments_finished, 1);
        assert_eq!(
            s.stats().tenant_cycles.get(&7).copied(),
            Some(s.stats().busy_cycles)
        );
    }

    #[test]
    fn idle_gaps_are_skipped_and_accounted() {
        let mut s = slot();
        s.skip_idle_to(10_000);
        assert_eq!(s.now(), 10_000);
        assert_eq!(s.stats().idle_cycles, 10_000);
        // Skipping backwards is a no-op.
        s.skip_idle_to(5_000);
        assert_eq!(s.now(), 10_000);
        let mut accel = NullAccelerator;
        let out = s.drive(&mut accel, 0, 50).expect("drains");
        assert!(out.finished, "a null job drains immediately");
        assert!(s.now() >= 10_000);
    }

    /// Busy forever, produces nothing: the watchdog must fire even though
    /// the scheduler asked for an unbounded drain.
    #[derive(Debug)]
    struct Wedged;

    impl Accelerator for Wedged {
        fn tick(&mut self, _now: u64, _core: usize, _mem: &mut MemSys) {}
        fn drain_ops(&mut self, _out: &mut Vec<Op>) {}
        fn ack_chunk(&mut self, _chunk: u32, _now: u64) {}
        fn done(&self) -> bool {
            false
        }
        fn status_line(&self) -> String {
            "wedged-tenant-job".into()
        }
    }

    #[test]
    fn watchdog_fires_inside_a_drive() {
        let mut s = slot();
        s.set_watchdog(5_000);
        s.set_slot(2);
        match s.drive(&mut Wedged, 3, u64::MAX) {
            Err(SimError::Watchdog { window, dump, .. }) => {
                assert_eq!(window, 5_000);
                assert!(dump.contains("wedged-tenant-job"));
                // Satellite pin: the dump names the fault domain — slot
                // id and tenant id — not just the system.
                assert!(dump.contains("slot 2"), "dump names the slot:\n{dump}");
                assert!(dump.contains("tenant 3"), "dump names the tenant:\n{dump}");
            }
            other => panic!("expected watchdog, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_window_spans_quanta() {
        let mut s = slot();
        s.set_watchdog(5_000);
        let err = loop {
            match s.drive(&mut Wedged, 3, 100) {
                Ok(out) => assert!(!out.finished && s.now() <= 5_100, "wedge undetected"),
                Err(e) => break e,
            }
        };
        assert!(
            matches!(
                err,
                SimError::Watchdog {
                    cycle: ..=5_100,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn injected_hang_burns_one_window_and_types_the_error() {
        let mut s = slot();
        s.set_watchdog(5_000);
        s.set_slot(1);
        let before = s.now();
        match s.hang(&Wedged, 4) {
            SimError::Watchdog {
                cycle,
                window,
                dump,
            } => {
                assert_eq!(window, 5_000);
                assert_eq!(cycle, before + 5_000);
                assert!(dump.contains("slot 1"));
                assert!(dump.contains("tenant 4"));
            }
            other => panic!("expected watchdog, got {other:?}"),
        }
        assert_eq!(s.now(), before + 5_000);
        assert_eq!(s.stats().busy_cycles, 5_000, "hang cycles count as busy");
        assert_eq!(s.stats().tenant_cycles.get(&4).copied(), Some(5_000));
    }

    #[test]
    fn charge_busy_advances_the_clock_and_attributes_the_tenant() {
        let mut s = slot();
        s.charge_busy(5, 1_200);
        assert_eq!(s.now(), 1_200);
        assert_eq!(s.stats().busy_cycles, 1_200);
        assert_eq!(s.stats().idle_cycles, 0, "host work is busy, not idle");
        assert_eq!(s.stats().tenant_cycles.get(&5).copied(), Some(1_200));
        s.charge_busy(5, 0);
        assert_eq!(s.now(), 1_200, "zero charge is a no-op");
    }

    #[test]
    fn reboot_keeps_the_clock_monotonic_and_the_slot_usable() {
        let mut s = slot();
        let mut accel = Ticker { left: 200, next: 0 };
        let out = s.drive(&mut accel, 1, 50).expect("no wedge");
        assert!(!out.finished);
        let crashed_at = s.now();
        // The engine incarnation dies with the slot; reboot and prove the
        // fresh core/mem can still run a job to completion.
        s.reboot(crashed_at + 2_000);
        assert_eq!(s.stats().reboots, 1);
        assert_eq!(s.now(), crashed_at + 2_000, "reboot delay is idle time");
        let mut fresh = Ticker { left: 40, next: 0 };
        let out = s.drive(&mut fresh, 1, u64::MAX).expect("no wedge");
        assert!(out.finished, "a rebooted slot serves again");
        assert!(s.now() > crashed_at + 2_000);
    }

    #[test]
    fn flush_inflight_discards_the_dead_incarnations_ops() {
        let mut s = slot();
        let mut accel = Ticker { left: 300, next: 0 };
        let out = s.drive(&mut accel, 6, 40).expect("no wedge");
        assert!(!out.finished, "ops still in flight when the engine dies");
        s.flush_inflight();
        assert_eq!(s.stats().reboots, 0, "a flush is not a reboot");
        // A fresh incarnation on the same slot must drain on its own ops
        // only — nothing left over from the dead one.
        let mut fresh = Ticker { left: 10, next: 0 };
        let out = s.drive(&mut fresh, 6, u64::MAX).expect("no wedge");
        assert!(out.finished);
    }
}
