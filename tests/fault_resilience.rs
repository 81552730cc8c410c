//! Differential fault-resilience suite (§5.6 quiesce/restore).
//!
//! The contract under test: **any** fault schedule — page faults with
//! precise traps and context restores, DRAM/NoC retries, forced
//! preemptions, injected outQ backpressure — may change *when* the TMU
//! engine makes progress, but never *what* it marshals. Every test runs
//! an engine fault-free, reruns it under injection, and requires the
//! recorded outQ entry stream to be bit-identical (`OutQEntry` equality:
//! callback ids, lane masks, and operand bytes).
//!
//! Covered: the five Table 4 kernels (SpMV, SpMSpV, SpMSpM, SpKAdd,
//! SpTTV) on a scripted kind × injection-point grid, two compiled
//! einsum expressions from the front-end, proptest-random rate-based
//! schedules on SpMV, checkpointed restores against full replay on one
//! engine per merge mode, graceful retirement on an unserviceable fault,
//! and the system watchdog firing on a wedged outQ consumer.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use tmu::context::ContextSnapshot;
use tmu::{
    CallbackHandler, FaultEvent, FaultKind, FaultPlan, FaultSpec, Interp, MemImage, OutQEntry,
    OutQStats, Program, TmuAccelerator, TmuConfig, TmuError, STEP_BATCH,
};
use tmu_front::ExprWorkload;
use tmu_kernels::{
    spkadd::Spkadd, spmspm::Spmspm, spmspv::Spmspv, spmv::Spmv, spttv::Spttv,
    trianglecount::TriangleCount,
};
use tmu_sim::{
    drive_standalone, Accelerator, CoreConfig, MemSys, MemSysConfig, Op, OpId, OpKind, SimError,
    System, SystemConfig, VecMachine,
};
use tmu_tensor::gen;

/// Records the marshaled outQ entry stream verbatim.
#[derive(Default)]
struct Recorder {
    entries: Vec<OutQEntry>,
}

impl CallbackHandler for Recorder {
    fn handle(&mut self, entry: &OutQEntry, _entry_load: OpId, _m: &mut VecMachine) {
        self.entries.push(entry.clone());
    }
}

/// One standalone engine over `prog`, with faults per `spec`.
fn recorder_accel(
    prog: &Arc<Program>,
    image: &Arc<MemImage>,
    outq_base: u64,
    spec: FaultSpec,
) -> TmuAccelerator<Recorder> {
    TmuAccelerator::new(
        TmuConfig::paper().with_faults(spec),
        Arc::clone(prog),
        Arc::clone(image),
        Recorder::default(),
        outq_base,
    )
    .expect("the program fits the engine")
}

/// Ticks the engine to completion against a private memory system,
/// acking each sealed chunk the cycle its `ChunkEnd` op drains — the
/// same consumption contract the full-system model follows.
fn drive(accel: &mut TmuAccelerator<Recorder>) -> u64 {
    drive_standalone(accel, 20_000_000).expect("engine must terminate")
}

/// Scripted-grid differential check: one engine fault-free, then one
/// fresh engine per (fault kind × injection point), each required to
/// reproduce the fault-free entry stream bit-for-bit.
fn assert_schedule_immaterial(what: &str, prog: Arc<Program>, image: Arc<MemImage>, base: u64) {
    // Probe with an empty scripted plan: learns the clean entry stream,
    // the cycle count, and how many cachelines the engine really issues
    // (coalesced loads never reach the injector), so injection points
    // land on the live schedule instead of past its end.
    let mut probe = recorder_accel(&prog, &image, base, FaultSpec::none());
    probe.inject_fault_plan(FaultPlan::with_events(FaultSpec::with_rate(0, 0), vec![]));
    let clean_cycles = drive(&mut probe);
    let total_loads = probe
        .fault_plan()
        .expect("probe plan attached")
        .loads_seen();
    let clean = probe.handler().entries.clone();
    assert!(!clean.is_empty(), "{what}: fixture must marshal entries");
    assert!(total_loads > 4, "{what}: fixture must issue loads");

    let kinds = [
        FaultKind::PageFault,
        FaultKind::DramRetry,
        FaultKind::NocRetry,
        FaultKind::Preempt,
        FaultKind::OutQStall,
    ];
    for kind in kinds {
        for frac in [0u64, 1, 2, 3] {
            let event = match kind {
                // Cycle-triggered kinds spread over the clean runtime;
                // load-triggered kinds over the issued-load schedule.
                FaultKind::Preempt | FaultKind::OutQStall => {
                    FaultEvent::at_cycle((clean_cycles - 1) * frac / 3, kind)
                }
                _ => FaultEvent::at_load((total_loads - 1) * frac / 3, kind),
            };
            // `with_rate(0, 0)` injects nothing by rate but keeps the
            // workable service/retry defaults and an unlimited budget —
            // `none()` has a zero budget, which would retire the engine
            // on the first scripted page fault.
            let mut accel = recorder_accel(&prog, &image, base, FaultSpec::none());
            accel.inject_fault_plan(FaultPlan::with_events(
                FaultSpec::with_rate(0, 0),
                vec![event],
            ));
            drive(&mut accel);
            let stats = accel.fault_stats();
            assert!(
                stats.injected >= 1,
                "{what}: {} at point {frac} never injected",
                kind.name()
            );
            assert_eq!(
                accel.handler().entries,
                clean,
                "{what}: outQ diverged under {} at point {frac}",
                kind.name()
            );
        }
    }
}

#[test]
fn spmv_outq_is_fault_schedule_invariant() {
    let w = Spmv::new(&gen::uniform(96, 96, 4, 21));
    let prog = Arc::new(w.build_program((0, 96), 8));
    assert_schedule_immaterial("SpMV", prog, w.image_handle(), w.outq_base(0));
}

#[test]
fn spmspv_outq_is_fault_schedule_invariant() {
    let w = Spmspv::new(&gen::uniform(96, 96, 4, 22), 0.25);
    let prog = Arc::new(w.build_program((0, 96)));
    assert_schedule_immaterial("SpMSpV", prog, w.image_handle(), w.outq_base(0));
}

#[test]
fn spmspm_outq_is_fault_schedule_invariant() {
    let w = Spmspm::new(&gen::uniform(64, 64, 3, 23));
    let prog = Arc::new(w.build_program((0, 64), 8));
    assert_schedule_immaterial("SpMSpM", prog, w.image_handle(), w.outq_base(0));
}

#[test]
fn spkadd_outq_is_fault_schedule_invariant() {
    let w = Spkadd::new(&gen::uniform(128, 96, 3, 24));
    let out_rows = w.reference().rows();
    let prog = Arc::new(w.build_program((0, out_rows)));
    assert_schedule_immaterial("SpKAdd", prog, w.image_handle(), w.outq_base(0));
}

#[test]
fn spttv_outq_is_fault_schedule_invariant() {
    let w = Spttv::new(&gen::random_tensor(&[24, 24, 24], 600, 25));
    let prog = Arc::new(w.build_program((0, w.roots()), 8));
    assert_schedule_immaterial("SpTTV", prog, w.image_handle(), w.outq_base(0));
}

#[test]
fn compiled_expressions_are_fault_schedule_invariant() {
    for src in [
        "y(i) = A(i,j:csr) * x(j)",
        "Z(i,j) = A(i,j:dcsr) + B(i,j:dcsr)",
    ] {
        let w = ExprWorkload::new(src, &gen::uniform(64, 48, 4, 31)).expect("compiles");
        let lowered = w.lowered(8).expect("lanes pre-validated");
        let prog = Arc::new(lowered.program);
        assert_schedule_immaterial(src, prog, w.image_handle(), w.outq_base());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random rate-based schedules through the *config* path (the same
    /// plumbing harness users reach via `TmuConfig::with_faults`): every
    /// seed/rate must reproduce the fault-free SpMV entry stream.
    #[test]
    fn random_fault_schedules_preserve_spmv_outq(
        seed in 1u64..u32::MAX as u64,
        rate in 500u32..25_000,
    ) {
        let w = Spmv::new(&gen::uniform(64, 64, 4, 19));
        let prog = Arc::new(w.build_program((0, 64), 8));
        let image = w.image_handle();
        let base = w.outq_base(0);
        let mut clean = recorder_accel(&prog, &image, base, FaultSpec::none());
        drive(&mut clean);
        let mut accel = recorder_accel(&prog, &image, base, FaultSpec::with_rate(seed, rate));
        drive(&mut accel);
        let stats = accel.fault_stats();
        prop_assert_eq!(&accel.handler().entries, &clean.handler().entries);
        prop_assert_eq!(stats.traps, stats.restores);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// §5.6 external snapshots are idempotent: nested save/restore
    /// cycles with no progress in between (a scheduler preempting a job
    /// the instant it resumes, repeatedly) and randomized back-to-back
    /// preemption quanta must neither perturb the marshaled stream nor
    /// drift the architectural context.
    #[test]
    fn nested_preemption_snapshots_are_idempotent(
        quanta in prop::collection::vec(50u64..3_000, 1..6),
        nested in 1usize..4,
    ) {
        let w = Spmv::new(&gen::uniform(64, 64, 4, 19));
        let prog = Arc::new(w.build_program((0, 64), 8));
        let image = w.image_handle();
        let base = w.outq_base(0);

        let mut clean = recorder_accel(&prog, &image, base, FaultSpec::none());
        drive(&mut clean);
        let clean_entries = clean.handler().entries.clone();

        let mut accel = recorder_accel(&prog, &image, base, FaultSpec::none());
        let mut mem = MemSys::new(MemSysConfig::table5(1));
        let mut now = 0u64;
        let mut sink: Vec<Op> = Vec::new();
        let mut switches = 0usize;
        loop {
            // One quantum, extended until the engine commits at least one
            // step since resume (the progress guarantee any preemptive
            // scheduler must provide).
            let quantum = quanta[switches % quanta.len()];
            let resumed_at = accel.steps_committed();
            let until = now + quantum;
            while !accel.done() && (now < until || accel.steps_committed() == resumed_at) {
                accel.tick(now, 0, &mut mem);
                accel.drain_ops(&mut sink);
                for op in &sink {
                    if let OpKind::ChunkEnd { chunk } = op.kind {
                        accel.ack_chunk(chunk, now);
                    }
                }
                sink.clear();
                now += 1;
                prop_assert!(now < 20_000_000, "preempted engine must terminate");
            }
            if accel.done() {
                break;
            }
            let mut snap = accel.quiesce(now, 0, &mut mem).expect("engine is live");
            accel.drain_ops(&mut sink);
            for op in &sink {
                if let OpKind::ChunkEnd { chunk } = op.kind {
                    accel.ack_chunk(chunk, now);
                }
            }
            sink.clear();
            prop_assert!(accel.parked(), "quiesced engine reports parked");
            let (mut handler, mut stats) = accel.into_parts();
            // Nested preemptions: resume, then quiesce again before a
            // single tick. The re-captured context must be identical to
            // the one just restored — save/restore is a fixed point.
            for _ in 0..nested {
                let mut inner =
                    TmuAccelerator::resume_from(&snap, Arc::clone(&image), handler, base, stats)
                        .expect("snapshot restores");
                let resnap = inner.quiesce(now, 0, &mut mem).expect("fresh resume is live");
                prop_assert_eq!(resnap.steps_completed, snap.steps_completed);
                prop_assert_eq!(resnap.chunks_sealed, snap.chunks_sealed);
                prop_assert_eq!(resnap.entries_produced, snap.entries_produced);
                prop_assert_eq!(resnap.tenant, snap.tenant);
                (handler, stats) = inner.into_parts();
                snap = resnap;
            }
            accel = TmuAccelerator::resume_from(&snap, Arc::clone(&image), handler, base, stats)
                .expect("snapshot restores");
            switches += 1;
        }
        prop_assert_eq!(&accel.handler().entries, &clean_entries);
        prop_assert_eq!(accel.stats().entries, clean.stats().entries);
    }
}

/// Ticks `accel` against `mem` from cycle `now` until it is done or has
/// committed `steps` steps, acking each sealed chunk the cycle its
/// `ChunkEnd` op drains; returns the next cycle.
fn tick_until(
    accel: &mut TmuAccelerator<Recorder>,
    mem: &mut MemSys,
    mut now: u64,
    steps: u64,
) -> u64 {
    let mut sink = Vec::new();
    while !accel.done() && accel.steps_committed() < steps {
        accel.tick(now, 0, mem);
        accel.drain_ops(&mut sink);
        for op in sink.drain(..) {
            if let OpKind::ChunkEnd { chunk } = op.kind {
                accel.ack_chunk(chunk, now);
            }
        }
        now += 1;
        assert!(now < 20_000_000, "engine must terminate");
    }
    now
}

/// A fresh engine driven to `steps` committed steps and quiesced there:
/// its snapshot, its recorder, a copy of its outQ stats, and the memory
/// system and cycle the resumed engine continues from.
fn quiesced_at(
    prog: &Arc<Program>,
    image: &Arc<MemImage>,
    base: u64,
    steps: u64,
) -> (ContextSnapshot, Recorder, OutQStats, MemSys, u64) {
    let mut accel = recorder_accel(prog, image, base, FaultSpec::none());
    let mut mem = MemSys::new(MemSysConfig::table5(1));
    let mut now = tick_until(&mut accel, &mut mem, 0, steps);
    assert_eq!(accel.steps_committed(), steps, "quiesce point reachable");
    let snap = accel.quiesce(now, 0, &mut mem).expect("engine is live");
    now = tick_until(&mut accel, &mut mem, now, u64::MAX);
    let (recorder, stats) = accel.into_parts();
    (snap, recorder, stats, mem, now)
}

/// Each TU's committed consumption, rebuilt by replay from step 0:
/// `step.consumed` summed over the first `steps` steps of a fresh
/// interpreter.
fn replayed_consumption(prog: &Arc<Program>, image: &Arc<MemImage>, steps: u64) -> Vec<Vec<u64>> {
    let mut counts: Vec<Vec<u64>> = prog.layers().iter().map(|l| vec![0; l.tus.len()]).collect();
    let mut interp = Interp::new(Arc::clone(prog), Arc::clone(image));
    for _ in 0..steps {
        let step = interp.next_step().expect("step within the program");
        for &(layer, lane) in &step.consumed {
            counts[layer as usize][lane as usize] += 1;
        }
    }
    counts
}

fn consumption(prog: &Arc<Program>, interp: &Interp) -> Vec<Vec<u64>> {
    prog.layers()
        .iter()
        .enumerate()
        .map(|(l, layer)| {
            (0..layer.tus.len())
                .map(|lane| interp.consumed_elems(l, lane))
                .collect()
        })
        .collect()
}

/// A restore from the snapshot's interpreter checkpoint must resume the
/// engine exactly as a replay from step 0 does (the same snapshot with
/// its checkpoint removed), at quiesce points on both sides of a
/// checkpoint boundary, and must replay fewer than `STEP_BATCH` steps.
///
/// One tick may commit several steps, so an engine can only be quiesced
/// at the committed counts a clean run passes through between ticks. Each
/// target step is tested at the nearest such count on either side (the
/// target itself when it is one).
fn assert_checkpoint_restore_matches_replay(
    what: &str,
    prog: Arc<Program>,
    image: Arc<MemImage>,
    base: u64,
) {
    let mut clean = recorder_accel(&prog, &image, base, FaultSpec::none());
    let mut mem = MemSys::new(MemSysConfig::table5(1));
    let mut reachable = BTreeSet::from([0]);
    let mut now = 0;
    while !clean.done() {
        let next = clean.steps_committed() + 1;
        now = tick_until(&mut clean, &mut mem, now, next);
        reachable.insert(clean.steps_committed());
    }
    let last = clean.steps_committed();
    let batch = STEP_BATCH as u64;
    assert!(
        last > 2 * batch,
        "{what}: fixture spans several checkpoints"
    );
    let mut points = BTreeSet::new();
    for target in [0, 1, batch - 1, batch, batch + 1, last / 2, last] {
        points.extend(reachable.range(..=target).next_back());
        points.extend(reachable.range(target..).next());
    }
    assert!(
        points.iter().any(|&p| 0 < p && p < batch)
            && points.iter().any(|&p| batch <= p && p < 2 * batch),
        "{what}: quiesce points straddle the first checkpoint: {points:?}"
    );
    for steps in points {
        let (snap, recorder, stats, mut mem, now) = quiesced_at(&prog, &image, base, steps);
        let checkpoint_at = snap.checkpoint.as_ref().map_or(0, Interp::steps_generated);
        assert!(
            snap.steps_completed - checkpoint_at < batch,
            "{what} at {steps}: checkpoint at {checkpoint_at} is too old"
        );
        let mut replay = snap.clone();
        replay.checkpoint = None;

        let restored = snap.restore(Arc::clone(&image)).expect("restores");
        let replayed = replay.restore(Arc::clone(&image)).expect("restores");
        assert_eq!(
            restored.elems_issued(),
            replayed.elems_issued(),
            "{what} at {steps}"
        );
        assert_eq!(consumption(&prog, &restored), consumption(&prog, &replayed));
        assert_eq!(
            consumption(&prog, &restored),
            replayed_consumption(&prog, &image, steps),
            "{what} at {steps}: committed consumption"
        );

        let mut fast =
            TmuAccelerator::resume_from(&snap, Arc::clone(&image), recorder, base, stats)
                .expect("snapshot restores");
        let fast_end = tick_until(&mut fast, &mut mem, now, u64::MAX);

        let (_, recorder, stats, mut mem, now) = quiesced_at(&prog, &image, base, steps);
        let mut slow =
            TmuAccelerator::resume_from(&replay, Arc::clone(&image), recorder, base, stats)
                .expect("snapshot restores");
        let slow_end = tick_until(&mut slow, &mut mem, now, u64::MAX);

        assert_eq!(fast_end, slow_end, "{what} at {steps}: finish cycle");
        assert_eq!(fast.handler().entries, slow.handler().entries);
        assert_eq!(fast.handler().entries, clean.handler().entries);
        assert_eq!(fast.stats(), slow.stats(), "{what} at {steps}: outQ stats");
    }
}

#[test]
fn checkpointed_restore_matches_full_replay() {
    let spmv = Spmv::new(&gen::uniform(96, 96, 4, 21));
    assert_checkpoint_restore_matches_replay(
        "SpMV (LockStep)",
        Arc::new(spmv.build_program((0, 96), 8)),
        spmv.image_handle(),
        spmv.outq_base(0),
    );
    let spkadd = Spkadd::new(&gen::uniform(128, 96, 3, 24));
    assert_checkpoint_restore_matches_replay(
        "SpKAdd (DisjMrg)",
        Arc::new(spkadd.build_program((0, spkadd.reference().rows()))),
        spkadd.image_handle(),
        spkadd.outq_base(0),
    );
    let tc = TriangleCount::new(&gen::uniform(64, 64, 4, 26));
    assert_checkpoint_restore_matches_replay(
        "TC (ConjMrg)",
        Arc::new(tc.build_program((0, 64))),
        tc.image_handle(),
        tc.outq_base(0),
    );
}

#[test]
fn unserviceable_fault_retires_instead_of_wedging() {
    let w = Spmv::new(&gen::uniform(64, 64, 4, 19));
    let prog = Arc::new(w.build_program((0, 64), 8));
    let mut accel = recorder_accel(&prog, &w.image_handle(), w.outq_base(0), FaultSpec::none());
    accel.inject_fault_plan(FaultPlan::with_events(
        FaultSpec {
            max_serviced: 0,
            ..FaultSpec::none()
        },
        vec![FaultEvent::at_load(3, FaultKind::PageFault)],
    ));
    drive(&mut accel);
    assert!(
        matches!(
            accel.retired(),
            Some(TmuError::UnserviceableFault { limit: 0, .. })
        ),
        "engine must retire with the typed error, got {:?}",
        accel.retired()
    );
    assert_eq!(accel.fault_stats().unserviceable, 1);
}

/// A TMU engine whose outQ consumer is wedged: chunk acks never arrive,
/// so after two sealed chunks the double-buffer gate stalls the engine
/// forever. The system watchdog must convert that silent hang into a
/// typed error with a diagnostic dump.
struct WedgedConsumer(TmuAccelerator<Recorder>);

impl Accelerator for WedgedConsumer {
    fn tick(&mut self, now: u64, core: usize, mem: &mut MemSys) {
        self.0.tick(now, core, mem);
    }
    fn drain_ops(&mut self, _out: &mut Vec<Op>) {
        // The consumer is wedged: host ops (and their ChunkEnd acks)
        // never reach the core.
        let mut void = Vec::new();
        self.0.drain_ops(&mut void);
    }
    fn ack_chunk(&mut self, _chunk: u32, _now: u64) {}
    fn done(&self) -> bool {
        self.0.done()
    }
    fn status_line(&self) -> String {
        self.0.status_line()
    }
}

#[test]
fn watchdog_converts_a_wedged_outq_into_a_typed_error() {
    let w = Spmv::new(&gen::uniform(96, 96, 4, 21));
    let prog = Arc::new(w.build_program((0, 96), 8));
    let accel = recorder_accel(&prog, &w.image_handle(), w.outq_base(0), FaultSpec::none());
    let cfg = SystemConfig {
        core: CoreConfig::neoverse_n1_like(),
        mem: MemSysConfig::table5(1),
    };
    let mut sys = System::new(cfg);
    sys.set_watchdog(20_000);
    let err = sys
        .run_accelerated(&mut [WedgedConsumer(accel)])
        .expect_err("a wedged consumer must trip the watchdog");
    match err {
        SimError::Watchdog {
            cycle,
            window,
            dump,
            ..
        } => {
            // The wedged engine sleeps on the double-buffer gate; the
            // watchdog must still fire on the cycle full ticks would give.
            assert_eq!(cycle, 20_859);
            assert_eq!(window, 20_000);
            assert!(dump.contains("tmu:"), "dump carries engine state: {dump}");
            assert!(dump.contains("core0:"), "dump carries core state: {dump}");
        }
        other => panic!("expected a watchdog error, got {other:?}"),
    }
}
