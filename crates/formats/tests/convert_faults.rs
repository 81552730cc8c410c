//! Fault-injection coverage for a generated conversion program: the
//! csr→banded conversion runs as an ordinary TMU traversal program, so
//! it must inherit the §5.6 resilience story wholesale — a page fault,
//! transient retry, preemption, or outQ stall anywhere in the schedule
//! may change timing but never the marshaled stream. The outQ entries
//! carry raw operand bits, so equality here is bit-identity.

use std::sync::Arc;

use tmu::{
    CallbackHandler, FaultEvent, FaultKind, FaultPlan, FaultSpec, OutQEntry, TmuAccelerator,
    TmuConfig,
};
use tmu_formats::CsrToBandedTmu;
use tmu_sim::{drive_standalone, Deps, Machine, OpId, VecMachine};
use tmu_tensor::{gen, CsrMatrix};

/// Handler that records the marshaled stream verbatim instead of
/// rebuilding the destination arrays: the stream *is* the conversion's
/// output contract, so it is what must survive faults bit-identically.
#[derive(Debug, Default)]
struct Recorder {
    entries: Vec<OutQEntry>,
}

impl CallbackHandler for Recorder {
    fn handle(&mut self, entry: &OutQEntry, entry_load: OpId, m: &mut VecMachine) {
        self.entries.push(entry.clone());
        m.int_op(Deps::from(entry_load));
    }
}

fn fixture() -> CsrMatrix {
    gen::banded(48, 10, 4, 11)
}

fn recorder_accel(conv: &CsrToBandedTmu, a: &CsrMatrix) -> TmuAccelerator<Recorder> {
    let prog = Arc::new(conv.build_program((0, a.rows()), 4));
    TmuAccelerator::new(
        TmuConfig::paper(),
        prog,
        conv.image_handle(),
        Recorder::default(),
        conv.outq_base(0),
    )
    .expect("the conversion program fits the engine")
}

/// Drives the engine standalone against a private memory system (the
/// infinitely fast core of the timing suite), returning the recorded
/// stream and the cycle count.
fn drive(accel: &mut TmuAccelerator<Recorder>) -> (Vec<OutQEntry>, u64) {
    let now = drive_standalone(accel, 5_000_000).expect("conversion engine must terminate");
    (accel.handler().entries.clone(), now)
}

#[test]
fn csr_to_banded_stream_is_bit_identical_under_the_fault_grid() {
    let a = fixture();
    let conv = CsrToBandedTmu::new(&a);

    // Probe run: the fault-free stream, cycle count, and issued-load
    // count, so injection points can be spread over the real schedule.
    let mut probe = recorder_accel(&conv, &a);
    probe.inject_fault_plan(FaultPlan::with_events(FaultSpec::with_rate(0, 0), vec![]));
    let (clean, clean_cycles) = drive(&mut probe);
    assert!(!clean.is_empty(), "fixture must marshal entries");
    let total_loads = probe.fault_plan().expect("plan attached").loads_seen();
    assert!(total_loads > 4, "fixture must issue loads");

    for kind in FaultKind::ALL {
        for frac in 0u64..4 {
            let mut accel = recorder_accel(&conv, &a);
            let ev = match kind {
                FaultKind::Preempt | FaultKind::OutQStall => {
                    FaultEvent::at_cycle((clean_cycles - 1) * frac / 3, kind)
                }
                _ => FaultEvent::at_load((total_loads - 1) * frac / 3, kind),
            };
            accel.inject_fault_plan(FaultPlan::with_events(FaultSpec::with_rate(0, 0), vec![ev]));
            let (entries, _) = drive(&mut accel);
            assert_eq!(
                entries, clean,
                "{kind:?} at fraction {frac}/3 perturbed the marshaled stream"
            );
            let st = accel.fault_stats();
            assert!(st.injected >= 1, "{kind:?} at {frac}/3 never injected");
            if kind == FaultKind::PageFault || kind == FaultKind::Preempt {
                assert!(st.traps >= 1, "{kind:?} must take a precise trap");
                assert_eq!(st.traps, st.restores, "every trap must restore");
            }
        }
    }
}

#[test]
fn rate_based_faults_preserve_the_converted_matrix() {
    let a = fixture();
    let conv = CsrToBandedTmu::new(&a);
    let mut probe = recorder_accel(&conv, &a);
    probe.inject_fault_plan(FaultPlan::with_events(FaultSpec::with_rate(0, 0), vec![]));
    let (clean, _) = drive(&mut probe);

    for seed in [3u64, 17, 91] {
        let mut accel = recorder_accel(&conv, &a);
        accel.inject_fault_plan(
            FaultPlan::from_spec(FaultSpec::with_rate(seed, 10_000), 0).expect("active spec"),
        );
        let (entries, _) = drive(&mut accel);
        assert!(accel.fault_stats().injected > 0, "seed {seed} was a no-op");
        assert_eq!(entries, clean, "seed {seed} perturbed the stream");
    }

    // And the functional rebuild still matches the software reference.
    let got = conv.convert();
    assert_eq!(got.ptrs(), conv.reference().ptrs());
    assert_eq!(got.deltas(), conv.reference().deltas());
    let bits: Vec<u64> = got.vals().iter().map(|v| v.to_bits()).collect();
    let want: Vec<u64> = conv
        .reference()
        .vals()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(bits, want);
}
