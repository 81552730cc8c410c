//! Every instrumented layer fires in the default build.
//!
//! The trace sites in `tmu-sim`, `tmu`, `tmu-backends` and `tmu-formats`
//! are compiled into every build and record only while a tracer is
//! installed. This test runs a handful of tiny jobs under a tracer that
//! between them reach every site, and checks that each event kind those
//! crates emit was recorded against the component that emits it.

use std::collections::BTreeSet;

use tmu::{FaultKind, FaultSpec, TmuConfig};
use tmu_bench::runner::{EngineVariant, InputSpec, Job, RunResult};
use tmu_formats::FormatKind;
use tmu_sim::{Accelerator, CoreConfig, MemSys, MemSysConfig, Op, SimError, System, SystemConfig};
use tmu_trace::{ComponentId, EventKind, TraceConfig, Tracer};

/// Every kind a site in the four instrumented crates emits, with the
/// prefix of the component it is recorded against.
const SITES: [(EventKind, &str); 30] = [
    // tmu-sim: caches, DRAM, the core's top-down and LSQ, the driver's
    // samplers and watchdog.
    (EventKind::CacheHit, "system.core0.l1"),
    (EventKind::CacheMiss, "system.core0.l1"),
    (EventKind::CacheMerge, "system.core0.l1"),
    (EventKind::CacheMiss, "system.llc"),
    (EventKind::DramRowOpen, "system.dram"),
    (EventKind::DramRowHit, "system.dram"),
    (EventKind::LsqStall, "system.core0"),
    (EventKind::StallClass, "system.core0"),
    (EventKind::DramOpenRows, "system.dram"),
    (EventKind::MshrBusy, "system.core0.tmu"),
    (EventKind::WatchdogFired, "system"),
    // tmu: the engine's TUs, traversal groups and outQ, traps, and the
    // context save/restore around them.
    (EventKind::TuFetch, "system.core0.tmu"),
    (EventKind::TgStep, "system.core0.tmu"),
    (EventKind::LayerTransition, "system.core0.tmu"),
    (EventKind::OutQPush, "system.core0.tmu"),
    (EventKind::OutQFull, "system.core0.tmu"),
    (EventKind::OutQOccupancy, "system.core0.tmu"),
    (EventKind::OutQChunksAhead, "system.core0.tmu"),
    (EventKind::ChunkWrite, "system.core0.tmu"),
    (EventKind::ChunkRead, "system.core0.tmu"),
    (EventKind::FaultInjected, "system.core0.tmu"),
    (EventKind::TrapRaised, "system.core0.tmu"),
    (EventKind::CtxSave, "system.tmu.ctx"),
    (EventKind::CtxRestore, "system.tmu.ctx"),
    // tmu-backends: BCSR tiling and the SAM stream fabric.
    (EventKind::FormatConvert, "backends.blocked"),
    (EventKind::TileExtract, "backends.blocked"),
    (EventKind::StreamToken, "backends.sam"),
    (EventKind::MergerStall, "backends.sam"),
    // tmu-formats: conversion cost replays and the autotuner.
    (EventKind::FormatConvert, "formats.convert"),
    (EventKind::AutotunePick, "formats.autotune"),
];

const RMAT9: InputSpec = InputSpec::Rmat {
    scale: 9,
    edges: 4096,
    seed: 7,
};

/// Busy forever and produces nothing: the system watchdog's shape.
struct Wedged;

impl Accelerator for Wedged {
    fn tick(&mut self, _now: u64, _core: usize, _mem: &mut MemSys) {}
    fn drain_ops(&mut self, _out: &mut Vec<Op>) {}
    fn ack_chunk(&mut self, _chunk: u32, _now: u64) {}
    fn done(&self) -> bool {
        false
    }
}

/// Runs `f` under a fresh tracer, so one job's full ring cannot drop
/// another job's events, and adds every (component, kind) pair it
/// recorded to `seen`.
fn traced<R>(seen: &mut BTreeSet<(String, &'static str)>, f: impl FnOnce() -> R) -> (R, Tracer) {
    tmu_trace::install(Tracer::new(TraceConfig::default()));
    let out = f();
    let tracer = tmu_trace::uninstall().expect("tracer installed");
    for (i, component) in tracer.components().iter().enumerate() {
        let ring = tracer.ring(ComponentId(i as u32));
        let kinds: BTreeSet<_> = ring.events().iter().map(|e| e.kind.name()).collect();
        seen.extend(kinds.into_iter().map(|k| (component.clone(), k)));
    }
    (out, tracer)
}

fn run(job: Job) -> RunResult {
    job.run()
        .unwrap_or_else(|unsupported| panic!("{unsupported}"))
}

#[test]
fn every_instrumented_layer_fires_in_the_default_build() {
    let mut seen = BTreeSet::new();

    // SpKAdd on the TMU stalls the LSQ and the outQ double buffer.
    let (_, tracer) = traced(&mut seen, || {
        run(Job::new("SpKAdd", RMAT9, EngineVariant::Tmu))
    });
    let traversals = tracer.registry().counter("system.noc.traversals");
    assert!(traversals.is_some_and(|n| n > 0), "{traversals:?}");

    // Page faults alone: each one traps, saves and restores the context.
    let page_faults = FaultSpec {
        kinds: FaultKind::PageFault.bit(),
        ..FaultSpec::with_rate(1, 2_000)
    };
    let (faulted, _) = traced(&mut seen, || {
        run(Job::new("SpMV", RMAT9, EngineVariant::Tmu)
            .with_tmu(TmuConfig::paper().with_faults(page_faults)))
    });
    let traps: u64 = faulted.outq.iter().map(|o| o.fault_traps).sum();
    assert!(traps > 0, "the fault fixture must trap");

    traced(&mut seen, || {
        run(Job::new("SpMV", RMAT9, EngineVariant::BaselineSve))
    });
    traced(&mut seen, || {
        run(Job::new("SpMV", RMAT9, EngineVariant::BlockedSve))
    });
    // The three-way product's intersect merger waits on its scanners.
    traced(&mut seen, || {
        run(Job::expression(
            "y(i) = A(i,j:csr) * T(j,k,l:csf) * x(l:dense)",
            InputSpec::Rmat {
                scale: 7,
                edges: 1024,
                seed: 7,
            },
            EngineVariant::SamStream,
        ))
    });

    let cfg = SystemConfig {
        core: CoreConfig::neoverse_n1_like(),
        mem: MemSysConfig::table5(1),
    };
    traced(&mut seen, || {
        let a = tmu_tensor::gen::rmat(9, 4096, 7);
        tmu_formats::pick(&a);
        tmu_formats::conversion_cycles(&a, FormatKind::Bcsr, cfg);
    });
    let (wedge, _) = traced(&mut seen, || {
        let mut sys = System::new(cfg);
        sys.set_watchdog(500);
        sys.run_accelerated(&mut [Wedged])
    });
    assert!(matches!(wedge, Err(SimError::Watchdog { .. })), "{wedge:?}");

    let missing: Vec<_> = SITES
        .iter()
        .filter(|(kind, prefix)| {
            !seen
                .iter()
                .any(|(c, k)| *k == kind.name() && c.starts_with(prefix))
        })
        .collect();
    assert!(missing.is_empty(), "never recorded: {missing:?}");
}
