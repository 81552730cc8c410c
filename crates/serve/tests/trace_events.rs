//! The serving layer's new pipeline trace events actually fire: a traced
//! app mix emits `stage_start` / `stage_done` per dispatched stage and
//! `tensor_cache_hit` when the two-level cache serves a base tensor.

use tmu_serve::{serve, JobKind, JobSpec, Policy, ServeConfig};
use tmu_trace::{TraceConfig, Tracer};

#[test]
fn served_apps_emit_stage_and_cache_events() {
    let gnn = JobKind::App {
        app: tmu_apps::AppKind::Gnn,
        rows: 48,
        nnz_per_row: 3,
        seed: 23,
        max_iters: 1,
    };
    // Two copies: the second admission hits the built-tensor cache.
    let mut trace: Vec<JobSpec> = (0..2u32)
        .map(|id| JobSpec {
            id,
            tenant: id,
            arrival: u64::from(id) * 500,
            weight: 1,
            deadline: None,
            kind: gnn.clone(),
        })
        .collect();
    // One kernel job alongside, so the shape memo publishes its
    // counters into the stats registry too.
    trace.push(JobSpec {
        id: 2,
        tenant: 0,
        arrival: 1_000,
        weight: 1,
        deadline: None,
        kind: JobKind::Kernel {
            kind: tmu_serve::KernelKind::Spmv,
            rows: 96,
            nnz_per_row: 4,
            seed: 21,
        },
    });
    tmu_trace::install(Tracer::new(TraceConfig::default()));
    let out = serve(
        ServeConfig {
            slots: 1,
            quantum: 2_000,
            policy: Policy::RoundRobin,
            ..ServeConfig::default()
        },
        trace,
    )
    .expect("traced app mix serves");
    let tracer = tmu_trace::uninstall().expect("tracer installed");
    assert_eq!(out.outcomes.len(), 3);

    // The build-cache counters were mirrored into the stats registry.
    assert_eq!(
        tracer.registry().counter("serve.build_cache.misses"),
        Some(1)
    );

    let json = tracer.chrome_json();
    assert!(json.contains("\"stage_start\""), "{json}");
    assert!(json.contains("\"stage_done\""), "{json}");
    assert!(json.contains("\"tensor_cache_hit\""), "{json}");
}

/// Busy forever, produces nothing: the shape the slot watchdog catches.
struct Wedged;

impl tmu_sim::Accelerator for Wedged {
    fn tick(&mut self, _now: u64, _core: usize, _mem: &mut tmu_sim::MemSys) {}
    fn drain_ops(&mut self, _out: &mut Vec<tmu_sim::Op>) {}
    fn ack_chunk(&mut self, _chunk: u32, _now: u64) {}
    fn done(&self) -> bool {
        false
    }
}

/// Each watchdog firing on a slot — a wedge caught inside a drive, or an
/// injected hang — lands in the trace exactly once.
#[test]
fn each_watchdog_firing_traces_one_event() {
    let mut slot = tmu_sim::ServedCore::new(
        tmu_sim::CoreConfig::neoverse_n1_like(),
        tmu_sim::MemSysConfig::table5(1),
    );
    slot.set_watchdog(500);
    tmu_trace::install(Tracer::new(TraceConfig::default()));
    let wedge = slot.drive(&mut Wedged, 0, 100);
    let wedge = wedge.and_then(|_| slot.drive(&mut Wedged, 0, u64::MAX));
    slot.hang(&Wedged, 0);
    let tracer = tmu_trace::uninstall().expect("tracer installed");
    assert!(wedge.is_err(), "the wedge must trip the watchdog");
    let fired = (0..tracer.components().len() as u32)
        .flat_map(|c| tracer.ring(tmu_trace::ComponentId(c)).events())
        .filter(|e| e.kind == tmu_trace::EventKind::WatchdogFired)
        .count();
    assert_eq!(fired, 2, "one event per firing");
}
