//! The application-pipeline correctness anchor: every served DAG
//! completion is bit-identical to a solo unpreempted execution of the
//! same app — under any scheduling policy, any preemption quantum, and
//! the full chaos fault grid. Stage boundaries are the only durable
//! restart points, so a faulted stage replays from its boundary and the
//! cumulative cross-stage digest must still land on the solo value.

use std::collections::HashMap;

use rand::{Rng, SeedableRng};
use tmu_serve::{
    serve, solo_app, solo_digest, AppSoloRun, BuildCache, JobKind, JobSpec, KernelKind, Policy,
    ResilienceConfig, ServeConfig, SlotFaultKind, SlotFaultSpec,
};

/// The three built-in applications, at the arrival-pool shapes.
fn app_shapes() -> Vec<JobKind> {
    vec![
        JobKind::App {
            app: tmu_apps::AppKind::Gnn,
            rows: 48,
            nnz_per_row: 3,
            seed: 23,
            max_iters: 1,
        },
        JobKind::App {
            app: tmu_apps::AppKind::Cg,
            rows: 64,
            nnz_per_row: 4,
            seed: 23,
            max_iters: 6,
        },
        JobKind::App {
            app: tmu_apps::AppKind::PageRank,
            rows: 64,
            nnz_per_row: 4,
            seed: 23,
            max_iters: 5,
        },
    ]
}

/// Solo unpreempted reference runs, one per app shape.
fn solo_references(shapes: &[JobKind]) -> HashMap<JobKind, AppSoloRun> {
    shapes
        .iter()
        .map(|kind| {
            let spec = kind.app_spec().expect("app shape");
            (kind.clone(), solo_app(spec).expect("solo app drains"))
        })
        .collect()
}

/// Two tenants, two copies of every app, tight staggered arrivals.
fn app_trace(shapes: &[JobKind]) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for (i, kind) in shapes.iter().enumerate() {
        for copy in 0..2u32 {
            let id = (i as u32) * 2 + copy;
            jobs.push(JobSpec {
                id,
                tenant: copy,
                arrival: u64::from(id) * 1_000,
                weight: if copy == 0 { 3 } else { 1 },
                deadline: None,
                kind: kind.clone(),
            });
        }
    }
    jobs
}

#[test]
fn served_apps_match_solo_runs_under_random_preemption() {
    let shapes = app_shapes();
    let reference = solo_references(&shapes);
    let trace = app_trace(&shapes);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0xA995_5EED);

    for policy in [Policy::RoundRobin, Policy::WeightedFair, Policy::Edf] {
        for trial in 0..2 {
            let quantum = rng.gen_range(150u64..1_200);
            let cfg = ServeConfig {
                slots: 1,
                quantum,
                policy,
                ctx_switch_cycles: 250,
                ..ServeConfig::default()
            };
            let out = serve(cfg, trace.clone()).expect("serving run completes");
            assert_eq!(
                out.outcomes.len(),
                trace.len(),
                "{policy:?} q={quantum}: every app job must complete"
            );
            for o in &out.outcomes {
                let spec = trace.iter().find(|j| j.id == o.id).expect("job in trace");
                assert_eq!(
                    o.digest, reference[&spec.kind].digest,
                    "{policy:?} q={quantum} trial {trial}: app job {} ({}) diverged \
                     from its solo run after {} preemptions",
                    o.id, o.label, o.preemptions
                );
            }
            assert!(
                out.preemptions > 0,
                "{policy:?} q={quantum}: a contended single-slot app mix must preempt"
            );
        }
    }
}

#[test]
fn two_level_cache_shares_builds_across_iterations_and_tenants() {
    let shapes = app_shapes();
    let trace = app_trace(&shapes);
    let cfg = ServeConfig {
        slots: 2,
        quantum: 6_000,
        policy: Policy::WeightedFair,
        ..ServeConfig::default()
    };
    let out = serve(cfg, trace.clone()).expect("serving run completes");
    assert_eq!(out.outcomes.len(), trace.len());

    // Both tenants ran iterative apps: every iteration past the first
    // reuses the compiled stage program, and the second copy of each app
    // reuses the first copy's base tensor.
    let total_program_hits: u64 = out.tenant_cache.values().map(|s| s.program_hits).sum();
    let total_tensor_hits: u64 = out.tenant_cache.values().map(|s| s.tensor_hits).sum();
    assert!(
        total_program_hits > 0,
        "iterative apps must hit the compiled-program cache"
    );
    assert!(
        total_tensor_hits > 0,
        "same-shape app copies must hit the built-tensor cache"
    );
    for (&tenant, stats) in &out.tenant_cache {
        let rate = out.cache_hit_rate(tenant);
        assert!(
            (0.0..=1.0).contains(&rate),
            "tenant {tenant} hit rate {rate} out of range"
        );
        assert_eq!(
            rate > 0.0,
            stats.tensor_hits + stats.program_hits > 0,
            "tenant {tenant}: rate and counters disagree"
        );
    }
}

#[test]
fn mixed_apps_and_kernels_serve_together() {
    let kernel = JobKind::Kernel {
        kind: KernelKind::Spmv,
        rows: 96,
        nnz_per_row: 4,
        seed: 21,
    };
    let gnn = app_shapes().remove(0);
    let mut cache = BuildCache::new();
    let kernel_ref = solo_digest(&cache.get(&kernel).expect("builds"), 0).expect("solo");
    let gnn_ref = solo_app(gnn.app_spec().expect("app")).expect("solo app");

    let mk = |id: u32, kind: &JobKind| JobSpec {
        id,
        tenant: id % 2,
        arrival: u64::from(id) * 500,
        weight: 1,
        deadline: None,
        kind: kind.clone(),
    };
    let trace = vec![mk(0, &kernel), mk(1, &gnn), mk(2, &kernel), mk(3, &gnn)];
    let cfg = ServeConfig {
        slots: 1,
        quantum: 900,
        policy: Policy::RoundRobin,
        ctx_switch_cycles: 250,
        ..ServeConfig::default()
    };
    let out = serve(cfg, trace.clone()).expect("mixed run completes");
    assert_eq!(out.outcomes.len(), 4);
    for o in &out.outcomes {
        let spec = trace.iter().find(|j| j.id == o.id).expect("job in trace");
        let expect = match spec.kind {
            JobKind::App { .. } => gnn_ref.digest,
            _ => kernel_ref,
        };
        assert_eq!(o.digest, expect, "job {} ({}) diverged", o.id, o.label);
    }
    // The kernel batched through the shape memo; the app batched one
    // level down through the stage cache.
    assert!(out.build_hits >= 1, "kernel copies must batch");
    let tensor_hits: u64 = out.tenant_cache.values().map(|s| s.tensor_hits).sum();
    assert!(tensor_hits >= 1, "app copies must share the base tensor");
}

#[test]
fn app_chaos_grid_conserves_and_matches_solo_digests() {
    let shapes = app_shapes();
    let reference = solo_references(&shapes);
    let trace = app_trace(&shapes);
    let mut injected_anywhere = 0u64;

    for kind in SlotFaultKind::ALL {
        for policy in [Policy::RoundRobin, Policy::WeightedFair, Policy::Edf] {
            let cfg = ServeConfig {
                slots: 2,
                quantum: 400,
                policy,
                ctx_switch_cycles: 250,
                resilience: ResilienceConfig {
                    slot_faults: SlotFaultSpec {
                        seed: 0xA995_C4A0 ^ u64::from(kind.bit()),
                        rate_per_1k: 120,
                        kinds: kind.bit(),
                        reboot_cycles: 1_000,
                    },
                    retry_budget: 8,
                    backoff_base: 500,
                    backoff_cap: 4_000,
                    // Periodic checkpoints are requested but apps must
                    // ignore them: their restart points are stage
                    // boundaries only.
                    checkpoint_every: 600,
                    ..ResilienceConfig::default()
                },
                ..ServeConfig::default()
            };
            let label = format!("{}/{policy:?}", kind.name());
            let out = serve(cfg, trace.clone()).expect("chaos run completes");
            assert!(
                out.conserves(trace.len()),
                "{label}: {} completed + {} failed + {} shed != {} admitted",
                out.outcomes.len(),
                out.failed.len(),
                out.shed_total(),
                trace.len()
            );
            for o in &out.outcomes {
                let spec = trace.iter().find(|j| j.id == o.id).expect("job in trace");
                assert_eq!(
                    o.digest, reference[&spec.kind].digest,
                    "{label}: app job {} ({}) diverged from its solo run after \
                     {} retries",
                    o.id, o.label, o.retries
                );
            }
            injected_anywhere += out.slot_faults.injected;
        }
    }
    assert!(
        injected_anywhere > 0,
        "the app chaos grid must actually inject slot faults"
    );
}

#[test]
fn app_serving_is_deterministic() {
    let shapes = app_shapes();
    let trace = app_trace(&shapes);
    let cfg = ServeConfig {
        slots: 2,
        quantum: 500,
        policy: Policy::WeightedFair,
        resilience: ResilienceConfig {
            slot_faults: SlotFaultSpec::with_rate(0xA9_DE7E12, 150),
            retry_budget: 6,
            ..ResilienceConfig::default()
        },
        ..ServeConfig::default()
    };
    let a = serve(cfg, trace.clone()).expect("first run");
    let b = serve(cfg, trace).expect("second run");
    assert_eq!(a.outcomes, b.outcomes, "same seed must serve identically");
    assert_eq!(a.failed, b.failed);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.tenant_cache, b.tenant_cache);
}

#[test]
fn solo_app_references_have_the_expected_shape() {
    let shapes = app_shapes();
    let reference = solo_references(&shapes);
    for (kind, solo) in &reference {
        let JobKind::App { app, max_iters, .. } = kind else {
            unreachable!("app pool")
        };
        assert!(solo.iterations >= 1 && solo.iterations <= *max_iters);
        assert!(!solo.records.is_empty());
        assert!(solo.cycles > 0);
        assert!(
            solo.records.iter().all(|r| r.engine_cycles > 0),
            "{}: every stage must burn engine cycles",
            app.name()
        );
        match app {
            tmu_apps::AppKind::Gnn => {
                assert_eq!(solo.iterations, 1);
                assert_eq!(solo.records.len(), 2, "SDDMM then SpMM");
            }
            tmu_apps::AppKind::Cg | tmu_apps::AppKind::PageRank => {
                assert!(
                    solo.iterations > 1,
                    "{} must iterate at these shapes",
                    app.name()
                );
                assert_eq!(solo.records.len() as u32, solo.iterations);
            }
        }
    }
}
