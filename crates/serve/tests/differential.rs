//! The serving layer's correctness anchor: under ANY preemption
//! schedule, each job's marshaled outQ entry stream is bit-identical to
//! its solo fault-free run.
//!
//! The grid covers five shapes (four Table 4 kernels plus one einsum
//! expression) × both scheduling policies × randomized preemption
//! quanta. Every served job's digest is compared against a solo run of
//! the same shape; the contended configurations must also actually
//! preempt, or the grid would vacuously pass.

use std::collections::HashMap;

use rand::{Rng, SeedableRng};
use tmu_serve::{
    serve, solo_digest, synthesize, BuildCache, EntryDigest, JobKind, JobSpec, KernelKind, Policy,
    ServeConfig, TraceConfig,
};

/// The differential shape grid: small enough for debug-mode CI, varied
/// enough to cross every marshaling path (CSR matrices, sparse vectors,
/// matrix co-iteration, k-way merge, einsum lowering).
fn shapes() -> Vec<JobKind> {
    vec![
        JobKind::Kernel {
            kind: KernelKind::Spmv,
            rows: 96,
            nnz_per_row: 4,
            seed: 21,
        },
        JobKind::Kernel {
            kind: KernelKind::Spmspv,
            rows: 96,
            nnz_per_row: 4,
            seed: 21,
        },
        JobKind::Kernel {
            kind: KernelKind::Spmspm,
            rows: 48,
            nnz_per_row: 3,
            seed: 23,
        },
        JobKind::Kernel {
            kind: KernelKind::Spkadd,
            rows: 64,
            nnz_per_row: 3,
            seed: 24,
        },
        JobKind::Expr {
            src: "y(i) = A(i,j:csr) * x(j)".into(),
            rows: 48,
            nnz_per_row: 3,
            seed: 22,
        },
    ]
}

/// Solo reference digests, one per shape (digests are outQ-address and
/// schedule independent, so one solo run pins the stream for every job
/// of that shape).
fn solo_references(shapes: &[JobKind]) -> HashMap<JobKind, EntryDigest> {
    let mut cache = BuildCache::new();
    shapes
        .iter()
        .map(|kind| {
            let built = cache.get(kind).expect("shape builds");
            let digest = solo_digest(&built, 0).expect("solo run drains");
            (kind.clone(), digest)
        })
        .collect()
}

/// A two-tenant trace that interleaves every shape with staggered
/// arrivals, so slots contend and the scheduler preempts.
fn grid_trace(shapes: &[JobKind]) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for (i, kind) in shapes.iter().enumerate() {
        for copy in 0..2u32 {
            let id = (i as u32) * 2 + copy;
            jobs.push(JobSpec {
                id,
                tenant: copy,
                // Tight arrivals: everything lands early, forcing queueing.
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
fn preemption_grid_is_bit_identical_to_solo_runs() {
    let shapes = shapes();
    let reference = solo_references(&shapes);
    let trace = grid_trace(&shapes);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5EED_5EED);

    for policy in [Policy::RoundRobin, Policy::WeightedFair] {
        // Three randomized quanta per policy. The grid fixtures run
        // 600–4000 cycles solo, so quanta in the low hundreds force many
        // mid-job switches while ~1500 gives a coarse regime.
        for trial in 0..3 {
            let quantum = rng.gen_range(100u64..1_500);
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
                "{policy:?} q={quantum}: every job must complete"
            );
            for o in &out.outcomes {
                let spec = trace.iter().find(|j| j.id == o.id).expect("job in trace");
                let expect = reference[&spec.kind];
                assert_eq!(
                    o.digest, expect,
                    "{policy:?} q={quantum} trial {trial}: job {} ({}) diverged from its solo run \
                     after {} preemptions",
                    o.id, o.label, o.preemptions
                );
            }
            assert!(
                out.preemptions > 0,
                "{policy:?} q={quantum}: a contended single-slot run must preempt, \
                 or this grid proves nothing"
            );
        }
    }
}

#[test]
fn two_slot_pool_preserves_streams_and_batches_builds() {
    let shapes = shapes();
    let reference = solo_references(&shapes);
    let trace = grid_trace(&shapes);
    let cfg = ServeConfig {
        slots: 2,
        quantum: 8_000,
        policy: Policy::WeightedFair,
        ..ServeConfig::default()
    };
    let out = serve(cfg, trace.clone()).expect("serving run completes");
    assert_eq!(out.outcomes.len(), trace.len());
    for o in &out.outcomes {
        let spec = trace.iter().find(|j| j.id == o.id).expect("job in trace");
        assert_eq!(o.digest, reference[&spec.kind], "job {} diverged", o.id);
    }
    // Two jobs per shape, one build per shape: half the builds batch.
    assert_eq!(out.build_misses, shapes.len() as u64);
    assert_eq!(out.build_hits, shapes.len() as u64);
    assert_eq!(out.shed_total(), 0);
    assert!(out.makespan > 0);
}

#[test]
fn serving_is_deterministic_for_a_fixed_seed() {
    let trace_cfg = TraceConfig {
        tenants: 2,
        jobs: 8,
        mean_gap: 10_000,
        seed: 42,
        with_exprs: true,
        ..TraceConfig::default()
    };
    let cfg = ServeConfig {
        slots: 2,
        quantum: 12_000,
        policy: Policy::RoundRobin,
        ..ServeConfig::default()
    };
    let a = serve(cfg, synthesize(&trace_cfg)).expect("first run");
    let b = serve(cfg, synthesize(&trace_cfg)).expect("second run");
    assert_eq!(a.outcomes, b.outcomes, "same seed must serve identically");
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.preemptions, b.preemptions);
}

#[test]
fn bounded_queues_reject_when_full() {
    // One slow tenant, a one-deep queue, and a burst of simultaneous
    // arrivals: all but the head and the first queued job must reject.
    let kind = JobKind::Kernel {
        kind: KernelKind::Spmv,
        rows: 96,
        nnz_per_row: 4,
        seed: 21,
    };
    let trace: Vec<JobSpec> = (0..5)
        .map(|id| JobSpec {
            id,
            tenant: 0,
            arrival: 0,
            weight: 1,
            deadline: None,
            kind: kind.clone(),
        })
        .collect();
    let cfg = ServeConfig {
        slots: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    };
    let out = serve(cfg, trace).expect("serving run completes");
    let done = out.outcomes.len() as u64;
    let rejected = out.shed_total();
    assert_eq!(done + rejected, 5);
    assert!(rejected >= 3, "a one-deep queue must shed the burst");
}
