//! `chaos` — the resilience differential grid (DESIGN.md §13).
//!
//! Serves a fixed two-tenant trace under seeded slot-fault injection
//! across a grid of fault kinds × slot counts × scheduling policies, and
//! verifies the two invariants the resilience layer promises:
//!
//! 1. **Conservation** — every admitted job is accounted for exactly
//!    once: completed, shed at admission, or terminally failed.
//! 2. **Digest identity** — every *completed* job's marshaled outQ
//!    entry stream is bit-identical to a solo fault-free run of the
//!    same shape, however many crashes, hangs, degrades, checkpoints,
//!    and retries it survived.
//!
//! Any violation prints the offending cell and the process exits
//! nonzero, so CI can gate on it directly. Results land in
//! `results/chaos.txt` plus per-tenant `"chaos"` rows (`serve.*` stats)
//! in `results/bench.json`.
//!
//! `TMU_SCALE < 1` shrinks the grid to a four-cell smoke (one combined
//! fault spec, both slot counts, two policies) for fast CI runs.

use std::collections::HashMap;

use tmu_bench::Report;
use tmu_serve::{
    serve, solo_digest, BuildCache, EntryDigest, JobKind, JobSpec, KernelKind, Policy,
    ResilienceConfig, ServeConfig, SlotFaultKind, SlotFaultSpec,
};

fn shapes() -> Vec<JobKind> {
    vec![
        JobKind::Kernel {
            kind: KernelKind::Spmv,
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
        JobKind::Expr {
            src: "y(i) = A(i,j:csr) * x(j)".into(),
            rows: 48,
            nnz_per_row: 3,
            seed: 22,
        },
    ]
}

/// Two copies of every shape across two tenants, arrivals tight enough
/// to contend, a deadline on every job.
fn grid_trace(shapes: &[JobKind]) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for (i, kind) in shapes.iter().enumerate() {
        for copy in 0..2u32 {
            let id = (i as u32) * 2 + copy;
            jobs.push(JobSpec {
                id,
                tenant: copy,
                arrival: u64::from(id) * 1_000,
                weight: if copy == 0 { 3 } else { 1 },
                deadline: Some(u64::from(id) * 1_000 + 30_000),
                kind: kind.clone(),
            });
        }
    }
    jobs
}

/// The fault specs the grid sweeps: one per kind at full scale, one
/// all-kinds spec in the scaled-down smoke.
fn fault_specs(full: bool) -> Vec<(&'static str, SlotFaultSpec)> {
    let spec = |kinds: u8, seed: u64| SlotFaultSpec {
        seed,
        rate_per_1k: 150,
        kinds,
        reboot_cycles: 1_000,
    };
    if full {
        SlotFaultKind::ALL
            .iter()
            .map(|k| (k.name(), spec(k.bit(), 0xC4A05 ^ k.bit() as u64)))
            .collect()
    } else {
        let all = SlotFaultKind::ALL.iter().fold(0u8, |m, k| m | k.bit());
        vec![("all", spec(all, 0xC4A05))]
    }
}

fn main() -> std::process::ExitCode {
    tmu_bench::run_main(run)
}

fn run() -> std::process::ExitCode {
    let full = tmu_bench::scale() >= 1.0;
    let shapes = shapes();
    let mut cache = BuildCache::new();
    let reference: HashMap<JobKind, EntryDigest> = shapes
        .iter()
        .map(|kind| {
            let built = cache.get(kind).expect("shape builds");
            let digest = solo_digest(&built, 0).expect("solo run drains");
            (kind.clone(), digest)
        })
        .collect();
    let trace = grid_trace(&shapes);

    let policies: &[Policy] = if full {
        &[Policy::RoundRobin, Policy::WeightedFair, Policy::Edf]
    } else {
        &[Policy::RoundRobin, Policy::Edf]
    };

    let mut report = Report::new("chaos", "resilience differential grid");
    report.line(format!(
        "{} jobs/cell, retry budget 6, checkpoint every 600 cycles, \
         slot-fault rate 150/1k quanta",
        trace.len()
    ));
    report.line(format!(
        "  {:<8} {:>5} {:>6} {:>5} {:>6} {:>7} {:>5} {:>6} {:>5} {:>7}",
        "faults", "slots", "policy", "done", "failed", "shed", "retry", "ckpt", "inj", "verdict"
    ));

    let mut ok = true;
    let mut injected_total = 0u64;
    for (fault_label, slot_faults) in fault_specs(full) {
        for slots in [1usize, 2] {
            for &policy in policies {
                let cfg = ServeConfig {
                    slots,
                    quantum: 400,
                    policy,
                    ctx_switch_cycles: 250,
                    resilience: ResilienceConfig {
                        slot_faults,
                        retry_budget: 6,
                        backoff_base: 500,
                        backoff_cap: 4_000,
                        checkpoint_every: 600,
                        ..ResilienceConfig::default()
                    },
                    ..ServeConfig::default()
                };
                let out = match serve(cfg, trace.clone()) {
                    Ok(out) => out,
                    Err(e) => {
                        report.line(format!(
                            "  {fault_label}/{slots}/{}: run error: {e}",
                            policy.label()
                        ));
                        ok = false;
                        continue;
                    }
                };
                injected_total += out.slot_faults.injected;
                let conserved = out.conserves(trace.len());
                let diverged: Vec<u32> = out
                    .outcomes
                    .iter()
                    .filter(|o| {
                        let spec = trace.iter().find(|j| j.id == o.id).expect("job in trace");
                        o.digest != reference[&spec.kind]
                    })
                    .map(|o| o.id)
                    .collect();
                let verdict = if !conserved {
                    ok = false;
                    "LOST"
                } else if !diverged.is_empty() {
                    ok = false;
                    "DIVERGED"
                } else {
                    "ok"
                };
                report.line(format!(
                    "  {:<8} {:>5} {:>6} {:>5} {:>6} {:>7} {:>5} {:>6} {:>5} {:>7}",
                    fault_label,
                    slots,
                    match policy {
                        Policy::RoundRobin => "rr",
                        Policy::WeightedFair => "wf",
                        Policy::Edf => "edf",
                    },
                    out.outcomes.len(),
                    out.failed.len(),
                    out.shed_total(),
                    out.retries_total(),
                    out.checkpoints,
                    out.slot_faults.injected,
                    verdict
                ));
                if !diverged.is_empty() {
                    report.line(format!("    diverged jobs: {diverged:?}"));
                }
                for t in tmu_serve::tenant_reports(
                    &out.outcomes,
                    &out.failed,
                    &out.shed,
                    &out.retries,
                    out.makespan,
                ) {
                    report.push_row(tmu_bench::tenant_row(
                        "chaos",
                        format!("{fault_label}-s{slots}"),
                        format!("chaos-{}", policy.label()),
                        &out,
                        &t,
                    ));
                }
            }
        }
    }
    if injected_total == 0 {
        report.line("no slot faults injected anywhere — the grid proved nothing");
        ok = false;
    }
    report.line(format!(
        "chaos grid {}: {} slot fault(s) injected across the grid",
        if ok { "OK" } else { "FAILED" },
        injected_total
    ));
    report.save();
    if ok {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
