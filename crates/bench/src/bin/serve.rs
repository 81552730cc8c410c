//! `serve` — the multi-tenant serving benchmark (DESIGN.md §10).
//!
//! Synthesizes an open-loop arrival trace of mixed jobs (Table 4 kernel
//! shapes plus einsum expressions), serves it on a pool of simulated
//! cores with preemptive TMU virtualization, and reports per-tenant
//! throughput and latency percentiles. One row per tenant lands in
//! `results/bench.json`, labeled with its `tenant` and carrying the
//! `serve.*` stats.
//!
//! Environment knobs, each read once at startup:
//! * `TMU_TENANTS` — tenants in the synthetic trace (default 2).
//! * `TMU_SERVE_JOBS` — jobs in the trace (default 24).
//! * `TMU_SLOTS` — serving slots, i.e. simulated cores (default 2).
//! * `TMU_GAP` — mean inter-arrival gap in cycles (default 300; small
//!   against the ~1k-cycle jobs so the pool actually contends).
//! * `TMU_QUANTUM` — scheduling quantum in cycles (default 1000).
//! * `TMU_SEED` — arrival-trace seed (default 0xC0FFEE).
//! * `TMU_POLICY` — `round_robin`/`rr`, `weighted_fair`/`wf`,
//!   `edf`/`earliest_deadline`, or `both` (default) to run the same
//!   trace under round-robin and weighted-fair.
//! * `TMU_ARRIVALS` — inter-arrival distribution: `uniform` (default;
//!   traces byte-identical to the pre-Poisson binary) or `poisson`
//!   (seeded exponential gaps with the same mean).
//! * `TMU_APPS` — set to `1` to mix application-pipeline jobs
//!   (GNN / CG / PageRank DAGs) into the trace alongside kernels and
//!   expressions (default off).
//! * `TMU_CHAOS` — injected slot faults per 1 000 scheduling quanta
//!   (default 0: chaos off, output byte-identical to the
//!   pre-resilience binary).
//! * `TMU_RETRY_BUDGET` — retries a faulted job may consume before it
//!   lands in the typed `Failed` state (default 3).
//! * `TMU_CHECKPOINT_EVERY` — service cycles between periodic job
//!   checkpoints (default 0: checkpoint only on preemption).
//!
//! The serving simulation is a single-threaded discrete-event loop, so
//! the output is deterministic for a fixed seed regardless of
//! `TMU_JOBS` (which only sizes the figure runner's worker pool).

use tmu_bench::runner::knob;
use tmu_bench::Report;
use tmu_serve::{
    serve, synthesize, ArrivalKind, Policy, ResilienceConfig, ServeConfig, SlotFaultSpec,
    TraceConfig,
};

fn policies() -> Vec<Policy> {
    match std::env::var("TMU_POLICY").ok().as_deref() {
        None | Some("both") | Some("") => vec![Policy::RoundRobin, Policy::WeightedFair],
        Some(s) => match Policy::parse(s) {
            Some(p) => vec![p],
            None => {
                eprintln!("warning: TMU_POLICY={s:?} is not a policy; running both");
                vec![Policy::RoundRobin, Policy::WeightedFair]
            }
        },
    }
}

fn main() -> std::process::ExitCode {
    tmu_bench::run_main(run)
}

fn run() -> std::process::ExitCode {
    let arrivals = match std::env::var("TMU_ARRIVALS").ok().as_deref() {
        None | Some("") | Some("uniform") => ArrivalKind::Uniform,
        Some("poisson") => ArrivalKind::Poisson,
        Some(s) => {
            eprintln!("warning: TMU_ARRIVALS={s:?} is not a distribution; using uniform");
            ArrivalKind::Uniform
        }
    };
    let trace_cfg = TraceConfig {
        tenants: knob("TMU_TENANTS", 2) as u32,
        jobs: knob("TMU_SERVE_JOBS", 24) as u32,
        seed: knob("TMU_SEED", 0xC0FFEE),
        mean_gap: knob("TMU_GAP", 300),
        arrivals,
        with_apps: knob("TMU_APPS", 0) != 0,
        ..TraceConfig::default()
    };
    let slots = knob("TMU_SLOTS", 2) as usize;
    let quantum = knob("TMU_QUANTUM", 1_000);
    let chaos_rate = knob("TMU_CHAOS", 0) as u32;
    let resilience = ResilienceConfig {
        slot_faults: if chaos_rate > 0 {
            SlotFaultSpec::with_rate(trace_cfg.seed ^ 0xC4A05, chaos_rate)
        } else {
            SlotFaultSpec::none()
        },
        retry_budget: knob("TMU_RETRY_BUDGET", 3) as u32,
        checkpoint_every: knob("TMU_CHECKPOINT_EVERY", 0),
        ..ResilienceConfig::default()
    };

    let mut report = Report::new("serve", "multi-tenant serving: throughput and latency");
    report.line(format!(
        "trace: {} jobs, {} tenants, seed {:#x}; pool: {} slot(s), quantum {} cycles",
        trace_cfg.jobs, trace_cfg.tenants, trace_cfg.seed, slots, quantum
    ));
    if chaos_rate > 0 {
        report.line(format!(
            "chaos: {chaos_rate}/1k slot-fault rate, retry budget {}, checkpoint every {} cycles",
            resilience.retry_budget, resilience.checkpoint_every
        ));
    }

    for policy in policies() {
        let cfg = ServeConfig {
            slots,
            quantum,
            policy,
            resilience,
            ..ServeConfig::default()
        };
        let trace = synthesize(&trace_cfg);
        let out = match serve(cfg, trace) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("serve: {policy:?} run failed: {e}");
                return std::process::ExitCode::FAILURE;
            }
        };
        report.line("");
        report.line(format!(
            "policy {}: makespan {} cycles, {} preemption(s), builds {} miss / {} hit",
            policy.label(),
            out.makespan,
            out.preemptions,
            out.build_misses,
            out.build_hits
        ));
        // Resilience summary and per-tenant fault lines appear only when
        // something actually faulted/shed, so a chaos-off run's report
        // stays byte-identical to the pre-resilience binary.
        if out.slot_faults.injected > 0
            || !out.failed.is_empty()
            || out.shed_total() > 0
            || out.checkpoints > 0
        {
            report.line(format!(
                "  resilience: {} slot fault(s) ({} crash / {} hang / {} degrade), \
                 {} retry(ies), {} failed, {} shed, {} checkpoint(s) ({} cycles), \
                 {} breaker open(s)",
                out.slot_faults.injected,
                out.slot_faults.crashes,
                out.slot_faults.hangs,
                out.slot_faults.degrades,
                out.retries_total(),
                out.failed.len(),
                out.shed_total(),
                out.checkpoints,
                out.checkpoint_cycles_total(),
                out.breaker_opens
            ));
        }
        report.line(format!(
            "  {:<8} {:>5} {:>4} {:>12} {:>10} {:>10} {:>10}",
            "tenant", "done", "rej", "thr/Mcyc", "p50", "p95", "p99"
        ));
        for t in tmu_serve::tenant_reports(
            &out.outcomes,
            &out.failed,
            &out.rejected,
            &out.retries,
            out.makespan,
        ) {
            report.line(format!(
                "  tenant{:<2} {:>5} {:>4} {:>12.3} {:>10} {:>10} {:>10}",
                t.tenant,
                t.completed,
                t.rejected,
                t.throughput_per_mcycle,
                t.sojourn.p50,
                t.sojourn.p95,
                t.sojourn.p99
            ));
            if t.failed > 0 || t.retries > 0 || t.deadline_misses > 0 {
                report.line(format!(
                    "  tenant{:<2}   {} retry(ies), {} failed, {} deadline miss(es)",
                    t.tenant, t.retries, t.failed, t.deadline_misses
                ));
            }
            report.push_row(tmu_bench::tenant_row(
                "serve",
                format!(
                    "j{}t{}s{:x}",
                    trace_cfg.jobs, trace_cfg.tenants, trace_cfg.seed
                ),
                format!("serve-{}", policy.label()),
                &out,
                &t,
            ));
        }
    }
    report.save();
    std::process::ExitCode::SUCCESS
}
