//! `apps` — application pipelines benchmark (DESIGN.md §14).
//!
//! Runs the three built-in `tmu-apps` applications (GNN layer, CG solve,
//! PageRank) two ways and writes `results/apps.txt` plus rows tagged
//! with the `app` (and `stage`) labels, carrying `apps.*` stats, into
//! `results/bench.json`:
//!
//! 1. **Solo breakdown** — each app alone on a fresh slot, unpreempted:
//!    per-stage engine/host cycle split and end-to-end cycles, one
//!    `stage` row per pipeline stage and one end-to-end row per app.
//! 2. **Served mix** — two copies of every app across two tenants on a
//!    two-slot pool with preemptive virtualization. The binary verifies
//!    every served completion digest against the solo reference (the
//!    differential guarantee, enforced at bench time too) and reports
//!    the two-level stage cache's per-tenant hit rates.
//!
//! Environment knobs, each read once at startup:
//! * `TMU_SCALE` — below 1.0 shrinks the grid to a smoke: GNN + CG only,
//!   smaller inputs, fewer iterations (CI runs `TMU_SCALE=0.05`).
//! * `TMU_QUANTUM` — serving quantum in cycles (default 1000).
//! * `TMU_SLOTS` — serving slots in the mix (default 2).
//!
//! Single-threaded and seed-fixed throughout: the report is
//! deterministic for a fixed knob set.

use tmu_apps::{AppKind, AppSpec, StageRecord, TenantCacheStats};
use tmu_bench::json::BenchRow;
use tmu_bench::runner::knob;
use tmu_bench::Report;
use tmu_serve::{serve, solo_app, AppSoloRun, JobKind, JobSpec, Policy, ServeConfig};
use tmu_trace::StatsRegistry;

/// The app grid at the given scale. Below 1.0 the grid shrinks to the
/// GNN + CG smoke with smaller inputs and tighter iteration caps.
fn app_specs(scale: f64) -> Vec<AppSpec> {
    let shrink = |rows: usize| ((rows as f64 * scale) as usize).max(16);
    let mut specs = vec![
        AppSpec {
            app: AppKind::Gnn,
            rows: shrink(48),
            nnz_per_row: 3,
            seed: 23,
            max_iters: 1,
        },
        AppSpec {
            app: AppKind::Cg,
            rows: shrink(64),
            nnz_per_row: 4,
            seed: 23,
            max_iters: if scale < 1.0 { 3 } else { 6 },
        },
    ];
    if scale >= 1.0 {
        specs.push(AppSpec {
            app: AppKind::PageRank,
            rows: 64,
            nnz_per_row: 4,
            seed: 23,
            max_iters: 5,
        });
    }
    specs
}

fn job_kind(spec: &AppSpec) -> JobKind {
    JobKind::App {
        app: spec.app,
        rows: spec.rows as u32,
        nnz_per_row: spec.nnz_per_row as u32,
        seed: spec.seed,
        max_iters: spec.max_iters,
    }
}

/// Sums per-stage records in first-appearance order:
/// `(stage, runs, engine_cycles, host_cycles)`.
fn stage_breakdown(records: &[StageRecord]) -> Vec<(String, u32, u64, u64)> {
    let mut agg: Vec<(String, u32, u64, u64)> = Vec::new();
    for r in records {
        match agg.iter_mut().find(|(s, ..)| *s == r.stage) {
            Some(row) => {
                row.1 += 1;
                row.2 += r.engine_cycles;
                row.3 += r.host_cycles;
            }
            None => agg.push((r.stage.clone(), 1, r.engine_cycles, r.host_cycles)),
        }
    }
    agg
}

/// One `apps` row of `spec` carrying `apps.cycles` and `apps.iterations`:
/// per-stage when `stage` is set, end-to-end otherwise.
fn app_row(
    spec: &AppSpec,
    scale: f64,
    stage: Option<String>,
    cycles: u64,
    iterations: u32,
) -> BenchRow {
    let mut stats = StatsRegistry::new();
    stats.set_counter("apps.cycles", cycles);
    stats.set_counter("apps.iterations", u64::from(iterations));
    BenchRow {
        figure: "apps".into(),
        kernel: spec.app.name().into(),
        input: format!("r{}x{}s{}", spec.rows, spec.nnz_per_row, spec.seed),
        engine: "tmu".into(),
        machine: "table5".into(),
        scale: (scale != 1.0).then_some(scale),
        app: Some(spec.app.name().into()),
        stage,
        stats,
        ..BenchRow::default()
    }
}

fn main() -> std::process::ExitCode {
    tmu_bench::run_main(run)
}

fn run() -> std::process::ExitCode {
    let scale = tmu_bench::scale();
    let quantum = knob("TMU_QUANTUM", 1_000);
    let slots = knob("TMU_SLOTS", 2) as usize;
    let specs = app_specs(scale);

    let mut report = Report::new("apps", "application stage chains: GNN / CG / PageRank");
    report.line(format!(
        "{} app(s) at scale {scale}; served mix: {slots} slot(s), quantum {quantum} cycles",
        specs.len()
    ));

    // Solo unpreempted references: the per-app stage breakdown and the
    // digests every served completion must reproduce.
    let mut solos: Vec<AppSoloRun> = Vec::new();
    for spec in &specs {
        let solo = match solo_app(*spec) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("apps: solo {} failed: {e}", spec.label());
                return std::process::ExitCode::FAILURE;
            }
        };
        report.line("");
        report.line(format!(
            "{}: {} iteration(s), {} cycles end-to-end",
            spec.label(),
            solo.iterations,
            solo.cycles
        ));
        report.line(format!(
            "  {:<10} {:>5} {:>12} {:>12}",
            "stage", "runs", "engine-cyc", "host-cyc"
        ));
        for (stage, runs, engine, host) in stage_breakdown(&solo.records) {
            report.line(format!("  {stage:<10} {runs:>5} {engine:>12} {host:>12}"));
            report.push_row(app_row(
                spec,
                scale,
                Some(stage),
                engine + host,
                solo.iterations,
            ));
        }
        solos.push(solo);
    }

    // Served mix: two copies of every app, two tenants, staggered
    // arrivals — the differential guarantee checked at bench time.
    let trace: Vec<JobSpec> = specs
        .iter()
        .enumerate()
        .flat_map(|(i, spec)| {
            (0..2u32).map(move |copy| {
                let id = (i as u32) * 2 + copy;
                JobSpec {
                    id,
                    tenant: copy,
                    arrival: u64::from(id) * 1_000,
                    weight: if copy == 0 { 3 } else { 1 },
                    deadline: None,
                    kind: job_kind(spec),
                }
            })
        })
        .collect();
    let out = match serve(
        ServeConfig {
            slots,
            quantum,
            policy: Policy::WeightedFair,
            ..ServeConfig::default()
        },
        trace.clone(),
    ) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("apps: served mix failed: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    if out.outcomes.len() != trace.len() {
        eprintln!(
            "apps: served mix completed {}/{} jobs",
            out.outcomes.len(),
            trace.len()
        );
        return std::process::ExitCode::FAILURE;
    }
    for o in &out.outcomes {
        let spec_ix = (o.id / 2) as usize;
        if o.digest != solos[spec_ix].digest {
            eprintln!(
                "apps: served job {} ({}) diverged from its solo digest",
                o.id, o.label
            );
            return std::process::ExitCode::FAILURE;
        }
    }

    report.line("");
    report.line(format!(
        "served mix: {} jobs, makespan {} cycles, {} preemption(s), all digests solo-identical",
        out.outcomes.len(),
        out.makespan,
        out.preemptions
    ));
    for (&tenant, stats) in &out.tenant_cache {
        report.line(format!(
            "  tenant{tenant}: cache hit rate {:.3} ({} tensor + {} program hits, \
             {} tensor + {} program misses)",
            out.cache_hit_rate(tenant),
            stats.tensor_hits,
            stats.program_hits,
            stats.tensor_misses,
            stats.program_misses
        ));
    }

    // End-to-end rows: solo cycles and iterations, tagged with the served
    // mix's combined cache hit rate (the stage cache is shared across
    // tenants, so the combined rate is the figure-level number).
    let combined_rate = out
        .tenant_cache
        .values()
        .sum::<TenantCacheStats>()
        .hit_rate();
    for (spec, solo) in specs.iter().zip(&solos) {
        let mut row = app_row(spec, scale, None, solo.cycles, solo.iterations);
        row.stats.set_gauge("apps.cache_hit_rate", combined_rate);
        report.push_row(row);
    }

    report.save();
    std::process::ExitCode::SUCCESS
}
