//! Ablations of the TMU design choices called out in DESIGN.md:
//!
//! 1. **Queue sizing (§5.5)** — the analytical per-layer allocation versus
//!    a uniform split of the per-lane storage.
//! 2. **outQ chunk granularity (§5.3)** — entries per double-buffered
//!    chunk (smaller chunks = lower marshaling latency, more signaling).
//!
//! Engine-side measurements use a standalone accelerator with an
//! infinitely fast core (chunks acknowledged instantly), isolating the
//! engine from core effects; the chunk sweep uses the full system where
//! the core/engine coupling matters.

use std::sync::Arc;

use tmu::{TmuAccelerator, TmuConfig};
use tmu_bench::runner::{bench_row, EngineVariant, InputSpec, Job, Runner};
use tmu_bench::Report;
use tmu_kernels::spmv::{Spmv, SpmvHandler};
use tmu_sim::drive_standalone;
use tmu_tensor::gen;

fn engine_cycles(w: &Spmv, prog: Arc<tmu::Program>, cfg: TmuConfig) -> u64 {
    let handler = SpmvHandler::new(w.x_region(), 0);
    let mut accel = TmuAccelerator::new(cfg, prog, w.image_handle(), handler, w.outq_base(0))
        .expect("SpMV fits the engine");
    drive_standalone(&mut accel, 100_000_000).expect("engine must terminate")
}

fn main() -> std::process::ExitCode {
    tmu_bench::run_main(run)
}

fn run() {
    let mut report = Report::new(
        "ablation",
        "design-choice ablations (engine-side unless noted)",
    );
    let w = Spmv::new(&gen::uniform(8192, 65_536, 8, 77));
    let rows = (0usize, 8192usize);

    // ---- 1. Queue sizing: analytical (§5.5) vs uniform split. ----
    let prog = Arc::new(w.build_program(rows, 8));
    let uniform = Arc::new(prog.with_uniform_weights());
    let analytical_cycles = engine_cycles(&w, Arc::clone(&prog), TmuConfig::paper());
    let uniform_cycles = engine_cycles(&w, uniform, TmuConfig::paper());
    report.line("queue sizing (SpMV, 524k nnz, standalone engine):");
    report.line(format!("  analytical model: {analytical_cycles:>9} cycles"));
    report.line(format!(
        "  uniform split:    {uniform_cycles:>9} cycles ({:+.1}%)",
        (uniform_cycles as f64 / analytical_cycles as f64 - 1.0) * 100.0
    ));
    report.line("");

    // ---- 2. outQ chunk granularity (full system: coupling matters). ----
    report.line("outQ chunk granularity (SpMV, full 8-core system):");
    // Same matrix as the engine probes above, rebuilt by the runner from
    // its generator spec so the sweep can go through the worker pool.
    let input = InputSpec::Uniform {
        rows: 8192,
        cols: 65_536,
        nnz_per_row: 8,
        seed: 77,
    };
    let chunk_sizes = [8usize, 16, 32, 64, 128, 256];
    let jobs: Vec<Job> = chunk_sizes
        .iter()
        .map(|&entries| {
            Job::new("SpMV", input, EngineVariant::Tmu).with_tmu(TmuConfig {
                chunk_entries: entries,
                ..TmuConfig::paper()
            })
        })
        .collect();
    let runner = Runner::new();
    let runs = runner.run_all(&jobs);
    let base = runs[0].stats.cycles;
    for ((&entries, job), run) in chunk_sizes.iter().zip(&jobs).zip(&runs) {
        report.line(format!(
            "  {entries:>4} entries/chunk: {:>9} cycles ({:+.1}%)  r2w {:.2}",
            run.stats.cycles,
            (run.stats.cycles as f64 / base as f64 - 1.0) * 100.0,
            run.read_to_write_ratio()
        ));
        report.push_row(bench_row("ablation", &format!("chunk{entries}"), job, run));
    }
    report.line("");

    // ---- 3. Engine storage scaling (the Figure 14 x-axis, isolated). ----
    report.line("engine storage (SpMV, standalone engine):");
    let mut first = None;
    for kb in [2usize, 4, 8, 16, 32] {
        let cycles = engine_cycles(
            &w,
            Arc::clone(&prog),
            TmuConfig::paper().with_total_storage(kb << 10),
        );
        let base = *first.get_or_insert(cycles);
        report.line(format!(
            "  {kb:>2} KB: {cycles:>9} cycles (speedup over 2 KB: {:.2}x)",
            base as f64 / cycles as f64
        ));
    }
    report.save();
}
