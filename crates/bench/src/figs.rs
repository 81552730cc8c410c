//! Per-figure harness logic (one function per paper artifact).
//!
//! Every figure builds its job list and dispatches it through the shared
//! [`Runner`]: batches execute across the worker pool, and the runner's
//! memo cache coalesces the (baseline, TMU) pairs Figures 10–13 and 15
//! have in common, so `all_figures` simulates each pair exactly once.

use std::collections::HashMap;
use std::sync::Arc;

use tmu::{area::area, TmuConfig};
use tmu_kernels::workload::{KernelKind, Workload};
use tmu_sim::{configs, Roofline};
use tmu_tensor::gen::{InputId, ScaledInput};

use crate::runner::{
    bench_row, default_workers, parallel_map, EngineVariant, InputSpec, Job, RunResult, Runner,
};
use crate::{
    geomean, matrix_workload, scale, tensor_workload, Report, MATRIX_KERNELS, TENSOR_KERNELS,
};

fn inputs_for(kernel: &str) -> &'static [InputId] {
    if MATRIX_KERNELS.contains(&kernel) {
        &InputId::MATRICES
    } else {
        &InputId::TENSORS
    }
}

fn all_kernels() -> Vec<&'static str> {
    MATRIX_KERNELS
        .iter()
        .chain(&TENSOR_KERNELS)
        .copied()
        .collect()
}

/// One (baseline, TMU) measurement of a kernel on an input.
#[derive(Debug, Clone, Copy)]
pub struct PairRef<'a> {
    /// Workload category.
    pub kind: KernelKind,
    /// Baseline run.
    pub base: &'a RunResult,
    /// TMU-accelerated run.
    pub tmu: &'a RunResult,
}

impl PairRef<'_> {
    /// Speedup of the TMU version.
    pub fn speedup(&self) -> f64 {
        self.base.stats.cycles as f64 / self.tmu.stats.cycles.max(1) as f64
    }
}

/// The (baseline, TMU) pair grid of a set of kernels over their Table 6
/// inputs, computed in one batch through the runner.
#[derive(Debug)]
pub struct PairGrid {
    jobs: Vec<Job>,
    results: Vec<Arc<RunResult>>,
    index: HashMap<(&'static str, &'static str), usize>,
}

impl PairGrid {
    /// Batches and runs baseline+TMU jobs for `kernels` × their inputs.
    pub fn compute(runner: &Runner, kernels: &[&'static str]) -> Self {
        let mut jobs = Vec::new();
        let mut index = HashMap::new();
        for &kernel in kernels {
            for &input in inputs_for(kernel) {
                index.insert((kernel, input.label()), jobs.len() / 2);
                jobs.push(Job::baseline(kernel, input, scale()));
                jobs.push(Job::tmu(kernel, input, scale()));
            }
        }
        let results = runner.run_all(&jobs);
        Self {
            jobs,
            results,
            index,
        }
    }

    /// The pair of `kernel` on `input`.
    pub fn pair(&self, kernel: &'static str, input: InputId) -> PairRef<'_> {
        let i = self.index[&(kernel, input.label())];
        PairRef {
            kind: self.results[2 * i].kind,
            base: &self.results[2 * i],
            tmu: &self.results[2 * i + 1],
        }
    }

    /// Appends every run of the grid as a `bench.json` row of `report`.
    pub fn record(&self, report: &mut Report) {
        record_rows(report, "table5", &self.jobs, &self.results);
    }
}

fn record_rows(report: &mut Report, machine: &str, jobs: &[Job], results: &[Arc<RunResult>]) {
    for (job, res) in jobs.iter().zip(results) {
        report.push_row(bench_row(report.name(), machine, job, res));
    }
}

/// Figure 3: motivation stall breakdown on the two profiled processors.
pub fn fig03(runner: &Runner) {
    let mut report = Report::new(
        "fig03",
        "normalized cycles stalling (frontend/backend) on A64FX-like vs Graviton3-like",
    );
    let machines = [
        ("A64FX", configs::a64fx_like()),
        ("Graviton3", configs::graviton3_like()),
    ];
    let mut jobs = Vec::new();
    for kernel in ["SpMV", "SpMSpM", "SpKAdd"] {
        for input in InputId::MATRICES {
            for (_, cfg) in machines {
                jobs.push(Job::baseline(kernel, input, scale()).with_sys(cfg));
            }
        }
    }
    let results = runner.run_all(&jobs);
    report.line(format!(
        "{:<10}{:<8}{:<12}{:>9}{:>9}{:>9}",
        "kernel", "input", "machine", "commit", "frontend", "backend"
    ));
    let mut i = 0;
    for kernel in ["SpMV", "SpMSpM", "SpKAdd"] {
        for input in InputId::MATRICES {
            for (mach, _) in machines {
                let stats = &results[i].stats;
                let (c, f, b) = stats.breakdown();
                report.line(format!(
                    "{:<10}{:<8}{:<12}{:>9.2}{:>9.2}{:>9.2}",
                    kernel,
                    input.label(),
                    mach,
                    c,
                    f,
                    b
                ));
                report.push_row(bench_row("fig03", mach, &jobs[i], &results[i]));
                i += 1;
            }
        }
    }
    report.line("");
    report.line("expected qualitative shape (paper §3):");
    report.line("  - SpKAdd: frontend-stall dominated, worse on the narrow A64FX core");
    report.line("  - SpMV:   backend-stall dominated; better backend on Graviton3 (bigger caches)");
    report.line("  - SpMSpM: largest committing share of the three");
    report.save();
}

/// Table 6: the synthetic stand-in inputs and their statistics.
pub fn table06() {
    let mut report = Report::new("table06", "inputs (synthetic stand-ins for Table 6)");
    report.line(format!(
        "{:<5}{:<16}{:>10}{:>10}{:>10}  {}",
        "id", "stands for", "nnz", "rows", "nnz/row", "domain"
    ));
    // Generation is deterministic per input, so building the stand-ins on
    // the worker pool keeps the report text stable.
    let matrices = parallel_map(&InputId::MATRICES, default_workers(), |id| {
        ScaledInput::new(*id).with_scale(scale()).matrix()
    });
    for (id, m) in InputId::MATRICES.iter().zip(&matrices) {
        report.line(format!(
            "{:<5}{:<16}{:>10}{:>10}{:>10.1}  {}",
            id.label(),
            id.paper_name(),
            m.nnz(),
            m.rows(),
            m.nnz() as f64 / m.rows() as f64,
            id.domain()
        ));
    }
    report.line(format!(
        "{:<5}{:<16}{:>10}  {:<24}{}",
        "id", "stands for", "nnz", "dims", "domain"
    ));
    let tensors = parallel_map(&InputId::TENSORS, default_workers(), |id| {
        ScaledInput::new(*id).with_scale(scale()).tensor()
    });
    for (id, t) in InputId::TENSORS.iter().zip(&tensors) {
        report.line(format!(
            "{:<5}{:<16}{:>10}  {:<24}{}",
            id.label(),
            id.paper_name(),
            t.nnz(),
            format!("{:?}", t.dims()),
            id.domain()
        ));
    }
    report.save();
}

/// Figure 10: TMU speedups over the vectorized baselines.
pub fn fig10(runner: &Runner) {
    let grid = PairGrid::compute(runner, &all_kernels());
    let mut report = Report::new("fig10", "TMU speedup over vectorized baseline");
    let mut by_kind: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut per_kernel: Vec<(String, f64)> = Vec::new();
    report.line(format!(
        "{:<12}{:<6}{:>12}{:>12}{:>9}",
        "kernel", "input", "base(cyc)", "tmu(cyc)", "speedup"
    ));
    for &kernel in MATRIX_KERNELS.iter().chain(&TENSOR_KERNELS) {
        let mut speedups = Vec::new();
        for &input in inputs_for(kernel) {
            let pair = grid.pair(kernel, input);
            let s = pair.speedup();
            speedups.push(s);
            let kind_key = match pair.kind {
                KernelKind::MemoryIntensive => "memory",
                KernelKind::ComputeIntensive => "compute",
                KernelKind::MergeIntensive => "merge",
            };
            by_kind.entry(kind_key).or_default().push(s);
            report.line(format!(
                "{:<12}{:<6}{:>12}{:>12}{:>8.2}x",
                kernel,
                input.label(),
                pair.base.stats.cycles,
                pair.tmu.stats.cycles,
                s
            ));
        }
        per_kernel.push((kernel.to_owned(), geomean(&speedups)));
    }
    report.line("");
    report.line("geomean speedup per kernel (paper: SpMV 3.32x, SpMSpM 2.82x, SpKAdd 6.98x,");
    report
        .line("  PR 2.74x, TC 4.56x, MTTKRP_MP 3.76x, MTTKRP_CP 4.01x, CP-ALS 2.88x, SpTC 3.79x):");
    for (k, g) in &per_kernel {
        report.line(format!("  {k:<12}{g:>6.2}x"));
    }
    report.line("");
    report.line("geomean per category (paper: 3.58x memory, 2.82x compute, 4.94x merge):");
    for kind in ["memory", "compute", "merge"] {
        if let Some(v) = by_kind.get(kind) {
            report.line(format!("  {kind:<10}{:>6.2}x", geomean(v)));
        }
    }
    grid.record(&mut report);
    report.save();
}

/// Figure 11: normalized cycle breakdown and load-to-use latency for
/// baseline (B) vs TMU (T).
pub fn fig11(runner: &Runner) {
    let grid = PairGrid::compute(runner, &all_kernels());
    let mut report = Report::new(
        "fig11",
        "cycle breakdown (committing/frontend/backend) and avg load-to-use latency",
    );
    report.line(format!(
        "{:<12}{:<6}{:<4}{:>9}{:>9}{:>9}{:>9}",
        "kernel", "input", "ver", "commit", "frontend", "backend", "l2u(cyc)"
    ));
    for &kernel in MATRIX_KERNELS.iter().chain(&TENSOR_KERNELS) {
        for &input in inputs_for(kernel) {
            let pair = grid.pair(kernel, input);
            for (tag, stats) in [("B", &pair.base.stats), ("T", &pair.tmu.stats)] {
                let (c, f, b) = stats.breakdown();
                report.line(format!(
                    "{:<12}{:<6}{:<4}{:>9.2}{:>9.2}{:>9.2}{:>9.1}",
                    kernel,
                    input.label(),
                    tag,
                    c,
                    f,
                    b,
                    stats.avg_load_to_use()
                ));
            }
        }
    }
    report.line("");
    report.line("expected shape (paper §7.1): TMU slashes backend stalls and load-to-use on");
    report.line("memory-intensive rows, and frontend stalls on merge-intensive rows.");
    grid.record(&mut report);
    report.save();
}

/// Figure 12: roofline models.
pub fn fig12(runner: &Runner) {
    let grid = PairGrid::compute(runner, &all_kernels());
    let cfg = configs::neoverse_n1_system();
    let roof = Roofline::for_machine(
        cfg.cores(),
        cfg.core.sve_lanes(),
        cfg.core.freq_ghz,
        cfg.mem.dram.peak_bytes_per_cycle() * cfg.core.freq_ghz,
    );
    let mut report = Report::new(
        "fig12",
        "roofline models (a: all workloads; b/c/d: SpMV, SpMSpM, SpKAdd)",
    );
    report.line(format!(
        "machine: peak {:.1} GFLOP/s, peak {:.1} GB/s, ridge at {:.2} flop/byte",
        roof.peak_gflops,
        roof.peak_bandwidth_gbs,
        roof.ridge()
    ));
    report.line("");
    report.line(
        "(a) geomean per workload — TC and SpTC excluded (integer/symbolic, as in the paper)",
    );
    report.line(format!(
        "{:<12}{:<4}{:>12}{:>12}{:>10}",
        "kernel", "ver", "AI(f/B)", "GFLOP/s", "GB/s"
    ));
    for &kernel in MATRIX_KERNELS.iter().chain(&TENSOR_KERNELS) {
        if kernel == "TC" || kernel == "SpTC" {
            continue;
        }
        let mut pts: HashMap<&str, Vec<(f64, f64, f64)>> = HashMap::new();
        for &input in inputs_for(kernel) {
            let pair = grid.pair(kernel, input);
            for (tag, stats) in [("B", &pair.base.stats), ("T", &pair.tmu.stats)] {
                pts.entry(tag).or_default().push((
                    stats.arithmetic_intensity(),
                    stats.gflops(),
                    stats.bandwidth_gbs(),
                ));
            }
        }
        for tag in ["B", "T"] {
            let v = &pts[tag];
            let ai = geomean(&v.iter().map(|p| p.0).collect::<Vec<_>>());
            let gf = geomean(&v.iter().map(|p| p.1).collect::<Vec<_>>());
            let bw = geomean(&v.iter().map(|p| p.2).collect::<Vec<_>>());
            report.line(format!(
                "{kernel:<12}{tag:<4}{ai:>12.3}{gf:>12.2}{bw:>10.1}"
            ));
        }
    }
    for (panel, kernel) in [("b", "SpMV"), ("c", "SpMSpM"), ("d", "SpKAdd")] {
        report.line("");
        report.line(format!("({panel}) {kernel} — every input"));
        report.line(format!(
            "{:<6}{:<4}{:>12}{:>12}{:>10}",
            "input", "ver", "AI(f/B)", "GFLOP/s", "GB/s"
        ));
        for &input in &InputId::MATRICES {
            let pair = grid.pair(kernel, input);
            for (tag, stats) in [("B", &pair.base.stats), ("T", &pair.tmu.stats)] {
                report.line(format!(
                    "{:<6}{:<4}{:>12.3}{:>12.2}{:>10.1}",
                    input.label(),
                    tag,
                    stats.arithmetic_intensity(),
                    stats.gflops(),
                    stats.bandwidth_gbs()
                ));
            }
        }
    }
    // (c) extra: the fixed-nnz/row compute ceilings.
    report.line("");
    report.line("(c) SpMSpM synthetic ceilings: n nnz/row at columns 0..n-1 (ideal locality)");
    let ceiling_jobs: Vec<Job> = [1usize, 8, 64]
        .iter()
        .map(|&n| {
            // The product of a fixed-row matrix with its transpose grows with
            // rows² · n — a small row count already saturates the compute
            // ceiling, so cap it to keep the run quadratic-safe.
            let rows = (((8192.0 * scale()) as usize).max(256)).min(16_384 / n.max(1));
            Job::new(
                "SpMSpM",
                InputSpec::FixedRow { rows, n, seed: 7 },
                EngineVariant::Tmu,
            )
        })
        .collect();
    let ceiling_runs = runner.run_all(&ceiling_jobs);
    for (n, run) in [1usize, 8, 64].iter().zip(&ceiling_runs) {
        report.line(format!(
            "  n={n:<4} TMU: {:>8.2} GFLOP/s at AI {:.3}",
            run.stats.gflops(),
            run.stats.arithmetic_intensity()
        ));
    }
    grid.record(&mut report);
    record_rows(&mut report, "table5", &ceiling_jobs, &ceiling_runs);
    report.save();
}

/// Figure 13: read-to-write ratio of the outQ per workload.
pub fn fig13(runner: &Runner) {
    let grid = PairGrid::compute(runner, &all_kernels());
    let mut report = Report::new(
        "fig13",
        "outQ read-to-write ratio (core read time / TMU write time; <1 = core faster)",
    );
    report.line(format!("{:<12}{:>8}", "kernel", "ratio"));
    for &kernel in MATRIX_KERNELS.iter().chain(&TENSOR_KERNELS) {
        let mut ratios = Vec::new();
        for &input in inputs_for(kernel) {
            let pair = grid.pair(kernel, input);
            let r = pair.tmu.read_to_write_ratio();
            if r > 0.0 {
                ratios.push(r);
            }
        }
        report.line(format!("{:<12}{:>8.2}", kernel, geomean(&ratios)));
    }
    report.line("");
    report.line("paper shape: TC/SpMV/MTTKRP below one (merge offloaded / regular compute);");
    report.line("SpKAdd/SpTC near one; SpMSpM/PR/CP-ALS above one (core-side bottleneck).");
    grid.record(&mut report);
    report.save();
}

/// Figure 14: sensitivity to engine storage and SVE vector length.
pub fn fig14(runner: &Runner) {
    let mut report = Report::new(
        "fig14",
        "speedup heatmap vs engine storage {4,8,16,32}KB x SVE {128,256,512}b, normalized to 16KB/512b",
    );
    let workloads = [("SpMV", scale()), ("SpMSpM", (scale() * 0.5).max(0.05))];
    for (name, wl_scale) in workloads {
        report.line(format!("{name}:"));
        report.line(format!(
            "{:<10}{:>10}{:>10}{:>10}{:>10}",
            "SVE", "4KB", "8KB", "16KB", "32KB"
        ));
        let mut jobs = Vec::new();
        for sve in [128u32, 256, 512] {
            for kb in [4usize, 8, 16, 32] {
                jobs.push(
                    Job::tmu(name, InputId::M3, wl_scale)
                        .with_sys(configs::neoverse_n1_with_sve(sve))
                        .with_tmu(
                            TmuConfig::paper()
                                .for_sve_bits(sve)
                                .with_total_storage(kb << 10),
                        ),
                );
            }
        }
        let results = runner.run_all(&jobs);
        // Normalization reference: 512-bit SVE at 16 KB (row 2, col 2).
        let reference_cycles = results[2 * 4 + 2].stats.cycles;
        for (r, sve) in [128u32, 256, 512].iter().enumerate() {
            let cells: Vec<String> = (0..4)
                .map(|c| {
                    let cycles = results[r * 4 + c].stats.cycles as f64;
                    format!("{:>10.2}", reference_cycles as f64 / cycles)
                })
                .collect();
            report.line(format!("{:<10}{}", format!("{sve}b"), cells.join("")));
        }
        report.line("");
        for (r, sve) in [128u32, 256, 512].iter().enumerate() {
            for c in 0..4 {
                let i = r * 4 + c;
                report.push_row(bench_row(
                    "fig14",
                    &format!("sve{sve}"),
                    &jobs[i],
                    &results[i],
                ));
            }
        }
    }
    report.line("paper shape: SpMV gains from storage (more MLP), little from SVE width;");
    report.line("SpMSpM gains from SVE width (core-side bottleneck), little from storage.");
    report.save();
}

/// Figure 15: IMP and Single-Lane comparison.
pub fn fig15(runner: &Runner) {
    let grid = PairGrid::compute(runner, &["SpMV", "SpMSpM"]);
    let mut extra_jobs = Vec::new();
    for kernel in ["SpMV", "SpMSpM"] {
        for input in InputId::MATRICES {
            let spec = InputSpec::Table6 {
                id: input,
                scale: scale(),
            };
            extra_jobs.push(Job::new(kernel, spec, EngineVariant::Imp));
            extra_jobs.push(Job::new(kernel, spec, EngineVariant::SingleLane));
        }
    }
    let extra = runner.run_all(&extra_jobs);
    let mut report = Report::new(
        "fig15",
        "speedup of IMP, Single-Lane TMU and full TMU over baseline (SpMV, SpMSpM)",
    );
    report.line(format!(
        "{:<10}{:<6}{:>8}{:>13}{:>8}",
        "kernel", "input", "IMP", "Single-Lane", "TMU"
    ));
    let mut geo: HashMap<(&str, &str), Vec<f64>> = HashMap::new();
    let mut i = 0;
    for kernel in ["SpMV", "SpMSpM"] {
        for input in InputId::MATRICES {
            let pair = grid.pair(kernel, input);
            let base_cycles = pair.base.stats.cycles;
            let tmu_s = pair.speedup();
            let imp_s = base_cycles as f64 / extra[i].stats.cycles.max(1) as f64;
            let single_s = base_cycles as f64 / extra[i + 1].stats.cycles.max(1) as f64;
            i += 2;
            geo.entry((kernel, "imp")).or_default().push(imp_s);
            geo.entry((kernel, "single")).or_default().push(single_s);
            geo.entry((kernel, "tmu")).or_default().push(tmu_s);
            report.line(format!(
                "{:<10}{:<6}{:>7.2}x{:>12.2}x{:>7.2}x",
                kernel,
                input.label(),
                imp_s,
                single_s,
                tmu_s
            ));
        }
    }
    report.line("");
    report.line("geomeans (paper: Single-Lane 1.59x/1.50x, TMU 3.32x/2.82x, IMP 1.25x on SpMV):");
    for kernel in ["SpMV", "SpMSpM"] {
        report.line(format!(
            "  {kernel:<8} IMP {:>5.2}x  Single-Lane {:>5.2}x  TMU {:>5.2}x",
            geomean(&geo[&(kernel, "imp")]),
            geomean(&geo[&(kernel, "single")]),
            geomean(&geo[&(kernel, "tmu")])
        ));
    }
    grid.record(&mut report);
    record_rows(&mut report, "table5", &extra_jobs, &extra);
    report.save();
}

/// §6 area analysis.
pub fn area_report() {
    let mut report = Report::new(
        "area",
        "TMU area model (22nm FD-SOI, calibrated to the paper's RTL)",
    );
    let r = area(&TmuConfig::paper());
    report.line(format!(
        "lane:            {:>8.4} mm²  (paper: 0.0080 mm²)",
        r.lane_mm2
    ));
    report.line(format!("8 lanes:         {:>8.4} mm²", r.lanes_mm2));
    report.line(format!("mergers (4 TGs): {:>8.4} mm²", r.mergers_mm2));
    report.line(format!("arbiter+control: {:>8.4} mm²", r.arbiter_mm2));
    report.line(format!(
        "total:           {:>8.4} mm²  (paper: 0.0704 mm²)",
        r.total_mm2
    ));
    report.line(format!(
        "fraction of a Neoverse N1 core: {:.2}%  (paper: 1.52%)",
        r.percent_of_n1_core
    ));
    report.line("");
    report.line("design-space scaling (Figure 14 configurations):");
    for sve in [128u32, 256, 512] {
        for kb in [4usize, 8, 16, 32] {
            let cfg = TmuConfig::paper()
                .for_sve_bits(sve)
                .with_total_storage(kb << 10);
            let r = area(&cfg);
            report.line(format!(
                "  {:>4}b SVE, {:>2} KB: {:>7.4} mm² ({:>4.2}% of core)",
                sve, kb, r.total_mm2, r.percent_of_n1_core
            ));
        }
    }
    report.save();
}

fn build(kernel: &str, input: InputId) -> Box<dyn Workload> {
    if InputId::MATRICES.contains(&input) {
        matrix_workload(kernel, input)
    } else {
        tensor_workload(kernel, input)
    }
}

/// Verification sweep: every workload's TMU functional result vs reference.
pub fn verify_all() {
    let mut report = Report::new(
        "verify",
        "functional verification of every kernel/input pair",
    );
    let combos: Vec<(&'static str, InputId)> = all_kernels()
        .into_iter()
        .flat_map(|kernel| inputs_for(kernel).iter().map(move |&input| (kernel, input)))
        .collect();
    // Functional checks are independent; run them on the worker pool and
    // report in combo order.
    let lines = parallel_map(&combos, default_workers(), |&(kernel, input)| {
        let w = build(kernel, input);
        match w.verify() {
            Ok(()) => format!("ok   {kernel} on {}", input.label()),
            Err(e) => format!("FAIL {kernel} on {}: {e}", input.label()),
        }
    });
    for line in lines {
        report.line(line);
    }
    report.save();
}
