//! Four-way "who wins where" comparison: the TMU against the IMP-style
//! prefetching baseline, the register-tiled BCSR software path
//! (`blocked-sve`) and the SAM-style streaming dataflow model
//! (`sam-stream`), across the Table 4 kernel shapes and compiled einsum
//! expressions (DESIGN.md §11).
//!
//! ```text
//! usage: matrix [spmv|spmm|spmspm|spkadd|pr|tc|expr ...]
//! ```
//!
//! With no arguments every shape runs; arguments select a subset (the CI
//! smoke runs `matrix spmv expr` at reduced `TMU_SCALE`). Every cell is
//! submitted; one whose engine answers `Unsupported` prints `—`, and every
//! other cell also lands in `results/bench.json` as a row under figure
//! `"matrix"`.

use std::process::ExitCode;

use tmu_bench::runner::{bench_row, EngineVariant, InputSpec, Job, JobError, Runner};
use tmu_bench::{geomean, Report};
use tmu_tensor::gen::InputId;

/// Column order of the comparison (and of the speedup summary).
const ENGINES: [EngineVariant; 4] = [
    EngineVariant::Tmu,
    EngineVariant::Imp,
    EngineVariant::BlockedSve,
    EngineVariant::SamStream,
];

/// One comparison row: a hand-written Table 4 kernel or a compiled einsum.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Kernel(&'static str),
    Expr {
        label: &'static str,
        src: &'static str,
    },
}

const SHAPES: [Shape; 9] = [
    Shape::Kernel("SpMV"),
    Shape::Kernel("SpMM"),
    Shape::Kernel("SpMSpM"),
    Shape::Kernel("SpKAdd"),
    Shape::Kernel("PR"),
    Shape::Kernel("TC"),
    Shape::Expr {
        label: "spmv-expr",
        src: "y(i) = A(i,j:csr) * x(j)",
    },
    Shape::Expr {
        label: "spmspm-expr",
        src: "Z(i,j) = A(i,k:csr) * B(k,j:csr)",
    },
    Shape::Expr {
        label: "spkadd-expr",
        src: "Z(i,j) = A(i,j:dcsr) + B(i,j:dcsr)",
    },
];

impl Shape {
    fn label(&self) -> &'static str {
        match self {
            Shape::Kernel(k) => k,
            Shape::Expr { label, .. } => label,
        }
    }

    fn job(&self, input: InputSpec, engine: EngineVariant) -> Job {
        match self {
            Shape::Kernel(k) => Job::new(k, input, engine),
            Shape::Expr { src, .. } => Job::expression(src, input, engine),
        }
    }
}

/// Maps CLI arguments to the shapes they select (`None` on a bad name).
fn select(args: &[String]) -> Option<Vec<Shape>> {
    if args.is_empty() {
        return Some(SHAPES.to_vec());
    }
    let mut out = Vec::new();
    for a in args {
        let a = a.to_ascii_lowercase();
        if a == "expr" {
            out.extend(
                SHAPES
                    .iter()
                    .filter(|s| matches!(s, Shape::Expr { .. }))
                    .copied(),
            );
            continue;
        }
        let kernel = SHAPES
            .iter()
            .find(|s| matches!(s, Shape::Kernel(k) if k.to_ascii_lowercase() == a))?;
        out.push(*kernel);
    }
    Some(out)
}

fn cell(c: Option<u64>) -> String {
    c.map_or_else(|| "—".to_owned(), |v| v.to_string())
}

fn body() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(shapes) = select(&args) else {
        eprintln!("usage: matrix [spmv|spmm|spmspm|spkadd|pr|tc|expr ...]");
        return ExitCode::from(2);
    };
    let input = InputSpec::Table6 {
        id: InputId::M3,
        scale: tmu_bench::scale(),
    };
    let runner = Runner::new();
    let mut report = Report::new(
        "matrix",
        "four-way engine comparison (tmu / imp / blocked-sve / sam-stream) on M3",
    );
    report.line(format!(
        "{:<13}{:>12}{:>12}{:>13}{:>13}  winner",
        "shape", "tmu(cyc)", "imp(cyc)", "blocked(cyc)", "sam(cyc)"
    ));

    // One flat batch, shape-major, so the runner's worker pool sees every
    // job at once.
    let jobs: Vec<Job> = shapes
        .iter()
        .flat_map(|shape| ENGINES.map(|engine| shape.job(input, engine)))
        .collect();
    let results = runner.run_all(&jobs);

    let mut vs_tmu: [Vec<f64>; 4] = Default::default();
    for ((shape, row_jobs), row_results) in shapes
        .iter()
        .zip(jobs.chunks(ENGINES.len()))
        .zip(results.chunks(ENGINES.len()))
    {
        let mut cells: [Option<u64>; 4] = [None; 4];
        for ((slot, job), res) in cells.iter_mut().zip(row_jobs).zip(row_results) {
            if !matches!(res.error, Some(JobError::Unsupported(_))) {
                *slot = Some(res.stats.cycles);
                report.push_row(bench_row("matrix", "table5", job, res));
            }
        }
        let tmu_cycles = cells[0].expect("the TMU runs every shape");
        for (col, c) in vs_tmu.iter_mut().zip(&cells) {
            if let Some(c) = c.filter(|c| *c > 0) {
                col.push(tmu_cycles as f64 / c as f64);
            }
        }
        let winner = ENGINES
            .iter()
            .zip(&cells)
            .filter_map(|(e, c)| c.filter(|c| *c > 0).map(|c| (c, e.label())))
            .min()
            .map_or("—", |(_, label)| label);
        report.line(format!(
            "{:<13}{:>12}{:>12}{:>13}{:>13}  {winner}",
            shape.label(),
            cell(cells[0]),
            cell(cells[1]),
            cell(cells[2]),
            cell(cells[3]),
        ));
    }

    report.line("");
    report.line("geomean speedup vs tmu on each engine's covered shapes (>1 beats the TMU):");
    for (engine, col) in ENGINES.iter().zip(&vs_tmu) {
        report.line(format!(
            "  {:<13}{:>6.2}x  ({} shape{})",
            engine.label(),
            geomean(col),
            col.len(),
            if col.len() == 1 { "" } else { "s" },
        ));
    }
    report.save();
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    tmu_bench::run_main(body)
}
