//! Format-autotuner ablation: best layout vs CSR-always over the Table 6
//! matrix grid (tentpole layer 3).
//!
//! ```text
//! usage: formats
//! ```
//!
//! For each synthetic Table 6 matrix the binary measures fiber statistics,
//! lets the autotuner pick a layout, and models SpMV under every
//! streamable layout plus the csr→layout conversion each would charge.
//! The report compares two policies end to end:
//!
//! * **csr-always** — stream canonical CSR, no conversion;
//! * **autotuned** — convert once to the picked layout, then stream it.
//!
//! Every modeled run lands in `results/bench.json` as a row under figure
//! `"formats"`, labeled with its `format` and carrying the run-level
//! stats of the modeled SpMV plus the conversion's `convert.cycles`.

use std::process::ExitCode;

use tmu_bench::json::BenchRow;
use tmu_bench::runner::run_level_stats;
use tmu_bench::{geomean, Report};
use tmu_formats::spmv::run_spmv;
use tmu_formats::{conversion_cycles, pick, FormatKind};
use tmu_sim::configs;
use tmu_tensor::gen::{InputId, ScaledInput};

fn body() -> ExitCode {
    let scale = tmu_bench::scale();
    let mut report = Report::new(
        "formats",
        "format autotuner ablation: best layout vs CSR-always (modeled SpMV)",
    );
    report.line(format!(
        "{:<8}{:<8}{:>12}{:>12}{:>12}{:>9}  reason",
        "input", "pick", "csr(cyc)", "best(cyc)", "conv(cyc)", "speedup"
    ));

    let mut kernel_speedups = Vec::new();
    let mut e2e_speedups = Vec::new();
    for id in InputId::MATRICES {
        let a = ScaledInput::new(id).with_scale(scale).matrix();
        let choice = pick(&a);

        let mut cycles = [None; FormatKind::ALL.len()];
        for (slot, kind) in cycles.iter_mut().zip(FormatKind::ALL) {
            let Some(stats) = run_spmv(kind, &a, configs::neoverse_n1_system()) else {
                continue; // hashed admits no row-streamed SpMV
            };
            let conv = conversion_cycles(&a, kind, configs::neoverse_n1_system());
            *slot = Some(stats.cycles);
            let mut row_stats = run_level_stats(&stats.registry());
            row_stats.set_counter("convert.cycles", conv.cycles);
            report.push_row(BenchRow {
                figure: "formats".into(),
                kernel: "SpMV".into(),
                input: id.label().into(),
                engine: "baseline-sve".into(),
                machine: "table5".into(),
                scale: Some(scale),
                format: Some(kind.label().into()),
                stats: row_stats,
                ..BenchRow::default()
            });
        }

        let csr_idx = FormatKind::ALL
            .iter()
            .position(|&k| k == FormatKind::Csr)
            .expect("csr is a kind");
        let pick_idx = FormatKind::ALL
            .iter()
            .position(|&k| k == choice.pick)
            .expect("the pick is a kind");
        let csr_cycles = cycles[csr_idx].expect("csr always streams");
        let best_cycles = cycles[pick_idx].expect("the autotuner never picks an unstreamable kind");
        let conv_cycles = conversion_cycles(&a, choice.pick, configs::neoverse_n1_system()).cycles;
        kernel_speedups.push(csr_cycles as f64 / best_cycles as f64);
        e2e_speedups.push(csr_cycles as f64 / (best_cycles + conv_cycles) as f64);
        report.line(format!(
            "{:<8}{:<8}{:>12}{:>12}{:>12}{:>8.2}x  {}",
            id.label(),
            choice.pick.label(),
            csr_cycles,
            best_cycles,
            conv_cycles,
            csr_cycles as f64 / best_cycles as f64,
            choice.reason,
        ));
    }

    report.line("");
    report.line(format!(
        "geomean speedup of the autotuned layout over csr-always: {:.2}x (kernel only), \
         {:.2}x (including one conversion)",
        geomean(&kernel_speedups),
        geomean(&e2e_speedups),
    ));
    report.line("conversion cost amortizes across reuses; the kernel-only column is the limit.");
    report.save();
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    tmu_bench::run_main(body)
}
