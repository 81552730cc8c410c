//! Architect's view: sweep the TMU design space (lanes × storage), watch
//! the performance/area trade-off, and save/restore engine context across
//! a simulated context switch (§5.6, §7.2, Figure 14).
//!
//! Run with:
//! ```sh
//! cargo run --release --example design_space
//! ```

use std::sync::Arc;

use tmu::{area::area, context::ContextSnapshot, Interp, TmuConfig};
use tmu_kernels::spmv::Spmv;
use tmu_kernels::workload::Workload;
use tmu_sim::configs;
use tmu_tensor::gen;

fn main() {
    let a = gen::uniform(8192, 32_768, 8, 0xDE5);
    let w = Spmv::new(&a);
    let base = w.run_baseline(configs::neoverse_n1_system()).cycles;

    println!(
        "SpMV design-space sweep ({} nnz), speedup over the software baseline:",
        a.nnz()
    );
    println!(
        "{:<18}{:>10}{:>12}{:>14}",
        "config", "speedup", "area(mm2)", "% of N1 core"
    );
    for sve in [128u32, 256, 512] {
        for kb in [4usize, 16] {
            let tmu = TmuConfig::paper()
                .for_sve_bits(sve)
                .with_total_storage(kb << 10);
            let sys = configs::neoverse_n1_with_sve(sve);
            let run = w.run_tmu(sys, tmu);
            let ar = area(&tmu);
            println!(
                "{:<18}{:>9.2}x{:>12.4}{:>13.2}%",
                format!("{} lanes, {:>2} KB", tmu.lanes, kb),
                base as f64 / run.stats.cycles as f64,
                ar.total_mm2,
                ar.percent_of_n1_core
            );
        }
    }

    // ------------------------------------------------------------------
    // Context switch: quiesce mid-traversal, snapshot, restore, finish —
    // results must be identical to an uninterrupted run.
    // ------------------------------------------------------------------
    let program = Arc::new(w.build_program((0, 512), 8));
    let image = w.image_handle();
    let mut uninterrupted = Vec::new();
    tmu::for_each_entry(&program, &image, |e| uninterrupted.push(e.clone()));

    let mut interp = Interp::new(Arc::clone(&program), Arc::clone(&image));
    let mut entries = Vec::new();
    for _ in 0..100 {
        if let Some(step) = interp.next_step() {
            entries.extend(step.entries);
        }
    }
    let snapshot = ContextSnapshot::save(TmuConfig::paper(), &program, 100, entries.len() as u64);
    println!();
    println!(
        "context switch after 100 steps: saved {} bytes of architectural state surrogate",
        std::mem::size_of_val(&snapshot)
    );
    let mut restored = snapshot
        .restore(image)
        .expect("100 steps lie within the program");
    while let Some(step) = restored.next_step() {
        entries.extend(step.entries);
    }
    assert_eq!(entries, uninterrupted, "restore must be transparent");
    println!(
        "restored engine produced the remaining {} outQ entries — streams identical ✓",
        uninterrupted.len()
    );
}
