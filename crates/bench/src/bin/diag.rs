//! Engine diagnostics: runs the TMU standalone against an infinitely fast
//! core (every chunk acknowledged immediately) and reports cycles/nnz plus
//! the internal stall counters — the tool used to tune the §5.4 arbiter
//! and §5.5 queue-sizing models during bring-up.

use std::sync::Arc;

use tmu::{TmuAccelerator, TmuConfig};
use tmu_kernels::spmv::{Spmv, SpmvHandler};
use tmu_kernels::workload::Workload;
use tmu_sim::{drive_standalone, CoreConfig, MemSysConfig, SystemConfig};
use tmu_tensor::gen;

/// Total engine storage of the standalone probe, in bytes.
const PROBE_STORAGE: usize = 16 << 10;

fn main() -> std::process::ExitCode {
    tmu_bench::run_main(run)
}

fn run() {
    let a = gen::banded(8192, 512, 16, 13);
    let w = Spmv::new(&a);
    let prog = Arc::new(w.build_program((0, 8192), 8));
    let cfg = TmuConfig::paper().with_total_storage(PROBE_STORAGE);
    let handler = SpmvHandler::new(w.x_region(), 0);
    let mut accel = TmuAccelerator::new(cfg, prog, w.image_handle(), handler, w.outq_base(0))
        .expect("SpMV fits the engine");
    eprintln!("queue depths: {:?}", accel.queue_depths());
    let Ok(now) = drive_standalone(&mut accel, 100_000_000) else {
        println!("engine probe: TIMEOUT");
        return;
    };
    println!(
        "engine probe: cycles={} nnz={} cyc/nnz={:.2} counters(idle,cap,dep,gate)={:?} entries={}",
        now,
        a.nnz(),
        now as f64 / a.nnz() as f64,
        accel.debug_counters,
        accel.stats().entries
    );

    // Full-system sanity comparison on a scattered input.
    let cfg2 = SystemConfig {
        core: CoreConfig::neoverse_n1_like(),
        mem: MemSysConfig::table5(2),
    };
    let w2 = Spmv::new(&gen::uniform(2048, 65_536, 8, 7));
    let base = w2.run_baseline(cfg2);
    let run = w2.run_tmu(cfg2, TmuConfig::paper());
    let (c, f, b) = base.breakdown();
    println!(
        "baseline: cycles={} commit={c:.2} fe={f:.2} be={b:.2} l2u={:.1} bw={:.1}GB/s",
        base.cycles,
        base.avg_load_to_use(),
        base.bandwidth_gbs()
    );
    let (c, f, b) = run.stats.breakdown();
    println!(
        "tmu:      cycles={} commit={c:.2} fe={f:.2} be={b:.2} l2u={:.1} bw={:.1}GB/s  r2w={:.2}",
        run.stats.cycles,
        run.stats.avg_load_to_use(),
        run.stats.bandwidth_gbs(),
        run.read_to_write_ratio()
    );
}
