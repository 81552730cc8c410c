//! Integration tests pinning the paper's quantitative claims that this
//! reproduction commits to exactly (configuration and area), plus the
//! qualitative behaviours its evaluation narrative rests on.

use tmu::{area::area, TmuConfig};
use tmu_kernels::spkadd::Spkadd;
use tmu_kernels::spmv::Spmv;
use tmu_kernels::trianglecount::TriangleCount;
use tmu_kernels::workload::Workload;
use tmu_sim::{configs, CoreConfig, MemSysConfig, SystemConfig};
use tmu_tensor::gen;

fn two_cores() -> SystemConfig {
    SystemConfig {
        core: CoreConfig::neoverse_n1_like(),
        mem: MemSysConfig::table5(2),
    }
}

#[test]
fn rtl_area_figures_reproduce() {
    // §6: 0.0704 mm² total, 0.0080 mm² per lane, 1.52 % of an N1 core.
    let r = area(&TmuConfig::paper());
    assert!((r.total_mm2 - 0.0704).abs() < 1e-4);
    assert!((r.lane_mm2 - 0.0080).abs() < 1e-4);
    assert!((r.percent_of_n1_core - 1.52).abs() < 0.01);
}

#[test]
fn table5_system_parameters() {
    let cfg = configs::neoverse_n1_system();
    assert_eq!(cfg.cores(), 8);
    assert_eq!(cfg.core.rob, 224);
    assert_eq!((cfg.core.lq, cfg.core.sq), (96, 96));
    assert_eq!(cfg.core.sve_bits, 512);
    assert_eq!(cfg.mem.dram.channels, 4);
    // 4 × 37.5 GB/s = 150 GB/s peak.
    let peak = cfg.mem.dram.peak_bytes_per_cycle() * cfg.core.freq_ghz;
    assert!((peak - 150.0).abs() < 1.0, "peak = {peak} GB/s");
    let tmu = TmuConfig::paper();
    assert_eq!(
        (
            tmu.lanes,
            tmu.per_lane_bytes,
            tmu.groups,
            cfg.mem.accel_outstanding
        ),
        (8, 2048, 4, 128)
    );
}

#[test]
fn tmu_reduces_backend_stalls_on_spmv() {
    // §7.1: "the TMU drastically reduces backend stalls … and a sharp
    // reduction in load-to-use latency".
    let w = Spmv::new(&gen::uniform(4096, 32_768, 8, 5));
    let base = w.run_baseline(two_cores());
    let run = w.run_tmu(two_cores(), TmuConfig::paper());
    let (_, _, b_backend) = base.breakdown();
    let (_, _, t_backend) = run.stats.breakdown();
    assert!(
        t_backend < b_backend / 2.0,
        "backend stalls must collapse: {b_backend:.2} → {t_backend:.2}"
    );
    assert!(
        run.stats.avg_load_to_use() < base.avg_load_to_use() / 2.0,
        "load-to-use must drop sharply: {:.0} → {:.0}",
        base.avg_load_to_use(),
        run.stats.avg_load_to_use()
    );
}

#[test]
fn tmu_raises_bandwidth_utilization_on_spmv() {
    // Figure 12b: the TMU lifts SpMV close to the bandwidth roof.
    let w = Spmv::new(&gen::uniform(4096, 65_536, 8, 9));
    let base = w.run_baseline(configs::neoverse_n1_system());
    let run = w.run_tmu(configs::neoverse_n1_system(), TmuConfig::paper());
    assert!(
        run.stats.bandwidth_gbs() > 1.5 * base.bandwidth_gbs(),
        "TMU must use much more bandwidth: {:.1} vs {:.1} GB/s",
        run.stats.bandwidth_gbs(),
        base.bandwidth_gbs()
    );
}

#[test]
fn tmu_removes_merge_work_from_the_core() {
    // §7.1 (TC): frontend stalls nearly eliminated, committed ops slashed.
    let w = TriangleCount::new(&gen::rmat(10, 8192, 11));
    let base = w.run_baseline(two_cores());
    let run = w.run_tmu(two_cores(), TmuConfig::paper());
    assert!(run.stats.total().committed * 4 < base.total().committed);
    assert!(
        run.stats.cycles * 2 < base.cycles,
        "TC speedup must exceed 2x"
    );
}

#[test]
fn multi_lane_beats_single_lane() {
    // §7.3 / Figure 15: the multi-lane TMU must clearly beat a
    // single-lane engine with the same storage on SpMV. The gap comes
    // from SIMD-friendly marshaling (one vector callback per 8 nnz vs a
    // scalar callback chain per nnz), so it shows wherever the engine is
    // not purely DRAM-bound — use a banded (cache-friendly) input.
    let w = Spmv::new(&gen::banded(16_384, 512, 16, 13));
    let cfg = two_cores();
    let multi = w.run_tmu(cfg, TmuConfig::paper());
    let single = w.run_tmu(cfg, TmuConfig::paper().single_lane());
    assert!(
        multi.stats.cycles * 6 < single.stats.cycles * 5,
        "8 lanes must beat 1 lane by ≥1.2x: {} vs {}",
        multi.stats.cycles,
        single.stats.cycles
    );
}

#[test]
fn imp_helps_spmv_but_less_than_the_tmu() {
    // Figure 15: IMP gives a modest SpMV speedup, below the TMU's.
    let w = Spmv::new(&gen::uniform(4096, 65_536, 8, 17));
    let cfg = two_cores();
    let base = w.run_baseline(cfg).cycles;
    let imp = w.run_baseline_imp(cfg).expect("SpMV supports IMP").cycles;
    let tmu = w.run_tmu(cfg, TmuConfig::paper()).stats.cycles;
    assert!(imp < base, "IMP must help SpMV ({imp} vs {base})");
    assert!(tmu < imp, "TMU must beat IMP ({tmu} vs {imp})");
}

#[test]
fn deeper_queues_help_memory_bound_spmv() {
    // Figure 14: SpMV is storage-sensitive.
    let w = Spmv::new(&gen::uniform(4096, 65_536, 8, 19));
    let cfg = two_cores();
    let small = w.run_tmu(cfg, TmuConfig::paper().with_total_storage(2 << 10));
    let large = w.run_tmu(cfg, TmuConfig::paper().with_total_storage(16 << 10));
    assert!(
        large.stats.cycles < small.stats.cycles,
        "16KB must beat 2KB: {} vs {}",
        large.stats.cycles,
        small.stats.cycles
    );
}

#[test]
fn spkadd_parallel_loading_unlocks_mlp() {
    // §7.1: SpKAdd loads all eight matrices in parallel lanes.
    let w = Spkadd::new(&gen::uniform(4096, 2048, 6, 23));
    let base = w.run_baseline(two_cores());
    let run = w.run_tmu(two_cores(), TmuConfig::paper());
    assert!(
        run.stats.cycles * 3 < base.cycles,
        "SpKAdd speedup must exceed 3x: {} vs {}",
        base.cycles,
        run.stats.cycles
    );
}

#[test]
fn functional_results_are_lane_count_invariant() {
    // The same program semantics at 1/2/4/8 lanes.
    let a = gen::uniform(512, 512, 6, 29);
    let w = Spmv::new(&a);
    for lanes in [1, 2, 4, 8] {
        let mut got = Vec::new();
        {
            let &range = &(0usize, 512usize);
            let prog = std::sync::Arc::new(w.build_program(range, lanes));
            let mut handler = tmu_kernels::spmv::SpmvHandler::new(w.x_region(), range.0);
            let mut vm = tmu_sim::VecMachine::new();
            tmu::for_each_entry(&prog, &w.image_handle(), |e| {
                use tmu::CallbackHandler;
                handler.handle(e, tmu_sim::OpId::NONE, &mut vm);
            });
            got.extend(handler.x);
        }
        for (g, r) in got.iter().zip(w.reference()) {
            assert!((g - r).abs() < 1e-9, "lanes={lanes}");
        }
    }
}
