//! Integration test: the Figure 9 step-by-step example.
//!
//! SpMV with inner-loop vectorization (Table 4, P1) over the Figure 1
//! CSR matrix on a two-lane TMU — the exact walkthrough of §5.7 —
//! executed functionally, then through the full cycle-accurate system.

use std::sync::Arc;

use tmu::{Event, LayerMode, MemImage, ProgramBuilder, StreamTy, TmuConfig};
use tmu_kernels::spmv::Spmv;
use tmu_kernels::workload::Workload;
use tmu_sim::{configs, AddressMap, CoreConfig, MemSysConfig, System, SystemConfig};
use tmu_tensor::{CooMatrix, CsrMatrix};

fn figure1() -> CsrMatrix {
    CsrMatrix::from_coo(
        &CooMatrix::from_triplets(
            4,
            4,
            vec![
                (0, 0, 1.0),
                (0, 2, 2.0),
                (2, 1, 3.0),
                (3, 0, 4.0),
                (3, 3, 5.0),
            ],
        )
        .expect("figure 1 triplets"),
    )
}

#[test]
fn functional_walkthrough_matches_figure9() {
    let a = figure1();
    let mut map = AddressMap::new();
    let ptrs_r = map.alloc_elems("ptrs", 5, 4);
    let idxs_r = map.alloc_elems("idxs", 5, 4);
    let vals_r = map.alloc_elems("vals", 5, 8);
    let b_r = map.alloc_elems("b", 4, 8);
    let mut image = MemImage::new();
    image.bind_u32(ptrs_r, Arc::new(a.row_ptrs().to_vec()));
    image.bind_u32(idxs_r, Arc::new(a.col_idxs().to_vec()));
    image.bind_f64(vals_r, Arc::new(a.vals().to_vec()));
    image.bind_f64(b_r, Arc::new(vec![10.0, 20.0, 30.0, 40.0]));

    let mut b = ProgramBuilder::new();
    let l0 = b.layer(LayerMode::Single);
    let row = b.dns_fbrt(l0, 0, 4, 1);
    let ptbs = b.mem_stream(row, ptrs_r.base, 4, StreamTy::Index);
    let ptes = b.mem_stream(row, ptrs_r.base + 4, 4, StreamTy::Index);
    let l1 = b.layer(LayerMode::LockStep);
    let mut nnz = Vec::new();
    let mut vecv = Vec::new();
    for lane in 0..2 {
        let col = b.rng_fbrt(l1, ptbs, ptes, lane, 2);
        let ci = b.mem_stream(col, idxs_r.base, 4, StreamTy::Index);
        nnz.push(b.mem_stream(col, vals_r.base, 8, StreamTy::Value));
        vecv.push(b.mem_stream_indexed(col, b_r.base, 8, StreamTy::Value, ci));
    }
    let nnz_op = b.vec_operand(l1, &nnz);
    let vec_op = b.vec_operand(l1, &vecv);
    b.callback(l1, Event::Ite, 0, &[nnz_op, vec_op]);
    b.callback(l1, Event::End, 1, &[]);
    let program = Arc::new(b.build().expect("well-formed"));

    let entries = tmu::run_functional(&program, &Arc::new(image));
    // Row 0 marshals (a=1, b=2) against (b[0]=10, b[2]=30) in one lockstep
    // step, exactly as the Figure 9 trace shows.
    let first = &entries[0];
    assert_eq!(first.callback, 0);
    assert_eq!(first.mask, 0b11);
    let lanes = |k: usize| first.operands[k].f64s().iter().collect::<Vec<_>>();
    assert_eq!(lanes(0), vec![1.0, 2.0]);
    assert_eq!(lanes(1), vec![10.0, 30.0]);
    // Stream totals: 3 ri steps (rows 0, 2, 3) + 4 re steps.
    assert_eq!(entries.iter().filter(|e| e.callback == 0).count(), 3);
    assert_eq!(entries.iter().filter(|e| e.callback == 1).count(), 4);
}

#[test]
fn timed_walkthrough_completes_on_the_full_system() {
    // The same program driven by the cycle-accurate engine + core.
    let a = figure1();
    let w = Spmv::new(&a);
    let cfg = SystemConfig {
        core: CoreConfig::neoverse_n1_like(),
        mem: MemSysConfig::table5(1),
    };
    let run = w.run_tmu(cfg, TmuConfig::paper());
    assert!(run.stats.cycles > 0);
    // 4 re entries + 3 ri entries marshaled in total.
    assert_eq!(run.outq.iter().map(|o| o.entries).sum::<u64>(), 7);
    w.verify().expect("figure 1 SpMV verifies");
}

#[test]
fn eight_core_system_runs_the_paper_configuration() {
    let a = tmu_tensor::gen::uniform(1024, 1024, 6, 3);
    let w = Spmv::new(&a);
    let run = w.run_tmu(configs::neoverse_n1_system(), TmuConfig::paper());
    assert_eq!(run.stats.cores.len(), 8);
    assert!(run.outq.iter().filter(|o| o.entries > 0).count() >= 4);
    let _ = System::new(configs::neoverse_n1_system()); // Table 5 builds
}
