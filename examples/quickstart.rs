//! Quickstart: program the TMU for SpMV, run it functionally, then run a
//! full cycle-accurate comparison against the vectorized software
//! baseline on the paper's simulated 8-core system.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use tmu::{Event, LayerMode, MemImage, ProgramBuilder, StreamTy, TmuConfig};
use tmu_kernels::spmv::Spmv;
use tmu_kernels::workload::Workload;
use tmu_sim::{configs, AddressMap};
use tmu_tensor::{gen, CooMatrix, CsrMatrix};

fn main() {
    // ------------------------------------------------------------------
    // 1. The Figure 1 matrix, by hand.
    // ------------------------------------------------------------------
    let coo = CooMatrix::from_triplets(
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
    .expect("valid triplets");
    let a = CsrMatrix::from_coo(&coo);
    println!("Figure 1 CSR: row_ptrs = {:?}", a.row_ptrs());

    // ------------------------------------------------------------------
    // 2. Program a 2-lane TMU for SpMV (the Figure 8 code) and execute it
    //    functionally: the outQ entry stream drives plain Rust callbacks.
    // ------------------------------------------------------------------
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
    b.callback(l1, Event::Ite, 0, &[nnz_op, vec_op]); // ri (Figure 6)
    b.callback(l1, Event::End, 1, &[]); // re
    let program = Arc::new(b.build().expect("well-formed"));
    let image = Arc::new(image);

    let mut x = Vec::new();
    let mut sum = 0.0;
    tmu::for_each_entry(&program, &image, |entry| match entry.callback {
        0 => {
            let n = entry.operands[0].f64s();
            let v = entry.operands[1].f64s();
            sum += n.iter().zip(v.iter()).map(|(a, b)| a * b).sum::<f64>();
        }
        _ => {
            x.push(sum);
            sum = 0.0;
        }
    });
    println!("TMU functional SpMV: x = {x:?} (expect [70, 0, 60, 240])");
    assert_eq!(x, vec![70.0, 0.0, 60.0, 240.0]);

    // ------------------------------------------------------------------
    // 3. Full timing comparison on the Table 5 system: baseline core vs
    //    core + TMU, on a larger scattered matrix.
    // ------------------------------------------------------------------
    let big = gen::uniform(8192, 65_536, 8, 42);
    let workload = Spmv::new(&big);
    workload.verify().expect("TMU matches the reference");

    let cfg = configs::neoverse_n1_system();
    let base = workload.run_baseline(cfg);
    let run = workload.run_tmu(cfg, TmuConfig::paper());
    let (bc, bf, bb) = base.breakdown();
    let (tc, tf, tb) = run.stats.breakdown();
    println!();
    println!(
        "SpMV on a {}x{} matrix ({} nnz), 8 simulated cores:",
        big.rows(),
        big.cols(),
        big.nnz()
    );
    println!(
        "  baseline: {:>9} cycles  (commit {:.0}% / frontend {:.0}% / backend {:.0}%)  {:.1} GB/s",
        base.cycles,
        bc * 100.0,
        bf * 100.0,
        bb * 100.0,
        base.bandwidth_gbs()
    );
    println!(
        "  with TMU: {:>9} cycles  (commit {:.0}% / frontend {:.0}% / backend {:.0}%)  {:.1} GB/s",
        run.stats.cycles,
        tc * 100.0,
        tf * 100.0,
        tb * 100.0,
        run.stats.bandwidth_gbs()
    );
    println!(
        "  speedup: {:.2}x   (outQ read-to-write ratio {:.2})",
        base.cycles as f64 / run.stats.cycles as f64,
        run.read_to_write_ratio()
    );
}
