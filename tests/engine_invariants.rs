//! Property tests over the TMU engine's step-stream invariants and its
//! end-to-end functional correctness on arbitrary inputs, plus a pin that
//! the batch and served entry points drive an engine identically.

use std::sync::Arc;

use proptest::prelude::*;

use tmu::{
    Event, Interp, LayerMode, MemImage, ProgramBuilder, StepKind, StreamTy, TmuAccelerator,
    TmuConfig,
};
use tmu_kernels::spmv::{Spmv, SpmvHandler};
use tmu_sim::{AddressMap, CoreConfig, MemSysConfig, ServedCore, System, SystemConfig};
use tmu_tensor::{gen, CooMatrix, CsrMatrix};

/// An arbitrary small CSR matrix.
fn csr(rows: usize, cols: usize) -> impl Strategy<Value = CsrMatrix> {
    proptest::collection::btree_map((0..rows as u32, 0..cols as u32), 0.25f64..4.0, 0..rows * 3)
        .prop_map(move |m| {
            let triplets = m.into_iter().map(|((r, c), v)| (r, c, v)).collect();
            CsrMatrix::from_coo(&CooMatrix::from_triplets(rows, cols, triplets).expect("in range"))
        })
}

struct Fixture {
    program: Arc<tmu::Program>,
    image: Arc<MemImage>,
}

/// Builds the SpMV P1 program over `m` with `lanes` lanes.
fn spmv_fixture(m: &CsrMatrix, bvec: &[f64], lanes: usize) -> Fixture {
    let mut map = AddressMap::new();
    let ptrs_r = map.alloc_elems("p", m.row_ptrs().len(), 4);
    let idxs_r = map.alloc_elems("i", m.nnz().max(1), 4);
    let vals_r = map.alloc_elems("v", m.nnz().max(1), 8);
    let b_r = map.alloc_elems("b", bvec.len(), 8);
    let mut image = MemImage::new();
    image.bind_u32(ptrs_r, Arc::new(m.row_ptrs().to_vec()));
    image.bind_u32(idxs_r, Arc::new(m.col_idxs().to_vec()));
    image.bind_f64(vals_r, Arc::new(m.vals().to_vec()));
    image.bind_f64(b_r, Arc::new(bvec.to_vec()));
    let mut b = ProgramBuilder::new();
    let l0 = b.layer(LayerMode::Single);
    let row = b.dns_fbrt(l0, 0, m.rows() as i64, 1);
    let pb = b.mem_stream(row, ptrs_r.base, 4, StreamTy::Index);
    let pe = b.mem_stream(row, ptrs_r.base + 4, 4, StreamTy::Index);
    let l1 = b.layer(LayerMode::LockStep);
    let mut nnz = Vec::new();
    let mut vecv = Vec::new();
    for lane in 0..lanes as i64 {
        let col = b.rng_fbrt(l1, pb, pe, lane, lanes as i64);
        let ci = b.mem_stream(col, idxs_r.base, 4, StreamTy::Index);
        nnz.push(b.mem_stream(col, vals_r.base, 8, StreamTy::Value));
        vecv.push(b.mem_stream_indexed(col, b_r.base, 8, StreamTy::Value, ci));
    }
    let nnz_op = b.vec_operand(l1, &nnz);
    let vec_op = b.vec_operand(l1, &vecv);
    b.callback(l1, Event::Ite, 0, &[nnz_op, vec_op]);
    b.callback(l1, Event::End, 1, &[]);
    Fixture {
        program: Arc::new(b.build().expect("well-formed")),
        image: Arc::new(image),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spmv_is_correct_for_any_matrix_and_lane_count(
        m in csr(24, 16),
        lanes in 1usize..=8,
    ) {
        let bvec: Vec<f64> = (0..16).map(|j| 1.0 + j as f64).collect();
        let fx = spmv_fixture(&m, &bvec, lanes);
        let mut x = Vec::new();
        let mut sum = 0.0;
        tmu::for_each_entry(&fx.program, &fx.image, |e| match e.callback {
            0 => {
                let n = e.operands[0].f64s();
                let v = e.operands[1].f64s();
                sum += n.iter().zip(v.iter()).map(|(a, b)| a * b).sum::<f64>();
            }
            _ => {
                x.push(sum);
                sum = 0.0;
            }
        });
        let want: Vec<f64> = (0..m.rows())
            .map(|i| m.row(i).map(|(c, v)| v * bvec[c as usize]).sum())
            .collect();
        prop_assert_eq!(x.len(), want.len());
        for (g, w) in x.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-9, "{} vs {}", g, w);
        }
    }

    #[test]
    fn step_stream_invariants_hold(m in csr(24, 16), lanes in 1usize..=8) {
        let bvec: Vec<f64> = vec![1.0; 16];
        let fx = spmv_fixture(&m, &bvec, lanes);
        let mut interp = Interp::new(Arc::clone(&fx.program), Arc::clone(&fx.image));
        let mut open: Vec<i64> = vec![0; 2]; // per-layer Beg/End balance
        let mut last_ordinal: std::collections::HashMap<(u8, u8, u8), u64> =
            Default::default();
        let mut expected_id: u64 = 0;
        let mut total_ite_l1_consumed = 0usize;
        while let Some(step) = interp.next_step() {
            let l = step.layer as usize;
            match step.kind {
                StepKind::Beg => {
                    open[l] += 1;
                    // A layer can only begin while its parent is open.
                    if l > 0 {
                        prop_assert!(open[l - 1] > 0);
                    }
                }
                StepKind::End => {
                    open[l] -= 1;
                    prop_assert!(open[l] >= 0, "unbalanced End at layer {}", l);
                }
                StepKind::Ite | StepKind::Skip => {
                    prop_assert!(open[l] > 0, "Ite outside an open traversal");
                    prop_assert!(step.mask != 0, "Ite must have participants");
                    if step.kind == StepKind::Ite && l == 1 {
                        total_ite_l1_consumed += step.consumed.len();
                    }
                }
            }
            for ld in &step.loads {
                // Load ids are dense and in creation order.
                prop_assert_eq!(ld.id, expected_id);
                expected_id += 1;
                // Per-(TU, stream) ordinals are strictly increasing.
                let key = (ld.layer, ld.lane, ld.stream);
                if let Some(&prev) = last_ordinal.get(&key) {
                    prop_assert!(ld.elem_ordinal > prev);
                }
                last_ordinal.insert(key, ld.elem_ordinal);
                // Dependencies always point backwards.
                for &d in ld.deps() {
                    prop_assert!(d < ld.id);
                }
            }
        }
        // Every traversal that began also ended.
        prop_assert!(open.iter().all(|&o| o == 0));
        // Layer-1 Ite steps consumed exactly nnz elements in total.
        prop_assert_eq!(total_ite_l1_consumed, m.nnz());
    }

    #[test]
    fn entry_count_is_lane_invariant_only_in_sum(m in csr(24, 16)) {
        // The marshaled *work* (sum of active lanes over all ri entries)
        // equals nnz regardless of lane count; the entry count shrinks as
        // lanes grow.
        let bvec: Vec<f64> = vec![1.0; 16];
        let mut counts = Vec::new();
        for lanes in [1usize, 4, 8] {
            let fx = spmv_fixture(&m, &bvec, lanes);
            let entries = tmu::run_functional(&fx.program, &fx.image);
            let active: u32 = entries
                .iter()
                .filter(|e| e.callback == 0)
                .map(|e| e.mask.count_ones())
                .sum();
            prop_assert_eq!(active as usize, m.nnz());
            counts.push(entries.iter().filter(|e| e.callback == 0).count());
        }
        prop_assert!(counts[0] >= counts[1] && counts[1] >= counts[2]);
    }
}

/// One SpMV engine driven three ways — a 1-core batch run, one unbounded
/// served drive, and served drives in 97-cycle quanta — takes the same
/// cycles and produces the same handler output each way.
#[test]
fn batch_and_served_entry_points_agree() {
    let w = Spmv::new(&gen::uniform(2048, 65_536, 8, 7));
    let engine = || {
        let program = Arc::new(w.build_program((0, 2048), 8));
        let handler = SpmvHandler::new(w.x_region(), 0);
        TmuAccelerator::new(
            TmuConfig::paper(),
            program,
            w.image_handle(),
            handler,
            w.outq_base(0),
        )
        .expect("SpMV fits the engine")
    };
    let (core, mem) = (CoreConfig::neoverse_n1_like(), MemSysConfig::table5(1));

    let mut batch = [engine()];
    let stats = System::new(SystemConfig { core, mem })
        .run_accelerated(&mut batch)
        .expect("no wedge");
    let x = batch[0].handler().x.clone();
    assert!(!x.is_empty());

    let mut whole = engine();
    let out = ServedCore::new(core, mem)
        .drive(&mut whole, 0, u64::MAX)
        .expect("no wedge");
    assert!(out.finished);
    assert_eq!(out.cycles, stats.cycles);
    assert_eq!(whole.handler().x, x);

    let mut sliced = engine();
    let mut slot = ServedCore::new(core, mem);
    while !slot.drive(&mut sliced, 0, 97).expect("no wedge").finished {}
    assert_eq!(slot.now(), stats.cycles);
    assert_eq!(sliced.handler().x, x);
}
