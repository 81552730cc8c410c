//! Property tests: the TMU's hardware merge semantics must equal the
//! reference fiber-merge iterators of `tmu-tensor` on arbitrary fibers.

use std::sync::Arc;

use proptest::prelude::*;

use tmu::{Event, LayerMode, MemImage, ProgramBuilder, StreamTy};
use tmu_sim::AddressMap;
use tmu_tensor::merge::{ConjunctiveMerge, DisjunctiveMerge, FiberSlice};

/// Builds a k-lane single-layer merge program over the given fibers and
/// returns the (coord, mask, per-lane values) triples it marshals.
fn run_tmu_merge(fibers: &[(Vec<u32>, Vec<f64>)], conjunctive: bool) -> Vec<(i64, u64, Vec<f64>)> {
    let mut map = AddressMap::new();
    let mut image = MemImage::new();
    let mut regions = Vec::new();
    for (n, (idxs, vals)) in fibers.iter().enumerate() {
        let ir = map.alloc_elems(&format!("i{n}"), idxs.len().max(1), 4);
        let vr = map.alloc_elems(&format!("v{n}"), vals.len().max(1), 8);
        image.bind_u32(ir, Arc::new(idxs.clone()));
        image.bind_f64(vr, Arc::new(vals.clone()));
        regions.push((ir, vr));
    }
    let mut b = ProgramBuilder::new();
    let l0 = b.layer(if conjunctive {
        LayerMode::ConjMrg
    } else {
        LayerMode::DisjMrg
    });
    let mut keys = Vec::new();
    let mut vals = Vec::new();
    for (n, (idxs, _)) in fibers.iter().enumerate() {
        let tu = b.dns_fbrt(l0, 0, idxs.len() as i64, 1);
        let k = b.mem_stream(tu, regions[n].0.base, 4, StreamTy::Index);
        vals.push(b.mem_stream(tu, regions[n].1.base, 8, StreamTy::Value));
        b.set_key(tu, k);
        keys.push(k);
    }
    let key_op = b.vec_operand(l0, &keys);
    let val_op = b.vec_operand(l0, &vals);
    b.callback(l0, Event::Ite, 0, &[key_op, val_op]);
    let prog = Arc::new(b.build().expect("merge program"));
    tmu::run_functional(&prog, &Arc::new(image))
        .into_iter()
        .map(|e| {
            let first = e.mask.trailing_zeros() as usize;
            (
                e.operands[0].indexes().lane(first),
                e.mask,
                e.operands[1].f64s().iter().collect(),
            )
        })
        .collect()
}

/// Strategy: a sorted, deduplicated fiber of up to 24 elements.
fn fiber() -> impl Strategy<Value = (Vec<u32>, Vec<f64>)> {
    proptest::collection::btree_set(0u32..64, 0..24).prop_map(|set| {
        let idxs: Vec<u32> = set.into_iter().collect();
        let vals: Vec<f64> = idxs.iter().map(|&i| 1.0 + i as f64).collect();
        (idxs, vals)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn disjunctive_merge_matches_reference(fibers in proptest::collection::vec(fiber(), 1..6)) {
        let got = run_tmu_merge(&fibers, false);
        let slices: Vec<FiberSlice> = fibers
            .iter()
            .map(|(i, v)| FiberSlice::new(i, v))
            .collect();
        let want: Vec<(i64, u64, Vec<f64>)> = DisjunctiveMerge::new(slices)
            .map(|item| (item.coord as i64, item.mask, item.vals))
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn conjunctive_merge_matches_reference(fibers in proptest::collection::vec(fiber(), 1..5)) {
        let got = run_tmu_merge(&fibers, true);
        let slices: Vec<FiberSlice> = fibers
            .iter()
            .map(|(i, v)| FiberSlice::new(i, v))
            .collect();
        let want: Vec<(i64, u64, Vec<f64>)> = ConjunctiveMerge::new(slices)
            .map(|item| (item.coord as i64, item.mask, item.vals))
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn disjunctive_output_is_sorted_and_complete(fibers in proptest::collection::vec(fiber(), 1..6)) {
        let got = run_tmu_merge(&fibers, false);
        // Sorted, unique coordinates.
        for w in got.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
        // Every input coordinate appears exactly once.
        let total_distinct: std::collections::BTreeSet<u32> = fibers
            .iter()
            .flat_map(|(i, _)| i.iter().copied())
            .collect();
        prop_assert_eq!(got.len(), total_distinct.len());
    }
}
