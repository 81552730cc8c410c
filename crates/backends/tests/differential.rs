//! Differential suite: both alternative engines must be *bit-identical*
//! to their references — the hand-written kernel oracles for the kernel
//! entry points, the `tmu-front` interpreter for compiled expressions —
//! across a spread of shapes (ragged tile edges, empty rows, tall/wide,
//! conjunctive and disjunctive merges).

use std::collections::BTreeMap;

use tmu_backends::{blocked, sam};
use tmu_front::ExprWorkload;
use tmu_kernels::spmm::{Spmm, RANK};
use tmu_kernels::spmv::Spmv;
use tmu_sim::{CoreConfig, MemSysConfig, SystemConfig};
use tmu_tensor::{gen, CsrMatrix};

fn cfg(cores: usize) -> SystemConfig {
    SystemConfig {
        core: CoreConfig::neoverse_n1_like(),
        mem: MemSysConfig::table5(cores),
    }
}

/// Shapes chosen to exercise ragged remainder tiles (neither dimension a
/// multiple of 4x8), empty rows (road/rmat skew), and tiny inputs.
fn matrices() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("uniform", gen::uniform(130, 99, 5, 7)),
        ("banded", gen::banded(77, 6, 4, 11)),
        ("skewed", gen::rmat(7, 500, 13)),
        ("sparse-rows", gen::road(101, 2, 17)),
        ("tiny", gen::uniform(3, 5, 2, 19)),
        ("single-row", gen::uniform(1, 40, 20, 23)),
    ]
}

fn assert_bits(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: slot {i}: got {g}, want {w}"
        );
    }
}

fn assert_map_bits(what: &str, got: &BTreeMap<Vec<u32>, f64>, want: &BTreeMap<Vec<u32>, f64>) {
    assert_eq!(got.len(), want.len(), "{what}: key sets differ");
    for (k, w) in want {
        let g = got
            .get(k)
            .unwrap_or_else(|| panic!("{what}: {k:?} missing"));
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: value at {k:?}");
    }
}

#[test]
fn blocked_spmv_is_bit_identical_across_shapes() {
    for (name, a) in matrices() {
        let want = Spmv::new(&a);
        assert_bits(
            &format!("blocked spmv on {name}"),
            &blocked::spmv_values(&a),
            want.reference(),
        );
    }
}

#[test]
fn blocked_spmm_is_bit_identical_across_shapes() {
    for (name, a) in matrices() {
        let want = Spmm::new(&a);
        let got = blocked::spmm_values(&a);
        assert_eq!(got.len(), a.rows() * RANK);
        assert_bits(&format!("blocked spmm on {name}"), &got, want.reference());
    }
}

#[test]
fn blocked_expr_path_is_bit_identical_to_the_interpreter() {
    for (name, a) in matrices() {
        let w = ExprWorkload::new("y(i) = A(i,j:csr) * x(j)", &a).expect("compiles");
        let got = blocked::expr_values(&w).expect("supported");
        assert_map_bits(&format!("blocked expr on {name}"), &got, w.oracle());
    }
}

#[test]
fn blocked_rejects_expressions_it_cannot_tile() {
    let a = gen::uniform(48, 48, 4, 3);
    for src in [
        "Z(i,j) = A(i,k:csr) * B(k,j:csr)",
        "Z(i,j) = A(i,j:dcsr) + B(i,j:dcsr)",
    ] {
        let w = ExprWorkload::new(src, &a).expect("compiles");
        assert!(
            blocked::expr_values(&w).is_none(),
            "{src} has no blocked lowering"
        );
    }
}

#[test]
fn sam_kernels_are_bit_identical_across_shapes() {
    for (name, a) in matrices() {
        for kernel in ["SpMV", "SpMSpM", "SpKAdd"] {
            let src = sam::einsum_for(kernel).expect("supported");
            // SpKAdd's auto-binding splits the base matrix into K row
            // groups, which a 1-row input legitimately cannot support.
            let w = match ExprWorkload::new(src, &a) {
                Ok(w) => w,
                Err(e) if a.rows() < 2 => {
                    assert!(e.to_string().contains("fewer than 2 rows"), "{name}: {e}");
                    continue;
                }
                Err(e) => panic!("{kernel} on {name}: {e}"),
            };
            let run = sam::run_expr(&w, cfg(1));
            assert_map_bits(&format!("sam {kernel} on {name}"), &run.result, w.oracle());
        }
    }
}

#[test]
fn sam_expressions_are_bit_identical_across_merges() {
    let a = gen::uniform(60, 72, 5, 31);
    for src in [
        "y(i) = A(i,j:csr) * x(j)",
        "y(i) = A(i,j:csr) * x(j:sparse)",
        "Z(i,j) = A(i,k:csr) * B(k,j:csr)",
        "Z(i,j) = A(i,j:dcsr) + B(i,j:dcsr)",
        "y(i) = A(i,j:csr) * T(j,k,l:csf) * x(l:dense)",
    ] {
        let w = ExprWorkload::new(src, &a).expect("compiles");
        let run = sam::run_expr(&w, cfg(1));
        assert_map_bits(src, &run.result, w.oracle());
    }
}

#[test]
fn both_engines_agree_on_the_shared_spmv_shape() {
    // BlockedSve folds rows from 0.0 (the kernel reference order) while
    // its expression path and SamStream reproduce the interpreter. On
    // SpMV all three coincide: one product per (row, col), accumulated
    // in ascending column order.
    for (name, a) in matrices() {
        let w = ExprWorkload::new("y(i) = A(i,j:csr) * x(j)", &a).expect("compiles");
        let b = blocked::expr_values(&w).expect("supported");
        let s = sam::run_expr(&w, cfg(1)).result;
        assert_map_bits(&format!("blocked vs sam on {name}"), &b, &s);
    }
}

#[test]
fn engine_costs_stay_plausible() {
    let a = gen::uniform(96, 96, 6, 41);
    let br = blocked::run_kernel("SpMV", &a, cfg(1)).expect("SpMV is lowered");
    assert!(br.stats.cycles > 0);
    assert!(br.tiles > 0);
    assert!(br.tile_occupancy > 0.0 && br.tile_occupancy <= 1.0);
    let sr = sam::run_kernel("SpMV", &a, cfg(1)).expect("SpMV streams");
    assert!(sr.stats.cycles > 0);
    assert!(sr.tokens > a.nnz() as u64);
    // The streaming model commits roughly one token per node per cycle;
    // the blocked path amortizes whole tiles per vector op. Both must
    // stay within sane bounds of the input size.
    assert!(sr.stats.cycles < 64 * a.nnz() as u64);
    assert!(br.stats.cycles < 64 * 8 * a.nnz() as u64);
}
