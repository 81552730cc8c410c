//! Differential tests: the expression front-end against the hand-written
//! Table 4 kernels.
//!
//! For each kernel with an expressible einsum the suite checks, across a
//! generator grid (uniform, RMAT, banded, fixed-nnz):
//!
//! 1. **Feature equality** — the generated program reports the same
//!    [`tmu_kernels::mapping::ProgramFeatures`] as the hand-written one
//!    (pinned per kernel);
//! 2. **Bit-identical results** — functional execution of the generated
//!    program through `tmu::for_each_entry` produces exactly the bits the
//!    hand-written handler produces;
//! 3. **Interpreter cross-check** — the reference interpreter matches the
//!    kernel's software oracle at 1e-9.
//!
//! Two expressions with no hand-written counterpart (a 3-operand
//! disjunctive add and a mixed CSR×CSF×dense contraction) close the loop
//! through both backends.

use std::collections::BTreeMap;
use std::sync::Arc;

use tmu::CallbackHandler;
use tmu_front::bindings::{Bindings, TensorData};
use tmu_front::graph::IterationGraph;
use tmu_front::lower::{lower, ExprHandler};
use tmu_front::parse::parse;
use tmu_front::workload::compare_maps;
use tmu_front::ExprWorkload;
use tmu_kernels::data::{CsfOnSim, DenseOnSim};
use tmu_kernels::mapping::{features, ProgramFeatures};
use tmu_kernels::{spkadd, spmspm, spmspv, spmv, spttv, Workload};
use tmu_sim::{AddressMap, OpId, VecMachine};
use tmu_tensor::{gen, CooTensor, CsfTensor, CsrMatrix};

/// The matrix grid every matrix kernel is differenced on.
fn matrix_grid() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("uniform", gen::uniform(128, 96, 5, 21)),
        ("rmat", gen::rmat(6, 500, 3)),
        ("banded", gen::banded(96, 12, 4, 7)),
        ("fixed_row", gen::fixed_row(64, 4, 9)),
    ]
}

fn assert_bits(what: &str, got: f64, want: f64) {
    assert!(
        got.to_bits() == want.to_bits(),
        "{what}: {got} (0x{:016x}) != {want} (0x{:016x})",
        got.to_bits(),
        want.to_bits()
    );
}

// ---------------------------------------------------------------- SpMV --

#[test]
fn spmv_features_and_bits_match_across_grid() {
    for (name, a) in matrix_grid() {
        let hand = spmv::Spmv::new(&a);
        let w = ExprWorkload::new("y(i) = A(i,j:csr) * x(j)", &a).expect("compiles");
        let hf = features(&hand.build_program((0, a.rows()), 8));
        let gf = features(&w.lowered(8).expect("lowers").program);
        assert_eq!(hf, gf, "SpMV/{name} features diverge");
        assert!(gf.chained_mem && gf.rng && gf.dns, "SpMV/{name}");

        let want = hand.functional();
        let got = w.run_functional(8).expect("runs");
        for (i, &w_i) in want.iter().enumerate() {
            let g = got.get(&vec![i as u32]).copied().unwrap_or(0.0);
            assert_bits(&format!("SpMV/{name} row {i}"), g, w_i);
        }
    }
}

#[test]
fn spmv_interpreter_matches_kernel_reference() {
    for (name, a) in matrix_grid() {
        let hand = spmv::Spmv::new(&a);
        let w = ExprWorkload::new("y(i) = A(i,j:csr) * x(j)", &a).expect("compiles");
        for (i, &want) in hand.reference().iter().enumerate() {
            let got = w.oracle().get(&vec![i as u32]).copied().unwrap_or(0.0);
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "SpMV/{name} row {i}: {got} vs {want}"
            );
        }
    }
}

// -------------------------------------------------------------- SpMSpV --

#[test]
fn spmspv_features_and_bits_match_across_grid() {
    for (name, a) in matrix_grid() {
        // Density 0.2 == the auto-bound stride-5 sparse vector.
        let hand = spmspv::Spmspv::new(&a, 0.2);
        let w = ExprWorkload::new("y(i) = A(i,j:csr) * x(j:sparse)", &a).expect("compiles");
        let hf = features(&hand.build_program((0, a.rows())));
        let gf = features(&w.lowered(8).expect("lowers").program);
        assert_eq!(hf, gf, "SpMSpV/{name} features diverge");
        assert!(
            gf.modes.contains(&tmu::LayerMode::ConjMrg),
            "SpMSpV/{name} must merge conjunctively"
        );

        let want = hand.functional();
        let got = w.run_functional(8).expect("runs");
        for (i, &w_i) in want.iter().enumerate() {
            let g = got.get(&vec![i as u32]).copied().unwrap_or(0.0);
            assert_bits(&format!("SpMSpV/{name} row {i}"), g, w_i);
        }
    }
}

#[test]
fn spmspv_interpreter_matches_kernel_reference() {
    for (name, a) in matrix_grid() {
        let hand = spmspv::Spmspv::new(&a, 0.2);
        let w = ExprWorkload::new("y(i) = A(i,j:csr) * x(j:sparse)", &a).expect("compiles");
        for (i, &want) in hand.reference().iter().enumerate() {
            let got = w.oracle().get(&vec![i as u32]).copied().unwrap_or(0.0);
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "SpMSpV/{name} row {i}: {got} vs {want}"
            );
        }
    }
}

// -------------------------------------------------------------- SpMSpM --

#[test]
fn spmspm_features_and_bits_match_across_grid() {
    for (name, a) in [
        ("uniform", gen::uniform(64, 64, 4, 11)),
        ("rmat", gen::rmat(5, 300, 5)),
        ("banded", gen::banded(64, 10, 3, 13)),
    ] {
        let hand = spmspm::Spmspm::new(&a);
        // auto_bind makes the second distinct rank-2 tensor the transpose
        // of the first: exactly the kernel's B = Aᵀ.
        let w = ExprWorkload::new("Z(i,j) = A(i,k:csr) * B(k,j:csr)", &a).expect("compiles");
        let hf = features(&hand.build_program((0, a.rows()), 8));
        let gf = features(&w.lowered(8).expect("lowers").program);
        assert_eq!(hf, gf, "SpMSpM/{name} features diverge");
        assert!(gf.fwd && gf.chained_mem, "SpMSpM/{name} scan-and-lookup");

        let (z_cols, z) = hand.functional();
        let got = w.run_functional(8).expect("runs");
        // Kernel output is row-major / column-sorted; so is the map.
        let ptrs = hand.reference().row_ptrs().to_vec();
        let mut flat = Vec::new();
        for i in 0..hand.reference().rows() {
            for p in ptrs[i] as usize..ptrs[i + 1] as usize {
                flat.push((vec![i as u32, z_cols[p]], z[p]));
            }
        }
        assert_eq!(got.len(), flat.len(), "SpMSpM/{name} nnz count");
        for ((gk, gv), (wk, wv)) in got.iter().zip(&flat) {
            assert_eq!(gk, wk, "SpMSpM/{name} structure");
            assert_bits(&format!("SpMSpM/{name} at {wk:?}"), *gv, *wv);
        }
    }
}

#[test]
fn spmspm_interpreter_matches_kernel_reference() {
    let a = gen::uniform(48, 48, 4, 17);
    let hand = spmspm::Spmspm::new(&a);
    let w = ExprWorkload::new("Z(i,j) = A(i,k:csr) * B(k,j:csr)", &a).expect("compiles");
    let mut want = BTreeMap::new();
    for i in 0..hand.reference().rows() {
        for (c, v) in hand.reference().row(i) {
            want.insert(vec![i as u32, c], v);
        }
    }
    compare_maps("SpMSpM interp", w.oracle(), &want, 1e-9).expect("interpreter matches");
}

// -------------------------------------------------------------- SpKAdd --

const SPKADD_EXPR: &str = "Z(i,j) = A0(i,j:dcsr) + A1(i,j:dcsr) + A2(i,j:dcsr) \
    + A3(i,j:dcsr) + A4(i,j:dcsr) + A5(i,j:dcsr) + A6(i,j:dcsr) + A7(i,j:dcsr)";

#[test]
fn spkadd_features_and_bits_match_across_grid() {
    for (name, a) in [
        ("uniform", gen::uniform(256, 64, 4, 21)),
        ("rmat", gen::rmat(7, 600, 9)),
        ("fixed_row", gen::fixed_row(64, 4, 9)),
    ] {
        let hand = spkadd::Spkadd::new(&a);
        // An 8-term sum: auto_bind splits the base rows cyclically over
        // the terms, the same construction the kernel uses (K = 8).
        let w = ExprWorkload::new(SPKADD_EXPR, &a).expect("compiles");
        let out_rows = a.rows() / spkadd::K;
        let hf = features(&hand.build_program((0, out_rows)));
        let gf = features(&w.lowered(8).expect("lowers").program);
        assert_eq!(hf, gf, "SpKAdd/{name} features diverge");
        assert_eq!(gf.modes, vec![tmu::LayerMode::DisjMrg], "SpKAdd/{name}");
        assert_eq!(gf.lanes, 8, "SpKAdd/{name} merges 8 matrices");

        let want = hand.functional();
        let got = w.run_functional(8).expect("runs");
        assert_eq!(got.len(), want.len(), "SpKAdd/{name} nnz count");
        for ((gk, gv), (r, c, wv)) in got.iter().zip(&want) {
            assert_eq!(gk, &vec![*r, *c], "SpKAdd/{name} structure");
            assert_bits(&format!("SpKAdd/{name} at ({r},{c})"), *gv, *wv);
        }
    }
}

#[test]
fn spkadd_interpreter_matches_kernel_reference() {
    let a = gen::uniform(128, 48, 4, 33);
    let hand = spkadd::Spkadd::new(&a);
    let w = ExprWorkload::new(SPKADD_EXPR, &a).expect("compiles");
    let mut want = BTreeMap::new();
    for i in 0..hand.reference().rows() {
        for (c, v) in hand.reference().row(i) {
            want.insert(vec![i as u32, c], v);
        }
    }
    compare_maps("SpKAdd interp", w.oracle(), &want, 1e-9).expect("interpreter matches");
}

// --------------------------------------------------------------- SpTTV --

/// Binds the same CSF tensor and `0.5 + (k mod 71)/71` vector the kernel
/// binds, so values (not just structure) coincide bit for bit.
fn spttv_bindings(coo: &CooTensor) -> (Bindings, AddressMap, tmu::MemImage) {
    let csf = CsfTensor::from_coo(coo);
    let dim_k = coo.dims()[2];
    let b_vals: Vec<f64> = (0..dim_k).map(|x| 0.5 + (x % 71) as f64 / 71.0).collect();
    let mut map = AddressMap::new();
    let mut image = tmu::MemImage::new();
    let t = CsfOnSim::bind(&mut map, &mut image, "T", &csf);
    let c = DenseOnSim::bind(&mut map, &mut image, "c", b_vals);
    let mut binds = Bindings::new();
    binds.insert(TensorData::from_csf("T", &t));
    binds.insert(TensorData::dense_vec("c", &c));
    (binds, map, image)
}

#[test]
fn spttv_features_and_bits_match_across_grid() {
    for (name, coo) in [
        ("t1", gen::random_tensor(&[24, 16, 18], 500, 41)),
        ("t2", gen::random_tensor(&[40, 12, 20], 800, 7)),
    ] {
        let hand = spttv::Spttv::new(&coo);
        let csf = CsfTensor::from_coo(&coo);
        let expr = parse("Z(i,j) = T(i,j,k:csf) * c(k)").expect("parses");
        let graph = IterationGraph::build(&expr).expect("acyclic");
        let (binds, mut map, image) = spttv_bindings(&coo);
        let lowered = lower(&expr, &graph, &binds, 8).expect("lowers");

        let hf = features(&hand.build_program((0, csf.num_nodes(0)), 8));
        let gf = features(&lowered.program);
        // The generated program additionally streams the root/fiber
        // coordinates (it reconstructs output keys); everything else —
        // traversals, modes, chaining, lanes — must coincide.
        assert_eq!(hf.modes, gf.modes, "SpTTV/{name} modes");
        assert_eq!(hf.layers, gf.layers, "SpTTV/{name} layers");
        assert_eq!(hf.lanes, gf.lanes, "SpTTV/{name} lanes");
        assert_eq!(
            (hf.dns, hf.rng, hf.idx, hf.chained_mem, hf.fwd),
            (gf.dns, gf.rng, gf.idx, gf.chained_mem, gf.fwd),
            "SpTTV/{name} primitives"
        );

        let z_cap = csf.num_nodes(1).max(1);
        let z_r = map.alloc_elems("z_expr", z_cap, 8);
        let mut handler = ExprHandler::new(lowered.plan, z_r, z_cap);
        let prog = Arc::new(lowered.program);
        let image = Arc::new(image);
        let mut vm = VecMachine::new();
        tmu::for_each_entry(&prog, &image, |e| {
            handler.handle(e, OpId::NONE, &mut vm);
        });
        let got = handler.into_out();

        // Kernel output is one sum per (i, j) fiber in CSF (sorted) fiber
        // order; the map iterates in the same lexicographic order.
        let want = hand.functional();
        assert_eq!(got.len(), want.len(), "SpTTV/{name} fiber count");
        for ((k, gv), wv) in got.iter().zip(&want) {
            assert_bits(&format!("SpTTV/{name} at {k:?}"), *gv, *wv);
        }
    }
}

#[test]
fn spttv_interpreter_matches_kernel_reference() {
    let coo = gen::random_tensor(&[24, 16, 18], 500, 41);
    let hand = spttv::Spttv::new(&coo);
    let expr = parse("Z(i,j) = T(i,j,k:csf) * c(k)").expect("parses");
    let graph = IterationGraph::build(&expr).expect("acyclic");
    let (binds, _map, _image) = spttv_bindings(&coo);
    let got = tmu_front::interp::evaluate(&expr, &graph, &binds).expect("evaluates");
    let want = hand.reference();
    assert_eq!(got.len(), want.len(), "fiber count");
    for ((k, gv), wv) in got.iter().zip(want) {
        assert!(
            (gv - wv).abs() <= 1e-9 * wv.abs().max(1.0),
            "SpTTV interp at {k:?}: {gv} vs {wv}"
        );
    }
}

// -------------------------------------- expressions with no counterpart --

#[test]
fn three_operand_disjunctive_add_runs_both_backends() {
    // E1: no hand-written kernel sums three matrices.
    let w = ExprWorkload::new(
        "Z(i,j) = A(i,j:dcsr) + B(i,j:dcsr) + C(i,j:dcsr)",
        &gen::uniform(96, 48, 4, 5),
    )
    .expect("compiles");
    assert_eq!(w.graph().loops.len(), 2);
    // verify() is exactly "compiled backend == interpreter backend".
    w.verify().expect("both backends agree");
    assert!(!w.oracle().is_empty());
}

#[test]
fn mixed_format_contraction_runs_both_backends() {
    // E2: CSR × CSF × dense, three storage formats in one product.
    let w = ExprWorkload::new(
        "y(i) = A(i,j:csr) * T(j,k,l:csf) * x(l:dense)",
        &gen::uniform(48, 24, 3, 13),
    )
    .expect("compiles");
    assert_eq!(w.graph().order(), vec!["i", "j", "k", "l"]);
    w.verify().expect("both backends agree");
    assert!(!w.oracle().is_empty());
}

// ----------------------------------------------- pinned feature tables --

#[test]
fn generated_programs_pin_their_feature_rows() {
    let a = gen::uniform(64, 64, 4, 1);
    let rows: Vec<(&str, &str, ProgramFeatures)> = vec![
        (
            "SpMV",
            "y(i) = A(i,j:csr) * x(j)",
            ProgramFeatures {
                dns: true,
                rng: true,
                mem: true,
                chained_mem: true,
                modes: vec![tmu::LayerMode::Single, tmu::LayerMode::LockStep],
                layers: 2,
                lanes: 8,
                ..Default::default()
            },
        ),
        (
            "SpMSpV",
            "y(i) = A(i,j:csr) * x(j:sparse)",
            ProgramFeatures {
                dns: true,
                rng: true,
                mem: true,
                modes: vec![tmu::LayerMode::Single, tmu::LayerMode::ConjMrg],
                layers: 2,
                lanes: 2,
                ..Default::default()
            },
        ),
        (
            "SpMSpM",
            "Z(i,j) = A(i,k:csr) * B(k,j:csr)",
            ProgramFeatures {
                dns: true,
                rng: true,
                mem: true,
                chained_mem: true,
                fwd: true,
                modes: vec![tmu::LayerMode::Single, tmu::LayerMode::LockStep],
                layers: 3,
                lanes: 8,
                ..Default::default()
            },
        ),
    ];
    for (name, src, want) in rows {
        let w = ExprWorkload::new(src, &a).expect("compiles");
        let got = features(&w.lowered(8).expect("lowers").program);
        assert_eq!(got, want, "{name} generated feature row drifted");
    }
}
