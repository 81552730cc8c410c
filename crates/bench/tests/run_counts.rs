//! Pins the simulated counts of every run the kernels crate's runners
//! drive (`run_cores`, its IMP twin, and `run_engines`).
//!
//! Tiny inputs on a 2-core Table 5 system: every workload's baseline,
//! IMP baseline (where the kernel has one) and TMU runs at the paper
//! configuration and with a single lane, the per-format SpMV and
//! conversion op streams, and the blocked backend. Each workload must
//! verify, and each run's cycles, committed ops, loads and outQ entries
//! must equal the recorded constants. A change to an emitter's op
//! sequence, a shard partition or the core↔shard assignment fails here.

use tmu::TmuConfig;
use tmu_backends::blocked;
use tmu_formats::spmv::run_spmv;
use tmu_formats::{conversion_cycles, FormatKind};
use tmu_front::ExprWorkload;
use tmu_kernels::cpals::CpAls;
use tmu_kernels::mttkrp::{Mttkrp, MttkrpVariant};
use tmu_kernels::pagerank::PageRank;
use tmu_kernels::spkadd::Spkadd;
use tmu_kernels::spmm::Spmm;
use tmu_kernels::spmspm::Spmspm;
use tmu_kernels::spmspv::Spmspv;
use tmu_kernels::spmv::Spmv;
use tmu_kernels::sptc::Sptc;
use tmu_kernels::spttm::Spttm;
use tmu_kernels::spttv::Spttv;
use tmu_kernels::trianglecount::TriangleCount;
use tmu_kernels::Workload;
use tmu_sim::{CoreConfig, MemSysConfig, RunStats, SystemConfig};
use tmu_tensor::{gen, CooTensor, CsrMatrix};

fn cfg() -> SystemConfig {
    SystemConfig {
        core: CoreConfig::neoverse_n1_like(),
        mem: MemSysConfig::table5(2),
    }
}

fn matrix() -> CsrMatrix {
    gen::uniform(96, 96, 4, 7)
}

fn tensor() -> CooTensor {
    gen::random_tensor(&[24, 16, 12], 300, 5)
}

/// One run's pinned counts.
fn counts(label: &str, stats: &RunStats, outq_entries: u64) -> String {
    let t = stats.total();
    format!(
        "{label}: cycles={} committed={} loads={} outq={outq_entries}",
        stats.cycles, t.committed, t.loads
    )
}

/// Verifies `w`, then runs its baseline, its IMP baseline if it has one,
/// and its TMU version at the paper configuration and, when its program
/// fits one lane, single-lane.
fn workload_counts(label: &str, w: &dyn Workload, single_lane: bool) -> Vec<String> {
    w.verify()
        .unwrap_or_else(|e| panic!("{label} must verify: {e}"));
    let mut lines = vec![counts(
        &format!("{label} baseline"),
        &w.run_baseline(cfg()),
        0,
    )];
    if let Some(stats) = w.run_baseline_imp(cfg()) {
        lines.push(counts(&format!("{label} imp"), &stats, 0));
    }
    let paper = TmuConfig::paper();
    let engines = [("tmu", paper), ("single-lane", paper.single_lane())];
    for (engine, tmu) in &engines[..if single_lane { 2 } else { 1 }] {
        let run = w.run_tmu(cfg(), *tmu);
        let entries = run.outq.iter().map(|o| o.entries).sum();
        lines.push(counts(&format!("{label} {engine}"), &run.stats, entries));
    }
    lines
}

fn check(got: &[String], want: &str) {
    let want: Vec<&str> = want
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(got, want, "counts moved; now:\n{}", got.join("\n"));
}

// The boolean says whether a workload also runs single-lane. The merge
// mappings (SpMSpV, TC, SpTC, the disjunctive sum) merge two lanes'
// fibers and need two lanes, and SpKAdd's program takes one lane per
// input matrix (eight); a one-lane engine refuses all of them with
// `TmuError::LanesExceeded`. The lowered SpMV expression's handler
// panics on its one-lane operands.

#[test]
fn matrix_kernel_runs_are_pinned() {
    let a = matrix();
    let workloads: [(&str, Box<dyn Workload>, bool); 7] = [
        ("SpMV", Box::new(Spmv::new(&a)), true),
        ("SpMSpV", Box::new(Spmspv::new(&a, 0.2)), false),
        ("SpMM", Box::new(Spmm::new(&a)), true),
        ("SpMSpM", Box::new(Spmspm::new(&a)), true),
        ("SpKAdd", Box::new(Spkadd::new(&a)), false),
        ("PR", Box::new(PageRank::new(&a)), true),
        ("TC", Box::new(TriangleCount::new(&a)), false),
    ];
    let got: Vec<String> = workloads
        .iter()
        .flat_map(|(label, w, single)| workload_counts(label, w.as_ref(), *single))
        .collect();
    check(&got, MATRIX_KERNELS);
}

#[test]
fn tensor_kernel_runs_are_pinned() {
    let t = tensor();
    let b = gen::random_tensor(&[12, 16, 20], 300, 6);
    let workloads: [(&str, Box<dyn Workload>, bool); 6] = [
        (
            "MTTKRP_MP",
            Box::new(Mttkrp::new(&t, MttkrpVariant::Mp)),
            true,
        ),
        (
            "MTTKRP_CP",
            Box::new(Mttkrp::new(&t, MttkrpVariant::Cp)),
            true,
        ),
        ("CP-ALS", Box::new(CpAls::new(&t)), true),
        ("SpTC", Box::new(Sptc::new(&t, &b)), false),
        ("SpTTV", Box::new(Spttv::new(&t)), true),
        ("SpTTM", Box::new(Spttm::new(&t)), true),
    ];
    let got: Vec<String> = workloads
        .iter()
        .flat_map(|(label, w, single)| workload_counts(label, w.as_ref(), *single))
        .collect();
    check(&got, TENSOR_KERNELS);
}

#[test]
fn expression_runs_are_pinned() {
    let a = matrix();
    let got: Vec<String> = [
        ("y(i) = A(i,j:csr) * x(j)", false),
        ("Z(i,j) = A(i,j:dcsr) + B(i,j:dcsr)", false),
        ("Z(i,j) = A(i,k:csr) * B(k,j:csr)", true),
    ]
    .iter()
    .flat_map(|&(src, single)| {
        let w = ExprWorkload::new(src, &a).expect("compiles");
        workload_counts(src, &w, single)
    })
    .collect();
    check(&got, EXPRESSIONS);
}

#[test]
fn format_and_backend_runs_are_pinned() {
    let a = matrix();
    let mut got = Vec::new();
    for kind in FormatKind::ALL {
        if let Some(stats) = run_spmv(kind, &a, cfg()) {
            got.push(counts(&format!("spmv {kind}"), &stats, 0));
        }
    }
    for kind in FormatKind::ALL {
        let stats = conversion_cycles(&a, kind, cfg());
        got.push(counts(&format!("csr->{kind}"), &stats, 0));
    }
    for kernel in ["SpMV", "SpMM"] {
        let run = blocked::run_kernel(kernel, &a, cfg()).expect("a blocked kernel");
        got.push(counts(&format!("blocked {kernel}"), &run.stats, 0));
    }
    check(&got, FORMATS_AND_BACKENDS);
}

// Recorded from the simulator; any change to these numbers is a change
// to what a run simulates.

const MATRIX_KERNELS: &str = "
    SpMV baseline: cycles=1446 committed=1250 loads=674 outq=0
    SpMV imp: cycles=1303 committed=1250 loads=674 outq=0
    SpMV tmu: cycles=765 committed=484 loads=192 outq=192
    SpMV single-lane: cycles=1057 committed=1352 loads=480 outq=480
    SpMSpV baseline: cycles=8780 committed=7879 loads=3976 outq=0
    SpMSpV tmu: cycles=1956 committed=342 loads=169 outq=169
    SpMM baseline: cycles=1760 committed=3936 loads=1728 outq=0
    SpMM tmu: cycles=1296 committed=2228 loads=1248 outq=1248
    SpMM single-lane: cycles=3672 committed=13064 loads=6624 outq=6624
    SpMSpM baseline: cycles=9458 committed=10004 loads=4526 outq=0
    SpMSpM imp: cycles=8232 committed=10004 loads=4526 outq=0
    SpMSpM tmu: cycles=3959 committed=6822 loads=2539 outq=489
    SpMSpM single-lane: cycles=3930 committed=9723 loads=3978 outq=1928
    SpKAdd baseline: cycles=13854 committed=9907 loads=2861 outq=0
    SpKAdd tmu: cycles=796 committed=1354 loads=346 outq=346
    PR baseline: cycles=1820 committed=1310 loads=602 outq=0
    PR tmu: cycles=1187 committed=544 loads=216 outq=192
    PR single-lane: cycles=1332 committed=1124 loads=504 outq=480
    TC baseline: cycles=15021 committed=7316 loads=4044 outq=0
    TC tmu: cycles=1670 committed=130 loads=64 outq=64
";

const TENSOR_KERNELS: &str = "
    MTTKRP_MP baseline: cycles=1855 committed=4548 loads=2400 outq=0
    MTTKRP_MP tmu: cycles=1925 committed=2159 loads=900 outq=900
    MTTKRP_MP single-lane: cycles=6553 committed=14824 loads=5100 outq=5100
    MTTKRP_CP baseline: cycles=1855 committed=4548 loads=2400 outq=0
    MTTKRP_CP tmu: cycles=1094 committed=2484 loads=1238 outq=38
    MTTKRP_CP single-lane: cycles=1135 committed=2750 loads=1500 outq=300
    CP-ALS baseline: cycles=6674 committed=14124 loads=7304 outq=0
    CP-ALS tmu: cycles=6599 committed=6957 loads=2804 outq=2700
    CP-ALS single-lane: cycles=21034 committed=44954 loads=15404 outq=15300
    SpTC baseline: cycles=13462 committed=8899 loads=4953 outq=0
    SpTC tmu: cycles=3227 committed=1949 loads=982 outq=503
    SpTTV baseline: cycles=2292 committed=1966 loads=1116 outq=0
    SpTTV tmu: cycles=990 committed=967 loads=384 outq=384
    SpTTV single-lane: cycles=1049 committed=1293 loads=492 outq=492
    SpTTM baseline: cycles=2703 committed=3708 loads=1632 outq=0
    SpTTM tmu: cycles=1583 committed=2094 loads=1092 outq=1092
    SpTTM single-lane: cycles=4227 committed=10560 loads=5292 outq=5292
";

const EXPRESSIONS: &str = "
    y(i) = A(i,j:csr) * x(j) baseline: cycles=1194 committed=804 loads=396 outq=0
    y(i) = A(i,j:csr) * x(j) tmu: cycles=1139 committed=483 loads=192 outq=192
    Z(i,j) = A(i,j:dcsr) + B(i,j:dcsr) baseline: cycles=1494 committed=1142 loads=480 outq=0
    Z(i,j) = A(i,j:dcsr) + B(i,j:dcsr) tmu: cycles=929 committed=1177 loads=422 outq=422
    Z(i,j) = A(i,k:csr) * B(k,j:csr) baseline: cycles=3486 committed=2810 loads=770 outq=0
    Z(i,j) = A(i,k:csr) * B(k,j:csr) tmu: cycles=4483 committed=1186 loads=393 outq=393
    Z(i,j) = A(i,k:csr) * B(k,j:csr) single-lane: cycles=2626 committed=5525 loads=1832 outq=1832
";

const FORMATS_AND_BACKENDS: &str = "
    spmv csr: cycles=1482 committed=1344 loads=768 outq=0
    spmv dcsr: cycles=1587 committed=1440 loads=864 outq=0
    spmv bcsr: cycles=1419 committed=2516 loads=1368 outq=0
    spmv banded: cycles=1251 committed=2015 loads=1535 outq=0
    csr->csr: cycles=0 committed=0 loads=0 outq=0
    csr->dcsr: cycles=581 committed=480 loads=192 outq=0
    csr->bcsr: cycles=2170 committed=1920 loads=384 outq=0
    csr->banded: cycles=1765 committed=1440 loads=672 outq=0
    csr->hashed: cycles=2019 committed=1824 loads=384 outq=0
    blocked SpMV: cycles=2830 committed=4436 loads=1752 outq=0
    blocked SpMM: cycles=3905 committed=11204 loads=5052 outq=0
";
