//! Sparse tensor algebra workloads for the TMU reproduction.
//!
//! Every kernel evaluated in the paper (§6, Table 4) exists here in three
//! coupled forms:
//!
//! 1. a **reference** implementation (plain Rust) used as correctness
//!    oracle;
//! 2. a **software baseline** written against [`tmu_sim::Machine`],
//!    following the TACO/GenTen/GAP loop structures and vectorized
//!    SVE-style (vector loads, element-cracked gathers, data-dependent
//!    loop branches);
//! 3. a **TMU mapping** — a [`tmu::Program`] per Table 4 plus a
//!    [`tmu::CallbackHandler`] carrying the host-side compute of §4.3.
//!
//! All workloads implement [`workload::Workload`], which the benchmark
//! harness (`tmu-bench`) sweeps to regenerate the paper's figures.

#![warn(missing_docs)]

pub mod cpals;
pub mod data;
pub mod mapping;
pub mod mttkrp;
pub mod pagerank;
pub mod sddmm;
pub mod spkadd;
pub mod spmm;
pub mod spmspm;
pub mod spmspv;
pub mod spmv;
pub mod sptc;
pub mod spttm;
pub mod spttv;
pub mod trianglecount;
pub mod util;
pub mod workload;

pub use workload::{run_engines, KernelKind, TmuRun, Workload};
