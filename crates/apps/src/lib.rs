//! Application pipelines over the TMU engine.
//!
//! The paper evaluates single kernels; real traffic is multi-kernel.
//! This crate models three *applications*, each a fixed chain of
//! dependent TMU stages that re-runs every round, with host logic
//! between rounds:
//!
//! - [`AppKind::Gnn`] — one GNN layer: an SDDMM attention-score stage
//!   feeding an SpMM aggregation stage, run once;
//! - [`AppKind::Cg`] — conjugate-gradient solve: an SpMV stage per
//!   iteration plus host axpy/dot updates, with a convergence predicate
//!   and an iteration cap;
//! - [`AppKind::PageRank`] — the `tmu-kernels` PageRank loop: one gather
//!   stage per iteration plus the dense contribution update, to an L1
//!   tolerance or the cap.
//!
//! [`AppExec`] drives a job stage-by-stage through a two-call protocol
//! ([`AppExec::next_stage`] / [`AppExec::complete_stage`]) that leaves
//! *how* each stage's engine run is scheduled entirely to the caller —
//! the serving layer preempts mid-stage via the §5.6 snapshot path and
//! restarts faulted stages from the last stage boundary, and the result
//! tensors are bit-identical either way because stage outputs come from
//! a pure functional pass over the program and image.
//!
//! [`StageCaches`] is the two-level cache behind every build: built
//! tensors (level 1) and compiled programs (level 2), shared across
//! iterations, jobs, and tenants. Both levels are plain memos over a
//! finite set of app shapes, so nothing is evicted; per-tenant counters
//! report their hit rates.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod cache;
pub mod exec;

pub use cache::{StageCaches, TenantCacheStats};
pub use exec::{AppExec, AppKind, AppSpec, StageBuild, StageOp, StageRecord, SERVE_LANES};
