//! Alternative execution engines for the TMU reproduction.
//!
//! The benchmark harness (`tmu-bench`) dispatches every job through an
//! `EngineVariant` seam. This crate adds two engines that are neither the
//! TMU nor the IMP-style software baselines:
//!
//! * [`blocked`] — **BlockedSve**: a register-tiled BCSR software path.
//!   CSR fibers are re-marshaled into 4×8 tiles (one 512-bit SVE vector
//!   of f64 per tile row), then the kernel streams whole tiles through
//!   dense micro-kernels. The cost model charges full tiles — occupancy
//!   is the measured trade-off — while the functional result honours the
//!   per-tile occupancy masks and stays bit-identical to the reference.
//!
//! * [`sam`] — **SamStream**: a cycle-approximate SAM-style streaming
//!   dataflow model (level scanners, intersection/union mergers, repeat
//!   and reduce nodes connected by bounded token queues), compiled from
//!   the same `tmu-front` iteration graph the TMU path lowers from. The
//!   functional result is produced *through* the token machine in FIFO
//!   order, which reproduces the reference interpreter's accumulation
//!   order exactly — so bit-identity holds by construction.
//!
//! Both engines expose `run_kernel` / `run_expr` entry points returning
//! their `RunStats` plus engine-specific observables (tile occupancy,
//! stream token counts) that `tmu-bench` records under the `blocked` and
//! `sam` sections of its `bench.json` rows. An entry point that returns
//! `Option` answers `None` for a kernel or expression the engine has no
//! lowering for; that answer is the engine's whole support set.

#![warn(missing_docs)]

pub mod blocked;
pub mod sam;
