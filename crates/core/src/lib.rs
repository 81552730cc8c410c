//! The Tensor Marshaling Unit (TMU).
//!
//! Reproduction of the near-core programmable dataflow engine of
//! *"A Tensor Marshaling Unit for Sparse Tensor Algebra on General-Purpose
//! Processors"* (MICRO 2023). The TMU offloads sparse-tensor **traversal**
//! and **merging** from an out-of-order core: a matrix of Traversal Units
//! (lanes × layers) walks compressed tensor fibers in dataflow fashion,
//! merges or co-iterates lanes in hardware, and *marshals* the resulting
//! vector operands into a memory-mapped output queue that the host core
//! consumes with SIMD callback functions.
//!
//! * [`ProgramBuilder`] — the Figure 8 configuration API: traversal
//!   primitives `DnsFbrT`/`RngFbrT`/`IdxFbrT` (Table 1), data streams
//!   `ite`/`mem`/`lin`/`map`/`ldr`/`fwd` (Table 2), inter-layer modes
//!   `Single`/`Keep`/`LockStep`/`DisjMrg`/`ConjMrg` with broadcast lane
//!   binding (Table 3), and callback registration (§4.3).
//! * [`Interp`] / [`run_functional`] — functional execution (the §5 FSM
//!   semantics), usable standalone for correctness work.
//! * [`TmuAccelerator`] — the cycle-timing model implementing
//!   [`tmu_sim::Accelerator`]: §5.4 memory arbiter against the simulated
//!   LLC, §5.5 queue sizing, §5.3 serialized outQ construction with
//!   double-buffered chunks written into the host L2.
//! * [`area`] — analytical area model calibrated to the paper's RTL
//!   synthesis results; [`context`] — §5.6 context save/restore.
//!
//! # Example: a CSR traversal marshaled to a callback
//!
//! ```
//! use std::sync::Arc;
//! use tmu::{Event, LayerMode, MemImage, ProgramBuilder, StreamTy};
//! use tmu_sim::AddressMap;
//!
//! // CSR matrix of Figure 1 (row pointers + values).
//! let mut map = AddressMap::new();
//! let ptrs_r = map.alloc_elems("ptrs", 5, 4);
//! let vals_r = map.alloc_elems("vals", 5, 8);
//! let mut image = MemImage::new();
//! image.bind_u32(ptrs_r, Arc::new(vec![0, 2, 2, 3, 5]));
//! image.bind_f64(vals_r, Arc::new(vec![1., 2., 3., 4., 5.]));
//!
//! let mut b = ProgramBuilder::new();
//! let rows = b.layer(LayerMode::Single);
//! let row = b.dns_fbrt(rows, 0, 4, 1);
//! let beg = b.mem_stream(row, ptrs_r.base, 4, StreamTy::Index);
//! let end = b.mem_stream(row, ptrs_r.base + 4, 4, StreamTy::Index);
//! let cols = b.layer(LayerMode::Single);
//! let col = b.rng_fbrt(cols, beg, end, 0, 1);
//! let nnz = b.mem_stream(col, vals_r.base, 8, StreamTy::Value);
//! let op = b.vec_operand(cols, &[nnz]);
//! b.callback(cols, Event::Ite, 0, &[op]);
//! let program = Arc::new(b.build()?);
//!
//! let entries = tmu::run_functional(&program, &Arc::new(image));
//! assert_eq!(entries.len(), 5); // one per stored non-zero
//! # Ok::<(), tmu::ProgramError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod area;
mod config;
pub mod context;
mod error;
mod image;
mod interp;
mod program;
mod steps;
mod timing;

pub use config::TmuConfig;
pub use error::TmuError;
// Fault-model glue re-exported so kernels and harnesses need only `tmu`.
pub use image::MemImage;
pub use interp::{for_each_entry, run_functional, Interp, StepBatcher, STEP_BATCH};
pub use program::{
    CallbackDef, Event, IndexSrc, LayerDef, LayerId, LayerMode, OperandDef, OperandId, Program,
    ProgramBuilder, ProgramError, StreamDef, StreamRef, StreamTy, TraversalDef, TuDef, TuId,
};
pub use steps::{
    ElemId, EntryShapes, LaneWord, Lanes, MemLoad, Operand, OutQEntry, PendingStep, Step, StepKind,
    MAX_LOAD_DEPS,
};
pub use timing::{CallbackHandler, ChunkStat, OutQSnapshot, OutQStats, TmuAccelerator};
pub use tmu_sim::{FaultEvent, FaultKind, FaultPlan, FaultSpec, FaultStats, FaultTrigger};
