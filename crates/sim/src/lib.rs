//! Cycle-level multicore simulator for the TMU reproduction.
//!
//! This crate replaces the gem5 infrastructure of the original paper with a
//! from-scratch, trace-driven timing model (the substitution is argued in
//! the repository's `DESIGN.md`). Kernels written against the [`Machine`]
//! trait emit a committed-path op stream with explicit data dependencies;
//! a [`System`] executes those streams on out-of-order core models
//! ([`Core`]) backed by a three-level cache hierarchy with finite MSHRs
//! ([`MemSys`]), a mesh NoC, and HBM2e channel models — the structures
//! whose contention produces the frontend/backend stall behaviour the
//! paper measures.
//!
//! Near-core engines (the TMU itself, in the `tmu` crate) attach through
//! the [`Accelerator`] trait: they issue traversal reads against the LLC
//! via [`MemSys::accel_read`], write outQ chunks into the host L2 via
//! [`MemSys::accel_write`], and hand the host core the callback ops to
//! compute.
//!
//! # Example
//!
//! ```
//! use tmu_sim::{configs, Deps, Machine, Site, System};
//!
//! let mut system = System::new(configs::neoverse_n1_system());
//! let stats = system
//!     .run(vec![|m: &mut tmu_sim::ChannelMachine| {
//!         // A tiny streaming kernel: load, multiply, accumulate.
//!         let mut acc = tmu_sim::OpId::NONE;
//!         for i in 0..1000u64 {
//!             let x = m.load(Site(1), 0x10_000 + i * 8, 8, Deps::NONE);
//!             acc = m.fp_op(2, Deps::on(&[x, acc]));
//!         }
//!     }])
//!     .expect("one shard fits the system");
//! assert!(stats.cycles > 0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

mod accel;
mod addr;
mod bpred;
mod cache;
pub mod configs;
mod core;
mod dram;
mod driver;
mod fasthash;
mod fault;
pub mod imp;
mod machine;
mod memsys;
mod noc;
mod op;
mod prefetch;
mod served;
mod stats;
mod system;

pub use accel::{drive_standalone, Accelerator, NullAccelerator};
pub use addr::{line_of, AddressMap, Region, CACHELINE, PAGE};
pub use bpred::BranchPredictor;
pub use cache::{Cache, CacheConfig, MshrPool, Probe};
pub use core::{Core, CoreConfig, CoreStats, OpSource, SliceSource};
pub use dram::{Dram, DramConfig};
pub use fault::{
    FaultEvent, FaultKind, FaultPlan, FaultSpec, FaultStats, FaultTrigger, SlotFaultEvent,
    SlotFaultKind, SlotFaultPlan, SlotFaultSpec, SlotFaultStats,
};
pub use machine::{CountingMachine, Machine, VecMachine};
pub use memsys::{MemSys, MemSysConfig};
pub use noc::Mesh;
pub use op::{Deps, Op, OpId, OpKind, Site};
pub use prefetch::{BestOffsetPrefetcher, StridePrefetcher};
pub use served::{DriveOutcome, ServedCore, SlotStats};
pub use stats::{CacheLevelStats, MemStats, Roofline, RunStats};
pub use system::{
    ChannelMachine, SimError, System, SystemConfig, CYCLE_LIMIT, DEFAULT_WATCHDOG_CYCLES,
};
