//! The [`Workload`] abstraction used by the benchmark harness, and the
//! runners every kernel derives its runs from.
//!
//! Every evaluated kernel packages its input data, its vectorized software
//! baseline (the TACO-style implementations of §6), and its TMU mapping
//! (Table 4) behind this trait so the figure harnesses can sweep
//! kernels × inputs × configurations uniformly.
//!
//! A kernel is its bindings, a shard list, an op-stream emitter, and one
//! engine mapping: a function from a shard to its `(Program, handler)`
//! pair. The runners here derive everything else. [`run_cores`] (and
//! `run_cores_imp`, with the IMP prefetcher) replays the emitter with
//! shard `i` on core `i`; [`run_engines`] times the mapping on one engine
//! per core; `run_functional` executes it through the functional
//! interpreter for `functional` and `verify`. `System::run` spawns its
//! shards inside `std::thread::scope`, so an emitter borrows the
//! workload's own data instead of capturing an `Arc`-cloned copy of it.
//! `System::run_accelerated` borrows its engines, so [`run_engines`] owns
//! them and reads each engine's outQ stats after the run.
//!
//! The `System` runs and the engine constructor return typed errors.
//! [`Workload::run_baseline`] and [`Workload::run_tmu`] return plain
//! stats, so [`run_engines`] and the op-stream runners are the one place
//! where such an error becomes a panic, carrying the error's message.

use std::sync::Arc;

use tmu::{CallbackHandler, MemImage, OutQStats, Program, TmuAccelerator, TmuConfig};
use tmu_sim::{ChannelMachine, OpId, Region, RunStats, System, SystemConfig, VecMachine};

/// The paper's workload categories (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum KernelKind {
    /// Traversal-dominated (SpMV, PR, MTTKRP, CP-ALS).
    MemoryIntensive,
    /// Computation-dominated (SpMSpM).
    ComputeIntensive,
    /// Merging-dominated (SpKAdd, TC, SpTC).
    MergeIntensive,
}

/// Result of a TMU-accelerated run.
#[derive(Debug, Clone)]
pub struct TmuRun {
    /// System-level statistics.
    pub stats: RunStats,
    /// Per-core outQ statistics (Figure 13).
    pub outq: Vec<OutQStats>,
}

impl TmuRun {
    /// Mean read-to-write ratio across cores with activity.
    pub fn read_to_write_ratio(&self) -> f64 {
        mean_read_to_write(self.outq.iter().map(OutQStats::read_to_write_ratio))
    }
}

/// The Figure 13 metric of a run: the mean of its per-core read-to-write
/// ratios over the cores with outQ activity (a positive ratio); 0 when no
/// core has any.
pub fn mean_read_to_write(per_core: impl IntoIterator<Item = f64>) -> f64 {
    let ratios: Vec<f64> = per_core.into_iter().filter(|r| *r > 0.0).collect();
    if ratios.is_empty() {
        0.0
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64
    }
}

/// Runs one TMU engine per shard on a fresh `cfg` system: `build(core,
/// shard)` supplies core `core`'s program and callback handler, and its
/// engine writes the outQ at `outq[core]`.
///
/// # Panics
///
/// Panics with the typed error's message if an engine refuses its
/// program (e.g. more lanes than `tmu` has) or the simulation fails.
pub fn run_engines<S: Copy, H: CallbackHandler>(
    cfg: SystemConfig,
    tmu: TmuConfig,
    image: &Arc<MemImage>,
    outq: &[Region],
    shards: &[S],
    mut build: impl FnMut(usize, S) -> (Program, H),
) -> TmuRun {
    let mut engines: Vec<TmuAccelerator<H>> = shards
        .iter()
        .enumerate()
        .map(|(core, &shard)| {
            let (program, handler) = build(core, shard);
            let base = outq[core].base;
            TmuAccelerator::new(tmu, Arc::new(program), Arc::clone(image), handler, base)
                .unwrap_or_else(|e| panic!("{e}"))
        })
        .collect();
    let stats = System::new(cfg)
        .run_accelerated(&mut engines)
        .unwrap_or_else(|e| panic!("{e}"));
    let outq = engines.into_iter().map(|e| e.into_parts().1).collect();
    TmuRun { stats, outq }
}

/// Replays `emit(machine, core, shard)` for every shard on a fresh `cfg`
/// system, shard `i` on core `i`.
pub fn run_cores<S: Copy + Send>(
    cfg: SystemConfig,
    shards: &[S],
    emit: impl Fn(&mut ChannelMachine, usize, S) + Sync,
) -> RunStats {
    run_on_cores(cfg, shards, emit, false)
}

/// [`run_cores`] with the Indirect Memory Prefetcher attached to every
/// core (§7.3, Figure 15).
pub(crate) fn run_cores_imp<S: Copy + Send>(
    cfg: SystemConfig,
    shards: &[S],
    emit: impl Fn(&mut ChannelMachine, usize, S) + Sync,
) -> RunStats {
    run_on_cores(cfg, shards, emit, true)
}

fn run_on_cores<S: Copy + Send>(
    cfg: SystemConfig,
    shards: &[S],
    emit: impl Fn(&mut ChannelMachine, usize, S) + Sync,
    imp: bool,
) -> RunStats {
    let emit = &emit;
    let streams: Vec<_> = shards
        .iter()
        .enumerate()
        .map(|(core, &shard)| move |m: &mut ChannelMachine| emit(m, core, shard))
        .collect();
    let mut sys = System::new(cfg);
    let run = if imp {
        sys.run_with_imp(streams)
    } else {
        sys.run(streams)
    };
    run.unwrap_or_else(|e| panic!("{e}"))
}

/// Executes one engine mapping per shard through the functional
/// interpreter: `build(core, shard)` supplies the program and the handler
/// that consumes its outQ entries. Returns the handlers in shard order.
pub fn run_functional<S: Copy, H: CallbackHandler>(
    image: &Arc<MemImage>,
    shards: &[S],
    mut build: impl FnMut(usize, S) -> (Program, H),
) -> Vec<H> {
    shards
        .iter()
        .enumerate()
        .map(|(core, &shard)| {
            let (program, mut handler) = build(core, shard);
            let mut vm = VecMachine::new();
            tmu::for_each_entry(&Arc::new(program), image, |e| {
                handler.handle(e, OpId::NONE, &mut vm);
            });
            handler
        })
        .collect()
}

/// Adds a sequential phase (a barrier-separated run on a fresh system)
/// into `acc`: cycles, DRAM traffic and per-core counts.
pub(crate) fn add_phase(acc: &mut RunStats, phase: &RunStats) {
    acc.cycles += phase.cycles;
    acc.dram_bytes += phase.dram_bytes;
    for (a, p) in acc.cores.iter_mut().zip(&phase.cores) {
        a.merge(p);
    }
}

/// A benchmarkable kernel instance (kernel + bound input).
pub trait Workload: Send + Sync {
    /// Kernel name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Workload category.
    fn kind(&self) -> KernelKind;

    /// Runs the vectorized software baseline on a fresh system.
    fn run_baseline(&self, sys: SystemConfig) -> RunStats;

    /// Runs the TMU-accelerated version on a fresh system.
    fn run_tmu(&self, sys: SystemConfig, tmu: TmuConfig) -> TmuRun;

    /// Runs the baseline with the IMP prefetcher attached (§7.3);
    /// `None` when the kernel is not part of the Figure 15 comparison.
    fn run_baseline_imp(&self, _sys: SystemConfig) -> Option<RunStats> {
        None
    }

    /// Checks the TMU functional results against the reference
    /// implementation.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    fn verify(&self) -> Result<(), String>;
}
