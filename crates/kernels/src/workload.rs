//! The [`Workload`] abstraction used by the benchmark harness.
//!
//! Every evaluated kernel packages its input data, its vectorized software
//! baseline (the TACO-style implementations of §6), and its TMU mapping
//! (Table 4) behind this trait so the figure harnesses can sweep
//! kernels × inputs × configurations uniformly.

use std::sync::Arc;

use tmu::{CallbackHandler, MemImage, OutQStats, Program, TmuAccelerator, TmuConfig};
use tmu_sim::{Accelerator, Region, RunStats, System, SystemConfig};

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
        let ratios: Vec<f64> = self
            .outq
            .iter()
            .map(OutQStats::read_to_write_ratio)
            .filter(|r| *r > 0.0)
            .collect();
        if ratios.is_empty() {
            0.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        }
    }
}

/// Runs one TMU engine per shard on a fresh `cfg` system: `build(core,
/// shard)` supplies core `core`'s program and callback handler, and its
/// engine writes the outQ at `outq[core]`.
pub fn run_engines<S: Copy, H: CallbackHandler + 'static>(
    cfg: SystemConfig,
    tmu: TmuConfig,
    image: &Arc<MemImage>,
    outq: &[Region],
    shards: &[S],
    mut build: impl FnMut(usize, S) -> (Program, H),
) -> TmuRun {
    let mut handles = Vec::with_capacity(shards.len());
    let accels = shards
        .iter()
        .enumerate()
        .map(|(core, &shard)| {
            let (program, handler) = build(core, shard);
            let base = outq[core].base;
            let acc = TmuAccelerator::new(tmu, Arc::new(program), Arc::clone(image), handler, base);
            handles.push(acc.stats_handle());
            Box::new(acc) as Box<dyn Accelerator>
        })
        .collect();
    let stats = System::new(cfg).run_accelerated(accels);
    let outq = handles
        .iter()
        .map(|h| h.lock().expect("stats").clone())
        .collect();
    TmuRun { stats, outq }
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
