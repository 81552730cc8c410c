//! CP-ALS: canonical polyadic tensor decomposition by alternating least
//! squares (GenTen), the paper's end-to-end application for COO tensors.
//!
//! One ALS sweep updates every factor matrix: for each mode, an MTTKRP
//! against the other factors followed by a small dense solve (Gram matrix
//! inverse, `RANK × RANK`) and column normalization. The MTTKRPs dominate
//! and are TMU-accelerated; the dense solve/normalization runs on the
//! core in both versions — the paper highlights exactly this need to
//! "evaluate partial results at each iteration" as the reason a
//! near-core design beats standalone accelerators (§8).
//!
//! Within a sweep all modes use the sweep's starting factors
//! (Jacobi-style update): traversal behaviour and cost are identical to
//! the Gauss-Seidel variant while keeping the bound memory image static.

use tmu::TmuConfig;
use tmu_sim::{Deps, Machine, RunStats, Site, SystemConfig};
use tmu_tensor::{CooTensor, Idx};

use crate::data::partition_flat;
use crate::mttkrp::{Mttkrp, MttkrpVariant, RANK};
use crate::workload::{add_phase, run_cores, KernelKind, TmuRun, Workload};

const S_GRAM_LD: u16 = 330;
const S_GRAM_ST: u16 = 331;
const S_SOLVE_BR: u16 = 332;

/// A CP-ALS workload: one ALS sweep over all three modes.
#[derive(Debug)]
pub struct CpAls {
    modes: Vec<Mttkrp>,
    dims: Vec<usize>,
}

impl CpAls {
    /// Workload category.
    pub const KIND: KernelKind = KernelKind::MemoryIntensive;

    /// Binds `tensor` (order 3) for one ALS sweep.
    pub fn new(tensor: &CooTensor) -> Self {
        assert_eq!(tensor.order(), 3, "CP-ALS fixture uses order-3 tensors");
        let dims = tensor.dims().to_vec();
        // Mode-m MTTKRP needs the tensor sorted with mode m first.
        let modes = (0..3)
            .map(|m| {
                let perm: Vec<usize> = match m {
                    0 => vec![0, 1, 2],
                    1 => vec![1, 0, 2],
                    _ => vec![2, 0, 1],
                };
                let entries: Vec<(Vec<Idx>, f64)> = tensor
                    .iter()
                    .map(|(c, v)| (perm.iter().map(|&d| c[d]).collect(), v))
                    .collect();
                let permuted_dims: Vec<usize> = perm.iter().map(|&d| dims[d]).collect();
                let t = CooTensor::from_entries(permuted_dims, entries)
                    .expect("permutation stays in bounds");
                Mttkrp::new(&t, MttkrpVariant::Mp)
            })
            .collect();
        Self { modes, dims }
    }

    /// The per-mode MTTKRP sub-workloads.
    pub fn modes(&self) -> &[Mttkrp] {
        &self.modes
    }

    /// Dense solve + normalization phase for mode `m` (core-side in both
    /// versions): Gram assembly over the factor rows and a rank-sized
    /// triangular solve per output row.
    fn run_solve_phase(&self, cfg: SystemConfig, mode: usize) -> RunStats {
        let vl = cfg.core.sve_lanes();
        let shards = partition_flat(self.dims[mode], cfg.cores());
        run_cores(cfg, &shards, |m, _, (r0, r1)| {
            for _row in r0..r1 {
                // Per row: RANK-length load, R²/vl FMAs against the
                // inverted Gram, store back.
                let mut r = 0;
                while r < RANK {
                    let n = (RANK - r).min(vl);
                    let bytes = (n * 8) as u32;
                    let ld = m.vec_load(
                        Site(S_GRAM_LD),
                        0x10_000 + (r * 8) as u64,
                        bytes,
                        Deps::NONE,
                    );
                    let mut acc = ld;
                    for _ in 0..RANK / n.max(1) {
                        acc = m.vec_op((2 * n) as u32, Deps::from(acc));
                    }
                    m.store(
                        Site(S_GRAM_ST),
                        0x20_000 + (r * 8) as u64,
                        bytes,
                        Deps::from(acc),
                    );
                    r += n;
                    m.branch(Site(S_SOLVE_BR), r < RANK, Deps::NONE);
                }
            }
        })
    }

    /// One ALS sweep: per mode, the MTTKRP `run` and then the dense solve,
    /// summed as sequential phases; the outQ stats concatenate.
    fn sweep(&self, cfg: SystemConfig, run: impl Fn(&Mttkrp) -> TmuRun) -> TmuRun {
        let mut total: Option<TmuRun> = None;
        for (mode, mt) in self.modes.iter().enumerate() {
            let mut phase = run(mt);
            add_phase(&mut phase.stats, &self.run_solve_phase(cfg, mode));
            match &mut total {
                None => total = Some(phase),
                Some(acc) => {
                    add_phase(&mut acc.stats, &phase.stats);
                    acc.outq.extend(phase.outq);
                }
            }
        }
        total.expect("three modes")
    }
}

impl Workload for CpAls {
    fn name(&self) -> &'static str {
        "CP-ALS"
    }

    fn kind(&self) -> KernelKind {
        Self::KIND
    }

    fn run_baseline(&self, cfg: SystemConfig) -> RunStats {
        let stats = |mt: &Mttkrp| TmuRun {
            stats: mt.run_baseline(cfg),
            outq: Vec::new(),
        };
        self.sweep(cfg, stats).stats
    }

    fn run_tmu(&self, cfg: SystemConfig, tmu: TmuConfig) -> TmuRun {
        self.sweep(cfg, |mt| mt.run_tmu(cfg, tmu))
    }

    fn verify(&self) -> Result<(), String> {
        for mt in &self.modes {
            mt.verify()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmu_sim::{CoreConfig, MemSysConfig};
    use tmu_tensor::gen;

    #[test]
    fn verify_all_modes() {
        CpAls::new(&gen::random_tensor(&[24, 16, 12], 600, 91))
            .verify()
            .expect("all three mode MTTKRPs must verify");
    }

    #[test]
    fn sweep_runs_both_versions() {
        let w = CpAls::new(&gen::random_tensor(&[24, 16, 12], 600, 91));
        let cfg = SystemConfig {
            core: CoreConfig::neoverse_n1_like(),
            mem: MemSysConfig::table5(2),
        };
        let base = w.run_baseline(cfg);
        let run = w.run_tmu(cfg, TmuConfig::paper());
        assert!(base.cycles > 0 && run.stats.cycles > 0);
        // Three MTTKRPs worth of outQ streams.
        assert_eq!(run.outq.len(), 3 * 2);
    }
}
