//! Sparse Tensor Times Vector, `Z_ij = Σ_k A_ijk · B_k` (CSF).
//!
//! A three-deep compressed traversal (CSF root → j fibers → k leaves) with
//! an SpMV-style scan-and-lookup at the innermost level. One output value
//! per `(i, j)` fiber. Table 4 row "SpTTV": the k level is lockstep
//! vectorized across lanes.

use std::sync::Arc;

use tmu::{
    CallbackHandler, Event, LayerMode, MemImage, OutQEntry, Program, ProgramBuilder, StreamTy,
    TmuConfig,
};
use tmu_sim::{AddressMap, Deps, Machine, OpId, Region, RunStats, Site, SystemConfig, VecMachine};
use tmu_tensor::{CooTensor, CsfTensor};

use crate::data::{partition_flat, CsfOnSim, DenseOnSim};
use crate::util::{check_close, fold_deps};
use crate::workload::{run_cores, run_engines, run_functional, KernelKind, TmuRun, Workload};

const S_ROOT: u16 = 220;
const S_JPTR: u16 = 221;
const S_KIDX: u16 = 222;
const S_KVAL: u16 = 223;
const S_GATHER: u16 = 224;
const S_STORE: u16 = 225;
const S_K_BR: u16 = 226;
const S_J_BR: u16 = 227;
const S_I_BR: u16 = 228;

const CB_KI: u32 = 0;
const CB_FIB_END: u32 = 1;

/// An SpTTV workload bound to the simulator.
#[derive(Debug)]
pub struct Spttv {
    t: CsfOnSim,
    b: DenseOnSim,
    z_r: Region,
    outq_r: Vec<Region>,
    image: Arc<MemImage>,
    reference: Vec<f64>,
}

impl Spttv {
    /// Workload category.
    pub const KIND: KernelKind = KernelKind::MemoryIntensive;

    /// Binds order-3 tensor `t` (as CSF) with a deterministic vector.
    pub fn new(tensor: &CooTensor) -> Self {
        assert_eq!(tensor.order(), 3, "SpTTV needs an order-3 tensor");
        let csf = CsfTensor::from_coo(tensor);
        let dim_k = tensor.dims()[2];
        let b_vals: Vec<f64> = (0..dim_k).map(|x| 0.5 + (x % 71) as f64 / 71.0).collect();
        // Reference: one sum per (i, j) fiber, in CSF fiber order.
        let mut reference = Vec::with_capacity(csf.num_nodes(1));
        for jn in 0..csf.num_nodes(1) {
            let (kb, ke) = csf.child_range(1, jn);
            reference.push(
                (kb..ke)
                    .map(|p| csf.vals()[p] * b_vals[csf.idxs(2)[p] as usize])
                    .sum(),
            );
        }
        let mut map = AddressMap::new();
        let mut image = MemImage::new();
        let t = CsfOnSim::bind(&mut map, &mut image, "t", &csf);
        let b = DenseOnSim::bind(&mut map, &mut image, "b", b_vals);
        let z_r = map.alloc_elems("z", csf.num_nodes(1).max(1), 8);
        let outq_r = (0..8)
            .map(|c| map.alloc(&format!("outq{c}"), 1 << 20))
            .collect();
        Self {
            t,
            b,
            z_r,
            outq_r,
            image: Arc::new(image),
            reference,
        }
    }

    /// The reference per-fiber sums.
    pub fn reference(&self) -> &[f64] {
        &self.reference
    }

    /// Shared memory image (for standalone engine experiments).
    pub fn image_handle(&self) -> Arc<MemImage> {
        Arc::clone(&self.image)
    }

    /// outQ base address of a core.
    pub fn outq_base(&self, core: usize) -> u64 {
        self.outq_r[core].base
    }

    /// Number of root (mode-0) fibers in the CSF tensor.
    pub fn roots(&self) -> usize {
        self.t.idxs[0].len()
    }

    /// Functional TMU execution (8 shards, 8 lanes): per-fiber sums in
    /// CSF fiber order, exactly as the callback handler computes them.
    pub fn functional(&self) -> Vec<f64> {
        run_functional(&self.image, &self.shards(8), |_, roots| {
            self.engine(roots, 8)
        })
        .into_iter()
        .flat_map(|h| h.z)
        .collect()
    }

    fn shards(&self, cores: usize) -> Vec<(usize, usize)> {
        partition_flat(self.t.idxs[0].len(), cores)
    }

    /// The Table 4 mapping of a root-node shard.
    fn engine(&self, roots: (usize, usize), lanes: usize) -> (Program, SpttvHandler) {
        let first_fiber = self.t.ptrs[0][roots.0] as usize;
        let handler = SpttvHandler::new(self.z_r, first_fiber);
        (self.build_program(roots, lanes), handler)
    }

    /// Builds the Table 4 SpTTV TMU program for a root-node range.
    pub fn build_program(&self, roots: (usize, usize), lanes: usize) -> Program {
        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        let itu = bld.dns_fbrt(l0, roots.0 as i64, roots.1 as i64, 1);
        let p0b = bld.mem_stream(itu, self.t.ptrs_r[0].base, 4, StreamTy::Index);
        let p0e = bld.mem_stream(itu, self.t.ptrs_r[0].base + 4, 4, StreamTy::Index);

        let l1 = bld.layer(LayerMode::Single);
        let jtu = bld.rng_fbrt(l1, p0b, p0e, 0, 1);
        let p1b = bld.mem_stream(jtu, self.t.ptrs_r[1].base, 4, StreamTy::Index);
        let p1e = bld.mem_stream(jtu, self.t.ptrs_r[1].base + 4, 4, StreamTy::Index);

        let l2 = bld.layer(LayerMode::LockStep);
        let mut vals = Vec::new();
        let mut bs = Vec::new();
        for lane in 0..lanes as i64 {
            let ktu = bld.rng_fbrt(l2, p1b, p1e, lane, lanes as i64);
            let kidx = bld.mem_stream(ktu, self.t.idxs_r[2].base, 4, StreamTy::Index);
            vals.push(bld.mem_stream(ktu, self.t.vals_r.base, 8, StreamTy::Value));
            bs.push(bld.mem_stream_indexed(ktu, self.b.region.base, 8, StreamTy::Value, kidx));
        }
        let fanout1 = self.t.idxs[1].len() as f64 / self.t.idxs[0].len().max(1) as f64;
        let fanout2 = self.t.nnz() as f64 / self.t.idxs[1].len().max(1) as f64;
        bld.set_weight(l0, 1.0);
        bld.set_weight(l1, fanout1.max(1.0));
        bld.set_weight(l2, (fanout1 * fanout2).max(2.0));
        let v_op = bld.vec_operand(l2, &vals);
        let b_op = bld.vec_operand(l2, &bs);
        bld.callback(l2, Event::Ite, CB_KI, &[v_op, b_op]);
        bld.callback(l2, Event::End, CB_FIB_END, &[]);
        bld.build().expect("SpTTV program is well-formed")
    }
}

fn emit_baseline<M: Machine + ?Sized>(m: &mut M, w: &Spttv, roots: (usize, usize), vl: usize) {
    let (n0, n1) = roots;
    let t = &w.t;
    for n in n0..n1 {
        let r0 = m.load(Site(S_ROOT), t.ptrs_r[0].u32_at(n), 4, Deps::NONE);
        let r1 = m.load(Site(S_ROOT), t.ptrs_r[0].u32_at(n + 1), 4, Deps::NONE);
        let (jb, je) = (t.ptrs[0][n] as usize, t.ptrs[0][n + 1] as usize);
        for jn in jb..je {
            let q0 = m.load(Site(S_JPTR), t.ptrs_r[1].u32_at(jn), 4, Deps::on(&[r0, r1]));
            let q1 = m.load(
                Site(S_JPTR),
                t.ptrs_r[1].u32_at(jn + 1),
                4,
                Deps::on(&[r0, r1]),
            );
            let (kb, ke) = (t.ptrs[1][jn] as usize, t.ptrs[1][jn + 1] as usize);
            let mut sum = OpId::NONE;
            let mut p = kb;
            while p < ke {
                let nn = (ke - p).min(vl);
                let bounds = Deps::on(&[q0, q1]);
                let kv = m.vec_load(Site(S_KIDX), t.idxs_r[2].u32_at(p), (nn * 4) as u32, bounds);
                let vv = m.vec_load(Site(S_KVAL), t.vals_r.f64_at(p), (nn * 8) as u32, bounds);
                let mut prods = Vec::with_capacity(nn + 2);
                for e in 0..nn {
                    let k = t.idxs[2][p + e] as usize;
                    prods.push(m.load(Site(S_GATHER), w.b.region.f64_at(k), 8, Deps::from(kv)));
                }
                prods.push(vv);
                if sum.is_some() {
                    prods.push(sum);
                }
                let deps = fold_deps(m, &prods);
                sum = m.vec_op((2 * nn) as u32, deps);
                p += nn;
                m.branch(Site(S_K_BR), p < ke, bounds);
            }
            m.store(Site(S_STORE), w.z_r.f64_at(jn), 8, Deps::from(sum));
            m.branch(Site(S_J_BR), jn + 1 < je, Deps::NONE);
        }
        m.branch(Site(S_I_BR), n + 1 < n1, Deps::NONE);
    }
}

/// Host callbacks: accumulate per fiber, store at fiber end.
#[derive(Debug)]
pub struct SpttvHandler {
    z_r: Region,
    next_fiber: usize,
    sum: f64,
    sum_dep: OpId,
    /// Functional per-fiber sums.
    pub z: Vec<f64>,
}

impl SpttvHandler {
    /// Handler for fibers starting at `first_fiber`.
    pub fn new(z_r: Region, first_fiber: usize) -> Self {
        Self {
            z_r,
            next_fiber: first_fiber,
            sum: 0.0,
            sum_dep: OpId::NONE,
            z: Vec::new(),
        }
    }
}

impl CallbackHandler for SpttvHandler {
    fn handle(&mut self, entry: &OutQEntry, entry_load: OpId, m: &mut VecMachine) {
        match entry.callback {
            CB_KI => {
                let vals = entry.operands[0].f64s();
                let bs = entry.operands[1].f64s();
                self.sum += vals.iter().zip(bs.iter()).map(|(a, b)| a * b).sum::<f64>();
                let active = entry.mask.count_ones();
                let mul = m.vec_op(active, Deps::from(entry_load));
                self.sum_dep = m.vec_op(active, Deps::on(&[mul, self.sum_dep]));
            }
            CB_FIB_END => {
                self.z.push(self.sum);
                self.sum = 0.0;
                m.store(
                    Site(S_STORE),
                    self.z_r.f64_at(self.next_fiber),
                    8,
                    Deps::from(self.sum_dep),
                );
                self.next_fiber += 1;
                self.sum_dep = OpId::NONE;
            }
            other => panic!("SpTTV: unexpected callback {other}"),
        }
    }
}

impl Workload for Spttv {
    fn name(&self) -> &'static str {
        "SpTTV"
    }

    fn kind(&self) -> KernelKind {
        Self::KIND
    }

    fn run_baseline(&self, cfg: SystemConfig) -> RunStats {
        let vl = cfg.core.sve_lanes();
        run_cores(cfg, &self.shards(cfg.cores()), |m, _, roots| {
            emit_baseline(m, self, roots, vl)
        })
    }

    fn run_tmu(&self, cfg: SystemConfig, tmu: TmuConfig) -> TmuRun {
        let shards = self.shards(cfg.cores());
        run_engines(cfg, tmu, &self.image, &self.outq_r, &shards, |_, roots| {
            self.engine(roots, tmu.lanes)
        })
    }

    fn verify(&self) -> Result<(), String> {
        check_close("SpTTV", &self.functional(), &self.reference, 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmu_sim::{CoreConfig, MemSysConfig};
    use tmu_tensor::gen;

    #[test]
    fn verify_against_reference() {
        Spttv::new(&gen::random_tensor(&[48, 24, 32], 1200, 41))
            .verify()
            .expect("TMU SpTTV must match reference");
    }

    #[test]
    fn baseline_and_tmu_run() {
        let w = Spttv::new(&gen::random_tensor(&[48, 24, 32], 1200, 41));
        let cfg = SystemConfig {
            core: CoreConfig::neoverse_n1_like(),
            mem: MemSysConfig::table5(2),
        };
        let base = w.run_baseline(cfg);
        let run = w.run_tmu(cfg, TmuConfig::paper());
        assert!(base.cycles > 0 && run.stats.cycles > 0);
        assert!(run.outq.iter().map(|o| o.entries).sum::<u64>() as usize >= w.reference.len());
    }
}
