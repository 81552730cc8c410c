//! Sparse Tensor Times Matrix, `Z_{ijk} = Σ_l A_{ijl} · B_{lk}` (CSF).
//!
//! Per `(i, j)` fiber the l leaves scale rows of the dense factor `B`
//! into a rank-length accumulator, stored at fiber end. Table 4 row
//! "SpTTM": the rank loop (`k`) is lockstep vectorized across lanes; the
//! `l` level supplies the row base through a `lin` stream.

use std::sync::Arc;

use tmu::{
    CallbackHandler, Event, LayerMode, MemImage, OutQEntry, Program, ProgramBuilder, StreamTy,
    TmuConfig,
};
use tmu_sim::{AddressMap, Deps, Machine, OpId, Region, RunStats, Site, SystemConfig, VecMachine};
use tmu_tensor::{CooTensor, CsfTensor};

use crate::data::{partition_flat, CsfOnSim, DenseOnSim};
use crate::util::check_close;
use crate::workload::{run_cores, run_engines, run_functional, KernelKind, TmuRun, Workload};

/// Columns of the dense factor (the paper's SpTTM rank).
pub const RANK: usize = 16;

const S_ROOT: u16 = 240;
const S_JPTR: u16 = 241;
const S_LIDX: u16 = 242;
const S_LVAL: u16 = 243;
const S_BROW: u16 = 244;
const S_STORE: u16 = 245;
const S_R_BR: u16 = 246;
const S_L_BR: u16 = 247;
const S_FIB_BR: u16 = 248;

const CB_RI: u32 = 0;
const CB_L_END: u32 = 1;
const CB_FIB_END: u32 = 2;

/// An SpTTM workload bound to the simulator.
#[derive(Debug)]
pub struct Spttm {
    t: CsfOnSim,
    b: DenseOnSim,
    z_r: Region,
    outq_r: Vec<Region>,
    image: Arc<MemImage>,
    reference: Vec<f64>,
}

impl Spttm {
    /// Workload category.
    pub const KIND: KernelKind = KernelKind::MemoryIntensive;

    /// Binds order-3 tensor `t` (as CSF) with a deterministic factor.
    pub fn new(tensor: &CooTensor) -> Self {
        assert_eq!(tensor.order(), 3, "SpTTM needs an order-3 tensor");
        let csf = CsfTensor::from_coo(tensor);
        let dim_l = tensor.dims()[2];
        let b_vals: Vec<f64> = (0..dim_l * RANK)
            .map(|x| 0.5 + (x % 79) as f64 / 79.0)
            .collect();
        // Reference: RANK values per (i, j) fiber, in fiber order.
        let mut reference = Vec::with_capacity(csf.num_nodes(1) * RANK);
        for jn in 0..csf.num_nodes(1) {
            let (lb, le) = csf.child_range(1, jn);
            for r in 0..RANK {
                reference.push(
                    (lb..le)
                        .map(|p| csf.vals()[p] * b_vals[csf.idxs(2)[p] as usize * RANK + r])
                        .sum(),
                );
            }
        }
        let mut map = AddressMap::new();
        let mut image = MemImage::new();
        let t = CsfOnSim::bind(&mut map, &mut image, "t", &csf);
        let b = DenseOnSim::bind(&mut map, &mut image, "B", b_vals);
        let z_r = map.alloc_elems("z", (csf.num_nodes(1) * RANK).max(1), 8);
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

    /// The reference output (RANK values per fiber).
    pub fn reference(&self) -> &[f64] {
        &self.reference
    }

    fn shards(&self, cores: usize) -> Vec<(usize, usize)> {
        partition_flat(self.t.idxs[0].len(), cores)
    }

    /// The Table 4 mapping of a root-node shard.
    fn engine(&self, roots: (usize, usize), lanes: usize) -> (Program, SpttmHandler) {
        let first_fiber = self.t.ptrs[0][roots.0] as usize;
        let handler = SpttmHandler::new(self.z_r, first_fiber, lanes);
        (self.build_program(roots, lanes), handler)
    }

    /// Builds the Table 4 SpTTM TMU program for a root-node range.
    pub fn build_program(&self, roots: (usize, usize), lanes: usize) -> Program {
        let lanes = lanes.min(RANK);
        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        let itu = bld.dns_fbrt(l0, roots.0 as i64, roots.1 as i64, 1);
        let p0b = bld.mem_stream(itu, self.t.ptrs_r[0].base, 4, StreamTy::Index);
        let p0e = bld.mem_stream(itu, self.t.ptrs_r[0].base + 4, 4, StreamTy::Index);

        let l1 = bld.layer(LayerMode::Single);
        let jtu = bld.rng_fbrt(l1, p0b, p0e, 0, 1);
        let p1b = bld.mem_stream(jtu, self.t.ptrs_r[1].base, 4, StreamTy::Index);
        let p1e = bld.mem_stream(jtu, self.t.ptrs_r[1].base + 4, 4, StreamTy::Index);

        let l2 = bld.layer(LayerMode::Single);
        let ltu = bld.rng_fbrt(l2, p1b, p1e, 0, 1);
        let lidx = bld.mem_stream(ltu, self.t.idxs_r[2].base, 4, StreamTy::Index);
        let lval = bld.mem_stream(ltu, self.t.vals_r.base, 8, StreamTy::Value);
        let l_row = bld.lin_stream(ltu, RANK as i64, 0, lidx);

        let l3 = bld.layer(LayerMode::LockStep);
        let mut bs = Vec::new();
        let mut v_fwd0 = None;
        for lane in 0..lanes as i64 {
            let rtu = bld.idx_fbrt(l3, l_row, RANK as i64, lane, lanes as i64);
            bs.push(bld.mem_stream(rtu, self.b.region.base, 8, StreamTy::Value));
            let vf = bld.fwd_stream(rtu, lval);
            if lane == 0 {
                v_fwd0 = Some(vf);
            }
        }
        let fan1 = self.t.idxs[1].len() as f64 / self.t.idxs[0].len().max(1) as f64;
        let fan2 = self.t.nnz() as f64 / self.t.idxs[1].len().max(1) as f64;
        bld.set_weight(l0, 1.0);
        bld.set_weight(l1, fan1.max(1.0));
        bld.set_weight(l2, (fan1 * fan2).max(1.0));
        bld.set_weight(l3, (fan1 * fan2 * 2.0).max(2.0));
        let b_op = bld.vec_operand(l3, &bs);
        let v_op = bld.scalar_operand(l3, v_fwd0.expect("lane 0 exists"));
        bld.callback(l3, Event::Ite, CB_RI, &[b_op, v_op]);
        bld.callback(l3, Event::End, CB_L_END, &[]);
        bld.callback(l2, Event::End, CB_FIB_END, &[]);
        bld.build().expect("SpTTM program is well-formed")
    }
}

fn emit_baseline<M: Machine + ?Sized>(m: &mut M, w: &Spttm, roots: (usize, usize), vl: usize) {
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
            let (lb, le) = (t.ptrs[1][jn] as usize, t.ptrs[1][jn + 1] as usize);
            for p in lb..le {
                let bounds = Deps::on(&[q0, q1]);
                let lld = m.load(Site(S_LIDX), t.idxs_r[2].u32_at(p), 4, bounds);
                let vld = m.load(Site(S_LVAL), t.vals_r.f64_at(p), 8, bounds);
                let l = t.idxs[2][p] as usize;
                let mut r = 0;
                while r < RANK {
                    let nn = (RANK - r).min(vl);
                    let bl = m.vec_load(
                        Site(S_BROW),
                        w.b.region.f64_at(l * RANK + r),
                        (nn * 8) as u32,
                        Deps::from(lld),
                    );
                    m.vec_op((2 * nn) as u32, Deps::on(&[bl, vld]));
                    r += nn;
                    m.branch(Site(S_R_BR), r < RANK, Deps::NONE);
                }
                m.branch(Site(S_L_BR), p + 1 < le, Deps::NONE);
            }
            // Store the fiber's RANK accumulator values.
            let mut r = 0;
            while r < RANK {
                let nn = (RANK - r).min(vl);
                m.store(
                    Site(S_STORE),
                    w.z_r.f64_at(jn * RANK + r),
                    (nn * 8) as u32,
                    Deps::NONE,
                );
                r += nn;
            }
            m.branch(Site(S_FIB_BR), jn + 1 < je, Deps::NONE);
        }
    }
}

/// Host callbacks: FMA the marshaled B stripes, store at fiber end.
#[derive(Debug)]
pub struct SpttmHandler {
    z_r: Region,
    next_fiber: usize,
    acc: Vec<f64>,
    rank_step: usize,
    lanes: usize,
    /// Functional output (RANK values per fiber).
    pub z: Vec<f64>,
}

impl SpttmHandler {
    /// Handler for fibers starting at `first_fiber`.
    pub fn new(z_r: Region, first_fiber: usize, lanes: usize) -> Self {
        Self {
            z_r,
            next_fiber: first_fiber,
            acc: vec![0.0; RANK],
            rank_step: 0,
            lanes: lanes.min(RANK),
            z: Vec::new(),
        }
    }
}

impl CallbackHandler for SpttmHandler {
    fn handle(&mut self, entry: &OutQEntry, entry_load: OpId, m: &mut VecMachine) {
        match entry.callback {
            CB_RI => {
                let bs = entry.operands[0].f64s();
                let v = entry.operands[1].as_f64();
                for (lane, bv) in bs.iter().enumerate() {
                    if entry.mask & (1 << lane) != 0 {
                        let r = lane + self.rank_step * self.lanes;
                        self.acc[r] += v * bv;
                    }
                }
                self.rank_step += 1;
                m.vec_op(2 * entry.mask.count_ones(), Deps::from(entry_load));
            }
            CB_L_END => {
                self.rank_step = 0;
            }
            CB_FIB_END => {
                let mut r = 0;
                while r < RANK {
                    let n = (RANK - r).min(8);
                    m.store(
                        Site(S_STORE),
                        self.z_r.f64_at(self.next_fiber * RANK + r),
                        (n * 8) as u32,
                        Deps::NONE,
                    );
                    r += n;
                }
                self.z
                    .extend(std::mem::replace(&mut self.acc, vec![0.0; RANK]));
                self.next_fiber += 1;
            }
            other => panic!("SpTTM: unexpected callback {other}"),
        }
    }
}

impl Workload for Spttm {
    fn name(&self) -> &'static str {
        "SpTTM"
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
        let got: Vec<f64> = run_functional(&self.image, &self.shards(8), |_, roots| {
            self.engine(roots, 8)
        })
        .into_iter()
        .flat_map(|h| h.z)
        .collect();
        check_close("SpTTM", &got, &self.reference, 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmu_sim::{CoreConfig, MemSysConfig};
    use tmu_tensor::gen;

    #[test]
    fn verify_against_reference() {
        Spttm::new(&gen::random_tensor(&[32, 16, 24], 900, 51))
            .verify()
            .expect("TMU SpTTM must match reference");
    }

    #[test]
    fn baseline_and_tmu_run() {
        let w = Spttm::new(&gen::random_tensor(&[32, 16, 24], 900, 51));
        let cfg = SystemConfig {
            core: CoreConfig::neoverse_n1_like(),
            mem: MemSysConfig::table5(2),
        };
        assert!(w.run_baseline(cfg).cycles > 0);
        assert!(w.run_tmu(cfg, TmuConfig::paper()).stats.cycles > 0);
    }
}
