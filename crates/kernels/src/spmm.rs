//! Sparse Matrix times dense Matrix, `Z_{ij} = Σ_k A_{ik} · B_{kj}`
//! (CSR × row-major dense).
//!
//! Table 4 rows SpMM P0/P1/P2. The implementation here is the "P1" scheme
//! the paper uses for dense-output kernels: the TMU traverses `i` and `k`
//! and its lockstep lanes fetch the `B[k, ·]` row stripes (`IdxFbrT` over
//! the dense row), so the host core receives ready vector operands and
//! performs only the scaled accumulation.

use std::sync::Arc;

use tmu::{
    CallbackHandler, Event, LayerMode, MemImage, OutQEntry, Program, ProgramBuilder, StreamTy,
    TmuConfig,
};
use tmu_sim::{AddressMap, Deps, Machine, OpId, Region, RunStats, Site, SystemConfig, VecMachine};
use tmu_tensor::CsrMatrix;

use crate::data::{partition_rows, CsrOnSim, DenseOnSim};
use crate::util::check_close;
use crate::workload::{run_cores, run_engines, run_functional, KernelKind, TmuRun, Workload};

/// Dense matrix columns (the SpMM rank).
pub const RANK: usize = 16;

const S_PTR: u16 = 260;
const S_KIDX: u16 = 261;
const S_KVAL: u16 = 262;
const S_BROW: u16 = 263;
const S_STORE: u16 = 264;
const S_R_BR: u16 = 265;
const S_K_BR: u16 = 266;
const S_I_BR: u16 = 267;

const CB_RI: u32 = 0;
const CB_K_END: u32 = 1;
const CB_ROW_END: u32 = 2;

/// An SpMM workload bound to the simulator.
#[derive(Debug)]
pub struct Spmm {
    a: CsrOnSim,
    b: DenseOnSim,
    z_r: Region,
    outq_r: Vec<Region>,
    image: Arc<MemImage>,
    reference: Vec<f64>,
}

impl Spmm {
    /// Workload category.
    pub const KIND: KernelKind = KernelKind::MemoryIntensive;

    /// Binds matrix `a` with a deterministic dense right-hand side.
    pub fn new(a_mat: &CsrMatrix) -> Self {
        let b_vals: Vec<f64> = (0..a_mat.cols() * RANK)
            .map(|x| 0.5 + (x % 73) as f64 / 73.0)
            .collect();
        let mut reference = vec![0.0f64; a_mat.rows() * RANK];
        for i in 0..a_mat.rows() {
            for (k, v) in a_mat.row(i) {
                for r in 0..RANK {
                    reference[i * RANK + r] += v * b_vals[k as usize * RANK + r];
                }
            }
        }
        let mut map = AddressMap::new();
        let mut image = MemImage::new();
        let a = CsrOnSim::bind(&mut map, &mut image, "a", a_mat);
        let b = DenseOnSim::bind(&mut map, &mut image, "B", b_vals);
        let z_r = map.alloc_elems("Z", (a_mat.rows() * RANK).max(1), 8);
        let outq_r = (0..8)
            .map(|c| map.alloc(&format!("outq{c}"), 1 << 20))
            .collect();
        Self {
            a,
            b,
            z_r,
            outq_r,
            image: Arc::new(image),
            reference,
        }
    }

    /// The reference product (row-major `rows × RANK`).
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

    /// Functional execution over the full row range: the product rows
    /// (row-major) exactly as the callback handler computes them.
    pub fn functional(&self, lanes: usize) -> Vec<f64> {
        self.functional_shards(&[(0, self.a.rows)], lanes)
    }

    fn functional_shards(&self, shards: &[(usize, usize)], lanes: usize) -> Vec<f64> {
        run_functional(&self.image, shards, |_, rows| self.engine(rows, lanes))
            .into_iter()
            .flat_map(|h| h.z)
            .collect()
    }

    /// The "P1" mapping of a row shard.
    fn engine(&self, rows: (usize, usize), lanes: usize) -> (Program, SpmmHandler) {
        let handler = SpmmHandler::new(self.z_r, rows.0, lanes);
        (self.build_program(rows, lanes), handler)
    }

    /// Builds the Table 4 "SpMM P1" TMU program for a row range.
    pub fn build_program(&self, rows: (usize, usize), lanes: usize) -> Program {
        let lanes = lanes.min(RANK);
        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        let itu = bld.dns_fbrt(l0, rows.0 as i64, rows.1 as i64, 1);
        let pb = bld.mem_stream(itu, self.a.ptrs_r.base, 4, StreamTy::Index);
        let pe = bld.mem_stream(itu, self.a.ptrs_r.base + 4, 4, StreamTy::Index);

        let l1 = bld.layer(LayerMode::Single);
        let ktu = bld.rng_fbrt(l1, pb, pe, 0, 1);
        let kidx = bld.mem_stream(ktu, self.a.idxs_r.base, 4, StreamTy::Index);
        let kval = bld.mem_stream(ktu, self.a.vals_r.base, 8, StreamTy::Value);
        let k_row = bld.lin_stream(ktu, RANK as i64, 0, kidx);

        let l2 = bld.layer(LayerMode::LockStep);
        let mut bs = Vec::new();
        let mut v_fwd0 = None;
        for lane in 0..lanes as i64 {
            let rtu = bld.idx_fbrt(l2, k_row, RANK as i64, lane, lanes as i64);
            bs.push(bld.mem_stream(rtu, self.b.region.base, 8, StreamTy::Value));
            let vf = bld.fwd_stream(rtu, kval);
            if lane == 0 {
                v_fwd0 = Some(vf);
            }
        }
        let avg = self.a.nnz() as f64 / self.a.rows.max(1) as f64;
        bld.set_weight(l0, 1.0);
        bld.set_weight(l1, avg.max(1.0));
        bld.set_weight(l2, (avg * 2.0).max(2.0));
        let b_op = bld.vec_operand(l2, &bs);
        let v_op = bld.scalar_operand(l2, v_fwd0.expect("lane 0 exists"));
        bld.callback(l2, Event::Ite, CB_RI, &[b_op, v_op]);
        bld.callback(l2, Event::End, CB_K_END, &[]);
        bld.callback(l1, Event::End, CB_ROW_END, &[]);
        bld.build().expect("SpMM program is well-formed")
    }
}

fn emit_baseline<M: Machine + ?Sized>(m: &mut M, w: &Spmm, rows: (usize, usize), vl: usize) {
    let (r0, r1) = rows;
    let a = &w.a;
    for i in r0..r1 {
        let p0 = m.load(Site(S_PTR), a.ptrs_r.u32_at(i), 4, Deps::NONE);
        let p1 = m.load(Site(S_PTR), a.ptrs_r.u32_at(i + 1), 4, Deps::NONE);
        let (kb, ke) = (a.ptrs[i] as usize, a.ptrs[i + 1] as usize);
        for p in kb..ke {
            let bounds = Deps::on(&[p0, p1]);
            let kld = m.load(Site(S_KIDX), a.idxs_r.u32_at(p), 4, bounds);
            let vld = m.load(Site(S_KVAL), a.vals_r.f64_at(p), 8, bounds);
            let k = a.idxs[p] as usize;
            let mut r = 0;
            while r < RANK {
                let n = (RANK - r).min(vl);
                let bl = m.vec_load(
                    Site(S_BROW),
                    w.b.region.f64_at(k * RANK + r),
                    (n * 8) as u32,
                    Deps::from(kld),
                );
                m.vec_op((2 * n) as u32, Deps::on(&[bl, vld]));
                r += n;
                m.branch(Site(S_R_BR), r < RANK, Deps::NONE);
            }
            m.branch(Site(S_K_BR), p + 1 < ke, Deps::NONE);
        }
        let mut r = 0;
        while r < RANK {
            let n = (RANK - r).min(vl);
            m.store(
                Site(S_STORE),
                w.z_r.f64_at(i * RANK + r),
                (n * 8) as u32,
                Deps::NONE,
            );
            r += n;
        }
        m.branch(Site(S_I_BR), i + 1 < r1, Deps::NONE);
    }
}

/// Host callbacks: FMA the marshaled B stripes, store rows at row end.
#[derive(Debug)]
pub struct SpmmHandler {
    z_r: Region,
    next_row: usize,
    acc: Vec<f64>,
    rank_step: usize,
    lanes: usize,
    /// Functional output rows (row-major).
    pub z: Vec<f64>,
}

impl SpmmHandler {
    /// Handler for rows starting at `first_row`.
    pub fn new(z_r: Region, first_row: usize, lanes: usize) -> Self {
        Self {
            z_r,
            next_row: first_row,
            acc: vec![0.0; RANK],
            rank_step: 0,
            lanes: lanes.min(RANK),
            z: Vec::new(),
        }
    }
}

impl CallbackHandler for SpmmHandler {
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
            CB_K_END => {
                self.rank_step = 0;
            }
            CB_ROW_END => {
                let mut r = 0;
                while r < RANK {
                    let n = (RANK - r).min(8);
                    m.store(
                        Site(S_STORE),
                        self.z_r.f64_at(self.next_row * RANK + r),
                        (n * 8) as u32,
                        Deps::NONE,
                    );
                    r += n;
                }
                self.z
                    .extend(std::mem::replace(&mut self.acc, vec![0.0; RANK]));
                self.next_row += 1;
            }
            other => panic!("SpMM: unexpected callback {other}"),
        }
    }
}

impl Workload for Spmm {
    fn name(&self) -> &'static str {
        "SpMM"
    }

    fn kind(&self) -> KernelKind {
        Self::KIND
    }

    fn run_baseline(&self, cfg: SystemConfig) -> RunStats {
        let vl = cfg.core.sve_lanes();
        let shards = partition_rows(&self.a.ptrs, cfg.cores());
        run_cores(cfg, &shards, |m, _, rows| emit_baseline(m, self, rows, vl))
    }

    fn run_tmu(&self, cfg: SystemConfig, tmu: TmuConfig) -> TmuRun {
        let shards = partition_rows(&self.a.ptrs, cfg.cores());
        run_engines(cfg, tmu, &self.image, &self.outq_r, &shards, |_, rows| {
            self.engine(rows, tmu.lanes)
        })
    }

    fn verify(&self) -> Result<(), String> {
        let got = self.functional_shards(&partition_rows(&self.a.ptrs, 8), 8);
        check_close("SpMM", &got, &self.reference, 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmu_sim::{CoreConfig, MemSysConfig};
    use tmu_tensor::gen;

    #[test]
    fn verify_against_reference() {
        Spmm::new(&gen::uniform(128, 128, 5, 61))
            .verify()
            .expect("TMU SpMM must match reference");
    }

    #[test]
    fn empty_rows_produce_zero_output_rows() {
        let coo = tmu_tensor::CooMatrix::from_triplets(32, 32, vec![(5, 3, 2.0)]).expect("ok");
        let w = Spmm::new(&CsrMatrix::from_coo(&coo));
        w.verify().expect("single-nnz SpMM verifies");
        assert!(w.reference()[5 * RANK] > 0.0);
        assert_eq!(w.reference()[0], 0.0);
    }

    #[test]
    fn baseline_and_tmu_run() {
        let w = Spmm::new(&gen::uniform(128, 128, 5, 61));
        let cfg = SystemConfig {
            core: CoreConfig::neoverse_n1_like(),
            mem: MemSysConfig::table5(2),
        };
        assert!(w.run_baseline(cfg).cycles > 0);
        assert!(w.run_tmu(cfg, TmuConfig::paper()).stats.cycles > 0);
    }
}
