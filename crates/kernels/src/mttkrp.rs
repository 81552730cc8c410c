//! Matricized Tensor Times Khatri-Rao Product on a COO tensor:
//! `Z_{ir} = Σ_{kl} T_{ikl} · B_{kr} · C_{lr}`.
//!
//! Follows the GenTen formulation with the permutation optimization of
//! Phipps & Kolda: the tensor is sorted by the output mode, so partial
//! rows accumulate in registers until the output coordinate changes.
//! Higher-order tensors contract their trailing modes pairwise into the
//! same loop structure.
//!
//! Two TMU parallelization schemes are modeled (§6 evaluates both):
//!
//! * **MP (mode-level, "P1")** — the nnz loop stays on one lane group;
//!   lockstep lanes split the *rank* dimension, each fetching its stripe
//!   of the `B[k,·]` and `C[l,·]` rows so the core receives ready
//!   vector operands and only performs FMAs.
//! * **CP (coordinate-level, "P2")** — lockstep lanes load eight nnzs'
//!   coordinates and values at once; the core performs the (regular,
//!   prefetch-friendly) factor-row arithmetic itself.

use std::sync::Arc;

use tmu::{
    CallbackHandler, Event, LayerMode, MemImage, OutQEntry, Program, ProgramBuilder, StreamTy,
    TmuConfig,
};
use tmu_sim::{AddressMap, Deps, Machine, OpId, Region, RunStats, Site, SystemConfig, VecMachine};
use tmu_tensor::CooTensor;

use crate::data::{partition_flat, CooOnSim, DenseOnSim};
use crate::util::check_close;
use crate::workload::{run_cores, run_engines, run_functional, KernelKind, TmuRun, Workload};

/// Factor-matrix rank (GenTen-style small dense rank).
pub const RANK: usize = 16;

const S_COORD: u16 = 200;
const S_VAL: u16 = 201;
const S_BROW: u16 = 202;
const S_CROW: u16 = 203;
const S_ZSTORE: u16 = 204;
const S_R_BR: u16 = 205;
const S_P_BR: u16 = 206;

const CB_RANK: u32 = 0;
const CB_NNZ_END: u32 = 1;
const CB_COORDS: u32 = 2;

/// Which TMU parallelization scheme to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MttkrpVariant {
    /// Mode-level parallelism: TMU fetches factor-row stripes.
    Mp,
    /// Coordinate-level parallelism: TMU marshals nnz coordinate vectors.
    Cp,
}

/// An MTTKRP workload bound to the simulator.
#[derive(Debug)]
pub struct Mttkrp {
    t: CooOnSim,
    /// Contracted second-mode coordinates (mode 1, or fused modes 1..).
    k_of: Arc<Vec<u32>>,
    /// Contracted third-mode coordinates (last mode, or fused).
    l_of: Arc<Vec<u32>>,
    b: DenseOnSim,
    c: DenseOnSim,
    z_r: Region,
    outq_r: Vec<Region>,
    image: Arc<MemImage>,
    variant: MttkrpVariant,
    reference: Vec<f64>,
    dim_i: usize,
}

impl Mttkrp {
    /// Workload category.
    pub const KIND: KernelKind = KernelKind::MemoryIntensive;

    /// Binds tensor `t` (order ≥ 3; trailing modes beyond the third are
    /// fused into the third) with deterministic dense factors.
    pub fn new(tensor: &CooTensor, variant: MttkrpVariant) -> Self {
        assert!(tensor.order() >= 3, "MTTKRP needs an order-3+ tensor");
        let nnz = tensor.nnz();
        let dim_i = tensor.dims()[0];
        let dim_k = tensor.dims()[1];
        // Fuse modes 2.. into a single "l" mode, compacted to the dense
        // range of *occupied* fused coordinates (so the Khatri-Rao factor
        // has one row per distinct fused coordinate rather than the full
        // cross product — the factor sizes real MTTKRP codes allocate).
        let mut fused_raw = Vec::with_capacity(nnz);
        for p in 0..nnz {
            let mut l = 0usize;
            for (d, &size) in tensor.dims()[2..].iter().enumerate() {
                l = l * size + tensor.mode_idxs(d + 2)[p] as usize;
            }
            fused_raw.push(l as u64);
        }
        let mut distinct: Vec<u64> = fused_raw.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let remap: std::collections::HashMap<u64, u32> = distinct
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        let fused_dim = distinct.len().max(1);
        let l_of: Vec<u32> = fused_raw.iter().map(|v| remap[v]).collect();
        let k_of: Vec<u32> = tensor.mode_idxs(1).to_vec();

        let b_vals: Vec<f64> = (0..dim_k * RANK)
            .map(|x| 0.5 + (x % 89) as f64 / 89.0)
            .collect();
        let c_vals: Vec<f64> = (0..fused_dim * RANK)
            .map(|x| 0.5 + (x % 83) as f64 / 83.0)
            .collect();

        // Reference.
        let mut reference = vec![0.0f64; dim_i * RANK];
        for p in 0..nnz {
            let i = tensor.mode_idxs(0)[p] as usize;
            let k = k_of[p] as usize;
            let l = l_of[p] as usize;
            let v = tensor.vals()[p];
            for r in 0..RANK {
                reference[i * RANK + r] += v * b_vals[k * RANK + r] * c_vals[l * RANK + r];
            }
        }

        let mut map = AddressMap::new();
        let mut image = MemImage::new();
        let t = CooOnSim::bind(&mut map, &mut image, "t", tensor);
        let k_arc = Arc::new(k_of);
        let l_arc = Arc::new(l_of);
        // Bind the fused l coordinates as their own array.
        let l_r = map.alloc_elems("t.lfused", nnz.max(1), 4);
        image.bind_u32(l_r, Arc::clone(&l_arc));
        let b = DenseOnSim::bind(&mut map, &mut image, "B", b_vals);
        let c = DenseOnSim::bind(&mut map, &mut image, "C", c_vals);
        let z_r = map.alloc_elems("Z", dim_i * RANK, 8);
        let outq_r = (0..8)
            .map(|cix| map.alloc(&format!("outq{cix}"), 1 << 20))
            .collect();
        let mut t2 = t;
        t2.idxs_r[2] = l_r; // fused l replaces the raw third mode
        Self {
            t: t2,
            k_of: k_arc,
            l_of: l_arc,
            b,
            c,
            z_r,
            outq_r,
            image: Arc::new(image),
            variant,
            reference,
            dim_i,
        }
    }

    /// The reference output (row-major `dim_i × RANK`).
    pub fn reference(&self) -> &[f64] {
        &self.reference
    }

    /// nnz shards aligned to output-coordinate boundaries (the permutation
    /// optimization keeps same-`i` runs on one core).
    fn shards(&self, cores: usize) -> Vec<(usize, usize)> {
        let nnz = self.t.nnz();
        let mut parts = partition_flat(nnz, cores);
        let i_of = &self.t.idxs[0];
        for w in 1..parts.len() {
            let mut cut = parts[w].0;
            while cut > 0 && cut < nnz && i_of[cut] == i_of[cut - 1] {
                cut += 1;
            }
            let cut = cut.min(nnz);
            parts[w - 1].1 = cut;
            parts[w].0 = cut;
        }
        parts
    }

    /// The variant's mapping of an nnz shard.
    fn engine(&self, range: (usize, usize), lanes: usize) -> (Program, MttkrpHandler) {
        (
            self.build_program(range, lanes),
            MttkrpHandler::new(self, lanes),
        )
    }

    /// Builds the TMU program for an nnz range.
    pub fn build_program(&self, range: (usize, usize), lanes: usize) -> Program {
        match self.variant {
            MttkrpVariant::Mp => self.build_mp(range, lanes),
            MttkrpVariant::Cp => self.build_cp(range, lanes),
        }
    }

    fn build_mp(&self, (p0, p1): (usize, usize), lanes: usize) -> Program {
        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        let ptu = bld.dns_fbrt(l0, p0 as i64, p1 as i64, 1);
        let i = bld.mem_stream(ptu, self.t.idxs_r[0].base, 4, StreamTy::Index);
        let k = bld.mem_stream(ptu, self.t.idxs_r[1].base, 4, StreamTy::Index);
        let l = bld.mem_stream(ptu, self.t.idxs_r[2].base, 4, StreamTy::Index);
        let v = bld.mem_stream(ptu, self.t.vals_r.base, 8, StreamTy::Value);
        let k_row = bld.lin_stream(ptu, RANK as i64, 0, k);
        let l_row = bld.lin_stream(ptu, RANK as i64, 0, l);

        let l1 = bld.layer(LayerMode::LockStep);
        let mut bs = Vec::new();
        let mut cs = Vec::new();
        let mut v_fwd0 = None;
        let mut i_fwd0 = None;
        for lane in 0..lanes.min(RANK) as i64 {
            let rtu = bld.idx_fbrt(l1, k_row, RANK as i64, lane, lanes.min(RANK) as i64);
            let lrow_f = bld.fwd_stream(rtu, l_row);
            bs.push(bld.mem_stream(rtu, self.b.region.base, 8, StreamTy::Value));
            cs.push(bld.mem_stream_rel(rtu, self.c.region.base, 8, StreamTy::Value, lrow_f));
            let vf = bld.fwd_stream(rtu, v);
            let ifw = bld.fwd_stream(rtu, i);
            if lane == 0 {
                v_fwd0 = Some(vf);
                i_fwd0 = Some(ifw);
            }
        }
        bld.set_weight(l0, 1.0);
        bld.set_weight(l1, RANK as f64 / lanes.min(RANK) as f64 * 2.0);
        let b_op = bld.vec_operand(l1, &bs);
        let c_op = bld.vec_operand(l1, &cs);
        let v_op = bld.scalar_operand(l1, v_fwd0.expect("lane 0 exists"));
        let i_op = bld.scalar_operand(l1, i_fwd0.expect("lane 0 exists"));
        bld.callback(l1, Event::Ite, CB_RANK, &[b_op, c_op, v_op, i_op]);
        bld.callback(l1, Event::End, CB_NNZ_END, &[]);
        bld.build().expect("MTTKRP MP program is well-formed")
    }

    fn build_cp(&self, (p0, p1): (usize, usize), lanes: usize) -> Program {
        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::LockStep);
        let mut is = Vec::new();
        let mut ks = Vec::new();
        let mut ls = Vec::new();
        let mut vs = Vec::new();
        for lane in 0..lanes as i64 {
            let ptu = bld.dns_fbrt(l0, p0 as i64 + lane, p1 as i64, lanes as i64);
            is.push(bld.mem_stream(ptu, self.t.idxs_r[0].base, 4, StreamTy::Index));
            ks.push(bld.mem_stream(ptu, self.t.idxs_r[1].base, 4, StreamTy::Index));
            ls.push(bld.mem_stream(ptu, self.t.idxs_r[2].base, 4, StreamTy::Index));
            vs.push(bld.mem_stream(ptu, self.t.vals_r.base, 8, StreamTy::Value));
        }
        bld.set_weight(l0, 1.0);
        let i_op = bld.vec_operand(l0, &is);
        let k_op = bld.vec_operand(l0, &ks);
        let l_op = bld.vec_operand(l0, &ls);
        let v_op = bld.vec_operand(l0, &vs);
        bld.callback(l0, Event::Ite, CB_COORDS, &[i_op, k_op, l_op, v_op]);
        bld.build().expect("MTTKRP CP program is well-formed")
    }
}

/// Emits the vectorized GenTen-style baseline for an nnz range.
fn emit_baseline<M: Machine + ?Sized>(m: &mut M, w: &Mttkrp, (p0, p1): (usize, usize), vl: usize) {
    let t = &w.t;
    let mut cur_i: Option<u32> = None;
    for p in p0..p1 {
        let ild = m.load(Site(S_COORD), t.idxs_r[0].u32_at(p), 4, Deps::NONE);
        let kld = m.load(Site(S_COORD), t.idxs_r[1].u32_at(p), 4, Deps::NONE);
        let lld = m.load(Site(S_COORD), t.idxs_r[2].u32_at(p), 4, Deps::NONE);
        let vld = m.load(Site(S_VAL), t.vals_r.f64_at(p), 8, Deps::NONE);
        let i = t.idxs[0][p];
        let k = w.k_of[p] as usize;
        let l = w.l_of[p] as usize;
        // Flush the accumulated output row when `i` changes.
        if let Some(iprev) = cur_i.filter(|&prev| prev != i) {
            let iprev = iprev as usize;
            let mut r = 0;
            while r < RANK {
                let n = (RANK - r).min(vl);
                m.store(
                    Site(S_ZSTORE),
                    w.z_r.f64_at(iprev * RANK + r),
                    (n * 8) as u32,
                    Deps::NONE,
                );
                r += n;
            }
        }
        cur_i = Some(i);
        let mut r = 0;
        while r < RANK {
            let n = (RANK - r).min(vl);
            let bl = m.vec_load(
                Site(S_BROW),
                w.b.region.f64_at(k * RANK + r),
                (n * 8) as u32,
                Deps::from(kld),
            );
            let cl = m.vec_load(
                Site(S_CROW),
                w.c.region.f64_at(l * RANK + r),
                (n * 8) as u32,
                Deps::from(lld),
            );
            // acc[r..] += v · B · C : two vector FMAs (3 flops/element).
            let mul = m.vec_op((2 * n) as u32, Deps::on(&[bl, cl, vld]));
            m.vec_op(n as u32, Deps::on(&[mul, ild]));
            r += n;
            m.branch(Site(S_R_BR), r < RANK, Deps::NONE);
        }
        m.branch(Site(S_P_BR), p + 1 < p1, Deps::NONE);
    }
    if let Some(i) = cur_i {
        let mut r = 0;
        while r < RANK {
            let n = (RANK - r).min(vl);
            m.store(
                Site(S_ZSTORE),
                w.z_r.f64_at(i as usize * RANK + r),
                (n * 8) as u32,
                Deps::NONE,
            );
            r += n;
        }
    }
}

/// Host callbacks for both MTTKRP variants.
#[derive(Debug)]
pub struct MttkrpHandler {
    #[allow(dead_code)] // recorded for debugging dumps
    variant: MttkrpVariant,
    z_r: Region,
    b_r: Region,
    c_r: Region,
    b: Arc<Vec<f64>>,
    c: Arc<Vec<f64>>,
    cur_i: Option<u32>,
    acc: Vec<f64>,
    rank_step: usize,
    lanes: usize,
    /// Functional output rows `(i, values)`.
    pub rows: Vec<(u32, Vec<f64>)>,
}

impl MttkrpHandler {
    fn new(w: &Mttkrp, lanes: usize) -> Self {
        Self {
            variant: w.variant,
            z_r: w.z_r,
            b_r: w.b.region,
            c_r: w.c.region,
            b: Arc::clone(&w.b.data),
            c: Arc::clone(&w.c.data),
            cur_i: None,
            acc: vec![0.0; RANK],
            rank_step: 0,
            lanes: lanes.min(RANK),
            rows: Vec::new(),
        }
    }

    fn flush(&mut self, m: &mut VecMachine) {
        if let Some(i) = self.cur_i.take() {
            let mut r = 0;
            while r < RANK {
                let n = (RANK - r).min(8);
                m.store(
                    Site(S_ZSTORE),
                    self.z_r.f64_at(i as usize * RANK + r),
                    (n * 8) as u32,
                    Deps::NONE,
                );
                r += n;
            }
            self.rows
                .push((i, std::mem::replace(&mut self.acc, vec![0.0; RANK])));
        }
    }
}

impl CallbackHandler for MttkrpHandler {
    fn handle(&mut self, entry: &OutQEntry, entry_load: OpId, m: &mut VecMachine) {
        match entry.callback {
            CB_RANK => {
                // MP: lanes carry B and C stripes for rank positions
                // `lane + rank_step·lanes`.
                let bsv = entry.operands[0].f64s();
                let csv = entry.operands[1].f64s();
                let v = entry.operands[2].as_f64();
                let i = entry.operands[3].as_index() as u32;
                if self.cur_i != Some(i) {
                    self.flush(m);
                    self.cur_i = Some(i);
                    self.rank_step = 0;
                }
                for (lane, (bv, cv)) in bsv.iter().zip(csv.iter()).enumerate() {
                    if entry.mask & (1 << lane) != 0 {
                        let r = lane + self.rank_step * self.lanes;
                        self.acc[r] += v * bv * cv;
                    }
                }
                self.rank_step += 1;
                let active = entry.mask.count_ones();
                let mul = m.vec_op(2 * active, Deps::from(entry_load));
                m.vec_op(active, Deps::from(mul));
            }
            CB_NNZ_END => {
                self.rank_step = 0;
            }
            CB_COORDS => {
                // CP: the core fetches the factor rows itself.
                let is = entry.operands[0].indexes();
                let ks = entry.operands[1].indexes();
                let ls = entry.operands[2].indexes();
                let vs = entry.operands[3].f64s();
                for lane in 0..is.len() {
                    if entry.mask & (1 << lane) == 0 {
                        continue;
                    }
                    let (i, k, l, v) = (
                        is.lane(lane) as u32,
                        ks.lane(lane) as usize,
                        ls.lane(lane) as usize,
                        vs.lane(lane),
                    );
                    if self.cur_i != Some(i) {
                        self.flush(m);
                        self.cur_i = Some(i);
                    }
                    let mut r = 0;
                    while r < RANK {
                        let n = (RANK - r).min(8);
                        let bl = m.vec_load(
                            Site(S_BROW),
                            self.b_r.f64_at(k * RANK + r),
                            (n * 8) as u32,
                            Deps::from(entry_load),
                        );
                        let cl = m.vec_load(
                            Site(S_CROW),
                            self.c_r.f64_at(l * RANK + r),
                            (n * 8) as u32,
                            Deps::from(entry_load),
                        );
                        let mul = m.vec_op((2 * n) as u32, Deps::on(&[bl, cl]));
                        m.vec_op(n as u32, Deps::from(mul));
                        for rr in r..r + n {
                            self.acc[rr] += v * self.b[k * RANK + rr] * self.c[l * RANK + rr];
                        }
                        r += n;
                    }
                }
            }
            other => panic!("MTTKRP: unexpected callback {other}"),
        }
    }
}

impl Workload for Mttkrp {
    fn name(&self) -> &'static str {
        match self.variant {
            MttkrpVariant::Mp => "MTTKRP_MP",
            MttkrpVariant::Cp => "MTTKRP_CP",
        }
    }

    fn kind(&self) -> KernelKind {
        Self::KIND
    }

    fn run_baseline(&self, cfg: SystemConfig) -> RunStats {
        let vl = cfg.core.sve_lanes();
        run_cores(cfg, &self.shards(cfg.cores()), |m, _, range| {
            emit_baseline(m, self, range, vl)
        })
    }

    fn run_tmu(&self, cfg: SystemConfig, tmu: TmuConfig) -> TmuRun {
        let shards = self.shards(cfg.cores());
        run_engines(cfg, tmu, &self.image, &self.outq_r, &shards, |_, range| {
            self.engine(range, tmu.lanes)
        })
    }

    fn verify(&self) -> Result<(), String> {
        let mut got = vec![0.0f64; self.dim_i * RANK];
        let shards = self.shards(8);
        for mut handler in run_functional(&self.image, &shards, |_, range| self.engine(range, 8)) {
            handler.flush(&mut VecMachine::new());
            for (i, row) in handler.rows {
                for (r, v) in row.into_iter().enumerate() {
                    got[i as usize * RANK + r] += v;
                }
            }
        }
        check_close(self.name(), &got, &self.reference, 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmu_sim::{CoreConfig, MemSysConfig};
    use tmu_tensor::gen;

    fn small_cfg(cores: usize) -> SystemConfig {
        SystemConfig {
            core: CoreConfig::neoverse_n1_like(),
            mem: MemSysConfig::table5(cores),
        }
    }

    fn tensor() -> CooTensor {
        gen::random_tensor(&[64, 32, 16], 1500, 33)
    }

    #[test]
    fn verify_mp_variant() {
        Mttkrp::new(&tensor(), MttkrpVariant::Mp)
            .verify()
            .expect("MP must match reference");
    }

    #[test]
    fn verify_cp_variant() {
        Mttkrp::new(&tensor(), MttkrpVariant::Cp)
            .verify()
            .expect("CP must match reference");
    }

    #[test]
    fn order4_tensors_are_fused() {
        let t = gen::random_tensor(&[32, 16, 8, 6], 800, 9);
        Mttkrp::new(&t, MttkrpVariant::Mp)
            .verify()
            .expect("order-4 MTTKRP via mode fusion");
    }

    #[test]
    fn baseline_and_tmu_run() {
        let w = Mttkrp::new(&tensor(), MttkrpVariant::Mp);
        let base = w.run_baseline(small_cfg(2));
        let run = w.run_tmu(small_cfg(2), TmuConfig::paper());
        assert!(base.cycles > 0 && run.stats.cycles > 0);
        assert!(base.total().flops > 0);
    }

    #[test]
    fn shards_respect_row_boundaries() {
        let w = Mttkrp::new(&tensor(), MttkrpVariant::Mp);
        let shards = w.shards(4);
        for win in shards.windows(2) {
            let cut = win[0].1;
            if cut > 0 && cut < w.t.nnz() {
                assert_ne!(
                    w.t.idxs[0][cut - 1],
                    w.t.idxs[0][cut],
                    "no i-run may span two shards"
                );
            }
        }
    }
}
