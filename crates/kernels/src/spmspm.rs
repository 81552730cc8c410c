//! Sparse Matrix–Sparse Matrix multiplication, `Z = A·Aᵀ` (Gustavson).
//!
//! The paper's compute-stage proxy (§3): the `ikj` schedule scans each row
//! of `A`, looks up the matching row of `B = Aᵀ`, and reduces scaled rows
//! into a dense accumulator workspace (TACO's workspace lowering). The
//! scan-and-lookup has higher spatial locality than SpMV (whole rows), and
//! the reduction keeps the core busy — inputs with heavy rows are
//! commit-bound (Amdahl-limited for the TMU, §7.1).
//!
//! TMU mapping ("P2", Table 4): `i` dense layer → `k` compressed layer
//! (loading `a_val` and the chained `bptr[k]`/`bptr[k+1]` bounds) → `j`
//! lockstep lanes over the `B` row. The core performs the multiply and the
//! scatter-accumulate into its cached workspace, then drains the occupied
//! entries at each row end.

use std::sync::Arc;

use tmu::{
    CallbackHandler, Event, LayerMode, MemImage, OutQEntry, Program, ProgramBuilder, StreamTy,
    TmuConfig,
};
use tmu_sim::{AddressMap, Deps, Machine, OpId, Region, RunStats, Site, SystemConfig, VecMachine};
use tmu_tensor::CsrMatrix;

use crate::data::{partition_rows, CsrOnSim};
use crate::util::check_close;
use crate::workload::{
    run_cores, run_cores_imp, run_engines, run_functional, KernelKind, TmuRun, Workload,
};

const S_APTR: u16 = 120;
const S_AIDX: u16 = 121;
const S_AVAL: u16 = 122;
const S_BPTR: u16 = 123;
const S_BIDX: u16 = 124;
const S_BVAL: u16 = 125;
const S_ACC_LD: u16 = 126;
const S_ACC_ST: u16 = 127;
const S_J_BR: u16 = 128;
const S_K_BR: u16 = 129;
const S_FLUSH_LD: u16 = 130;
const S_FLUSH_ST: u16 = 131;
const S_FLUSH_BR: u16 = 132;
const S_I_BR: u16 = 133;

const CB_JI: u32 = 0;
const CB_ROW_END: u32 = 1;

/// A Gustavson SpMSpM workload (`Z = A·Aᵀ`) bound to the simulator.
#[derive(Debug)]
pub struct Spmspm {
    a: CsrOnSim,
    b: CsrOnSim,
    acc_r: Region,
    z_r: Region,
    outq_r: Vec<Region>,
    image: Arc<MemImage>,
    /// Reference output.
    reference: CsrMatrix,
    z_offsets: Arc<Vec<u32>>,
}

impl Spmspm {
    /// Workload category.
    pub const KIND: KernelKind = KernelKind::ComputeIntensive;

    /// Binds `A` (and computes `B = Aᵀ`) for simulation.
    pub fn new(a_mat: &CsrMatrix) -> Self {
        let b_mat = a_mat.transpose();
        let reference = reference(a_mat, &b_mat);
        let mut map = AddressMap::new();
        let mut image = MemImage::new();
        let a = CsrOnSim::bind(&mut map, &mut image, "a", a_mat);
        let b = CsrOnSim::bind(&mut map, &mut image, "b", &b_mat);
        // One accumulator workspace per core (8 cores max).
        let acc_r = map.alloc_elems("acc", 8 * a_mat.cols().max(1), 8);
        let z_r = map.alloc_elems("z", reference.nnz().max(1), 8);
        let outq_r = (0..8)
            .map(|c| map.alloc(&format!("outq{c}"), 1 << 20))
            .collect();
        let z_offsets = Arc::new(reference.row_ptrs().to_vec());
        Self {
            a,
            b,
            acc_r,
            z_r,
            outq_r,
            image: Arc::new(image),
            reference,
            z_offsets,
        }
    }

    /// The reference product.
    pub fn reference(&self) -> &CsrMatrix {
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

    /// Functional TMU execution (8 shards, 8 lanes): output column indexes
    /// and values in row-major, column-sorted order, exactly as the
    /// callback handler computes them.
    pub fn functional(&self) -> (Vec<u32>, Vec<f64>) {
        let mut z = Vec::new();
        let mut z_cols = Vec::new();
        for h in run_functional(&self.image, &self.shards(8), |_, rows| self.engine(rows, 8)) {
            z.extend(h.z);
            z_cols.extend(h.z_cols);
        }
        (z_cols, z)
    }

    fn shards(&self, cores: usize) -> Vec<(usize, usize)> {
        partition_rows(&self.a.ptrs, cores)
    }

    /// The "P2" mapping of a row shard.
    fn engine(&self, rows: (usize, usize), lanes: usize) -> (Program, SpmspmHandler) {
        let offsets = Arc::clone(&self.z_offsets);
        let handler = SpmspmHandler::new(self.acc_r, self.z_r, offsets, rows.0, self.a.cols);
        (self.build_program(rows, lanes), handler)
    }

    /// Builds the Table 4 "SpMSpM P2" TMU program for a row range.
    pub fn build_program(&self, rows: (usize, usize), lanes: usize) -> Program {
        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        let row = bld.dns_fbrt(l0, rows.0 as i64, rows.1 as i64, 1);
        let ap_b = bld.mem_stream(row, self.a.ptrs_r.base, 4, StreamTy::Index);
        let ap_e = bld.mem_stream(row, self.a.ptrs_r.base + 4, 4, StreamTy::Index);

        let l1 = bld.layer(LayerMode::Single);
        let ktu = bld.rng_fbrt(l1, ap_b, ap_e, 0, 1);
        let k = bld.mem_stream(ktu, self.a.idxs_r.base, 4, StreamTy::Index);
        let a_val = bld.mem_stream(ktu, self.a.vals_r.base, 8, StreamTy::Value);
        let bp_b = bld.mem_stream_indexed(ktu, self.b.ptrs_r.base, 4, StreamTy::Index, k);
        let bp_e = bld.mem_stream_indexed(ktu, self.b.ptrs_r.base + 4, 4, StreamTy::Index, k);
        let _ = a_val;

        let l2 = bld.layer(LayerMode::LockStep);
        let mut b_idx = Vec::new();
        let mut b_val = Vec::new();
        let mut a_fwd = Vec::new();
        for lane in 0..lanes as i64 {
            let jtu = bld.rng_fbrt(l2, bp_b, bp_e, lane, lanes as i64);
            b_idx.push(bld.mem_stream(jtu, self.b.idxs_r.base, 4, StreamTy::Index));
            b_val.push(bld.mem_stream(jtu, self.b.vals_r.base, 8, StreamTy::Value));
            a_fwd.push(bld.fwd_stream(jtu, a_val));
        }
        let ra = self.a.nnz() as f64 / self.a.rows.max(1) as f64;
        let rb = self.b.nnz() as f64 / self.b.rows.max(1) as f64;
        bld.set_weight(l0, 1.0);
        bld.set_weight(l1, ra.max(1.0));
        bld.set_weight(l2, (ra * rb).max(2.0));
        let idx_op = bld.vec_operand(l2, &b_idx);
        let val_op = bld.vec_operand(l2, &b_val);
        let a_op = bld.scalar_operand(l2, a_fwd[0]);
        bld.callback(l2, Event::Ite, CB_JI, &[idx_op, val_op, a_op]);
        bld.callback(l1, Event::End, CB_ROW_END, &[]);
        bld.build().expect("SpMSpM program is well-formed")
    }
}

/// Emits the vectorized Gustavson baseline for a row shard.
fn emit_baseline<M: Machine + ?Sized>(m: &mut M, w: &Spmspm, rows: (usize, usize), vl: usize) {
    let (r0, r1) = rows;
    if r0 >= r1 {
        return;
    }
    let (a, b) = (&w.a, &w.b);
    // Per-shard dense accumulator state (functional side).
    let mut acc = vec![0.0f64; a.cols];
    let mut occ: Vec<u32> = Vec::new();
    let mut aptr_prev = m.load(Site(S_APTR), a.ptrs_r.u32_at(r0), 4, Deps::NONE);
    for i in r0..r1 {
        let aptr_next = m.load(Site(S_APTR), a.ptrs_r.u32_at(i + 1), 4, Deps::NONE);
        let (abeg, aend) = (a.ptrs[i] as usize, a.ptrs[i + 1] as usize);
        for p in abeg..aend {
            let bounds = Deps::on(&[aptr_prev, aptr_next]);
            let kld = m.load(Site(S_AIDX), a.idxs_r.u32_at(p), 4, bounds);
            let avld = m.load(Site(S_AVAL), a.vals_r.f64_at(p), 8, bounds);
            let kk = a.idxs[p] as usize;
            let bp0 = m.load(Site(S_BPTR), b.ptrs_r.u32_at(kk), 4, Deps::from(kld));
            let bp1 = m.load(Site(S_BPTR), b.ptrs_r.u32_at(kk + 1), 4, Deps::from(kld));
            let (bbeg, bend) = (b.ptrs[kk] as usize, b.ptrs[kk + 1] as usize);
            let mut q = bbeg;
            while q < bend {
                let n = (bend - q).min(vl);
                let bb = Deps::on(&[bp0, bp1]);
                let bidxv = m.vec_load(Site(S_BIDX), b.idxs_r.u32_at(q), (n * 4) as u32, bb);
                let bvalv = m.vec_load(Site(S_BVAL), b.vals_r.f64_at(q), (n * 8) as u32, bb);
                let mul = m.vec_op(n as u32, Deps::on(&[bvalv, avld]));
                // Scatter-accumulate into the workspace.
                for e in 0..n {
                    let j = b.idxs[q + e] as usize;
                    // Functional update.
                    if acc[j] == 0.0 {
                        occ.push(j as u32);
                    }
                    // NOTE: products are strictly positive by construction
                    // of the generators, so 0.0 marks "unoccupied".
                    let addr = w.acc_r.f64_at(j);
                    let old = m.load(Site(S_ACC_LD), addr, 8, Deps::on(&[bidxv, mul]));
                    let add = m.fp_op(1, Deps::from(old));
                    m.store(Site(S_ACC_ST), addr, 8, Deps::from(add));
                }
                q += n;
                m.branch(Site(S_J_BR), q < bend, bb);
            }
            m.branch(Site(S_K_BR), p + 1 < aend, Deps::NONE);
        }
        // Flush occupied entries to the output row.
        occ.sort_unstable();
        let zoff = w.z_offsets[i] as usize;
        let mut f = 0usize;
        while f < occ.len() {
            let n = (occ.len() - f).min(vl);
            let ld = m.vec_load(
                Site(S_FLUSH_LD),
                w.acc_r.f64_at(occ[f] as usize),
                (n * 8) as u32,
                Deps::NONE,
            );
            m.store(
                Site(S_FLUSH_ST),
                w.z_r.f64_at(zoff + f),
                (n * 8) as u32,
                Deps::from(ld),
            );
            f += n;
            m.branch(Site(S_FLUSH_BR), f < occ.len(), Deps::NONE);
        }
        for &j in &occ {
            acc[j as usize] = 0.0;
        }
        occ.clear();
        m.branch(Site(S_I_BR), i + 1 < r1, Deps::NONE);
        aptr_prev = aptr_next;
    }
}

/// Host callbacks: `ji` multiplies and scatter-accumulates the marshaled
/// B-row segment; `row_end` drains the workspace into the output row.
#[derive(Debug)]
pub struct SpmspmHandler {
    acc_r: Region,
    z_r: Region,
    z_offsets: Arc<Vec<u32>>,
    next_row: usize,
    acc: Vec<f64>,
    occ: Vec<u32>,
    /// Functional output values in row-major, column-sorted order.
    pub z: Vec<f64>,
    /// Functional output column indexes.
    pub z_cols: Vec<u32>,
}

impl SpmspmHandler {
    /// Handler for rows starting at `first_row`, with `cols` workspace
    /// columns.
    pub fn new(
        acc_r: Region,
        z_r: Region,
        z_offsets: Arc<Vec<u32>>,
        first_row: usize,
        cols: usize,
    ) -> Self {
        Self {
            acc_r,
            z_r,
            z_offsets,
            next_row: first_row,
            acc: vec![0.0; cols],
            occ: Vec::new(),
            z: Vec::new(),
            z_cols: Vec::new(),
        }
    }
}

impl CallbackHandler for SpmspmHandler {
    fn handle(&mut self, entry: &OutQEntry, entry_load: OpId, m: &mut VecMachine) {
        match entry.callback {
            CB_JI => {
                let idxs = entry.operands[0].indexes();
                let vals = entry.operands[1].f64s();
                let a_val = entry.operands[2].as_f64();
                let active = entry.mask.count_ones();
                let mul = m.vec_op(active, Deps::from(entry_load));
                for (lane, (j, bv)) in idxs.iter().zip(vals.iter()).enumerate() {
                    if entry.mask & (1 << lane) == 0 {
                        continue;
                    }
                    let j = j as usize;
                    if self.acc[j] == 0.0 {
                        self.occ.push(j as u32);
                    }
                    self.acc[j] += a_val * bv;
                    let addr = self.acc_r.f64_at(j);
                    let old = m.load(Site(S_ACC_LD), addr, 8, Deps::from(mul));
                    let add = m.fp_op(1, Deps::from(old));
                    m.store(Site(S_ACC_ST), addr, 8, Deps::from(add));
                }
            }
            CB_ROW_END => {
                self.occ.sort_unstable();
                let zoff = self.z_offsets[self.next_row] as usize;
                let mut f = 0;
                while f < self.occ.len() {
                    let n = (self.occ.len() - f).min(8);
                    let ld = m.vec_load(
                        Site(S_FLUSH_LD),
                        self.acc_r.f64_at(self.occ[f] as usize),
                        (n * 8) as u32,
                        Deps::NONE,
                    );
                    m.store(
                        Site(S_FLUSH_ST),
                        self.z_r.f64_at(zoff + f),
                        (n * 8) as u32,
                        Deps::from(ld),
                    );
                    f += n;
                }
                for &j in &self.occ {
                    self.z_cols.push(j);
                    self.z.push(self.acc[j as usize]);
                    self.acc[j as usize] = 0.0;
                }
                self.occ.clear();
                self.next_row += 1;
            }
            other => panic!("SpMSpM: unexpected callback {other}"),
        }
    }
}

fn reference(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    let mut triplets = Vec::new();
    let mut acc = vec![0.0f64; b.cols()];
    let mut occ: Vec<u32> = Vec::new();
    for i in 0..a.rows() {
        for (k, av) in a.row(i) {
            for (j, bv) in b.row(k as usize) {
                if acc[j as usize] == 0.0 {
                    occ.push(j);
                }
                acc[j as usize] += av * bv;
            }
        }
        occ.sort_unstable();
        for &j in &occ {
            triplets.push((i as u32, j, acc[j as usize]));
            acc[j as usize] = 0.0;
        }
        occ.clear();
    }
    let coo = tmu_tensor::CooMatrix::from_triplets(a.rows(), b.cols(), triplets)
        .expect("product fits declared shape");
    CsrMatrix::from_coo(&coo)
}

impl Workload for Spmspm {
    fn name(&self) -> &'static str {
        "SpMSpM"
    }

    fn kind(&self) -> KernelKind {
        Self::KIND
    }

    fn run_baseline(&self, cfg: SystemConfig) -> RunStats {
        let vl = cfg.core.sve_lanes();
        run_cores(cfg, &self.shards(cfg.cores()), |m, _, rows| {
            emit_baseline(m, self, rows, vl)
        })
    }

    fn run_baseline_imp(&self, cfg: SystemConfig) -> Option<RunStats> {
        let vl = cfg.core.sve_lanes();
        let shards = self.shards(cfg.cores());
        Some(run_cores_imp(cfg, &shards, |m, _, rows| {
            emit_baseline(m, self, rows, vl)
        }))
    }

    fn run_tmu(&self, cfg: SystemConfig, tmu: TmuConfig) -> TmuRun {
        let shards = self.shards(cfg.cores());
        run_engines(cfg, tmu, &self.image, &self.outq_r, &shards, |_, rows| {
            self.engine(rows, tmu.lanes)
        })
    }

    fn verify(&self) -> Result<(), String> {
        let (z_cols, z) = self.functional();
        if z_cols != self.reference.col_idxs().to_vec() {
            return Err("SpMSpM: output structure mismatch".to_owned());
        }
        check_close("SpMSpM", &z, self.reference.vals(), 1e-9)
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

    fn workload() -> Spmspm {
        Spmspm::new(&gen::uniform(96, 96, 4, 11))
    }

    #[test]
    fn reference_matches_dense_oracle() {
        let a = gen::uniform(24, 24, 3, 5);
        let b = a.transpose();
        let z = reference(&a, &b);
        // Dense check.
        let ad = a.to_coo().to_dense();
        let mut want = vec![vec![0.0; 24]; 24];
        for (i, row) in ad.iter().enumerate() {
            for (k, &av) in row.iter().enumerate() {
                if av != 0.0 {
                    for j in 0..24 {
                        want[i][j] += av * ad[j][k];
                    }
                }
            }
        }
        let zd = z.to_coo().to_dense();
        for i in 0..24 {
            for j in 0..24 {
                assert!((zd[i][j] - want[i][j]).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn verify_against_reference() {
        workload()
            .verify()
            .expect("TMU SpMSpM must match reference");
    }

    #[test]
    fn baseline_runs() {
        let w = workload();
        let stats = w.run_baseline(small_cfg(2));
        assert!(stats.cycles > 0);
        assert!(stats.total().flops > 0);
        let _ = &w;
    }

    #[test]
    fn tmu_runs() {
        let w = workload();
        let run = w.run_tmu(small_cfg(2), TmuConfig::paper());
        assert!(run.stats.cycles > 0);
        assert!(run.outq.iter().any(|o| o.entries > 0));
    }

    #[test]
    fn compute_share_exceeds_spmv() {
        // SpMSpM must be more commit-bound than SpMV on the same input
        // (the §3 characterization).
        let a = gen::uniform(256, 256, 8, 3);
        let mm = Spmspm::new(&a);
        let mv = crate::spmv::Spmv::new(&a);
        let s_mm = mm.run_baseline(small_cfg(1));
        let s_mv = mv.run_baseline(small_cfg(1));
        let (c_mm, _, _) = s_mm.breakdown();
        let (c_mv, _, _) = s_mv.breakdown();
        assert!(
            c_mm > c_mv,
            "SpMSpM committing share {c_mm:.2} must exceed SpMV {c_mv:.2}"
        );
    }
}
