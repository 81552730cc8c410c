//! Sparse Matrix–Sparse Vector multiplication, `Z_i = Σ_j A_ij · B_j`
//! with both operands compressed (Table 4 row "SpMSpV").
//!
//! Every matrix row is *conjunctively* merged with the sparse vector: a
//! value contributes only where both coordinates are present. The baseline
//! re-intersects the vector with each row using a two-pointer scan; the
//! TMU restarts its vector lane per row and intersects in hardware
//! (`ConjMrg`), handing the core only the matching value pairs.

use std::sync::Arc;

use tmu::{
    CallbackHandler, Event, LayerMode, MemImage, OutQEntry, Program, ProgramBuilder, StreamTy,
    TmuConfig,
};
use tmu_sim::{AddressMap, Deps, Machine, OpId, Region, RunStats, Site, SystemConfig, VecMachine};
use tmu_tensor::CsrMatrix;

use crate::data::{partition_rows, CsrOnSim};
use crate::util::check_close;
use crate::workload::{run_cores, run_engines, run_functional, KernelKind, TmuRun, Workload};

const S_PTR: u16 = 280;
const S_AHEAD: u16 = 281;
const S_BHEAD: u16 = 282;
const S_AVAL: u16 = 283;
const S_BVAL: u16 = 284;
const S_CMP: u16 = 285;
const S_STORE: u16 = 286;
const S_I_BR: u16 = 287;

const CB_MATCH: u32 = 0;
const CB_ROW_END: u32 = 1;

/// An SpMSpV workload bound to the simulator.
#[derive(Debug)]
pub struct Spmspv {
    a: CsrOnSim,
    b_idxs: Arc<Vec<u32>>,
    b_idxs_r: Region,
    b_vals_r: Region,
    z_r: Region,
    outq_r: Vec<Region>,
    image: Arc<MemImage>,
    reference: Vec<f64>,
}

impl Spmspv {
    /// Workload category.
    pub const KIND: KernelKind = KernelKind::MergeIntensive;

    /// Binds matrix `a` with a deterministic sparse vector of density
    /// `density` (fraction of non-zero positions).
    pub fn new(a_mat: &CsrMatrix, density: f64) -> Self {
        let cols = a_mat.cols();
        let stride = (1.0 / density.clamp(0.001, 1.0)) as usize;
        let b_idx: Vec<u32> = (0..cols).step_by(stride.max(1)).map(|j| j as u32).collect();
        let b_val: Vec<f64> = b_idx
            .iter()
            .map(|&j| 0.5 + (j % 67) as f64 / 67.0)
            .collect();
        let dense_b: std::collections::HashMap<u32, f64> =
            b_idx.iter().copied().zip(b_val.iter().copied()).collect();
        let reference: Vec<f64> = (0..a_mat.rows())
            .map(|i| {
                a_mat
                    .row(i)
                    .filter_map(|(c, v)| dense_b.get(&c).map(|bv| v * bv))
                    .sum()
            })
            .collect();
        let mut map = AddressMap::new();
        let mut image = MemImage::new();
        let a = CsrOnSim::bind(&mut map, &mut image, "a", a_mat);
        let b_idxs = Arc::new(b_idx);
        let b_idxs_r = map.alloc_elems("b.idxs", b_idxs.len().max(1), 4);
        let b_vals_r = map.alloc_elems("b.vals", b_val.len().max(1), 8);
        image.bind_u32(b_idxs_r, Arc::clone(&b_idxs));
        image.bind_f64(b_vals_r, Arc::new(b_val));
        let z_r = map.alloc_elems("z", a_mat.rows().max(1), 8);
        let outq_r = (0..8)
            .map(|c| map.alloc(&format!("outq{c}"), 1 << 20))
            .collect();
        Self {
            a,
            b_idxs,
            b_idxs_r,
            b_vals_r,
            z_r,
            outq_r,
            image: Arc::new(image),
            reference,
        }
    }

    /// The reference result.
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

    /// Functional TMU execution (8 shards): per-row results in row order,
    /// exactly as the callback handler computes them.
    pub fn functional(&self) -> Vec<f64> {
        let shards = partition_rows(&self.a.ptrs, 8);
        run_functional(&self.image, &shards, |_, rows| self.engine(rows))
            .into_iter()
            .flat_map(|h| h.z)
            .collect()
    }

    /// The conjunctive-merge mapping of a row shard.
    fn engine(&self, rows: (usize, usize)) -> (Program, SpmspvHandler) {
        (
            self.build_program(rows),
            SpmspvHandler::new(self.z_r, rows.0),
        )
    }

    /// Builds the Table 4 SpMSpV TMU program for a row range.
    pub fn build_program(&self, rows: (usize, usize)) -> Program {
        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        let itu = bld.dns_fbrt(l0, rows.0 as i64, rows.1 as i64, 1);
        let pb = bld.mem_stream(itu, self.a.ptrs_r.base, 4, StreamTy::Index);
        let pe = bld.mem_stream(itu, self.a.ptrs_r.base + 4, 4, StreamTy::Index);

        let l1 = bld.layer(LayerMode::ConjMrg);
        let a_tu = bld.rng_fbrt(l1, pb, pe, 0, 1);
        let ak = bld.mem_stream(a_tu, self.a.idxs_r.base, 4, StreamTy::Index);
        let av = bld.mem_stream(a_tu, self.a.vals_r.base, 8, StreamTy::Value);
        bld.set_key(a_tu, ak);
        // The vector lane restarts its full traversal for every row.
        let b_tu = bld.dns_fbrt(l1, 0, self.b_idxs.len() as i64, 1);
        bld.bind_parent(b_tu, 0);
        let bk = bld.mem_stream(b_tu, self.b_idxs_r.base, 4, StreamTy::Index);
        let bv = bld.mem_stream(b_tu, self.b_vals_r.base, 8, StreamTy::Value);
        bld.set_key(b_tu, bk);

        let avg = self.a.nnz() as f64 / self.a.rows.max(1) as f64;
        bld.set_weight(l0, 1.0);
        bld.set_weight(l1, (avg + self.b_idxs.len() as f64).max(2.0));
        let vals = bld.vec_operand(l1, &[av, bv]);
        bld.callback(l1, Event::Ite, CB_MATCH, &[vals]);
        bld.callback(l1, Event::End, CB_ROW_END, &[]);
        bld.build().expect("SpMSpV program is well-formed")
    }
}

fn emit_baseline<M: Machine + ?Sized>(m: &mut M, w: &Spmspv, rows: (usize, usize)) {
    let (r0, r1) = rows;
    let a_mat = &w.a;
    for i in r0..r1 {
        let p0 = m.load(Site(S_PTR), a_mat.ptrs_r.u32_at(i), 4, Deps::NONE);
        let p1 = m.load(Site(S_PTR), a_mat.ptrs_r.u32_at(i + 1), 4, Deps::NONE);
        let (mut a, enda) = (a_mat.ptrs[i] as usize, a_mat.ptrs[i + 1] as usize);
        let mut b = 0usize;
        let endb = w.b_idxs.len();
        let mut sum = OpId::NONE;
        while a < enda && b < endb {
            let ha = m.load(
                Site(S_AHEAD),
                a_mat.idxs_r.u32_at(a),
                4,
                Deps::on(&[p0, p1]),
            );
            let hb = m.load(Site(S_BHEAD), w.b_idxs_r.u32_at(b), 4, Deps::NONE);
            let ka = a_mat.idxs[a];
            let kb = w.b_idxs[b];
            m.branch(Site(S_CMP), ka < kb, Deps::on(&[ha, hb]));
            m.branch(Site(S_CMP), ka > kb, Deps::on(&[ha, hb]));
            if ka == kb {
                let av = m.load(Site(S_AVAL), a_mat.vals_r.f64_at(a), 8, Deps::NONE);
                let bv = m.load(Site(S_BVAL), w.b_vals_r.f64_at(b), 8, Deps::NONE);
                sum = m.fp_op(2, Deps::on(&[av, bv, sum]));
                a += 1;
                b += 1;
            } else if ka < kb {
                a += 1;
            } else {
                b += 1;
            }
        }
        m.store(Site(S_STORE), w.z_r.f64_at(i), 8, Deps::from(sum));
        m.branch(Site(S_I_BR), i + 1 < r1, Deps::NONE);
    }
}

/// Host callbacks: multiply on match, store at row end.
#[derive(Debug)]
pub struct SpmspvHandler {
    z_r: Region,
    next_row: usize,
    sum: f64,
    sum_dep: OpId,
    /// Functional per-row results.
    pub z: Vec<f64>,
}

impl SpmspvHandler {
    /// Handler for rows starting at `first_row`.
    pub fn new(z_r: Region, first_row: usize) -> Self {
        Self {
            z_r,
            next_row: first_row,
            sum: 0.0,
            sum_dep: OpId::NONE,
            z: Vec::new(),
        }
    }
}

impl CallbackHandler for SpmspvHandler {
    fn handle(&mut self, entry: &OutQEntry, entry_load: OpId, m: &mut VecMachine) {
        match entry.callback {
            CB_MATCH => {
                let vals = entry.operands[0].f64s();
                self.sum += vals.lane(0) * vals.lane(1);
                self.sum_dep = m.fp_op(2, Deps::on(&[entry_load, self.sum_dep]));
            }
            CB_ROW_END => {
                self.z.push(self.sum);
                self.sum = 0.0;
                m.store(
                    Site(S_STORE),
                    self.z_r.f64_at(self.next_row),
                    8,
                    Deps::from(self.sum_dep),
                );
                self.next_row += 1;
                self.sum_dep = OpId::NONE;
            }
            other => panic!("SpMSpV: unexpected callback {other}"),
        }
    }
}

impl Workload for Spmspv {
    fn name(&self) -> &'static str {
        "SpMSpV"
    }

    fn kind(&self) -> KernelKind {
        Self::KIND
    }

    fn run_baseline(&self, cfg: SystemConfig) -> RunStats {
        let shards = partition_rows(&self.a.ptrs, cfg.cores());
        run_cores(cfg, &shards, |m, _, rows| emit_baseline(m, self, rows))
    }

    fn run_tmu(&self, cfg: SystemConfig, tmu: TmuConfig) -> TmuRun {
        let shards = partition_rows(&self.a.ptrs, cfg.cores());
        run_engines(cfg, tmu, &self.image, &self.outq_r, &shards, |_, rows| {
            self.engine(rows)
        })
    }

    fn verify(&self) -> Result<(), String> {
        check_close("SpMSpV", &self.functional(), &self.reference, 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmu_sim::{CoreConfig, MemSysConfig};
    use tmu_tensor::gen;

    #[test]
    fn verify_against_reference() {
        Spmspv::new(&gen::uniform(128, 256, 6, 71), 0.1)
            .verify()
            .expect("TMU SpMSpV must match reference");
    }

    #[test]
    fn dense_vector_degenerates_to_spmv() {
        // Density 1.0: every matrix nnz matches.
        let a = gen::uniform(32, 64, 4, 5);
        let w = Spmspv::new(&a, 1.0);
        let nonzero_rows = w.reference().iter().filter(|&&v| v != 0.0).count();
        assert_eq!(
            nonzero_rows,
            (0..32).filter(|&i| a.row(i).count() > 0).count()
        );
        w.verify().expect("dense-vector case verifies");
    }

    #[test]
    fn baseline_and_tmu_run() {
        let w = Spmspv::new(&gen::uniform(128, 256, 6, 71), 0.1);
        let cfg = SystemConfig {
            core: CoreConfig::neoverse_n1_like(),
            mem: MemSysConfig::table5(2),
        };
        assert!(w.run_baseline(cfg).cycles > 0);
        assert!(w.run_tmu(cfg, TmuConfig::paper()).stats.cycles > 0);
    }
}
