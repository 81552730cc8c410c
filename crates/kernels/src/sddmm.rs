//! Sampled Dense-Dense Matrix Multiplication,
//! `S_{ij} = A_{ij} · Σ_r U_{ir} · V_{jr}` (CSR sample × two row-major
//! dense factors).
//!
//! SDDMM is the score stage of a GNN attention layer: the sparse
//! adjacency samples which pairwise feature dot products are ever
//! computed. The marshaling shape is the SpMM "P1" scheme run in
//! reverse: the TMU traverses `i` and the sampled `j` per non-zero and
//! its lockstep lanes fetch the `V[j, ·]` row stripes plus the forwarded
//! sample value, so the host core only multiply-accumulates against its
//! resident `U[i, ·]` row and scales by `A_{ij}` at each non-zero's end.

use std::sync::Arc;

use tmu::{
    CallbackHandler, Event, LayerMode, MemImage, OutQEntry, Program, ProgramBuilder, StreamTy,
};
use tmu_sim::{AddressMap, Deps, Machine, OpId, Region, Site, VecMachine};
use tmu_tensor::CsrMatrix;

use crate::data::{CsrOnSim, DenseOnSim};
use crate::spmm::RANK;
use crate::workload::run_functional;

const S_STORE: u16 = 290;

const CB_RI: u32 = 0;
const CB_K_END: u32 = 1;
const CB_ROW_END: u32 = 2;

/// An SDDMM workload bound to the simulator. The `V` factor lives in
/// simulated memory (the TMU streams its rows); the `U` factor stays
/// host-resident (the handler indexes it by the current output row).
#[derive(Debug)]
pub struct Sddmm {
    a: CsrOnSim,
    v: DenseOnSim,
    u: Arc<Vec<f64>>,
    s_r: Region,
    outq_r: Vec<Region>,
    image: Arc<MemImage>,
    reference: Vec<f64>,
    cols: usize,
}

impl Sddmm {
    /// Binds sample matrix `a` with deterministic dense factors.
    pub fn new(a_mat: &CsrMatrix) -> Self {
        let u: Vec<f64> = (0..a_mat.rows() * RANK)
            .map(|x| 0.5 + (x % 61) as f64 / 61.0)
            .collect();
        let v: Vec<f64> = (0..a_mat.cols() * RANK)
            .map(|x| 0.5 + (x % 73) as f64 / 73.0)
            .collect();
        Self::with_factors(a_mat, u, v)
    }

    /// Binds sample matrix `a` with the given factors (`u` is
    /// `rows × RANK` row-major, `v` is `cols × RANK` row-major).
    pub fn with_factors(a_mat: &CsrMatrix, u: Vec<f64>, v: Vec<f64>) -> Self {
        assert_eq!(u.len(), a_mat.rows() * RANK, "U must be rows × RANK");
        assert_eq!(v.len(), a_mat.cols() * RANK, "V must be cols × RANK");
        let mut reference = Vec::with_capacity(a_mat.nnz());
        for i in 0..a_mat.rows() {
            for (j, a) in a_mat.row(i) {
                let dot: f64 = (0..RANK)
                    .map(|r| u[i * RANK + r] * v[j as usize * RANK + r])
                    .sum();
                reference.push(a * dot);
            }
        }
        let mut map = AddressMap::new();
        let mut image = MemImage::new();
        let a = CsrOnSim::bind(&mut map, &mut image, "a", a_mat);
        let v = DenseOnSim::bind(&mut map, &mut image, "V", v);
        let s_r = map.alloc_elems("S.vals", a_mat.nnz().max(1), 8);
        let outq_r = (0..8)
            .map(|c| map.alloc(&format!("outq{c}"), 1 << 20))
            .collect();
        Self {
            a,
            v,
            u: Arc::new(u),
            s_r,
            outq_r,
            image: Arc::new(image),
            reference,
            cols: a_mat.cols(),
        }
    }

    /// The reference output values (in non-zero order).
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

    /// Assembles the sparse output `S` from computed values: `S` shares
    /// `A`'s sparsity pattern, only the stored values differ.
    ///
    /// # Errors
    ///
    /// Propagates [`CsrMatrix::from_parts`] validation (a value count
    /// that does not match `A`'s non-zeros).
    pub fn output_matrix(&self, vals: Vec<f64>) -> Result<CsrMatrix, String> {
        CsrMatrix::from_parts(
            self.a.rows,
            self.cols,
            self.a.ptrs.as_ref().clone(),
            self.a.idxs.as_ref().clone(),
            vals,
        )
        .map_err(|e| format!("SDDMM output: {e:?}"))
    }

    /// Builds the SDDMM TMU program for a row range (the SpMM P1 layer
    /// structure with `V` as the streamed dense factor).
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
        let mut vs = Vec::new();
        let mut a_fwd0 = None;
        for lane in 0..lanes as i64 {
            let rtu = bld.idx_fbrt(l2, k_row, RANK as i64, lane, lanes as i64);
            vs.push(bld.mem_stream(rtu, self.v.region.base, 8, StreamTy::Value));
            let af = bld.fwd_stream(rtu, kval);
            if lane == 0 {
                a_fwd0 = Some(af);
            }
        }
        let avg = self.a.nnz() as f64 / self.a.rows.max(1) as f64;
        bld.set_weight(l0, 1.0);
        bld.set_weight(l1, avg.max(1.0));
        bld.set_weight(l2, (avg * 2.0).max(2.0));
        let v_op = bld.vec_operand(l2, &vs);
        let a_op = bld.scalar_operand(l2, a_fwd0.expect("lane 0 exists"));
        bld.callback(l2, Event::Ite, CB_RI, &[v_op, a_op]);
        bld.callback(l2, Event::End, CB_K_END, &[]);
        bld.callback(l1, Event::End, CB_ROW_END, &[]);
        bld.build().expect("SDDMM program is well-formed")
    }

    /// Functional execution over the full row range: output values in
    /// non-zero order, exactly as the callback handler computes them.
    pub fn functional(&self, lanes: usize) -> Vec<f64> {
        let handlers = run_functional(&self.image, &[(0, self.a.rows)], |_, rows| {
            let handler = SddmmHandler::new(self.s_r, Arc::clone(&self.u), rows.0, lanes);
            (self.build_program(rows, lanes), handler)
        });
        handlers.into_iter().flat_map(|h| h.s_vals).collect()
    }
}

/// Host callbacks: dot the marshaled `V` stripes against the resident
/// `U` row, scale by the forwarded sample value at each non-zero's end.
#[derive(Debug)]
pub struct SddmmHandler {
    s_r: Region,
    u: Arc<Vec<f64>>,
    next_row: usize,
    next_pos: usize,
    rank_step: usize,
    lanes: usize,
    dot: f64,
    aval: f64,
    /// Functional output values (non-zero order).
    pub s_vals: Vec<f64>,
}

impl SddmmHandler {
    /// Handler for rows starting at `first_row` (non-zero positions
    /// restart at 0 for a sharded run — shards concatenate in order).
    pub fn new(s_r: Region, u: Arc<Vec<f64>>, first_row: usize, lanes: usize) -> Self {
        Self {
            s_r,
            u,
            next_row: first_row,
            next_pos: 0,
            rank_step: 0,
            lanes: lanes.min(RANK),
            dot: 0.0,
            aval: 0.0,
            s_vals: Vec::new(),
        }
    }
}

impl CallbackHandler for SddmmHandler {
    fn handle(&mut self, entry: &OutQEntry, entry_load: OpId, m: &mut VecMachine) {
        match entry.callback {
            CB_RI => {
                let vs = entry.operands[0].f64s();
                self.aval = entry.operands[1].as_f64();
                for (lane, vv) in vs.iter().enumerate() {
                    if entry.mask & (1 << lane) != 0 {
                        let r = lane + self.rank_step * self.lanes;
                        self.dot += vv * self.u[self.next_row * RANK + r];
                    }
                }
                self.rank_step += 1;
                m.vec_op(2 * entry.mask.count_ones(), Deps::from(entry_load));
            }
            CB_K_END => {
                self.s_vals.push(self.aval * self.dot);
                m.store(Site(S_STORE), self.s_r.f64_at(self.next_pos), 8, Deps::NONE);
                self.next_pos += 1;
                self.dot = 0.0;
                self.rank_step = 0;
            }
            CB_ROW_END => {
                self.next_row += 1;
            }
            other => panic!("SDDMM: unexpected callback {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::check_close;
    use tmu_tensor::gen;

    #[test]
    fn verify_against_reference() {
        let w = Sddmm::new(&gen::uniform(96, 96, 5, 31));
        check_close("SDDMM", &w.functional(8), w.reference(), 1e-9).expect("matches reference");
    }

    #[test]
    fn lane_count_does_not_change_the_values() {
        let w = Sddmm::new(&gen::uniform(48, 48, 4, 9));
        assert_eq!(
            w.functional(8),
            w.functional(4),
            "stripe width must not change the dot accumulation order"
        );
    }

    #[test]
    fn output_matrix_shares_the_sample_pattern() {
        let a = gen::uniform(32, 32, 3, 5);
        let w = Sddmm::new(&a);
        let s = w.output_matrix(w.functional(8)).expect("assembles");
        assert_eq!(s.rows(), a.rows());
        assert_eq!(s.nnz(), a.nnz());
        assert_eq!(s.row_ptrs(), a.row_ptrs());
        assert_eq!(s.col_idxs(), a.col_idxs());
        assert_eq!(s.vals(), w.reference());
    }

    #[test]
    fn empty_rows_are_handled() {
        let coo = tmu_tensor::CooMatrix::from_triplets(24, 24, vec![(20, 3, 2.0)]).expect("ok");
        let w = Sddmm::new(&CsrMatrix::from_coo(&coo));
        let got = w.functional(8);
        assert_eq!(got.len(), 1);
        assert!((got[0] - w.reference()[0]).abs() < 1e-9);
    }
}
