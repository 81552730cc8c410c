//! Sparse Matrix–Vector multiplication, `Z_i = A_ij · B_j` (CSR).
//!
//! The paper's traversal-stage proxy (§3). The baseline is the TACO loop
//! structure of Figure 4, vectorized SVE-style: per row, vector loads of
//! column indexes and values, a gather of `b[idxs[p]]` (modeled as
//! per-element loads — SVE gathers crack into element µops), an FMA chain,
//! and the data-dependent row-length branches that bound each row.
//!
//! The TMU version is the Figure 8 program (inner-loop vectorization,
//! "P1"): a dense row traversal broadcasting row pointers to a lockstep
//! group of lanes, each loading every `lanes`-th non-zero plus the chained
//! `b[idx]` lookup; the Figure 6 `ri`/`re` callbacks multiply-accumulate
//! and store on the core.

use std::sync::Arc;

use tmu::{
    CallbackHandler, Event, LayerMode, MemImage, OutQEntry, Program, ProgramBuilder, StreamTy,
    TmuConfig,
};
use tmu_sim::{AddressMap, Deps, Machine, OpId, Region, RunStats, Site, SystemConfig, VecMachine};
use tmu_tensor::CsrMatrix;

use crate::data::{partition_rows, CsrOnSim, DenseOnSim};
use crate::util::{check_close, fold_deps};
use crate::workload::{
    run_cores, run_cores_imp, run_engines, run_functional, KernelKind, TmuRun, Workload,
};

const S_PTR: u16 = 100;
const S_IDX: u16 = 101;
const S_VAL: u16 = 102;
const S_GATHER: u16 = 103;
const S_INNER_BR: u16 = 104;
const S_STORE: u16 = 105;
const S_OUTER_BR: u16 = 106;

/// Callback ids of the Figure 6 program.
const CB_RI: u32 = 0;
const CB_RE: u32 = 1;

/// The deterministic dense operand `b_j = 0.5 + (j mod 97) / 97` that
/// [`Spmv::new`] binds. The format, blocked-backend and expression paths
/// bind the same vector, so their SpMV results compare bitwise with this
/// kernel's reference.
pub fn operand_vector(cols: usize) -> Vec<f64> {
    (0..cols).map(|j| 0.5 + (j % 97) as f64 / 97.0).collect()
}

/// An SpMV workload instance bound to the simulator.
#[derive(Debug)]
pub struct Spmv {
    sim: CsrOnSim,
    b: DenseOnSim,
    x_r: Region,
    outq_r: Vec<Region>,
    image: Arc<MemImage>,
    reference: Vec<f64>,
}

impl Spmv {
    /// Workload category.
    pub const KIND: KernelKind = KernelKind::MemoryIntensive;

    /// Binds matrix `a` (with a deterministic dense vector) for simulation.
    pub fn new(a: &CsrMatrix) -> Self {
        Self::with_vector(a, operand_vector(a.cols()))
    }

    /// Binds matrix `a` with a caller-supplied dense vector (`cols`
    /// entries) — the shape application pipelines use to thread an
    /// iterate through repeated SpMV stages.
    pub fn with_vector(a: &CsrMatrix, bvec: Vec<f64>) -> Self {
        assert_eq!(bvec.len(), a.cols(), "vector length must match cols");
        let mut map = AddressMap::new();
        let mut image = MemImage::new();
        let sim = CsrOnSim::bind(&mut map, &mut image, "a", a);
        let b = DenseOnSim::bind(&mut map, &mut image, "b", bvec);
        let x_r = map.alloc_elems("x", a.rows().max(1), 8);
        let outq_r = (0..8)
            .map(|c| map.alloc(&format!("outq{c}"), 1 << 20))
            .collect();
        let reference = reference(a, &b.data);
        Self {
            sim,
            b,
            x_r,
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

    /// Output region (for standalone handlers).
    pub fn x_region(&self) -> Region {
        self.x_r
    }

    /// Functional TMU execution (8 shards, 8 lanes): per-row results in
    /// row order, exactly as the callback handler computes them.
    pub fn functional(&self) -> Vec<f64> {
        run_functional(&self.image, &self.shards(8), |_, rows| self.engine(rows, 8))
            .into_iter()
            .flat_map(|h| h.x)
            .collect()
    }

    fn shards(&self, cores: usize) -> Vec<(usize, usize)> {
        partition_rows(&self.sim.ptrs, cores)
    }

    /// The Figure 6/8 mapping of a row shard.
    fn engine(&self, rows: (usize, usize), lanes: usize) -> (Program, SpmvHandler) {
        let handler = SpmvHandler::new(self.x_r, rows.0);
        (self.build_program(rows, lanes), handler)
    }

    /// Builds the Figure 8 TMU program for a row range.
    pub fn build_program(&self, rows: (usize, usize), lanes: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let l0 = b.layer(LayerMode::Single);
        let row = b.dns_fbrt(l0, rows.0 as i64, rows.1 as i64, 1);
        let ptbs = b.mem_stream(row, self.sim.ptrs_r.base, 4, StreamTy::Index);
        let ptes = b.mem_stream(row, self.sim.ptrs_r.base + 4, 4, StreamTy::Index);
        let l1 = b.layer(LayerMode::LockStep);
        let mut nnz = Vec::new();
        let mut vecv = Vec::new();
        for lane in 0..lanes as i64 {
            let col = b.rng_fbrt(l1, ptbs, ptes, lane, lanes as i64);
            let ci = b.mem_stream(col, self.sim.idxs_r.base, 4, StreamTy::Index);
            nnz.push(b.mem_stream(col, self.sim.vals_r.base, 8, StreamTy::Value));
            vecv.push(b.mem_stream_indexed(col, self.b.region.base, 8, StreamTy::Value, ci));
        }
        let avg_row = self.sim.nnz() as f64 / self.sim.rows.max(1) as f64;
        b.set_weight(l0, 1.0);
        b.set_weight(l1, avg_row.max(1.0));
        let nnz_op = b.vec_operand(l1, &nnz);
        let vec_op = b.vec_operand(l1, &vecv);
        b.callback(l1, Event::Ite, CB_RI, &[nnz_op, vec_op]);
        b.callback(l1, Event::End, CB_RE, &[]);
        b.build().expect("SpMV program is well-formed")
    }
}

impl Spmv {
    /// Builds the Table 4 "SpMV P0" program: *outer-loop* vectorization.
    /// Both layers run in lockstep — each lane owns every `lanes`-th row,
    /// so one vector operand carries elements of eight different fibers
    /// (the higher-dimensional parallelization scheme of §4.2).
    pub fn build_program_p0(&self, rows: (usize, usize), lanes: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let l0 = b.layer(LayerMode::LockStep);
        let mut ptbs = Vec::new();
        let mut ptes = Vec::new();
        for lane in 0..lanes as i64 {
            let row = b.dns_fbrt(l0, rows.0 as i64 + lane, rows.1 as i64, lanes as i64);
            ptbs.push(b.mem_stream(row, self.sim.ptrs_r.base, 4, StreamTy::Index));
            ptes.push(b.mem_stream(row, self.sim.ptrs_r.base + 4, 4, StreamTy::Index));
        }
        let l1 = b.layer(LayerMode::LockStep);
        let mut nnz = Vec::new();
        let mut vecv = Vec::new();
        for lane in 0..lanes {
            let col = b.rng_fbrt(l1, ptbs[lane], ptes[lane], 0, 1);
            b.bind_parent(col, lane);
            let ci = b.mem_stream(col, self.sim.idxs_r.base, 4, StreamTy::Index);
            nnz.push(b.mem_stream(col, self.sim.vals_r.base, 8, StreamTy::Value));
            vecv.push(b.mem_stream_indexed(col, self.b.region.base, 8, StreamTy::Value, ci));
        }
        let avg_row = self.sim.nnz() as f64 / self.sim.rows.max(1) as f64;
        b.set_weight(l0, 1.0);
        b.set_weight(l1, avg_row.max(1.0));
        let nnz_op = b.vec_operand(l1, &nnz);
        let vec_op = b.vec_operand(l1, &vecv);
        b.callback(l1, Event::Ite, CB_RI, &[nnz_op, vec_op]);
        b.callback(l1, Event::End, CB_RE, &[]);
        b.build().expect("SpMV P0 program is well-formed")
    }
}

/// Host callbacks for the P0 (outer-loop parallel) scheme: each lane keeps
/// its own row accumulator; a row *group* of `lanes` rows finishes at each
/// layer-1 end event.
#[derive(Debug)]
pub struct SpmvP0Handler {
    x_r: Region,
    first_row: usize,
    last_row: usize,
    lanes: usize,
    group: usize,
    sums: Vec<f64>,
    dep: OpId,
    /// Functional output in row order (`first_row..last_row`).
    pub x: Vec<f64>,
}

impl SpmvP0Handler {
    /// Handler for rows `[first_row, last_row)` with `lanes` lanes.
    pub fn new(x_r: Region, rows: (usize, usize), lanes: usize) -> Self {
        Self {
            x_r,
            first_row: rows.0,
            last_row: rows.1,
            lanes,
            group: 0,
            sums: vec![0.0; lanes],
            dep: OpId::NONE,
            x: vec![0.0; rows.1.saturating_sub(rows.0)],
        }
    }
}

impl CallbackHandler for SpmvP0Handler {
    fn handle(&mut self, entry: &OutQEntry, entry_load: OpId, m: &mut VecMachine) {
        match entry.callback {
            CB_RI => {
                let nnz = entry.operands[0].f64s();
                let vecv = entry.operands[1].f64s();
                for lane in 0..self.lanes.min(nnz.len()) {
                    if entry.mask & (1 << lane) != 0 {
                        self.sums[lane] += nnz.lane(lane) * vecv.lane(lane);
                    }
                }
                // Per-lane FMA into a vector accumulator: no cross-lane
                // reduction needed in this scheme.
                self.dep = m.vec_op(
                    2 * entry.mask.count_ones(),
                    Deps::on(&[entry_load, self.dep]),
                );
            }
            CB_RE => {
                // The group of `lanes` rows is complete: store them all.
                for lane in 0..self.lanes {
                    let row = self.first_row + self.group * self.lanes + lane;
                    if row < self.last_row {
                        self.x[row - self.first_row] = self.sums[lane];
                    }
                }
                m.store(
                    Site(S_STORE),
                    self.x_r.f64_at(self.first_row + self.group * self.lanes),
                    (self.lanes * 8) as u32,
                    Deps::from(self.dep),
                );
                self.sums.iter_mut().for_each(|s| *s = 0.0);
                self.group += 1;
                self.dep = OpId::NONE;
            }
            other => panic!("SpMV P0: unexpected callback {other}"),
        }
    }
}

/// Emits the vectorized baseline for a row shard.
fn emit_baseline<M: Machine + ?Sized>(m: &mut M, w: &Spmv, rows: (usize, usize), vl: usize) {
    let (r0, r1) = rows;
    if r0 >= r1 {
        return;
    }
    let a = &w.sim;
    let mut ptr_prev = m.load(Site(S_PTR), a.ptrs_r.u32_at(r0), 4, Deps::NONE);
    for i in r0..r1 {
        let ptr_next = m.load(Site(S_PTR), a.ptrs_r.u32_at(i + 1), 4, Deps::NONE);
        let beg = a.ptrs[i] as usize;
        let end = a.ptrs[i + 1] as usize;
        let mut sum = OpId::NONE;
        let mut p = beg;
        while p < end {
            let n = (end - p).min(vl);
            let bounds = Deps::on(&[ptr_prev, ptr_next]);
            let idxv = m.vec_load(Site(S_IDX), a.idxs_r.u32_at(p), (n * 4) as u32, bounds);
            let valv = m.vec_load(Site(S_VAL), a.vals_r.f64_at(p), (n * 8) as u32, bounds);
            let mut prods = Vec::with_capacity(n + 2);
            for e in 0..n {
                let col = a.idxs[p + e] as usize;
                prods.push(m.load(Site(S_GATHER), w.b.region.f64_at(col), 8, Deps::from(idxv)));
            }
            prods.push(valv);
            if sum.is_some() {
                prods.push(sum);
            }
            let deps = fold_deps(m, &prods);
            sum = m.vec_op((2 * n) as u32, deps);
            p += n;
            m.branch(Site(S_INNER_BR), p < end, Deps::on(&[ptr_prev, ptr_next]));
        }
        m.store(Site(S_STORE), w.x_r.f64_at(i), 8, Deps::from(sum));
        m.branch(Site(S_OUTER_BR), i + 1 < r1, Deps::NONE);
        ptr_prev = ptr_next;
    }
}

/// Host callbacks of Figure 6: `ri` multiply-accumulates the marshaled
/// vectors, `re` stores the finished row.
#[derive(Debug)]
pub struct SpmvHandler {
    x_r: Region,
    next_row: usize,
    sum: f64,
    sum_dep: OpId,
    /// Functional output (row values in traversal order).
    pub x: Vec<f64>,
}

impl SpmvHandler {
    /// Handler for rows starting at `first_row`.
    pub fn new(x_r: Region, first_row: usize) -> Self {
        Self {
            x_r,
            next_row: first_row,
            sum: 0.0,
            sum_dep: OpId::NONE,
            x: Vec::new(),
        }
    }
}

impl CallbackHandler for SpmvHandler {
    fn handle(&mut self, entry: &OutQEntry, entry_load: OpId, m: &mut VecMachine) {
        match entry.callback {
            CB_RI => {
                let nnz = entry.operands[0].f64s();
                let vecv = entry.operands[1].f64s();
                self.sum += nnz.iter().zip(vecv.iter()).map(|(a, b)| a * b).sum::<f64>();
                let active = entry.mask.count_ones();
                let mul = m.vec_op(active, Deps::from(entry_load));
                self.sum_dep = m.vec_op(active, Deps::on(&[mul, self.sum_dep]));
            }
            CB_RE => {
                self.x.push(self.sum);
                self.sum = 0.0;
                m.store(
                    Site(S_STORE),
                    self.x_r.f64_at(self.next_row),
                    8,
                    Deps::from(self.sum_dep),
                );
                self.next_row += 1;
                self.sum_dep = OpId::NONE;
            }
            other => panic!("SpMV: unexpected callback {other}"),
        }
    }
}

fn reference(a: &CsrMatrix, b: &[f64]) -> Vec<f64> {
    (0..a.rows())
        .map(|i| a.row(i).map(|(c, v)| v * b[c as usize]).sum())
        .collect()
}

impl Workload for Spmv {
    fn name(&self) -> &'static str {
        "SpMV"
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
        check_close("SpMV", &self.functional(), &self.reference, 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmu_sim::{CoreConfig, CountingMachine, MemSysConfig};
    use tmu_tensor::gen;

    fn small_cfg(cores: usize) -> SystemConfig {
        SystemConfig {
            core: CoreConfig::neoverse_n1_like(),
            mem: MemSysConfig::table5(cores),
        }
    }

    fn workload() -> Spmv {
        Spmv::new(&gen::uniform(512, 512, 8, 42))
    }

    #[test]
    fn verify_against_reference() {
        workload().verify().expect("TMU SpMV must match reference");
    }

    #[test]
    fn baseline_op_mix_is_sane() {
        let w = workload();
        let mut m = CountingMachine::new();
        emit_baseline(&mut m, &w, (0, 512), 8);
        // ≈ 8 nnz/row: per row ≥ 1 chunk (idx+val vec loads + 8 gathers).
        assert!(m.loads as usize >= w.sim.nnz() + 512);
        assert_eq!(m.stores, 512);
        assert!(m.branches >= 1024);
        assert_eq!(m.flops as usize, 2 * w.sim.nnz());
    }

    #[test]
    fn baseline_runs_multicore() {
        let w = workload();
        let stats = w.run_baseline(small_cfg(2));
        assert!(stats.cycles > 0);
        assert_eq!(stats.total().flops as usize, 2 * w.sim.nnz());
    }

    #[test]
    fn tmu_runs_and_reports_outq() {
        let w = workload();
        let run = w.run_tmu(small_cfg(2), TmuConfig::paper());
        assert!(run.stats.cycles > 0);
        assert!(run.outq.iter().any(|o| o.entries > 0));
        assert!(run.read_to_write_ratio() >= 0.0);
    }

    #[test]
    fn tmu_beats_baseline_on_scattered_input() {
        // A scattered matrix (poor locality) is where the TMU's MLP pays.
        let w = Spmv::new(&gen::uniform(2048, 65_536, 8, 7));
        let base = w.run_baseline(small_cfg(2));
        let tmu = w.run_tmu(small_cfg(2), TmuConfig::paper());
        let speedup = base.cycles as f64 / tmu.stats.cycles as f64;
        assert!(
            speedup > 1.2,
            "TMU should beat the baseline, got {speedup:.2}×"
        );
    }

    #[test]
    fn imp_baseline_runs() {
        let w = workload();
        let stats = w.run_baseline_imp(small_cfg(2)).expect("SpMV supports IMP");
        assert!(stats.cycles > 0);
    }

    #[test]
    fn p0_outer_loop_scheme_matches_reference() {
        let w = workload();
        let lanes = 8;
        let prog = std::sync::Arc::new(w.build_program_p0((0, 512), lanes));
        let mut handler = SpmvP0Handler::new(w.x_region(), (0, 512), lanes);
        let mut vm = VecMachine::new();
        tmu::for_each_entry(&prog, &w.image_handle(), |e| {
            handler.handle(e, OpId::NONE, &mut vm);
        });
        for (g, r) in handler.x.iter().zip(w.reference()) {
            assert!((g - r).abs() < 1e-9, "{g} vs {r}");
        }
    }

    #[test]
    fn p0_handles_row_counts_not_divisible_by_lanes() {
        let w = Spmv::new(&gen::uniform(61, 64, 5, 3));
        let prog = std::sync::Arc::new(w.build_program_p0((0, 61), 8));
        let mut handler = SpmvP0Handler::new(w.x_region(), (0, 61), 8);
        let mut vm = VecMachine::new();
        tmu::for_each_entry(&prog, &w.image_handle(), |e| {
            handler.handle(e, OpId::NONE, &mut vm);
        });
        for (g, r) in handler.x.iter().zip(w.reference()) {
            assert!((g - r).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_rows_are_handled() {
        let coo = tmu_tensor::CooMatrix::from_triplets(64, 64, vec![(63, 5, 1.0)]).expect("ok");
        let w = Spmv::new(&CsrMatrix::from_coo(&coo));
        w.verify().expect("mostly-empty matrix verifies");
        let stats = w.run_baseline(small_cfg(1));
        assert!(stats.cycles > 0);
    }
}
