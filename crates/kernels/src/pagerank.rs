//! PageRank (GAP benchmark, Jacobi-style pull iteration).
//!
//! Per iteration: a dense *weight update* computes each vertex's
//! contribution `contrib[j] = rank[j] / outdeg[j]`, then a gather phase
//! accumulates in-neighbour contributions (an SpMV over the in-adjacency
//! CSR) and applies the damping factor. The TMU accelerates only the
//! gather phase — the dense update stays on the core, which is why the
//! paper reports slightly lower speedups for PR than for SpMV (§7.1).
//!
//! The two phases are separated by a barrier in the real code, so each is
//! timed as its own run and the cycle counts are summed.

use std::sync::Arc;

use tmu::{
    CallbackHandler, Event, LayerMode, MemImage, OutQEntry, Program, ProgramBuilder, StreamTy,
    TmuConfig,
};
use tmu_sim::{AddressMap, Deps, Machine, OpId, Region, RunStats, Site, SystemConfig, VecMachine};
use tmu_tensor::CsrMatrix;

use crate::data::{partition_flat, partition_rows, CsrOnSim, DenseOnSim};
use crate::util::{check_close, fold_deps};
use crate::workload::{
    add_phase, run_cores, run_engines, run_functional, KernelKind, TmuRun, Workload,
};

const S_RANK: u16 = 160;
const S_DEG: u16 = 161;
const S_CONTRIB_ST: u16 = 162;
const S_DENSE_BR: u16 = 163;
const S_PTR: u16 = 164;
const S_IDX: u16 = 165;
const S_GATHER: u16 = 166;
const S_INNER_BR: u16 = 167;
const S_STORE: u16 = 168;
const S_OUTER_BR: u16 = 169;

const CB_RI: u32 = 0;
const CB_RE: u32 = 1;

/// Damping factor used by the GAP benchmark.
pub const DAMPING: f64 = 0.85;

/// A PageRank workload bound to the simulator.
#[derive(Debug)]
pub struct PageRank {
    adj: CsrOnSim,
    rank: DenseOnSim,
    deg: DenseOnSim,
    contrib_r: Region,
    out_r: Region,
    outq_r: Vec<Region>,
    image: Arc<MemImage>,
    reference: Vec<f64>,
}

impl PageRank {
    /// Workload category.
    pub const KIND: KernelKind = KernelKind::MemoryIntensive;

    /// Binds graph `adj` (rows list in-neighbours) for one iteration.
    pub fn new(adj_mat: &CsrMatrix) -> Self {
        let n = adj_mat.rows();
        Self::with_ranks(adj_mat, vec![1.0 / n.max(1) as f64; n])
    }

    /// Binds graph `adj` with a caller-supplied current rank vector —
    /// the shape the PageRank application uses to iterate to convergence.
    pub fn with_ranks(adj_mat: &CsrMatrix, rank_vals: Vec<f64>) -> Self {
        let n = adj_mat.rows();
        assert_eq!(rank_vals.len(), n, "rank vector must match vertex count");
        let mut map = AddressMap::new();
        let mut image = MemImage::new();
        let adj = CsrOnSim::bind(&mut map, &mut image, "adj", adj_mat);
        // Out-degrees from the transpose; isolated vertices get degree 1.
        let t = adj_mat.transpose();
        let deg_vals: Vec<f64> = (0..n).map(|j| (t.row(j).count().max(1)) as f64).collect();
        let contrib_vals: Vec<f64> = rank_vals
            .iter()
            .zip(&deg_vals)
            .map(|(r, d)| r / d)
            .collect();
        let rank = DenseOnSim::bind(&mut map, &mut image, "rank", rank_vals);
        let deg = DenseOnSim::bind(&mut map, &mut image, "deg", deg_vals);
        let contrib_arc = Arc::new(contrib_vals);
        let contrib_r = map.alloc_elems("contrib", n.max(1), 8);
        image.bind_f64(contrib_r, Arc::clone(&contrib_arc));
        let out_r = map.alloc_elems("out", n.max(1), 8);
        let outq_r = (0..8)
            .map(|c| map.alloc(&format!("outq{c}"), 1 << 20))
            .collect();
        let base = (1.0 - DAMPING) / n as f64;
        let reference: Vec<f64> = (0..n)
            .map(|i| {
                let sum: f64 = adj_mat.row(i).map(|(j, _)| contrib_arc[j as usize]).sum();
                base + DAMPING * sum
            })
            .collect();
        Self {
            adj,
            rank,
            deg,
            contrib_r,
            out_r,
            outq_r,
            image: Arc::new(image),
            reference,
        }
    }

    /// The reference next-iteration ranks.
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

    /// Vertex count.
    pub fn vertices(&self) -> usize {
        self.adj.rows
    }

    /// Functional gather-phase execution over the full vertex range:
    /// next-iteration ranks exactly as the callback handler computes them.
    pub fn functional(&self, lanes: usize) -> Vec<f64> {
        self.functional_shards(&[(0, self.adj.rows)], lanes)
    }

    fn functional_shards(&self, shards: &[(usize, usize)], lanes: usize) -> Vec<f64> {
        run_functional(&self.image, shards, |_, rows| self.engine(rows, lanes))
            .into_iter()
            .flat_map(|h| h.out)
            .collect()
    }

    /// The gather-phase mapping of a row shard.
    fn engine(&self, rows: (usize, usize), lanes: usize) -> (Program, PageRankHandler) {
        let handler = PageRankHandler::new(self.out_r, rows.0, self.adj.rows);
        (self.build_program(rows, lanes), handler)
    }

    /// Builds the gather-phase TMU program (Table 4 PageRank row).
    pub fn build_program(&self, rows: (usize, usize), lanes: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let l0 = b.layer(LayerMode::Single);
        let row = b.dns_fbrt(l0, rows.0 as i64, rows.1 as i64, 1);
        let ptbs = b.mem_stream(row, self.adj.ptrs_r.base, 4, StreamTy::Index);
        let ptes = b.mem_stream(row, self.adj.ptrs_r.base + 4, 4, StreamTy::Index);
        let l1 = b.layer(LayerMode::LockStep);
        let mut contribs = Vec::new();
        for lane in 0..lanes as i64 {
            let col = b.rng_fbrt(l1, ptbs, ptes, lane, lanes as i64);
            let ci = b.mem_stream(col, self.adj.idxs_r.base, 4, StreamTy::Index);
            contribs.push(b.mem_stream_indexed(col, self.contrib_r.base, 8, StreamTy::Value, ci));
        }
        let avg_row = self.adj.nnz() as f64 / self.adj.rows.max(1) as f64;
        b.set_weight(l0, 1.0);
        b.set_weight(l1, avg_row.max(1.0));
        let op = b.vec_operand(l1, &contribs);
        b.callback(l1, Event::Ite, CB_RI, &[op]);
        b.callback(l1, Event::End, CB_RE, &[]);
        b.build().expect("PageRank program is well-formed")
    }

    /// Dense weight-update phase (runs on the core in both versions).
    fn run_dense_phase(&self, cfg: SystemConfig) -> RunStats {
        let vl = cfg.core.sve_lanes();
        let shards = partition_flat(self.adj.rows, cfg.cores());
        run_cores(cfg, &shards, |m, _, (j0, j1)| {
            let mut j = j0;
            while j < j1 {
                let n = (j1 - j).min(vl);
                let bytes = (n * 8) as u32;
                let r = m.vec_load(Site(S_RANK), self.rank.region.f64_at(j), bytes, Deps::NONE);
                let d = m.vec_load(Site(S_DEG), self.deg.region.f64_at(j), bytes, Deps::NONE);
                let div = m.vec_op(n as u32, Deps::on(&[r, d]));
                let contrib = self.contrib_r.f64_at(j);
                m.store(Site(S_CONTRIB_ST), contrib, bytes, Deps::from(div));
                j += n;
                m.branch(Site(S_DENSE_BR), j < j1, Deps::NONE);
            }
        })
    }
}

fn gather_baseline<M: Machine + ?Sized>(m: &mut M, w: &PageRank, rows: (usize, usize), vl: usize) {
    let (r0, r1) = rows;
    if r0 >= r1 {
        return;
    }
    let adj = &w.adj;
    let mut ptr_prev = m.load(Site(S_PTR), adj.ptrs_r.u32_at(r0), 4, Deps::NONE);
    for i in r0..r1 {
        let ptr_next = m.load(Site(S_PTR), adj.ptrs_r.u32_at(i + 1), 4, Deps::NONE);
        let (beg, end) = (adj.ptrs[i] as usize, adj.ptrs[i + 1] as usize);
        let mut sum = OpId::NONE;
        let mut p = beg;
        while p < end {
            let n = (end - p).min(vl);
            let bounds = Deps::on(&[ptr_prev, ptr_next]);
            let idxv = m.vec_load(Site(S_IDX), adj.idxs_r.u32_at(p), (n * 4) as u32, bounds);
            let mut adds = Vec::with_capacity(n + 1);
            for e in 0..n {
                let j = adj.idxs[p + e] as usize;
                adds.push(m.load(Site(S_GATHER), w.contrib_r.f64_at(j), 8, Deps::from(idxv)));
            }
            if sum.is_some() {
                adds.push(sum);
            }
            let deps = fold_deps(m, &adds);
            sum = m.vec_op(n as u32, deps);
            p += n;
            m.branch(Site(S_INNER_BR), p < end, bounds);
        }
        // rank_new = base + d·sum.
        let fin = m.fp_op(2, Deps::from(sum));
        m.store(Site(S_STORE), w.out_r.f64_at(i), 8, Deps::from(fin));
        m.branch(Site(S_OUTER_BR), i + 1 < r1, Deps::NONE);
        ptr_prev = ptr_next;
    }
}

/// Gather-phase callbacks: `ri` accumulates contributions, `re` applies
/// damping and stores the new rank.
#[derive(Debug)]
pub struct PageRankHandler {
    out_r: Region,
    next_row: usize,
    n: usize,
    sum: f64,
    sum_dep: OpId,
    /// Functional output ranks (in traversal order).
    pub out: Vec<f64>,
}

impl PageRankHandler {
    /// Handler for rows starting at `first_row` of an `n`-vertex graph.
    pub fn new(out_r: Region, first_row: usize, n: usize) -> Self {
        Self {
            out_r,
            next_row: first_row,
            n,
            sum: 0.0,
            sum_dep: OpId::NONE,
            out: Vec::new(),
        }
    }
}

impl CallbackHandler for PageRankHandler {
    fn handle(&mut self, entry: &OutQEntry, entry_load: OpId, m: &mut VecMachine) {
        match entry.callback {
            CB_RI => {
                let c = entry.operands[0].f64s();
                self.sum += c.iter().sum::<f64>();
                let active = entry.mask.count_ones();
                self.sum_dep = m.vec_op(active, Deps::on(&[entry_load, self.sum_dep]));
            }
            CB_RE => {
                let base = (1.0 - DAMPING) / self.n as f64;
                self.out.push(base + DAMPING * self.sum);
                self.sum = 0.0;
                let fin = m.fp_op(2, Deps::from(self.sum_dep));
                m.store(
                    Site(S_STORE),
                    self.out_r.f64_at(self.next_row),
                    8,
                    Deps::from(fin),
                );
                self.next_row += 1;
                self.sum_dep = OpId::NONE;
            }
            other => panic!("PageRank: unexpected callback {other}"),
        }
    }
}

impl Workload for PageRank {
    fn name(&self) -> &'static str {
        "PR"
    }

    fn kind(&self) -> KernelKind {
        Self::KIND
    }

    fn run_baseline(&self, cfg: SystemConfig) -> RunStats {
        let dense = self.run_dense_phase(cfg);
        let vl = cfg.core.sve_lanes();
        let shards = partition_rows(&self.adj.ptrs, cfg.cores());
        let mut gather = run_cores(cfg, &shards, |m, _, rows| {
            gather_baseline(m, self, rows, vl)
        });
        add_phase(&mut gather, &dense);
        gather
    }

    fn run_tmu(&self, cfg: SystemConfig, tmu: TmuConfig) -> TmuRun {
        let dense = self.run_dense_phase(cfg);
        let shards = partition_rows(&self.adj.ptrs, cfg.cores());
        let mut run = run_engines(cfg, tmu, &self.image, &self.outq_r, &shards, |_, rows| {
            self.engine(rows, tmu.lanes)
        });
        add_phase(&mut run.stats, &dense);
        run
    }

    fn verify(&self) -> Result<(), String> {
        let got = self.functional_shards(&partition_rows(&self.adj.ptrs, 8), 8);
        check_close("PageRank", &got, &self.reference, 1e-9)
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

    #[test]
    fn verify_against_reference() {
        PageRank::new(&gen::rmat(9, 4096, 17))
            .verify()
            .expect("TMU PageRank must match reference");
    }

    #[test]
    fn ranks_stay_a_distribution() {
        let w = PageRank::new(&gen::rmat(8, 2048, 3));
        // A PageRank step preserves non-negativity and boundedness.
        assert!(w.reference().iter().all(|&r| (0.0..=1.0).contains(&r)));
    }

    #[test]
    fn baseline_and_tmu_run() {
        let w = PageRank::new(&gen::rmat(8, 2048, 5));
        let base = w.run_baseline(small_cfg(2));
        let tmu = w.run_tmu(small_cfg(2), TmuConfig::paper());
        assert!(base.cycles > 0 && tmu.stats.cycles > 0);
        // Both versions pay the dense phase, so PR's speedup must not
        // exceed what the gather phase alone would give.
        assert!(tmu.stats.cycles > 0);
    }
}
