//! Triangle counting via masked sparse multiplication on the lower
//! triangle (the fused GraphBLAS formulation the paper evaluates).
//!
//! `count = Σ_i Σ_{j ∈ L[i]} |L[i] ∩ L[j]|` where `L` is the strictly
//! lower triangle of the symmetrized adjacency matrix. The baseline
//! intersects `L[i]` and `L[j]` with a two-pointer merge whose three-way
//! comparisons are maximally data-dependent — the frontend-stall-heavy
//! profile of §3. The TMU offloads the whole intersection: a conjunctive
//! merge layer emits only the matches, so the core merely counts (§7.1:
//! "the TMU … drastically reduce[s] the amount of compute to perform by
//! the core related to merging operations").
//!
//! TriangleCount computes in integer arithmetic, so it is excluded from
//! the Figure 12 rooflines, as in the paper.

use std::sync::Arc;

use tmu::{
    CallbackHandler, Event, LayerMode, MemImage, OutQEntry, Program, ProgramBuilder, StreamTy,
    TmuConfig,
};
use tmu_sim::{AddressMap, Deps, Machine, OpId, Region, RunStats, Site, SystemConfig, VecMachine};
use tmu_tensor::{CooMatrix, CsrMatrix};

use crate::data::{partition_rows, CsrOnSim};
use crate::workload::{run_cores, run_engines, run_functional, KernelKind, TmuRun, Workload};

const S_PTR: u16 = 180;
const S_JIDX: u16 = 181;
const S_JPTR: u16 = 182;
const S_AHEAD: u16 = 183;
const S_BHEAD: u16 = 184;
const S_CMP: u16 = 185;
const S_K_BR: u16 = 186;
const S_I_BR: u16 = 187;

const CB_MATCH: u32 = 0;

/// A triangle-counting workload bound to the simulator.
#[derive(Debug)]
pub struct TriangleCount {
    l: CsrOnSim,
    outq_r: Vec<Region>,
    image: Arc<MemImage>,
    reference: u64,
}

impl TriangleCount {
    /// Workload category.
    pub const KIND: KernelKind = KernelKind::MergeIntensive;

    /// Binds graph `adj` (symmetrized, lower triangle extracted).
    pub fn new(adj: &CsrMatrix) -> Self {
        // Symmetrize the structure, then take the strict lower triangle.
        let mut triplets = Vec::new();
        for i in 0..adj.rows() {
            for (j, _) in adj.row(i) {
                let (a, b) = (i as u32, j);
                if a != b {
                    triplets.push((a.max(b), a.min(b), 1.0));
                }
            }
        }
        let l_mat = CsrMatrix::from_coo(
            &CooMatrix::from_triplets(adj.rows(), adj.rows(), triplets).expect("in range"),
        );
        let reference = reference(&l_mat);
        let mut map = AddressMap::new();
        let mut image = MemImage::new();
        let l = CsrOnSim::bind(&mut map, &mut image, "L", &l_mat);
        let outq_r = (0..8)
            .map(|c| map.alloc(&format!("outq{c}"), 1 << 20))
            .collect();
        Self {
            l,
            outq_r,
            image: Arc::new(image),
            reference,
        }
    }

    /// The reference triangle count.
    pub fn reference(&self) -> u64 {
        self.reference
    }

    /// Shared memory image (for standalone engine experiments).
    pub fn image_handle(&self) -> Arc<MemImage> {
        Arc::clone(&self.image)
    }

    /// outQ base address of a core.
    pub fn outq_base(&self, core: usize) -> u64 {
        self.outq_r[core].base
    }

    /// The conjunctive-merge mapping of a row shard.
    fn engine(&self, rows: (usize, usize)) -> (Program, TcHandler) {
        (self.build_program(rows), TcHandler::default())
    }

    /// Builds the Table 4 TriangleCount TMU program for a row range.
    pub fn build_program(&self, rows: (usize, usize)) -> Program {
        let mut b = ProgramBuilder::new();
        let l0 = b.layer(LayerMode::Single);
        let itu = b.dns_fbrt(l0, rows.0 as i64, rows.1 as i64, 1);
        let lp_b = b.mem_stream(itu, self.l.ptrs_r.base, 4, StreamTy::Index);
        let lp_e = b.mem_stream(itu, self.l.ptrs_r.base + 4, 4, StreamTy::Index);

        let l1 = b.layer(LayerMode::Single);
        let jtu = b.rng_fbrt(l1, lp_b, lp_e, 0, 1);
        let j = b.mem_stream(jtu, self.l.idxs_r.base, 4, StreamTy::Index);
        let jp_b = b.mem_stream_indexed(jtu, self.l.ptrs_r.base, 4, StreamTy::Index, j);
        let jp_e = b.mem_stream_indexed(jtu, self.l.ptrs_r.base + 4, 4, StreamTy::Index, j);
        // fwd: carry L[i]'s bounds rightward (the Table 4 `fwd` entry).
        let ip_b = b.fwd_stream(jtu, lp_b);
        let ip_e = b.fwd_stream(jtu, lp_e);

        let l2 = b.layer(LayerMode::ConjMrg);
        let a_tu = b.rng_fbrt(l2, ip_b, ip_e, 0, 1);
        let ka = b.mem_stream(a_tu, self.l.idxs_r.base, 4, StreamTy::Index);
        b.set_key(a_tu, ka);
        let b_tu = b.rng_fbrt(l2, jp_b, jp_e, 0, 1);
        let kb = b.mem_stream(b_tu, self.l.idxs_r.base, 4, StreamTy::Index);
        b.set_key(b_tu, kb);

        let avg = self.l.nnz() as f64 / self.l.rows.max(1) as f64;
        b.set_weight(l0, 1.0);
        b.set_weight(l1, avg.max(1.0));
        b.set_weight(l2, (avg * avg).max(2.0));
        let keys = b.vec_operand(l2, &[ka, kb]);
        b.callback(l2, Event::Ite, CB_MATCH, &[keys]);
        b.build().expect("TriangleCount program is well-formed")
    }
}

/// Two-pointer intersection baseline for a row shard.
fn emit_baseline<M: Machine + ?Sized>(m: &mut M, l: &CsrOnSim, rows: (usize, usize)) {
    let (r0, r1) = rows;
    for i in r0..r1 {
        let ip0 = m.load(Site(S_PTR), l.ptrs_r.u32_at(i), 4, Deps::NONE);
        let ip1 = m.load(Site(S_PTR), l.ptrs_r.u32_at(i + 1), 4, Deps::NONE);
        let (ibeg, iend) = (l.ptrs[i] as usize, l.ptrs[i + 1] as usize);
        for p in ibeg..iend {
            let jld = m.load(Site(S_JIDX), l.idxs_r.u32_at(p), 4, Deps::on(&[ip0, ip1]));
            let j = l.idxs[p] as usize;
            let jp0 = m.load(Site(S_JPTR), l.ptrs_r.u32_at(j), 4, Deps::from(jld));
            let jp1 = m.load(Site(S_JPTR), l.ptrs_r.u32_at(j + 1), 4, Deps::from(jld));
            let (mut a, enda) = (ibeg, iend);
            let (mut bq, endb) = (l.ptrs[j] as usize, l.ptrs[j + 1] as usize);
            // Two-pointer merge: each step loads both heads and takes two
            // data-dependent branches.
            while a < enda && bq < endb {
                let ha = m.load(Site(S_AHEAD), l.idxs_r.u32_at(a), 4, Deps::NONE);
                let hb = m.load(Site(S_BHEAD), l.idxs_r.u32_at(bq), 4, Deps::on(&[jp0, jp1]));
                let ka = l.idxs[a];
                let kb = l.idxs[bq];
                m.branch(Site(S_CMP), ka < kb, Deps::on(&[ha, hb]));
                m.branch(Site(S_CMP), ka > kb, Deps::on(&[ha, hb]));
                if ka == kb {
                    m.int_op(Deps::on(&[ha, hb])); // count++
                    a += 1;
                    bq += 1;
                } else if ka < kb {
                    a += 1;
                } else {
                    bq += 1;
                }
            }
            m.branch(Site(S_K_BR), p + 1 < iend, Deps::NONE);
        }
        m.branch(Site(S_I_BR), i + 1 < r1, Deps::NONE);
    }
}

/// Match callback: one counter increment per emitted intersection.
#[derive(Debug, Default)]
pub struct TcHandler {
    /// Triangles counted.
    pub count: u64,
}

impl CallbackHandler for TcHandler {
    fn handle(&mut self, entry: &OutQEntry, entry_load: OpId, m: &mut VecMachine) {
        assert_eq!(entry.callback, CB_MATCH);
        self.count += 1;
        m.int_op(Deps::from(entry_load));
    }
}

fn reference(l: &CsrMatrix) -> u64 {
    let mut count = 0u64;
    for i in 0..l.rows() {
        let row_i: Vec<u32> = l.row(i).map(|(c, _)| c).collect();
        for &j in &row_i {
            let row_j: Vec<u32> = l.row(j as usize).map(|(c, _)| c).collect();
            let (mut a, mut b) = (0usize, 0usize);
            while a < row_i.len() && b < row_j.len() {
                match row_i[a].cmp(&row_j[b]) {
                    std::cmp::Ordering::Equal => {
                        count += 1;
                        a += 1;
                        b += 1;
                    }
                    std::cmp::Ordering::Less => a += 1,
                    std::cmp::Ordering::Greater => b += 1,
                }
            }
        }
    }
    count
}

impl Workload for TriangleCount {
    fn name(&self) -> &'static str {
        "TC"
    }

    fn kind(&self) -> KernelKind {
        Self::KIND
    }

    fn run_baseline(&self, cfg: SystemConfig) -> RunStats {
        let shards = partition_rows(&self.l.ptrs, cfg.cores());
        run_cores(cfg, &shards, |m, _, rows| emit_baseline(m, &self.l, rows))
    }

    fn run_tmu(&self, cfg: SystemConfig, tmu: TmuConfig) -> TmuRun {
        let shards = partition_rows(&self.l.ptrs, cfg.cores());
        run_engines(cfg, tmu, &self.image, &self.outq_r, &shards, |_, rows| {
            self.engine(rows)
        })
    }

    fn verify(&self) -> Result<(), String> {
        let shards = partition_rows(&self.l.ptrs, 8);
        let handlers = run_functional(&self.image, &shards, |_, rows| self.engine(rows));
        let count: u64 = handlers.iter().map(|h| h.count).sum();
        if count == self.reference {
            Ok(())
        } else {
            Err(format!(
                "TriangleCount: got {count}, want {}",
                self.reference
            ))
        }
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
    fn known_small_graph() {
        // A 4-clique has C(4,3) = 4 triangles.
        let mut triplets = Vec::new();
        for i in 0..4u32 {
            for j in 0..4u32 {
                if i != j {
                    triplets.push((i, j, 1.0));
                }
            }
        }
        let adj = CsrMatrix::from_coo(&CooMatrix::from_triplets(4, 4, triplets).expect("in range"));
        let w = TriangleCount::new(&adj);
        assert_eq!(w.reference(), 4);
        w.verify().expect("clique verifies");
    }

    #[test]
    fn verify_on_powerlaw_graph() {
        TriangleCount::new(&gen::rmat(9, 4096, 13))
            .verify()
            .expect("TMU TC must match reference");
    }

    #[test]
    fn baseline_is_branch_dominated() {
        let w = TriangleCount::new(&gen::rmat(9, 4096, 13));
        let stats = w.run_baseline(small_cfg(2));
        let t = stats.total();
        assert!(
            t.branches * 5 > t.committed * 2,
            "TC baseline must be branch-dominated: {} of {}",
            t.branches,
            t.committed
        );
    }

    #[test]
    fn tmu_offloads_merging() {
        let w = TriangleCount::new(&gen::rmat(9, 4096, 13));
        let base = w.run_baseline(small_cfg(2));
        let run = w.run_tmu(small_cfg(2), TmuConfig::paper());
        // The core's committed op count must collapse: it only counts.
        assert!(
            run.stats.total().committed * 3 < base.total().committed,
            "TMU core work {} vs baseline {}",
            run.stats.total().committed,
            base.total().committed
        );
    }
}
