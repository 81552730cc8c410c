//! Sparse Tensor Contraction, `Z_{ij} = Σ_{kl} A_{ikl} · B_{lkj}`
//! (CSF × CSF, symbolic phase).
//!
//! Follows the Sparta element-wise formulation the paper evaluates: for
//! every non-zero `A(i,k,l)` the matching `B(l,k,·)` fiber is probed and
//! its `j` coordinates inserted into the output row's structure. As in the
//! paper, only the **symbolic phase** is executed (counting the distinct
//! output coordinates), "to limit simulation time".
//!
//! `B` is stored with a dense `l` root level (pointer-indexable) over
//! compressed `k` and `j` levels. Probing `k` inside `B`'s fiber is a
//! merge: the baseline scans with data-dependent branches; the TMU
//! intersects a single-element fiber (`IdxFbrT(beg=k, size=1)`) with the
//! `B(l,·)` k-fiber in a conjunctive-merge layer (the Table 4 SpTC row).

use std::sync::Arc;

use tmu::{
    CallbackHandler, Event, LayerMode, MemImage, OutQEntry, Program, ProgramBuilder, StreamTy,
    TmuConfig,
};
use tmu_sim::{AddressMap, Deps, Machine, OpId, Region, RunStats, Site, SystemConfig, VecMachine};
use tmu_tensor::{CooTensor, CsfTensor};

use crate::data::{partition_flat, CsfOnSim};
use crate::workload::{run_cores, run_engines, run_functional, KernelKind, TmuRun, Workload};

const S_APTR: u16 = 300;
const S_AKIDX: u16 = 301;
const S_ALIDX: u16 = 302;
const S_BLPTR: u16 = 303;
const S_BKIDX: u16 = 304;
const S_BKPTR: u16 = 305;
const S_BJIDX: u16 = 306;
const S_SCAN_BR: u16 = 307;
const S_BIT_LD: u16 = 308;
const S_BIT_ST: u16 = 309;
const S_J_BR: u16 = 310;
const S_WALK_BR: u16 = 311;

const CB_I: u32 = 0;
const CB_J: u32 = 1;

/// An SpTC (symbolic) workload bound to the simulator.
#[derive(Debug)]
pub struct Sptc {
    a: CsfOnSim,
    b_lptr: Arc<Vec<u32>>,
    b_kidx: Arc<Vec<u32>>,
    b_kptr: Arc<Vec<u32>>,
    b_jidx: Arc<Vec<u32>>,
    b_lptr_r: Region,
    b_kidx_r: Region,
    b_kptr_r: Region,
    b_jidx_r: Region,
    bitmap_r: Region,
    outq_r: Vec<Region>,
    image: Arc<MemImage>,
    dim_j: usize,
    reference: u64,
}

impl Sptc {
    /// Workload category.
    pub const KIND: KernelKind = KernelKind::MergeIntensive;

    /// Binds tensors `a` (i,k,l) and `b` (l,k,j) for the symbolic phase.
    pub fn new(a_t: &CooTensor, b_t: &CooTensor) -> Self {
        assert_eq!(a_t.order(), 3, "SpTC contracts order-3 tensors");
        assert_eq!(b_t.order(), 3, "SpTC contracts order-3 tensors");
        assert_eq!(a_t.dims()[2], b_t.dims()[0], "l dimensions must agree");
        assert_eq!(a_t.dims()[1], b_t.dims()[1], "k dimensions must agree");
        let a_csf = CsfTensor::from_coo(a_t);
        let dim_l = b_t.dims()[0];
        let dim_j = b_t.dims()[2];

        // Dense-root B structure: lptr[l..l+1] → k nodes; kptr → j leaves.
        let b_csf = CsfTensor::from_coo(b_t);
        let mut b_lptr = vec![0u32; dim_l + 1];
        let mut b_kidx = Vec::new();
        let mut b_kptr = vec![0u32];
        let mut b_jidx = Vec::new();
        {
            // Walk the CSF of B (root = l) and re-emit with a dense root.
            let mut per_l: Vec<Vec<(u32, Vec<u32>)>> = vec![Vec::new(); dim_l];
            for ln in 0..b_csf.num_nodes(0) {
                let l = b_csf.idxs(0)[ln] as usize;
                let (kb, ke) = b_csf.child_range(0, ln);
                for kn in kb..ke {
                    let k = b_csf.idxs(1)[kn];
                    let (jb, je) = b_csf.child_range(1, kn);
                    per_l[l].push((k, b_csf.idxs(2)[jb..je].to_vec()));
                }
            }
            for l in 0..dim_l {
                for (k, js) in &per_l[l] {
                    b_kidx.push(*k);
                    b_jidx.extend_from_slice(js);
                    b_kptr.push(b_jidx.len() as u32);
                }
                b_lptr[l + 1] = b_kidx.len() as u32;
            }
        }

        // Reference symbolic count: distinct (i, j) pairs.
        let mut pairs = std::collections::HashSet::new();
        for (coord, _) in a_t.iter() {
            let (i, k, l) = (coord[0], coord[1], coord[2] as usize);
            let (kb, ke) = (b_lptr[l] as usize, b_lptr[l + 1] as usize);
            for kn in kb..ke {
                if b_kidx[kn] == k {
                    let (jb, je) = (b_kptr[kn] as usize, b_kptr[kn + 1] as usize);
                    for &j in &b_jidx[jb..je] {
                        pairs.insert((i, j));
                    }
                }
            }
        }
        let reference = pairs.len() as u64;

        let mut map = AddressMap::new();
        let mut image = MemImage::new();
        let a = CsfOnSim::bind(&mut map, &mut image, "A", &a_csf);
        let b_lptr = Arc::new(b_lptr);
        let b_kidx = Arc::new(b_kidx);
        let b_kptr = Arc::new(b_kptr);
        let b_jidx = Arc::new(b_jidx);
        let b_lptr_r = map.alloc_elems("B.lptr", b_lptr.len(), 4);
        let b_kidx_r = map.alloc_elems("B.kidx", b_kidx.len().max(1), 4);
        let b_kptr_r = map.alloc_elems("B.kptr", b_kptr.len(), 4);
        let b_jidx_r = map.alloc_elems("B.jidx", b_jidx.len().max(1), 4);
        image.bind_u32(b_lptr_r, Arc::clone(&b_lptr));
        image.bind_u32(b_kidx_r, Arc::clone(&b_kidx));
        image.bind_u32(b_kptr_r, Arc::clone(&b_kptr));
        image.bind_u32(b_jidx_r, Arc::clone(&b_jidx));
        // Per-core output bitmaps (one row's worth of u64 words each).
        let bitmap_r = map.alloc_elems("bitmap", 8 * dim_j.div_ceil(64).max(1), 8);
        let outq_r = (0..8)
            .map(|c| map.alloc(&format!("outq{c}"), 1 << 20))
            .collect();
        Self {
            a,
            b_lptr,
            b_kidx,
            b_kptr,
            b_jidx,
            b_lptr_r,
            b_kidx_r,
            b_kptr_r,
            b_jidx_r,
            bitmap_r,
            outq_r,
            image: Arc::new(image),
            dim_j,
            reference,
        }
    }

    /// The reference symbolic output size (distinct `(i,j)` pairs).
    pub fn reference(&self) -> u64 {
        self.reference
    }

    fn shards(&self, cores: usize) -> Vec<(usize, usize)> {
        partition_flat(self.a.idxs[0].len(), cores)
    }

    /// The symbolic-phase mapping of core `core`'s root-node shard.
    fn engine(&self, core: usize, roots: (usize, usize)) -> (Program, SptcHandler) {
        let handler = SptcHandler::new(self.bitmap_r, core, self.dim_j);
        (self.build_program(roots), handler)
    }

    /// Builds the Table 4 SpTC TMU program for a root-node range.
    pub fn build_program(&self, roots: (usize, usize)) -> Program {
        let mut bld = ProgramBuilder::new();
        // Layer 0: A's i root.
        let l0 = bld.layer(LayerMode::Single);
        let itu = bld.dns_fbrt(l0, roots.0 as i64, roots.1 as i64, 1);
        let i_idx = bld.mem_stream(itu, self.a.idxs_r[0].base, 4, StreamTy::Index);
        let ap0b = bld.mem_stream(itu, self.a.ptrs_r[0].base, 4, StreamTy::Index);
        let ap0e = bld.mem_stream(itu, self.a.ptrs_r[0].base + 4, 4, StreamTy::Index);

        // Layer 1: A's k fibers.
        let l1 = bld.layer(LayerMode::Single);
        let ktu = bld.rng_fbrt(l1, ap0b, ap0e, 0, 1);
        let k_idx = bld.mem_stream(ktu, self.a.idxs_r[1].base, 4, StreamTy::Index);
        let ap1b = bld.mem_stream(ktu, self.a.ptrs_r[1].base, 4, StreamTy::Index);
        let ap1e = bld.mem_stream(ktu, self.a.ptrs_r[1].base + 4, 4, StreamTy::Index);

        // Layer 2: A's l leaves + the chained B(l) bounds.
        let l2 = bld.layer(LayerMode::Single);
        let ltu = bld.rng_fbrt(l2, ap1b, ap1e, 0, 1);
        let l_idx = bld.mem_stream(ltu, self.a.idxs_r[2].base, 4, StreamTy::Index);
        let blb = bld.mem_stream_indexed(ltu, self.b_lptr_r.base, 4, StreamTy::Index, l_idx);
        let ble = bld.mem_stream_indexed(ltu, self.b_lptr_r.base + 4, 4, StreamTy::Index, l_idx);
        let k_fwd = bld.fwd_stream(ltu, k_idx);

        // Layer 3: conjunctive probe of B(l)'s k fiber against {k}.
        let l3 = bld.layer(LayerMode::ConjMrg);
        let probe = bld.idx_fbrt(l3, k_fwd, 1, 0, 1); // the 1-element fiber {k}
        let _ = probe; // key defaults to its ite stream, whose value is k
        let bk_tu = bld.rng_fbrt(l3, blb, ble, 0, 1);
        bld.bind_parent(bk_tu, 0);
        let bk = bld.mem_stream(bk_tu, self.b_kidx_r.base, 4, StreamTy::Index);
        let bq_b = bld.mem_stream(bk_tu, self.b_kptr_r.base, 4, StreamTy::Index);
        let bq_e = bld.mem_stream(bk_tu, self.b_kptr_r.base + 4, 4, StreamTy::Index);
        bld.set_key(bk_tu, bk);

        // Layer 4: B's j leaves of the matched fiber.
        let l4 = bld.layer(LayerMode::Single);
        let jtu = bld.rng_fbrt(l4, bq_b, bq_e, 0, 1);
        bld.bind_parent(jtu, 1);
        let j_idx = bld.mem_stream(jtu, self.b_jidx_r.base, 4, StreamTy::Index);

        let nnz = self.a.nnz() as f64;
        let roots_n = self.a.idxs[0].len().max(1) as f64;
        bld.set_weight(l0, 1.0);
        bld.set_weight(l1, (self.a.idxs[1].len() as f64 / roots_n).max(1.0));
        bld.set_weight(l2, (nnz / roots_n).max(1.0));
        bld.set_weight(l3, (nnz / roots_n * 2.0).max(2.0));
        bld.set_weight(l4, (nnz / roots_n * 2.0).max(2.0));

        let i_op = bld.scalar_operand(l0, i_idx);
        bld.callback(l0, Event::Ite, CB_I, &[i_op]);
        let j_op = bld.scalar_operand(l4, j_idx);
        bld.callback(l4, Event::Ite, CB_J, &[j_op]);
        bld.build().expect("SpTC program is well-formed")
    }
}

fn emit_baseline<M: Machine + ?Sized>(m: &mut M, sp: &Sptc, roots: (usize, usize), core: usize) {
    let a = &sp.a;
    let words = sp.dim_j.div_ceil(64);
    let mut bitmap = vec![0u64; words];
    let bitmap_base = core * words;
    let (n0, n1) = roots;
    for n in n0..n1 {
        // New output row: reset the bitmap (cost amortized: one store per
        // word touched in the previous row, already counted at set time).
        bitmap.iter_mut().for_each(|w| *w = 0);
        let r0 = m.load(Site(S_APTR), a.ptrs_r[0].u32_at(n), 4, Deps::NONE);
        let r1 = m.load(Site(S_APTR), a.ptrs_r[0].u32_at(n + 1), 4, Deps::NONE);
        let (kb, ke) = (a.ptrs[0][n] as usize, a.ptrs[0][n + 1] as usize);
        for kn in kb..ke {
            let kld = m.load(
                Site(S_AKIDX),
                a.idxs_r[1].u32_at(kn),
                4,
                Deps::on(&[r0, r1]),
            );
            let q0 = m.load(Site(S_APTR), a.ptrs_r[1].u32_at(kn), 4, Deps::on(&[r0, r1]));
            let q1 = m.load(
                Site(S_APTR),
                a.ptrs_r[1].u32_at(kn + 1),
                4,
                Deps::on(&[r0, r1]),
            );
            let k = a.idxs[1][kn];
            let (lb, le) = (a.ptrs[1][kn] as usize, a.ptrs[1][kn + 1] as usize);
            for ln in lb..le {
                let lld = m.load(
                    Site(S_ALIDX),
                    a.idxs_r[2].u32_at(ln),
                    4,
                    Deps::on(&[q0, q1]),
                );
                let l = a.idxs[2][ln] as usize;
                let bl0 = m.load(Site(S_BLPTR), sp.b_lptr_r.u32_at(l), 4, Deps::from(lld));
                let bl1 = m.load(Site(S_BLPTR), sp.b_lptr_r.u32_at(l + 1), 4, Deps::from(lld));
                // Scan B(l)'s k fiber for k (merge-style, branch per step).
                let (mut s, se) = (sp.b_lptr[l] as usize, sp.b_lptr[l + 1] as usize);
                let mut matched = None;
                while s < se {
                    let bkld = m.load(
                        Site(S_BKIDX),
                        sp.b_kidx_r.u32_at(s),
                        4,
                        Deps::on(&[bl0, bl1]),
                    );
                    let bk = sp.b_kidx[s];
                    m.branch(Site(S_SCAN_BR), bk < k, Deps::on(&[bkld, kld]));
                    if bk == k {
                        matched = Some(s);
                        break;
                    }
                    if bk > k {
                        break;
                    }
                    s += 1;
                }
                if let Some(kn_b) = matched {
                    let j0 = m.load(Site(S_BKPTR), sp.b_kptr_r.u32_at(kn_b), 4, Deps::NONE);
                    let j1 = m.load(Site(S_BKPTR), sp.b_kptr_r.u32_at(kn_b + 1), 4, Deps::NONE);
                    let (jb, je) = (sp.b_kptr[kn_b] as usize, sp.b_kptr[kn_b + 1] as usize);
                    for jp in jb..je {
                        let jld = m.load(
                            Site(S_BJIDX),
                            sp.b_jidx_r.u32_at(jp),
                            4,
                            Deps::on(&[j0, j1]),
                        );
                        let j = sp.b_jidx[jp] as usize;
                        let word = j / 64;
                        // Bitmap insert: load word, or, store.
                        let w = m.load(
                            Site(S_BIT_LD),
                            sp.bitmap_r.f64_at(bitmap_base + word),
                            8,
                            Deps::from(jld),
                        );
                        let orop = m.int_op(Deps::from(w));
                        m.store(
                            Site(S_BIT_ST),
                            sp.bitmap_r.f64_at(bitmap_base + word),
                            8,
                            Deps::from(orop),
                        );
                        bitmap[word] |= 1 << (j % 64);
                        m.branch(Site(S_J_BR), jp + 1 < je, Deps::NONE);
                    }
                }
                m.branch(Site(S_WALK_BR), ln + 1 < le, Deps::NONE);
            }
            m.branch(Site(S_WALK_BR), kn + 1 < ke, Deps::NONE);
        }
    }
}

/// Symbolic-phase callbacks: track the current output row, insert `j`s.
#[derive(Debug)]
pub struct SptcHandler {
    bitmap_r: Region,
    bitmap_base: usize,
    bitmap: Vec<u64>,
    /// Distinct output coordinates counted.
    pub count: u64,
}

impl SptcHandler {
    /// Handler using core `core`'s bitmap slice for `dim_j` columns.
    pub fn new(bitmap_r: Region, core: usize, dim_j: usize) -> Self {
        let words = dim_j.div_ceil(64);
        Self {
            bitmap_r,
            bitmap_base: core * words,
            bitmap: vec![0; words],
            count: 0,
        }
    }
}

impl CallbackHandler for SptcHandler {
    fn handle(&mut self, entry: &OutQEntry, entry_load: OpId, m: &mut VecMachine) {
        match entry.callback {
            CB_I => {
                self.bitmap.iter_mut().for_each(|w| *w = 0);
            }
            CB_J => {
                let j = entry.operands[0].as_index() as usize;
                let word = j / 64;
                let bit = 1u64 << (j % 64);
                let w = m.load(
                    Site(S_BIT_LD),
                    self.bitmap_r.f64_at(self.bitmap_base + word),
                    8,
                    Deps::from(entry_load),
                );
                let orop = m.int_op(Deps::from(w));
                m.store(
                    Site(S_BIT_ST),
                    self.bitmap_r.f64_at(self.bitmap_base + word),
                    8,
                    Deps::from(orop),
                );
                if self.bitmap[word] & bit == 0 {
                    self.bitmap[word] |= bit;
                    self.count += 1;
                }
            }
            other => panic!("SpTC: unexpected callback {other}"),
        }
    }
}

impl Workload for Sptc {
    fn name(&self) -> &'static str {
        "SpTC"
    }

    fn kind(&self) -> KernelKind {
        Self::KIND
    }

    fn run_baseline(&self, cfg: SystemConfig) -> RunStats {
        run_cores(cfg, &self.shards(cfg.cores()), |m, core, roots| {
            emit_baseline(m, self, roots, core);
        })
    }

    fn run_tmu(&self, cfg: SystemConfig, tmu: TmuConfig) -> TmuRun {
        let shards = self.shards(cfg.cores());
        run_engines(
            cfg,
            tmu,
            &self.image,
            &self.outq_r,
            &shards,
            |core, roots| self.engine(core, roots),
        )
    }

    fn verify(&self) -> Result<(), String> {
        let handlers = run_functional(&self.image, &self.shards(8), |core, roots| {
            self.engine(core, roots)
        });
        let count: u64 = handlers.iter().map(|h| h.count).sum();
        if count == self.reference {
            Ok(())
        } else {
            Err(format!("SpTC: got {count}, want {}", self.reference))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmu_sim::{CoreConfig, MemSysConfig};
    use tmu_tensor::gen;

    fn workload() -> Sptc {
        let a = gen::random_tensor(&[24, 12, 16], 600, 81);
        let b = gen::random_tensor(&[16, 12, 20], 700, 82);
        Sptc::new(&a, &b)
    }

    #[test]
    fn verify_against_reference() {
        let w = workload();
        assert!(w.reference() > 0, "fixture must produce output");
        w.verify().expect("TMU SpTC must match reference");
    }

    #[test]
    fn disjoint_tensors_produce_empty_output() {
        // A uses only l ∈ {0}, B only l ∈ {1}: no contraction matches.
        let a = CooTensor::from_entries(
            vec![2, 2, 2],
            vec![(vec![0, 0, 0], 1.0), (vec![1, 1, 0], 2.0)],
        )
        .expect("ok");
        let b = CooTensor::from_entries(vec![2, 2, 3], vec![(vec![1, 0, 2], 1.0)]).expect("ok");
        let w = Sptc::new(&a, &b);
        assert_eq!(w.reference(), 0);
        w.verify().expect("empty intersection verifies");
    }

    #[test]
    fn baseline_and_tmu_run() {
        let w = workload();
        let cfg = SystemConfig {
            core: CoreConfig::neoverse_n1_like(),
            mem: MemSysConfig::table5(2),
        };
        let base = w.run_baseline(cfg);
        let run = w.run_tmu(cfg, TmuConfig::paper());
        assert!(base.cycles > 0 && run.stats.cycles > 0);
    }
}
