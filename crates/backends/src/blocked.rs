//! BlockedSve: a register-tiled BCSR software path.
//!
//! The SparseTIR / tensor-core style of sparse execution: extract dense
//! `4×8` tiles from the CSR fibers into a [`BcsrMatrix`], then run dense
//! micro-kernels over the stored tiles — one 512-bit SVE vector row per
//! tile row, no per-element gathers, no data-dependent inner branches.
//! The price is padding: the cost model charges every tile as if full
//! (loads, stores, and FLOPs over all `4×8` slots), while the functional
//! result honours the occupancy masks so stored entries — and only stored
//! entries — contribute, in ascending column order. That makes the
//! blocked path bit-identical to the reference results (the CSR fold
//! order is preserved exactly) while its *performance* degrades with tile
//! occupancy, which is the trade-off the four-way comparison measures.
//!
//! Two entry points: [`run_kernel`] for the Table 4 kernels it lowers
//! (`SpMV`, `SpMM`), and [`run_expr`] for compiled einsum expressions
//! whose iteration graph is SpMV-shaped (a dense output loop over a
//! single compressed walk against a dense vector). Both return `None` for
//! anything else: the backend decides its own support.

use std::collections::BTreeMap;
use std::sync::Arc;

use tmu_front::bindings::LevelData;
use tmu_front::{ExprWorkload, LoopKind};
use tmu_kernels::data::partition_rows;
use tmu_kernels::spmm::RANK;
use tmu_kernels::spmv::operand_vector;
use tmu_kernels::util::fold_deps;
use tmu_kernels::workload::run_cores;
use tmu_sim::{AddressMap, Deps, Machine, Region, RunStats, Site, SystemConfig};
use tmu_tensor::{BcsrMatrix, CsrMatrix};

/// Tile rows (one tile spans `BR` matrix rows).
pub const BR: usize = 4;
/// Tile columns (one 512-bit SVE vector of f64 per tile row).
pub const BC: usize = 8;

const S_PTR: u16 = 500;
const S_IDX: u16 = 501;
const S_VAL: u16 = 502;
const S_TSTORE: u16 = 503;
const S_BPTR: u16 = 504;
const S_BIDX: u16 = 505;
const S_TILE: u16 = 506;
const S_X: u16 = 507;
const S_STORE: u16 = 508;
const S_BR_T: u16 = 509;
const S_BR_G: u16 = 510;

/// One blocked-backend run: simulated stats plus the tiling telemetry
/// that `bench.json` rows carry as `blocked.tile_occupancy`.
#[derive(Debug, Clone)]
pub struct BlockedRun {
    /// Cycle-level stats from replaying the extraction + compute op
    /// streams through the simulated cores.
    pub stats: RunStats,
    /// Mean occupied fraction of the materialized tiles.
    pub tile_occupancy: f64,
    /// Number of materialized tiles.
    pub tiles: u64,
}

/// The deterministic SpMM dense right-hand side (the
/// `tmu_kernels::spmm::Spmm` formula).
fn spmm_b(cols: usize) -> Vec<f64> {
    (0..cols * RANK)
        .map(|x| 0.5 + (x % 73) as f64 / 73.0)
        .collect()
}

/// Functional blocked SpMV: `y = A·x` with the kernel's deterministic
/// vector, folded in ascending column order (bit-identical to
/// `Spmv::reference`). The fold starts at `-0.0` — the additive identity
/// `f64::sum()` uses — so rows with no stored entries match the
/// reference's `-0.0` exactly.
pub fn spmv_values(a: &CsrMatrix) -> Vec<f64> {
    let b = BcsrMatrix::from_csr(a, BR, BC);
    let x = operand_vector(a.cols());
    let mut y = vec![-0.0f64; a.rows()];
    for (i, yi) in y.iter_mut().enumerate() {
        b.for_each_row_entry(i, |c, v| *yi += v * x[c]);
    }
    y
}

/// Functional blocked SpMM: `Z = A·B` (row-major `rows × RANK`) with the
/// kernel's deterministic `B`, accumulated in ascending-`k` order
/// (bit-identical to `Spmm::reference`).
pub fn spmm_values(a: &CsrMatrix) -> Vec<f64> {
    let b = BcsrMatrix::from_csr(a, BR, BC);
    let bv = spmm_b(a.cols());
    let mut z = vec![0.0f64; a.rows() * RANK];
    for i in 0..a.rows() {
        b.for_each_row_entry(i, |k, v| {
            for r in 0..RANK {
                z[i * RANK + r] += v * bv[k * RANK + r];
            }
        });
    }
    z
}

/// The SpMV-shaped expression pattern [`run_expr`] recognizes: the CSR
/// operand rebuilt from the workload's bound storage, plus the bound
/// dense vector.
fn expr_operands(w: &ExprWorkload) -> Option<(CsrMatrix, Vec<f64>)> {
    let g = w.graph();
    if g.loops.len() != 2
        || w.expr().terms.len() != 1
        || g.loops[0].kind != LoopKind::Dense
        || g.loops[0].output_pos != Some(0)
        || !matches!(g.loops[1].kind, LoopKind::Walk | LoopKind::WalkVec)
        || g.loops[1].output_pos.is_some()
        || g.loops[1].drivers.len() != 1
    {
        return None;
    }
    let term = &w.expr().terms[0];
    if term.len() != 2 {
        return None;
    }
    let d = g.loops[1].drivers[0];
    if d.level != 1 {
        return None;
    }
    let a = w
        .bindings()
        .get(&term[d.factor].tensor, term[d.factor].span)
        .ok()?;
    let other = &term[1 - d.factor];
    let x = w.bindings().get(&other.tensor, other.span).ok()?;
    // A must be CSR-shaped (dense rows over compressed columns), the
    // other factor a rank-1 dense vector indexed by the walked variable.
    let (ptrs, idxs) = match (&a.levels[..], &x.levels[..]) {
        (
            [LevelData::Dense { .. }, LevelData::Compressed {
                ptrs: Some((p, _)),
                idxs: (ix, _),
            }],
            [LevelData::Dense { .. }],
        ) if other.indices[0].name == g.loops[1].var => (Arc::clone(p), Arc::clone(ix)),
        _ => return None,
    };
    let m = CsrMatrix::from_parts(
        a.dims[0],
        a.dims[1],
        ptrs.as_ref().clone(),
        idxs.as_ref().clone(),
        a.vals.0.as_ref().clone(),
    )
    .ok()?;
    Some((m, x.vals.0.as_ref().clone()))
}

/// Functional blocked evaluation of an SpMV-shaped expression, keyed like
/// the interpreter's oracle (first product assigns, later products
/// accumulate; untouched rows stay absent). `None` when the expression
/// does not match the blocked pattern.
pub fn expr_values(w: &ExprWorkload) -> Option<BTreeMap<Vec<u32>, f64>> {
    let (m, x) = expr_operands(w)?;
    let b = BcsrMatrix::from_csr(&m, BR, BC);
    let mut out = BTreeMap::new();
    for i in 0..m.rows() {
        let mut acc: Option<f64> = None;
        b.for_each_row_entry(i, |c, v| {
            let p = v * x[c];
            acc = Some(match acc {
                None => p,
                Some(a) => a + p,
            });
        });
        if let Some(v) = acc {
            out.insert(vec![i as u32], v);
        }
    }
    Some(out)
}

/// What the emitters read: the CSR source pointers, the blocked layout,
/// and every simulated region they live in.
struct Ctx<'a> {
    bcsr: &'a BcsrMatrix,
    csr_ptrs: &'a [u32],
    ptrs_r: Region,
    idxs_r: Region,
    vals_r: Region,
    bptrs_r: Region,
    bidx_r: Region,
    bmask_r: Region,
    bvals_r: Region,
    x_r: Region,
    y_r: Region,
    rank: usize,
}

/// Emits the tile-extraction pass for one block-row range: stream the
/// CSR fibers once (pointer loads + chunked index/value vector loads) and
/// scatter them into the tile store.
fn emit_extract<M: Machine + ?Sized>(m: &mut M, ctx: &Ctx, grs: (usize, usize), vl: usize) {
    let b = ctx.bcsr;
    let rows = b.rows();
    for gr in grs.0..grs.1 {
        for i in gr * BR..((gr + 1) * BR).min(rows) {
            let p0 = m.load(Site(S_PTR), ctx.ptrs_r.u32_at(i), 4, Deps::NONE);
            let p1 = m.load(Site(S_PTR), ctx.ptrs_r.u32_at(i + 1), 4, Deps::NONE);
            let bounds = Deps::on(&[p0, p1]);
            let (beg, end) = (ctx.csr_ptrs[i] as usize, ctx.csr_ptrs[i + 1] as usize);
            let mut p = beg;
            while p < end {
                let n = (end - p).min(vl);
                let iv = m.vec_load(Site(S_IDX), ctx.idxs_r.u32_at(p), (n * 4) as u32, bounds);
                let vv = m.vec_load(Site(S_VAL), ctx.vals_r.f64_at(p), (n * 8) as u32, bounds);
                // Slot addressing: block column + in-tile offset per chunk.
                m.int_op(Deps::on(&[iv, vv]));
                p += n;
                m.branch(Site(S_BR_T), p < end, bounds);
            }
        }
        // Write out the block row's materialized tiles.
        let (b0, b1) = b.block_row_range(gr);
        for blk in b0..b1 {
            let mut s = 0;
            while s < BR * BC {
                let n = (BR * BC - s).min(vl);
                m.store(
                    Site(S_TSTORE),
                    ctx.bvals_r.f64_at(blk * BR * BC + s),
                    (n * 8) as u32,
                    Deps::NONE,
                );
                s += n;
            }
            m.store(Site(S_TSTORE), ctx.bidx_r.u32_at(blk), 4, Deps::NONE);
            m.store(Site(S_TSTORE), ctx.bmask_r.at(blk, 8), 8, Deps::NONE);
        }
        m.branch(Site(S_BR_G), gr + 1 < grs.1, Deps::NONE);
    }
}

/// Emits the dense micro-kernel pass for one block-row range. Every tile
/// is charged in full — `2·BR·BC·rank` FLOPs and whole-tile loads — with
/// no per-element gathers and no data-dependent branches inside a tile.
fn emit_compute<M: Machine + ?Sized>(m: &mut M, ctx: &Ctx, grs: (usize, usize), vl: usize) {
    let b = ctx.bcsr;
    let rows = b.rows();
    for gr in grs.0..grs.1 {
        let q0 = m.load(Site(S_BPTR), ctx.bptrs_r.u32_at(gr), 4, Deps::NONE);
        let q1 = m.load(Site(S_BPTR), ctx.bptrs_r.u32_at(gr + 1), 4, Deps::NONE);
        let bounds = Deps::on(&[q0, q1]);
        let (b0, b1) = b.block_row_range(gr);
        for blk in b0..b1 {
            let gc = b.block_col(blk) as usize;
            let bi = m.load(Site(S_BIDX), ctx.bidx_r.u32_at(blk), 4, bounds);
            let mut tile_loads = vec![bi];
            let mut s = 0;
            while s < BR * BC {
                let n = (BR * BC - s).min(vl);
                tile_loads.push(m.vec_load(
                    Site(S_TILE),
                    ctx.bvals_r.f64_at(blk * BR * BC + s),
                    (n * 8) as u32,
                    bounds,
                ));
                s += n;
            }
            // Operand stripe: x[gc·BC ..][..BC] for SpMV, the BC rows of B
            // for SpMM — then the full-tile FMA.
            let mut o = 0;
            while o < BC * ctx.rank {
                let n = (BC * ctx.rank - o).min(vl);
                tile_loads.push(m.vec_load(
                    Site(S_X),
                    ctx.x_r.f64_at(gc * BC * ctx.rank + o),
                    (n * 8) as u32,
                    Deps::from(bi),
                ));
                o += n;
            }
            let deps = fold_deps(m, &tile_loads);
            m.vec_op((2 * BR * BC * ctx.rank) as u32, deps);
            m.branch(Site(S_BR_T), blk + 1 < b1, bounds);
        }
        // Store the finished output block rows.
        let lo = gr * BR;
        let hi = ((gr + 1) * BR).min(rows);
        let mut s = 0;
        while s < (hi - lo) * ctx.rank {
            let n = ((hi - lo) * ctx.rank - s).min(vl);
            m.store(
                Site(S_STORE),
                ctx.y_r.f64_at(lo * ctx.rank + s),
                (n * 8) as u32,
                Deps::NONE,
            );
            s += n;
        }
        m.branch(Site(S_BR_G), gr + 1 < grs.1, Deps::NONE);
    }
}

fn trace_tiles(b: &BcsrMatrix) {
    tmu_trace::with(|tr| {
        let c = tr.component("backends.blocked");
        // The tile extraction *is* a csr→bcsr format conversion; announce
        // it with the formats-crate kind indexes (csr = 0, bcsr = 2) so
        // trace consumers see one conversion event per re-marshaling.
        tr.event(c, 0, tmu_trace::EventKind::FormatConvert, 2);
        let mut seq = 1u64;
        let (grid_rows, _) = b.grid();
        for gr in 0..grid_rows {
            let (b0, b1) = b.block_row_range(gr);
            for blk in b0..b1 {
                let payload = ((gr as u64) << 32) | u64::from(b.block_col(blk));
                tr.event(c, seq, tmu_trace::EventKind::TileExtract, payload);
                seq += 1;
            }
        }
    });
}

/// Runs the blocked cost model for `a` against `cfg`'s cores: extraction
/// plus dense micro-kernels, block rows sharded across cores by stored
/// tile count. `rank` is 1 for SpMV and `RANK` for SpMM.
fn run_csr(a: &CsrMatrix, cfg: SystemConfig, rank: usize) -> BlockedRun {
    let bcsr = BcsrMatrix::from_csr(a, BR, BC);
    trace_tiles(&bcsr);
    let (grid_rows, grid_cols) = bcsr.grid();
    let mut map = AddressMap::new();
    let ctx = Ctx {
        bcsr: &bcsr,
        csr_ptrs: a.row_ptrs(),
        ptrs_r: map.alloc_elems("a.ptrs", a.rows() + 1, 4),
        idxs_r: map.alloc_elems("a.idxs", a.nnz().max(1), 4),
        vals_r: map.alloc_elems("a.vals", a.nnz().max(1), 8),
        bptrs_r: map.alloc_elems("blk.ptrs", grid_rows + 1, 4),
        bidx_r: map.alloc_elems("blk.cols", bcsr.num_blocks().max(1), 4),
        bmask_r: map.alloc_elems("blk.masks", bcsr.num_blocks().max(1), 8),
        bvals_r: map.alloc_elems("blk.vals", (bcsr.num_blocks() * BR * BC).max(1), 8),
        x_r: map.alloc_elems("x", (grid_cols * BC * rank).max(1), 8),
        y_r: map.alloc_elems("y", (a.rows() * rank).max(1), 8),
        rank,
    };
    let vl = cfg.core.sve_lanes();
    let shards = partition_rows(bcsr.ptrs(), cfg.cores());
    let stats = run_cores(cfg, &shards, |m, _, grs| {
        emit_extract(m, &ctx, grs, vl);
        emit_compute(m, &ctx, grs, vl);
    });
    BlockedRun {
        stats,
        tile_occupancy: bcsr.occupancy(),
        tiles: bcsr.num_blocks() as u64,
    }
}

/// Runs a Table 4 kernel through the blocked backend, or `None` when the
/// kernel has no blocked lowering (anything but `SpMV` and `SpMM`).
pub fn run_kernel(kernel: &str, a: &CsrMatrix, cfg: SystemConfig) -> Option<BlockedRun> {
    let rank = match kernel {
        "SpMV" => 1,
        "SpMM" => RANK,
        _ => return None,
    };
    Some(run_csr(a, cfg, rank))
}

/// Runs a compiled expression through the blocked backend, or `None` when
/// its iteration graph is not SpMV-shaped.
pub fn run_expr(w: &ExprWorkload, cfg: SystemConfig) -> Option<BlockedRun> {
    let (m, _) = expr_operands(w)?;
    Some(run_csr(&m, cfg, 1))
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
    fn spmv_values_match_reference_bitwise() {
        let a = gen::uniform(257, 192, 6, 17);
        let w = tmu_kernels::spmv::Spmv::new(&a);
        let got = spmv_values(&a);
        assert_eq!(got.len(), w.reference().len());
        for (i, (g, r)) in got.iter().zip(w.reference()).enumerate() {
            assert_eq!(g.to_bits(), r.to_bits(), "row {i}: {g} vs {r}");
        }
    }

    #[test]
    fn spmm_values_match_reference_bitwise() {
        let a = gen::uniform(123, 96, 5, 29);
        let w = tmu_kernels::spmm::Spmm::new(&a);
        let got = spmm_values(&a);
        for (i, (g, r)) in got.iter().zip(w.reference()).enumerate() {
            assert_eq!(g.to_bits(), r.to_bits(), "slot {i}");
        }
    }

    #[test]
    fn kernel_run_reports_stats_and_occupancy() {
        let a = gen::uniform(256, 256, 6, 3);
        let run = run_kernel("SpMV", &a, small_cfg(2)).expect("SpMV is lowered");
        assert!(run.stats.cycles > 0);
        assert!(run.tiles > 0);
        assert!(run.tile_occupancy > 0.0 && run.tile_occupancy <= 1.0);
        // The cost model charges full tiles: flops = 2 · tiles · BR · BC.
        assert_eq!(run.stats.total().flops, 2 * run.tiles * (BR * BC) as u64,);
    }

    #[test]
    fn spmm_run_charges_rank_flops() {
        let a = gen::uniform(64, 64, 4, 5);
        let run = run_kernel("SpMM", &a, small_cfg(1)).expect("SpMM is lowered");
        assert_eq!(
            run.stats.total().flops,
            2 * run.tiles * (BR * BC * RANK) as u64,
        );
    }

    #[test]
    fn unsupported_kernel_returns_none() {
        let a = gen::uniform(8, 8, 2, 1);
        assert!(run_kernel("PR", &a, small_cfg(1)).is_none());
    }

    #[test]
    fn expression_support_is_shape_sensitive() {
        let base = gen::uniform(96, 64, 4, 7);
        let spmv = ExprWorkload::new("y(i) = A(i,j:csr) * x(j)", &base).expect("compiles");
        assert!(expr_values(&spmv).is_some());
        let sum = ExprWorkload::new("Z(i,j) = A(i,j:dcsr) + B(i,j:dcsr)", &base).expect("compiles");
        assert!(expr_values(&sum).is_none());
    }

    #[test]
    fn expr_values_match_oracle_bitwise() {
        let base = gen::uniform(96, 64, 4, 13);
        let w = ExprWorkload::new("y(i) = A(i,j:csr) * x(j)", &base).expect("compiles");
        let got = expr_values(&w).expect("supported");
        let keys: std::collections::BTreeSet<_> =
            got.keys().chain(w.oracle().keys()).cloned().collect();
        for k in keys {
            let g = got.get(&k).copied().unwrap_or(0.0);
            let o = w.oracle().get(&k).copied().unwrap_or(0.0);
            assert_eq!(g.to_bits(), o.to_bits(), "key {k:?}");
        }
    }
}
