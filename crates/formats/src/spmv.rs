//! Per-format SpMV: functional folds pinned to the kernel reference and
//! op-stream cost models for the autotuner's ablation.
//!
//! The functional half ([`spmv_values`]) computes `y = A·x` *through each
//! physical layout's own traversal* — CSR fibers, DCSR stored rows, BCSR
//! masked tiles, banded delta decode, hashed sorted slots — folding
//! products in ascending column order from the `-0.0` additive identity,
//! so every format is bit-identical to `tmu_kernels::spmv::Spmv`'s
//! reference by construction *and* by test.
//!
//! The cost half ([`run_spmv`]) replays a per-format op stream through
//! the simulated cores: CSR and DCSR pay the per-element gather chain,
//! banded trades it for statically-addressed band-window loads (no
//! data-dependent addresses, whole window touched), and BCSR charges
//! whole tiles (the blocked backend's full-tile model). Hashed has no
//! row-streamed SpMV — its slot order is hash order, and producing an
//! ordered stream *is* the hashed→csr conversion — so [`run_spmv`]
//! returns `None` for it.

use tmu_kernels::data::partition_rows;
use tmu_kernels::spmv::operand_vector;
use tmu_kernels::util::fold_deps;
use tmu_kernels::workload::run_cores;
use tmu_sim::{AddressMap, Deps, Machine, OpId, Region, RunStats, Site, SystemConfig};
use tmu_tensor::{BcsrMatrix, CsrMatrix, DcsrMatrix};

use crate::banded::BandedMatrix;
use crate::hashed::HashedMatrix;
use crate::{FormatKind, BLOCK_COLS, BLOCK_ROWS};

const S_PTR: u16 = 600;
const S_IDX: u16 = 601;
const S_VAL: u16 = 602;
const S_GATHER: u16 = 603;
const S_XSEG: u16 = 604;
const S_STORE: u16 = 605;
const S_BR_I: u16 = 606;
const S_BR_O: u16 = 607;
const S_ROWIDX: u16 = 608;
const S_TILE: u16 = 609;

/// `y = A·x` through `kind`'s own traversal, bit-identical to the SpMV
/// kernel reference (fold from `-0.0` in ascending column order).
pub fn spmv_values(kind: FormatKind, a: &CsrMatrix) -> Vec<f64> {
    let x = operand_vector(a.cols());
    let mut y = vec![-0.0f64; a.rows()];
    match kind {
        FormatKind::Csr => {
            for (i, yi) in y.iter_mut().enumerate() {
                for (c, v) in a.row(i) {
                    *yi += v * x[c as usize];
                }
            }
        }
        FormatKind::Dcsr => {
            let d = DcsrMatrix::from_csr(a);
            for s in 0..d.num_stored_rows() {
                let i = d.row_idxs()[s] as usize;
                let (b, e) = (d.row_ptrs()[s] as usize, d.row_ptrs()[s + 1] as usize);
                for p in b..e {
                    y[i] += d.vals()[p] * x[d.col_idxs()[p] as usize];
                }
            }
        }
        FormatKind::Bcsr => {
            let b = BcsrMatrix::from_csr(a, BLOCK_ROWS, BLOCK_COLS);
            for (i, yi) in y.iter_mut().enumerate() {
                b.for_each_row_entry(i, |c, v| *yi += v * x[c]);
            }
        }
        FormatKind::Banded => {
            let b = BandedMatrix::from_csr(a);
            for (i, yi) in y.iter_mut().enumerate() {
                for (c, v) in b.row(i) {
                    *yi += v * x[c as usize];
                }
            }
        }
        FormatKind::Hashed => {
            let h = HashedMatrix::from_csr(a);
            for (i, yi) in y.iter_mut().enumerate() {
                for (c, v) in h.row_sorted(i) {
                    *yi += v * x[c as usize];
                }
            }
        }
    }
    y
}

/// One layout's arrays and simulated regions, as the op-stream emitters
/// see them.
struct Ctx<'a> {
    ptrs: &'a [u32],
    /// Decoded column per stored position (drives gather/segment
    /// addresses so the cache model sees the real access pattern; the
    /// block column per stored tile for the tile-addressed BCSR stream).
    cols: &'a [u32],
    ptrs_r: Region,
    idxs_r: Region,
    vals_r: Region,
    x_r: Region,
    y_r: Region,
}

impl<'a> Ctx<'a> {
    /// Allocates the pointer, index, value, `x` and `y` regions of `a`'s
    /// SpMV stored as `ptrs`/`cols` with `val_n` values.
    fn bind(
        map: &mut AddressMap,
        a: &CsrMatrix,
        ptrs: &'a [u32],
        cols: &'a [u32],
        val_n: usize,
    ) -> Self {
        Self {
            ptrs_r: map.alloc_elems("f.ptrs", ptrs.len(), 4),
            idxs_r: map.alloc_elems("f.idxs", cols.len().max(1), 4),
            vals_r: map.alloc_elems("f.vals", val_n.max(1), 8),
            x_r: map.alloc_elems("f.x", a.cols().max(1), 8),
            y_r: map.alloc_elems("f.y", a.rows().max(1), 8),
            ptrs,
            cols,
        }
    }
}

/// The gather-chain SpMV (CSR; also the DCSR inner loop): per chunk, a
/// vector load of indexes and values plus one dependent element load per
/// gathered operand.
fn emit_gather_row<M: Machine + ?Sized>(m: &mut M, ctx: &Ctx, i: usize, bounds: Deps, vl: usize) {
    let (beg, end) = (ctx.ptrs[i] as usize, ctx.ptrs[i + 1] as usize);
    let mut sum = OpId::NONE;
    let mut p = beg;
    while p < end {
        let n = (end - p).min(vl);
        let iv = m.vec_load(Site(S_IDX), ctx.idxs_r.u32_at(p), (n * 4) as u32, bounds);
        let vv = m.vec_load(Site(S_VAL), ctx.vals_r.f64_at(p), (n * 8) as u32, bounds);
        let mut prods = Vec::with_capacity(n + 2);
        for e in 0..n {
            let col = ctx.cols[p + e] as usize;
            prods.push(m.load(Site(S_GATHER), ctx.x_r.f64_at(col), 8, Deps::from(iv)));
        }
        prods.push(vv);
        if sum.is_some() {
            prods.push(sum);
        }
        let deps = fold_deps(m, &prods);
        sum = m.vec_op((2 * n) as u32, deps);
        p += n;
        m.branch(Site(S_BR_I), p < end, bounds);
    }
    m.store(Site(S_STORE), ctx.y_r.f64_at(i), 8, Deps::from(sum));
}

fn emit_csr<M: Machine + ?Sized>(m: &mut M, ctx: &Ctx, rows: (usize, usize), vl: usize) {
    for i in rows.0..rows.1 {
        let p0 = m.load(Site(S_PTR), ctx.ptrs_r.u32_at(i), 4, Deps::NONE);
        let p1 = m.load(Site(S_PTR), ctx.ptrs_r.u32_at(i + 1), 4, Deps::NONE);
        emit_gather_row(m, ctx, i, Deps::on(&[p0, p1]), vl);
        m.branch(Site(S_BR_O), i + 1 < rows.1, Deps::NONE);
    }
}

/// DCSR: only stored rows are walked, at the price of one extra row-index
/// load per stored row (`ctx.ptrs` here is the *stored-row* pointer
/// array, so `rows` ranges over stored rows).
fn emit_dcsr<M: Machine + ?Sized>(
    m: &mut M,
    ctx: &Ctx,
    row_idxs_r: Region,
    rows: (usize, usize),
    vl: usize,
) {
    for s in rows.0..rows.1 {
        let ri = m.load(Site(S_ROWIDX), row_idxs_r.u32_at(s), 4, Deps::NONE);
        let p0 = m.load(Site(S_PTR), ctx.ptrs_r.u32_at(s), 4, Deps::NONE);
        let p1 = m.load(Site(S_PTR), ctx.ptrs_r.u32_at(s + 1), 4, Deps::NONE);
        emit_gather_row(m, ctx, s, Deps::on(&[ri, p0, p1]), vl);
        m.branch(Site(S_BR_O), s + 1 < rows.1, Deps::NONE);
    }
}

/// Banded: no data-dependent addressing at all. Row `i`'s operand window
/// `x[i−bw_lo .. i+bw_hi]` is known from the row index alone, so its
/// chunked vector loads issue with no dependencies (full memory
/// parallelism — the gather chain's load-to-load serialization is gone);
/// deltas and values stream as vector chunks and decoding costs one
/// vector add. The price is touching the whole band window — `bandwidth`
/// operands per row however few are stored — which is why `band_fill` is
/// the autotuner's deciding statistic for this format.
fn emit_banded<M: Machine + ?Sized>(
    m: &mut M,
    ctx: &Ctx,
    band: (usize, usize, usize),
    rows: (usize, usize),
    vl: usize,
) {
    let (bw_lo, bw_hi, cols) = band;
    for i in rows.0..rows.1 {
        let p0 = m.load(Site(S_PTR), ctx.ptrs_r.u32_at(i), 4, Deps::NONE);
        let p1 = m.load(Site(S_PTR), ctx.ptrs_r.u32_at(i + 1), 4, Deps::NONE);
        let bounds = Deps::on(&[p0, p1]);
        let (beg, end) = (ctx.ptrs[i] as usize, ctx.ptrs[i + 1] as usize);
        let w0 = i.saturating_sub(bw_lo);
        let w1 = (i + bw_hi + 1).min(cols);
        let mut window = Vec::new();
        if end > beg {
            let mut c = w0;
            while c < w1 {
                let n = (w1 - c).min(vl);
                window.push(m.vec_load(
                    Site(S_XSEG),
                    ctx.x_r.f64_at(c),
                    (n * 8) as u32,
                    Deps::NONE,
                ));
                c += n;
            }
        }
        let mut sum = OpId::NONE;
        let mut p = beg;
        while p < end {
            let n = (end - p).min(vl);
            let dv = m.vec_load(Site(S_IDX), ctx.idxs_r.u32_at(p), (n * 4) as u32, bounds);
            let vv = m.vec_load(Site(S_VAL), ctx.vals_r.f64_at(p), (n * 8) as u32, bounds);
            // delta + (row - bw_lo): one vector add decodes the chunk.
            m.int_op(Deps::from(dv));
            // The chunk consumes the window chunk its first coordinate
            // falls in (in-register once the undependent window loads land).
            let wslot = window[(ctx.cols[p] as usize - w0) / vl];
            let mut parts = vec![dv, vv, wslot];
            if sum.is_some() {
                parts.push(sum);
            }
            let deps = fold_deps(m, &parts);
            sum = m.vec_op((2 * n) as u32, deps);
            p += n;
            m.branch(Site(S_BR_I), p < end, bounds);
        }
        m.store(Site(S_STORE), ctx.y_r.f64_at(i), 8, Deps::from(sum));
        m.branch(Site(S_BR_O), i + 1 < rows.1, Deps::NONE);
    }
}

/// BCSR: whole-tile charge per stored block — tile vector loads, one `x`
/// stripe, `2·BR·BC` FLOPs — over block rows (`ctx.ptrs` is the block
/// pointer array; `rows` ranges over block rows).
fn emit_bcsr<M: Machine + ?Sized>(
    m: &mut M,
    ctx: &Ctx,
    b: &BcsrMatrix,
    grs: (usize, usize),
    vl: usize,
) {
    let (br, bc) = b.block_shape();
    for gr in grs.0..grs.1 {
        let q0 = m.load(Site(S_PTR), ctx.ptrs_r.u32_at(gr), 4, Deps::NONE);
        let q1 = m.load(Site(S_PTR), ctx.ptrs_r.u32_at(gr + 1), 4, Deps::NONE);
        let bounds = Deps::on(&[q0, q1]);
        let (b0, b1) = b.block_row_range(gr);
        for blk in b0..b1 {
            let bi = m.load(Site(S_ROWIDX), ctx.idxs_r.u32_at(blk), 4, bounds);
            let mut parts = vec![bi];
            let mut s = 0;
            while s < br * bc {
                let n = (br * bc - s).min(vl);
                parts.push(m.vec_load(
                    Site(S_TILE),
                    ctx.vals_r.f64_at(blk * br * bc + s),
                    (n * 8) as u32,
                    bounds,
                ));
                s += n;
            }
            parts.push(m.vec_load(
                Site(S_XSEG),
                ctx.x_r.f64_at(b.block_col(blk) as usize * bc),
                (bc * 8) as u32,
                Deps::from(bi),
            ));
            let deps = fold_deps(m, &parts);
            m.vec_op((2 * br * bc) as u32, deps);
            m.branch(Site(S_BR_I), blk + 1 < b1, bounds);
        }
        let lo = gr * br;
        let hi = ((gr + 1) * br).min(b.rows());
        m.store(
            Site(S_STORE),
            ctx.y_r.f64_at(lo),
            ((hi - lo) * 8) as u32,
            Deps::NONE,
        );
        m.branch(Site(S_BR_O), gr + 1 < grs.1, Deps::NONE);
    }
}

/// Replays `kind`'s SpMV op stream for `a` through `cfg`'s cores. `None`
/// for [`FormatKind::Hashed`]: hash order admits no row-streamed SpMV
/// (see the module docs).
pub fn run_spmv(kind: FormatKind, a: &CsrMatrix, cfg: SystemConfig) -> Option<RunStats> {
    let vl = cfg.core.sve_lanes();
    let cores = cfg.cores();
    let mut map = AddressMap::new();
    let stats = match kind {
        FormatKind::Hashed => return None,
        FormatKind::Csr => {
            let ctx = Ctx::bind(&mut map, a, a.row_ptrs(), a.col_idxs(), a.nnz());
            run_cores(cfg, &partition_rows(ctx.ptrs, cores), |m, _, rows| {
                emit_csr(m, &ctx, rows, vl);
            })
        }
        FormatKind::Dcsr => {
            let d = DcsrMatrix::from_csr(a);
            let row_idxs_r = map.alloc_elems("f.row_idxs", d.num_stored_rows().max(1), 4);
            let ctx = Ctx::bind(&mut map, a, d.row_ptrs(), d.col_idxs(), a.nnz());
            run_cores(cfg, &partition_rows(ctx.ptrs, cores), |m, _, rows| {
                emit_dcsr(m, &ctx, row_idxs_r, rows, vl);
            })
        }
        FormatKind::Banded => {
            let b = BandedMatrix::from_csr(a);
            let coords: Vec<u32> = (0..b.rows())
                .flat_map(|r| {
                    let (p0, p1) = b.row_range(r);
                    (p0..p1).map(move |p| (r, p))
                })
                .map(|(r, p)| b.coord(r, p))
                .collect();
            let band = (b.bw_lo() as usize, b.bw_hi() as usize, a.cols());
            let ctx = Ctx::bind(&mut map, a, b.ptrs(), &coords, b.nnz());
            run_cores(cfg, &partition_rows(ctx.ptrs, cores), |m, _, rows| {
                emit_banded(m, &ctx, band, rows, vl);
            })
        }
        FormatKind::Bcsr => {
            let b = BcsrMatrix::from_csr(a, BLOCK_ROWS, BLOCK_COLS);
            let tile_elems = (b.num_blocks() * BLOCK_ROWS * BLOCK_COLS).max(1);
            let block_cols: Vec<u32> = (0..b.num_blocks()).map(|blk| b.block_col(blk)).collect();
            let ctx = Ctx::bind(&mut map, a, b.ptrs(), &block_cols, tile_elems);
            run_cores(cfg, &partition_rows(ctx.ptrs, cores), |m, _, grs| {
                emit_bcsr(m, &ctx, &b, grs, vl);
            })
        }
    };
    Some(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmu_kernels::spmv::Spmv;
    use tmu_sim::{CoreConfig, MemSysConfig};
    use tmu_tensor::gen;

    fn small_cfg(cores: usize) -> SystemConfig {
        SystemConfig {
            core: CoreConfig::neoverse_n1_like(),
            mem: MemSysConfig::table5(cores),
        }
    }

    #[test]
    fn every_format_matches_the_kernel_reference_bitwise() {
        for (a, name) in [
            (gen::uniform(193, 160, 5, 17), "uniform"),
            (gen::banded(128, 12, 6, 7), "banded"),
            (gen::road(96, 2, 3), "road"),
        ] {
            let reference = Spmv::new(&a);
            for kind in FormatKind::ALL {
                let got = spmv_values(kind, &a);
                assert_eq!(got.len(), reference.reference().len());
                for (i, (g, r)) in got.iter().zip(reference.reference()).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        r.to_bits(),
                        "{kind} on {name}, row {i}: {g} vs {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn streamed_formats_report_cycles_and_hashed_declines() {
        let a = gen::uniform(256, 256, 5, 11);
        for kind in [
            FormatKind::Csr,
            FormatKind::Dcsr,
            FormatKind::Bcsr,
            FormatKind::Banded,
        ] {
            let stats = run_spmv(kind, &a, small_cfg(2)).expect("streamed format runs");
            assert!(stats.cycles > 0, "{kind}");
        }
        assert!(run_spmv(FormatKind::Hashed, &a, small_cfg(2)).is_none());
    }

    #[test]
    fn banded_model_beats_csr_on_a_banded_input() {
        let a = gen::banded(2048, 24, 8, 5);
        let csr = run_spmv(FormatKind::Csr, &a, small_cfg(2)).expect("runs");
        let banded = run_spmv(FormatKind::Banded, &a, small_cfg(2)).expect("runs");
        assert!(
            banded.cycles < csr.cycles,
            "banded {} vs csr {}",
            banded.cycles,
            csr.cycles
        );
    }

    #[test]
    fn csr_model_charges_the_reference_flop_count() {
        let a = gen::uniform(128, 128, 4, 9);
        let stats = run_spmv(FormatKind::Csr, &a, small_cfg(1)).expect("runs");
        assert_eq!(stats.total().flops as usize, 2 * a.nnz());
    }
}
