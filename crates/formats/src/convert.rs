//! Generated format conversions: software references, core-side op
//! streams, and real TMU marshaling programs.
//!
//! Three tiers, cheapest authority first:
//!
//! 1. **Software reference** — [`crate::FormatMatrix::encode`] /
//!    [`crate::FormatMatrix::decode`], the functional ground truth every
//!    other tier is pinned against.
//! 2. **Op-stream cost model** — [`conversion_cycles`] replays the
//!    conversion's memory traffic (source scans, band/hash transforms,
//!    destination scatters, tile materialization) through the simulated
//!    cores. Its cycle count is the `convert.cycles` stat of the format
//!    ablation: what re-marshaling costs before the picked layout earns
//!    anything back.
//! 3. **TMU programs** — [`CsrToBandedTmu`] and [`HashedToCsrTmu`] run a
//!    conversion *as TMU traversal programs*: the engine walks the source
//!    level stack and marshals coordinate/value streams to the outQ; the
//!    Figure 6-style callbacks rebuild the destination arrays. Because the
//!    conversion is an ordinary program, it inherits the whole §5.6
//!    story — the fault-injection suite drives one under the full fault
//!    grid and requires a bit-identical outQ stream.

use std::sync::Arc;

use tmu::{
    CallbackHandler, Event, LayerMode, MemImage, OutQEntry, Program, ProgramBuilder, StreamTy,
};
use tmu_kernels::data::{partition_rows, CsrOnSim, HashedOnSim};
use tmu_kernels::workload::run_cores;
use tmu_sim::{AddressMap, Deps, Machine, OpId, Region, RunStats, Site, SystemConfig, VecMachine};
use tmu_tensor::{BcsrMatrix, CsrMatrix, DcsrMatrix};

use crate::banded::BandedMatrix;
use crate::hashed::{HashedMatrix, EMPTY};
use crate::{FormatKind, BLOCK_COLS, BLOCK_ROWS};

const S_PTR: u16 = 620;
const S_IDX: u16 = 621;
const S_VAL: u16 = 622;
const S_ST: u16 = 623;
const S_BR: u16 = 624;

/// Callback ids of the conversion programs.
const CB_ENTRY: u32 = 0;
const CB_ROW_END: u32 = 1;

/// The source row pointers and the source and destination regions of a
/// conversion op stream.
struct Ctx<'a> {
    ptrs: &'a [u32],
    ptrs_r: Region,
    idxs_r: Region,
    vals_r: Region,
    dst_idx_r: Region,
    dst_val_r: Region,
    dst_ptr_r: Region,
}

/// CSR→DCSR: a pointer-compaction pass — no index or value traffic.
fn emit_to_dcsr<M: Machine + ?Sized>(m: &mut M, ctx: &Ctx, rows: (usize, usize)) {
    let mut stored = 0usize;
    for r in rows.0..rows.1 {
        let p0 = m.load(Site(S_PTR), ctx.ptrs_r.u32_at(r), 4, Deps::NONE);
        let p1 = m.load(Site(S_PTR), ctx.ptrs_r.u32_at(r + 1), 4, Deps::NONE);
        m.int_op(Deps::on(&[p0, p1]));
        let nonempty = ctx.ptrs[r] != ctx.ptrs[r + 1];
        if nonempty {
            m.store(
                Site(S_ST),
                ctx.dst_ptr_r.u32_at(stored),
                8,
                Deps::on(&[p0, p1]),
            );
            stored += 1;
        }
        m.branch(Site(S_BR), r + 1 < rows.1, Deps::NONE);
    }
}

/// CSR→banded: pass 1 measures the band (index scan + min/max), pass 2
/// re-scans, applies the delta transform, and writes deltas + values.
fn emit_to_banded<M: Machine + ?Sized>(m: &mut M, ctx: &Ctx, rows: (usize, usize), vl: usize) {
    for pass in 0..2 {
        for r in rows.0..rows.1 {
            let p0 = m.load(Site(S_PTR), ctx.ptrs_r.u32_at(r), 4, Deps::NONE);
            let p1 = m.load(Site(S_PTR), ctx.ptrs_r.u32_at(r + 1), 4, Deps::NONE);
            let bounds = Deps::on(&[p0, p1]);
            let (beg, end) = (ctx.ptrs[r] as usize, ctx.ptrs[r + 1] as usize);
            let mut p = beg;
            while p < end {
                let n = (end - p).min(vl);
                let iv = m.vec_load(Site(S_IDX), ctx.idxs_r.u32_at(p), (n * 4) as u32, bounds);
                m.int_op(Deps::from(iv));
                if pass == 1 {
                    let vv = m.vec_load(Site(S_VAL), ctx.vals_r.f64_at(p), (n * 8) as u32, bounds);
                    m.store(
                        Site(S_ST),
                        ctx.dst_idx_r.u32_at(p),
                        (n * 4) as u32,
                        Deps::from(iv),
                    );
                    m.store(
                        Site(S_ST),
                        ctx.dst_val_r.f64_at(p),
                        (n * 8) as u32,
                        Deps::from(vv),
                    );
                }
                p += n;
                m.branch(Site(S_BR), p < end, bounds);
            }
            m.branch(Site(S_BR), r + 1 < rows.1, Deps::NONE);
        }
    }
}

/// CSR→hashed: index/value scan plus one hash and a *scattered* pair of
/// slot stores per element — the destination addresses come from the
/// already-built table so the cache model sees the real scatter.
fn emit_to_hashed<M: Machine + ?Sized>(
    m: &mut M,
    ctx: &Ctx,
    h: &HashedMatrix,
    a: &CsrMatrix,
    rows: (usize, usize),
    vl: usize,
) {
    for r in rows.0..rows.1 {
        let p0 = m.load(Site(S_PTR), ctx.ptrs_r.u32_at(r), 4, Deps::NONE);
        let p1 = m.load(Site(S_PTR), ctx.ptrs_r.u32_at(r + 1), 4, Deps::NONE);
        let bounds = Deps::on(&[p0, p1]);
        let (beg, end) = (ctx.ptrs[r] as usize, ctx.ptrs[r + 1] as usize);
        let mut p = beg;
        while p < end {
            let n = (end - p).min(vl);
            let iv = m.vec_load(Site(S_IDX), ctx.idxs_r.u32_at(p), (n * 4) as u32, bounds);
            let vv = m.vec_load(Site(S_VAL), ctx.vals_r.f64_at(p), (n * 8) as u32, bounds);
            for e in 0..n {
                let c = a.col_idxs()[p + e];
                let slot = h.slot_index(r, c).expect("encoded entry has a slot");
                m.int_op(Deps::from(iv));
                m.store(Site(S_ST), ctx.dst_idx_r.u32_at(slot), 4, Deps::from(iv));
                m.store(Site(S_ST), ctx.dst_val_r.f64_at(slot), 8, Deps::from(vv));
            }
            p += n;
            m.branch(Site(S_BR), p < end, bounds);
        }
        m.store(Site(S_ST), ctx.dst_ptr_r.u32_at(r), 4, Deps::NONE);
        m.branch(Site(S_BR), r + 1 < rows.1, Deps::NONE);
    }
}

/// CSR→BCSR: the tile-materialization pass (fiber scan + slot transform
/// per chunk, whole-tile stores per stored block) — the blocked backend's
/// extraction traffic.
fn emit_to_bcsr<M: Machine + ?Sized>(
    m: &mut M,
    ctx: &Ctx,
    b: &BcsrMatrix,
    grs: (usize, usize),
    vl: usize,
) {
    let (br, bc) = b.block_shape();
    for gr in grs.0..grs.1 {
        for r in gr * br..((gr + 1) * br).min(b.rows()) {
            let p0 = m.load(Site(S_PTR), ctx.ptrs_r.u32_at(r), 4, Deps::NONE);
            let p1 = m.load(Site(S_PTR), ctx.ptrs_r.u32_at(r + 1), 4, Deps::NONE);
            let bounds = Deps::on(&[p0, p1]);
            let (beg, end) = (ctx.ptrs[r] as usize, ctx.ptrs[r + 1] as usize);
            let mut p = beg;
            while p < end {
                let n = (end - p).min(vl);
                let iv = m.vec_load(Site(S_IDX), ctx.idxs_r.u32_at(p), (n * 4) as u32, bounds);
                let vv = m.vec_load(Site(S_VAL), ctx.vals_r.f64_at(p), (n * 8) as u32, bounds);
                m.int_op(Deps::on(&[iv, vv]));
                p += n;
                m.branch(Site(S_BR), p < end, bounds);
            }
        }
        let (b0, b1) = b.block_row_range(gr);
        for blk in b0..b1 {
            let mut s = 0;
            while s < br * bc {
                let n = (br * bc - s).min(vl);
                m.store(
                    Site(S_ST),
                    ctx.dst_val_r.f64_at(blk * br * bc + s),
                    (n * 8) as u32,
                    Deps::NONE,
                );
                s += n;
            }
            m.store(Site(S_ST), ctx.dst_idx_r.u32_at(blk), 4, Deps::NONE);
            m.store(Site(S_ST), ctx.dst_ptr_r.at(blk, 8), 8, Deps::NONE);
        }
        m.branch(Site(S_BR), gr + 1 < grs.1, Deps::NONE);
    }
}

fn trace_convert(src: FormatKind, dst: FormatKind) {
    tmu_trace::with(|tr| {
        let c = tr.component("formats.convert");
        let idx = |k| FormatKind::ALL.iter().position(|&x| x == k).unwrap_or(0) as u64;
        tr.event(
            c,
            0,
            tmu_trace::EventKind::FormatConvert,
            (idx(src) << 32) | idx(dst),
        );
    });
}

/// Replays the csr→`dst` conversion's op stream through `cfg`'s cores and
/// returns its cost. `dst = Csr` is the identity: zero work, zero cycles.
pub fn conversion_cycles(a: &CsrMatrix, dst: FormatKind, cfg: SystemConfig) -> RunStats {
    trace_convert(FormatKind::Csr, dst);
    if dst == FormatKind::Csr {
        return RunStats::default();
    }
    let vl = cfg.core.sve_lanes();
    let cores = cfg.cores();
    let mut map = AddressMap::new();
    let ptrs_r = map.alloc_elems("c.ptrs", a.row_ptrs().len(), 4);
    let idxs_r = map.alloc_elems("c.idxs", a.nnz().max(1), 4);
    let vals_r = map.alloc_elems("c.vals", a.nnz().max(1), 8);
    let shards = partition_rows(a.row_ptrs(), cores);
    let with_dst = |dst_idx_r, dst_val_r, dst_ptr_r| Ctx {
        ptrs: a.row_ptrs(),
        ptrs_r,
        idxs_r,
        vals_r,
        dst_idx_r,
        dst_val_r,
        dst_ptr_r,
    };
    match dst {
        FormatKind::Csr | FormatKind::Dcsr => {
            let d = DcsrMatrix::from_csr(a);
            let ctx = with_dst(
                map.alloc_elems("d.row_idxs", d.num_stored_rows().max(1), 4),
                map.alloc_elems("d.unused", 1, 8),
                map.alloc_elems("d.row_ptrs", d.row_ptrs().len(), 4),
            );
            run_cores(cfg, &shards, |m, _, rows| emit_to_dcsr(m, &ctx, rows))
        }
        FormatKind::Banded => {
            let b = BandedMatrix::from_csr(a);
            let ctx = with_dst(
                map.alloc_elems("b.deltas", b.nnz().max(1), 4),
                map.alloc_elems("b.vals", b.nnz().max(1), 8),
                map.alloc_elems("b.ptrs", b.ptrs().len(), 4),
            );
            run_cores(cfg, &shards, |m, _, rows| emit_to_banded(m, &ctx, rows, vl))
        }
        FormatKind::Hashed => {
            let h = HashedMatrix::from_csr(a);
            let ctx = with_dst(
                map.alloc_elems("h.slots", h.slots().len().max(1), 4),
                map.alloc_elems("h.svals", h.svals().len().max(1), 8),
                map.alloc_elems("h.row_base", h.row_base().len(), 4),
            );
            run_cores(cfg, &shards, |m, _, rows| {
                emit_to_hashed(m, &ctx, &h, a, rows, vl)
            })
        }
        FormatKind::Bcsr => {
            let b = BcsrMatrix::from_csr(a, BLOCK_ROWS, BLOCK_COLS);
            let tile_elems = (b.num_blocks() * BLOCK_ROWS * BLOCK_COLS).max(1);
            let ctx = with_dst(
                map.alloc_elems("t.cols", b.num_blocks().max(1), 4),
                map.alloc_elems("t.vals", tile_elems, 8),
                map.alloc_elems("t.masks", b.num_blocks().max(1), 8),
            );
            run_cores(cfg, &partition_rows(b.ptrs(), cores), |m, _, grs| {
                emit_to_bcsr(m, &ctx, &b, grs, vl);
            })
        }
    }
}

/// The csr→banded conversion as a TMU program: the engine streams the
/// CSR fibers (Figure 8 traversal — dense rows over lockstep range
/// lanes), marshaling `(column, value)` operand pairs; the callback
/// handler applies the delta transform and rebuilds the banded arrays.
#[derive(Debug)]
pub struct CsrToBandedTmu {
    sim: CsrOnSim,
    bw_lo: u32,
    bw_hi: u32,
    outq_r: Vec<Region>,
    image: Arc<MemImage>,
    reference: BandedMatrix,
}

impl CsrToBandedTmu {
    /// Binds `a` and precomputes the band parameters (the host-side pass
    /// the transform needs before any entry streams).
    pub fn new(a: &CsrMatrix) -> Self {
        let mut map = AddressMap::new();
        let mut image = MemImage::new();
        let sim = CsrOnSim::bind(&mut map, &mut image, "a", a);
        let outq_r = (0..8)
            .map(|c| map.alloc(&format!("outq{c}"), 1 << 20))
            .collect();
        let reference = BandedMatrix::from_csr(a);
        Self {
            bw_lo: reference.bw_lo(),
            bw_hi: reference.bw_hi(),
            sim,
            outq_r,
            image: Arc::new(image),
            reference,
        }
    }

    /// The software-reference encoding the TMU conversion must reproduce.
    pub fn reference(&self) -> &BandedMatrix {
        &self.reference
    }

    /// Shared memory image.
    pub fn image_handle(&self) -> Arc<MemImage> {
        Arc::clone(&self.image)
    }

    /// outQ base address of a core.
    pub fn outq_base(&self, core: usize) -> u64 {
        self.outq_r[core].base
    }

    /// Builds the marshaling program for a row range.
    pub fn build_program(&self, rows: (usize, usize), lanes: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let l0 = b.layer(LayerMode::Single);
        let row = b.dns_fbrt(l0, rows.0 as i64, rows.1 as i64, 1);
        let ptbs = b.mem_stream(row, self.sim.ptrs_r.base, 4, StreamTy::Index);
        let ptes = b.mem_stream(row, self.sim.ptrs_r.base + 4, 4, StreamTy::Index);
        let l1 = b.layer(LayerMode::LockStep);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for lane in 0..lanes as i64 {
            let col = b.rng_fbrt(l1, ptbs, ptes, lane, lanes as i64);
            cols.push(b.mem_stream(col, self.sim.idxs_r.base, 4, StreamTy::Index));
            vals.push(b.mem_stream(col, self.sim.vals_r.base, 8, StreamTy::Value));
        }
        let avg_row = self.sim.nnz() as f64 / self.sim.rows.max(1) as f64;
        b.set_weight(l0, 1.0);
        b.set_weight(l1, avg_row.max(1.0));
        let col_op = b.vec_operand(l1, &cols);
        let val_op = b.vec_operand(l1, &vals);
        b.callback(l1, Event::Ite, CB_ENTRY, &[col_op, val_op]);
        b.callback(l1, Event::End, CB_ROW_END, &[]);
        b.build().expect("csr→banded program is well-formed")
    }

    /// Runs the conversion functionally (one shard, 8 lanes) and returns
    /// the rebuilt banded matrix.
    pub fn convert(&self) -> BandedMatrix {
        let prog = Arc::new(self.build_program((0, self.sim.rows), 8));
        let mut handler = BandedBuildHandler::new(self.bw_lo, 0);
        let mut vm = VecMachine::new();
        tmu::for_each_entry(&prog, &self.image, |e| {
            handler.handle(e, OpId::NONE, &mut vm);
        });
        handler.into_banded(self.sim.rows, self.sim.cols, self.bw_hi)
    }
}

/// Figure 6-style callbacks of the csr→banded conversion: `CB_ENTRY`
/// transforms a lane group of `(column, value)` pairs into deltas,
/// `CB_ROW_END` seals a row pointer.
#[derive(Debug)]
pub struct BandedBuildHandler {
    bw_lo: u32,
    row: u32,
    ptrs: Vec<u32>,
    deltas: Vec<u32>,
    vals: Vec<f64>,
}

impl BandedBuildHandler {
    /// Handler for rows starting at `first_row`, with the premeasured
    /// lower bandwidth.
    pub fn new(bw_lo: u32, first_row: u32) -> Self {
        Self {
            bw_lo,
            row: first_row,
            ptrs: vec![0],
            deltas: Vec::new(),
            vals: Vec::new(),
        }
    }

    fn into_banded(self, rows: usize, cols: usize, bw_hi: u32) -> BandedMatrix {
        BandedMatrix::from_raw(
            rows,
            cols,
            self.bw_lo,
            bw_hi,
            self.ptrs,
            self.deltas,
            self.vals,
        )
    }
}

impl CallbackHandler for BandedBuildHandler {
    fn handle(&mut self, entry: &OutQEntry, entry_load: OpId, m: &mut VecMachine) {
        match entry.callback {
            CB_ENTRY => {
                let cols = entry.operands[0].indexes();
                let vals = entry.operands[1].f64s();
                for lane in 0..cols.len() {
                    if entry.mask & (1 << lane) != 0 {
                        self.deltas
                            .push(cols.lane(lane) as u32 + self.bw_lo - self.row);
                        self.vals.push(vals.lane(lane));
                    }
                }
                m.int_op(Deps::from(entry_load));
                m.store(
                    Site(S_ST),
                    u64::from(self.row) * 4,
                    (entry.mask.count_ones() * 12).max(4),
                    Deps::from(entry_load),
                );
            }
            CB_ROW_END => {
                self.ptrs.push(self.deltas.len() as u32);
                self.row += 1;
            }
            other => panic!("csr→banded: unexpected callback {other}"),
        }
    }
}

/// The hashed→csr conversion as a TMU program: the engine walks the slot
/// tables (dense rows over lockstep slot lanes), marshaling raw
/// `(slot coordinate, value)` pairs — occupied or sentinel; the handler
/// drops sentinels and sorts each row into the canonical order.
#[derive(Debug)]
pub struct HashedToCsrTmu {
    rows: usize,
    cols: usize,
    avg_span: f64,
    sim: HashedOnSim,
    outq_r: Vec<Region>,
    image: Arc<MemImage>,
    reference: CsrMatrix,
}

impl HashedToCsrTmu {
    /// Binds `h`'s slot tables for marshaling.
    pub fn new(h: &HashedMatrix) -> Self {
        let mut map = AddressMap::new();
        let mut image = MemImage::new();
        let sim = HashedOnSim::bind(
            &mut map,
            &mut image,
            "h",
            h.row_base(),
            h.slots(),
            h.svals(),
        );
        let outq_r = (0..8)
            .map(|c| map.alloc(&format!("outq{c}"), 1 << 20))
            .collect();
        Self {
            rows: h.rows(),
            cols: h.cols(),
            avg_span: h.slots().len() as f64 / h.rows().max(1) as f64,
            sim,
            outq_r,
            image: Arc::new(image),
            reference: h.to_csr(),
        }
    }

    /// The software-reference decode the TMU conversion must reproduce.
    pub fn reference(&self) -> &CsrMatrix {
        &self.reference
    }

    /// Shared memory image.
    pub fn image_handle(&self) -> Arc<MemImage> {
        Arc::clone(&self.image)
    }

    /// outQ base address of a core.
    pub fn outq_base(&self, core: usize) -> u64 {
        self.outq_r[core].base
    }

    /// Builds the marshaling program for a row range.
    pub fn build_program(&self, rows: (usize, usize), lanes: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let l0 = b.layer(LayerMode::Single);
        let row = b.dns_fbrt(l0, rows.0 as i64, rows.1 as i64, 1);
        let ptbs = b.mem_stream(row, self.sim.row_base_r.base, 4, StreamTy::Index);
        let ptes = b.mem_stream(row, self.sim.row_base_r.base + 4, 4, StreamTy::Index);
        let l1 = b.layer(LayerMode::LockStep);
        let mut coords = Vec::new();
        let mut vals = Vec::new();
        for lane in 0..lanes as i64 {
            let slot = b.rng_fbrt(l1, ptbs, ptes, lane, lanes as i64);
            coords.push(b.mem_stream(slot, self.sim.slots_r.base, 4, StreamTy::Index));
            vals.push(b.mem_stream(slot, self.sim.svals_r.base, 8, StreamTy::Value));
        }
        b.set_weight(l0, 1.0);
        b.set_weight(l1, self.avg_span.max(1.0));
        let coord_op = b.vec_operand(l1, &coords);
        let val_op = b.vec_operand(l1, &vals);
        b.callback(l1, Event::Ite, CB_ENTRY, &[coord_op, val_op]);
        b.callback(l1, Event::End, CB_ROW_END, &[]);
        b.build().expect("hashed→csr program is well-formed")
    }

    /// Runs the conversion functionally (one shard, 8 lanes) and returns
    /// the rebuilt CSR matrix.
    pub fn convert(&self) -> CsrMatrix {
        let prog = Arc::new(self.build_program((0, self.rows), 8));
        let mut handler = CsrBuildHandler::new();
        let mut vm = VecMachine::new();
        tmu::for_each_entry(&prog, &self.image, |e| {
            handler.handle(e, OpId::NONE, &mut vm);
        });
        handler.into_csr(self.rows, self.cols)
    }
}

/// Callbacks of the hashed→csr conversion: `CB_ENTRY` filters the
/// sentinel slots out of a marshaled lane group, `CB_ROW_END` sorts the
/// row into coordinate order and seals its pointer.
#[derive(Debug, Default)]
pub struct CsrBuildHandler {
    pending: Vec<(u32, f64)>,
    ptrs: Vec<u32>,
    idxs: Vec<u32>,
    vals: Vec<f64>,
}

impl CsrBuildHandler {
    /// Fresh handler (rows stream from the program's range).
    pub fn new() -> Self {
        Self {
            pending: Vec::new(),
            ptrs: vec![0],
            idxs: Vec::new(),
            vals: Vec::new(),
        }
    }

    fn into_csr(self, rows: usize, cols: usize) -> CsrMatrix {
        CsrMatrix::from_parts(rows, cols, self.ptrs, self.idxs, self.vals)
            .expect("hashed→csr rebuild preserves CSR invariants")
    }
}

impl CallbackHandler for CsrBuildHandler {
    fn handle(&mut self, entry: &OutQEntry, entry_load: OpId, m: &mut VecMachine) {
        match entry.callback {
            CB_ENTRY => {
                let coords = entry.operands[0].indexes();
                let vals = entry.operands[1].f64s();
                for lane in 0..coords.len() {
                    if entry.mask & (1 << lane) != 0 && coords.lane(lane) as u32 != EMPTY {
                        self.pending
                            .push((coords.lane(lane) as u32, vals.lane(lane)));
                    }
                }
                m.int_op(Deps::from(entry_load));
            }
            CB_ROW_END => {
                self.pending.sort_unstable_by_key(|&(c, _)| c);
                for (c, v) in self.pending.drain(..) {
                    self.idxs.push(c);
                    self.vals.push(v);
                }
                self.ptrs.push(self.idxs.len() as u32);
                m.store(
                    Site(S_ST),
                    self.ptrs.len() as u64 * 4,
                    4,
                    Deps::from(entry_load),
                );
            }
            other => panic!("hashed→csr: unexpected callback {other}"),
        }
    }
}

/// Convenience: encode `a` into every non-CSR format and decode back,
/// asserting lossless round-trips; returns the per-format row iterator
/// sanity value (used by the bench binary's self-check).
pub fn roundtrip_all(a: &CsrMatrix) -> bool {
    FormatKind::ALL.iter().all(|&k| {
        let m = crate::FormatMatrix::encode(k, a).decode();
        m.row_ptrs() == a.row_ptrs() && m.col_idxs() == a.col_idxs() && m.vals() == a.vals()
    })
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
    fn conversion_costs_are_nonzero_except_identity() {
        let a = gen::uniform(128, 128, 4, 5);
        assert_eq!(
            conversion_cycles(&a, FormatKind::Csr, small_cfg(1)).cycles,
            0
        );
        for dst in [
            FormatKind::Dcsr,
            FormatKind::Bcsr,
            FormatKind::Banded,
            FormatKind::Hashed,
        ] {
            let stats = conversion_cycles(&a, dst, small_cfg(2));
            assert!(stats.cycles > 0, "{dst}");
        }
    }

    #[test]
    fn banded_conversion_reads_the_fibers_twice() {
        let a = gen::banded(128, 8, 4, 3);
        let one = conversion_cycles(&a, FormatKind::Dcsr, small_cfg(1));
        let two = conversion_cycles(&a, FormatKind::Banded, small_cfg(1));
        // Two index-scan passes plus stores must out-cost the
        // pointer-compaction pass.
        assert!(two.cycles > one.cycles);
    }

    #[test]
    fn tmu_csr_to_banded_matches_the_software_reference() {
        let a = gen::banded(96, 12, 5, 17);
        let conv = CsrToBandedTmu::new(&a);
        let got = conv.convert();
        assert_eq!(got.ptrs(), conv.reference().ptrs());
        assert_eq!(got.deltas(), conv.reference().deltas());
        assert_eq!(got.vals(), conv.reference().vals());
        assert_eq!(got.to_csr().col_idxs(), a.col_idxs());
    }

    #[test]
    fn tmu_hashed_to_csr_matches_the_software_reference() {
        let a = gen::uniform(80, 96, 4, 29);
        let h = HashedMatrix::from_csr(&a);
        let conv = HashedToCsrTmu::new(&h);
        let got = conv.convert();
        assert_eq!(got.row_ptrs(), a.row_ptrs());
        assert_eq!(got.col_idxs(), a.col_idxs());
        assert_eq!(got.vals(), a.vals());
    }

    #[test]
    fn roundtrip_all_accepts_generator_matrices() {
        assert!(roundtrip_all(&gen::uniform(64, 64, 4, 7)));
        assert!(roundtrip_all(&gen::road(64, 2, 7)));
    }
}
