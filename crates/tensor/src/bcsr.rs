//! Blocked CSR (BCSR): the register-tiled layout of the blocked-SVE
//! backend.
//!
//! The matrix is partitioned into an `R × C` grid of tiles; every tile
//! containing at least one stored entry is materialized as a dense
//! `R × C` value block plus an occupancy bitmask recording which slots
//! hold *stored* entries (an explicitly stored zero keeps its bit, so the
//! layout preserves CSR storage semantics exactly, not just values).
//! Tiles on the right/bottom edge of a matrix whose shape is not a
//! multiple of the block shape are *ragged*: their out-of-bounds slots can
//! never be occupied, but the block storage stays uniform so micro-kernels
//! need no edge cases.
//!
//! Block rows are stored CSR-style: `ptrs` delimits each block row's run
//! of stored blocks, `block_cols` carries the block-column index of each,
//! and blocks within a block row are sorted by block column. Value slots
//! are row-major within a block. Iterating a block row's blocks in order
//! and each block's occupied slots in row-major order therefore visits a
//! matrix row's entries in ascending column order — the same order as the
//! CSR fiber, which is what lets the blocked backend reproduce the
//! reference results bit-identically.

use crate::{CsrMatrix, Idx, Val};

/// A register-tiled blocked-CSR matrix (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct BcsrMatrix {
    rows: usize,
    cols: usize,
    br: usize,
    bc: usize,
    /// Per-block-row delimiters into `block_cols`/`masks` (len = grid rows + 1).
    ptrs: Vec<Idx>,
    /// Block-column index of each stored block.
    block_cols: Vec<Idx>,
    /// Occupancy bitmask of each stored block (bit `r·C + c`).
    masks: Vec<u64>,
    /// Dense value storage, `br · bc` slots per block, row-major in-block.
    vals: Vec<Val>,
    nnz: usize,
}

impl BcsrMatrix {
    /// Extracts the blocked layout from a CSR matrix with `br × bc` tiles.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ br·bc ≤ 64` (the occupancy mask is one `u64`).
    pub fn from_csr(m: &CsrMatrix, br: usize, bc: usize) -> Self {
        assert!(
            br >= 1 && bc >= 1 && br * bc <= 64,
            "block shape {br}x{bc} must have 1..=64 slots"
        );
        let grid_rows = m.rows().div_ceil(br);
        let mut ptrs = Vec::with_capacity(grid_rows + 1);
        ptrs.push(0u32);
        let mut block_cols: Vec<Idx> = Vec::new();
        let mut masks: Vec<u64> = Vec::new();
        let mut vals: Vec<Val> = Vec::new();
        // Scratch mapping block column → slot in this block row's run.
        let mut slot_of: std::collections::BTreeMap<Idx, usize> = std::collections::BTreeMap::new();
        for gr in 0..grid_rows {
            slot_of.clear();
            let row_hi = ((gr + 1) * br).min(m.rows());
            // Pass 1: which block columns appear (sorted by BTreeMap).
            for i in gr * br..row_hi {
                for (c, _) in m.row(i) {
                    let len = slot_of.len();
                    slot_of.entry(c / bc as Idx).or_insert(len);
                }
            }
            // BTreeMap insertion order is row-major, not sorted; renumber
            // the slots by ascending block column.
            for (slot, v) in slot_of.values_mut().enumerate() {
                *v = slot;
            }
            let base_block = masks.len();
            for (&bcidx, _) in slot_of.iter() {
                block_cols.push(bcidx);
                masks.push(0);
            }
            vals.resize(vals.len() + slot_of.len() * br * bc, 0.0);
            // Pass 2: scatter entries into their blocks.
            for i in gr * br..row_hi {
                let r_in = i - gr * br;
                for (c, v) in m.row(i) {
                    let blk = base_block + slot_of[&(c / bc as Idx)];
                    let c_in = c as usize % bc;
                    let slot = r_in * bc + c_in;
                    masks[blk] |= 1u64 << slot;
                    vals[blk * br * bc + slot] = v;
                }
            }
            ptrs.push(masks.len() as Idx);
        }
        Self {
            rows: m.rows(),
            cols: m.cols(),
            br,
            bc,
            ptrs,
            block_cols,
            masks,
            vals,
            nnz: m.nnz(),
        }
    }

    /// Logical row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block shape `(R, C)`.
    pub fn block_shape(&self) -> (usize, usize) {
        (self.br, self.bc)
    }

    /// Grid shape in blocks `(⌈rows/R⌉, ⌈cols/C⌉)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.rows.div_ceil(self.br), self.cols.div_ceil(self.bc))
    }

    /// Stored entries (identical to the source CSR's nnz).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Number of materialized blocks.
    pub fn num_blocks(&self) -> usize {
        self.masks.len()
    }

    /// Mean occupied fraction of the materialized blocks' slots
    /// (`nnz / (blocks · R · C)`; 1.0 for an empty matrix, whose padding
    /// waste is zero).
    pub fn occupancy(&self) -> f64 {
        if self.masks.is_empty() {
            1.0
        } else {
            self.nnz as f64 / (self.masks.len() * self.br * self.bc) as f64
        }
    }

    /// Range of block indexes stored for grid row `gr`.
    pub fn block_row_range(&self, gr: usize) -> (usize, usize) {
        (self.ptrs[gr] as usize, self.ptrs[gr + 1] as usize)
    }

    /// Block-column index of stored block `blk`.
    pub fn block_col(&self, blk: usize) -> Idx {
        self.block_cols[blk]
    }

    /// Occupancy bitmask of stored block `blk` (bit `r·C + c`).
    pub fn mask(&self, blk: usize) -> u64 {
        self.masks[blk]
    }

    /// Row-major value slots of stored block `blk` (`R · C` entries,
    /// unoccupied slots zero-filled).
    pub fn block_vals(&self, blk: usize) -> &[Val] {
        &self.vals[blk * self.br * self.bc..(blk + 1) * self.br * self.bc]
    }

    /// Calls `f(col, val)` for each of row `i`'s stored entries in
    /// ascending column order — the CSR fiber's order, so folds over it
    /// reproduce CSR-order results bit-for-bit. Walks the row's block row
    /// block by block and, in each block, the row's occupied slots.
    pub fn for_each_row_entry(&self, i: usize, mut f: impl FnMut(usize, Val)) {
        let r_in = i % self.br;
        let (b0, b1) = self.block_row_range(i / self.br);
        for blk in b0..b1 {
            let gc = self.block_cols[blk] as usize;
            let bv = self.block_vals(blk);
            for c_in in 0..self.bc {
                let slot = r_in * self.bc + c_in;
                if self.masks[blk] & (1u64 << slot) != 0 {
                    f(gc * self.bc + c_in, bv[slot]);
                }
            }
        }
    }

    /// Per-block-row pointer array (for binding the layout to the
    /// simulator's address space).
    pub fn ptrs(&self) -> &[Idx] {
        &self.ptrs
    }

    /// Block-column index array.
    pub fn block_cols(&self) -> &[Idx] {
        &self.block_cols
    }

    /// Full value storage (all blocks, row-major in-block).
    pub fn vals(&self) -> &[Val] {
        &self.vals
    }

    /// Densifies to a row-major `rows × cols` buffer.
    pub fn to_dense(&self) -> Vec<Val> {
        let mut out = vec![0.0; self.rows * self.cols];
        let (grid_rows, _) = self.grid();
        for gr in 0..grid_rows {
            let (b0, b1) = self.block_row_range(gr);
            for blk in b0..b1 {
                let gc = self.block_cols[blk] as usize;
                let bv = self.block_vals(blk);
                for r_in in 0..self.br {
                    let i = gr * self.br + r_in;
                    if i >= self.rows {
                        break;
                    }
                    for c_in in 0..self.bc {
                        let j = gc * self.bc + c_in;
                        if j >= self.cols {
                            break;
                        }
                        if self.masks[blk] & (1u64 << (r_in * self.bc + c_in)) != 0 {
                            out[i * self.cols + j] = bv[r_in * self.bc + c_in];
                        }
                    }
                }
            }
        }
        out
    }

    /// Converts back to CSR. Exact inverse of [`BcsrMatrix::from_csr`]:
    /// the round-trip reproduces the source's pointer, index, and value
    /// arrays verbatim (stored zeros included).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut ptrs: Vec<Idx> = Vec::with_capacity(self.rows + 1);
        let mut idxs: Vec<Idx> = Vec::new();
        let mut vals: Vec<Val> = Vec::new();
        ptrs.push(0);
        for i in 0..self.rows {
            self.for_each_row_entry(i, |c, v| {
                idxs.push(c as Idx);
                vals.push(v);
            });
            ptrs.push(idxs.len() as Idx);
        }
        CsrMatrix::from_parts(self.rows, self.cols, ptrs, idxs, vals)
            .expect("BCSR stores a valid CSR structure")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, CooMatrix};

    #[test]
    fn small_matrix_blocks_and_masks() {
        // 3×5 matrix, 2×2 blocks → ragged right and bottom edges.
        let coo = CooMatrix::from_triplets(
            3,
            5,
            vec![(0, 0, 1.0), (0, 4, 2.0), (1, 1, 3.0), (2, 2, 4.0)],
        )
        .expect("in range");
        let csr = CsrMatrix::from_coo(&coo);
        let b = BcsrMatrix::from_csr(&csr, 2, 2);
        assert_eq!(b.grid(), (2, 3));
        // Block row 0 holds block cols {0, 2}; block row 1 holds {1}.
        assert_eq!(b.block_row_range(0), (0, 2));
        assert_eq!(b.block_row_range(1), (2, 3));
        assert_eq!(b.block_cols(), &[0, 2, 1]);
        assert_eq!(b.num_blocks(), 3);
        assert_eq!(b.nnz(), 4);
        // (0,0) and (1,1) live in block 0 at slots 0 and 3.
        assert_eq!(b.mask(0), 0b1001);
        assert_eq!(b.block_vals(0), &[1.0, 0.0, 0.0, 3.0]);
        // (0,4) is alone in the ragged right-edge block.
        assert_eq!(b.mask(1), 0b0001);
        // (2,2) sits in the ragged bottom block row.
        assert_eq!(b.mask(2), 0b0001);
        assert!((b.occupancy() - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn dense_roundtrip_matches_csr() {
        let m = gen::uniform(37, 53, 5, 11);
        for (br, bc) in [(1, 1), (2, 2), (4, 8), (8, 8), (3, 5)] {
            let b = BcsrMatrix::from_csr(&m, br, bc);
            let mut want = vec![0.0; 37 * 53];
            for i in 0..37 {
                for (c, v) in m.row(i) {
                    want[i * 53 + c as usize] = v;
                }
            }
            assert_eq!(b.to_dense(), want, "{br}x{bc}");
            assert_eq!(b.to_csr(), m, "{br}x{bc}");
        }
    }

    #[test]
    fn stored_zeros_survive_the_roundtrip() {
        // An explicitly stored zero is storage structure, not absence.
        let csr = CsrMatrix::from_parts(2, 4, vec![0, 2, 2], vec![1, 3], vec![0.0, 7.0])
            .expect("valid parts");
        let b = BcsrMatrix::from_csr(&csr, 2, 2);
        assert_eq!(b.nnz(), 2);
        assert_eq!(b.to_csr(), csr);
    }

    #[test]
    fn empty_matrix_is_blockless() {
        let csr = CsrMatrix::from_parts(0, 0, vec![0], vec![], vec![]).expect("valid");
        let b = BcsrMatrix::from_csr(&csr, 4, 4);
        assert_eq!(b.num_blocks(), 0);
        assert_eq!(b.occupancy(), 1.0);
        assert_eq!(b.to_csr(), csr);
    }

    #[test]
    #[should_panic(expected = "1..=64 slots")]
    fn oversized_blocks_are_rejected() {
        let m = gen::uniform(8, 8, 2, 1);
        let _ = BcsrMatrix::from_csr(&m, 16, 16);
    }
}
