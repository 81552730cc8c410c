//! The hierarchical *level format* abstraction of Chou et al. (§2.2).
//!
//! Every tensor compression format is a stack of per-dimension level
//! formats: CSR = dense ∘ compressed, DCSR = compressed ∘ compressed,
//! COO = singleton^n, CSF = compressed^n. The TMU's traversal primitives
//! (Table 1) are exactly the level functions of §2.3, so this module is the
//! vocabulary used to prove the engine *tensor-format complete*: any stack
//! of these levels can be traversed by composing TMU layers.

use crate::{CooMatrix, CsrMatrix, DcsrMatrix};

/// A single level of a hierarchical tensor format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum LevelFormat {
    /// All `size` coordinates are materialized; traversed with a plain
    /// counted loop (TMU `DnsFbrT`).
    Dense {
        /// Dimension size.
        size: usize,
    },
    /// Only non-empty coordinates are stored behind a pointer pair;
    /// traversed with a pointer-delimited loop (TMU `RngFbrT`).
    Compressed,
    /// One coordinate per parent position, no pointer structure (COO
    /// levels); traversed alongside the parent (TMU `DnsFbrT` over
    /// positions + a `mem` stream per singleton level).
    Singleton,
    /// Non-empty coordinates stored as narrow deltas from a per-parent
    /// band origin behind a pointer pair (diagonal/stencil matrices);
    /// traversed like [`LevelFormat::Compressed`] with an affine
    /// coordinate decode (`tmu-formats` banded level).
    Banded,
    /// Non-empty coordinates stored in a per-parent open-addressing
    /// table; position order is *not* coordinate order, so ordered
    /// traversal goes through a sorted canonical materialization
    /// (`tmu-formats` hashed level).
    Hashed,
    /// Coordinates grouped into dense sub-blocks behind a block pointer
    /// pair (BCSR); traversed per stored block with an occupancy mask
    /// (`tmu-formats` blocked level over `BcsrMatrix`).
    Blocked,
}

impl LevelFormat {
    /// Whether traversing this level needs a data-dependent loop bound.
    pub fn is_data_dependent(self) -> bool {
        matches!(
            self,
            LevelFormat::Compressed
                | LevelFormat::Banded
                | LevelFormat::Hashed
                | LevelFormat::Blocked
        )
    }
}

/// A complete format: one level per tensor dimension, root first.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FormatDescriptor {
    levels: Vec<LevelFormat>,
}

impl FormatDescriptor {
    /// Builds a descriptor from a level stack.
    pub fn new(levels: Vec<LevelFormat>) -> Self {
        Self { levels }
    }

    /// The level stack, root first.
    pub fn levels(&self) -> &[LevelFormat] {
        &self.levels
    }

    /// Tensor order described by this format.
    pub fn order(&self) -> usize {
        self.levels.len()
    }

    /// Descriptor for CSR: dense rows over compressed columns.
    pub fn csr(rows: usize) -> Self {
        Self::new(vec![
            LevelFormat::Dense { size: rows },
            LevelFormat::Compressed,
        ])
    }

    /// Descriptor for DCSR: both dimensions compressed.
    pub fn dcsr() -> Self {
        Self::new(vec![LevelFormat::Compressed, LevelFormat::Compressed])
    }

    /// Descriptor for order-`n` COO: all singleton levels.
    pub fn coo(order: usize) -> Self {
        Self::new(vec![LevelFormat::Singleton; order])
    }

    /// Descriptor for order-`n` CSF: all compressed levels.
    pub fn csf(order: usize) -> Self {
        Self::new(vec![LevelFormat::Compressed; order])
    }

    /// Descriptor for a fully dense tensor.
    pub fn dense(dims: &[usize]) -> Self {
        Self::new(
            dims.iter()
                .map(|&size| LevelFormat::Dense { size })
                .collect(),
        )
    }

    /// Descriptor for a banded matrix: dense rows over a banded level.
    pub fn banded(rows: usize) -> Self {
        Self::new(vec![LevelFormat::Dense { size: rows }, LevelFormat::Banded])
    }

    /// Descriptor for a hashed matrix: dense rows over a hashed level.
    pub fn hashed(rows: usize) -> Self {
        Self::new(vec![LevelFormat::Dense { size: rows }, LevelFormat::Hashed])
    }

    /// Descriptor for a BCSR matrix: dense block rows over a blocked
    /// level.
    pub fn bcsr(rows: usize) -> Self {
        Self::new(vec![
            LevelFormat::Dense { size: rows },
            LevelFormat::Blocked,
        ])
    }

    /// Resolves a textual format annotation (as written in expression
    /// front-end accesses, e.g. `A(i,j:csr)`) to its level stack for a
    /// rank-`rank` access. The annotation names the whole-tensor format;
    /// dense level sizes are unknown at annotation time and come back as
    /// zero placeholders (callers query [`LevelFormat::is_data_dependent`],
    /// not sizes). Returns `None` when the annotation exists but cannot
    /// describe a tensor of this rank (a rank mismatch, distinct from an
    /// unknown annotation — see [`KNOWN_ANNOTATIONS`]).
    /// Annotation names are matched case-insensitively (`A(i,j:CSR)` and
    /// `A(i,j:csr)` name the same format).
    pub fn from_annotation(name: &str, rank: usize) -> Option<Self> {
        match (name.to_ascii_lowercase().as_str(), rank) {
            (_, 0) => None,
            ("dense", r) => Some(Self::dense(&vec![0; r])),
            ("sparse", 1) => Some(Self::new(vec![LevelFormat::Compressed])),
            ("csr", 2) => Some(Self::csr(0)),
            ("dcsr", 2) => Some(Self::dcsr()),
            ("coo", r) => Some(Self::coo(r)),
            ("csf", r) => Some(Self::csf(r)),
            ("banded", 2) => Some(Self::banded(0)),
            ("hashed", 2) => Some(Self::hashed(0)),
            ("bcsr", 2) => Some(Self::bcsr(0)),
            _ => None,
        }
    }

    /// The format conventionally assumed when an access carries no
    /// annotation: dense vectors, CSR matrices, CSF for higher orders.
    pub fn default_for_rank(rank: usize) -> Option<Self> {
        match rank {
            0 => None,
            1 => Some(Self::dense(&[0])),
            2 => Some(Self::csr(0)),
            r => Some(Self::csf(r)),
        }
    }

    /// Number of levels whose traversal has data-dependent control flow —
    /// the property that generates the branch mispredictions of §3.
    pub fn data_dependent_levels(&self) -> usize {
        self.levels.iter().filter(|l| l.is_data_dependent()).count()
    }

    /// Index-array words needed to store `nnz` non-zeros with `per_level`
    /// node counts, per the storage model of §2.2.
    ///
    /// `node_counts[l]` is the number of stored nodes at level `l`
    /// (e.g. non-empty rows at a compressed level). Dense levels cost
    /// nothing; compressed levels cost one pointer per node plus one index
    /// per child; singleton levels cost one index per non-zero.
    pub fn index_words(&self, node_counts: &[usize], nnz: usize) -> usize {
        let mut words = 0usize;
        for (l, level) in self.levels.iter().enumerate() {
            // Number of parent positions this level hangs off.
            let parents = if l == 0 {
                1
            } else {
                node_counts.get(l - 1).copied().unwrap_or(nnz)
            };
            match level {
                LevelFormat::Dense { .. } => {}
                LevelFormat::Compressed => {
                    // ptrs (one per parent + 1) + idxs (one per own node).
                    words += parents + 1 + node_counts.get(l).copied().unwrap_or(nnz);
                }
                LevelFormat::Singleton => {
                    words += nnz;
                }
                LevelFormat::Banded => {
                    // Same layout as compressed — a pointer pair per
                    // parent plus one (narrow) delta word per node.
                    words += parents + 1 + node_counts.get(l).copied().unwrap_or(nnz);
                }
                LevelFormat::Hashed => {
                    // Slot offsets per parent plus an open-addressing
                    // table sized ~2× the stored nodes (the tmu-formats
                    // hashed level's load-factor bound).
                    words += parents + 1 + 2 * node_counts.get(l).copied().unwrap_or(nnz);
                }
                LevelFormat::Blocked => {
                    // Block pointer pair per parent, then per stored
                    // block: a block column plus a 64-bit occupancy mask
                    // (two u32 words).
                    words += parents + 1 + 3 * node_counts.get(l).copied().unwrap_or(nnz);
                }
            }
        }
        words
    }
}

/// Annotation names [`FormatDescriptor::from_annotation`] understands.
/// A name outside this list is an *unknown format*; a name inside it that
/// still resolves to `None` is a *rank mismatch* — front-ends report the
/// two differently.
pub const KNOWN_ANNOTATIONS: [&str; 9] = [
    "dense", "sparse", "csr", "dcsr", "coo", "csf", "banded", "hashed", "bcsr",
];

/// Measured storage statistics of a concrete matrix under each format,
/// supporting the format-selection rules of §2.2 (`CSR` beats `COO` when
/// `nnz > rows + 1`; `DCSR` beats `CSR` when `rows > 2 × nonempty`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MatrixStorageReport {
    /// Index words used by COO.
    pub coo_words: usize,
    /// Index words used by CSR.
    pub csr_words: usize,
    /// Index words used by DCSR.
    pub dcsr_words: usize,
}

impl MatrixStorageReport {
    /// Measures a matrix (given as COO) under all three matrix formats.
    pub fn measure(coo: &CooMatrix) -> Self {
        let csr = CsrMatrix::from_coo(coo);
        let dcsr = DcsrMatrix::from_csr(&csr);
        Self {
            coo_words: 2 * coo.nnz(),
            csr_words: csr.row_ptrs().len() + csr.col_idxs().len(),
            dcsr_words: dcsr.index_words(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    #[test]
    fn descriptors_have_expected_shapes() {
        assert_eq!(FormatDescriptor::csr(10).order(), 2);
        assert_eq!(FormatDescriptor::coo(3).order(), 3);
        assert_eq!(FormatDescriptor::csf(4).data_dependent_levels(), 4);
        assert_eq!(FormatDescriptor::csr(10).data_dependent_levels(), 1);
        assert_eq!(FormatDescriptor::dense(&[2, 3]).data_dependent_levels(), 0);
    }

    #[test]
    fn annotations_resolve_per_rank() {
        let csr = FormatDescriptor::from_annotation("csr", 2).expect("csr is rank 2");
        assert_eq!(csr.data_dependent_levels(), 1);
        assert!(!csr.levels()[0].is_data_dependent());
        assert!(csr.levels()[1].is_data_dependent());
        assert_eq!(
            FormatDescriptor::from_annotation("csf", 3)
                .expect("csf is any rank")
                .data_dependent_levels(),
            3
        );
        // Rank mismatches and unknown names both come back None; the
        // KNOWN_ANNOTATIONS list lets callers tell them apart.
        assert!(FormatDescriptor::from_annotation("csr", 1).is_none());
        assert!(FormatDescriptor::from_annotation("sparse", 2).is_none());
        assert!(FormatDescriptor::from_annotation("blocked", 2).is_none());
        assert!(KNOWN_ANNOTATIONS.contains(&"csr"));
        assert!(!KNOWN_ANNOTATIONS.contains(&"blocked"));
        // The physical-layout annotations resolve only at rank 2, each to
        // a dense level over one data-dependent physical level.
        for name in ["banded", "hashed", "bcsr"] {
            assert!(KNOWN_ANNOTATIONS.contains(&name));
            let f = FormatDescriptor::from_annotation(name, 2).expect("rank 2");
            assert_eq!(f.order(), 2);
            assert!(!f.levels()[0].is_data_dependent());
            assert!(f.levels()[1].is_data_dependent());
            assert!(FormatDescriptor::from_annotation(name, 3).is_none());
        }
        // Annotation lookup is case-insensitive.
        assert_eq!(
            FormatDescriptor::from_annotation("BANDED", 2),
            FormatDescriptor::from_annotation("banded", 2)
        );
        assert_eq!(
            FormatDescriptor::from_annotation("Csr", 2),
            FormatDescriptor::from_annotation("csr", 2)
        );
        // Defaults: dense vectors, CSR matrices, CSF tensors.
        assert_eq!(
            FormatDescriptor::default_for_rank(1)
                .expect("rank 1")
                .data_dependent_levels(),
            0
        );
        assert_eq!(
            FormatDescriptor::default_for_rank(2).expect("rank 2"),
            FormatDescriptor::csr(0)
        );
        assert_eq!(
            FormatDescriptor::default_for_rank(4).expect("rank 4"),
            FormatDescriptor::csf(4)
        );
        assert!(FormatDescriptor::default_for_rank(0).is_none());
    }

    #[test]
    fn csr_beats_coo_when_dense_rows() {
        // 100 rows, 1000 nnz: nnz > rows + 1 so CSR must use fewer words.
        let triplets: Vec<_> = (0..1000)
            .map(|i| ((i / 10) as u32, (i % 10) as u32, 1.0))
            .collect();
        let coo = CooMatrix::from_triplets(100, 10, triplets).expect("valid");
        let report = MatrixStorageReport::measure(&coo);
        assert!(report.csr_words < report.coo_words);
    }

    #[test]
    fn dcsr_beats_csr_when_hypersparse() {
        // 1000 rows but only 10 non-empty: rows > 2 × nonempty.
        let triplets: Vec<_> = (0..10).map(|i| ((i * 100) as u32, 0, 1.0)).collect();
        let coo = CooMatrix::from_triplets(1000, 4, triplets).expect("valid");
        let report = MatrixStorageReport::measure(&coo);
        assert!(report.dcsr_words < report.csr_words);
    }

    #[test]
    fn index_words_model_matches_csr() {
        let triplets: Vec<_> = (0..100)
            .map(|i| ((i / 10) as u32, (i % 10) as u32, 1.0))
            .collect();
        let coo = CooMatrix::from_triplets(10, 10, triplets).expect("valid");
        let desc = FormatDescriptor::csr(10);
        // node_counts: 10 rows at level 0, 100 column nodes at level 1.
        let modeled = desc.index_words(&[10, 100], 100);
        let measured = MatrixStorageReport::measure(&coo).csr_words;
        assert_eq!(modeled, measured);
    }
}
