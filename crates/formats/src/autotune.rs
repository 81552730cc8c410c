//! The format autotuner: fiber statistics → per-input layout decision.
//!
//! A deliberately small analytical cost model in the style the paper's
//! §2 motivates: the dominant cost of a row-streaming sparse kernel on a
//! general-purpose core is the per-element gather chain, and each
//! physical layout buys that chain down differently. Costs are scored in
//! *estimated machine slots per stored entry* — the same unit for every
//! format, so the arg-min is meaningful — with the layout-specific terms:
//!
//! | format | inner cost/nnz               | per-row overhead              |
//! |--------|------------------------------|-------------------------------|
//! | csr    | gather chain (6)             | 3 · rows / nnz                |
//! | dcsr   | gather chain (6)             | 4 · stored rows / nnz         |
//! | bcsr   | full-tile charge / occ       | amortized tile extraction (1) |
//! | banded | 2.5 + 0.25 / (8 · band fill) | 3 · rows / nnz                |
//! | hashed | ∞ for streamed kernels       | —                             |
//!
//! The banded stream replaces the gather chain with statically-addressed
//! loads of the row's band window — no data-dependent addresses, so the
//! loads overlap freely. It still pays for touching the *whole* window:
//! `1 / (band_fill · lanes)` window vector loads per stored entry, each
//! worth a small fraction of a slot ([`WINDOW_COST`]) because they are
//! independent and cache-resident. A nearly empty band (tiny fill) is
//! therefore priced out on traffic, and the format is only *eligible*
//! while the band fits a cache-resident window ([`BAND_WINDOW_COLS`]);
//! past that the locality argument collapses too. Hashed is
//! structurally ineligible for row-streamed kernels — its slots are in
//! hash order, and producing an ordered stream is exactly the
//! hashed→csr conversion — so the model prices it at infinity and the
//! ablation covers it through conversions and point lookups instead.

use tmu_tensor::CsrMatrix;

use crate::stats::FiberStats;
use crate::{FormatKind, BLOCK_COLS, BLOCK_ROWS};

/// Estimated machine slots to resolve one gathered element through the
/// cache hierarchy (index load → address → value load).
const GATHER_COST: f64 = 6.0;
/// Estimated machine slots per element of a banded stream: the window
/// loads carry no data-dependent addresses and overlap freely, leaving
/// the contiguous delta/value chunks plus the vector multiply-add.
const BAND_COST: f64 = 2.5;
/// Machine slots per *window* vector load of the banded stream. Far
/// below a gather slot: the loads are statically addressed, fully
/// overlapped, and mostly cache-resident — but a band filled at only a
/// fraction `f` issues `1/(f·lanes)` of them per stored entry, so they
/// dominate once the band is nearly empty.
const WINDOW_COST: f64 = 0.25;
/// SVE f64 lanes assumed by the window-load count.
const WINDOW_LANES: f64 = 8.0;
/// Per-row bookkeeping slots of the dense-row formats (pointer pair +
/// branch + store).
const ROW_COST: f64 = 3.0;
/// Per-stored-row bookkeeping of DCSR (row index load on top of
/// [`ROW_COST`]).
const DCSR_ROW_COST: f64 = 4.0;
/// Machine slots charged per stored tile: whole-tile loads plus the
/// `2·BR·BC` FLOP micro-kernel, matching the blocked backend's model.
const TILE_COST: f64 = 48.0;
/// Amortized per-entry share of the one-off tile extraction.
const TILE_EXTRACT_COST: f64 = 1.0;
/// Widest band (in columns) the banded stream may assume cache-resident.
pub const BAND_WINDOW_COLS: u64 = 4096;

/// One autotuning decision: the pick, the full scored table, and a
/// human-readable justification.
#[derive(Debug, Clone)]
pub struct Choice {
    /// The winning format.
    pub pick: FormatKind,
    /// Estimated cost per stored entry for every format, in
    /// [`FormatKind::ALL`] order (`f64::INFINITY` marks ineligible).
    pub estimates: Vec<(FormatKind, f64)>,
    /// The measured statistics the decision was made on.
    pub stats: FiberStats,
    /// Why the winner won, in terms of the deciding statistic.
    pub reason: String,
}

/// Scores one format against measured statistics.
fn cost(kind: FormatKind, s: &FiberStats) -> f64 {
    if s.nnz == 0 {
        // Nothing to stream: CSR by fiat, everything else priced out.
        return if kind == FormatKind::Csr {
            0.0
        } else {
            f64::INFINITY
        };
    }
    let nnz = s.nnz as f64;
    match kind {
        FormatKind::Csr => GATHER_COST + ROW_COST * s.rows as f64 / nnz,
        FormatKind::Dcsr => {
            let stored = s.rows as f64 * (1.0 - s.empty_row_frac);
            GATHER_COST + DCSR_ROW_COST * stored / nnz
        }
        FormatKind::Bcsr => {
            if s.tile_occupancy <= 0.0 {
                f64::INFINITY
            } else {
                TILE_COST / ((BLOCK_ROWS * BLOCK_COLS) as f64 * s.tile_occupancy)
                    + TILE_EXTRACT_COST
            }
        }
        FormatKind::Banded => {
            if s.bandwidth() > BAND_WINDOW_COLS {
                f64::INFINITY
            } else {
                BAND_COST
                    + ROW_COST * s.rows as f64 / nnz
                    + WINDOW_COST / (s.band_fill * WINDOW_LANES)
            }
        }
        FormatKind::Hashed => f64::INFINITY,
    }
}

/// Why `pick` won, phrased around the statistic that decided it.
fn explain(pick: FormatKind, s: &FiberStats) -> String {
    match pick {
        FormatKind::Csr => {
            let band = if s.bandwidth() > BAND_WINDOW_COLS {
                format!("band {} cols too wide", s.bandwidth())
            } else {
                format!("band only {:.1}% filled", s.band_fill * 100.0)
            };
            format!(
                "baseline: {band}, tiles {:.0}% occupied, {:.0}% empty rows",
                s.tile_occupancy * 100.0,
                s.empty_row_frac * 100.0
            )
        }
        FormatKind::Dcsr => format!(
            "{:.0}% empty rows make dense row pointers dead weight",
            s.empty_row_frac * 100.0
        ),
        FormatKind::Bcsr => format!(
            "{:.0}%-occupied 4x8 tiles amortize whole-tile vector work",
            s.tile_occupancy * 100.0
        ),
        FormatKind::Banded => format!(
            "band of {} cols ({:.1}% filled) replaces gathers with a static window",
            s.bandwidth(),
            s.band_fill * 100.0
        ),
        FormatKind::Hashed => "hashed never wins streamed kernels".to_owned(),
    }
}

/// Measures `a` and picks its layout. Deterministic: ties resolve to the
/// earliest kind in [`FormatKind::ALL`] order (CSR first, so the
/// baseline wins exact ties).
pub fn pick(a: &CsrMatrix) -> Choice {
    let stats = FiberStats::measure(a);
    let estimates: Vec<(FormatKind, f64)> = FormatKind::ALL
        .into_iter()
        .map(|k| (k, cost(k, &stats)))
        .collect();
    let pick = estimates
        .iter()
        .fold(estimates[0], |best, &e| if e.1 < best.1 { e } else { best })
        .0;
    tmu_trace::with(|tr| {
        let c = tr.component("formats.autotune");
        let idx = FormatKind::ALL.iter().position(|&k| k == pick).unwrap_or(0) as u64;
        let payload = (idx << 32) | (stats.nnz as u64).min(u64::from(u32::MAX));
        tr.event(c, 0, tmu_trace::EventKind::AutotunePick, payload);
    });
    let reason = explain(pick, &stats);
    Choice {
        pick,
        estimates,
        stats,
        reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmu_tensor::{gen, CooMatrix, CsrMatrix};

    #[test]
    fn narrow_band_picks_banded() {
        let c = pick(&gen::banded(256, 16, 7, 5));
        assert_eq!(c.pick, FormatKind::Banded, "{:?}", c.estimates);
        assert!(c.reason.contains("band"), "{}", c.reason);
    }

    #[test]
    fn scattered_uniform_picks_csr() {
        let c = pick(&gen::uniform(128, 65_536, 4, 7));
        assert_eq!(c.pick, FormatKind::Csr, "{:?}", c.estimates);
        // Banded must be priced out, not merely beaten.
        let banded = c.estimates[3];
        assert_eq!(banded.0, FormatKind::Banded);
        assert!(banded.1.is_infinite());
    }

    #[test]
    fn hypersparse_rows_pick_dcsr() {
        // One populated row in sixteen, entries scattered wide: the dense
        // row-pointer walk costs more than the payload.
        let triplets: Vec<(u32, u32, f64)> = (0..512u32)
            .filter(|r| r % 16 == 0)
            .flat_map(|r| (0..4u32).map(move |j| (r, (r * 131 + j * 1777) % 8192, 1.5)))
            .collect();
        let a = CsrMatrix::from_coo(&CooMatrix::from_triplets(512, 8192, triplets).expect("ok"));
        let c = pick(&a);
        assert_eq!(c.pick, FormatKind::Dcsr, "{:?}", c.estimates);
        assert!(c.stats.empty_row_frac > 0.9);
    }

    #[test]
    fn dense_scattered_tiles_pick_bcsr() {
        // Fully dense 4x8 tiles scattered across a wide column range:
        // perfect occupancy, hopeless band.
        let mut triplets = Vec::new();
        for tile in 0..16u32 {
            let (r0, c0) = (tile * 4, ((tile * 347) % 1023) * 8);
            for dr in 0..4 {
                for dc in 0..8 {
                    triplets.push((r0 + dr, c0 + dc, 0.5 + f64::from(dr * 8 + dc)));
                }
            }
        }
        let a = CsrMatrix::from_coo(&CooMatrix::from_triplets(64, 8192, triplets).expect("ok"));
        let c = pick(&a);
        assert!(c.stats.tile_occupancy > 0.99);
        assert_eq!(c.pick, FormatKind::Bcsr, "{:?}", c.estimates);
    }

    #[test]
    fn hashed_is_always_priced_out_of_streaming() {
        let c = pick(&gen::uniform(64, 64, 4, 3));
        let hashed = c.estimates[4];
        assert_eq!(hashed.0, FormatKind::Hashed);
        assert!(hashed.1.is_infinite());
    }

    #[test]
    fn empty_matrix_defaults_to_csr() {
        let a = CsrMatrix::from_parts(8, 8, vec![0; 9], vec![], vec![]).expect("valid");
        assert_eq!(pick(&a).pick, FormatKind::Csr);
    }
}
