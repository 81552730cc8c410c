//! Synthetic input generators replicating the paper's evaluation inputs
//! (Table 6) at simulation-tractable scale.
//!
//! The paper evaluates on six SuiteSparse matrices (M1–M6) and four FROSTT
//! tensors (T1–T4). Those files are not redistributable here and are too
//! large for a from-scratch cycle simulator, so each input is replaced by a
//! deterministic generator matching the *structural statistics* that drive
//! kernel behaviour: rows, nnz-per-row average and skew, and column
//! locality (banded / stencil / power-law / road-network). See DESIGN.md §2
//! for the substitution argument.
//!
//! All generators take an explicit seed and are fully deterministic.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{CooMatrix, CooTensor, CsrMatrix, Idx, Val};

/// Default scale factor applied to the paper's input sizes (rows and nnz are
/// divided by roughly this factor, preserving nnz/row).
pub const DEFAULT_SCALE_DIVISOR: usize = 32;

fn value_for(rng: &mut SmallRng) -> Val {
    // Uniform in [0.5, 1.5): keeps reductions well-conditioned so that
    // baseline/TMU correctness comparisons are not dominated by cancellation.
    0.5 + rng.gen::<Val>()
}

/// Generates a matrix with `nnz_per_row` uniformly random column positions
/// per row.
pub fn uniform(rows: usize, cols: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut triplets = Vec::with_capacity(rows * nnz_per_row);
    for r in 0..rows {
        let mut taken = std::collections::BTreeSet::new();
        while taken.len() < nnz_per_row.min(cols) {
            taken.insert(rng.gen_range(0..cols) as Idx);
        }
        for c in taken {
            triplets.push((r as Idx, c, value_for(&mut rng)));
        }
    }
    let coo = CooMatrix::from_triplets(rows, cols, triplets).expect("generated in bounds");
    CsrMatrix::from_coo(&coo)
}

/// Generates a banded matrix: each row has `nnz_per_row` entries drawn from
/// a window of `bandwidth` columns centred on the diagonal. Models the
/// structural-mechanics inputs (M1 `af_0_k101`, M5 `halfb`): high spatial
/// locality, regular row lengths.
pub fn banded(rows: usize, bandwidth: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut triplets = Vec::with_capacity(rows * nnz_per_row);
    for r in 0..rows {
        let lo = r.saturating_sub(bandwidth / 2);
        let hi = (r + bandwidth / 2 + 1).min(rows);
        let mut taken = std::collections::BTreeSet::new();
        taken.insert(r as Idx); // keep the diagonal
        while taken.len() < nnz_per_row.min(hi - lo) {
            taken.insert(rng.gen_range(lo..hi) as Idx);
        }
        for c in taken {
            triplets.push((r as Idx, c, value_for(&mut rng)));
        }
    }
    let coo = CooMatrix::from_triplets(rows, rows, triplets).expect("generated in bounds");
    CsrMatrix::from_coo(&coo)
}

/// Generates a 3-D finite-difference stencil matrix on an
/// `nx × ny × nz` grid (7-point stencil). Models the fluid-dynamics input
/// (M2 `atmosmodm`): perfectly regular ~7 nnz/row at fixed offsets.
pub fn stencil7(nx: usize, ny: usize, nz: usize, seed: u64) -> CsrMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = nx * ny * nz;
    let at = |x: usize, y: usize, z: usize| (x * ny + y) * nz + z;
    let mut triplets = Vec::with_capacity(n * 7);
    for x in 0..nx {
        for y in 0..ny {
            for z in 0..nz {
                let r = at(x, y, z) as Idx;
                let mut push = |c: usize| {
                    triplets.push((r, c as Idx, value_for(&mut rng)));
                };
                push(at(x, y, z));
                if x > 0 {
                    push(at(x - 1, y, z));
                }
                if x + 1 < nx {
                    push(at(x + 1, y, z));
                }
                if y > 0 {
                    push(at(x, y - 1, z));
                }
                if y + 1 < ny {
                    push(at(x, y + 1, z));
                }
                if z > 0 {
                    push(at(x, y, z - 1));
                }
                if z + 1 < nz {
                    push(at(x, y, z + 1));
                }
            }
        }
    }
    let coo = CooMatrix::from_triplets(n, n, triplets).expect("generated in bounds");
    CsrMatrix::from_coo(&coo)
}

/// Generates an RMAT (Kronecker) power-law graph adjacency matrix with
/// `2^scale` vertices and `edges` edges. Models circuit/semiconductor
/// inputs (M3 `Freescale1`, M6 `test1`) and graph workload inputs: skewed
/// row lengths, poor column locality.
pub fn rmat(scale: u32, edges: usize, seed: u64) -> CsrMatrix {
    let (a, b, c) = (0.57, 0.19, 0.19);
    let n = 1usize << scale;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut triplets = Vec::with_capacity(edges);
    for _ in 0..edges {
        let (mut r, mut cidx) = (0usize, 0usize);
        for _ in 0..scale {
            let p: f64 = rng.gen();
            let (rbit, cbit) = if p < a {
                (0, 0)
            } else if p < a + b {
                (0, 1)
            } else if p < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            r = (r << 1) | rbit;
            cidx = (cidx << 1) | cbit;
        }
        triplets.push((r as Idx, cidx as Idx, value_for(&mut rng)));
    }
    let coo = CooMatrix::from_triplets(n, n, triplets).expect("generated in bounds");
    CsrMatrix::from_coo(&coo)
}

/// Generates a circuit-netlist-like matrix: ~`avg_deg` entries per row of
/// which most are near-diagonal (local cells), a minority are uniform
/// long-range nets, and a small set of hub columns (power/clock rails)
/// appears in many rows. Models circuit-simulation inputs (M3
/// `Freescale1`): skewed column popularity, mostly-local structure, very
/// sparse rows.
pub fn circuit(rows: usize, avg_deg: usize, seed: u64) -> CsrMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_hubs = (rows / 1024).max(1);
    let hubs: Vec<Idx> = (0..n_hubs).map(|_| rng.gen_range(0..rows) as Idx).collect();
    let mut triplets = Vec::with_capacity(rows * avg_deg);
    for r in 0..rows {
        let mut taken = std::collections::BTreeSet::new();
        taken.insert(r as Idx); // diagonal (device self-term)
                                // Local couplings.
        for _ in 0..avg_deg.saturating_sub(2) {
            let off = rng.gen_range(-24i64..=24);
            let c = (r as i64 + off).clamp(0, rows as i64 - 1) as Idx;
            taken.insert(c);
        }
        // Occasional long-range net.
        if rng.gen_bool(0.3) {
            taken.insert(rng.gen_range(0..rows) as Idx);
        }
        // Occasional rail connection.
        if rng.gen_bool(0.1) {
            taken.insert(hubs[rng.gen_range(0..n_hubs)]);
        }
        for c in taken {
            triplets.push((r as Idx, c, value_for(&mut rng)));
        }
    }
    let coo = CooMatrix::from_triplets(rows, rows, triplets).expect("generated in bounds");
    CsrMatrix::from_coo(&coo)
}

/// Generates a road-network-like matrix: ~`avg_degree` entries per row, all
/// close to the diagonal (spatially embedded graph). Models M4 (`gb_osm`):
/// very sparse rows, short fibers, traversal dominated by loop overhead.
pub fn road(rows: usize, avg_degree: usize, seed: u64) -> CsrMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    for r in 0..rows {
        let deg = 1 + rng.gen_range(0..=(2 * avg_degree).saturating_sub(1));
        let mut taken = std::collections::BTreeSet::new();
        for _ in 0..deg {
            // Neighbours within a small window, like OSM node ids.
            let span = 64i64;
            let off = rng.gen_range(-span..=span);
            let c = (r as i64 + off).clamp(0, rows as i64 - 1) as Idx;
            taken.insert(c);
        }
        for c in taken {
            triplets.push((r as Idx, c, value_for(&mut rng)));
        }
    }
    let coo = CooMatrix::from_triplets(rows, rows, triplets).expect("generated in bounds");
    CsrMatrix::from_coo(&coo)
}

/// Generates the Fig. 12c ceiling matrices: every row has exactly `n`
/// non-zeros located at column indexes `0..n-1` — ideal spatio-temporal
/// locality, fixed arithmetic intensity.
pub fn fixed_row(rows: usize, n: usize, seed: u64) -> CsrMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut triplets = Vec::with_capacity(rows * n);
    for r in 0..rows {
        for c in 0..n {
            triplets.push((r as Idx, c as Idx, value_for(&mut rng)));
        }
    }
    let coo = CooMatrix::from_triplets(rows, rows.max(n), triplets).expect("generated in bounds");
    CsrMatrix::from_coo(&coo)
}

/// Generates a random sparse tensor with the given dimensions and `nnz`
/// distinct coordinates. Mode-0 coordinates follow a mild power law (as in
/// real event data) while the remaining modes are uniform.
pub fn random_tensor(dims: &[usize], nnz: usize, seed: u64) -> CooTensor {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut entries = Vec::with_capacity(nnz);
    let mut seen = std::collections::HashSet::with_capacity(nnz);
    let mut guard = 0usize;
    while entries.len() < nnz && guard < nnz * 20 {
        guard += 1;
        let coord: Vec<Idx> = dims
            .iter()
            .enumerate()
            .map(|(d, &size)| {
                if d == 0 {
                    // Squared-uniform: concentrates mass on low indexes.
                    let u: f64 = rng.gen();
                    ((u * u * size as f64) as usize).min(size - 1) as Idx
                } else {
                    rng.gen_range(0..size) as Idx
                }
            })
            .collect();
        if seen.insert(coord.clone()) {
            entries.push((coord, value_for(&mut rng)));
        }
    }
    CooTensor::from_entries(dims.to_vec(), entries).expect("generated in bounds")
}

/// Identifier of a Table 6 input (matrix M1–M6 or tensor T1–T4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
#[allow(missing_docs)]
pub enum InputId {
    M1,
    M2,
    M3,
    M4,
    M5,
    M6,
    T1,
    T2,
    T3,
    T4,
}

impl InputId {
    /// All matrix inputs, in Table 6 order.
    pub const MATRICES: [InputId; 6] = [
        InputId::M1,
        InputId::M2,
        InputId::M3,
        InputId::M4,
        InputId::M5,
        InputId::M6,
    ];

    /// All tensor inputs, in Table 6 order.
    pub const TENSORS: [InputId; 4] = [InputId::T1, InputId::T2, InputId::T3, InputId::T4];

    /// The SuiteSparse / FROSTT name this input stands in for.
    pub fn paper_name(self) -> &'static str {
        match self {
            InputId::M1 => "af_0_k101",
            InputId::M2 => "atmosmodm",
            InputId::M3 => "Freescale1",
            InputId::M4 => "gb_osm",
            InputId::M5 => "halfb",
            InputId::M6 => "test1",
            InputId::T1 => "Chicago-crime",
            InputId::T2 => "LBNL-network",
            InputId::T3 => "NIPS pubs",
            InputId::T4 => "Uber pickups",
        }
    }

    /// Application domain per Table 6.
    pub fn domain(self) -> &'static str {
        match self {
            InputId::M1 => "structural",
            InputId::M2 => "fluid dynamics",
            InputId::M3 => "circuit simulation",
            InputId::M4 => "street network",
            InputId::M5 => "structural",
            InputId::M6 => "semiconductor",
            InputId::T1 => "crime counts",
            InputId::T2 => "network traffic",
            InputId::T3 => "text",
            InputId::T4 => "map",
        }
    }

    /// Short display label ("M1", "T3", …).
    pub fn label(self) -> &'static str {
        match self {
            InputId::M1 => "M1",
            InputId::M2 => "M2",
            InputId::M3 => "M3",
            InputId::M4 => "M4",
            InputId::M5 => "M5",
            InputId::M6 => "M6",
            InputId::T1 => "T1",
            InputId::T2 => "T2",
            InputId::T3 => "T3",
            InputId::T4 => "T4",
        }
    }
}

/// A Table 6 input at reduced scale.
///
/// `scale` divides the paper's row counts (and nnz proportionally) while
/// preserving nnz/row; `scale = 1.0` is the repository default
/// (≈[`DEFAULT_SCALE_DIVISOR`]× smaller than the paper's files), values
/// below 1.0 shrink the input further (the reduced-scale smoke runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaledInput {
    /// Which Table 6 input this is.
    pub id: InputId,
    /// Additional scale multiplier on top of the default reduction.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ScaledInput {
    /// Creates a descriptor for `id` at the default scale.
    pub fn new(id: InputId) -> Self {
        Self {
            id,
            scale: 1.0,
            seed: 0xD15EA5E,
        }
    }

    /// Adjusts the scale multiplier.
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    fn sz(&self, base: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(64)
    }

    /// Builds the matrix for M1–M6.
    ///
    /// # Panics
    ///
    /// Panics if called on a tensor input (T1–T4).
    pub fn matrix(&self) -> CsrMatrix {
        match self.id {
            // af_0_k101: 504K rows, ~35 nnz/row, structural banded.
            InputId::M1 => banded(self.sz(15_744), 512, 35, self.seed),
            // atmosmodm: 1.5M rows, ~7 nnz/row, 3-D stencil.
            InputId::M2 => {
                let side = ((self.sz(46_875) as f64).cbrt().round() as usize).max(4);
                stencil7(side, side, side, self.seed)
            }
            // Freescale1: 3.4M rows, ~5 nnz/row, circuit netlist: mostly
            // local connections plus sparse long-range nets and a few
            // high-degree hubs (power/clock rails).
            InputId::M3 => circuit(self.sz(106_000), 5, self.seed),
            // gb_osm: 7.7M rows, ~2 nnz/row, road network.
            InputId::M4 => road(self.sz(65_536), 2, self.seed),
            // halfb: 225K rows, ~55 nnz/row, structural banded (dense rows).
            InputId::M5 => banded(self.sz(7_040), 1024, 55, self.seed),
            // test1: 393K rows, ~24 nnz/row, semiconductor (mixed).
            InputId::M6 => uniform(self.sz(12_288), self.sz(12_288), 24, self.seed),
            other => panic!("input {other:?} is a tensor, not a matrix"),
        }
    }

    /// Builds the tensor for T1–T4.
    ///
    /// # Panics
    ///
    /// Panics if called on a matrix input (M1–M6).
    pub fn tensor(&self) -> CooTensor {
        match self.id {
            // Chicago-crime: 6K × 24 × 77 × 32, 5M nnz.
            InputId::T1 => random_tensor(
                &[self.sz(6_186).min(6_186), 24, 77, 32],
                self.sz(156_000),
                self.seed,
            ),
            // LBNL-network: 2K × 4K × 2K × 4K, 2M nnz.
            InputId::T2 => random_tensor(&[1_605, 4_198, 1_631, 4_198], self.sz(62_000), self.seed),
            // NIPS pubs: 3K × 3K × 14K × 17, 3M nnz.
            InputId::T3 => random_tensor(
                &[2_482, 2_862, self.sz(14_036).min(14_036), 17],
                self.sz(97_000),
                self.seed,
            ),
            // Uber pickups: 183 × 24 × 1140 × 1717, 3M nnz.
            InputId::T4 => random_tensor(&[183, 24, 1_140, 1_717], self.sz(103_000), self.seed),
            other => panic!("input {other:?} is a matrix, not a tensor"),
        }
    }

    /// Whether this is a matrix input.
    pub fn is_matrix(&self) -> bool {
        matches!(
            self.id,
            InputId::M1 | InputId::M2 | InputId::M3 | InputId::M4 | InputId::M5 | InputId::M6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_deterministic() {
        let a = uniform(64, 64, 4, 7);
        let b = uniform(64, 64, 4, 7);
        assert_eq!(a, b);
        let c = uniform(64, 64, 4, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn banded_stays_in_band() {
        let m = banded(256, 32, 8, 1);
        for r in 0..m.rows() {
            for (c, _) in m.row(r) {
                assert!((c as i64 - r as i64).unsigned_abs() <= 16 + 1);
            }
        }
    }

    #[test]
    fn stencil_has_seven_point_rows() {
        let m = stencil7(6, 6, 6, 1);
        assert_eq!(m.rows(), 216);
        // Interior points have exactly 7 entries.
        let interior = (6 + 1) * 6 + 1;
        assert_eq!(m.row(interior).count(), 7);
        // nnz/row averages just under 7.
        let avg = m.nnz() as f64 / m.rows() as f64;
        assert!(avg > 5.5 && avg <= 7.0, "avg = {avg}");
    }

    #[test]
    fn rmat_is_skewed() {
        let m = rmat(10, 8192, 3);
        let lens: Vec<usize> = (0..m.rows()).map(|r| m.row(r).count()).collect();
        let max = *lens.iter().max().expect("non-empty");
        let avg = m.nnz() as f64 / m.rows() as f64;
        assert!(
            max as f64 > 4.0 * avg,
            "power-law graphs must have heavy rows (max {max}, avg {avg})"
        );
    }

    #[test]
    fn road_is_very_sparse_and_local() {
        let m = road(4096, 2, 5);
        let avg = m.nnz() as f64 / m.rows() as f64;
        assert!(avg < 4.0, "avg = {avg}");
        for (c, _) in m.row(2048) {
            assert!((c as i64 - 2048).unsigned_abs() <= 64);
        }
    }

    #[test]
    fn fixed_row_matches_fig12c_spec() {
        let m = fixed_row(128, 8, 0);
        for r in 0..m.rows() {
            let cols: Vec<_> = m.row(r).map(|(c, _)| c).collect();
            assert_eq!(cols, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn random_tensor_has_unique_sorted_coords() {
        let t = random_tensor(&[32, 16, 8], 256, 11);
        assert_eq!(t.nnz(), 256);
        for p in 1..t.nnz() {
            assert!(t.coord(p - 1) < t.coord(p));
        }
    }

    #[test]
    fn scaled_inputs_build() {
        for id in InputId::MATRICES {
            let m = ScaledInput::new(id).with_scale(0.05).matrix();
            assert!(m.nnz() > 0, "{id:?} empty");
        }
        for id in InputId::TENSORS {
            let t = ScaledInput::new(id).with_scale(0.05).tensor();
            assert!(t.nnz() > 0, "{id:?} empty");
        }
    }

    #[test]
    fn scaled_matrix_preserves_nnz_per_row() {
        let m1 = ScaledInput::new(InputId::M1).with_scale(0.1).matrix();
        let avg = m1.nnz() as f64 / m1.rows() as f64;
        assert!((avg - 35.0).abs() < 3.0, "M1 nnz/row = {avg}, want ≈35");
        let m4 = ScaledInput::new(InputId::M4).with_scale(0.1).matrix();
        let avg4 = m4.nnz() as f64 / m4.rows() as f64;
        assert!(avg4 < 4.0, "M4 nnz/row = {avg4}, want ≈2");
    }
}
