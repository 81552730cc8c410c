//! Binding concrete tensor storage to expression accesses.
//!
//! A [`TensorData`] is the front-end's format-agnostic view of one bound
//! tensor: a stack of per-level arrays (mirroring
//! `tmu_tensor::level::FormatDescriptor`) plus the value array, each with
//! both host data and its simulated region. The interpreter walks the
//! host arrays; the code generator emits streams over the regions.

use std::collections::BTreeMap;
use std::sync::Arc;

use tmu::MemImage;
use tmu_formats::{FormatKind, FormatMatrix};
use tmu_kernels::data::{CsfOnSim, CsrOnSim, DcsrOnSim, DenseOnSim};
use tmu_kernels::spmv::operand_vector;
use tmu_sim::{AddressMap, Region};
use tmu_tensor::level::LevelFormat;
use tmu_tensor::{gen, CooMatrix, CsfTensor, CsrMatrix, DcsrMatrix};

use crate::ast::Expr;
use crate::{ErrorKind, FrontError, Span};

/// One level of a bound tensor.
#[derive(Debug, Clone)]
pub enum LevelData {
    /// A dense dimension of `size` coordinates (nothing stored).
    Dense {
        /// Dimension size.
        size: usize,
    },
    /// A compressed level: stored coordinates, delimited by the parent's
    /// pointer pair when non-root (`ptrs` is `None` at the root, where
    /// the single fiber spans all stored nodes).
    Compressed {
        /// Pointer array and its region (absent at the root level).
        ptrs: Option<(Arc<Vec<u32>>, Region)>,
        /// Coordinate array and its region.
        idxs: (Arc<Vec<u32>>, Region),
    },
}

/// A tensor bound for both functional interpretation and TMU lowering.
#[derive(Debug, Clone)]
pub struct TensorData {
    /// Name the expression refers to it by.
    pub name: String,
    /// Per-dimension level data, root first.
    pub levels: Vec<LevelData>,
    /// Values and their region.
    pub vals: (Arc<Vec<f64>>, Region),
    /// Logical dimension sizes.
    pub dims: Vec<usize>,
}

impl TensorData {
    /// Wraps a bound CSR matrix (dense rows ∘ compressed columns).
    pub fn from_csr(name: &str, s: &CsrOnSim) -> Self {
        Self {
            name: name.to_owned(),
            levels: vec![
                LevelData::Dense { size: s.rows },
                LevelData::Compressed {
                    ptrs: Some((Arc::clone(&s.ptrs), s.ptrs_r)),
                    idxs: (Arc::clone(&s.idxs), s.idxs_r),
                },
            ],
            vals: (Arc::clone(&s.vals), s.vals_r),
            dims: vec![s.rows, s.cols],
        }
    }

    /// Wraps a bound DCSR matrix (both dimensions compressed).
    pub fn from_dcsr(name: &str, s: &DcsrOnSim) -> Self {
        Self {
            name: name.to_owned(),
            levels: vec![
                LevelData::Compressed {
                    ptrs: None,
                    idxs: (Arc::clone(&s.row_idxs), s.row_idxs_r),
                },
                LevelData::Compressed {
                    ptrs: Some((Arc::clone(&s.row_ptrs), s.row_ptrs_r)),
                    idxs: (Arc::clone(&s.idxs), s.idxs_r),
                },
            ],
            vals: (Arc::clone(&s.vals), s.vals_r),
            dims: vec![s.rows, s.cols],
        }
    }

    /// Wraps a bound CSF tensor (all levels compressed).
    pub fn from_csf(name: &str, s: &CsfOnSim) -> Self {
        let order = s.dims.len();
        let levels = (0..order)
            .map(|l| LevelData::Compressed {
                ptrs: (l > 0).then(|| (Arc::clone(&s.ptrs[l - 1]), s.ptrs_r[l - 1])),
                idxs: (Arc::clone(&s.idxs[l]), s.idxs_r[l]),
            })
            .collect();
        Self {
            name: name.to_owned(),
            levels,
            vals: (Arc::clone(&s.vals), s.vals_r),
            dims: s.dims.clone(),
        }
    }

    /// Wraps a bound dense vector.
    pub fn dense_vec(name: &str, s: &DenseOnSim) -> Self {
        Self {
            name: name.to_owned(),
            levels: vec![LevelData::Dense { size: s.len() }],
            vals: (Arc::clone(&s.data), s.region),
            dims: vec![s.len()],
        }
    }

    /// Wraps a bound sparse vector (one compressed level).
    pub fn sparse_vec(
        name: &str,
        dim: usize,
        idxs: (Arc<Vec<u32>>, Region),
        vals: (Arc<Vec<f64>>, Region),
    ) -> Self {
        Self {
            name: name.to_owned(),
            levels: vec![LevelData::Compressed { ptrs: None, idxs }],
            vals,
            dims: vec![dim],
        }
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.levels.len()
    }

    /// Whether level `l` is compressed.
    pub fn is_compressed(&self, l: usize) -> bool {
        matches!(self.levels[l], LevelData::Compressed { .. })
    }

    /// Position range of the fiber hanging off parent position `parent`
    /// at level `l`. Dense levels span their full dimension; compressed
    /// roots span all stored nodes.
    pub fn fiber(&self, l: usize, parent: usize) -> (usize, usize) {
        match &self.levels[l] {
            LevelData::Dense { size } => (0, *size),
            LevelData::Compressed { ptrs: None, idxs } => (0, idxs.0.len()),
            LevelData::Compressed {
                ptrs: Some((p, _)), ..
            } => (p[parent] as usize, p[parent + 1] as usize),
        }
    }

    /// Coordinate of position `pos` at compressed level `l` (`pos` itself
    /// offset-adjusted for dense levels by the caller).
    pub fn coord(&self, l: usize, pos: usize) -> u32 {
        match &self.levels[l] {
            LevelData::Dense { .. } => pos as u32,
            LevelData::Compressed { idxs, .. } => idxs.0[pos],
        }
    }

    /// Value at leaf position `pos`.
    pub fn value(&self, pos: usize) -> f64 {
        self.vals.0[pos]
    }
}

/// All tensors bound to an expression, by name.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    tensors: BTreeMap<String, TensorData>,
}

impl Bindings {
    /// An empty binding set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a tensor.
    pub fn insert(&mut self, t: TensorData) {
        self.tensors.insert(t.name.clone(), t);
    }

    /// Looks up a tensor, reporting a spanned error against `span`.
    pub fn get(&self, name: &str, span: Span) -> Result<&TensorData, FrontError> {
        self.tensors.get(name).ok_or_else(|| {
            FrontError::new(
                ErrorKind::Binding,
                span,
                format!("no tensor bound for {name:?}"),
            )
        })
    }

    /// Size of index variable `var`, from the first bound access that
    /// binds it.
    pub fn dim_of(&self, expr: &Expr, var: &str) -> Result<usize, FrontError> {
        for a in expr.rhs_accesses() {
            if let Some(l) = a.level_of(var) {
                let t = self.get(&a.tensor, a.span)?;
                if t.order() != a.rank() {
                    return Err(FrontError::new(
                        ErrorKind::Binding,
                        a.span,
                        format!(
                            "{} is bound with order {} but accessed with rank {}",
                            a.tensor,
                            t.order(),
                            a.rank()
                        ),
                    ));
                }
                return Ok(t.dims[l]);
            }
        }
        Err(FrontError::new(
            ErrorKind::Binding,
            Span::point(0),
            format!("index {var:?} appears in no bound access"),
        ))
    }
}

/// The result of [`auto_bind`]: bindings plus the address map and memory
/// image they live in (callers allocate output regions from the same map).
#[derive(Debug)]
pub struct AutoBound {
    /// Bound tensors.
    pub binds: Bindings,
    /// The address map holding every region.
    pub map: AddressMap,
    /// The memory image the TMU's functional engine reads.
    pub image: MemImage,
}

fn name_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Deterministically binds every tensor of `expr`, deriving all operands
/// from `base`:
///
/// * the first distinct rank-2 tensor is `base` itself, the second its
///   transpose, later ones deterministic uniform matrices;
/// * a K-term sum of single DCSR accesses splits `base`'s rows cyclically
///   over the terms (row `i` of term `t` is row `i·K + t` of `base`,
///   the SpKAdd construction);
/// * rank-3 CSF tensors are deterministic random tensors;
/// * rank-1 operands use the deterministic generator formulas of the
///   hand-written kernels (dense `0.5 + (j mod 97)/97`, sparse stride 5
///   with `0.5 + (j mod 67)/67`);
/// * unresolved dimensions default to 32.
pub fn auto_bind(expr: &Expr, base: &CsrMatrix) -> Result<AutoBound, FrontError> {
    let mut map = AddressMap::new();
    let mut image = MemImage::new();
    let mut binds = Bindings::new();
    let mut var_dims: BTreeMap<String, usize> = BTreeMap::new();

    // The K-way DCSR split applies when every term is a single DCSR
    // access over the same index variables.
    let k_split = expr.terms.len() > 1
        && expr.terms.iter().all(|t| {
            t.len() == 1
                && t[0].rank() == 2
                && t[0].level_is_sparse(0)
                && t[0].index_names() == expr.terms[0][0].index_names()
        });
    let k = expr.terms.len();
    let split_rows = base.rows() / k.max(1);
    if k_split && split_rows == 0 {
        return Err(FrontError::new(
            ErrorKind::Binding,
            expr.output.span,
            format!("base matrix has fewer than {k} rows to split"),
        ));
    }

    // Pass 1: pin dimensions from rank-2 accesses against `base`.
    let mut rank2_seen = 0usize;
    for a in expr.rhs_accesses() {
        if a.rank() == 2 {
            let (d0, d1) = if k_split {
                (split_rows, base.cols())
            } else if rank2_seen == 1 {
                (base.cols(), base.rows())
            } else {
                (base.rows(), base.cols())
            };
            var_dims.entry(a.indices[0].name.clone()).or_insert(d0);
            var_dims.entry(a.indices[1].name.clone()).or_insert(d1);
            rank2_seen += 1;
        }
    }
    let dim = |var_dims: &mut BTreeMap<String, usize>, name: &str| -> usize {
        *var_dims.entry(name.to_owned()).or_insert(32)
    };

    let mut rank2_bound = 0usize;
    for (t, term) in expr.terms.iter().enumerate() {
        for a in term {
            if binds.get(&a.tensor, a.span).is_ok() {
                continue;
            }
            let dims: Vec<usize> = a
                .indices
                .iter()
                .map(|ix| dim(&mut var_dims, &ix.name))
                .collect();
            let data = match a.rank() {
                1 if a.level_is_sparse(0) => {
                    let n = dims[0];
                    let idx: Vec<u32> = (0..n).step_by(5).map(|j| j as u32).collect();
                    let val: Vec<f64> = idx.iter().map(|&j| 0.5 + (j % 67) as f64 / 67.0).collect();
                    let idx = Arc::new(idx);
                    let val = Arc::new(val);
                    let idx_r = map.alloc_elems(&format!("{}.idxs", a.tensor), idx.len().max(1), 4);
                    let val_r = map.alloc_elems(&format!("{}.vals", a.tensor), val.len().max(1), 8);
                    image.bind_u32(idx_r, Arc::clone(&idx));
                    image.bind_f64(val_r, Arc::clone(&val));
                    TensorData::sparse_vec(&a.tensor, n, (idx, idx_r), (val, val_r))
                }
                1 => {
                    let n = dims[0];
                    let data = operand_vector(n);
                    let s = DenseOnSim::bind(&mut map, &mut image, &a.tensor, data);
                    TensorData::dense_vec(&a.tensor, &s)
                }
                2 if k_split => {
                    let mut triplets = Vec::new();
                    for i in 0..split_rows {
                        for (c, v) in base.row(i * k + t) {
                            triplets.push((i as u32, c, v));
                        }
                    }
                    let coo = CooMatrix::from_triplets(split_rows, base.cols(), triplets)
                        .expect("rows in range");
                    let m = DcsrMatrix::from_coo(&coo);
                    let s = DcsrOnSim::bind(&mut map, &mut image, &a.tensor, &m);
                    TensorData::from_dcsr(&a.tensor, &s)
                }
                2 => {
                    let m = match rank2_bound {
                        0 => base.clone(),
                        1 => base.transpose(),
                        _ => gen::uniform(dims[0], dims[1], 4, name_seed(&a.tensor)),
                    };
                    if m.rows() != dims[0] || m.cols() != dims[1] {
                        return Err(FrontError::new(
                            ErrorKind::Binding,
                            a.span,
                            format!(
                                "{} needs shape {}×{} but the derived matrix is {}×{}",
                                a.tensor,
                                dims[0],
                                dims[1],
                                m.rows(),
                                m.cols()
                            ),
                        ));
                    }
                    rank2_bound += 1;
                    // Physical level layouts (banded/hashed/blocked) reach
                    // the lowerer through the canonical-stream seam: the
                    // derived matrix is encoded into the annotated layout,
                    // then decoded back to canonical CSR (exact by the
                    // formats crate's round-trip guarantee) and streamed as
                    // CSR. The encode/decode pair is what the generated
                    // conversion routines charge for in the bench ablation.
                    let physical = match a.format.levels()[1] {
                        LevelFormat::Banded => Some(FormatKind::Banded),
                        LevelFormat::Hashed => Some(FormatKind::Hashed),
                        LevelFormat::Blocked => Some(FormatKind::Bcsr),
                        _ => None,
                    };
                    if let Some(kind) = physical {
                        let canonical = FormatMatrix::encode(kind, &m).decode();
                        let s = CsrOnSim::bind(&mut map, &mut image, &a.tensor, &canonical);
                        TensorData::from_csr(&a.tensor, &s)
                    } else if a.level_is_sparse(0) {
                        let d = DcsrMatrix::from_csr(&m);
                        let s = DcsrOnSim::bind(&mut map, &mut image, &a.tensor, &d);
                        TensorData::from_dcsr(&a.tensor, &s)
                    } else {
                        let s = CsrOnSim::bind(&mut map, &mut image, &a.tensor, &m);
                        TensorData::from_csr(&a.tensor, &s)
                    }
                }
                3 => {
                    let nnz = (dims.iter().product::<usize>() / 8).clamp(64, 4096);
                    let coo = gen::random_tensor(&dims, nnz, name_seed(&a.tensor));
                    let csf = CsfTensor::from_coo(&coo);
                    let s = CsfOnSim::bind(&mut map, &mut image, &a.tensor, &csf);
                    TensorData::from_csf(&a.tensor, &s)
                }
                r => {
                    return Err(FrontError::new(
                        ErrorKind::Unsupported,
                        a.span,
                        format!("auto-binding rank-{r} tensors is not supported"),
                    ));
                }
            };
            binds.insert(data);
        }
    }

    Ok(AutoBound { binds, map, image })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    #[test]
    fn auto_bind_spmv_shapes() {
        let e = parse("y(i) = A(i,j:csr) * x(j)").expect("valid");
        let base = gen::uniform(64, 48, 4, 1);
        let b = auto_bind(&e, &base).expect("binds");
        let a = b.binds.get("A", Span::point(0)).expect("A bound");
        assert_eq!(a.dims, vec![64, 48]);
        assert!(!a.is_compressed(0));
        assert!(a.is_compressed(1));
        let x = b.binds.get("x", Span::point(0)).expect("x bound");
        assert_eq!(x.dims, vec![48]);
        assert_eq!(b.binds.dim_of(&e, "j").expect("dim"), 48);
    }

    #[test]
    fn auto_bind_splits_sums() {
        let e = parse("Z(i,j) = A(i,j:dcsr) + B(i,j:dcsr) + C(i,j:dcsr)").expect("valid");
        let base = gen::uniform(96, 32, 4, 2);
        let b = auto_bind(&e, &base).expect("binds");
        for name in ["A", "B", "C"] {
            let t = b.binds.get(name, Span::point(0)).expect("bound");
            assert_eq!(t.dims, vec![32, 32]);
            assert!(t.is_compressed(0) && t.is_compressed(1));
        }
        // The split preserves every non-zero of the base rows it covers.
        let total: usize = ["A", "B", "C"]
            .iter()
            .map(|n| b.binds.get(n, Span::point(0)).expect("bound").vals.0.len())
            .sum();
        let want: usize = (0..96).map(|i| base.row(i).count()).sum();
        assert_eq!(total, want);
    }

    #[test]
    fn auto_bind_transposes_second_matrix() {
        let e = parse("Z(i,j) = A(i,k:csr) * B(k,j:csr)").expect("valid");
        let base = gen::uniform(40, 24, 3, 3);
        let b = auto_bind(&e, &base).expect("binds");
        assert_eq!(
            b.binds.get("A", Span::point(0)).expect("A").dims,
            vec![40, 24]
        );
        assert_eq!(
            b.binds.get("B", Span::point(0)).expect("B").dims,
            vec![24, 40]
        );
    }

    #[test]
    fn fiber_navigation_matches_csr() {
        let m = gen::uniform(16, 16, 3, 4);
        let mut map = AddressMap::new();
        let mut image = MemImage::new();
        let s = CsrOnSim::bind(&mut map, &mut image, "a", &m);
        let t = TensorData::from_csr("a", &s);
        assert_eq!(t.fiber(0, 0), (0, 16));
        for r in 0..16 {
            assert_eq!(t.fiber(1, r), s.row_range(r));
        }
        let (b, e) = t.fiber(1, 3);
        for p in b..e {
            assert_eq!(t.coord(1, p), s.idxs[p]);
            assert_eq!(t.value(p), s.vals[p]);
        }
    }
}
