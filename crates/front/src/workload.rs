//! [`Workload`] adapter for compiled expressions.
//!
//! Wraps a parsed, bound, and lowered expression behind the same
//! [`tmu_kernels::Workload`] trait the hand-written kernels implement, so
//! the benchmark harness can sweep arbitrary einsum expressions next to
//! the Table 4 kernels. The software baseline is an approximate
//! TACO-style traversal (pointer loads, index/value vector loads, and
//! per-leaf FMA chains per factor); the TMU side runs the lowered
//! program through a [`tmu::TmuAccelerator`] with the plan-driven
//! [`ExprHandler`].

use std::collections::BTreeMap;
use std::sync::Arc;

use tmu::{MemImage, Program, TmuConfig};
use tmu_kernels::workload::{run_cores, run_engines, run_functional, KernelKind, TmuRun, Workload};
use tmu_sim::{Deps, Machine, Region, RunStats, Site, SystemConfig};
use tmu_tensor::CsrMatrix;

use crate::ast::Expr;
use crate::bindings::{auto_bind, Bindings, LevelData, TensorData};
use crate::graph::{IterationGraph, LoopKind};
use crate::interp::evaluate;
use crate::lower::{lower, ExprHandler, Lowered};
use crate::FrontError;

const S_PTR: u16 = 410;
const S_IDX: u16 = 411;
const S_VAL: u16 = 412;
const S_STORE: u16 = 413;
const S_BR: u16 = 414;

/// A compiled-expression workload: parse → graph → bind → lower, behind
/// the same harness interface as the hand-written kernels.
#[derive(Debug)]
pub struct ExprWorkload {
    expr: Expr,
    graph: IterationGraph,
    binds: Bindings,
    image: Arc<MemImage>,
    z_r: Region,
    z_cap: usize,
    outq_r: Region,
    kind: KernelKind,
    oracle: BTreeMap<Vec<u32>, f64>,
}

impl ExprWorkload {
    /// Compiles `src` against tensors derived from `base` (see
    /// [`auto_bind`]) and validates that it lowers.
    ///
    /// # Errors
    ///
    /// Propagates parse, graph, binding, and lowering errors.
    pub fn new(src: &str, base: &CsrMatrix) -> Result<Self, FrontError> {
        let expr = crate::parse::parse(src)?;
        let graph = IterationGraph::build(&expr)?;
        let mut ab = auto_bind(&expr, base)?;
        // Validate lowering early so the harness entry points can't fail.
        lower(&expr, &graph, &ab.binds, 8)?;
        let oracle = evaluate(&expr, &graph, &ab.binds)?;
        let z_cap = oracle.len().max(1);
        let z_r = ab.map.alloc_elems("z_expr", z_cap, 8);
        let outq_r = ab.map.alloc("outq_expr", 1 << 20);
        let kind = if graph.loops.iter().any(|l| l.kind == LoopKind::Disj) {
            KernelKind::MergeIntensive
        } else if graph.loops.len() >= 3 {
            KernelKind::ComputeIntensive
        } else {
            KernelKind::MemoryIntensive
        };
        Ok(Self {
            expr,
            graph,
            binds: ab.binds,
            image: Arc::new(ab.image),
            z_r,
            z_cap,
            outq_r,
            kind,
            oracle,
        })
    }

    /// The parsed expression.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// The iteration graph (merge lattice) of the expression.
    pub fn graph(&self) -> &IterationGraph {
        &self.graph
    }

    /// The interpreter's result, keyed by output coordinates.
    pub fn oracle(&self) -> &BTreeMap<Vec<u32>, f64> {
        &self.oracle
    }

    /// The bound tensors (alternative backends recompile the expression
    /// against the exact storage the oracle was evaluated on).
    pub fn bindings(&self) -> &Bindings {
        &self.binds
    }

    /// Shared memory image (for standalone engine experiments).
    pub fn image_handle(&self) -> Arc<MemImage> {
        Arc::clone(&self.image)
    }

    /// outQ base address of this expression's engine.
    pub fn outq_base(&self) -> u64 {
        self.outq_r.base
    }

    /// Lowers the expression with `lanes` lockstep lanes.
    ///
    /// # Errors
    ///
    /// Propagates lowering errors (shapes are pre-validated in [`Self::new`],
    /// so this only fails for lane counts outside what the shape allows).
    pub fn lowered(&self, lanes: usize) -> Result<Lowered, FrontError> {
        lower(&self.expr, &self.graph, &self.binds, lanes)
    }

    /// Functionally executes the lowered program, returning the result map.
    ///
    /// # Errors
    ///
    /// Propagates lowering errors.
    pub fn run_functional(&self, lanes: usize) -> Result<BTreeMap<Vec<u32>, f64>, FrontError> {
        let mut mapping = Some(self.engine(lanes)?);
        let handlers = run_functional(&self.image, &[()], |_, ()| {
            mapping.take().expect("one shard takes the one mapping")
        });
        Ok(handlers
            .into_iter()
            .flat_map(ExprHandler::into_out)
            .collect())
    }

    /// The engine mapping: the program lowered with `lanes` lockstep lanes
    /// and its plan-driven handler.
    fn engine(&self, lanes: usize) -> Result<(Program, ExprHandler), FrontError> {
        let lowered = self.lowered(lanes)?;
        let handler = ExprHandler::new(lowered.plan, self.z_r, self.z_cap);
        Ok((lowered.program, handler))
    }
}

/// Emits the approximate TACO-style baseline for one factor's fiber tree.
fn walk_factor<M: Machine + ?Sized>(
    m: &mut M,
    d: &TensorData,
    level: usize,
    pos: usize,
    vl: usize,
) {
    let is_leaf = level + 1 == d.order();
    match &d.levels[level] {
        LevelData::Dense { size } => {
            if is_leaf {
                let mut c = 0;
                while c < *size {
                    let n = (*size - c).min(vl);
                    let v = m.vec_load(
                        Site(S_VAL),
                        d.vals.1.f64_at(pos * size + c),
                        (n * 8) as u32,
                        Deps::NONE,
                    );
                    m.vec_op(n as u32, Deps::from(v));
                    c += n;
                    m.branch(Site(S_BR), c < *size, Deps::NONE);
                }
            } else {
                for c in 0..*size {
                    walk_factor(m, d, level + 1, pos * size + c, vl);
                    m.branch(Site(S_BR), c + 1 < *size, Deps::NONE);
                }
            }
        }
        LevelData::Compressed { ptrs, idxs } => {
            let (beg, end) = d.fiber(level, pos);
            let bounds = if let Some((_, r)) = ptrs {
                let b0 = m.load(Site(S_PTR), r.u32_at(pos), 4, Deps::NONE);
                let b1 = m.load(Site(S_PTR), r.u32_at(pos + 1), 4, Deps::NONE);
                Deps::on(&[b0, b1])
            } else {
                Deps::NONE
            };
            if is_leaf {
                let mut p = beg;
                while p < end {
                    let n = (end - p).min(vl);
                    let iv = m.vec_load(Site(S_IDX), idxs.1.u32_at(p), (n * 4) as u32, bounds);
                    let vv = m.vec_load(Site(S_VAL), d.vals.1.f64_at(p), (n * 8) as u32, bounds);
                    m.vec_op((2 * n) as u32, Deps::on(&[iv, vv]));
                    p += n;
                    m.branch(Site(S_BR), p < end, bounds);
                }
            } else {
                for p in beg..end {
                    m.load(Site(S_IDX), idxs.1.u32_at(p), 4, bounds);
                    walk_factor(m, d, level + 1, p, vl);
                    m.branch(Site(S_BR), p + 1 < end, bounds);
                }
            }
        }
    }
}

impl Workload for ExprWorkload {
    fn name(&self) -> &'static str {
        "Expr"
    }

    fn kind(&self) -> KernelKind {
        self.kind
    }

    fn run_baseline(&self, cfg: SystemConfig) -> RunStats {
        let vl = cfg.core.sve_lanes();
        run_cores(cfg, &[()], |m, _, ()| {
            for a in self.expr.rhs_accesses() {
                let d = self.binds.get(&a.tensor, a.span);
                walk_factor(m, d.expect("bindings validated in new"), 0, 0, vl);
            }
            for i in 0..self.oracle.len() {
                m.store(
                    Site(S_STORE),
                    self.z_r.f64_at(i % self.z_cap),
                    8,
                    Deps::NONE,
                );
            }
        })
    }

    fn run_tmu(&self, cfg: SystemConfig, tmu: TmuConfig) -> TmuRun {
        let outq = std::slice::from_ref(&self.outq_r);
        run_engines(cfg, tmu, &self.image, outq, &[()], |_, ()| {
            self.engine(tmu.lanes).expect("lowering validated in new")
        })
    }

    fn verify(&self) -> Result<(), String> {
        let got = self.run_functional(8).map_err(|e| e.to_string())?;
        compare_maps("Expr", &got, &self.oracle, 1e-9)
    }
}

/// Compares two coordinate-keyed result maps, treating missing entries as
/// explicit zeros (compiled programs emit 0.0 rows for empty fibers).
///
/// # Errors
///
/// Returns a description of the first mismatch.
pub fn compare_maps(
    what: &str,
    got: &BTreeMap<Vec<u32>, f64>,
    want: &BTreeMap<Vec<u32>, f64>,
    tol: f64,
) -> Result<(), String> {
    let keys: std::collections::BTreeSet<&Vec<u32>> = got.keys().chain(want.keys()).collect();
    for k in keys {
        let g = got.get(k).copied().unwrap_or(0.0);
        let w = want.get(k).copied().unwrap_or(0.0);
        let scale = w.abs().max(1e-30);
        if (g - w).abs() / scale > tol {
            return Err(format!("{what}: mismatch at {k:?}: got {g}, want {w}"));
        }
    }
    Ok(())
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
    fn spmv_expression_verifies_end_to_end() {
        let w = ExprWorkload::new("y(i) = A(i,j:csr) * x(j)", &gen::uniform(128, 96, 5, 21))
            .expect("compiles");
        w.verify().expect("compiled SpMV matches the interpreter");
        assert_eq!(w.kind(), KernelKind::MemoryIntensive);
    }

    #[test]
    fn sum_expression_is_merge_intensive_and_runs() {
        let w = ExprWorkload::new(
            "Z(i,j) = A(i,j:dcsr) + B(i,j:dcsr)",
            &gen::uniform(64, 48, 4, 5),
        )
        .expect("compiles");
        assert_eq!(w.kind(), KernelKind::MergeIntensive);
        w.verify().expect("compiled sum matches the interpreter");
        let run = w.run_tmu(small_cfg(1), TmuConfig::paper());
        assert!(run.stats.cycles > 0);
        assert!(run.outq.iter().any(|o| o.entries > 0));
    }

    #[test]
    fn baseline_emits_work() {
        let w = ExprWorkload::new("y(i) = A(i,j:csr) * x(j)", &gen::uniform(64, 64, 4, 9))
            .expect("compiles");
        let stats = w.run_baseline(small_cfg(1));
        assert!(stats.cycles > 0);
        assert!(stats.total().loads > 0);
    }
}
