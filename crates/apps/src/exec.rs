//! The deterministic DAG executor and the three built-in applications.
//!
//! [`AppExec`] owns one application job: its [`PipelineDag`], the tensor
//! environment carrying intermediates between stages, and the host-side
//! round logic (CG's axpy/dot updates, PageRank's dense contribution
//! phase). The serving layer drives it through a narrow two-call
//! protocol:
//!
//! 1. [`AppExec::next_stage`] — compile (or cache-hit) the next ready
//!    stage and hand back a [`StageBuild`] the caller runs on the engine
//!    (any variant, preemptible mid-stage via the §5.6 snapshot path);
//! 2. [`AppExec::complete_stage`] — once the engine run drains,
//!    materialize the stage's output tensor with a functional pass,
//!    advance the DAG, and run end-of-round host logic (convergence
//!    predicates, iterate updates) when the round closes.
//!
//! The functional pass is a pure re-walk of the program over the memory
//! image, so the output tensors — and therefore every downstream stage's
//! program and image — are independent of how the engine run was
//! scheduled, preempted, or faulted. That is what makes served DAG
//! digests bit-identical to a solo unpreempted run.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use tmu::{MemImage, Program};
use tmu_front::ExprWorkload;
use tmu_kernels::pagerank::PageRank;
use tmu_kernels::sddmm::Sddmm;
use tmu_kernels::spmm::Spmm;
use tmu_kernels::spmv::Spmv;
use tmu_tensor::{gen, CooMatrix, CsrMatrix};

use crate::cache::StageCaches;
use crate::dag::{PipelineDag, StageOp, StageSpec, TensorVal};

/// Which built-in application a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum AppKind {
    /// One GNN layer: SDDMM attention scores, then SpMM aggregation.
    Gnn,
    /// Conjugate-gradient solve: SpMV per iteration plus host axpy/dot,
    /// to a relative-residual tolerance or the iteration cap.
    Cg,
    /// PageRank to convergence: one gather iteration per round plus the
    /// dense contribution update, to an L1 tolerance or the cap.
    PageRank,
}

impl AppKind {
    /// Stable display name, used in reports and bench rows.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Gnn => "gnn",
            AppKind::Cg => "cg",
            AppKind::PageRank => "pagerank",
        }
    }
}

/// The full recipe for one application job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct AppSpec {
    /// Which application.
    pub app: AppKind,
    /// Rows (= cols) of the synthetic square input.
    pub rows: usize,
    /// Nonzeros per row of the synthetic input.
    pub nnz_per_row: usize,
    /// Generator seed.
    pub seed: u64,
    /// Iteration cap for the iterative apps (GNN always runs 1 round).
    pub max_iters: u32,
    /// Lockstep lanes for every stage program.
    pub lanes: usize,
}

impl AppSpec {
    /// Short label for reports, e.g. `"gnn-r64"`.
    pub fn label(&self) -> String {
        format!("{}-r{}", self.app.name(), self.rows)
    }
}

/// A compiled stage, ready to run on any engine variant.
#[derive(Debug, Clone)]
pub struct StageBuild {
    /// Stage name (from the DAG).
    pub name: String,
    /// Round this build belongs to (0-based).
    pub round: u32,
    /// The compiled TMU program (possibly shared via the level-2 cache).
    pub program: Arc<Program>,
    /// The memory image carrying this round's values.
    pub image: Arc<MemImage>,
    /// outQ base address for core 0 (callers add their own job offset).
    pub outq_base: u64,
}

/// What one stage execution cost, for the per-app breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRecord {
    /// Stage name.
    pub stage: String,
    /// Round the stage ran in (0-based).
    pub round: u32,
    /// Engine cycles the caller attributed to the stage.
    pub engine_cycles: u64,
    /// Host cycles charged at the stage boundary (functional
    /// materialization plus any end-of-round dense phase).
    pub host_cycles: u64,
}

/// The workload object backing a pending stage (kept alive so
/// [`AppExec::complete_stage`] can run its functional pass).
enum BuiltStage {
    Sddmm(Box<Sddmm>),
    Spmm(Box<Spmm>),
    Spmv(Box<Spmv>),
    Pr(Box<PageRank>),
    Expr(Box<ExprWorkload>),
}

impl std::fmt::Debug for BuiltStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = match self {
            BuiltStage::Sddmm(_) => "Sddmm",
            BuiltStage::Spmm(_) => "Spmm",
            BuiltStage::Spmv(_) => "Spmv",
            BuiltStage::Pr(_) => "Pr",
            BuiltStage::Expr(_) => "Expr",
        };
        f.write_str(tag)
    }
}

/// Host-side per-app state advanced at each round boundary.
#[derive(Debug)]
enum Logic {
    Gnn,
    Cg {
        x: Vec<f64>,
        r: Vec<f64>,
        p: Vec<f64>,
        rz: f64,
        rz0: f64,
    },
    Pr,
}

/// One application job in flight.
#[derive(Debug)]
pub struct AppExec {
    spec: AppSpec,
    dag: PipelineDag,
    env: BTreeMap<String, TensorVal>,
    done: Vec<bool>,
    round: u32,
    rounds_done: u32,
    logic: Logic,
    pending: Option<(usize, BuiltStage)>,
    records: Vec<StageRecord>,
    finished: bool,
}

impl AppExec {
    /// Builds the job's input tensors (through the level-1 cache, charged
    /// to `tenant`) and its validated DAG.
    ///
    /// # Errors
    ///
    /// Tensor-build or DAG-validation failures, as human-readable text.
    pub fn new(spec: AppSpec, caches: &mut StageCaches, tenant: u32) -> Result<Self, String> {
        let n = spec.rows;
        if n == 0 {
            return Err("application input must have at least one row".into());
        }
        let base_key = format!("uniform:{}:{}:{}", n, spec.nnz_per_row, spec.seed);
        let base = caches.tensor(&base_key, tenant, || {
            Ok(gen::uniform(n, n, spec.nnz_per_row, spec.seed))
        })?;
        let mut env = BTreeMap::new();
        let (dag, logic) = match spec.app {
            AppKind::Gnn => {
                env.insert("A".to_string(), TensorVal::Csr(base));
                let dag = PipelineDag {
                    stages: vec![
                        StageSpec {
                            name: "sddmm".into(),
                            inputs: vec!["A".into()],
                            output: "S".into(),
                            op: StageOp::Sddmm,
                        },
                        StageSpec {
                            name: "spmm".into(),
                            inputs: vec!["S".into()],
                            output: "Z".into(),
                            op: StageOp::SpmmDense,
                        },
                    ],
                };
                (dag, Logic::Gnn)
            }
            AppKind::Cg => {
                let spd_key = format!("cg-spd:{}:{}:{}", n, spec.nnz_per_row, spec.seed);
                let m = caches.tensor(&spd_key, tenant, || spd_from(&base))?;
                let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 13) as f64 / 13.0).collect();
                let r = b.clone();
                let p = r.clone();
                let rz: f64 = r.iter().map(|v| v * v).sum();
                env.insert("M".to_string(), TensorVal::Csr(m));
                env.insert("p".to_string(), TensorVal::Dense(Arc::new(p.clone())));
                let dag = PipelineDag {
                    stages: vec![StageSpec {
                        name: "spmv".into(),
                        inputs: vec!["M".into(), "p".into()],
                        output: "q".into(),
                        op: StageOp::SpmvVec,
                    }],
                };
                (
                    dag,
                    Logic::Cg {
                        x: vec![0.0; n],
                        r,
                        p,
                        rz,
                        rz0: rz,
                    },
                )
            }
            AppKind::PageRank => {
                env.insert("adj".to_string(), TensorVal::Csr(base));
                env.insert(
                    "rank".to_string(),
                    TensorVal::Dense(Arc::new(vec![1.0 / n as f64; n])),
                );
                let dag = PipelineDag {
                    stages: vec![StageSpec {
                        name: "gather".into(),
                        inputs: vec!["adj".into(), "rank".into()],
                        output: "rank_next".into(),
                        op: StageOp::PrGather,
                    }],
                };
                (dag, Logic::Pr)
            }
        };
        let seeds: BTreeSet<String> = env.keys().cloned().collect();
        dag.validate(&seeds)?;
        let done = vec![false; dag.stages.len()];
        Ok(Self {
            spec,
            dag,
            env,
            done,
            round: 0,
            rounds_done: 0,
            logic,
            pending: None,
            records: Vec::new(),
            finished: false,
        })
    }

    /// A generic executor over a caller-supplied DAG (used by tests and
    /// by custom pipelines that are not one of the built-in apps). The
    /// DAG runs for exactly one round; `env` seeds the tensor edges.
    ///
    /// # Errors
    ///
    /// DAG-validation failures, as human-readable text.
    pub fn custom(
        spec: AppSpec,
        dag: PipelineDag,
        env: BTreeMap<String, TensorVal>,
    ) -> Result<Self, String> {
        let seeds: BTreeSet<String> = env.keys().cloned().collect();
        dag.validate(&seeds)?;
        let done = vec![false; dag.stages.len()];
        Ok(Self {
            spec,
            dag,
            env,
            done,
            round: 0,
            rounds_done: 0,
            logic: Logic::Gnn,
            pending: None,
            records: Vec::new(),
            finished: false,
        })
    }

    /// The job's spec.
    pub fn spec(&self) -> &AppSpec {
        &self.spec
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        self.spec.label()
    }

    /// True once the convergence predicate fired or the cap was reached.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Completed rounds (CG/PR iterations; 1 for GNN once finished).
    pub fn iterations(&self) -> u32 {
        self.rounds_done
    }

    /// Per-stage execution records, in completion order.
    pub fn records(&self) -> &[StageRecord] {
        &self.records
    }

    /// A tensor edge's current value, if materialized.
    pub fn tensor(&self, edge: &str) -> Option<&TensorVal> {
        self.env.get(edge)
    }

    /// Compiles the next ready stage, or returns `None` when the job is
    /// finished. At most one stage may be pending at a time.
    ///
    /// # Errors
    ///
    /// A stage is already pending, no stage is ready (malformed DAG), or
    /// the stage build failed.
    pub fn next_stage(
        &mut self,
        caches: &mut StageCaches,
        tenant: u32,
    ) -> Result<Option<StageBuild>, String> {
        if self.finished {
            return Ok(None);
        }
        if self.pending.is_some() {
            return Err("a stage is already pending".into());
        }
        let Some(i) = self.dag.next_ready(&self.done, &self.env) else {
            return Err("no stage is ready (malformed DAG)".into());
        };
        let stage = self.dag.stages[i].clone();
        let lanes = self.spec.lanes;
        let (built, program, image, outq_base) = match &stage.op {
            StageOp::Sddmm => {
                let a = self.input_csr(&stage, 0)?;
                let w = Sddmm::new(&a);
                let key = sig("sddmm", &a, lanes);
                let prog =
                    caches.program(&key, tenant, || Ok(w.build_program((0, a.rows()), lanes)))?;
                let (img, oq) = (w.image_handle(), w.outq_base(0));
                (BuiltStage::Sddmm(Box::new(w)), prog, img, oq)
            }
            StageOp::SpmmDense => {
                let s = self.input_csr(&stage, 0)?;
                let w = Spmm::new(&s);
                let key = sig("spmm", &s, lanes);
                let prog =
                    caches.program(&key, tenant, || Ok(w.build_program((0, s.rows()), lanes)))?;
                let (img, oq) = (w.image_handle(), w.outq_base(0));
                (BuiltStage::Spmm(Box::new(w)), prog, img, oq)
            }
            StageOp::SpmvVec => {
                let m = self.input_csr(&stage, 0)?;
                let p = self.input_dense(&stage, 1)?;
                let w = Spmv::with_vector(&m, p.as_ref().clone());
                let key = sig("spmv", &m, lanes);
                let prog =
                    caches.program(&key, tenant, || Ok(w.build_program((0, m.rows()), lanes)))?;
                let (img, oq) = (w.image_handle(), w.outq_base(0));
                (BuiltStage::Spmv(Box::new(w)), prog, img, oq)
            }
            StageOp::PrGather => {
                let adj = self.input_csr(&stage, 0)?;
                let rank = self.input_dense(&stage, 1)?;
                let w = PageRank::with_ranks(&adj, rank.as_ref().clone());
                let key = sig("pr", &adj, lanes);
                let prog =
                    caches.program(&key, tenant, || Ok(w.build_program((0, adj.rows()), lanes)))?;
                let (img, oq) = (w.image_handle(), w.outq_base(0));
                (BuiltStage::Pr(Box::new(w)), prog, img, oq)
            }
            StageOp::Expr { src } => {
                let base = self.input_csr(&stage, 0)?;
                let w = ExprWorkload::new(src, &base)
                    .map_err(|e| format!("expr stage '{}': {e}", stage.name))?;
                let key = format!(
                    "expr:{src}:{}x{}:{}:{}",
                    base.rows(),
                    base.cols(),
                    base.nnz(),
                    lanes
                );
                let prog = caches.program(&key, tenant, || {
                    w.lowered(lanes)
                        .map(|l| l.program)
                        .map_err(|e| format!("expr stage '{}': {e}", stage.name))
                })?;
                let (img, oq) = (w.image_handle(), w.outq_base());
                (BuiltStage::Expr(Box::new(w)), prog, img, oq)
            }
        };
        self.pending = Some((i, built));
        Ok(Some(StageBuild {
            name: stage.name,
            round: self.round,
            program,
            image,
            outq_base,
        }))
    }

    /// Materializes the pending stage's output (a pure functional pass,
    /// independent of how the engine run was scheduled), advances the
    /// DAG, and — when the round closes — runs the end-of-round host
    /// logic. Returns the host cycles to charge at this stage boundary.
    ///
    /// # Errors
    ///
    /// No stage is pending, or output assembly failed.
    pub fn complete_stage(&mut self, engine_cycles: u64) -> Result<u64, String> {
        let (i, built) = self
            .pending
            .take()
            .ok_or_else(|| "no stage is pending".to_string())?;
        let lanes = self.spec.lanes;
        let round = self.round;
        let out_edge = self.dag.stages[i].output.clone();
        let stage_name = self.dag.stages[i].name.clone();
        let (val, out_elems) = match built {
            BuiltStage::Sddmm(w) => {
                let vals = w.functional(lanes);
                let n = vals.len();
                let s = w.output_matrix(vals)?;
                (TensorVal::Csr(Arc::new(s)), n)
            }
            BuiltStage::Spmm(w) => {
                let z = w.functional(lanes);
                let n = z.len();
                (TensorVal::Dense(Arc::new(z)), n)
            }
            BuiltStage::Spmv(w) => {
                let q = w.functional();
                let n = q.len();
                (TensorVal::Dense(Arc::new(q)), n)
            }
            BuiltStage::Pr(w) => {
                let r = w.functional(lanes);
                let n = r.len();
                (TensorVal::Dense(Arc::new(r)), n)
            }
            BuiltStage::Expr(w) => {
                let m = w
                    .run_functional(lanes)
                    .map_err(|e| format!("expr stage '{stage_name}': {e}"))?;
                let n = m.len();
                (TensorVal::Coords(Arc::new(m)), n)
            }
        };
        self.env.insert(out_edge, val);
        self.done[i] = true;
        // Nominal host charge: two core ops per materialized element.
        let mut host = 2 * out_elems as u64;
        if self.done.iter().all(|d| *d) {
            host += self.end_round()?;
        }
        self.records.push(StageRecord {
            stage: stage_name,
            round,
            engine_cycles,
            host_cycles: host,
        });
        Ok(host)
    }

    /// End-of-round host logic; returns its nominal cycle charge.
    fn end_round(&mut self) -> Result<u64, String> {
        let n = self.spec.rows;
        self.rounds_done += 1;
        let extra = match &mut self.logic {
            Logic::Gnn => {
                self.finished = true;
                0
            }
            Logic::Cg { x, r, p, rz, rz0 } => {
                let q = self
                    .env
                    .get("q")
                    .ok_or("CG round closed without q")?
                    .as_dense("q")?
                    .clone();
                let pq: f64 = p.iter().zip(q.iter()).map(|(a, b)| a * b).sum();
                if pq == 0.0 {
                    self.finished = true;
                } else {
                    let alpha = *rz / pq;
                    for ((xi, pi), (ri, qi)) in
                        x.iter_mut().zip(p.iter()).zip(r.iter_mut().zip(q.iter()))
                    {
                        *xi += alpha * pi;
                        *ri -= alpha * qi;
                    }
                    let rz_new: f64 = r.iter().map(|v| v * v).sum();
                    if rz_new.sqrt() <= 1e-6 * rz0.sqrt() || self.rounds_done >= self.spec.max_iters
                    {
                        self.finished = true;
                    } else {
                        let beta = rz_new / *rz;
                        for (pi, ri) in p.iter_mut().zip(r.iter()) {
                            *pi = ri + beta * *pi;
                        }
                        self.env
                            .insert("p".to_string(), TensorVal::Dense(Arc::new(p.clone())));
                    }
                    *rz = rz_new;
                }
                self.env.remove("q");
                // Two dots and two axpys plus the direction update.
                6 * n as u64
            }
            Logic::Pr => {
                let next = self
                    .env
                    .remove("rank_next")
                    .ok_or("PR round closed without rank_next")?;
                let next = next.as_dense("rank_next")?.clone();
                let prev = self.env.get("rank").ok_or("PR lost rank")?;
                let prev = prev.as_dense("rank")?;
                let delta: f64 = prev
                    .iter()
                    .zip(next.iter())
                    .map(|(a, b)| (a - b).abs())
                    .sum();
                if delta <= 1e-7 * n as f64 || self.rounds_done >= self.spec.max_iters {
                    self.finished = true;
                }
                self.env.insert("rank".to_string(), TensorVal::Dense(next));
                // The dense contribution update phase.
                4 * n as u64
            }
        };
        if !self.finished {
            for d in &mut self.done {
                *d = false;
            }
            self.round += 1;
        }
        Ok(extra)
    }

    fn input_csr(&self, stage: &StageSpec, i: usize) -> Result<Arc<CsrMatrix>, String> {
        let edge = stage
            .inputs
            .get(i)
            .ok_or_else(|| format!("stage '{}' is missing input {i}", stage.name))?;
        let val = self
            .env
            .get(edge)
            .ok_or_else(|| format!("edge '{edge}' is not materialized"))?;
        Ok(Arc::clone(val.as_csr(edge)?))
    }

    fn input_dense(&self, stage: &StageSpec, i: usize) -> Result<Arc<Vec<f64>>, String> {
        let edge = stage
            .inputs
            .get(i)
            .ok_or_else(|| format!("stage '{}' is missing input {i}", stage.name))?;
        let val = self
            .env
            .get(edge)
            .ok_or_else(|| format!("edge '{edge}' is not materialized"))?;
        Ok(Arc::clone(val.as_dense(edge)?))
    }
}

/// Level-2 cache key: stage kind + structural signature. Sound because
/// the compiled program is a function of the input *sizes* only — the
/// sparsity pattern and values live in the memory image.
fn sig(tag: &str, m: &CsrMatrix, lanes: usize) -> String {
    format!("{tag}:{}x{}:{}:{}", m.rows(), m.cols(), m.nnz(), lanes)
}

/// Builds CG's symmetric positive-definite system from a base matrix:
/// `M = (A + Aᵀ)/2` plus a strictly dominant diagonal.
fn spd_from(a: &CsrMatrix) -> Result<CsrMatrix, String> {
    let n = a.rows();
    let mut coo: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for i in 0..n {
        for (j, v) in a.row(i) {
            *coo.entry((i as u32, j)).or_insert(0.0) += 0.5 * v;
            *coo.entry((j, i as u32)).or_insert(0.0) += 0.5 * v;
        }
    }
    let mut rowsum = vec![0.0f64; n];
    for (&(i, j), &v) in &coo {
        if i != j {
            rowsum[i as usize] += v.abs();
        }
    }
    for (i, sum) in rowsum.iter().enumerate().take(n) {
        *coo.entry((i as u32, i as u32)).or_insert(0.0) += 1.0 + sum;
    }
    let trips: Vec<(u32, u32, f64)> = coo.into_iter().map(|((i, j), v)| (i, j, v)).collect();
    let coo = CooMatrix::from_triplets(n, n, trips).map_err(|e| format!("CG system: {e:?}"))?;
    Ok(CsrMatrix::from_coo(&coo))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_completion(spec: AppSpec) -> AppExec {
        let mut caches = StageCaches::new();
        let mut exec = AppExec::new(spec, &mut caches, 0).expect("builds");
        let mut guard = 0;
        while !exec.finished() {
            let b = exec
                .next_stage(&mut caches, 0)
                .expect("stage")
                .expect("not finished");
            assert!(!b.name.is_empty());
            exec.complete_stage(1_000).expect("completes");
            guard += 1;
            assert!(guard < 10_000, "runaway app loop");
        }
        exec
    }

    fn spec(app: AppKind) -> AppSpec {
        AppSpec {
            app,
            rows: 48,
            nnz_per_row: 4,
            seed: 7,
            max_iters: 20,
            lanes: 8,
        }
    }

    #[test]
    fn gnn_runs_one_round_of_two_stages() {
        let exec = run_to_completion(spec(AppKind::Gnn));
        assert_eq!(exec.iterations(), 1);
        let stages: Vec<&str> = exec.records().iter().map(|r| r.stage.as_str()).collect();
        assert_eq!(stages, ["sddmm", "spmm"]);
        // Z is a dense rows × RANK aggregation.
        let z = exec.tensor("Z").expect("Z materialized");
        assert_eq!(
            z.as_dense("Z").expect("dense").len(),
            48 * tmu_kernels::spmm::RANK
        );
    }

    #[test]
    fn cg_converges_within_the_cap_on_an_spd_system() {
        let exec = run_to_completion(spec(AppKind::Cg));
        assert!(exec.iterations() >= 2, "should take several iterations");
        assert!(exec.iterations() <= 20, "respects the cap");
        // The solve actually converged: residual predicate fired early.
        let Logic::Cg { rz, rz0, .. } = &exec.logic else {
            panic!("CG logic")
        };
        assert!(rz.sqrt() <= 1e-6 * rz0.sqrt(), "converged");
    }

    #[test]
    fn cg_respects_the_iteration_cap() {
        let mut s = spec(AppKind::Cg);
        s.max_iters = 2;
        let exec = run_to_completion(s);
        assert_eq!(exec.iterations(), 2);
    }

    #[test]
    fn pagerank_iterates_and_ranks_sum_to_one_ish() {
        let mut s = spec(AppKind::PageRank);
        s.max_iters = 8;
        let exec = run_to_completion(s);
        assert!(exec.iterations() >= 2);
        let rank = exec.tensor("rank").expect("rank");
        let sum: f64 = rank.as_dense("rank").expect("dense").iter().sum();
        // Pull-style PR with degree-1 fix on isolated vertices keeps the
        // mass near 1 (not exact — dangling mass leaks).
        assert!(sum > 0.5 && sum < 1.5, "mass {sum}");
    }

    #[test]
    fn two_executions_are_bit_identical() {
        for app in [AppKind::Gnn, AppKind::Cg, AppKind::PageRank] {
            let a = run_to_completion(spec(app));
            let b = run_to_completion(spec(app));
            assert_eq!(a.iterations(), b.iterations());
            assert_eq!(a.records(), b.records());
        }
    }

    #[test]
    fn program_cache_hits_across_iterations() {
        let mut caches = StageCaches::new();
        let mut s = spec(AppKind::PageRank);
        s.max_iters = 4;
        let mut exec = AppExec::new(s, &mut caches, 3).expect("builds");
        while !exec.finished() {
            exec.next_stage(&mut caches, 3).expect("stage").expect("s");
            exec.complete_stage(0).expect("completes");
        }
        let st = caches.tenant_stats()[&3];
        assert_eq!(st.program_misses, 1, "one compile");
        assert_eq!(
            st.program_hits as u32,
            exec.iterations() - 1,
            "every later round reuses it"
        );
    }

    #[test]
    fn an_expr_stage_runs_through_the_dag() {
        let mut caches = StageCaches::new();
        let base = gen::uniform(24, 24, 3, 11);
        let mut env = BTreeMap::new();
        env.insert("A".to_string(), TensorVal::Csr(Arc::new(base)));
        let dag = PipelineDag {
            stages: vec![StageSpec {
                name: "expr".into(),
                inputs: vec!["A".into()],
                output: "y".into(),
                op: StageOp::Expr {
                    src: "y(i) = A(i,j:csr) * x(j)".into(),
                },
            }],
        };
        let mut exec = AppExec::custom(spec(AppKind::Gnn), dag, env).expect("valid");
        let b = exec
            .next_stage(&mut caches, 0)
            .expect("stage")
            .expect("ready");
        assert_eq!(b.name, "expr");
        exec.complete_stage(500).expect("completes");
        assert!(exec.finished());
        let y = exec.tensor("y").expect("y");
        let TensorVal::Coords(c) = y else {
            panic!("coords")
        };
        assert!(!c.is_empty());
    }

    #[test]
    fn stage_protocol_misuse_is_reported() {
        let mut caches = StageCaches::new();
        let mut exec = AppExec::new(spec(AppKind::Gnn), &mut caches, 0).expect("builds");
        assert!(exec.complete_stage(0).is_err(), "nothing pending");
        exec.next_stage(&mut caches, 0).expect("ok").expect("some");
        assert!(
            exec.next_stage(&mut caches, 0).is_err(),
            "double dispatch rejected"
        );
    }
}
