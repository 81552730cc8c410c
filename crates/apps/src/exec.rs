//! The three built-in applications and their stage-chain executor.
//!
//! Each [`AppKind`] is a fixed chain of [`StageOp`]s that runs in order
//! every round. [`AppExec`] owns one application job: its typed per-app
//! state (the round's inputs and intermediates) and the host-side round
//! logic (CG's axpy/dot updates, PageRank's dense contribution phase).
//! The serving layer drives it through a narrow two-call protocol:
//!
//! 1. [`AppExec::next_stage`] — compile (or cache-hit) the round's next
//!    stage and hand back a [`StageBuild`] the caller runs on the engine
//!    (any variant, preemptible mid-stage via the §5.6 snapshot path);
//! 2. [`AppExec::complete_stage`] — once the engine run drains,
//!    materialize the stage's output with a functional pass, advance the
//!    chain, and run end-of-round host logic (convergence predicates,
//!    iterate updates) when the round closes.
//!
//! The functional pass is a pure re-walk of the program over the memory
//! image, so the stage outputs — and therefore every later stage's
//! program and image — are independent of how the engine run was
//! scheduled, preempted, or faulted. That is what makes served app
//! digests bit-identical to a solo unpreempted run.

use std::collections::BTreeMap;
use std::sync::Arc;

use tmu::{MemImage, Program};
use tmu_kernels::pagerank::PageRank;
use tmu_kernels::sddmm::Sddmm;
use tmu_kernels::spmm::Spmm;
use tmu_kernels::spmv::Spmv;
use tmu_tensor::{gen, CooMatrix, CsrMatrix};

use crate::cache::StageCaches;

/// Lockstep lanes every stage program is built for (the paper
/// configuration; the serving layer builds its kernel jobs the same way).
pub const SERVE_LANES: usize = 8;

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

    /// One round's stage ops, in run order.
    pub(crate) fn stages(self) -> &'static [StageOp] {
        match self {
            AppKind::Gnn => &[StageOp::Sddmm, StageOp::SpmmDense],
            AppKind::Cg => &[StageOp::SpmvVec],
            AppKind::PageRank => &[StageOp::PrGather],
        }
    }
}

/// The operation a stage runs on the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOp {
    /// `S = A .* (U · Vᵀ)`: sampled dense-dense product over `A`'s
    /// sparse pattern. Output is CSR with `A`'s pattern.
    Sddmm,
    /// `Z = S · B`: sparse × dense-RANK product. Output is a dense
    /// row-major `rows × RANK` matrix.
    SpmmDense,
    /// `q = M · p`: CG's system matrix times its search direction.
    SpmvVec,
    /// One PageRank gather iteration: the in-adjacency and the current
    /// rank vector give the next rank vector.
    PrGather,
}

impl StageOp {
    /// Stable display name, used in records and bench rows.
    pub fn name(self) -> &'static str {
        match self {
            StageOp::Sddmm => "sddmm",
            StageOp::SpmmDense => "spmm",
            StageOp::SpmvVec => "spmv",
            StageOp::PrGather => "gather",
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
    /// Stage name ([`StageOp::name`]).
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
}

impl std::fmt::Debug for BuiltStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = match self {
            BuiltStage::Sddmm(_) => "Sddmm",
            BuiltStage::Spmm(_) => "Spmm",
            BuiltStage::Spmv(_) => "Spmv",
            BuiltStage::Pr(_) => "Pr",
        };
        f.write_str(tag)
    }
}

/// Typed per-app state: the stages' inputs and intermediates plus the
/// host-side iterates advanced at each round boundary.
#[derive(Debug)]
enum State {
    /// The adjacency `A`, SDDMM's scores `S` and SpMM's aggregation `Z`
    /// (each empty until its stage has run).
    Gnn {
        a: Arc<CsrMatrix>,
        s: Option<CsrMatrix>,
        z: Vec<f64>,
    },
    /// The SPD system `M`, the iterate `x`, the residual `r`, the search
    /// direction `p`, and the squared residual norms `rz` (current) and
    /// `rz0` (initial).
    Cg {
        m: Arc<CsrMatrix>,
        x: Vec<f64>,
        r: Vec<f64>,
        p: Vec<f64>,
        rz: f64,
        rz0: f64,
    },
    /// The in-adjacency and the current rank vector.
    PageRank { adj: Arc<CsrMatrix>, rank: Vec<f64> },
}

/// One application job in flight.
#[derive(Debug)]
pub struct AppExec {
    spec: AppSpec,
    state: State,
    /// Index of the next stage in `AppKind::stages`.
    stage: usize,
    rounds_done: u32,
    pending: Option<BuiltStage>,
    records: Vec<StageRecord>,
    finished: bool,
}

impl AppExec {
    /// Builds the job's input tensors through the level-1 cache, charged
    /// to `tenant`.
    ///
    /// # Errors
    ///
    /// An input with no rows, or a tensor-build failure, as
    /// human-readable text.
    pub fn new(spec: AppSpec, caches: &mut StageCaches, tenant: u32) -> Result<Self, String> {
        let n = spec.rows;
        if n == 0 {
            return Err("application input must have at least one row".into());
        }
        let base_key = format!("uniform:{}:{}:{}", n, spec.nnz_per_row, spec.seed);
        let base = caches.tensor(&base_key, tenant, || {
            Ok(gen::uniform(n, n, spec.nnz_per_row, spec.seed))
        })?;
        let state = match spec.app {
            AppKind::Gnn => State::Gnn {
                a: base,
                s: None,
                z: Vec::new(),
            },
            AppKind::Cg => {
                let spd_key = format!("cg-spd:{}:{}:{}", n, spec.nnz_per_row, spec.seed);
                let m = caches.tensor(&spd_key, tenant, || spd_from(&base))?;
                // With `x = 0` the residual starts at the right-hand side.
                let r: Vec<f64> = (0..n).map(|i| 1.0 + (i % 13) as f64 / 13.0).collect();
                let rz: f64 = r.iter().map(|v| v * v).sum();
                State::Cg {
                    m,
                    x: vec![0.0; n],
                    p: r.clone(),
                    r,
                    rz,
                    rz0: rz,
                }
            }
            AppKind::PageRank => State::PageRank {
                adj: base,
                rank: vec![1.0 / n as f64; n],
            },
        };
        Ok(Self {
            spec,
            state,
            stage: 0,
            rounds_done: 0,
            pending: None,
            records: Vec::new(),
            finished: false,
        })
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

    /// Compiles the round's next stage, or returns `None` when the job is
    /// finished. At most one stage may be pending at a time.
    ///
    /// # Errors
    ///
    /// A stage is already pending, or the stage build failed.
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
        let op = self.spec.app.stages()[self.stage];
        let (built, program, image, outq_base) = match (op, &self.state) {
            (StageOp::Sddmm, State::Gnn { a, .. }) => {
                let w = Sddmm::new(a);
                let prog = caches.program(&sig("sddmm", a), tenant, || {
                    Ok(w.build_program((0, a.rows()), SERVE_LANES))
                })?;
                let (img, oq) = (w.image_handle(), w.outq_base(0));
                (BuiltStage::Sddmm(Box::new(w)), prog, img, oq)
            }
            (StageOp::SpmmDense, State::Gnn { s: Some(s), .. }) => {
                let w = Spmm::new(s);
                let prog = caches.program(&sig("spmm", s), tenant, || {
                    Ok(w.build_program((0, s.rows()), SERVE_LANES))
                })?;
                let (img, oq) = (w.image_handle(), w.outq_base(0));
                (BuiltStage::Spmm(Box::new(w)), prog, img, oq)
            }
            (StageOp::SpmvVec, State::Cg { m, p, .. }) => {
                let w = Spmv::with_vector(m, p.clone());
                let prog = caches.program(&sig("spmv", m), tenant, || {
                    Ok(w.build_program((0, m.rows()), SERVE_LANES))
                })?;
                let (img, oq) = (w.image_handle(), w.outq_base(0));
                (BuiltStage::Spmv(Box::new(w)), prog, img, oq)
            }
            (StageOp::PrGather, State::PageRank { adj, rank }) => {
                let w = PageRank::with_ranks(adj, rank.clone());
                let prog = caches.program(&sig("pr", adj), tenant, || {
                    Ok(w.build_program((0, adj.rows()), SERVE_LANES))
                })?;
                let (img, oq) = (w.image_handle(), w.outq_base(0));
                (BuiltStage::Pr(Box::new(w)), prog, img, oq)
            }
            (op, state) => unreachable!("stage {op:?} has no inputs in {state:?}"),
        };
        self.pending = Some(built);
        Ok(Some(StageBuild {
            name: op.name().into(),
            round: self.rounds_done,
            program,
            image,
            outq_base,
        }))
    }

    /// Materializes the pending stage's output (a pure functional pass,
    /// independent of how the engine run was scheduled), advances the
    /// chain, and — when the round closes — runs the end-of-round host
    /// logic. Returns the host cycles to charge at this stage boundary.
    ///
    /// # Errors
    ///
    /// No stage is pending, or output assembly failed.
    pub fn complete_stage(&mut self, engine_cycles: u64) -> Result<u64, String> {
        let built = self
            .pending
            .take()
            .ok_or_else(|| "no stage is pending".to_string())?;
        let n = self.spec.rows;
        let round = self.rounds_done;
        let stages = self.spec.app.stages();
        let op = stages[self.stage];
        // Whether this round is the last the cap allows (read by the
        // round-closing stages only).
        let capped = round + 1 >= self.spec.max_iters;
        // `(materialized elements, end-of-round host cycles)`.
        let (out_elems, round_host) = match (built, &mut self.state) {
            (BuiltStage::Sddmm(w), State::Gnn { s, .. }) => {
                let vals = w.functional(SERVE_LANES);
                let len = vals.len();
                *s = Some(w.output_matrix(vals)?);
                (len, 0)
            }
            (BuiltStage::Spmm(w), State::Gnn { z, .. }) => {
                *z = w.functional(SERVE_LANES);
                // A GNN layer is one round.
                self.finished = true;
                (z.len(), 0)
            }
            (
                BuiltStage::Spmv(w),
                State::Cg {
                    x, r, p, rz, rz0, ..
                },
            ) => {
                let q = w.functional();
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
                    if rz_new.sqrt() <= 1e-6 * rz0.sqrt() || capped {
                        self.finished = true;
                    } else {
                        let beta = rz_new / *rz;
                        for (pi, ri) in p.iter_mut().zip(r.iter()) {
                            *pi = ri + beta * *pi;
                        }
                    }
                    *rz = rz_new;
                }
                // Two dots and two axpys plus the direction update.
                (q.len(), 6 * n as u64)
            }
            (BuiltStage::Pr(w), State::PageRank { rank, .. }) => {
                let next = w.functional(SERVE_LANES);
                let delta: f64 = rank
                    .iter()
                    .zip(next.iter())
                    .map(|(a, b)| (a - b).abs())
                    .sum();
                if delta <= 1e-7 * n as f64 || capped {
                    self.finished = true;
                }
                let len = next.len();
                *rank = next;
                // The dense contribution update phase.
                (len, 4 * n as u64)
            }
            (built, state) => unreachable!("stage {built:?} was not built from {state:?}"),
        };
        self.stage = (self.stage + 1) % stages.len();
        if self.stage == 0 {
            self.rounds_done += 1;
        }
        // Nominal host charge: two core ops per materialized element.
        let host = 2 * out_elems as u64 + round_host;
        self.records.push(StageRecord {
            stage: op.name().into(),
            round,
            engine_cycles,
            host_cycles: host,
        });
        Ok(host)
    }
}

/// Level-2 cache key: stage kind + structural signature. Sound because
/// the compiled program is a function of the input *sizes* only — the
/// sparsity pattern and values live in the memory image.
fn sig(tag: &str, m: &CsrMatrix) -> String {
    format!(
        "{tag}:{}x{}:{}:{}",
        m.rows(),
        m.cols(),
        m.nnz(),
        SERVE_LANES
    )
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
        }
    }

    #[test]
    fn gnn_runs_one_round_of_two_stages() {
        let exec = run_to_completion(spec(AppKind::Gnn));
        assert_eq!(exec.iterations(), 1);
        let stages: Vec<&str> = exec.records().iter().map(|r| r.stage.as_str()).collect();
        assert_eq!(stages, ["sddmm", "spmm"]);
        // Z is a dense rows × RANK aggregation.
        let State::Gnn { z, .. } = &exec.state else {
            panic!("GNN state")
        };
        assert_eq!(z.len(), 48 * tmu_kernels::spmm::RANK);
    }

    #[test]
    fn cg_converges_within_the_cap_on_an_spd_system() {
        let exec = run_to_completion(spec(AppKind::Cg));
        assert!(exec.iterations() >= 2, "should take several iterations");
        assert!(exec.iterations() <= 20, "respects the cap");
        // The solve actually converged: residual predicate fired early.
        let State::Cg { rz, rz0, .. } = &exec.state else {
            panic!("CG state")
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
        let State::PageRank { rank, .. } = &exec.state else {
            panic!("PageRank state")
        };
        let sum: f64 = rank.iter().sum();
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
