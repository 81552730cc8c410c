//! Job specifications: what a tenant asks the service to run.

use tmu_apps::{AppKind, AppSpec};

/// Which Table 4 kernel a [`JobKind::Kernel`] job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum KernelKind {
    /// Sparse matrix × dense vector.
    Spmv,
    /// Sparse matrix × sparse vector.
    Spmspv,
    /// Sparse matrix × sparse matrix (symbolic+numeric co-iteration).
    Spmspm,
    /// K-way sparse matrix addition.
    Spkadd,
    /// Sparse tensor (3-d) × dense vector.
    Spttv,
}

impl KernelKind {
    /// Stable display name, used in reports and bench rows.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Spmv => "spmv",
            KernelKind::Spmspv => "spmspv",
            KernelKind::Spmspm => "spmspm",
            KernelKind::Spkadd => "spkadd",
            KernelKind::Spttv => "spttv",
        }
    }
}

/// The work a job performs. Doubles as the build-cache key: two jobs
/// with equal `JobKind`s share one memoized tensor build, program, and
/// memory image (the batching optimization).
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum JobKind {
    /// A Table 4 kernel over a synthetic uniform input.
    Kernel {
        /// Which kernel.
        kind: KernelKind,
        /// Rows of the input matrix (for SpTTV: the cube dimension).
        rows: u32,
        /// Nonzeros per row (for SpTTV: nnz = rows × this).
        nnz_per_row: u32,
        /// Generator seed — jobs differing only here do *not* batch.
        seed: u64,
    },
    /// A `tmu-front` einsum expression over a synthetic base matrix.
    Expr {
        /// Expression source, e.g. `"y(i) = A(i,j:csr) * x(j)"`.
        src: String,
        /// Rows/cols of the square base matrix.
        rows: u32,
        /// Nonzeros per row of the base matrix.
        nnz_per_row: u32,
        /// Generator seed.
        seed: u64,
    },
    /// A multi-stage application pipeline (a `tmu-apps` stage chain).
    /// App jobs share builds through the two-level stage cache rather
    /// than this enum's memo, so equal `App` kinds still batch their
    /// tensors and programs — just one level down.
    App {
        /// Which application.
        app: AppKind,
        /// Rows (= cols) of the synthetic square input.
        rows: u32,
        /// Nonzeros per row of the synthetic input.
        nnz_per_row: u32,
        /// Generator seed.
        seed: u64,
        /// Iteration cap for the iterative apps.
        max_iters: u32,
    },
}

impl JobKind {
    /// Short label for reports (kernel name, `"expr"`, or the app name).
    pub fn label(&self) -> &str {
        match self {
            JobKind::Kernel { kind, .. } => kind.name(),
            JobKind::Expr { .. } => "expr",
            JobKind::App { app, .. } => app.name(),
        }
    }

    /// The full application spec if this is an [`JobKind::App`] job.
    pub fn app_spec(&self) -> Option<AppSpec> {
        match self {
            JobKind::App {
                app,
                rows,
                nnz_per_row,
                seed,
                max_iters,
            } => Some(AppSpec {
                app: *app,
                rows: *rows as usize,
                nnz_per_row: *nnz_per_row as usize,
                seed: *seed,
                max_iters: *max_iters,
            }),
            _ => None,
        }
    }
}

/// One job in the arrival trace.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct JobSpec {
    /// Unique job id (also salts the job's private outQ window).
    pub id: u32,
    /// Owning tenant.
    pub tenant: u32,
    /// Arrival cycle (open-loop: fixed by the trace, not by service).
    pub arrival: u64,
    /// Scheduling weight under the weighted-fair policy (≥ 1).
    pub weight: u32,
    /// Completion deadline in cycles, if the job has an SLO. The EDF
    /// policy orders dispatch by it; a job finishing past its deadline
    /// still completes but is counted as a deadline miss.
    pub deadline: Option<u64>,
    /// What to run.
    pub kind: JobKind,
}
