//! Parallel experiment runner.
//!
//! The paper's evaluation (§7) is a grid of independent
//! (kernel × input × machine × engine) simulations. A [`Job`] names one
//! grid point, [`Job::run`] simulates it, and a [`Runner`] executes whole
//! batches across a bounded `std::thread::scope` worker pool with:
//!
//! * **deterministic result ordering** — `run_all` returns results in job
//!   order no matter which worker finished first, so figure text is
//!   byte-identical between serial (`TMU_JOBS=1`) and parallel runs;
//! * **a process-wide memo cache** — jobs are keyed by their full
//!   configuration, so figures sharing runs (10/11/12/13/15) simulate
//!   each (baseline, TMU) pair exactly once per process;
//! * **typed outcomes** — an engine without a variant for a job answers
//!   [`Unsupported`], and a panicking simulation (a bug) is caught; both
//!   results carry a [`JobError`], and only a panic counts as a failure.
//!
//! Worker count comes from `TMU_JOBS` (read once; default: available
//! parallelism). Simulations themselves are deterministic — every input
//! generator is seeded and each job runs on a fresh `System` — so the
//! worker count and completion order never leak into results.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use tmu::{OutQSnapshot, TmuConfig};
use tmu_front::ExprWorkload;
use tmu_kernels::workload::{mean_read_to_write, KernelKind, Workload};
use tmu_sim::{configs, RunStats, SystemConfig};
use tmu_tensor::gen::{self, InputId, ScaledInput};
use tmu_trace::StatsRegistry;

use crate::json::BenchRow;
use crate::{matrix_kernel, matrix_kernel_kind, matrix_workload_at, tensor_workload_at};

// The positive-integer knob reader every harness bin uses; it lives in
// `tmu-trace` so that the tracer's own knobs go through it too.
pub use tmu_trace::{knob, parse_pos_int};

/// The input of a job: which data the kernel runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InputSpec {
    /// Synthetic Table 6 stand-in `id` at `scale`.
    Table6 {
        /// Input identity (M1–M6, T1–T4).
        id: InputId,
        /// Scale multiplier applied to the stand-in.
        scale: f64,
    },
    /// `gen::fixed_row` matrix: `n` nnz per row at columns `0..n-1`
    /// (the Figure 12c compute-ceiling inputs).
    FixedRow {
        /// Row count.
        rows: usize,
        /// Nonzeros per row.
        n: usize,
        /// Generator seed.
        seed: u64,
    },
    /// `gen::uniform` matrix (ablation inputs).
    Uniform {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
        /// Nonzeros per row.
        nnz_per_row: usize,
        /// Generator seed.
        seed: u64,
    },
    /// `gen::rmat` power-law graph adjacency matrix (`2^scale` vertices)
    /// — the skewed, cache-hostile input the `trace` binary defaults to.
    Rmat {
        /// log2 of the vertex count.
        scale: u32,
        /// Edge count.
        edges: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl InputSpec {
    /// Short label used in reports and `bench.json` rows.
    pub fn label(&self) -> String {
        match self {
            InputSpec::Table6 { id, .. } => id.label().to_owned(),
            InputSpec::FixedRow { rows, n, .. } => format!("fr{rows}x{n}"),
            InputSpec::Uniform {
                rows, nnz_per_row, ..
            } => format!("u{rows}x{nnz_per_row}"),
            InputSpec::Rmat { scale, .. } => format!("rmat{scale}"),
        }
    }

    /// The scale multiplier, when the input is a scaled stand-in.
    pub fn scale(&self) -> Option<f64> {
        match self {
            InputSpec::Table6 { scale, .. } => Some(*scale),
            _ => None,
        }
    }
}

/// Which engine executes the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineVariant {
    /// Software baseline restricted to one 64-bit lane.
    BaselineScalar,
    /// Vectorized software baseline at the system's SVE width.
    BaselineSve,
    /// Baseline with the Indirect Memory Prefetcher attached (§7.3).
    Imp,
    /// TMU with a single lane (§7.3, Figure 15).
    SingleLane,
    /// The full TMU.
    Tmu,
    /// Register-tiled BCSR software path (`tmu_backends::blocked`): the
    /// matrix is re-marshaled into 4×8 tiles and streamed through dense
    /// SVE micro-kernels, trading wasted lanes (tile occupancy) for
    /// regular accesses.
    BlockedSve,
    /// Cycle-approximate SAM-style streaming dataflow model
    /// (`tmu_backends::sam`): level scanners, mergers and reducers
    /// connected by bounded token queues, compiled from the same
    /// iteration graph the TMU path lowers from.
    SamStream,
}

/// A string that names no [`EngineVariant`]. The same typed error the
/// formats crate returns for unknown format names, so every unknown-name
/// failure across the CLI surface reads the same way.
pub type UnknownEngine = tmu_formats::UnknownName;

impl EngineVariant {
    /// Every variant, in the order the four-way matrix prints them last.
    pub const ALL: [EngineVariant; 7] = [
        EngineVariant::BaselineScalar,
        EngineVariant::BaselineSve,
        EngineVariant::Imp,
        EngineVariant::SingleLane,
        EngineVariant::Tmu,
        EngineVariant::BlockedSve,
        EngineVariant::SamStream,
    ];

    /// Label used in reports and `bench.json` rows.
    pub fn label(&self) -> &'static str {
        match self {
            EngineVariant::BaselineScalar => "baseline-scalar",
            EngineVariant::BaselineSve => "baseline-sve",
            EngineVariant::Imp => "imp",
            EngineVariant::SingleLane => "single-lane",
            EngineVariant::Tmu => "tmu",
            EngineVariant::BlockedSve => "blocked-sve",
            EngineVariant::SamStream => "sam-stream",
        }
    }

    /// Parses a CLI engine name (the canonical [`Self::label`] plus a few
    /// short aliases), case-insensitively. The error lists every valid
    /// name and alias.
    pub fn parse(arg: &str) -> Result<Self, UnknownEngine> {
        Ok(match arg.to_ascii_lowercase().as_str() {
            "tmu" => EngineVariant::Tmu,
            "single-lane" | "single" => EngineVariant::SingleLane,
            "baseline" | "baseline-sve" | "sve" => EngineVariant::BaselineSve,
            "baseline-scalar" | "scalar" => EngineVariant::BaselineScalar,
            "imp" => EngineVariant::Imp,
            "blocked-sve" | "blocked" => EngineVariant::BlockedSve,
            "sam-stream" | "sam" => EngineVariant::SamStream,
            _ => {
                return Err(UnknownEngine::new(
                    "engine",
                    arg,
                    EngineVariant::ALL.iter().map(|e| e.label()),
                )
                .with_aliases(["single", "baseline", "sve", "scalar", "blocked", "sam"]))
            }
        })
    }

    fn uses_tmu_config(&self) -> bool {
        matches!(self, EngineVariant::SingleLane | EngineVariant::Tmu)
    }
}

/// An engine × kernel pair the engine has no variant for: a typed answer,
/// not a failure. It displays as `PR has no imp variant`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsupported {
    /// The kernel name, or the source text of an expression job.
    pub kernel: String,
    /// The engine without a variant for it.
    pub engine: EngineVariant,
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} has no {} variant", self.kernel, self.engine.label())
    }
}

impl std::error::Error for Unsupported {}

/// One point of the experiment grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Kernel name (`"SpMV"`, …).
    pub kernel: &'static str,
    /// Input data selector.
    pub input: InputSpec,
    /// Engine variant.
    pub engine: EngineVariant,
    /// System (core + memory) configuration.
    pub sys: SystemConfig,
    /// TMU configuration (ignored by baseline variants; [`Job::key`]
    /// canonicalizes it away for them so memoization still coalesces).
    pub tmu: TmuConfig,
    /// Source einsum expression when the workload is compiled by the
    /// expression front-end instead of dispatched to a hand-written
    /// kernel. `None` for kernel jobs.
    pub expr: Option<String>,
}

impl Job {
    /// A job on the default Table 5 system with the paper's TMU config.
    pub fn new(kernel: &'static str, input: InputSpec, engine: EngineVariant) -> Self {
        Self {
            kernel,
            input,
            engine,
            sys: configs::neoverse_n1_system(),
            tmu: TmuConfig::paper(),
            expr: None,
        }
    }

    /// A job whose workload is compiled from `expr` by the expression
    /// front-end ([`tmu_front::ExprWorkload`]) over the base matrix named
    /// by `input`; remaining operands are auto-bound from it. The kernel
    /// column reports `"expr"` and `bench.json` rows carry the source
    /// expression verbatim.
    pub fn expression(expr: &str, input: InputSpec, engine: EngineVariant) -> Self {
        Self {
            expr: Some(expr.to_owned()),
            ..Self::new("expr", input, engine)
        }
    }

    /// Vectorized baseline of `kernel` on Table 6 `id` at `scale`.
    pub fn baseline(kernel: &'static str, id: InputId, scale: f64) -> Self {
        Self::new(
            kernel,
            InputSpec::Table6 { id, scale },
            EngineVariant::BaselineSve,
        )
    }

    /// Full-TMU run of `kernel` on Table 6 `id` at `scale`.
    pub fn tmu(kernel: &'static str, id: InputId, scale: f64) -> Self {
        Self::new(kernel, InputSpec::Table6 { id, scale }, EngineVariant::Tmu)
    }

    /// Replaces the system configuration.
    pub fn with_sys(mut self, sys: SystemConfig) -> Self {
        self.sys = sys;
        self
    }

    /// Replaces the TMU configuration.
    pub fn with_tmu(mut self, tmu: TmuConfig) -> Self {
        self.tmu = tmu;
        self
    }

    /// Memoization key: the full configuration, canonicalized so fields a
    /// variant ignores (the TMU config of baseline runs) do not split the
    /// cache. Every keyed type is plain data, so `Debug` is a faithful,
    /// stable rendering of the configuration.
    pub fn key(&self) -> String {
        // The engine's Debug rendering is the only field telling two
        // engines on identical data apart: if any two variants ever
        // rendered alike, the memo cache would silently serve one
        // engine's timings as the other's.
        #[cfg(debug_assertions)]
        for (i, a) in EngineVariant::ALL.iter().enumerate() {
            for b in &EngineVariant::ALL[i + 1..] {
                debug_assert_ne!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "engine variants must render distinct memo keys"
                );
            }
        }
        let tmu = self.engine.uses_tmu_config().then_some(&self.tmu);
        format!(
            "{}|{:?}|{:?}|{:?}|{:?}|{:?}",
            self.kernel, self.input, self.engine, self.sys, tmu, self.expr
        )
    }

    /// The base matrix `input` names (expression jobs auto-bind every
    /// operand from it).
    fn base_matrix(&self) -> tmu_tensor::CsrMatrix {
        match self.input {
            InputSpec::Table6 { id, scale } => ScaledInput::new(id).with_scale(scale).matrix(),
            InputSpec::FixedRow { rows, n, seed } => gen::fixed_row(rows, n, seed),
            InputSpec::Uniform {
                rows,
                cols,
                nnz_per_row,
                seed,
            } => gen::uniform(rows, cols, nnz_per_row, seed),
            InputSpec::Rmat { scale, edges, seed } => gen::rmat(scale, edges, seed),
        }
    }

    /// Compiles the job's expression over its base matrix, panicking with
    /// the rendered diagnostic when the source does not compile.
    fn build_expr(&self, src: &str) -> ExprWorkload {
        ExprWorkload::new(src, &self.base_matrix())
            .unwrap_or_else(|e| panic!("expression does not compile:\n{}", e.render(src)))
    }

    fn build(&self) -> Box<dyn Workload> {
        if let Some(src) = &self.expr {
            return Box::new(self.build_expr(src));
        }
        match self.input {
            InputSpec::Table6 { id, scale } => {
                if InputId::MATRICES.contains(&id) {
                    matrix_workload_at(self.kernel, id, scale)
                } else {
                    tensor_workload_at(self.kernel, id, scale)
                }
            }
            InputSpec::FixedRow { .. } | InputSpec::Uniform { .. } | InputSpec::Rmat { .. } => {
                matrix_kernel(self.kernel, &self.base_matrix())
            }
        }
    }

    /// The answer of an engine without a variant for this job.
    fn unsupported(&self) -> Unsupported {
        Unsupported {
            kernel: self.expr.clone().unwrap_or_else(|| self.kernel.to_owned()),
            engine: self.engine,
        }
    }

    /// Simulates this job on a fresh system.
    ///
    /// # Errors
    ///
    /// [`Unsupported`] when the engine has no variant for the kernel or
    /// the expression. The engine decides: IMP runs only the kernels whose
    /// `Workload::run_baseline_imp` returns a run, and the alternative
    /// backends only what their `run_kernel`/`run_expr` lower.
    ///
    /// # Panics
    ///
    /// Panics on a bug in the job: a kernel name that no workload builder
    /// knows, or an expression that does not compile. [`Runner::run_all`]
    /// catches these, like any panic of the simulation, as failure rows.
    pub fn run(&self) -> Result<RunResult, Unsupported> {
        match self.engine {
            EngineVariant::BaselineSve | EngineVariant::BaselineScalar => {
                let mut sys = self.sys;
                if self.engine == EngineVariant::BaselineScalar {
                    sys.core.sve_bits = 64;
                }
                let w = self.build();
                Ok(RunResult::new(w.kind(), w.run_baseline(sys)))
            }
            EngineVariant::Imp => {
                let w = self.build();
                let stats = w
                    .run_baseline_imp(self.sys)
                    .ok_or_else(|| self.unsupported())?;
                Ok(RunResult::new(w.kind(), stats))
            }
            EngineVariant::SingleLane | EngineVariant::Tmu => {
                let tmu = if self.engine == EngineVariant::SingleLane {
                    self.tmu.single_lane()
                } else {
                    self.tmu
                };
                let w = self.build();
                let run = w.run_tmu(self.sys, tmu);
                // Graceful degradation (§5.6): an engine that retired on an
                // unserviceable fault produced no usable marshaled output, so
                // the kernel falls back to the software baseline. The result
                // keeps the TMU run's outQ and fault telemetry next to the
                // baseline timing so the degradation is visible in bench.json.
                let fallback = run.outq.iter().find_map(|o| o.retired.clone());
                let stats = if fallback.is_some() {
                    w.run_baseline(self.sys)
                } else {
                    run.stats
                };
                let mut res = RunResult {
                    outq: run.outq.iter().map(|o| o.snapshot()).collect(),
                    fallback,
                    ..RunResult::new(w.kind(), stats)
                };
                res.record_tmu_stats();
                Ok(res)
            }
            // The alternative backends consume the expression workload (or
            // the raw matrix) directly: the `Workload` trait's run methods
            // are shaped around the baseline/TMU op streams.
            EngineVariant::BlockedSve => self.run_blocked(),
            EngineVariant::SamStream => self.run_sam(),
        }
    }

    /// Runs this job on the register-tiled BCSR software path
    /// ([`tmu_backends::blocked`]). A kernel job binds no workload: its
    /// kind comes from the matrix-kernel table once the backend has run
    /// it.
    fn run_blocked(&self) -> Result<RunResult, Unsupported> {
        use tmu_backends::blocked;
        let (kind, run) = if let Some(src) = &self.expr {
            let w = self.build_expr(src);
            blocked::run_expr(&w, self.sys).map(|run| (w.kind(), run))
        } else {
            let m = self.base_matrix();
            blocked::run_kernel(self.kernel, &m, self.sys)
                .map(|run| (matrix_kernel_kind(self.kernel), run))
        }
        .ok_or_else(|| self.unsupported())?;
        let mut res = RunResult::new(kind, run.stats);
        res.registry.set_counter("blocked.tiles", run.tiles);
        res.registry
            .set_gauge("blocked.tile_occupancy", run.tile_occupancy);
        Ok(res)
    }

    /// Runs this job on the SAM-style streaming dataflow model
    /// ([`tmu_backends::sam`]), which runs every expression.
    fn run_sam(&self) -> Result<RunResult, Unsupported> {
        use tmu_backends::sam;
        let (kind, run) = if let Some(src) = &self.expr {
            let w = self.build_expr(src);
            (w.kind(), sam::run_expr(&w, self.sys))
        } else {
            let m = self.base_matrix();
            sam::run_kernel(self.kernel, &m, self.sys)
                .map(|run| (matrix_kernel_kind(self.kernel), run))
                .ok_or_else(|| self.unsupported())?
        };
        let mut res = RunResult::new(kind, run.stats);
        res.registry.set_counter("sam.tokens", run.tokens);
        res.registry
            .set_counter("sam.merger_stalls", run.merger_stalls);
        res.registry.set_counter("sam.nodes", run.nodes as u64);
        Ok(res)
    }
}

/// Why a [`RunResult`] carries no measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The engine has no variant for the job. Deterministic, so it is
    /// memo-cached like a measurement, and it fails nothing.
    Unsupported(Unsupported),
    /// The simulation panicked, with this message: a bug. Never
    /// memo-cached, and the process exits nonzero through
    /// [`crate::run_main`].
    Panicked(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Unsupported(u) => u.fmt(f),
            JobError::Panicked(msg) => f.write_str(msg),
        }
    }
}

/// The measured outcome of one [`Job`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload category of the kernel.
    pub kind: KernelKind,
    /// System-level statistics (cycles, breakdown, caches, DRAM).
    pub stats: RunStats,
    /// The run's final [`StatsRegistry`]: `stats` under gem5-style dotted
    /// names, plus the engine-side sections (`tmu.*`, `blocked.*`,
    /// `sam.*`) — the numbers `bench.json` rows render.
    pub registry: StatsRegistry,
    /// Per-core outQ snapshots (empty for non-TMU variants).
    pub outq: Vec<OutQSnapshot>,
    /// Why the job has no measurement, if it has none; such results carry
    /// default stats.
    pub error: Option<JobError>,
    /// Why the TMU engine retired and the job fell back to the software
    /// baseline (the stats are then baseline timings), if it did.
    pub fallback: Option<String>,
}

impl RunResult {
    /// A finished run with `stats` and its registry view.
    fn new(kind: KernelKind, stats: RunStats) -> Self {
        Self {
            kind,
            registry: stats.registry(),
            stats,
            outq: Vec::new(),
            error: None,
            fallback: None,
        }
    }

    /// A placeholder result for a job without a measurement.
    fn failed(error: JobError) -> Self {
        Self {
            kind: KernelKind::MemoryIntensive,
            stats: RunStats::default(),
            registry: StatsRegistry::new(),
            outq: Vec::new(),
            error: Some(error),
            fallback: None,
        }
    }

    /// Mean read-to-write ratio across cores with outQ activity (the
    /// Figure 13 metric; 0 for non-TMU variants).
    pub fn read_to_write_ratio(&self) -> f64 {
        mean_read_to_write(self.outq.iter().map(|o| o.read_to_write_ratio))
    }

    /// Records the outQ sums and ratio under `tmu.outq.*`, the fault
    /// counters under `tmu.faults.*` (only when a fault was injected) and
    /// a fallback as `tmu.fallback`.
    fn record_tmu_stats(&mut self) {
        let read_to_write = self.read_to_write_ratio();
        let sum = |f: fn(&OutQSnapshot) -> u64| self.outq.iter().map(f).sum::<u64>();
        let r = &mut self.registry;
        r.set_counter("tmu.outq.entries", sum(|o| o.entries));
        r.set_counter("tmu.outq.chunks", sum(|o| o.chunks));
        r.set_counter(
            "tmu.outq.backpressure_cycles",
            sum(|o| o.backpressure_cycles),
        );
        r.set_gauge("tmu.outq.read_to_write", read_to_write);
        let injected = sum(|o| o.faults_injected);
        if injected > 0 {
            r.set_counter("tmu.faults.injected", injected);
            r.set_counter("tmu.faults.traps", sum(|o| o.fault_traps));
            r.set_counter("tmu.faults.restores", sum(|o| o.fault_restores));
        }
        if self.fallback.is_some() {
            r.set_counter("tmu.fallback", 1);
        }
    }
}

/// Flattens one (job, result) into a `bench.json` row: the job's labels
/// plus the result's [`run_level_stats`]. `machine` labels the system
/// configuration (`"table5"` unless the figure sweeps it).
pub fn bench_row(figure: &str, machine: &str, job: &Job, res: &RunResult) -> BenchRow {
    BenchRow {
        figure: figure.to_owned(),
        kernel: job.kernel.to_owned(),
        input: job.input.label(),
        engine: job.engine.label().to_owned(),
        machine: machine.to_owned(),
        scale: job.input.scale(),
        expr: job.expr.clone(),
        error: res.error.as_ref().map(JobError::to_string),
        fallback: res.fallback.clone(),
        stats: run_level_stats(&res.registry),
        ..BenchRow::default()
    }
}

/// The stats a `bench.json` row carries for a run: all of `registry`
/// except the per-core `system.core<i>.*` breakdown, whose whole-run
/// aggregates (`system.topdown.*`, `system.flops`, …) stay.
pub fn run_level_stats(registry: &StatsRegistry) -> StatsRegistry {
    let mut stats = registry.clone();
    stats.retain(|name| !is_per_core(name));
    stats
}

/// Whether `name` is a `system.core<i>.*` stat.
fn is_per_core(name: &str) -> bool {
    name.strip_prefix("system.core")
        .and_then(|rest| rest.split_once('.'))
        .is_some_and(|(index, _)| !index.is_empty() && index.bytes().all(|b| b.is_ascii_digit()))
}

/// Jobs whose simulation panicked in this process (caught by
/// [`Runner::run_all`] and turned into [`JobError::Panicked`] rows).
static FAILED_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Number of jobs that failed (panicked) so far in this process.
pub fn failed_jobs() -> usize {
    FAILED_JOBS.load(Ordering::Relaxed)
}

/// Resets the failed-job counter. For harnesses that *expect* a failure
/// (the `faults` smoke test exercises the caught-panic path) and have
/// already verified it happened — clearing lets the shared
/// [`crate::run_main`] epilogue exit clean instead of turning the
/// expected failure into a nonzero status.
pub fn clear_failed_jobs() {
    FAILED_JOBS.store(0, Ordering::Relaxed);
}

/// Parses a positive, finite float environment knob (`TMU_SCALE`) from its
/// raw value, by the rules of [`parse_pos_int`]: absent and blank values
/// are `Ok(None)`; zero, negative, infinite, NaN and non-numeric values
/// are errors naming the variable and the value.
pub fn parse_pos_float(name: &str, raw: Option<&str>) -> Result<Option<f64>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(Some(x)),
        Ok(_) => Err(format!(
            "{name}={trimmed:?} is invalid: must be positive and finite"
        )),
        Err(_) => Err(format!("{name}={trimmed:?} is invalid: not a number")),
    }
}

/// Renders a caught panic payload (the `&str`/`String` panics the
/// simulators raise) as a one-line message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked (non-string payload)".to_owned()
    }
}

/// Worker count from `TMU_JOBS`, read once per process (default:
/// available parallelism; capped at 512 threads). An invalid value (`0`,
/// non-numeric) warns on stderr and falls back to the default — results
/// are worker-count independent, so degrading is safe; staying silent is
/// not.
pub fn default_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        let n = knob("TMU_JOBS", available as u64);
        usize::try_from(n).unwrap_or(usize::MAX).min(512)
    })
}

/// Maps `f` over `items` on up to `workers` scoped threads, returning
/// results in item order (work is handed out via an atomic index, so
/// completion order never affects the output).
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    if n == 0 {
        return Vec::new();
    }
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

/// Executes job batches over a worker pool with a process-lifetime memo
/// cache (see the module docs).
#[derive(Debug)]
pub struct Runner {
    workers: usize,
    cache: Mutex<HashMap<String, Arc<RunResult>>>,
    simulations: AtomicUsize,
}

impl Default for Runner {
    fn default() -> Self {
        Self::new()
    }
}

impl Runner {
    /// A runner with the [`default_workers`] pool size.
    pub fn new() -> Self {
        Self::with_workers(default_workers())
    }

    /// A runner with an explicit pool size (≥ 1).
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            cache: Mutex::new(HashMap::new()),
            simulations: AtomicUsize::new(0),
        }
    }

    /// The pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of actual simulations executed (memo hits excluded).
    pub fn simulations(&self) -> usize {
        self.simulations.load(Ordering::Relaxed)
    }

    /// Runs `jobs`, returning results in job order. Already-memoized jobs
    /// (and duplicates within the batch) are simulated once.
    pub fn run_all(&self, jobs: &[Job]) -> Vec<Arc<RunResult>> {
        let keys: Vec<String> = jobs.iter().map(Job::key).collect();
        let mut missing: Vec<(&str, &Job)> = Vec::new();
        {
            let cache = self.cache.lock().expect("runner cache poisoned");
            for (key, job) in keys.iter().zip(jobs) {
                if !cache.contains_key(key) && !missing.iter().any(|(k, _)| k == key) {
                    missing.push((key, job));
                }
            }
        }
        // The cache lock is NOT held while simulating: nested run_all
        // calls from job code would deadlock, and memo readers shouldn't
        // wait on a long batch.
        let fresh = parallel_map(&missing, self.workers, |(_, job)| {
            eprintln!(
                "  [run] {} on {} ({})",
                job.kernel,
                job.input.label(),
                job.engine.label()
            );
            self.simulations.fetch_add(1, Ordering::Relaxed);
            // A panicking grid point must not take the whole batch (or the
            // scoped worker pool) down with it: catch it, report it as a
            // typed failure row, and let every other job finish.
            Arc::new(match catch_unwind(AssertUnwindSafe(|| job.run())) {
                Ok(Ok(result)) => result,
                Ok(Err(unsupported)) => RunResult::failed(JobError::Unsupported(unsupported)),
                Err(payload) => {
                    let msg = panic_message(payload);
                    FAILED_JOBS.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "  [FAIL] {} on {} ({}): {msg}",
                        job.kernel,
                        job.input.label(),
                        job.engine.label()
                    );
                    RunResult::failed(JobError::Panicked(msg))
                }
            })
        });
        // Panics are never memoized — a later batch (or a rerun after a
        // fix in job construction) must simulate again, not replay a stale
        // crash — so they resolve through a batch-local map instead.
        let mut batch: HashMap<&str, Arc<RunResult>> = HashMap::new();
        let mut cache = self.cache.lock().expect("runner cache poisoned");
        for ((key, _), result) in missing.iter().zip(fresh) {
            if !matches!(result.error, Some(JobError::Panicked(_))) {
                cache.insert((*key).to_owned(), Arc::clone(&result));
            }
            batch.insert(key, result);
        }
        keys.iter()
            .map(|k| {
                cache
                    .get(k)
                    .or_else(|| batch.get(k.as_str()))
                    .map(Arc::clone)
                    .expect("every job key resolved")
            })
            .collect()
    }

    /// Runs a single job (through the same memo cache).
    pub fn run(&self, job: &Job) -> Arc<RunResult> {
        self.run_all(std::slice::from_ref(job))
            .pop()
            .expect("one job in, one result out")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knob_parsing_is_hardened() {
        // Absent or blank: use the default.
        assert_eq!(parse_pos_int("TMU_JOBS", None), Ok(None));
        assert_eq!(parse_pos_int("TMU_JOBS", Some("")), Ok(None));
        assert_eq!(parse_pos_int("TMU_JOBS", Some("  ")), Ok(None));
        // Valid values parse, with surrounding whitespace tolerated.
        assert_eq!(parse_pos_int("TMU_JOBS", Some("8")), Ok(Some(8)));
        assert_eq!(parse_pos_int("TMU_JOBS", Some(" 3 ")), Ok(Some(3)));
        // Zero and garbage are errors that name the variable and value.
        for bad in ["0", "abc", "-4", "1.5", "1e3", "8 jobs"] {
            let err = parse_pos_int("TMU_FAULT_RATE", Some(bad))
                .expect_err("must reject invalid knob value");
            assert!(
                err.contains("TMU_FAULT_RATE") && err.contains(bad.trim()),
                "error must name variable and value: {err}"
            );
        }
    }

    #[test]
    fn scale_knob_parsing_is_hardened() {
        // Absent or blank: use the default.
        assert_eq!(parse_pos_float("TMU_SCALE", None), Ok(None));
        assert_eq!(parse_pos_float("TMU_SCALE", Some(" ")), Ok(None));
        // Positive finite values parse, with surrounding whitespace
        // tolerated.
        assert_eq!(parse_pos_float("TMU_SCALE", Some("0.05")), Ok(Some(0.05)));
        assert_eq!(parse_pos_float("TMU_SCALE", Some(" 2 ")), Ok(Some(2.0)));
        assert_eq!(parse_pos_float("TMU_SCALE", Some("4e-1")), Ok(Some(0.4)));
        // Zero, negative, non-finite and garbage values are errors that
        // name the variable and the value.
        for bad in ["0", "-1", "-0.5", "inf", "-inf", "NaN", "abc", "0.4x"] {
            let err =
                parse_pos_float("TMU_SCALE", Some(bad)).expect_err("must reject invalid scale");
            assert!(
                err.contains("TMU_SCALE") && err.contains(bad),
                "error must name variable and value: {err}"
            );
        }
    }

    fn small_grid() -> Vec<Job> {
        // A tiny uniform input keeps these full-system simulations fast.
        let input = InputSpec::Uniform {
            rows: 256,
            cols: 2048,
            nnz_per_row: 4,
            seed: 9,
        };
        vec![
            Job::new("SpMV", input, EngineVariant::BaselineSve),
            Job::new("SpMV", input, EngineVariant::BaselineScalar),
            Job::new("SpMV", input, EngineVariant::Tmu),
            Job::new("SpMV", input, EngineVariant::SingleLane),
            Job::new("SpMV", input, EngineVariant::Imp),
        ]
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(
            parallel_map(&Vec::<u64>::new(), 8, |&x| x),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn parallel_runs_are_deterministic() {
        // Two independent runners with parallel pools must produce
        // identical rows for the same jobs — worker scheduling cannot be
        // allowed to leak into results.
        let jobs = small_grid();
        let a = Runner::with_workers(4).run_all(&jobs);
        let b = Runner::with_workers(2).run_all(&jobs);
        for ((ra, rb), job) in a.iter().zip(&b).zip(&jobs) {
            assert_eq!(ra, rb, "nondeterministic result for {}", job.key());
        }
        // The variants genuinely differ from each other.
        assert_ne!(a[0].stats.cycles, a[2].stats.cycles);
        assert!(a[2].outq.iter().map(|o| o.entries).sum::<u64>() > 0);
        assert!(a[0].outq.is_empty());
    }

    #[test]
    fn memo_cache_coalesces_shared_jobs() {
        // fig10 and fig11 iterate the same (baseline, tmu) pairs: the
        // second batch — and duplicates within one batch — must not
        // re-simulate.
        let jobs = small_grid();
        let runner = Runner::with_workers(4);
        let first = runner.run_all(&jobs);
        assert_eq!(runner.simulations(), jobs.len());
        let mut again = jobs.clone();
        again.extend(jobs.iter().cloned());
        let second = runner.run_all(&again);
        assert_eq!(
            runner.simulations(),
            jobs.len(),
            "memoized batch must not simulate"
        );
        assert_eq!(&second[..jobs.len()], &first[..]);
        // A genuinely new configuration does simulate.
        runner.run(&jobs[0].clone().with_sys(configs::neoverse_n1_with_sve(256)));
        assert_eq!(runner.simulations(), jobs.len() + 1);
    }

    #[test]
    fn registry_snapshot_mirrors_stats() {
        // No-overhead pin for the stats→registry migration: the registry
        // a default-features run carries is a renaming of the same
        // `sim::stats` numbers, not a second (potentially drifting)
        // accounting. Figures read `stats` and bench.json rows read the
        // registry, so both must report the same numbers.
        let job = &small_grid()[2];
        let res = job.run().expect("the TMU runs SpMV");
        let reg = &res.registry;
        assert_eq!(reg.counter("system.cycles"), Some(res.stats.cycles));
        assert_eq!(reg.counter("system.dram.bytes"), Some(res.stats.dram_bytes));
        assert_eq!(reg.counter("system.l1.hits"), Some(res.stats.mem.l1.hits));
        assert_eq!(
            reg.counter("system.llc.misses"),
            Some(res.stats.mem.llc.misses)
        );
        assert_eq!(
            reg.gauge("system.dram.row_hit_rate"),
            Some(res.stats.dram_row_hit_rate)
        );
        let committed: u64 = (0..res.stats.cores.len())
            .map(|i| {
                reg.counter(&format!("system.core{i}.committed"))
                    .expect("per-core counters present")
            })
            .sum();
        assert_eq!(
            committed,
            res.stats.cores.iter().map(|c| c.committed).sum::<u64>()
        );
        let entries: u64 = res.outq.iter().map(|o| o.entries).sum();
        assert_eq!(reg.counter("tmu.outq.entries"), Some(entries));
        assert_eq!(
            reg.gauge("tmu.outq.read_to_write"),
            Some(res.read_to_write_ratio())
        );
        assert_eq!(reg.counter("tmu.faults.injected"), None, "fault-free run");
    }

    #[test]
    fn rows_keep_run_level_stats_and_drop_per_core_ones() {
        let job = &small_grid()[0];
        let res = job.run().expect("the baseline runs SpMV");
        let row = bench_row("figX", "table5", job, &res);
        // In a run's registry only the per-core names start `system.core`.
        let mut run_level = res.registry.clone();
        run_level.retain(|name| !name.starts_with("system.core"));
        assert_eq!(row.stats, run_level);
        assert!(
            row.stats.len() < res.registry.len(),
            "per-core stats dropped"
        );
        // The baseline row carries the measured top-down split.
        let topdown: f64 = ["committing", "frontend", "backend"]
            .iter()
            .map(|k| {
                row.stats
                    .gauge(&format!("system.topdown.{k}"))
                    .expect("top-down split present")
            })
            .sum();
        assert!((topdown - 1.0).abs() < 1e-9, "top-down sums to {topdown}");
        assert_eq!(row.sections(), ["system"]);
        // The per-core filter only matches `core<digits>.`.
        assert!(is_per_core("system.core0.cycles") && is_per_core("system.core12.flops"));
        assert!(!is_per_core("system.cores.total") && !is_per_core("system.corex.a"));
        assert!(!is_per_core("system.cycles") && !is_per_core("tmu.core0.x"));
    }

    /// Determinism pin for the trace subsystem (same style as
    /// [`parallel_runs_are_deterministic`]): the Chrome export of one
    /// traced job is byte-identical no matter the `TMU_JOBS` worker
    /// count, and well-formed per the vendored parser in [`crate::json`].
    #[test]
    fn trace_export_is_deterministic_across_worker_counts() {
        use tmu_trace::{TraceConfig, Tracer};
        let job = Job::new(
            "SpMV",
            InputSpec::Rmat {
                scale: 9,
                edges: 4096,
                seed: 7,
            },
            EngineVariant::Tmu,
        );
        let export = |workers: usize| {
            // Fresh runner per export so the memo cache cannot skip the
            // traced simulation; the global tracer is thread-scoped, so
            // concurrently running tests cannot interleave into it.
            tmu_trace::install(Tracer::new(TraceConfig::default()));
            Runner::with_workers(workers).run(&job);
            let tracer = tmu_trace::uninstall().expect("tracer installed");
            assert_eq!(tracer.dropped_total(), 0, "rings sized for this job");
            tracer.chrome_json()
        };
        let a = export(1);
        let b = export(4);
        assert_eq!(a, b, "trace bytes must not depend on the worker count");
        crate::json::validate(&a).expect("well-formed trace-event JSON");
        // The engine's duration and counter events actually made it in.
        assert!(a.contains("\"name\":\"tu_fetch\",\"ph\":\"X\""), "{a}");
        assert!(a.contains("\"name\":\"outq_occupancy\",\"ph\":\"C\""));
        assert!(a.contains("system.core0.tmu"));
    }

    /// Every cycle an engine stalls on the double-buffer gate traces one
    /// `outq_full` event, including the cycles it sleeps through.
    #[test]
    fn each_backpressure_cycle_traces_one_outq_full_event() {
        use tmu_trace::{TraceConfig, Tracer};
        let job = Job::new(
            "SpKAdd",
            InputSpec::Rmat {
                scale: 9,
                edges: 4096,
                seed: 7,
            },
            EngineVariant::Tmu,
        );
        tmu_trace::install(Tracer::new(TraceConfig::default()));
        let res = job.run().expect("the TMU runs SpKAdd");
        let tracer = tmu_trace::uninstall().expect("tracer installed");
        let stalls = res
            .registry
            .counter("tmu.outq.backpressure_cycles")
            .expect("TMU runs record backpressure");
        assert!(stalls > 0, "the fixture must stall on the outQ");
        assert_eq!(tracer.dropped_total(), 0, "rings sized for this job");
        let full = tracer
            .chrome_json()
            .matches("\"name\":\"outq_full\"")
            .count();
        assert_eq!(full as u64, stalls);
    }

    #[test]
    fn expression_jobs_run_and_memoize_by_source() {
        let input = InputSpec::Uniform {
            rows: 128,
            cols: 96,
            nnz_per_row: 4,
            seed: 9,
        };
        let spmv = Job::expression("y(i) = A(i,j:csr) * x(j)", input, EngineVariant::Tmu);
        let add = Job::expression(
            "Z(i,j) = A(i,j:dcsr) + B(i,j:dcsr)",
            input,
            EngineVariant::BaselineSve,
        );
        assert_ne!(spmv.key(), add.key(), "source text must split the cache");
        let runner = Runner::with_workers(2);
        let res = runner.run_all(&[spmv.clone(), add.clone(), spmv.clone()]);
        assert_eq!(runner.simulations(), 2, "duplicate expression memoized");
        assert!(res[0].stats.cycles > 0 && res[1].stats.cycles > 0);
        assert!(res[0].outq.iter().map(|o| o.entries).sum::<u64>() > 0);
        let row = bench_row("figX", "table5", &spmv, &res[0]);
        assert_eq!(row.expr.as_deref(), Some("y(i) = A(i,j:csr) * x(j)"));
        assert_eq!(row.kernel, "expr");
        let mut body = String::new();
        crate::json::record("zz_expr_fig", vec![row]);
        body.push_str(&crate::json::render_bench_json());
        crate::json::validate(&body).expect("bench.json with expr rows is well-formed");
        assert!(
            body.contains("\"expr\":\"y(i) = A(i,j:csr) * x(j)\""),
            "{body}"
        );
    }

    /// Tracing composes with compiled expressions: a traced
    /// expression job exports a well-formed Chrome trace, same as the
    /// hand-written kernels.
    #[test]
    fn traced_expression_job_exports_valid_chrome_trace() {
        use tmu_trace::{TraceConfig, Tracer};
        let job = Job::expression(
            "y(i) = A(i,j:csr) * x(j)",
            InputSpec::Rmat {
                scale: 8,
                edges: 2048,
                seed: 7,
            },
            EngineVariant::Tmu,
        );
        tmu_trace::install(Tracer::new(TraceConfig::default()));
        Runner::with_workers(1).run(&job);
        let tracer = tmu_trace::uninstall().expect("tracer installed");
        let json = tracer.chrome_json();
        crate::json::validate(&json).expect("well-formed trace-event JSON");
        assert!(
            json.contains("\"name\":\"tu_fetch\",\"ph\":\"X\""),
            "{json}"
        );
    }

    #[test]
    fn failed_jobs_report_typed_rows_and_skip_the_memo_cache() {
        let input = InputSpec::Uniform {
            rows: 64,
            cols: 64,
            nnz_per_row: 2,
            seed: 3,
        };
        // "NoSuchKernel" panics inside Job::build — the batch must survive
        // it, flag the failure, and still run the healthy job.
        let bad = Job::new("NoSuchKernel", input, EngineVariant::Tmu);
        let good = Job::new("SpMV", input, EngineVariant::BaselineSve);
        let runner = Runner::with_workers(2);
        let before = failed_jobs();
        let res = runner.run_all(&[bad.clone(), good.clone(), bad.clone()]);
        assert_eq!(failed_jobs(), before + 1, "one unique failing key");
        let Some(JobError::Panicked(err)) = &res[0].error else {
            panic!("failure is typed: {:?}", res[0].error);
        };
        assert!(err.contains("NoSuchKernel"), "{err}");
        assert_eq!(res[0], res[2], "duplicate keys share the failure row");
        assert!(res[1].error.is_none() && res[1].stats.cycles > 0);
        // Failures are not memoized: a retry simulates again.
        let sims = runner.simulations();
        assert!(runner.run(&bad).error.is_some());
        assert_eq!(runner.simulations(), sims + 1, "failure must not cache");
        // The failure lands in bench.json as an error row without stats;
        // healthy rows carry none of the resilience keys.
        let row = bench_row("zz_fail_fig", "table5", &bad, &res[0]);
        assert_eq!(row.error.as_ref(), Some(err));
        assert!(row.stats.is_empty());
        crate::json::record("zz_fail_fig", vec![row]);
        let body = crate::json::render_bench_json();
        crate::json::validate(&body).expect("error rows are well-formed");
        assert!(body.contains("\"error\":"), "{body}");
        let healthy = bench_row("zz_fail_fig", "table5", &good, &res[1]);
        assert!(healthy.error.is_none());
        assert_eq!(healthy.sections(), ["system"]);
    }

    #[test]
    fn unserviceable_faults_fall_back_to_the_software_baseline() {
        let input = InputSpec::Uniform {
            rows: 256,
            cols: 2048,
            nnz_per_row: 4,
            seed: 9,
        };
        // A zero service budget retires an engine on its first page fault;
        // a 20% rate guarantees one lands early on every engine.
        let faulty = tmu::FaultSpec {
            max_serviced: 0,
            ..tmu::FaultSpec::with_rate(7, 20_000)
        };
        let job = Job::new("SpMV", input, EngineVariant::Tmu)
            .with_tmu(TmuConfig::paper().with_faults(faulty));
        let runner = Runner::with_workers(1);
        let res = runner.run(&job);
        assert!(res.error.is_none(), "degradation is graceful, not fatal");
        let why = res.fallback.as_deref().expect("engine retired");
        assert!(why.contains("unserviceable"), "{why}");
        assert_eq!(res.registry.counter("tmu.fallback"), Some(1));
        assert!(res.registry.counter("tmu.faults.injected").unwrap_or(0) > 0);
        // The reported timing is the software baseline's.
        let base = runner.run(&Job::new(job.kernel, input, EngineVariant::BaselineSve));
        assert_eq!(res.stats.cycles, base.stats.cycles);
        // The row records both the fallback and the fault telemetry.
        let row = bench_row("figX", "table5", &job, &res);
        assert_eq!(row.fallback.as_deref(), Some(why));
        assert!(row.stats.counter("tmu.faults.injected").unwrap_or(0) > 0);
        assert_eq!(row.stats.counter("system.cycles"), Some(base.stats.cycles));
    }

    #[test]
    fn every_engine_variant_maps_to_a_distinct_memo_key() {
        // Pin for the memo-cache seam: if two engines ever rendered the
        // same key, the cache would serve one engine's timings as the
        // other's — silently.
        let input = InputSpec::Uniform {
            rows: 64,
            cols: 64,
            nnz_per_row: 2,
            seed: 3,
        };
        let keys: Vec<String> = EngineVariant::ALL
            .iter()
            .map(|&e| Job::new("SpMV", input, e).key())
            .collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "two engine variants share a memo key");
            }
        }
        // The CLI parser round-trips every canonical label and its error
        // names both the bad argument and the valid engines.
        for e in EngineVariant::ALL {
            assert_eq!(EngineVariant::parse(e.label()), Ok(e));
            // Case-insensitive: the uppercase spelling names the same engine.
            assert_eq!(EngineVariant::parse(&e.label().to_uppercase()), Ok(e));
        }
        assert_eq!(
            EngineVariant::parse("blocked"),
            Ok(EngineVariant::BlockedSve)
        );
        assert_eq!(EngineVariant::parse("sam"), Ok(EngineVariant::SamStream));
        let msg = EngineVariant::parse("warp-drive").unwrap_err().to_string();
        assert!(
            msg.contains("warp-drive")
                && msg.contains("blocked-sve")
                && msg.contains("sam-stream")
                && msg.contains("tmu"),
            "{msg}"
        );
    }

    #[test]
    fn alternative_backends_run_through_the_runner() {
        let input = InputSpec::Uniform {
            rows: 128,
            cols: 96,
            nnz_per_row: 4,
            seed: 9,
        };
        let runner = Runner::with_workers(2);
        let jobs = [
            Job::new("SpMV", input, EngineVariant::BlockedSve),
            Job::new("SpMV", input, EngineVariant::SamStream),
            Job::expression("y(i) = A(i,j:csr) * x(j)", input, EngineVariant::BlockedSve),
            Job::expression(
                "Z(i,j) = A(i,k:csr) * B(k,j:csr)",
                input,
                EngineVariant::SamStream,
            ),
        ];
        let res = runner.run_all(&jobs);
        for (r, job) in res.iter().zip(&jobs) {
            assert!(r.error.is_none(), "{}: {:?}", job.key(), r.error);
            assert!(r.stats.cycles > 0, "{}", job.key());
            assert!(r.outq.is_empty(), "software paths have no outQ");
        }
        // Engine-specific observables land in their own sections only.
        let occ = res[0]
            .registry
            .gauge("blocked.tile_occupancy")
            .expect("blocked runs carry occupancy");
        assert!(occ > 0.0 && occ <= 1.0);
        assert!(res[0].registry.counter("blocked.tiles").unwrap_or(0) > 0);
        assert!(res[1].registry.counter("sam.tokens").unwrap_or(0) > 0);
        assert!(res[1].registry.counter("sam.merger_stalls").is_some());
        // bench_row carries each engine's section next to `system`.
        let brow = bench_row("figX", "table5", &jobs[0], &res[0]);
        assert_eq!(brow.sections(), ["blocked", "system"]);
        assert_eq!(brow.stats.gauge("blocked.tile_occupancy"), Some(occ));
        let srow = bench_row("figX", "table5", &jobs[1], &res[1]);
        assert_eq!(srow.sections(), ["sam", "system"]);
    }

    /// The whole engine × kernel support set, pinned on the `matrix` bin's
    /// nine shapes and four engines: each `—` cell of
    /// `results/matrix.txt` is an `Unsupported` answer, and every other
    /// cell runs.
    #[test]
    fn unsupported_pairs_are_exactly_the_matrix_dashes() {
        let input = InputSpec::Uniform {
            rows: 64,
            cols: 64,
            nnz_per_row: 4,
            seed: 3,
        };
        let engines = [
            EngineVariant::Tmu,
            EngineVariant::Imp,
            EngineVariant::BlockedSve,
            EngineVariant::SamStream,
        ];
        // (kernel, expression source, one mark per engine: `x` runs, `—`
        // is unsupported).
        let table = [
            ("SpMV", None, "xxxx"),
            ("SpMM", None, "x—x—"),
            ("SpMSpM", None, "xx—x"),
            ("SpKAdd", None, "x——x"),
            ("PR", None, "x———"),
            ("TC", None, "x———"),
            ("expr", Some("y(i) = A(i,j:csr) * x(j)"), "x—xx"),
            ("expr", Some("Z(i,j) = A(i,k:csr) * B(k,j:csr)"), "x——x"),
            ("expr", Some("Z(i,j) = A(i,j:dcsr) + B(i,j:dcsr)"), "x——x"),
        ];
        let mut jobs = Vec::new();
        let mut dashes = Vec::new();
        for (kernel, src, marks) in table {
            for (engine, mark) in engines.into_iter().zip(marks.chars()) {
                jobs.push(match src {
                    Some(src) => Job::expression(src, input, engine),
                    None => Job::new(kernel, input, engine),
                });
                if mark == '—' {
                    dashes.push(format!(
                        "{} has no {} variant",
                        src.unwrap_or(kernel),
                        engine.label()
                    ));
                }
            }
        }
        assert_eq!(dashes.len(), 16, "the dashes of results/matrix.txt");
        let res = Runner::with_workers(2).run_all(&jobs);
        let mut unsupported = Vec::new();
        for (r, job) in res.iter().zip(&jobs) {
            match &r.error {
                None => assert!(r.stats.cycles > 0, "{}", job.key()),
                Some(JobError::Unsupported(u)) => {
                    assert_eq!(u.engine, job.engine);
                    unsupported.push(u.to_string());
                }
                Some(JobError::Panicked(msg)) => panic!("{}: {msg}", job.key()),
            }
        }
        assert_eq!(unsupported, dashes);
    }

    #[test]
    fn baseline_key_ignores_tmu_config() {
        let jobs = small_grid();
        let base = &jobs[0];
        let retuned = base.clone().with_tmu(TmuConfig::paper().single_lane());
        assert_eq!(base.key(), retuned.key(), "baselines ignore the TMU config");
        let tmu = &jobs[2];
        let tmu_retuned = tmu.clone().with_tmu(TmuConfig::paper().single_lane());
        assert_ne!(tmu.key(), tmu_retuned.key());
    }
}
