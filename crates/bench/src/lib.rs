//! Benchmark harness for the TMU reproduction.
//!
//! One binary per paper artifact (`fig03`, `fig10`, … `area`); each
//! regenerates the corresponding table or figure on the synthetic Table 6
//! stand-ins and writes a plain-text report under `results/` plus
//! machine-readable rows into `results/bench.json` (see [`json`]).
//!
//! Figure binaries dispatch their simulations through the parallel
//! [`runner`], which memoizes (job → result) so figures sharing the same
//! underlying runs (10/11/12/13/15) simulate each pair exactly once.
//!
//! Environment knobs, each read once at startup:
//! * `TMU_SCALE` — global input scale multiplier (default 1.0 — itself
//!   ≈32× smaller than the paper's inputs, see `tmu_tensor::gen`).
//! * `TMU_JOBS` — worker threads of the runner (default: available
//!   parallelism). Results are independent of the worker count.

#![warn(missing_docs)]

pub mod figs;
pub mod json;
pub mod runner;
pub mod tracecli;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::OnceLock;

use tmu_kernels::workload::{KernelKind, Workload};
use tmu_kernels::{
    cpals::CpAls,
    mttkrp::{Mttkrp, MttkrpVariant},
    pagerank::PageRank,
    spkadd::Spkadd,
    spmm::Spmm,
    spmspm::Spmspm,
    spmv::Spmv,
    sptc::Sptc,
    trianglecount::TriangleCount,
};
use tmu_serve::{ServeOutcome, TenantReport};
use tmu_tensor::gen::{InputId, ScaledInput};
use tmu_tensor::CsrMatrix;
use tmu_trace::StatsRegistry;

use crate::json::BenchRow;

/// What a benchmark binary's body may return into [`run_main`]: either
/// nothing (success unless a job failed) or an explicit
/// [`std::process::ExitCode`] (tools that fail on bad arguments).
pub trait MainOutcome {
    /// The exit code the body chose on its own.
    fn into_exit_code(self) -> std::process::ExitCode;
}

impl MainOutcome for () {
    fn into_exit_code(self) -> std::process::ExitCode {
        std::process::ExitCode::SUCCESS
    }
}

impl MainOutcome for std::process::ExitCode {
    fn into_exit_code(self) -> std::process::ExitCode {
        self
    }
}

/// Shared epilogue of every benchmark binary: runs `body`, then checks
/// the runner's failed-job counter. A body that returned success still
/// exits nonzero when any simulation panicked — a crashed grid point
/// writes every healthy row but cannot masquerade as a clean run.
///
/// ```no_run
/// fn main() -> std::process::ExitCode {
///     tmu_bench::run_main(|| {
///         let runner = tmu_bench::runner::Runner::new();
///         tmu_bench::figs::fig03(&runner);
///     })
/// }
/// ```
pub fn run_main<R: MainOutcome>(body: impl FnOnce() -> R) -> std::process::ExitCode {
    let code = body().into_exit_code();
    let n = runner::failed_jobs();
    if n > 0 {
        eprintln!("error: {n} job(s) failed; see the [FAIL] lines above");
        return std::process::ExitCode::FAILURE;
    }
    code
}

/// Input scale multiplier from `TMU_SCALE`, read once per process
/// (default 1.0). A value that is not a positive finite number warns on
/// stderr, naming the variable and the value, and falls back to 1.0.
/// Reading the environment once makes the value immune to `set_var` races
/// under the parallel test runner and the parallel experiment runner
/// alike; code that needs a different scale threads it explicitly (see
/// [`matrix_workload_at`] and [`runner::InputSpec`]).
pub fn scale() -> f64 {
    static SCALE: OnceLock<f64> = OnceLock::new();
    *SCALE.get_or_init(|| {
        let raw = std::env::var("TMU_SCALE").ok();
        match runner::parse_pos_float("TMU_SCALE", raw.as_deref()) {
            Ok(Some(s)) => s,
            Ok(None) => 1.0,
            Err(msg) => {
                eprintln!("warning: {msg}; using default 1.0");
                1.0
            }
        }
    })
}

/// Geometric mean of the positive, finite entries of a slice.
///
/// Non-positive or non-finite entries carry no information on a log scale
/// (`ln` would turn them into NaN and poison the whole mean), so they are
/// filtered out; a slice without any positive entry yields 0.0.
pub fn geomean(xs: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for &x in xs {
        if x.is_finite() && x > 0.0 {
            sum += x.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// A figure report: plain text printed and written to `results/<name>.txt`,
/// plus structured per-run rows merged into `results/bench.json`.
#[derive(Debug)]
pub struct Report {
    name: &'static str,
    body: String,
    rows: Vec<BenchRow>,
}

impl Report {
    /// Starts a report for `name` (e.g. `"fig10"`).
    pub fn new(name: &'static str, title: &str) -> Self {
        let mut body = String::new();
        let _ = writeln!(body, "# {name}: {title}");
        let _ = writeln!(
            body,
            "# scale = {} (see DESIGN.md §2 for input substitution)",
            scale()
        );
        Self {
            name,
            body,
            rows: Vec::new(),
        }
    }

    /// The report's figure name (`"fig10"`, …).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Appends a line (also echoed to stdout).
    pub fn line(&mut self, s: impl AsRef<str>) {
        println!("{}", s.as_ref());
        self.body.push_str(s.as_ref());
        self.body.push('\n');
    }

    /// Appends one structured row for `results/bench.json`.
    pub fn push_row(&mut self, row: BenchRow) {
        self.rows.push(row);
    }

    /// Writes the report under `results/<name>.txt` and, when the report
    /// carries structured rows, refreshes `results/bench.json`.
    ///
    /// # Panics
    ///
    /// Panics (with the offending path in the message) when `results/`
    /// cannot be created or written — see [`Report::try_save`] for the
    /// propagating form.
    pub fn save(&self) -> PathBuf {
        self.try_save()
            .unwrap_or_else(|e| panic!("cannot save report {}: {e}", self.name))
    }

    /// Fallible [`Report::save`]: errors name the path that failed.
    pub fn try_save(&self) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("results");
        json::create_dir(&dir)?;
        let path = dir.join(format!("{}.txt", self.name));
        json::write_text(&path, &self.body)?;
        println!("→ wrote {}", path.display());
        if !self.rows.is_empty() {
            json::record(self.name, self.rows.clone());
            let jpath = json::write_bench_json(&dir)?;
            println!("→ wrote {}", jpath.display());
        }
        Ok(path)
    }
}

/// One tenant's `bench.json` row for a served trace (the `serve` and
/// `chaos` figures): the labels plus the tenant's `serve.*` stats.
pub fn tenant_row(
    figure: &str,
    input: String,
    engine: String,
    out: &ServeOutcome,
    t: &TenantReport,
) -> BenchRow {
    let queue_cycles = out
        .outcomes
        .iter()
        .filter(|o| o.tenant == t.tenant)
        .map(|o| o.queue_cycles())
        .sum();
    let checkpoint_cycles = out.checkpoint_cycles.get(&t.tenant).copied().unwrap_or(0);
    let mut stats = StatsRegistry::new();
    stats.set_counter("serve.makespan_cycles", out.makespan);
    stats.set_counter("serve.queue_cycles", queue_cycles);
    stats.set_counter("serve.service_cycles", t.service_cycles);
    stats.set_counter("serve.lat_p50", t.sojourn.p50);
    stats.set_counter("serve.lat_p95", t.sojourn.p95);
    stats.set_counter("serve.lat_p99", t.sojourn.p99);
    stats.set_counter("serve.retries", t.retries);
    stats.set_counter("serve.deadline_miss", t.deadline_misses);
    stats.set_counter("serve.shed", t.rejected);
    stats.set_counter("serve.checkpoint_cycles", checkpoint_cycles);
    stats.set_counter("serve.slot_faults", out.slot_faults.injected);
    BenchRow {
        figure: figure.to_owned(),
        kernel: "mix".to_owned(),
        input,
        engine,
        machine: "table5".to_owned(),
        tenant: Some(format!("tenant{}", t.tenant)),
        stats,
        ..BenchRow::default()
    }
}

/// A matrix kernel: its figure name, its category and how to bind it to
/// a generated matrix.
struct MatrixKernel {
    name: &'static str,
    kind: KernelKind,
    bind: fn(&CsrMatrix) -> Box<dyn Workload>,
}

/// Every matrix kernel (Figure 10's and SpMM), the one table
/// [`matrix_kernel`] and [`matrix_kernel_kind`] read.
const MATRIX_KERNEL_TABLE: [MatrixKernel; 6] = [
    MatrixKernel {
        name: "SpMV",
        kind: Spmv::KIND,
        bind: |m| Box::new(Spmv::new(m)),
    },
    MatrixKernel {
        name: "SpMM",
        kind: Spmm::KIND,
        bind: |m| Box::new(Spmm::new(m)),
    },
    MatrixKernel {
        name: "SpMSpM",
        kind: Spmspm::KIND,
        bind: |m| Box::new(Spmspm::new(m)),
    },
    MatrixKernel {
        name: "SpKAdd",
        kind: Spkadd::KIND,
        bind: |m| Box::new(Spkadd::new(m)),
    },
    MatrixKernel {
        name: "PR",
        kind: PageRank::KIND,
        bind: |m| Box::new(PageRank::new(m)),
    },
    MatrixKernel {
        name: "TC",
        kind: TriangleCount::KIND,
        bind: |m| Box::new(TriangleCount::new(m)),
    },
];

/// The table row of matrix kernel `kernel`.
///
/// # Panics
///
/// Panics if no matrix kernel has that name.
fn matrix_kernel_row(kernel: &str) -> &'static MatrixKernel {
    MATRIX_KERNEL_TABLE
        .iter()
        .find(|k| k.name == kernel)
        .unwrap_or_else(|| panic!("unknown matrix kernel {kernel}"))
}

/// Builds the matrix `kernel` over an already-generated matrix.
///
/// # Panics
///
/// Panics if no matrix kernel has that name.
pub fn matrix_kernel(kernel: &str, m: &CsrMatrix) -> Box<dyn Workload> {
    (matrix_kernel_row(kernel).bind)(m)
}

/// The category of matrix `kernel`, read without binding a workload.
///
/// # Panics
///
/// Panics if no matrix kernel has that name.
pub fn matrix_kernel_kind(kernel: &str) -> KernelKind {
    matrix_kernel_row(kernel).kind
}

/// Builds the matrix workload `kernel` on Table 6 input `id` at `scale`.
pub fn matrix_workload_at(kernel: &str, id: InputId, scale: f64) -> Box<dyn Workload> {
    let m = ScaledInput::new(id).with_scale(scale).matrix();
    matrix_kernel(kernel, &m)
}

/// Builds the matrix workload `kernel` on `id` at the global [`scale`].
pub fn matrix_workload(kernel: &str, id: InputId) -> Box<dyn Workload> {
    matrix_workload_at(kernel, id, scale())
}

/// Builds the tensor workload `kernel` on Table 6 input `id` at `scale`.
pub fn tensor_workload_at(kernel: &str, id: InputId, scale: f64) -> Box<dyn Workload> {
    let t = ScaledInput::new(id).with_scale(scale).tensor();
    match kernel {
        "MTTKRP_MP" => Box::new(Mttkrp::new(&t, MttkrpVariant::Mp)),
        "MTTKRP_CP" => Box::new(Mttkrp::new(&t, MttkrpVariant::Cp)),
        "CP-ALS" => {
            // CP-ALS needs an order-3 tensor; fuse trailing modes.
            let fused = fuse_to_order3(&t);
            Box::new(CpAls::new(&fused))
        }
        "SpTC" => {
            let fused = fuse_to_order3(&t);
            // Contract against a second synthetic tensor with compatible
            // k/l dimensions.
            let dims = fused.dims().to_vec();
            let b = tmu_tensor::gen::random_tensor(
                &[dims[2], dims[1], 64],
                (fused.nnz() / 2).max(16),
                0xB0B,
            );
            Box::new(Sptc::new(&fused, &b))
        }
        other => panic!("unknown tensor kernel {other}"),
    }
}

/// Builds the tensor workload `kernel` on `id` at the global [`scale`].
pub fn tensor_workload(kernel: &str, id: InputId) -> Box<dyn Workload> {
    tensor_workload_at(kernel, id, scale())
}

/// Fuses trailing modes so an order-n tensor becomes order-3, compacting
/// the fused coordinates to the dense range of occupied values (keeps
/// factor/auxiliary structures realistically sized — see `tmu_kernels::mttkrp`).
pub fn fuse_to_order3(t: &tmu_tensor::CooTensor) -> tmu_tensor::CooTensor {
    if t.order() == 3 {
        return t.clone();
    }
    let dims = t.dims();
    let mut raw: Vec<(Vec<u32>, u64, f64)> = t
        .iter()
        .map(|(c, v)| {
            let mut l = 0u64;
            for (d, &size) in dims[2..].iter().enumerate() {
                l = l * size as u64 + c[d + 2] as u64;
            }
            (c, l, v)
        })
        .collect();
    let mut distinct: Vec<u64> = raw.iter().map(|(_, l, _)| *l).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let remap: std::collections::HashMap<u64, u32> = distinct
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u32))
        .collect();
    let entries: Vec<(Vec<u32>, f64)> = raw
        .drain(..)
        .map(|(c, l, v)| (vec![c[0], c[1], remap[&l]], v))
        .collect();
    tmu_tensor::CooTensor::from_entries(vec![dims[0], dims[1], distinct.len().max(1)], entries)
        .expect("fusion stays in bounds")
}

/// Matrix kernels of Figure 10 (left panel).
pub const MATRIX_KERNELS: [&str; 5] = ["SpMV", "SpMSpM", "SpKAdd", "PR", "TC"];

/// Tensor kernels of Figure 10 (right panel).
pub const TENSOR_KERNELS: [&str; 4] = ["MTTKRP_MP", "MTTKRP_CP", "CP-ALS", "SpTC"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn geomean_filters_non_positive() {
        // A zero or negative speedup must not poison the mean with NaN.
        assert!((geomean(&[2.0, 0.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.0, -3.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.0, f64::NAN, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[0.0, -1.0]), 0.0);
        assert!(!geomean(&[0.0]).is_nan());
    }

    #[test]
    fn chaos_tenant_rows_report_measured_queue_cycles() {
        use tmu_serve::{serve, tenant_reports, JobKind, JobSpec, KernelKind, ServeConfig};
        let kind = JobKind::Kernel {
            kind: KernelKind::Spmv,
            rows: 48,
            nnz_per_row: 3,
            seed: 21,
        };
        // One slot, overlapping arrivals from two tenants, slot faults.
        let trace = (0..4u32)
            .map(|id| JobSpec {
                id,
                tenant: id % 2,
                arrival: u64::from(id) * 100,
                weight: 1,
                deadline: None,
                kind: kind.clone(),
            })
            .collect();
        let mut cfg = ServeConfig {
            slots: 1,
            quantum: 400,
            ..ServeConfig::default()
        };
        cfg.resilience.slot_faults = tmu_serve::SlotFaultSpec::with_rate(0xC4A05, 150);
        let out = serve(cfg, trace).expect("chaos run completes");
        let (done, failed) = (&out.outcomes, &out.failed);
        let mut queued = 0;
        for t in tenant_reports(done, failed, &out.shed, &out.retries, out.makespan) {
            let row = tenant_row("chaos", "test".into(), "chaos-rr".into(), &out, &t);
            let mine = done.iter().filter(|o| o.tenant == t.tenant);
            let measured: u64 = mine.map(|o| o.queue_cycles()).sum();
            assert_eq!(row.stats.counter("serve.queue_cycles"), Some(measured));
            let faults = out.slot_faults.injected;
            assert_eq!(row.stats.counter("serve.slot_faults"), Some(faults));
            assert_eq!(row.sections(), ["serve"]);
            queued += measured;
        }
        assert!(queued > 0, "the tenants queued behind each other");
    }

    #[test]
    fn label_keys_are_not_section_names() {
        // Every section a producer writes: the runner's, the tenant rows'
        // and those of the `apps` and `formats` binaries.
        for section in [
            "system", "tmu", "blocked", "sam", "serve", "apps", "convert",
        ] {
            assert!(!BenchRow::label_keys().contains(&section), "{section}");
        }
    }

    #[test]
    fn workload_builders_cover_all_kernels() {
        // Scale threaded explicitly — mutating TMU_SCALE here would race
        // against other tests reading the process-wide value.
        for k in MATRIX_KERNELS {
            let w = matrix_workload_at(k, InputId::M4, 0.02);
            assert_eq!(w.name(), k);
        }
        for k in TENSOR_KERNELS {
            let w = tensor_workload_at(k, InputId::T4, 0.02);
            assert_eq!(w.name(), k);
        }
    }
}
