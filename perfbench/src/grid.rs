//! `tmu-grid` and `sve-grid`: Figure 10's nine kernels on Table 6
//! stand-ins, simulated on the full TMU (`Workload::run_tmu`) or on the
//! vectorized software baseline (`Workload::run_baseline`) of the Table 5
//! machine.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tmu::{OutQSnapshot, TmuConfig};
use tmu_kernels::cpals::CpAls;
use tmu_kernels::mttkrp::{Mttkrp, MttkrpVariant};
use tmu_kernels::sptc::Sptc;
use tmu_kernels::Workload;
use tmu_sim::{configs, RunStats, SystemConfig};
use tmu_tensor::gen::{self, InputId, ScaledInput};
use tmu_tensor::CooTensor;

use crate::spans::Spans;
use crate::{Bench, Counts, Metrics, Pass, Tally};

/// Which engine a grid simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The full TMU, `TmuConfig::paper()`.
    Tmu,
    /// The vectorized software baseline.
    Sve,
}

/// The fixed work list: each input, its scale, and the kernels bound to it.
///
/// SpMV runs on M3 at a quarter scale, whose working set (≈ 2 MB) spills
/// the modelled L2 into the LLC (scale 1, ≈ 8.5 MB, would reach the 8 MB
/// LLC but takes ~4 s an item, too long to repeat often in one run). PR
/// and SpKAdd run on M3 at a tenth of scale 1, and all three on M5 at a
/// scale that fits in the LLC. SpMSpM and TC cost the most per nonzero and
/// run small. The tensor kernels run on T2. No item takes more than about
/// a second, so one run repeats every item several times.
const WORK: &[(InputId, f64, &[&str])] = &[
    (InputId::M3, 0.25, &["SpMV"]),
    (InputId::M3, 0.1, &["PR", "SpKAdd"]),
    (InputId::M5, 0.05, &["SpMV", "PR", "SpKAdd"]),
    (InputId::M3, 0.01, &["SpMSpM", "TC"]),
    (
        InputId::T2,
        0.05,
        &["MTTKRP_MP", "MTTKRP_CP", "CP-ALS", "SpTC"],
    ),
];

/// The paper's per-kernel geomean TMU speedups, as quoted in the header
/// of `results/fig10.txt`.
pub const PAPER_GEOMEAN: &[(&str, f64)] = &[
    ("SpMV", 3.32),
    ("SpMSpM", 2.82),
    ("SpKAdd", 6.98),
    ("PR", 2.74),
    ("TC", 4.56),
    ("MTTKRP_MP", 3.76),
    ("MTTKRP_CP", 4.01),
    ("CP-ALS", 2.88),
    ("SpTC", 3.79),
];

struct Item {
    /// `<kernel>/<input>`; spans and counts are keyed by it.
    label: String,
    workload: Box<dyn Workload>,
}

/// A grid with every work item bound to its input.
pub struct Grid {
    engine: Engine,
    sys: SystemConfig,
    items: Vec<Item>,
}

enum Input {
    Matrix(tmu_tensor::CsrMatrix),
    Tensor(CooTensor),
}

/// Generates every input once from `seed` and binds each work item.
pub fn setup(engine: Engine, seed: u64, spans: &mut Spans) -> Grid {
    let mut items = Vec::new();
    for &(id, scale, kernels) in WORK {
        let spec = ScaledInput { id, scale, seed };
        let input = spans.span("tensor.gen", id.label(), |_| {
            if spec.is_matrix() {
                Input::Matrix(spec.matrix())
            } else {
                Input::Tensor(spec.tensor())
            }
        });
        for &kernel in kernels {
            let label = format!("{kernel}/{}", id.label());
            let workload = spans.span("kernels.bind", &label, |s| match &input {
                Input::Matrix(m) => tmu_bench::matrix_kernel(kernel, m),
                Input::Tensor(t) => bind_tensor(kernel, t, seed, s),
            });
            items.push(Item { label, workload });
        }
    }
    Grid {
        engine,
        sys: configs::neoverse_n1_system(),
        items,
    }
}

/// Binds a tensor kernel the way the figure harness does, with SpTC's
/// second operand drawn from the benchmark seed.
fn bind_tensor(kernel: &str, t: &CooTensor, seed: u64, spans: &mut Spans) -> Box<dyn Workload> {
    match kernel {
        "MTTKRP_MP" => Box::new(Mttkrp::new(t, MttkrpVariant::Mp)),
        "MTTKRP_CP" => Box::new(Mttkrp::new(t, MttkrpVariant::Cp)),
        "CP-ALS" => Box::new(CpAls::new(&tmu_bench::fuse_to_order3(t))),
        "SpTC" => {
            let a = tmu_bench::fuse_to_order3(t);
            let dims = a.dims().to_vec();
            let b = spans.span("tensor.gen", "SpTC-B", |_| {
                gen::random_tensor(&[dims[2], dims[1], 64], (a.nnz() / 2).max(16), seed ^ 0xB0B)
            });
            Box::new(Sptc::new(&a, &b))
        }
        other => panic!("no tensor kernel named {other}"),
    }
}

impl Grid {
    /// Simulates one item on a fresh system.
    fn simulate(&self, item: &Item) -> Result<(RunStats, Vec<OutQSnapshot>), String> {
        match self.engine {
            Engine::Sve => Ok((item.workload.run_baseline(self.sys), Vec::new())),
            Engine::Tmu => {
                let run = item.workload.run_tmu(self.sys, TmuConfig::paper());
                if let Some(reason) = run.outq.iter().find_map(|o| o.retired.clone()) {
                    return Err(format!("TMU engine retired: {reason}"));
                }
                Ok((run.stats, run.outq.iter().map(|o| o.snapshot()).collect()))
            }
        }
    }
}

/// The informational fidelity table: each kernel's simulated TMU speedup
/// over the SVE baseline (geomean over its inputs, from the two grids'
/// recorded cycles at one seed) beside the paper's geomean. The model is
/// unvalidated beyond those published geomeans.
pub fn fidelity(tmu: &Counts, sve: &Counts) -> Vec<String> {
    let mut lines = Vec::new();
    for &(kernel, paper) in PAPER_GEOMEAN {
        let mut per_input = Vec::new();
        for (key, &tmu_cycles) in tmu {
            let Some(label) = key.strip_suffix(".cycles") else {
                continue;
            };
            if label.split_once('/').map(|(k, _)| k) != Some(kernel) {
                continue;
            }
            if let Some(&sve_cycles) = sve.get(key) {
                per_input.push((label, ratio(sve_cycles, tmu_cycles)));
            }
        }
        if per_input.is_empty() {
            continue;
        }
        let speedups: Vec<f64> = per_input.iter().map(|&(_, s)| s).collect();
        let geomean = tmu_bench::geomean(&speedups);
        let inputs: Vec<String> = per_input
            .iter()
            .map(|(label, s)| format!("{label} {s:.2}x"))
            .collect();
        lines.push(format!(
            "  {kernel:<10} {geomean:>6.2}x  paper {paper:.2}x  ({})",
            inputs.join(", ")
        ));
    }
    lines
}

/// Records one item's simulated counts under `<label>.<field>`.
fn record(counts: &mut Counts, label: &str, stats: &RunStats, outq: &[OutQSnapshot]) {
    let core = stats.total();
    let m = &stats.mem;
    let mut put = |field: &str, v: u64| {
        counts.insert(format!("{label}.{field}"), v);
    };
    put("cycles", stats.cycles);
    put("committed", core.committed);
    put("loads", core.loads);
    put("core_cycles", core.cycles);
    put("frontend", core.frontend);
    put("backend", core.backend);
    for (level, s) in [("l1", &m.l1), ("l2", &m.l2), ("llc", &m.llc)] {
        put(&format!("{level}.hits"), s.hits);
        put(&format!("{level}.misses"), s.misses);
        put(&format!("{level}.merged"), s.merged);
    }
    put("dram.read", m.dram_lines_read);
    put("dram.written", m.dram_lines_written);
    put("dram.row_hits", m.dram_row_hits);
    put("dram.row_misses", m.dram_row_misses);
    if !outq.is_empty() {
        put("outq.entries", outq.iter().map(|o| o.entries).sum());
        put("outq.chunks", outq.iter().map(|o| o.chunks).sum());
        put(
            "outq.backpressure",
            outq.iter().map(|o| o.backpressure_cycles).sum(),
        );
    }
}

/// Sum of `field` over every item.
fn field_sum(counts: &Counts, field: &str) -> u64 {
    counts
        .iter()
        .filter(|(k, _)| k.split_once('.').map(|(_, f)| f) == Some(field))
        .map(|(_, v)| v)
        .sum()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Bench for Grid {
    fn run_span(&self) -> &'static str {
        match self.engine {
            Engine::Tmu => "sim.tmu_run",
            Engine::Sve => "sim.sve_run",
        }
    }

    fn items(&self) -> usize {
        self.items.len()
    }

    fn run_item(&mut self, i: usize, spans: &mut Spans) -> Pass {
        let mut pass = Pass::default();
        let item = &self.items[i];
        pass.tally.attempted = 1;
        let run = spans.span(self.run_span(), &item.label, |_| {
            catch_unwind(AssertUnwindSafe(|| self.simulate(item)))
        });
        match run {
            Ok(Ok((stats, outq))) => {
                pass.sim_cycles = stats.cycles;
                pass.jobs = 1;
                record(&mut pass.counts, &item.label, &stats, &outq);
            }
            Ok(Err(e)) => {
                eprintln!("{}: {e}", item.label);
                pass.tally.failed = 1;
            }
            Err(_) => {
                eprintln!("{}: simulation panicked", item.label);
                pass.tally.failed = 1;
            }
        }
        pass
    }

    fn verify(&mut self, spans: &mut Spans) -> Tally {
        let mut tally = Tally::default();
        for item in &self.items {
            tally.attempted += 1;
            let verdict = spans.span("kernels.verify", &item.label, |_| {
                catch_unwind(AssertUnwindSafe(|| item.workload.verify()))
            });
            let err = match verdict {
                Ok(Ok(())) => continue,
                Ok(Err(e)) => e,
                Err(_) => "verify panicked".to_owned(),
            };
            eprintln!("{}: verify failed: {err}", item.label);
            tally.failed += 1;
        }
        tally
    }

    fn layer_counts(&self, counts: &Counts, m: &mut Metrics) {
        let sum = |field: &str| field_sum(counts, field);
        let cycles = sum("cycles");
        let mut put = |name: &str, v: f64| {
            m.insert(name.to_owned(), v);
        };
        put("sim.cycles", cycles as f64);
        put("sim.committed", sum("committed") as f64);
        put("sim.loads", sum("loads") as f64);
        put("sim.core_cycles", sum("core_cycles") as f64);
        put(
            "sim.frontend_frac",
            ratio(sum("frontend"), sum("core_cycles")),
        );
        put(
            "sim.backend_frac",
            ratio(sum("backend"), sum("core_cycles")),
        );
        let mut cache_accesses = 0;
        for level in ["l1", "l2", "llc"] {
            let misses = sum(&format!("{level}.misses"));
            let accesses = sum(&format!("{level}.hits")) + misses + sum(&format!("{level}.merged"));
            cache_accesses += accesses;
            put(&format!("sim.{level}.accesses"), accesses as f64);
            put(&format!("sim.{level}.miss_rate"), ratio(misses, accesses));
        }
        put(
            "sim.cache_accesses_per_cycle",
            ratio(cache_accesses, cycles),
        );
        put(
            "sim.dram.lines",
            (sum("dram.read") + sum("dram.written")) as f64,
        );
        let (row_hits, row_misses) = (sum("dram.row_hits"), sum("dram.row_misses"));
        put("sim.dram.accesses", (row_hits + row_misses) as f64);
        put(
            "sim.dram.row_hit_rate",
            ratio(row_hits, row_hits + row_misses),
        );
        put("core.outq.entries", sum("outq.entries") as f64);
        put("core.outq.chunks", sum("outq.chunks") as f64);
        put(
            "core.outq.backpressure_cycles",
            sum("outq.backpressure") as f64,
        );
    }
}
