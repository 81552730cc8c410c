//! `perfbench` — host-cost benchmark of the TMU reproduction's simulator.
//!
//! Drives the repository's layers from outside, through their public
//! functions, and measures what simulating costs the host: host time of
//! one pass over a fixed work list, simulated cycles per host second,
//! set-up time and peak memory; a traced run splits host time by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tmu-grid --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run it from the repository root. Each run sets up its workload, runs
//! one untimed warm-up pass, checks the outputs, then repeats passes for
//! `--seconds`, setting the workload up again before each (the median of
//! all set-ups is `setup_s`; the passes reuse the first instance). A pass
//! runs the work items in order and times each one.
//!
//! `pass_s` is the sum over items of each item's fastest time in the run:
//! an item's fastest repetition moves far less between runs than any
//! average of whole passes (on a 2-vCPU VM over 30 s windows: 8 % vs 14 %
//! between the quartiles). Every timed call is also followed by a fixed
//! calibration loop ([`probe`]), and the end-to-end times are scaled by
//! the loop's fastest reading in the run to a reference host speed, so
//! that a shared host's drift in speed between runs reads less as a
//! change in the program. The unscaled median and spread of whole passes
//! are printed beside it.
//!
//! Every simulated count must repeat exactly across passes and across
//! runs with the same seed (the previous run's counts are kept under
//! `perfbench/out/`). The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`, which
//! also writes its spans to `perfbench/out/`. Any failed operation makes
//! the exit code nonzero.

mod chaos;
mod grid;
mod probe;
mod spans;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use probe::HostClock;
use spans::Spans;

const USAGE: &str = "usage: perfbench --workload <tmu-grid|sve-grid|serve-chaos> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// A seed kept out of every tuning run, for confirming claimed gains.
const HELD_OUT_SEED: u64 = 90_017;

/// Set-ups before the warm-up pass, and again before every timed pass,
/// so `setup_s` (their median) samples the host across the whole run as
/// `pass_s` does. Only the first instance is measured by the passes.
const SETUPS_BEFORE: usize = 3;
const SETUPS_PER_PASS: usize = 2;

/// Timed passes per run even when one pass outlasts `--seconds`.
const MIN_PASSES: usize = 3;

/// Where counts and spans are kept between runs.
const OUT_DIR: &str = "perfbench/out";

/// End-to-end metrics, measured with tracing off: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("pass_s", "s"),
    ("sim_kcycles_per_s", "kcycles/s"),
    ("jobs_per_s", "jobs/s"),
    ("setup_s", "s"),
    ("peak_mem_mb", "MB"),
];

/// Per-layer metrics, from the traced run: (name, unit). A metric a
/// workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("bench.error_rate", "fraction"),
    ("bench.trace_overhead", "fraction"),
    ("bench.passes", "count"),
    ("tensor.gen_s", "s"),
    ("kernels.bind_s", "s"),
    ("kernels.verify_s", "s"),
    ("sim.tmu_run_s", "s"),
    ("sim.tmu_run_s.SpMV", "s"),
    ("sim.tmu_run_s.SpMSpM", "s"),
    ("sim.tmu_run_s.SpKAdd", "s"),
    ("sim.tmu_run_s.PR", "s"),
    ("sim.tmu_run_s.TC", "s"),
    ("sim.tmu_run_s.MTTKRP_MP", "s"),
    ("sim.tmu_run_s.MTTKRP_CP", "s"),
    ("sim.tmu_run_s.CP-ALS", "s"),
    ("sim.tmu_run_s.SpTC", "s"),
    ("sim.sve_run_s", "s"),
    ("sim.sve_run_s.SpMV", "s"),
    ("sim.sve_run_s.SpMSpM", "s"),
    ("sim.sve_run_s.SpKAdd", "s"),
    ("sim.sve_run_s.PR", "s"),
    ("sim.sve_run_s.TC", "s"),
    ("sim.sve_run_s.MTTKRP_MP", "s"),
    ("sim.sve_run_s.MTTKRP_CP", "s"),
    ("sim.sve_run_s.CP-ALS", "s"),
    ("sim.sve_run_s.SpTC", "s"),
    ("serve.build_s", "s"),
    ("serve.solo_s", "s"),
    ("serve.serve_s", "s"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.ns_per_op", "ns"),
    ("sim.cycles", "cycles"),
    ("sim.committed", "ops"),
    ("sim.loads", "ops"),
    ("sim.core_cycles", "cycles"),
    ("sim.frontend_frac", "fraction"),
    ("sim.backend_frac", "fraction"),
    ("sim.l1.accesses", "count"),
    ("sim.l1.miss_rate", "fraction"),
    ("sim.l2.accesses", "count"),
    ("sim.l2.miss_rate", "fraction"),
    ("sim.llc.accesses", "count"),
    ("sim.llc.miss_rate", "fraction"),
    ("sim.cache_accesses_per_cycle", "count/cycle"),
    ("sim.dram.lines", "count"),
    ("sim.dram.accesses", "count"),
    ("sim.dram.row_hit_rate", "fraction"),
    ("core.outq.entries", "count"),
    ("core.outq.chunks", "count"),
    ("core.outq.backpressure_cycles", "cycles"),
    ("serve.completed", "jobs"),
    ("serve.failed", "jobs"),
    ("serve.shed", "jobs"),
    ("serve.preemptions", "count"),
    ("serve.checkpoints", "count"),
    ("serve.retries", "count"),
    ("serve.slot_faults", "count"),
    ("serve.busy_cycles", "cycles"),
    ("serve.makespan_cycles", "cycles"),
    ("serve.sojourn_p99_cycles", "cycles"),
    ("serve.build_lookups", "count"),
    ("serve.build_hit_rate", "fraction"),
    ("apps.stage_cache_lookups", "count"),
    ("apps.stage_cache_hit_rate", "fraction"),
];

/// Exact simulated counts of one pass, keyed by name.
pub type Counts = BTreeMap<String, u64>;

/// Metric values keyed by name.
pub type Metrics = BTreeMap<String, f64>;

/// Operations attempted and failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one work item, or one pass over a workload's work list, produced.
#[derive(Debug, Default)]
pub struct Pass {
    pub tally: Tally,
    pub counts: Counts,
    /// Simulated cycles of the pass.
    pub sim_cycles: u64,
    /// Work items (grids) or jobs (serving) completed correctly.
    pub jobs: u64,
}

impl Pass {
    /// Adds one work item's outcome to a pass.
    fn add(&mut self, item: Pass) {
        self.tally += item.tally;
        self.counts.extend(item.counts);
        self.sim_cycles += item.sim_cycles;
        self.jobs += item.jobs;
    }
}

/// A workload bound to its inputs.
pub trait Bench {
    /// Name of the span around the simulating call.
    fn run_span(&self) -> &'static str;
    /// Work items in one pass over the fixed work list.
    fn items(&self) -> usize;
    /// Runs work item `i`.
    fn run_item(&mut self, i: usize, spans: &mut Spans) -> Pass;
    /// Output checks that run once, outside the timed passes.
    fn verify(&mut self, _spans: &mut Spans) -> Tally {
        Tally::default()
    }
    /// Per-layer counts derived from one pass's counts.
    fn layer_counts(&self, counts: &Counts, m: &mut Metrics);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    TmuGrid,
    SveGrid,
    ServeChaos,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "tmu-grid" => Some(Self::TmuGrid),
            "sve-grid" => Some(Self::SveGrid),
            "serve-chaos" => Some(Self::ServeChaos),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::TmuGrid => "tmu-grid",
            Self::SveGrid => "sve-grid",
            Self::ServeChaos => "serve-chaos",
        }
    }

    fn setup(self, seed: u64, spans: &mut Spans) -> (Box<dyn Bench>, Tally) {
        match self {
            Self::TmuGrid => (
                Box::new(grid::setup(grid::Engine::Tmu, seed, spans)),
                Tally::default(),
            ),
            Self::SveGrid => (
                Box::new(grid::setup(grid::Engine::Sve, seed, spans)),
                Tally::default(),
            ),
            Self::ServeChaos => {
                let (bench, tally) = chaos::setup(seed, spans);
                (Box::new(bench), tally)
            }
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => trace = Some(number()? != 0),
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\n{USAGE}\n(held-out seed for confirming claims: {HELD_OUT_SEED})"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One pass over the work list, each item timed; returns the pass, its
/// wall seconds and each item's wall seconds.
fn timed_pass(
    bench: &mut dyn Bench,
    clock: &mut HostClock,
    spans: &mut Spans,
    name: &str,
) -> (Pass, f64, Vec<f64>) {
    spans.span("pass", name, |s| {
        let mut pass = Pass::default();
        let mut item_s = Vec::with_capacity(bench.items());
        for i in 0..bench.items() {
            let (item, secs) = clock.time(|| bench.run_item(i, s));
            item_s.push(secs);
            pass.add(item);
        }
        (pass, item_s.iter().sum(), item_s)
    })
}

/// Runs one benchmark invocation; `Ok(false)` when any operation failed.
fn run(args: &Args) -> Result<bool, String> {
    let name = args.workload.name();
    let mut spans = Spans::new(args.trace);
    let mut tally = Tally::default();
    let mut clock = HostClock::new();

    let mut setup_s = Vec::new();
    let mut bench = set_up(args, &mut clock, &mut spans, &mut tally, &mut setup_s)?;
    for _ in 1..SETUPS_BEFORE {
        drop(set_up(
            args,
            &mut clock,
            &mut spans,
            &mut tally,
            &mut setup_s,
        )?);
    }

    // One untimed warm-up pass: its counts are the reference every timed
    // pass must repeat exactly.
    let (warm, _, _) = spans.span("warmup", name, |s| {
        timed_pass(bench.as_mut(), &mut clock, s, name)
    });
    tally += warm.tally;
    let reference = warm.counts;
    tally += spans.span("verify", name, |s| bench.verify(s));

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    // Whole-pass wall seconds, untraced and traced, and each item's
    // fastest untraced wall time.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut best = vec![f64::INFINITY; bench.items()];
    let mut passes = 0;
    // Past the minimum, start a pass only if a typical one still ends
    // within the budget.
    let mut all_s = Vec::new();
    while passes < MIN_PASSES
        || started.elapsed() + Duration::from_secs_f64(median(&all_s)) <= budget
    {
        // A traced run alternates traced and untraced passes, so the
        // tracing overhead is measured within one process.
        let on = args.trace && passes % 2 == 0;
        spans.set_enabled(on);
        for _ in 0..SETUPS_PER_PASS {
            drop(set_up(
                args,
                &mut clock,
                &mut spans,
                &mut tally,
                &mut setup_s,
            )?);
        }
        let (pass, secs, item_s) = timed_pass(bench.as_mut(), &mut clock, &mut spans, name);
        tally += pass.tally;
        if pass.counts != reference {
            report_mismatch("pass", &reference, &pass.counts);
            tally.failed += 1;
        }
        if on {
            traced.push(secs);
        } else {
            plain.push(secs);
            for (b, s) in best.iter_mut().zip(item_s) {
                *b = b.min(s);
            }
        }
        all_s.push(secs);
        passes += 1;
    }
    spans.set_enabled(args.trace);
    let pass_s = best.iter().sum::<f64>() * clock.scale();

    // Counts must also repeat across runs with the same seed.
    let counts_path = counts_path(args.workload, args.seed);
    if let Some(previous) = read_counts(&counts_path) {
        if previous != reference {
            report_mismatch("previous run", &previous, &reference);
            tally.failed += 1;
        }
    }
    write_file(&counts_path, &render_counts(&reference))?;

    println!(
        "perfbench {name} seed={} trace={}: {passes} timed passes (+1 warm-up) in {:.1} s, \
         {} ops attempted, {} failed",
        args.seed,
        u8::from(args.trace),
        started.elapsed().as_secs_f64(),
        tally.attempted,
        tally.failed
    );
    print_fidelity(args.workload, args.seed, &reference);

    let mut metrics = Metrics::new();
    let units: &[(&str, &str)] = if args.trace {
        let mut layers = Metrics::new();
        bench.layer_counts(&reference, &mut layers);
        layer_times(&spans, bench.run_span(), &mut layers);
        layers.insert("bench.passes".into(), passes as f64);
        layers.insert(
            "bench.trace_overhead".into(),
            median(&traced) / median(&plain) - 1.0,
        );
        layers.insert(
            "bench.error_rate".into(),
            tally.failed as f64 / tally.attempted.max(1) as f64,
        );
        for &(metric, _) in PER_LAYER {
            metrics.insert(metric.into(), layers.get(metric).copied().unwrap_or(0.0));
        }
        print_spread("pass (traced)", &traced);
        print_spread("pass (untraced)", &plain);
        for (metric, value) in &metrics {
            println!("  {metric:<32} {value}");
        }
        let path = Path::new(OUT_DIR).join(format!("spans-{name}-s{}.json", args.seed));
        write_file(&path, &spans.to_json(name, args.seed))?;
        println!("spans written to {}", path.display());
        PER_LAYER
    } else {
        print_spread("whole pass (wall)", &plain);
        println!(
            "  {:<20} {pass_s:.4}  (fastest time of each of {} items, summed, x{:.4} host scale)",
            "pass_s",
            best.len(),
            clock.scale()
        );
        print_spread("setup (wall)", &setup_s);
        metrics.insert("pass_s".into(), pass_s);
        metrics.insert(
            "sim_kcycles_per_s".into(),
            warm.sim_cycles as f64 / pass_s / 1e3,
        );
        metrics.insert("jobs_per_s".into(), warm.jobs as f64 / pass_s);
        metrics.insert("setup_s".into(), median(&setup_s) * clock.scale());
        metrics.insert("peak_mem_mb".into(), peak_mem_mb()?);
        END_TO_END
    };

    let correct = tally.failed == 0 && tally.attempted > 0;
    println!("{}", result_json(correct, tally, &metrics, units));
    Ok(correct)
}

/// One timed set-up of the workload; its wall seconds go to `setup_s`.
fn set_up(
    args: &Args,
    clock: &mut HostClock,
    spans: &mut Spans,
    tally: &mut Tally,
    setup_s: &mut Vec<f64>,
) -> Result<Box<dyn Bench>, String> {
    let (built, secs) = clock.time(|| {
        catch_unwind(AssertUnwindSafe(|| {
            spans.span("setup", args.workload.name(), |s| {
                args.workload.setup(args.seed, s)
            })
        }))
    });
    let (bench, t) = built.map_err(|_| "set-up panicked".to_owned())?;
    setup_s.push(secs);
    *tally += t;
    Ok(bench)
}

/// Per-layer host times from the spans: set-up layers as the median over
/// set-ups, pass layers as the median over traced passes, verification
/// once; then host cost per simulated cycle and per committed op.
fn layer_times(spans: &Spans, run_span: &str, layers: &mut Metrics) {
    layers.extend(median_by_key(spans.totals("setup")));
    layers.extend(median_by_key(spans.totals("pass")));
    layers.extend(spans.totals("verify").into_iter().flatten());
    let run_s = layers.get(&format!("{run_span}_s")).copied().unwrap_or(0.0);
    for (metric, per) in [
        ("sim.ns_per_cycle", "sim.cycles"),
        ("sim.ns_per_op", "sim.committed"),
    ] {
        let events = layers.get(per).copied().unwrap_or(0.0);
        if events > 0.0 {
            layers.insert(metric.into(), run_s * 1e9 / events);
        }
    }
}

/// The per-key median over runs (a key a run lacks counts as 0 there).
fn median_by_key(runs: Vec<BTreeMap<String, f64>>) -> Metrics {
    let keys: std::collections::BTreeSet<String> =
        runs.iter().flat_map(|r| r.keys().cloned()).collect();
    keys.into_iter()
        .map(|k| {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| r.get(&k).copied().unwrap_or(0.0))
                .collect();
            (k, median(&values))
        })
        .collect()
}

fn report_mismatch(against: &str, want: &Counts, got: &Counts) {
    let keys: std::collections::BTreeSet<&String> = want.keys().chain(got.keys()).collect();
    let diff: Vec<String> = keys
        .into_iter()
        .filter(|k| want.get(*k) != got.get(*k))
        .take(5)
        .map(|k| format!("{k}: {:?} vs {:?}", want.get(k), got.get(k)))
        .collect();
    eprintln!(
        "simulated counts differ from the {against}: {}",
        diff.join("; ")
    );
}

fn counts_path(workload: Workload, seed: u64) -> PathBuf {
    Path::new(OUT_DIR).join(format!("counts-{}-s{seed}.txt", workload.name()))
}

fn render_counts(counts: &Counts) -> String {
    counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect()
}

/// A previous run's counts; `None` if absent or unreadable.
fn read_counts(path: &Path) -> Option<Counts> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .map(|line| {
            let (k, v) = line.split_once(' ')?;
            Some((k.to_owned(), v.parse().ok()?))
        })
        .collect()
}

/// Writes `text` to `path` through a temporary file and a rename, so an
/// interrupted run never leaves a torn file behind.
fn write_file(path: &Path, text: &str) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(fail)?;
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text).map_err(fail)?;
    std::fs::rename(&tmp, path).map_err(fail)
}

/// Prints the simulated TMU/SVE speedups when the other grid has run at
/// this seed. Informational: it gates nothing.
fn print_fidelity(workload: Workload, seed: u64, counts: &Counts) {
    let (tmu, sve) = match workload {
        Workload::TmuGrid => (
            Some(counts.clone()),
            read_counts(&counts_path(Workload::SveGrid, seed)),
        ),
        Workload::SveGrid => (
            read_counts(&counts_path(Workload::TmuGrid, seed)),
            Some(counts.clone()),
        ),
        Workload::ServeChaos => return,
    };
    let (Some(tmu), Some(sve)) = (tmu, sve) else {
        println!("fidelity: run both grids at seed {seed} for the TMU/SVE speedup table");
        return;
    };
    println!("fidelity (informational): simulated TMU speedup over SVE, geomean over inputs, vs the paper");
    for line in grid::fidelity(&tmu, &sve) {
        println!("{line}");
    }
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative when the clamp moved `j` up: Python extrapolates too.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Median, quartiles, and the highest of p99/p95/p90/p75 with at least
/// ten samples beyond it (the maximum when there are too few samples).
fn print_spread(metric: &str, values: &[f64]) {
    let (q1, q3) = quartiles(values);
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let high = [99, 95, 90, 75]
        .into_iter()
        .find(|&p| n * (100 - p) >= 1000)
        .map_or_else(
            || format!("max {:.4}", sorted.last().copied().unwrap_or(0.0)),
            |p| format!("p{p} {:.4}", sorted[(n * p).div_ceil(100) - 1]),
        );
    println!(
        "  {metric:<20} median {:.4}  q1 {q1:.4}  q3 {q3:.4}  {high}  (n={n})",
        median(values)
    );
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_mem_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak memory: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

fn result_json(correct: bool, tally: Tally, metrics: &Metrics, units: &[(&str, &str)]) -> String {
    let body: Vec<String> = units
        .iter()
        .map(|&(name, unit)| {
            let value = metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn every_metric_is_declared_in_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = manifest.matches("\"unit\": ").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload sve-grid --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::SveGrid, 7, 10, true)
        );
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload tmu-grid --seconds 1").is_err());
    }
}
