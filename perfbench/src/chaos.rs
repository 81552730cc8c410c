//! `serve-chaos`: a seeded open-loop Poisson trace of kernel, einsum and
//! application jobs from three tenants, served on two slots under injected
//! crash/hang/degrade slot faults with periodic checkpoints and retries.
//! Every completion's digest is checked against its solo reference.
//!
//! The trace is served as [`CHUNKS`] consecutive stretches of arrivals,
//! each a `serve` call of its own and a work item of its own. On a shared
//! host a call is rarely left undisturbed for its whole length, so the
//! fastest repetition of a short call is a far steadier measurement than
//! that of one long call: as a single 200-job call, the run-to-run spread
//! of `pass_s` was 0.2-0.3 of its median on a 2-vCPU VM in slow stretches.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use tmu_serve::{
    percentile, serve, solo_app, solo_digest, synthesize, ArrivalKind, BuildCache, EntryDigest,
    JobKind, JobSpec, Policy, ResilienceConfig, ServeConfig, ServeOutcome, SlotFaultKind,
    SlotFaultSpec, TraceConfig,
};

use crate::spans::Spans;
use crate::{Bench, Counts, Metrics, Pass, Tally};

/// Jobs in the trace. At a mean gap of 1 500 cycles two slots keep up
/// (every job completes).
const JOBS: u32 = 200;
/// Stretches of the trace served as separate calls, about 0.1 s each.
const CHUNKS: usize = 8;
const MEAN_GAP: u64 = 1_500;
const TENANTS: u32 = 3;
const SLOTS: usize = 2;
const QUANTUM: u64 = 400;
/// Small enough that one hang window stays a small share of the makespan.
const WATCHDOG: u64 = 2_000;
/// Slot faults per 1 000 scheduling quanta. Each fault adds simulated
/// work, so the rate and the watchdog are kept low enough that the seed's
/// draw of faults moves the slots' busy cycles by only about 3 % between
/// the quartiles of ten seeds.
const FAULT_RATE_PER_1K: u32 = 20;

/// The served trace, whole and in chunks, with its solo reference
/// digests.
pub struct Chaos {
    cfg: ServeConfig,
    trace: Vec<JobSpec>,
    chunks: Vec<Vec<JobSpec>>,
    /// Job id → solo digest of its shape (`None` if the reference failed).
    reference: HashMap<u32, Option<EntryDigest>>,
}

/// Synthesizes the trace from `seed`, builds each distinct shape once and
/// computes its solo reference digest. The returned tally counts the
/// reference runs.
pub fn setup(seed: u64, spans: &mut Spans) -> (Chaos, Tally) {
    let trace = synthesize(&TraceConfig {
        tenants: TENANTS,
        jobs: JOBS,
        mean_gap: MEAN_GAP,
        seed,
        with_exprs: true,
        with_apps: true,
        arrivals: ArrivalKind::Poisson,
        deadline_slack: 0,
    });
    let trace = balance(trace);
    let mut tally = Tally::default();
    let mut cache = BuildCache::new();
    let mut solo: HashMap<JobKind, Option<EntryDigest>> = HashMap::new();
    for job in &trace {
        if solo.contains_key(&job.kind) {
            continue;
        }
        tally.attempted += 1;
        let digest = reference(&job.kind, &mut cache, spans);
        if let Err(e) = &digest {
            eprintln!("solo reference of {}: {e}", job.kind.label());
            tally.failed += 1;
        }
        solo.insert(job.kind.clone(), digest.ok());
    }
    let reference = trace.iter().map(|j| (j.id, solo[&j.kind])).collect();
    let chunks = chunk(trace.clone());
    let all_kinds = SlotFaultKind::ALL.iter().fold(0, |m, k| m | k.bit());
    let cfg = ServeConfig {
        slots: SLOTS,
        quantum: QUANTUM,
        policy: Policy::WeightedFair,
        ctx_switch_cycles: 250,
        watchdog: WATCHDOG,
        resilience: ResilienceConfig {
            slot_faults: SlotFaultSpec {
                seed,
                rate_per_1k: FAULT_RATE_PER_1K,
                kinds: all_kinds,
                reboot_cycles: 1_000,
            },
            retry_budget: 8,
            backoff_base: 500,
            backoff_cap: 4_000,
            checkpoint_every: 600,
            ..ResilienceConfig::default()
        },
        ..ServeConfig::default()
    };
    (
        Chaos {
            cfg,
            trace,
            chunks,
            reference,
        },
        tally,
    )
}

/// Reassigns shapes round-robin over the trace's distinct shapes, so
/// every seed serves the same multiset of work; the seed still draws the
/// arrival times, the tenants and the slot faults. Drawn independently,
/// the few costly iterative app jobs swung a pass by about 15% between
/// seeds.
fn balance(mut trace: Vec<JobSpec>) -> Vec<JobSpec> {
    let mut shapes: Vec<JobKind> = Vec::new();
    for job in &trace {
        if !shapes.contains(&job.kind) {
            shapes.push(job.kind.clone());
        }
    }
    shapes.sort_by_key(|k| format!("{k:?}"));
    for (i, job) in trace.iter_mut().enumerate() {
        job.kind = shapes[i % shapes.len()].clone();
    }
    trace
}

/// Splits the trace, in arrival order, into [`CHUNKS`] stretches of
/// consecutive arrivals, each shifted to start at cycle 0.
fn chunk(mut trace: Vec<JobSpec>) -> Vec<Vec<JobSpec>> {
    trace.sort_by_key(|j| (j.arrival, j.id));
    let per = trace.len().div_ceil(CHUNKS);
    trace
        .chunks(per)
        .map(|jobs| {
            let start = jobs[0].arrival;
            jobs.iter()
                .cloned()
                .map(|mut j| {
                    j.arrival -= start;
                    j
                })
                .collect()
        })
        .collect()
}

/// The solo digest of one shape: `solo_app` for application pipelines,
/// a `BuildCache` build plus `solo_digest` for everything else.
fn reference(
    kind: &JobKind,
    cache: &mut BuildCache,
    spans: &mut Spans,
) -> Result<EntryDigest, String> {
    let label = kind.label().to_owned();
    if let Some(spec) = kind.app_spec() {
        return spans.span("serve.solo", &label, |_| {
            solo_app(spec)
                .map(|run| run.digest)
                .map_err(|e| e.to_string())
        });
    }
    let built = spans.span("serve.build", &label, |_| cache.get(kind))?;
    spans.span("serve.solo", &label, |_| {
        solo_digest(&built, 0).map_err(|e| e.to_string())
    })
}

impl Chaos {
    /// Serves `trace` and checks the outcome, which is `None` if serving
    /// failed.
    fn serve_checked(&self, trace: Vec<JobSpec>) -> (Pass, Option<ServeOutcome>) {
        let jobs = trace.len() as u64;
        let cfg = self.cfg;
        let mut pass = Pass::default();
        pass.tally.attempted = jobs;
        match catch_unwind(AssertUnwindSafe(|| serve(cfg, trace))) {
            Ok(Ok(out)) => {
                let (failed, good) = self.check(jobs as usize, &out);
                pass.tally.failed = failed.min(jobs);
                pass.jobs = good;
                pass.sim_cycles = out.slots.iter().map(|s| s.busy_cycles).sum();
                return (pass, Some(out));
            }
            Ok(Err(e)) => eprintln!("serve-chaos: serve failed: {e}"),
            Err(_) => eprintln!("serve-chaos: serve panicked"),
        }
        pass.tally.failed = jobs;
        (pass, None)
    }

    /// Checks one serving run of `jobs` jobs; returns the failed-job count
    /// and the completions whose digest matched.
    fn check(&self, jobs: usize, out: &ServeOutcome) -> (u64, u64) {
        let diverged = out
            .outcomes
            .iter()
            .filter(|o| {
                let want = self.reference.get(&o.id).copied().flatten();
                want != Some(o.digest)
            })
            .count() as u64;
        let mut failed = diverged + out.failed.len() as u64 + out.shed_total();
        if !out.conserves(jobs) {
            eprintln!("serve-chaos: admitted != completed + shed + failed");
            failed += 1;
        }
        if failed > 0 {
            eprintln!(
                "serve-chaos: {diverged} diverged, {} failed, {} shed",
                out.failed.len(),
                out.shed_total()
            );
        }
        (failed, out.outcomes.len() as u64 - diverged)
    }
}

/// Records chunk `i`'s counts as `serve.<i>.<field>`.
fn record(counts: &mut Counts, i: usize, out: &ServeOutcome) {
    let mut put = |field: &str, v: u64| {
        counts.insert(format!("serve.{i}.{field}"), v);
    };
    put("completed", out.outcomes.len() as u64);
    put("failed", out.failed.len() as u64);
    put("shed", out.shed_total());
    put("preemptions", out.preemptions);
    put("checkpoints", out.checkpoints);
    put("retries", out.retries_total());
    put("slot_faults", out.slot_faults.injected);
    put("busy_cycles", out.slots.iter().map(|s| s.busy_cycles).sum());
    put("makespan_cycles", out.makespan);
    let mut sojourn: Vec<u64> = out.outcomes.iter().map(|o| o.sojourn_cycles()).collect();
    sojourn.sort_unstable();
    put("sojourn_p99_cycles", percentile(&sojourn, 99));
    put("build_hits", out.build_hits);
    put("build_misses", out.build_misses);
    let (mut stage_hits, mut stage_misses) = (0, 0);
    for s in out.tenant_cache.values() {
        stage_hits += s.tensor_hits + s.program_hits;
        stage_misses += s.tensor_misses + s.program_misses;
    }
    put("stage_hits", stage_hits);
    put("stage_misses", stage_misses);
    // One fold over every completion's digest, in completion order.
    let fold = out.outcomes.iter().fold(0u64, |acc, o| {
        acc.rotate_left(7) ^ o.digest.hash ^ u64::from(o.id)
    });
    put("digest_fold", fold);
}

impl Bench for Chaos {
    fn run_span(&self) -> &'static str {
        "serve.serve"
    }

    fn items(&self) -> usize {
        self.chunks.len()
    }

    fn run_item(&mut self, i: usize, spans: &mut Spans) -> Pass {
        let trace = self.chunks[i].clone();
        let (mut pass, out) = spans.span("serve.serve", &format!("chunk{i}"), |_| {
            self.serve_checked(trace)
        });
        if let Some(out) = out {
            record(&mut pass.counts, i, &out);
        }
        pass
    }

    /// Serves the whole trace once as a single call, as it arrives, and
    /// checks every completion. Besides checking the long queues the
    /// chunks never build, this makes the memory high-water mark the whole
    /// trace's on every seed.
    fn verify(&mut self, spans: &mut Spans) -> Tally {
        let trace = self.trace.clone();
        spans
            .span("serve.full", "", |_| self.serve_checked(trace))
            .0
            .tally
    }

    /// Sums over chunks, except the 99th-percentile sojourn, which is the
    /// highest chunk's.
    fn layer_counts(&self, counts: &Counts, m: &mut Metrics) {
        let get = |field: &str| {
            let values = (0..self.chunks.len()).map(|i| {
                counts
                    .get(&format!("serve.{i}.{field}"))
                    .copied()
                    .unwrap_or(0)
            });
            if field == "sojourn_p99_cycles" {
                values.max().unwrap_or(0)
            } else {
                values.sum()
            }
        };
        for field in [
            "completed",
            "failed",
            "shed",
            "preemptions",
            "checkpoints",
            "retries",
            "slot_faults",
            "busy_cycles",
            "makespan_cycles",
            "sojourn_p99_cycles",
        ] {
            m.insert(format!("serve.{field}"), get(field) as f64);
        }
        let rate = |hits: u64, misses: u64| {
            let total = hits + misses;
            (
                total,
                if total == 0 {
                    0.0
                } else {
                    hits as f64 / total as f64
                },
            )
        };
        let (lookups, hit_rate) = rate(get("build_hits"), get("build_misses"));
        m.insert("serve.build_lookups".into(), lookups as f64);
        m.insert("serve.build_hit_rate".into(), hit_rate);
        let (lookups, hit_rate) = rate(get("stage_hits"), get("stage_misses"));
        m.insert("apps.stage_cache_lookups".into(), lookups as f64);
        m.insert("apps.stage_cache_hit_rate".into(), hit_rate);
        // The slots' driven cycles are this workload's simulated cycles.
        m.insert("sim.cycles".into(), get("busy_cycles") as f64);
    }
}
