//! Fault-injection demo harness.
//!
//! Runs a small SpMV/SpMSpM grid twice — fault-free and with seeded
//! rate-based injection (`TMU_FAULT_RATE` faults per 100k loads,
//! default 20) — and checks that the marshaled outQ totals are
//! identical: traps, retries, stalls, and preemptions may change *when*
//! the engine makes progress, never *what* it produces. A deliberately
//! broken job demonstrates the caught-panic path: the batch survives,
//! the failure is a typed row, and this process still exits 0 because
//! the failure was expected.
//!
//! Writes nothing to `results/` — this is a resilience smoke test, not
//! a figure.

use tmu::{FaultSpec, TmuConfig};
use tmu_bench::runner::{
    clear_failed_jobs, failed_jobs, knob, EngineVariant, InputSpec, Job, JobError, Runner,
};

fn main() -> std::process::ExitCode {
    tmu_bench::run_main(run)
}

fn run() -> std::process::ExitCode {
    let rate = u32::try_from(knob("TMU_FAULT_RATE", 20)).unwrap_or(u32::MAX);
    let input = InputSpec::Uniform {
        rows: 1024,
        cols: 4096,
        nnz_per_row: 6,
        seed: 11,
    };
    let runner = Runner::new();
    println!("fault injection smoke: rate={rate}/100k loads, seeds 1-3");
    let mut ok = true;
    for kernel in ["SpMV", "SpMSpM"] {
        let clean = runner.run(&Job::new(kernel, input, EngineVariant::Tmu));
        let clean_entries: u64 = clean.outq.iter().map(|o| o.entries).sum();
        for seed in 1..=3u64 {
            let job = Job::new(kernel, input, EngineVariant::Tmu)
                .with_tmu(TmuConfig::paper().with_faults(FaultSpec::with_rate(seed, rate)));
            let res = runner.run(&job);
            let entries: u64 = res.outq.iter().map(|o| o.entries).sum();
            let injected: u64 = res.outq.iter().map(|o| o.faults_injected).sum();
            let traps: u64 = res.outq.iter().map(|o| o.fault_traps).sum();
            let restores: u64 = res.outq.iter().map(|o| o.fault_restores).sum();
            let verdict = if res.error.is_some() {
                ok = false;
                "CRASH"
            } else if res.fallback.is_some() {
                // Graceful degradation is a legal outcome at high rates.
                "fallback"
            } else if entries == clean_entries {
                "identical"
            } else {
                ok = false;
                "MISMATCH"
            };
            println!(
                "  {kernel:<7} seed={seed} injected={injected:<4} traps={traps:<4} \
                 restores={restores:<4} outq={entries} (clean {clean_entries}) → {verdict}"
            );
        }
    }
    // The caught-panic path: an unknown kernel panics inside the job; the
    // runner must contain it and type it instead of dying.
    println!("deliberate failure (caught-panic path):");
    let before = failed_jobs();
    let bad = runner.run(&Job::new("NoSuchKernel", input, EngineVariant::Tmu));
    let caught = failed_jobs() == before + 1 && matches!(bad.error, Some(JobError::Panicked(_)));
    match &bad.error {
        Some(e) => println!("  caught: {e}"),
        None => println!("  NOT caught — runner let a panic through"),
    }
    if caught {
        // The failure above was deliberate; clear the counter so the
        // shared `run_main` epilogue doesn't turn an expected failure
        // into a nonzero exit.
        clear_failed_jobs();
    }
    if ok && caught {
        println!("fault smoke OK ({} simulations)", runner.simulations());
        std::process::ExitCode::SUCCESS
    } else {
        eprintln!("fault smoke FAILED (ok={ok} caught={caught})");
        std::process::ExitCode::FAILURE
    }
}
