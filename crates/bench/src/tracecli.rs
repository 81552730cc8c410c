//! Implementation of the `trace` binary: runs one runner-grid job with a
//! [`tmu_trace::Tracer`] installed on its thread and writes Chrome
//! trace-event JSON under `results/`.
//!
//! The `tmu-bench` `trace` bin (`cargo run --release --bin trace`) is a
//! thin wrapper around [`main`]. It needs no special build: every
//! instrumentation site is compiled in and records only while the tracer
//! installed here is on the thread.

use std::path::PathBuf;
use std::process::ExitCode;

use crate::json;
use crate::runner::{EngineVariant, InputSpec, Job};
use tmu_tensor::gen::InputId;
use tmu_trace::{ComponentId, TraceConfig, Tracer};

fn usage() -> ExitCode {
    eprintln!(
        "usage: trace [spmv|spmspm|spkadd|pr|tc] [rmat|m1..m6] \
         [tmu|single-lane|baseline|scalar|imp|blocked-sve|sam-stream]"
    );
    ExitCode::from(2)
}

fn kernel(arg: &str) -> Option<&'static str> {
    Some(match arg.to_ascii_lowercase().as_str() {
        "spmv" => "SpMV",
        "spmspm" => "SpMSpM",
        "spkadd" => "SpKAdd",
        "pr" | "pagerank" => "PR",
        "tc" | "trianglecount" => "TC",
        _ => return None,
    })
}

fn input(arg: &str) -> Option<InputSpec> {
    let id = match arg.to_ascii_lowercase().as_str() {
        // Skewed rows + poor column locality: the input that exercises
        // every trace point (misses, row conflicts, outQ backpressure).
        "rmat" => {
            return Some(InputSpec::Rmat {
                scale: 12,
                edges: 32_768,
                seed: 0xC0FFEE,
            })
        }
        "m1" => InputId::M1,
        "m2" => InputId::M2,
        "m3" => InputId::M3,
        "m4" => InputId::M4,
        "m5" => InputId::M5,
        "m6" => InputId::M6,
        _ => return None,
    };
    Some(InputSpec::Table6 {
        id,
        scale: crate::scale(),
    })
}

/// Parses the engine argument through [`EngineVariant::parse`], so every
/// engine the runner knows — including `blocked-sve` and `sam-stream` —
/// is traceable, and a typo gets a typed error naming the valid engines
/// instead of the generic usage line.
fn engine(arg: &str) -> Result<EngineVariant, crate::runner::UnknownEngine> {
    EngineVariant::parse(&arg.to_ascii_lowercase())
}

/// The stderr report for an export whose rings dropped events, or `None`
/// when every event was kept. A ring keeps only a component's first
/// events, so the report names each component that dropped some (events
/// kept, events dropped) and the `TMU_TRACE_RING` value that would have
/// held the fullest ring.
fn truncation_report(tracer: &Tracer) -> Option<String> {
    if tracer.dropped_total() == 0 {
        return None;
    }
    let mut lines = String::new();
    let mut fullest = 0;
    for (i, name) in tracer.components().iter().enumerate() {
        let ring = tracer.ring(ComponentId(i as u32));
        if ring.dropped() > 0 {
            let kept = ring.len() as u64;
            fullest = fullest.max(kept + ring.dropped());
            lines += &format!("  {name}: kept {kept}, dropped {}\n", ring.dropped());
        }
    }
    Some(format!(
        "trace: the export is truncated: {} event(s) dropped; the end of the run is missing\n\
         {lines}trace: TMU_TRACE_RING={fullest} would keep every event\n",
        tracer.dropped_total()
    ))
}

/// Entry point of the `trace` binary. `args` are the CLI
/// arguments after the program name: `[kernel] [input] [engine]`. An
/// engine without a variant for the kernel prints `trace: <message>`,
/// writes no export and exits 2, like a bad argument.
pub fn main(args: &[String]) -> ExitCode {
    let arg = |i: usize, default: &str| -> String {
        args.get(i).cloned().unwrap_or_else(|| default.to_owned())
    };
    let Some(kernel) = kernel(&arg(0, "spmv")) else {
        return usage();
    };
    let Some(input) = input(&arg(1, "rmat")) else {
        return usage();
    };
    let engine = match engine(&arg(2, "tmu")) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("trace: {e}");
            return usage();
        }
    };
    let job = Job::new(kernel, input, engine);
    println!(
        "tracing {} on {} ({})",
        job.kernel,
        job.input.label(),
        job.engine.label()
    );

    tmu_trace::install(Tracer::new(TraceConfig::from_env()));
    let res = job.run();
    let tracer = tmu_trace::uninstall().expect("tracer still installed after the run");
    let res = match res {
        Ok(res) => res,
        Err(unsupported) => {
            eprintln!("trace: {unsupported}");
            return ExitCode::from(2);
        }
    };

    let trace_json = tracer.chrome_json();
    json::validate(&trace_json).expect("chrome exporter emits well-formed JSON");
    let dir = PathBuf::from("results");
    if let Err(e) = json::create_dir(&dir) {
        eprintln!("trace: {e}");
        return ExitCode::FAILURE;
    }
    let path = dir.join(format!(
        "trace-{}-{}-{}.json",
        job.kernel.to_ascii_lowercase(),
        job.input.label(),
        job.engine.label()
    ));
    if let Err(e) = json::write_text(&path, &trace_json) {
        eprintln!("trace: {e}");
        return ExitCode::FAILURE;
    }

    println!("\n== stats registry ==");
    print!("{}", tracer.registry().dump_text());
    let events: usize = (0..tracer.components().len())
        .map(|i| tracer.ring(tmu_trace::ComponentId(i as u32)).len())
        .sum();
    println!(
        "\n{} cycles simulated; {} events across {} components ({} dropped)",
        res.stats.cycles,
        events,
        tracer.components().len(),
        tracer.dropped_total()
    );
    println!(
        "→ wrote {} (open in chrome://tracing or Perfetto)",
        path.display()
    );
    if let Some(report) = truncation_report(&tracer) {
        eprint!("{report}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmu_trace::EventKind;

    fn tracer_with(events: &[(&str, usize)]) -> Tracer {
        let mut t = Tracer::new(TraceConfig {
            ring_capacity: 4,
            ..TraceConfig::default()
        });
        for &(name, n) in events {
            let c = t.component(name);
            for cycle in 0..n as u64 {
                t.event(c, cycle, EventKind::CacheHit, 0);
            }
        }
        t
    }

    #[test]
    fn full_rings_report_kept_and_dropped_per_component() {
        let t = tracer_with(&[("tmu.core0", 6), ("mem.dram", 3), ("tmu.core1", 11)]);
        let report = truncation_report(&t).expect("events were dropped");
        assert!(report.contains("9 event(s) dropped"), "{report}");
        assert!(report.contains("tmu.core0: kept 4, dropped 2"), "{report}");
        assert!(report.contains("tmu.core1: kept 4, dropped 7"), "{report}");
        assert!(
            !report.contains("mem.dram"),
            "a ring that kept everything is not listed"
        );
        assert!(report.contains("TMU_TRACE_RING=11 "), "{report}");
    }

    #[test]
    fn rings_within_capacity_report_nothing() {
        let t = tracer_with(&[("tmu.core0", 4), ("mem.dram", 1)]);
        assert_eq!(truncation_report(&t), None);
    }
}
