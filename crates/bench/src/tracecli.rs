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
use tmu_trace::{TraceConfig, Tracer};

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

/// Entry point of the `trace` binary. `args` are the CLI
/// arguments after the program name: `[kernel] [input] [engine]`.
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
    ExitCode::SUCCESS
}
