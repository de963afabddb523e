//! `culzss-perfbench` — the repository's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <file-v2|file-v3-warp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded;
//! `--trace 1` is the separate traced run that gives the per-layer
//! metrics. Every run checks every output. The last line on stdout is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! The workloads and metric names come from `BENCHMARK.json`.
//! `perfbench/METRICS.md` defines each workload and metric.

mod alloc;
mod file;
mod report;
mod spec;
mod speed;
mod svc;

use std::process::ExitCode;

use culzss::{DecodeEngine, Version};
use culzss_server::{chrome_trace, validate_chrome_trace};

use crate::file::FileWorkload;
use crate::report::Outcome;
use crate::spec::Spec;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str =
    "usage: culzss-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: FileWorkload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let known = spec.workloads.contains(&value);
                match file_workload(&value) {
                    Some(w) if known => workload = Some((w, value)),
                    _ => {
                        return Err(format!(
                            "unknown workload {value}; BENCHMARK.json lists {:?}",
                            spec.workloads
                        ))
                    }
                }
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {value} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (workload, name) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn file_workload(name: &str) -> Option<FileWorkload> {
    match name {
        "file-v2" => Some(FileWorkload { version: Version::V2, engine: DecodeEngine::Serial }),
        "file-v3-warp" => {
            Some(FileWorkload { version: Version::V3, engine: DecodeEngine::WarpParallel })
        }
        _ => None,
    }
}

/// Serializes the spans, checks the trace's schema and keeps it next
/// to the benchmark for inspection.
fn keep_trace(args: &Args, json: &str, out: &mut Outcome) {
    if let Err(e) = validate_chrome_trace(json) {
        out.check(false, || format!("trace fails validation: {e}"));
        return;
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{}.trace.json", args.name, args.seed));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        out.check(false, || format!("writing {}: {e}", path.display()));
    } else {
        eprintln!("trace: {}", path.display());
    }
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let args = match parse_args(&spec) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    let metrics = if args.trace {
        let (metrics, spans) = file::run_traced(&args.workload, args.seed, args.seconds, &mut out);
        keep_trace(&args, &chrome_trace(&spans), &mut out);
        metrics.ordered(&spec.per_layer)
    } else {
        file::run(&args.workload, args.seed, args.seconds, &mut out).ordered(&spec.end_to_end)
    };
    for problem in &out.problems {
        eprintln!("check failed: {problem}");
    }
    println!("{}", report::result_json(&out, &metrics));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
