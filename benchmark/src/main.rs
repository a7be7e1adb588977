//! One benchmark repetition, run in its own process by `run.py`.
//!
//! ```text
//! onoc-e2e-bench <workload> --seed N [--size full|tiny] [--mode run|trace] [--spans FILE]
//!                [--passes N]
//! ```
//!
//! `--mode run` (untraced) times the path a user runs, from spec text to
//! rendered artifact, through the same public calls `onoc run --spec` and
//! `onoc serve --spec` make:
//! `ScenarioSpec::from_toml_str` → `run_spec(spec, 1)` or `run_serve` →
//! `Report::render`. It then times set-up (spec parse plus the model
//! precompute) on its own, and checks the artifact.
//!
//! `--mode trace` runs the same path with a span around each public call,
//! then times the public call into each crate on its own (the event core
//! `--passes` times, default 3) and reports per-layer figures.
//!
//! Either mode prints one JSON object on stdout. A failed check is
//! reported as `"ok": false` with the reason; the process still exits 0
//! so the caller can count it.

mod checks;
mod spans;
mod traced;
mod workloads;

use std::hint::black_box;
use std::time::{Duration, Instant};

use onoc_exp::{Report, ScenarioSpec, run_serve, run_spec, service_config};
use onoc_sim::EnergyModel;
use onoc_wa::ProblemInstance;

use crate::workloads::{SWEEP_RATES, Size, Workload};

/// Set-up is repeated until this much time is spent (at least once), so
/// sub-millisecond set-ups still give a stable median.
const SETUP_BUDGET: Duration = Duration::from_millis(60);
/// Cap on set-up repetitions per process.
const SETUP_MAX_SAMPLES: usize = 2_000;

struct Args {
    workload: Workload,
    seed: u64,
    size: Size,
    trace: bool,
    spans: Option<String>,
    passes: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let name = it
        .next()
        .ok_or("usage: onoc-e2e-bench <workload> --seed N …")?;
    let workload = Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let mut args = Args {
        workload,
        seed: 0,
        size: Size::Full,
        trace: false,
        spans: None,
        passes: 3,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("bad size {value}")),
                }
            }
            "--mode" => {
                args.trace = match value.as_str() {
                    "run" => false,
                    "trace" => true,
                    _ => return Err(format!("bad mode {value}")),
                }
            }
            "--spans" => args.spans = Some(value),
            "--passes" => {
                args.passes = match value.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err(format!("bad passes {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let text = args.workload.spec_text(args.size, args.seed);
    let line = if args.trace {
        traced::run(args.workload, &text, args.spans.as_deref(), args.passes)
    } else {
        untraced(args.workload, &text)
    };
    println!("{line}");
}

/// The public entry point a workload goes through (`onoc run --spec` or
/// `onoc serve --spec`), from spec text to rendered artifact.
fn pipeline(workload: Workload, text: &str) -> Result<(Report, String), String> {
    let spec = ScenarioSpec::from_toml_str(text).map_err(|e| e.to_string())?;
    let report = match workload {
        Workload::ServeChurn16n => run_serve(&spec),
        _ => run_spec(&spec, 1),
    }
    .map_err(|e| e.to_string())?;
    let rendered = report.render();
    Ok((report, rendered))
}

/// Spec parse plus the model precompute the pipeline does before its
/// main work: the closed-loop `ProblemInstance` (and its evaluator) for
/// ga, the resolved energy model (power budgets) for the message-stream
/// workloads, the service configuration for serve.
fn setup_once(workload: Workload, text: &str) -> Result<Duration, String> {
    let start = Instant::now();
    let spec = ScenarioSpec::from_toml_str(text).map_err(|e| e.to_string())?;
    match workload {
        Workload::GaPaper8l => {
            let instance = ProblemInstance::paper_with_wavelengths(spec.arch.wavelengths);
            black_box(instance.evaluator());
        }
        Workload::SweepUniform64n | Workload::StaticTranspose128n => {
            black_box(energy_model(&spec));
        }
        Workload::ServeChurn16n => {
            black_box(service_config(&spec));
        }
    }
    black_box(&spec);
    Ok(start.elapsed())
}

/// The spec's energy model (`[energy]` or the paper preset): the
/// power-budget precompute.
pub fn energy_model(spec: &ScenarioSpec) -> EnergyModel {
    spec.energy
        .clone()
        .unwrap_or_default()
        .resolve(spec.arch.nodes, spec.arch.wavelengths)
}

/// Checks an artifact and returns the work it represents: evaluations
/// (ga), messages (sweep, static) or sessions (serve).
pub fn check(workload: Workload, report: &Report, text: &str) -> Result<u64, String> {
    let spec = ScenarioSpec::from_toml_str(text).map_err(|e| e.to_string())?;
    match workload {
        Workload::GaPaper8l => checks::ga(report, spec.arch.wavelengths),
        Workload::SweepUniform64n => checks::sweep(report, SWEEP_RATES.len()),
        Workload::StaticTranspose128n => checks::stream(report),
        Workload::ServeChurn16n => checks::serve(report, spec.arch.nodes),
    }
}

fn untraced(workload: Workload, text: &str) -> String {
    let start = Instant::now();
    let outcome = pipeline(workload, text);
    let wall = start.elapsed();
    let (report, rendered) = match outcome {
        Ok(v) => v,
        Err(e) => return failure("run", &e),
    };
    let work = match check(workload, &report, text) {
        Ok(w) => w,
        Err(e) => return failure("run", &e),
    };
    drop(report);
    let mut setup = Vec::new();
    let setup_start = Instant::now();
    while setup.is_empty()
        || (setup_start.elapsed() < SETUP_BUDGET && setup.len() < SETUP_MAX_SAMPLES)
    {
        match setup_once(workload, text) {
            Ok(d) => setup.push(d.as_secs_f64()),
            Err(e) => return failure("run", &e),
        }
    }
    format!(
        "{{\"mode\": \"run\", \"ok\": true, \"wall_s\": {}, \"setup_s\": {}, \
         \"setup_samples\": {}, \"work\": {work}, \"digest\": \"{}\", \"bytes\": {}, \
         \"peak_rss_kb\": {}}}",
        wall.as_secs_f64(),
        median(&mut setup),
        setup.len(),
        digest(&rendered),
        rendered.len(),
        peak_rss_kb().unwrap_or(0)
    )
}

/// The process's resident-set high-water mark (`VmHWM`), in KiB.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A one-line failure record.
pub fn failure(mode: &str, error: &str) -> String {
    format!(
        "{{\"mode\": \"{mode}\", \"ok\": false, \"error\": {}}}",
        json_string(error)
    )
}

/// Median of a non-empty sample (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// FNV-1a 64-bit digest of a rendered artifact, as 16 hex digits.
pub fn digest(rendered: &str) -> String {
    let hash = rendered.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
