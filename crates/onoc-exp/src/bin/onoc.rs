//! `onoc` — the single entry point to every experiment of the
//! reproduction.
//!
//! ```console
//! $ onoc list                        # the registry of named experiments
//! $ onoc run fig6a --quick           # one named experiment, reduced GA
//! $ onoc run --spec scenario.toml    # any declarative scenario file
//! $ onoc sweep --rates 0.01,0.04     # ad-hoc open-loop saturation sweep
//! ```
//!
//! Subcommands are thin lookups over [`onoc_exp::Registry`] and
//! [`onoc_exp::run_spec`]; all experiment logic lives in the library.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use onoc_exp::scenario::sweep_table;
use onoc_exp::spec::{TRAFFIC_PATTERNS, traffic_pattern};
use onoc_exp::{Registry, Report, RunContext, Scale, ScenarioSpec, bench, run_spec};
use onoc_sim::DynamicPolicy;
use onoc_topology::NodeId;
use onoc_traffic::{OnOffConfig, SweepGrid, TrafficTrace, run_sweep};
use onoc_units::Bits;

const USAGE: &str = "onoc — experiments for the ring-WDM-ONoC reproduction

USAGE:
    onoc list                          list every named experiment
    onoc run <name> [options]          run a named experiment
    onoc run --spec <file> [options]   run a declarative scenario (TOML or JSON)
    onoc run --all <dir> [options]     run every *.toml/*.json spec in a directory,
                                       writing one artifact per spec
    onoc sweep [options]               ad-hoc open-loop saturation sweep
    onoc serve --spec <file> [options] run the online wavelength-allocation
                                       service loop a spec's [service] table
                                       describes (Poisson churn or trace replay)
    onoc bench [options]               tracked sim-core benchmark (BENCH_sim_core.json)
    onoc diff <a.json> <b.json>        field-by-field comparison of two report
                                       artifacts; exit 1 on drift
    onoc trace info <file>             summarise a cycle,src,dst,size CSV trace
    onoc help                          this text

OPTIONS (bench):
    --quick               horizons ÷ 10 (the CI smoke tier)
    --out <file>          artifact path            [default: BENCH_sim_core.json,
                          or no file with --check]
    --check <baseline>    fail (exit 1) if any pinned scenario regresses
                          more than --factor vs the baseline file
    --factor <x>          regression threshold      [default: 2.0]
    --append-history <f>  append one timestamped JSONL record per run, so
                          the perf/energy trajectory is plottable across commits

OPTIONS (diff):
    --tolerance <x>       allowed relative drift for numeric cells [default: 0]

OPTIONS (serve only):
    --out <file>          also write the report artifact as JSON (the
                          diff-able form: tables only, no wall-clock text)
    --compare             additionally time the incremental ledger against a
                          from-scratch re-synthesis replay of the same session
                          stream (wall-clock; printed to stderr, never part
                          of the artifact)

OPTIONS (run --spec only):
    --capture-trace <f>   also dump the run's message stream as a
                          cycle,src,dst,size CSV (synthetic/trace workloads)
    --export-chrome-trace <f>
                          export every transmission as a Chrome trace-event
                          JSON (load in Perfetto / chrome://tracing); implies
                          [telemetry] with its defaults when the spec has none
    --fault-ber <x>       inject a uniform per-message corruption BER
                          (overrides the spec's [faults] ber)
    --fault-seed <n>      fault-process RNG seed         [default: spec seed]
    --transport <m>       none | gbn | pfc — recovery mode layered over the
                          injection policy (overrides the spec's [transport])
    --heal-policy <p>     park | re-pack-strict | re-pack-relaxed — self-healing
                          re-allocation on lane failure (overrides the spec's
                          [healing]; re-pack needs a static allocator)

OPTIONS (run, sweep):
    --quick               reduced GA/horizon configuration (scale = quick)
    --scale <s>           paper | quick | smoke          [default: paper]
    --seed <n>            master seed                    [default: 2017]
    --threads <n>         sweep worker threads           [default: cores, clamped 2..8]
    --json                emit the report as JSON instead of text
    --out <dir>           artifact directory for --all   [default: the spec directory]

OPTIONS (sweep only):
    --patterns <a,b,..>   uniform,transpose,bit-reversal,bit-complement,
                          nearest-neighbor,hotspot       [default: panel]
    --rates <r,r,..>      injection rates                [default: saturation ramp]
    --wavelengths <n,..>  comb sizes                     [default: 8]
    --rings <n,..>        ring sizes                     [default: 16]
    --horizon <n>         injection window in cycles     [default: scale-dependent]
    --message-bits <n>    message size in bits           [default: 512]
    --bursty              Pareto ON-OFF bursty injection
    --policy <p>          single | greedy:<cap>          [default: single]
    --hotspots <n,..>     hotspot nodes (with a hotspot pattern) [default: 0]
    --fraction <f>        hotspot traffic share          [default: 0.5]
";

/// Flags of `onoc run` that take a value (the rest of its flags are the
/// `--quick`/`--json` switches).
const RUN_VALUED: [&str; 12] = [
    "--scale",
    "--seed",
    "--threads",
    "--spec",
    "--all",
    "--out",
    "--capture-trace",
    "--export-chrome-trace",
    "--fault-ber",
    "--fault-seed",
    "--transport",
    "--heal-policy",
];

/// The flags a subcommand takes, as `(flags with a value, switches)`;
/// `None` for commands that do not parse flags.
fn flags_of(command: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    Some(match command {
        "list" | "trace" => (&[], &[]),
        "run" => (&RUN_VALUED, &["--quick", "--json"]),
        "sweep" => (
            &[
                "--scale",
                "--seed",
                "--threads",
                "--patterns",
                "--rates",
                "--wavelengths",
                "--rings",
                "--horizon",
                "--message-bits",
                "--policy",
                "--hotspots",
                "--fraction",
            ],
            &["--quick", "--json", "--bursty"],
        ),
        "serve" => (
            &["--spec", "--out", "--scale", "--seed"],
            &["--quick", "--json", "--compare"],
        ),
        "bench" => (
            &["--out", "--check", "--factor", "--append-history"],
            &["--quick"],
        ),
        "diff" => (&["--tolerance"], &[]),
        _ => return None,
    })
}

/// Names the first argument that looks like a flag but is neither in
/// `valued` nor in `switches`; the argument after a valued flag is its
/// value, never a flag.
fn unknown_flag<'a>(args: &'a [String], valued: &[&str], switches: &[&str]) -> Option<&'a str> {
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if valued.contains(&arg) {
            rest.next();
        } else if arg.starts_with('-') && arg.len() > 1 && !switches.contains(&arg) {
            return Some(arg);
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(command) = args.first() {
        if let Some((valued, switches)) = flags_of(command) {
            if let Some(arg) = unknown_flag(&args[1..], valued, switches) {
                eprintln!("`onoc {command}` does not take {arg}; see `onoc help`");
                std::process::exit(2);
            }
        }
    }
    let code = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("help" | "--help" | "-h") | None => {
            print!("{USAGE}");
            0
        }
        Some(other) => {
            eprintln!("unknown subcommand {other:?}\n");
            eprint!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

// ------------------------------------------------------------- helpers --

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn value_of(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parsed_value<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match value_of(args, name) {
        None => Ok(None),
        Some(raw) => raw
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("{name} could not parse {raw:?}")),
    }
}

fn list_of<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<Vec<T>>, String> {
    match value_of(args, name) {
        None => Ok(None),
        Some(raw) => raw
            .split(',')
            .map(|part| {
                part.trim()
                    .parse::<T>()
                    .map_err(|_| format!("{name} could not parse {part:?}"))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
    }
}

fn context(args: &[String]) -> Result<RunContext, String> {
    let scale = if flag(args, "--quick") {
        Scale::Quick
    } else if let Some(raw) = value_of(args, "--scale") {
        Scale::from_name(&raw).ok_or_else(|| format!("unknown scale {raw:?}"))?
    } else {
        Scale::Paper
    };
    let mut ctx = RunContext::new(scale);
    if let Some(seed) = parsed_value::<u64>(args, "--seed")? {
        ctx = ctx.with_seed(seed);
    }
    if let Some(threads) = parsed_value::<usize>(args, "--threads")? {
        if threads == 0 {
            return Err("--threads must be at least 1".into());
        }
        ctx = ctx.with_threads(threads);
    }
    Ok(ctx)
}

/// Streams the report to stdout (JSON with a final newline) and returns
/// the exit code. A reader that goes away early (`onoc ... | head`) ends
/// the write quietly with 0; any other write error exits 1.
fn emit(report: &Report, json: bool) -> i32 {
    let mut out = BufWriter::new(io::stdout().lock());
    let written = if json {
        report
            .write_json(&mut out)
            .and_then(|()| out.write_all(b"\n"))
    } else {
        report.write_text(&mut out)
    };
    match written.and_then(|()| out.flush()) {
        Ok(()) => 0,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("could not write the report to stdout: {e}");
            1
        }
    }
}

/// Writes the report to a new file at `path` through a buffer, flushing
/// it explicitly so a failed last write is reported.
fn write_report(path: &Path, report: &Report, json: bool) -> io::Result<()> {
    let mut file = BufWriter::new(File::create(path)?);
    if json {
        report.write_json(&mut file)?;
    } else {
        report.write_text(&mut file)?;
    }
    file.flush()
}

// ---------------------------------------------------------- subcommands --

fn cmd_list() -> i32 {
    let registry = Registry::standard();
    let width = registry.names().iter().map(|n| n.len()).max().unwrap_or(0);
    for exp in registry.iter() {
        println!("{:<width$}  {}", exp.name(), exp.summary());
    }
    println!("\nrun one with `onoc run <name> [--quick]`, or bring a spec file:");
    println!("  onoc run --spec examples/scenario.toml");
    0
}

fn cmd_run(args: &[String]) -> i32 {
    let ctx = match context(args) {
        Ok(ctx) => ctx,
        Err(message) => {
            eprintln!("{message}");
            return 2;
        }
    };
    let json = flag(args, "--json");

    for only_spec in [
        "--capture-trace",
        "--export-chrome-trace",
        "--fault-ber",
        "--fault-seed",
        "--transport",
        "--heal-policy",
    ] {
        if value_of(args, only_spec).is_some()
            && (value_of(args, "--spec").is_none() || value_of(args, "--all").is_some())
        {
            eprintln!("{only_spec} applies to `onoc run --spec <file>` only");
            return 2;
        }
    }

    if let Some(dir) = value_of(args, "--all") {
        return cmd_run_all(&dir, value_of(args, "--out"), args, &ctx, json);
    }

    if let Some(path) = value_of(args, "--spec") {
        // CLI scale/seed flags override the file (see `load_spec`).
        let mut spec = match load_spec(&path, args, &ctx) {
            Ok(spec) => spec,
            Err(message) => {
                eprintln!("{message}");
                return 1;
            }
        };
        if let Err(message) = apply_override_flags(&mut spec, args) {
            eprintln!("{message}");
            return 2;
        }
        if let Some(capture_path) = value_of(args, "--capture-trace") {
            match onoc_exp::capture_trace(&spec) {
                Ok(csv) => {
                    if let Err(e) = std::fs::write(&capture_path, csv) {
                        eprintln!("could not write {capture_path}: {e}");
                        return 1;
                    }
                    eprintln!("captured trace -> {capture_path}");
                }
                Err(e) => {
                    eprintln!("{e}");
                    return 1;
                }
            }
        }
        return match run_spec(&spec, ctx.threads) {
            Ok(report) => emit(&report, json),
            Err(e) => {
                eprintln!("{e}");
                1
            }
        };
    }

    let positional: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| {
            !a.starts_with("--") && (i == 0 || !RUN_VALUED.contains(&args[i - 1].as_str()))
        })
        .map(|(_, a)| a)
        .collect();
    let Some(name) = positional.first() else {
        eprintln!("`onoc run` needs an experiment name or --spec <file>\n");
        eprint!("{USAGE}");
        return 2;
    };
    let registry = Registry::standard();
    let Some(experiment) = registry.get(name) else {
        eprintln!(
            "unknown experiment {name:?}; `onoc list` shows: {}",
            registry.names().join(", ")
        );
        return 2;
    };
    emit(&experiment.run(&ctx), json)
}

/// Applies the `--fault-ber`/`--fault-seed`/`--transport`/`--heal-policy`
/// and `--export-chrome-trace` overrides onto a loaded spec (the CLI fast
/// path for "rerun this scenario under faults" without editing the file),
/// then checks a changed spec with its own validation.
fn apply_override_flags(spec: &mut ScenarioSpec, args: &[String]) -> Result<(), String> {
    let loaded = spec.clone();
    if let Some(ber) = parsed_value::<f64>(args, "--fault-ber")? {
        let faults = spec.faults.get_or_insert_default();
        faults.ber = Some(ber);
        faults.ber_model = None;
    }
    if let Some(seed) = parsed_value::<u64>(args, "--fault-seed")? {
        spec.faults.get_or_insert_default().seed = Some(seed);
    }
    if let Some(mode) = value_of(args, "--transport") {
        spec.transport = match mode.as_str() {
            "none" => None,
            "gbn" => Some(onoc_exp::TransportSpec::GoBackN {
                window: None,
                nack_delay: None,
                timeout: None,
                max_retries: None,
            }),
            "pfc" => Some(onoc_exp::TransportSpec::Pfc {
                dst_window: None,
                max_retries: None,
            }),
            other => return Err(format!("unknown transport {other:?} (none | gbn | pfc)")),
        };
    }
    if let Some(policy) = value_of(args, "--heal-policy") {
        spec.healing.get_or_insert_default().policy = Some(policy);
    }
    if let Some(path) = value_of(args, "--export-chrome-trace") {
        // The flag rides on the spec's own [telemetry] table when it has
        // one, and implies the defaults when it does not.
        spec.telemetry.get_or_insert_default().chrome_trace = Some(path);
    }
    if *spec == loaded {
        return Ok(());
    }
    spec.validate()
        .map_err(|e| format!("the command-line overrides leave an invalid spec: {e}"))
}

/// Parses one spec file (TOML unless the extension says JSON) and applies
/// the CLI scale/seed overrides.
fn load_spec(path: &str, args: &[String], ctx: &RunContext) -> Result<ScenarioSpec, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("could not read {path:?}: {e}"))?;
    let parsed = if path.ends_with(".json") {
        ScenarioSpec::from_json_str(&raw)
    } else {
        ScenarioSpec::from_toml_str(&raw)
    };
    let mut spec = parsed.map_err(|e| format!("{path}: {e}"))?;
    // Relative trace paths resolve against the spec file's directory, so
    // a spec + trace pair is a self-contained artifact and corpus runs
    // work from any working directory.
    if let onoc_exp::WorkloadSpec::Trace { path: trace_path } = &mut spec.workload {
        let trace = std::path::Path::new(trace_path);
        if trace.is_relative() {
            if let Some(dir) = std::path::Path::new(path).parent() {
                *trace_path = dir.join(trace).to_string_lossy().into_owned();
            }
        }
    }
    if flag(args, "--quick") || value_of(args, "--scale").is_some() {
        spec.scale = ctx.scale;
    }
    if value_of(args, "--seed").is_some() {
        spec.seed = ctx.seed;
    }
    Ok(spec)
}

/// The corpus runner: every `*.toml`/`*.json` spec in `dir`, one artifact
/// per spec, non-zero exit if any spec fails.
fn cmd_run_all(
    dir: &str,
    out_dir: Option<String>,
    args: &[String],
    ctx: &RunContext,
    json: bool,
) -> i32 {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("could not read directory {dir:?}: {e}");
            return 1;
        }
    };
    let mut spec_paths: Vec<std::path::PathBuf> = entries
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| {
            matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("toml" | "json")
            )
        })
        // Never ingest our own artifacts: a prior `--all` run with the
        // default output directory leaves `<stem>.report.{txt,json}`
        // next to the specs.
        .filter(|path| {
            !path
                .file_stem()
                .and_then(|s| s.to_str())
                .is_some_and(|s| s.ends_with(".report"))
        })
        .collect();
    spec_paths.sort();
    if spec_paths.is_empty() {
        eprintln!("{dir:?} holds no *.toml or *.json spec files");
        return 1;
    }
    let out_dir = out_dir.map_or_else(|| std::path::PathBuf::from(dir), std::path::PathBuf::from);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("could not create {}: {e}", out_dir.display());
        return 1;
    }
    let mut failures = 0usize;
    for path in &spec_paths {
        let path_str = path.to_string_lossy();
        // The artifact keeps the spec's full file name (extension
        // included) so same-stem .toml and .json specs never clobber
        // each other's report.
        let stem = path
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "spec".into());
        let outcome = load_spec(&path_str, args, ctx)
            .and_then(|spec| run_spec(&spec, ctx.threads).map_err(|e| format!("{path_str}: {e}")));
        match outcome {
            Ok(report) => {
                let artifact = out_dir.join(format!(
                    "{stem}.report.{}",
                    if json { "json" } else { "txt" }
                ));
                if let Err(e) = write_report(&artifact, &report, json) {
                    eprintln!(
                        "FAIL {path_str}: could not write {}: {e}",
                        artifact.display()
                    );
                    failures += 1;
                } else {
                    println!("ok   {path_str} -> {}", artifact.display());
                }
            }
            Err(message) => {
                eprintln!("FAIL {message}");
                failures += 1;
            }
        }
    }
    println!(
        "{} of {} specs succeeded",
        spec_paths.len() - failures,
        spec_paths.len()
    );
    i32::from(failures > 0)
}

/// The online allocation service: `onoc serve --spec <file>` runs the
/// grant/release loop the spec's `[service]` table describes and emits
/// the admission-log + summary report.
fn cmd_serve(args: &[String]) -> i32 {
    let ctx = match context(args) {
        Ok(ctx) => ctx,
        Err(message) => {
            eprintln!("{message}");
            return 2;
        }
    };
    let json = flag(args, "--json");
    let Some(path) = value_of(args, "--spec") else {
        eprintln!("`onoc serve` needs --spec <file>\n");
        eprint!("{USAGE}");
        return 2;
    };
    let spec = match load_spec(&path, args, &ctx) {
        Ok(spec) => spec,
        Err(message) => {
            eprintln!("{message}");
            return 1;
        }
    };
    let report = match onoc_exp::run_serve(&spec) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    if let Some(out) = value_of(args, "--out") {
        if let Err(e) = write_report(Path::new(&out), &report, true) {
            eprintln!("could not write {out}: {e}");
            return 1;
        }
        eprintln!("wrote {out}");
    }
    if flag(args, "--compare") {
        // Wall-clock numbers stay on stderr: the report artifact must be
        // byte-identical across same-seed runs.
        let requests = match onoc_exp::build_requests(&spec) {
            Ok(requests) => requests,
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        };
        let cost = onoc_serve::compare_replay_cost(&onoc_exp::service_config(&spec), &requests);
        eprintln!(
            "replay cost: incremental ledger packed {} sessions in {:.3} ms; \
             from-scratch re-synthesis packed {} in {:.3} ms ({:.1}x wall-clock)",
            cost.incremental_packs,
            cost.incremental_nanos as f64 / 1e6,
            cost.full_packs,
            cost.full_nanos as f64 / 1e6,
            cost.full_nanos as f64 / cost.incremental_nanos.max(1) as f64,
        );
    }
    emit(&report, json)
}

/// The tracked benchmark: run the pinned scenario set, write the JSON
/// artifact, and optionally gate against a committed baseline. A check
/// writes an artifact only to an explicit `--out`, so checking against
/// the committed baseline never overwrites it.
fn cmd_bench(args: &[String]) -> i32 {
    let quick = flag(args, "--quick");
    let out = value_of(args, "--out")
        .or_else(|| (!flag(args, "--check")).then(|| bench::BENCH_DEFAULT_PATH.to_string()));
    let factor = match parsed_value::<f64>(args, "--factor") {
        Ok(factor) => factor.unwrap_or(2.0),
        Err(message) => {
            eprintln!("{message}");
            return 2;
        }
    };
    eprintln!(
        "running {} pinned scenarios ({} tier, 1 worker thread)…",
        bench::pinned_scenarios(quick).len(),
        if quick { "quick" } else { "full" }
    );
    let records = bench::run_bench(quick);
    for r in &records {
        println!(
            "{:<24} {:>10.1} ms  {:>9} msgs  peak RSS {:>8} kB",
            r.name, r.wall_ms, r.messages, r.peak_rss_kb
        );
    }
    if let Some(out) = out {
        if let Err(e) = std::fs::write(&out, bench::render_json(&records, quick)) {
            eprintln!("could not write {out}: {e}");
            return 1;
        }
        println!("wrote {out}");
    }
    if let Some(history_path) = value_of(args, "--append-history") {
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(0))
            .unwrap_or(0);
        let line = bench::history_line(&records, quick, unix_ms);
        use std::io::Write;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&history_path)
            .and_then(|mut f| writeln!(f, "{line}"));
        match appended {
            Ok(()) => println!("appended history record -> {history_path}"),
            Err(e) => {
                eprintln!("could not append to {history_path}: {e}");
                return 1;
            }
        }
    }
    if let Some(baseline_path) = value_of(args, "--check") {
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(baseline) => baseline,
            Err(e) => {
                eprintln!("could not read baseline {baseline_path}: {e}");
                return 1;
            }
        };
        match bench::check_regressions(&records, quick, &baseline, factor) {
            Ok(regressions) if regressions.is_empty() => {
                println!("no scenario regressed more than {factor}x vs {baseline_path}");
            }
            Ok(regressions) => {
                for r in &regressions {
                    eprintln!("REGRESSION {r}");
                }
                return 1;
            }
            Err(message) => {
                eprintln!("{message}");
                return 1;
            }
        }
    }
    0
}

/// The report differ: `onoc diff <a.json> <b.json> [--tolerance x]`
/// compares two report artifacts field by field and exits non-zero on
/// drift, so corpus runs are regression-checkable across commits.
fn cmd_diff(args: &[String]) -> i32 {
    let positional: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| !a.starts_with("--") && (i == 0 || args[i - 1].as_str() != "--tolerance"))
        .map(|(_, a)| a)
        .collect();
    let [a_path, b_path] = positional.as_slice() else {
        eprintln!("`onoc diff` needs exactly two report artifacts (got {positional:?})\n");
        eprint!("{USAGE}");
        return 2;
    };
    let tolerance = match parsed_value::<f64>(args, "--tolerance") {
        Ok(tolerance) => tolerance.unwrap_or(0.0),
        Err(message) => {
            eprintln!("{message}");
            return 2;
        }
    };
    if !(tolerance.is_finite() && tolerance >= 0.0) {
        eprintln!("--tolerance must be a nonnegative number, got {tolerance}");
        return 2;
    }
    let load = |path: &str| -> Result<onoc_exp::Value, String> {
        let raw =
            std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
        onoc_exp::Value::parse_json(&raw).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(message), _) | (_, Err(message)) => {
            eprintln!("{message}");
            return 1;
        }
    };
    match onoc_exp::diff_reports(&a, &b, tolerance) {
        Ok(diff) if diff.is_clean() => {
            println!(
                "identical within tolerance {tolerance}: {} cells compared",
                diff.cells_compared
            );
            0
        }
        Ok(diff) => {
            for drift in &diff.drifts {
                eprintln!("DRIFT {drift}");
            }
            eprintln!(
                "{} drift(s) over {} compared cells (tolerance {tolerance})",
                diff.drifts.len(),
                diff.cells_compared
            );
            1
        }
        Err(message) => {
            eprintln!("{message}");
            1
        }
    }
}

/// Trace tooling: `onoc trace info <file>` prints the summary statistics
/// of a `cycle,src,dst,size` CSV trace.
fn cmd_trace(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("info") => {}
        other => {
            eprintln!("unknown trace subcommand {other:?} (expected `info <file>`)");
            return 2;
        }
    }
    let Some(path) = args.get(1) else {
        eprintln!("`onoc trace info` needs a CSV trace file");
        return 2;
    };
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("could not read {path}: {e}");
            return 1;
        }
    };
    let trace = match TrafficTrace::from_csv_str(&raw) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("{path}: {e}");
            return 1;
        }
    };
    let stats = trace.stats();
    println!("trace: {path}");
    println!("messages:             {}", stats.messages);
    println!(
        "cycle span:           {}..{} ({} cycles)",
        stats.first_cycle,
        stats.last_cycle,
        stats.last_cycle - stats.first_cycle + 1
    );
    println!("total volume:         {:.0} bits", stats.total_bits);
    println!(
        "mean offered load:    {:.3} bits/cycle",
        stats.mean_offered_bits_per_cycle
    );
    println!("node  sent  received");
    for (node, (sent, received)) in stats.per_source.iter().zip(&stats.per_dest).enumerate() {
        println!("n{node:<4} {sent:>5} {received:>9}");
    }
    0
}

fn cmd_sweep(args: &[String]) -> i32 {
    match build_sweep(args) {
        Ok((grid, ctx, json)) => {
            let outcome = run_sweep(&grid, ctx.threads);
            let mut report = Report::new(format!(
                "Ad-hoc saturation sweep — {} scenarios, seed {}",
                outcome.results.len(),
                grid.seed
            ));
            report.push_table(sweep_table("sweep", &outcome));
            emit(&report, json)
        }
        Err(message) => {
            eprintln!("{message}");
            2
        }
    }
}

fn build_sweep(args: &[String]) -> Result<(SweepGrid, RunContext, bool), String> {
    let ctx = context(args)?;
    let mut grid = SweepGrid::saturation_default(ctx.seed);
    grid.horizon = ctx.scale.pick(20_000, 5_000, 2_000);

    if let Some(names) = list_of::<String>(args, "--patterns")? {
        let hotspots: Vec<NodeId> = parsed_value::<String>(args, "--hotspots")?
            .map(|raw| {
                raw.split(',')
                    .map(|p| p.trim().parse::<usize>().map(NodeId))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| "--hotspots could not parse".to_string())
            })
            .transpose()?
            .unwrap_or_else(|| vec![NodeId(0)]);
        let fraction = parsed_value::<f64>(args, "--fraction")?.unwrap_or(0.5);
        grid.patterns = names
            .iter()
            .map(|name| {
                traffic_pattern(name, &hotspots, fraction).ok_or_else(|| {
                    format!(
                        "unknown pattern {name:?} ({})",
                        TRAFFIC_PATTERNS.join(" | ")
                    )
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
    }
    if let Some(rates) = list_of::<f64>(args, "--rates")? {
        grid.injection_rates = rates;
    }
    if let Some(wavelengths) = list_of::<usize>(args, "--wavelengths")? {
        grid.wavelengths = wavelengths;
    }
    if let Some(rings) = list_of::<usize>(args, "--rings")? {
        grid.ring_sizes = rings;
    }
    if let Some(horizon) = parsed_value::<u64>(args, "--horizon")? {
        grid.horizon = horizon;
    }
    if let Some(bits) = parsed_value::<f64>(args, "--message-bits")? {
        grid.message_volume = Bits::new(bits);
    }
    if flag(args, "--bursty") {
        grid.burstiness = Some(OnOffConfig::default_bursty());
    }
    if let Some(raw) = value_of(args, "--policy") {
        grid.policy = match raw.as_str() {
            "single" => DynamicPolicy::Single,
            "greedy" => DynamicPolicy::Greedy {
                cap: grid.wavelengths[0].max(1),
            },
            greedy if greedy.starts_with("greedy:") => {
                let cap = greedy["greedy:".len()..]
                    .parse::<usize>()
                    .map_err(|_| format!("--policy could not parse cap in {greedy:?}"))?;
                DynamicPolicy::Greedy { cap }
            }
            other => return Err(format!("unknown policy {other:?} (single | greedy:<cap>)")),
        };
    }
    // The spec layer's checks turn grid mistakes (rates, combs or rings
    // out of range, hotspots off a ring) into CLI errors, not worker
    // panics.
    ScenarioSpec::builder("sweep")
        .workload(onoc_exp::WorkloadSpec::Sweep {
            patterns: grid.patterns.clone(),
            injection_rates: grid.injection_rates.clone(),
            wavelengths: grid.wavelengths.clone(),
            ring_sizes: grid.ring_sizes.clone(),
            message_bits: grid.message_volume.value(),
            horizon: grid.horizon,
            burstiness: grid.burstiness.as_ref().map(|b| (b.mean_on, b.mean_off)),
        })
        .allocator(onoc_exp::AllocatorSpec::Dynamic {
            policy: grid.policy,
        })
        .build()
        .map_err(|e| format!("invalid sweep: {e}"))?;
    // Match `run_spec` sweep workloads: energy columns fold the paper
    // model at the grid's nominal (first ring × first comb) point.
    grid.energy = Some(onoc_sim::EnergyModel::paper(
        grid.ring_sizes[0],
        grid.wavelengths[0],
    ));
    Ok((grid, ctx, flag(args, "--json")))
}
