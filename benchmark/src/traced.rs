//! The traced run: the program's own path with a span around each public
//! call, then the public call into each crate timed on its own.
//!
//! The `pipeline` root runs exactly what the untraced run runs —
//! `ScenarioSpec::from_toml_str`, `run_spec(spec, 1)` or `run_serve`,
//! `Report::render` — so `run.py` fails the run unless its artifact
//! digest equals the untraced one. The `calibration` root then repeats,
//! one crate at a time, the public calls that run made: trace generation,
//! flow synthesis, `EnergySpec::resolve`, the event core under the
//! program's probes and under fewer probes, `build_requests` and `serve`,
//! `Nsga2::run_with_observer`. Each repeated call must reproduce the
//! numbers the artifact prints. onoc-exp's own share (building the
//! artifact's tables) is the `run_spec` / `run_serve` span minus the
//! layers timed inside it.

use std::collections::BTreeMap;
use std::time::Instant;

use onoc_exp::artifact::counts_cell;
use onoc_exp::scenario::sweep_table;
use onoc_exp::{
    AllocatorSpec, Report, ScenarioSpec, WorkloadSpec, build_requests, run_serve, run_spec,
    service_config,
};
use onoc_serve::serve;
use onoc_sim::{
    ChromeTraceProbe, EnergyProbe, FlowMatrix, NullProbe, OpenLoopReport, OpenLoopSimulator,
    ReliabilityProbe, ReportMode, SimProbe, SimScratch, StaticFlowMap, TimeSeriesProbe,
    TransportMode, WavelengthMode,
};
use onoc_topology::RingTopology;
use onoc_traffic::{
    OnOffConfig, ScenarioPhases, ScenarioResult, SweepGrid, SweepOutcome, TrafficConfig,
    TrafficTrace, generate, run_scenario_phased,
};
use onoc_units::{Bits, BitsPerCycle};
use onoc_wa::nsga2_sort::fast_nondominated_sort;
use onoc_wa::{Nsga2, ProblemInstance, dominates};

use crate::checks::{cell, count_before, ensure, table, text_line};
use crate::spans::Tracer;
use crate::workloads::{KNEE_HIGH, KNEE_LOW, Workload};
use crate::{digest, energy_model, failure, json_string, median};

/// Passes over the final GA population when timing evaluation and sort.
const CALIBRATION_PASSES: usize = 10;

/// Seconds or counts by name.
type Figures = BTreeMap<&'static str, f64>;

/// Runs the traced pipeline and the calibration for `workload`, writes
/// the span file when asked, and returns the one-line JSON record.
/// `passes` is how often the calibration repeats the event core.
pub fn run(workload: Workload, text: &str, spans_path: Option<&str>, passes: usize) -> String {
    let mut t = Tracer::new(u64::from(std::process::id()));
    let outcome = t.span("pipeline", |t| -> Result<_, String> {
        let spec = t
            .span("spec.parse", |_| ScenarioSpec::from_toml_str(text))
            .map_err(|e| e.to_string())?;
        let report = t
            .span("exp.run", |_| match workload {
                Workload::ServeChurn16n => run_serve(&spec),
                _ => run_spec(&spec, 1),
            })
            .map_err(|e| e.to_string())?;
        let rendered = t.span("artifact.render", |_| report.render());
        Ok((spec, report, rendered))
    });
    let (spec, report, rendered) = match outcome {
        Ok(v) => v,
        Err(e) => return failure("trace", &e),
    };
    let (artifact_digest, artifact_bytes) = (digest(&rendered), rendered.len());
    drop(rendered);
    let work = match crate::check(workload, &report, text) {
        Ok(w) => w,
        Err(e) => return failure("trace", &e),
    };
    // `layers`: seconds each crate spends inside `exp.run`.
    let (mut layers, mut figures) = (Figures::new(), Figures::new());
    let calibrated = t.span("calibration", |t| match workload {
        Workload::GaPaper8l => ga(t, &spec, &report, &mut layers, &mut figures),
        Workload::SweepUniform64n => sweep(t, &spec, &report, &mut layers, &mut figures, passes),
        Workload::StaticTranspose128n => {
            stream(t, &spec, &report, &mut layers, &mut figures, passes)
        }
        Workload::ServeChurn16n => serve_churn(t, &spec, &report, &mut layers, &mut figures),
    });
    if let Err(e) = calibrated {
        return failure("trace", &e);
    }
    drop(report);
    if let Some(path) = spans_path
        && let Err(e) = std::fs::write(path, t.to_chrome_json())
    {
        return failure("trace", &format!("{path}: {e}"));
    }

    let wall = t.total_s("pipeline");
    let inside: f64 = layers.values().sum();
    layers.insert("artifact.tables", t.total_s("exp.run") - inside);
    layers.insert("spec.parse", t.total_s("spec.parse"));
    layers.insert("artifact.render", t.total_s("artifact.render"));
    let unattributed = wall - layers.values().sum::<f64>();
    figures.insert("artifact.bytes", artifact_bytes as f64);
    let per_layer = per_layer_metrics(&figures, &layers, wall, unattributed);
    format!(
        "{{\"mode\": \"trace\", \"ok\": true, \"digest\": \"{artifact_digest}\", \
         \"work\": {work}, \"layers\": {}, \"table\": {}, \"per_layer\": {}}}",
        json_map(&layers),
        json_map(&figures),
        json_map(&per_layer),
    )
}

/// The `BENCHMARK.json` per-layer metrics. Layer costs are given as
/// rates (work per second of that layer) and shares of the traced wall,
/// so a layer a workload bypasses reads 0 instead of a constant time.
fn per_layer_metrics(
    f: &Figures,
    layers: &Figures,
    wall: f64,
    unattributed: f64,
) -> BTreeMap<&'static str, f64> {
    let get = |k: &str| f.get(k).copied().unwrap_or(0.0);
    let secs = |k: &str| layers.get(k).copied().unwrap_or(0.0);
    let rate = |work: f64, secs: f64| if secs > 0.0 { work / secs } else { 0.0 };
    let share = |secs: f64| if wall > 0.0 { secs / wall } else { 0.0 };
    let messages = get("sim.messages");
    let sessions = get("serve.sessions");
    BTreeMap::from([
        ("spec.parse_us", secs("spec.parse") * 1e6),
        ("budget.models_per_s", rate(1.0, secs("budget.model"))),
        ("budget.share", share(secs("budget.model"))),
        (
            "wa.evals_per_s",
            rate(get("wa.evaluations"), secs("wa.nsga2")),
        ),
        ("wa.gens_per_s_p50", rate(1e3, get("wa.gen_ms_p50"))),
        ("wa.reevals_per_s", rate(1e9, get("wa.eval_ns"))),
        ("wa.sorts_per_s", rate(1e3, get("wa.sort_ms"))),
        ("wa.valid_frac", get("wa.valid_frac")),
        ("wa.synth_per_s", rate(1.0, secs("wa.flow_synthesis"))),
        (
            "traffic.msgs_per_s",
            rate(messages, secs("traffic.generate")),
        ),
        ("sim.core_msgs_per_s", rate(messages, secs("sim.core"))),
        (
            "sim.msgs_per_s_below_knee",
            rate(1e9, get("sim.ns_per_msg_below_knee")),
        ),
        (
            "sim.msgs_per_s_above_knee",
            rate(1e9, get("sim.ns_per_msg_above_knee")),
        ),
        (
            "sim.msgs_per_s_static",
            rate(1e9, get("sim.ns_per_msg_static")),
        ),
        ("sim.blocked_per_msg", get("sim.blocked_per_msg")),
        ("probe.energy_share", share(secs("probe.energy"))),
        ("probe.telemetry_share", share(secs("probe.telemetry"))),
        ("report.fold_share", share(secs("report.fold"))),
        (
            "serve.gen_sessions_per_s",
            rate(sessions, secs("serve.gen")),
        ),
        (
            "serve.loop_sessions_per_s",
            rate(sessions, secs("serve.loop")),
        ),
        ("serve.pack_ratio", get("serve.pack_ratio")),
        ("serve.defrag_moves", get("serve.defrag_moves")),
        ("artifact.tables_s", secs("artifact.tables")),
        ("artifact.render_s", secs("artifact.render")),
        ("artifact.bytes", get("artifact.bytes")),
        ("trace.wall_s", wall),
        ("trace.unattributed_s", unattributed),
    ])
}

fn json_map(map: &BTreeMap<&'static str, f64>) -> String {
    let items: Vec<String> = map
        .iter()
        .map(|(k, v)| {
            format!(
                "{}: {}",
                json_string(k),
                if v.is_finite() { *v } else { 0.0 }
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// Runs `f` in a span named `name`; returns its result and seconds.
fn timed<T>(t: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = t.span(name, |_| f());
    (out, start.elapsed().as_secs_f64())
}

// ------------------------------------------------------------------ ga --

fn ga(
    t: &mut Tracer,
    spec: &ScenarioSpec,
    report: &Report,
    layers: &mut Figures,
    figures: &mut Figures,
) -> Result<(), String> {
    let AllocatorSpec::Nsga2 {
        population,
        generations,
    } = spec.allocator
    else {
        return Err("ga workload needs an nsga2 allocator".into());
    };
    let instance = t.span("wa.instance", |_| {
        ProblemInstance::paper_with_wavelengths(spec.arch.wavelengths)
    });
    let evaluator = t.span("wa.instance", |_| instance.evaluator());
    let mut config = spec.scale.ga_config(spec.objectives, spec.seed);
    if let Some(p) = population {
        config.population_size = p;
    }
    if let Some(g) = generations {
        config.generations = g;
    }
    let objectives = config.objectives;
    let mut stamps: Vec<Instant> = Vec::with_capacity(config.generations);
    let outcome = t.span("wa.nsga2", |_| {
        Nsga2::new(&evaluator, config).run_with_observer(|_, _| stamps.push(Instant::now()))
    });

    // The repeated search must be the one the artifact reports; its
    // front is then checked unrounded: non-empty, mutually
    // non-dominated, each point re-evaluating to its recorded objectives.
    let front = outcome.front.points();
    let rows: Vec<Vec<String>> = front
        .iter()
        .map(|p| {
            vec![
                format!("{:.4}", p.objectives.exec_time.to_kilocycles()),
                format!("{:.4}", p.objectives.bit_energy.value()),
                format!("{:.4}", p.objectives.avg_log_ber),
                counts_cell(&p.allocation.counts()),
            ]
        })
        .collect();
    let evaluations = count_before(text_line(report, "NSGA-II:")?, "evaluations")?;
    ensure(
        evaluations == outcome.stats.evaluations as u64
            && table(report, "front")?.rows() == rows.as_slice(),
        || "the repeated NSGA-II run differs from the artifact's".into(),
    )?;
    ensure(!front.is_empty(), || "the Pareto front is empty".into())?;
    for (i, p) in front.iter().enumerate() {
        ensure(
            evaluator.evaluate(&p.allocation) == Some(p.objectives),
            || format!("front point {i} re-evaluates to other objectives"),
        )?;
        ensure(
            !front.iter().any(|q| dominates(&q.values, &p.values)),
            || format!("front point {i} is dominated"),
        )?;
    }

    let population: Vec<_> = outcome
        .final_population
        .iter()
        .map(|i| &i.allocation)
        .collect();
    let mut scored = Vec::new();
    t.span("wa.reeval", |_| {
        for _ in 0..CALIBRATION_PASSES {
            scored = population.iter().map(|a| evaluator.evaluate(a)).collect();
        }
    });
    let values: Vec<Vec<f64>> = scored
        .iter()
        .flatten()
        .map(|o| o.values(objectives))
        .collect();
    let mut sort_ms = Vec::with_capacity(CALIBRATION_PASSES);
    for _ in 0..CALIBRATION_PASSES {
        let (fronts, secs) = timed(t, "wa.sort", || fast_nondominated_sort(&values));
        sort_ms.push(secs * 1e3);
        ensure(
            fronts.iter().map(Vec::len).sum::<usize>() == values.len(),
            || "non-dominated sort lost individuals".into(),
        )?;
    }

    layers.insert("wa.instance", t.total_s("wa.instance"));
    layers.insert("wa.nsga2", t.total_s("wa.nsga2"));
    let mut gen_ms: Vec<f64> = stamps
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect();
    if !gen_ms.is_empty() {
        figures.insert("wa.gen_ms_p50", median(&mut gen_ms));
    }
    figures.insert("wa.evaluations", outcome.stats.evaluations as f64);
    figures.insert(
        "wa.valid_frac",
        outcome.stats.valid_evaluations as f64 / outcome.stats.evaluations.max(1) as f64,
    );
    figures.insert(
        "wa.eval_ns",
        t.total_s("wa.reeval") * 1e9 / (CALIBRATION_PASSES * population.len().max(1)) as f64,
    );
    figures.insert("wa.sort_ms", median(&mut sort_ms));
    Ok(())
}

// --------------------------------------------------------------- sweep --

/// Runs every grid point through the public per-point call, on one
/// scratch as `run_sweep` keeps one per worker.
fn sweep_points(
    grid: &SweepGrid,
    scratch: &mut SimScratch,
) -> Vec<(ScenarioResult, ScenarioPhases)> {
    grid.scenarios()
        .iter()
        .map(|s| run_scenario_phased(grid, s, scratch))
        .collect()
}

fn sweep(
    t: &mut Tracer,
    spec: &ScenarioSpec,
    report: &Report,
    layers: &mut Figures,
    figures: &mut Figures,
    passes: usize,
) -> Result<(), String> {
    let WorkloadSpec::Sweep {
        patterns,
        injection_rates,
        wavelengths,
        ring_sizes,
        message_bits,
        horizon,
        burstiness,
    } = &spec.workload
    else {
        return Err("sweep workload needs a sweep spec".into());
    };
    let AllocatorSpec::Dynamic { policy } = spec.allocator else {
        return Err("sweep workload needs a dynamic allocator".into());
    };
    if spec.faults.is_some() || spec.transport.is_some() || spec.healing.is_some() {
        return Err("the calibration repeats fault-free sweeps only".into());
    }
    let model = t.span("budget.model", |_| energy_model(spec));
    let mut grid = SweepGrid {
        patterns: patterns.clone(),
        injection_rates: injection_rates.clone(),
        wavelengths: wavelengths.clone(),
        ring_sizes: ring_sizes.clone(),
        message_volume: Bits::new(*message_bits),
        horizon: spec
            .scale
            .pick(*horizon, (*horizon / 4).max(1), (*horizon / 10).max(1)),
        seed: spec.seed,
        lane_rate: BitsPerCycle::new(1.0),
        policy,
        burstiness: burstiness.map(|(mean_on, mean_off)| OnOffConfig { mean_on, mean_off }),
        injection: spec.injection,
        energy: None,
        faults: None,
        transport: TransportMode::None,
        healing: None,
        aimd: spec.aimd.resolve(),
        workers: 1,
        static_map: None,
    };
    // Each pass runs the grid as the program does, then again with the
    // energy probe off: the event core under the reliability probe alone,
    // which every sweep point attaches. The two alternate, so a change of
    // host speed hits both; layer times are medians over the passes.
    let mut scratch = SimScratch::new();
    let mut samples: Vec<SweepPass> = Vec::with_capacity(passes);
    for pass in 0..passes {
        grid.energy = Some(model.clone());
        let probed = t.span("sweep.points", |_| sweep_points(&grid, &mut scratch));
        if pass == 0 {
            check_sweep(&probed, report, figures)?;
        }
        grid.energy = None;
        let bare = t.span("sweep.points_core", |_| sweep_points(&grid, &mut scratch));
        let mut sample = SweepPass::default();
        for (_, p) in &probed {
            sample.generate += p.setup_ms;
            sample.simulate += p.simulate_ms;
            sample.fold += p.report_ms;
        }
        for (r, p) in &bare {
            sample.core += p.simulate_ms;
            if r.scenario.injection_rate < KNEE_LOW {
                sample.below += p.simulate_ms;
            } else if r.scenario.injection_rate > KNEE_HIGH {
                sample.above += p.simulate_ms;
            }
        }
        samples.push(sample);
    }
    let ms =
        |field: fn(&SweepPass) -> f64| median(&mut samples.iter().map(field).collect::<Vec<_>>());
    let ns_per_msg = |ms: f64, messages: f64| {
        if messages > 0.0 {
            ms * 1e6 / messages
        } else {
            0.0
        }
    };
    layers.insert("budget.model", t.total_s("budget.model"));
    layers.insert("traffic.generate", ms(|s| s.generate) / 1e3);
    layers.insert("sim.core", ms(|s| s.core) / 1e3);
    layers.insert("probe.energy", (ms(|s| s.simulate) - ms(|s| s.core)) / 1e3);
    layers.insert("report.fold", ms(|s| s.fold) / 1e3);
    let below = ns_per_msg(ms(|s| s.below), figures["sim.messages_below_knee"]);
    let above = ns_per_msg(ms(|s| s.above), figures["sim.messages_above_knee"]);
    figures.insert("sim.ns_per_msg_below_knee", below);
    figures.insert("sim.ns_per_msg_above_knee", above);
    Ok(())
}

/// One calibration pass over the sweep grid, in milliseconds.
#[derive(Default)]
struct SweepPass {
    /// Trace generation, energy probe on.
    generate: f64,
    /// Engine runs with the energy probe on.
    simulate: f64,
    /// Folding runs into results, energy probe on.
    fold: f64,
    /// Engine runs with the energy probe off.
    core: f64,
    /// `core` over the points below the knee.
    below: f64,
    /// `core` over the points above the knee.
    above: f64,
}

/// Checks the repeated sweep: every point conserves messages (retired +
/// lost = injected) and has a finite positive energy figure, and the
/// table the points make is the artifact's. Records the message counts.
fn check_sweep(
    points: &[(ScenarioResult, ScenarioPhases)],
    report: &Report,
    figures: &mut Figures,
) -> Result<(), String> {
    let (mut messages, mut blocked, mut below, mut above) = (0, 0, 0, 0);
    for (r, _) in points {
        ensure(r.latency.count + r.lost == r.injected, || {
            format!(
                "{} retired + {} lost != {} injected at rate {}",
                r.latency.count, r.lost, r.injected, r.scenario.injection_rate
            )
        })?;
        ensure(
            r.energy_pj_per_bit.is_finite() && r.energy_pj_per_bit > 0.0,
            || format!("pJ/bit is {}", r.energy_pj_per_bit),
        )?;
        messages += r.injected;
        blocked += r.blocked;
        if r.scenario.injection_rate < KNEE_LOW {
            below += r.injected;
        } else if r.scenario.injection_rate > KNEE_HIGH {
            above += r.injected;
        }
    }
    let repeated = sweep_table(
        "sweep",
        &SweepOutcome {
            results: points.iter().map(|(r, _)| r.clone()).collect(),
            threads: 1,
            workers_used: 1,
        },
    );
    ensure(repeated.rows() == table(report, "sweep")?.rows(), || {
        "the repeated sweep differs from the artifact's".into()
    })?;
    figures.insert("sim.messages", messages as f64);
    figures.insert("sim.messages_below_knee", below as f64);
    figures.insert("sim.messages_above_knee", above as f64);
    figures.insert(
        "sim.blocked_per_msg",
        blocked as f64 / messages.max(1) as f64,
    );
    Ok(())
}

// ----------------------------------------------------- static stream --

/// One serial engine run over `trace`, as the program makes it: a fresh
/// scratch whose route/mask build is restricted to the injected flows.
fn simulate<P: SimProbe>(
    sim: &OpenLoopSimulator,
    trace: &TrafficTrace,
    nodes: usize,
    mode: ReportMode,
    probe: &mut P,
) -> Result<OpenLoopReport, String> {
    let mut rows: Vec<u32> = trace
        .events()
        .iter()
        .map(|e| u32::try_from(e.src.0 * nodes + e.dst.0).expect("ring rows fit in u32"))
        .collect();
    rows.sort_unstable();
    rows.dedup();
    let mut scratch = SimScratch::new();
    scratch.set_flow_rows(Some(rows));
    sim.run_with_scratch_probed(trace.source(), &mut scratch, mode, probe)
        .map_err(|e| e.to_string())
}

fn stream(
    t: &mut Tracer,
    spec: &ScenarioSpec,
    report: &Report,
    layers: &mut Figures,
    figures: &mut Figures,
    passes: usize,
) -> Result<(), String> {
    let WorkloadSpec::Synthetic {
        pattern,
        injection_rate,
        message_bits,
        horizon,
        burstiness,
    } = &spec.workload
    else {
        return Err("static workload needs a synthetic spec".into());
    };
    let AllocatorSpec::FlowSynthesis { policy, spares } = spec.allocator else {
        return Err("static workload needs a flow-synthesis allocator".into());
    };
    let Some(telemetry) = &spec.telemetry else {
        return Err("static workload needs a [telemetry] table".into());
    };
    if spec.faults.is_some()
        || spec.transport.is_some()
        || spec.healing.is_some()
        || telemetry.chrome_trace.is_some()
    {
        return Err("the calibration repeats fault-free runs without a chrome trace only".into());
    }
    let (nodes, wavelengths) = (spec.arch.nodes, spec.arch.wavelengths);
    let config = TrafficConfig {
        nodes,
        pattern: pattern.clone(),
        injection_rate: *injection_rate,
        message_volume: Bits::new(*message_bits),
        horizon: spec
            .scale
            .pick(*horizon, (*horizon / 4).max(1), (*horizon / 10).max(1)),
        seed: spec.seed,
        burstiness: burstiness.map(|(mean_on, mean_off)| OnOffConfig { mean_on, mean_off }),
    };
    let trace = t.span("traffic.generate", |_| generate(&config));
    let ring = RingTopology::new(nodes);
    let (map, summary) = t
        .span("wa.flow_synthesis", |_| {
            let matrix = FlowMatrix::from_events(nodes, trace.events());
            StaticFlowMap::from_allocator_with_spares(&ring, wavelengths, &matrix, policy, spares)
        })
        .map_err(|e| format!("allocator failed: {e}"))?;
    ensure(summary.is_disjoint(), || {
        "the static workload's synthesis must be strictly disjoint".into()
    })?;
    let model = t.span("budget.model", |_| energy_model(spec));
    let sim = OpenLoopSimulator::with_injection(
        ring,
        wavelengths,
        BitsPerCycle::new(1.0),
        WavelengthMode::Static(map),
        spec.injection,
    )
    .with_transport(TransportMode::None)
    .with_aimd(spec.aimd.resolve());
    let mode = spec.report.mode();

    // The engine bare, with the energy probes, and with the program's
    // full probe set (energy plus telemetry), alternating for `passes`
    // passes; layer times are the medians.
    let last_injection = trace.events().iter().map(|e| e.time).max().unwrap_or(0);
    let (mut core, mut energy_only, mut full) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..passes {
        let (run, secs) = timed(t, "sim.core", || {
            simulate(&sim, &trace, nodes, mode, &mut NullProbe)
        });
        run?;
        core.push(secs);
        let mut probe = EnergyProbe::new(model.clone(), nodes, wavelengths);
        let mut rel = ReliabilityProbe::new(wavelengths);
        let (run, secs) = timed(t, "sim.energy", || {
            simulate(&sim, &trace, nodes, mode, &mut (&mut probe, &mut rel))
        });
        run?;
        energy_only.push(secs);
        let mut probe = EnergyProbe::new(model.clone(), nodes, wavelengths);
        let mut rel = ReliabilityProbe::new(wavelengths);
        let mut series = TimeSeriesProbe::new(telemetry.window(), nodes, wavelengths)
            .with_horizon_hint(last_injection + telemetry.window());
        let mut chrome = ChromeTraceProbe::with_capacity(trace.len());
        let (run, secs) = timed(t, "sim.run", || {
            let mut probes = ((&mut probe, &mut rel), (&mut series, &mut chrome));
            simulate(&sim, &trace, nodes, mode, &mut probes)
        });
        full.push(secs);
        last = Some((run?, probe, series));
    }
    let (run, probe, series) = last.ok_or("the calibration needs at least one pass")?;
    let (series, energy, per_flow) = t.span("report.fold", |_| {
        let energy = probe.report();
        let per_flow = telemetry.per_flow().then(|| energy.per_flow());
        (series.report(), energy, per_flow)
    });

    ensure(run.message_count + run.lost_messages == trace.len(), || {
        format!(
            "{} retired + {} lost != {} injected",
            run.message_count,
            run.lost_messages,
            trace.len()
        )
    })?;
    ensure(run.conflict_count == 0, || {
        format!("{} conflicts on a disjoint static map", run.conflict_count)
    })?;
    let scenario = table(report, "scenario")?;
    let row = scenario.rows().first().ok_or("empty scenario table")?;
    ensure(
        cell::<usize>(scenario, row, "messages")? == run.message_count
            && cell::<usize>(scenario, row, "blocked")? == run.blocked_attempts
            && cell::<String>(scenario, row, "energy_pj_per_bit")?
                == format!("{:.4}", energy.pj_per_bit())
            && table(report, "timeseries")?.rows().len() == series.windows.len()
            && table(report, "per_flow_energy")?.rows().len() == per_flow.map_or(0, |f| f.len()),
        || "the repeated run differs from the artifact's".into(),
    )?;

    let (core, energy_only, full) = (
        median(&mut core),
        median(&mut energy_only),
        median(&mut full),
    );
    layers.insert("traffic.generate", t.total_s("traffic.generate"));
    layers.insert("wa.flow_synthesis", t.total_s("wa.flow_synthesis"));
    layers.insert("budget.model", t.total_s("budget.model"));
    layers.insert("sim.core", core);
    layers.insert("probe.energy", energy_only - core);
    layers.insert("probe.telemetry", full - energy_only);
    layers.insert("report.fold", t.total_s("report.fold"));
    figures.insert("sim.messages", trace.len() as f64);
    figures.insert(
        "sim.blocked_per_msg",
        run.blocked_attempts as f64 / trace.len().max(1) as f64,
    );
    figures.insert(
        "sim.ns_per_msg_static",
        core * 1e9 / trace.len().max(1) as f64,
    );
    Ok(())
}

// --------------------------------------------------------------- serve --

fn serve_churn(
    t: &mut Tracer,
    spec: &ScenarioSpec,
    report: &Report,
    layers: &mut Figures,
    figures: &mut Figures,
) -> Result<(), String> {
    if spec.telemetry.is_some() {
        return Err("the calibration repeats runs without [telemetry] only".into());
    }
    let requests = t
        .span("serve.gen", |_| build_requests(spec))
        .map_err(|e| e.to_string())?;
    let config = service_config(spec);
    let outcome = t
        .span("serve.loop", |_| serve(&config, &requests, &mut NullProbe))
        .map_err(|e| format!("simulation failed: {e}"))?;
    let r = &outcome.report;
    let service = table(report, "service")?;
    let row = service.rows().first().ok_or("empty service table")?;
    for (name, value) in [
        ("offered", r.offered),
        ("admitted", r.admitted),
        ("blocked", r.blocked),
        ("defrag_moves", r.defrag_moves),
    ] {
        ensure(cell::<usize>(service, row, name)? == value, || {
            format!("the repeated service run differs from the artifact's in `{name}`")
        })?;
    }

    let loop_s = t.total_s("serve.loop");
    layers.insert("serve.gen", t.total_s("serve.gen"));
    layers.insert("serve.loop", loop_s);
    figures.insert("serve.sessions", requests.len() as f64);
    figures.insert(
        "serve.us_per_session",
        loop_s * 1e6 / requests.len().max(1) as f64,
    );
    figures.insert(
        "serve.pack_ratio",
        r.full_repack_packs as f64 / r.incremental_packs.max(1) as f64,
    );
    figures.insert("serve.defrag_moves", r.defrag_moves as f64);
    Ok(())
}
