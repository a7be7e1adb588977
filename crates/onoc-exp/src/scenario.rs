//! Executes a [`ScenarioSpec`]: the `onoc run --spec file.toml` path.
//!
//! This is the generic interpreter over the (architecture × workload ×
//! allocator × scale) space — scenarios the 15 named experiments never
//! hard-coded (say, hotspot traffic + synthesised static allocation on a
//! 12-λ comb) run from a data file with no new Rust code.
//!
//! Scale semantics: the GA always takes its population/generations from
//! the spec's [`Scale`] (unless the allocator overrides them), and
//! open-loop horizons shrink at `quick`/`smoke` scale so smoke runs stay
//! fast even on paper-sized spec files.

use onoc_app::{MappedApplication, Mapping, RouteStrategy, TaskGraph, workloads};
use onoc_sim::{
    Activity, AimdParams, ChromeTraceProbe, EnergyProbe, EnergyReport, FaultPlan, FlowEnergy,
    FlowMatrix, OpenLoopReport, OpenLoopSimulator, ReliabilityProbe, SimError, SimScratch,
    Simulator, StaticFlowMap, SynthesisSummary, TimeSeries, TimeSeriesProbe, TransportMode,
    WavelengthMode,
};
use onoc_topology::{OnocArchitecture, RingTopology};
use onoc_traffic::{
    OnOffConfig, SweepGrid, SweepOutcome, TrafficConfig, TrafficTrace, generate, run_sweep,
};
use onoc_units::{Bits, BitsPerCycle, Cycles};
use onoc_wa::{Allocation, Evaluator, Nsga2, ProblemInstance, heuristics};
use rand::SeedableRng;
use rand::rngs::StdRng;

use crate::artifact::{Report, Table, counts_cell};
use crate::spec::{
    AllocatorSpec, HealingSpec, HeuristicKind, KernelKind, Scale, ScenarioSpec, TelemetrySpec,
    TransportSpec, WorkloadSpec, objectives_name,
};

/// Why a scenario could not be executed.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The workload/architecture could not be assembled.
    Build {
        /// Which stage failed.
        stage: &'static str,
        /// The underlying failure.
        message: String,
    },
    /// The allocator produced no allocation.
    Allocator {
        /// The underlying failure.
        message: String,
    },
    /// The simulation rejected the scenario.
    Simulation {
        /// The underlying failure.
        message: String,
    },
}

impl core::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScenarioError::Build { stage, message } => {
                write!(f, "could not build {stage}: {message}")
            }
            ScenarioError::Allocator { message } => write!(f, "allocator failed: {message}"),
            ScenarioError::Simulation { message } => write!(f, "simulation failed: {message}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

fn build_err(stage: &'static str, e: impl core::fmt::Display) -> ScenarioError {
    ScenarioError::Build {
        stage,
        message: e.to_string(),
    }
}

fn alloc_err(e: impl core::fmt::Display) -> ScenarioError {
    ScenarioError::Allocator {
        message: e.to_string(),
    }
}

/// The unit data rate (`B` of Eq. 10) shared by every scenario.
fn rate() -> BitsPerCycle {
    BitsPerCycle::new(1.0)
}

/// Horizon shrink at reduced scales (keeps smoke runs fast on
/// paper-sized spec files).
fn scaled_horizon(scale: Scale, horizon: u64) -> u64 {
    scale.pick(horizon, (horizon / 4).max(1), (horizon / 10).max(1))
}

/// Runs one scenario to a structured report.
///
/// # Errors
///
/// Returns [`ScenarioError`] when the workload cannot be assembled, the
/// allocator fails (e.g. the comb is too small), or the simulation
/// rejects its input.
pub fn run_spec(spec: &ScenarioSpec, threads: usize) -> Result<Report, ScenarioError> {
    let mut report = Report::new(format!(
        "Scenario `{}` — {} workload, {} allocator, scale: {}",
        spec.name,
        spec.workload.kind(),
        spec.allocator.kind(),
        spec.scale
    ));
    report.push_text(format!(
        "arch: {} nodes × {} λ, seed {}, objectives {}",
        spec.arch.nodes,
        spec.arch.wavelengths,
        spec.seed,
        objectives_name(spec.objectives)
    ));
    match &spec.workload {
        WorkloadSpec::PaperApp | WorkloadSpec::Kernel { .. } => {
            run_closed_loop(spec, &mut report)?;
        }
        WorkloadSpec::Synthetic { .. } => run_synthetic(spec, &mut report)?,
        WorkloadSpec::Trace { .. } => run_trace(spec, &mut report)?,
        WorkloadSpec::Sweep { .. } => run_sweep_workload(spec, threads, &mut report)?,
    }
    Ok(report)
}

// --------------------------------------------------------- closed loop --

fn closed_loop_instance(spec: &ScenarioSpec) -> Result<ProblemInstance, ScenarioError> {
    match &spec.workload {
        WorkloadSpec::PaperApp => Ok(ProblemInstance::paper_with_wavelengths(
            spec.arch.wavelengths,
        )),
        WorkloadSpec::Kernel {
            kind,
            stages,
            exec_kcc,
            volume_kbits,
            mapping_seed,
        } => {
            let exec = Cycles::from_kilocycles(*exec_kcc);
            let volume = Bits::from_kilobits(*volume_kbits);
            let graph: TaskGraph = match kind {
                KernelKind::Pipeline => workloads::pipeline(*stages, exec, volume),
                KernelKind::ForkJoin => workloads::fork_join(*stages, exec, volume),
                KernelKind::Butterfly => workloads::butterfly(*stages, exec, volume),
                KernelKind::ReductionTree => workloads::reduction_tree(*stages, exec, volume),
            };
            if graph.task_count() > spec.arch.nodes {
                return Err(ScenarioError::Build {
                    stage: "kernel mapping",
                    message: format!(
                        "{} tasks do not fit injectively on {} nodes",
                        graph.task_count(),
                        spec.arch.nodes
                    ),
                });
            }
            let mut rng = StdRng::seed_from_u64(*mapping_seed);
            let nodes = workloads::random_mapping(&mut rng, graph.task_count(), spec.arch.nodes);
            let mapping = Mapping::new(&graph, nodes).map_err(|e| build_err("mapping", e))?;
            let app = MappedApplication::new(
                graph,
                mapping,
                RingTopology::new(spec.arch.nodes),
                RouteStrategy::Shortest,
            )
            .map_err(|e| build_err("mapped application", e))?;
            let (rows, cols) = OnocArchitecture::near_square_grid(spec.arch.nodes);
            let arch = OnocArchitecture::builder()
                .grid_dimensions(rows, cols)
                .wavelengths(spec.arch.wavelengths)
                .build()
                .map_err(|e| build_err("architecture", e))?;
            ProblemInstance::new(arch, app, onoc_wa::EvalOptions::default())
                .map_err(|e| build_err("problem instance", e))
        }
        _ => unreachable!("caller dispatches only closed-loop workloads here"),
    }
}

fn objectives_table(
    label: &str,
    evaluator: &Evaluator<'_>,
    allocations: &[(String, Allocation)],
) -> Result<Table, ScenarioError> {
    let mut table = Table::new(
        label,
        &[
            "allocator",
            "exec_kcc",
            "bit_energy_fj",
            "log10_ber",
            "counts",
        ],
    );
    for (name, alloc) in allocations {
        let o = evaluator.evaluate(alloc).ok_or_else(|| {
            alloc_err(format!(
                "{name} produced an allocation that violates the §III-D constraints"
            ))
        })?;
        table.push_row(vec![
            name.clone(),
            format!("{:.4}", o.exec_time.to_kilocycles()),
            format!("{:.4}", o.bit_energy.value()),
            format!("{:.4}", o.avg_log_ber),
            counts_cell(&alloc.counts()),
        ]);
    }
    Ok(table)
}

fn run_closed_loop(spec: &ScenarioSpec, report: &mut Report) -> Result<(), ScenarioError> {
    let instance = closed_loop_instance(spec)?;
    report.push_text(format!(
        "application: {} tasks, {} communications, {} overlapping pairs",
        instance.app().graph().task_count(),
        instance.comm_count(),
        instance.app().overlapping_pairs().len()
    ));
    let evaluator = instance.evaluator();
    match &spec.allocator {
        AllocatorSpec::Nsga2 {
            population,
            generations,
        } => {
            let mut config = spec.scale.ga_config(spec.objectives, spec.seed);
            if let Some(p) = population {
                config.population_size = *p;
            }
            if let Some(g) = generations {
                config.generations = *g;
            }
            let outcome = Nsga2::new(&evaluator, config).run();
            report.push_text(format!(
                "NSGA-II: {} evaluations, {} valid, {} on the Pareto front",
                outcome.stats.evaluations,
                outcome.stats.valid_evaluations,
                outcome.front.len()
            ));
            let mut table = Table::new(
                "front",
                &["exec_kcc", "bit_energy_fj", "log10_ber", "counts"],
            );
            for p in outcome.front.points() {
                table.push_row(vec![
                    format!("{:.4}", p.objectives.exec_time.to_kilocycles()),
                    format!("{:.4}", p.objectives.bit_energy.value()),
                    format!("{:.4}", p.objectives.avg_log_ber),
                    counts_cell(&p.allocation.counts()),
                ]);
            }
            report.push_table(table);
        }
        AllocatorSpec::Heuristic { kind } => {
            let alloc = run_heuristic(*kind, &instance, &evaluator, spec.seed)?;
            let table = objectives_table("objectives", &evaluator, &[(kind.name().into(), alloc)])?;
            report.push_table(table);
        }
        AllocatorSpec::Counts { counts } => {
            let alloc = instance.allocation_from_counts(counts).map_err(alloc_err)?;
            let table = objectives_table("objectives", &evaluator, &[("counts".into(), alloc)])?;
            report.push_table(table);
        }
        AllocatorSpec::Dynamic { policy } => {
            let outcome =
                Simulator::dynamic(instance.app(), spec.arch.wavelengths, rate(), *policy)
                    .and_then(|sim| sim.run())
                    .map_err(dynamic_err)?;
            let mut table = Table::new("dynamic", &["policy", "makespan_kcc", "blocked_attempts"]);
            table.push_row(vec![
                policy.to_string(),
                format!("{:.4}", outcome.makespan as f64 / 1000.0),
                outcome.blocked_attempts.to_string(),
            ]);
            report.push_table(table);
        }
        other => unreachable!("spec validation rejects {} for closed loops", other.kind()),
    }
    Ok(())
}

/// A dynamic task-graph run's error, naming the spec key whose value
/// does not fit the simulation.
fn dynamic_err(e: SimError) -> ScenarioError {
    let key = match e {
        SimError::Overflow {
            at: Activity::Task(_),
        } => "workload.exec_kcc",
        SimError::Overflow {
            at: Activity::Comm(_),
        } => "workload.volume_kbits",
        SimError::RingTooLarge { .. } => "arch.nodes",
        _ => {
            return ScenarioError::Simulation {
                message: e.to_string(),
            };
        }
    };
    ScenarioError::Simulation {
        message: format!("`{key}` is too large: {e}"),
    }
}

fn run_heuristic(
    kind: HeuristicKind,
    instance: &ProblemInstance,
    evaluator: &Evaluator<'_>,
    seed: u64,
) -> Result<Allocation, ScenarioError> {
    match kind {
        HeuristicKind::FirstFit => heuristics::first_fit(instance).map_err(alloc_err),
        HeuristicKind::MostUsed => heuristics::most_used(instance).map_err(alloc_err),
        HeuristicKind::LeastUsed => heuristics::least_used(instance).map_err(alloc_err),
        HeuristicKind::Random => {
            heuristics::random_single(instance, &mut StdRng::seed_from_u64(seed), 10_000)
                .map_err(alloc_err)
        }
        HeuristicKind::GreedyMakespan => {
            heuristics::greedy_makespan(instance, evaluator).map_err(alloc_err)
        }
    }
}

// ----------------------------------------------------------- open loop --

fn open_loop_table(label: &str) -> Table {
    Table::new(
        label,
        &[
            "mode",
            "injection",
            "pattern",
            "nodes",
            "wavelengths",
            "injection_rate",
            "messages",
            "offered_bits_per_cycle",
            "accepted_bits_per_cycle",
            "latency_mean",
            "latency_p50",
            "latency_p95",
            "latency_p99",
            "latency_max",
            "blocked",
            "stall_mean",
            "credit_occupancy",
            "occupancy",
            "conflicts",
            "energy_pj_per_bit",
            "energy_static_frac",
            "failed_attempts",
            "lost",
            "retx_bits",
        ],
    )
}

#[allow(clippy::too_many_arguments)]
fn push_open_loop_row(
    table: &mut Table,
    mode: &str,
    pattern: &str,
    injection_rate: f64,
    offered: f64,
    report: &OpenLoopReport,
    energy: &EnergyReport,
) {
    let latency = report.latency();
    table.push_row(vec![
        mode.to_string(),
        report.injection.name().to_string(),
        pattern.to_string(),
        report.nodes.to_string(),
        report.wavelengths.to_string(),
        format!("{injection_rate}"),
        report.message_count.to_string(),
        format!("{offered:.3}"),
        format!("{:.3}", report.accepted_throughput()),
        format!("{:.2}", latency.mean),
        format!("{:.2}", latency.p50),
        format!("{:.2}", latency.p95),
        format!("{:.2}", latency.p99),
        latency.max.to_string(),
        report.blocked_attempts.to_string(),
        format!("{:.2}", report.stall().mean),
        format!("{:.5}", report.credit_occupancy),
        format!("{:.5}", report.mean_wavelength_occupancy()),
        report.conflict_count.to_string(),
        format!("{:.4}", energy.pj_per_bit()),
        format!("{:.4}", energy.static_fraction()),
        report.failed_attempts.to_string(),
        report.lost_messages.to_string(),
        format!("{:.1}", report.retransmitted_bits),
    ]);
}

/// Resolves the spec's allocator into a [`WavelengthMode`] for a
/// message-stream workload, reporting flow-synthesis artifacts (lane
/// table, predicted conflict budget) along the way.
fn open_loop_mode(
    spec: &ScenarioSpec,
    ring: &RingTopology,
    events: &[onoc_sim::TrafficEvent],
    report: &mut Report,
) -> Result<WavelengthMode, ScenarioError> {
    Ok(match &spec.allocator {
        AllocatorSpec::Dynamic { policy } => WavelengthMode::Dynamic(*policy),
        AllocatorSpec::Striped { lanes_per_flow } => WavelengthMode::Static(
            StaticFlowMap::striped(spec.arch.nodes, spec.arch.wavelengths, *lanes_per_flow),
        ),
        AllocatorSpec::FlowSynthesis { policy, spares } => {
            let matrix = FlowMatrix::from_events(spec.arch.nodes, events);
            let (map, summary) = StaticFlowMap::from_allocator_with_spares(
                ring,
                spec.arch.wavelengths,
                &matrix,
                *policy,
                *spares,
            )
            .map_err(alloc_err)?;
            let mut lanes_table = Table::new("flow_lanes", &["src", "dst", "bits", "lanes"]);
            for (src, dst, bits) in matrix.flows() {
                lanes_table.push_row(vec![
                    src.0.to_string(),
                    dst.0.to_string(),
                    format!("{bits:.0}"),
                    map.lanes(src, dst).len().to_string(),
                ]);
            }
            report.push_text(format!(
                "flow synthesis: {} measured flows, {:.0} bits total, lanes via the onoc-wa allocator",
                matrix.flow_count(),
                matrix.total_bits()
            ));
            push_conflict_budget(report, &summary);
            report.push_table(lanes_table);
            WavelengthMode::Static(map)
        }
        other => unreachable!(
            "spec validation rejects {} for message-stream workloads",
            other.kind()
        ),
    })
}

/// How many lane-sharing pairs the allocation summary spells out; the
/// rest stay counted.
const SHARED_PAIR_EXAMPLE_CAP: usize = 16;

/// Reports the predicted conflict budget of a (possibly relaxed) flow
/// synthesis.
fn push_conflict_budget(report: &mut Report, summary: &SynthesisSummary) {
    if summary.is_disjoint() {
        report.push_text(
            "allocation summary: strictly disjoint (§III-D) — predicted conflict budget 0 pairs",
        );
    } else {
        let mut pairs: Vec<String> = summary
            .shared_pairs
            .iter()
            .take(SHARED_PAIR_EXAMPLE_CAP)
            .map(|((s1, d1), (s2, d2), lane)| format!("{s1}→{d1} with {s2}→{d2} on {lane}"))
            .collect();
        let hidden = summary.shared_pairs.len().saturating_sub(pairs.len());
        if hidden > 0 {
            pairs.push(format!("… and {hidden} more"));
        }
        report.push_text(format!(
            "allocation summary: relaxed — predicted conflict budget {} lane-sharing pair(s) \
             covering {:.0} bits: {}",
            summary.shared_pairs.len(),
            summary.shared_bits,
            pairs.join("; ")
        ));
    }
}

/// The energy model a spec resolves to: its own `[energy]` table when
/// present, the paper preset otherwise — so every message-stream
/// artifact carries energy columns.
fn resolve_energy(spec: &ScenarioSpec) -> onoc_sim::EnergyModel {
    spec.energy
        .clone()
        .unwrap_or_default()
        .resolve(spec.arch.nodes, spec.arch.wavelengths)
}

/// Resolves the spec's `[faults]`/`[transport]`/AIMD tables into engine
/// terms at the spec's nominal architecture (per-flow BER vectors and
/// lane indices are sized to it; sweep validation pins mismatches).
fn resolve_reliability(spec: &ScenarioSpec) -> (Option<FaultPlan>, TransportMode, AimdParams) {
    let faults = spec
        .faults
        .as_ref()
        .map(|f| f.resolve(spec.seed, spec.arch.nodes, spec.arch.wavelengths));
    let transport = spec
        .transport
        .as_ref()
        .map_or(TransportMode::None, TransportSpec::resolve);
    (faults, transport, spec.aimd.resolve())
}

/// Runs a message-stream workload (synthetic or trace) through the
/// open/closed-loop engine — report mode and energy model from the
/// spec — and tabulates one scenario row.
fn run_stream(
    spec: &ScenarioSpec,
    trace: &TrafficTrace,
    pattern_label: &str,
    injection_rate: f64,
    offered_load: f64,
    report: &mut Report,
) -> Result<(), ScenarioError> {
    let ring = RingTopology::new(spec.arch.nodes);
    let mode = open_loop_mode(spec, &ring, trace.events(), report)?;
    let mode_label = match &mode {
        WavelengthMode::Dynamic(policy) => format!("dynamic-{policy}"),
        WavelengthMode::Static(_) => format!("static-{}", spec.allocator.kind()),
    };
    let (faults, transport, aimd) = resolve_reliability(spec);
    let mut sim = OpenLoopSimulator::with_injection(
        ring,
        spec.arch.wavelengths,
        rate(),
        mode,
        spec.injection,
    )
    .with_transport(transport)
    .with_aimd(aimd);
    if let Some(plan) = faults {
        sim = sim.with_faults(plan);
    }
    if let Some(healing) = &spec.healing {
        sim = sim.with_healing(healing.resolve());
    }
    let sim = sim;
    let model = resolve_energy(spec);
    let mut probe = EnergyProbe::new(model, spec.arch.nodes, spec.arch.wavelengths);
    let mut rel = ReliabilityProbe::new(spec.arch.wavelengths);
    // Restrict the per-run route/mask rebuild to the flows the trace
    // actually exercises (O(active flows) instead of O(n²)).
    let mut scratch = SimScratch::new();
    scratch.set_flow_rows(Some(trace.flow_rows(spec.arch.nodes)));
    let sim_err = |e: &dyn core::fmt::Display| ScenarioError::Simulation {
        message: e.to_string(),
    };
    // With a `[telemetry]` table the windowed series and the trace
    // exporter ride beside the energy probe in the same run; without one
    // the engine monomorphises over the energy probe alone, as before.
    let mut telemetry_out: Option<(TimeSeries, ChromeTraceProbe)> = None;
    let run = if let Some(telemetry) = &spec.telemetry {
        let last_injection = trace.events().iter().map(|e| e.time).max().unwrap_or(0);
        let mut series =
            TimeSeriesProbe::new(telemetry.window(), spec.arch.nodes, spec.arch.wavelengths)
                .with_horizon_hint(last_injection + telemetry.window());
        let mut chrome = ChromeTraceProbe::with_capacity(trace.len());
        let mut probes = ((&mut probe, &mut rel), (&mut series, &mut chrome));
        let run = sim
            .run_with_scratch_probed(
                trace.source(),
                &mut scratch,
                spec.report.mode(),
                &mut probes,
            )
            .map_err(|e| sim_err(&e))?;
        telemetry_out = Some((series.report(), chrome));
        run
    } else {
        let mut probes = (&mut probe, &mut rel);
        sim.run_with_scratch_probed(
            trace.source(),
            &mut scratch,
            spec.report.mode(),
            &mut probes,
        )
        .map_err(|e| sim_err(&e))?
    };
    let energy = probe.report();
    report.push_text(format!(
        "energy: {:.4} pJ/bit over {:.0} bits ({:.0}% static — laser {:.1} pJ, \
         MR tuning {:.1} pJ, TX+RX {:.1} pJ; {} report mode)",
        energy.pj_per_bit(),
        energy.bits,
        energy.static_fraction() * 100.0,
        energy.laser_fj / 1e3,
        energy.tuning_fj / 1e3,
        energy.dynamic_fj() / 1e3,
        spec.report.name(),
    ));
    if spec.faults.is_some() || spec.transport.is_some() {
        report.push_text(format!(
            "reliability: {} failed attempt(s), {:.0} bits retransmitted, {} message(s) \
             lost ({:.0} bits) under {} transport",
            run.failed_attempts,
            run.retransmitted_bits,
            run.lost_messages,
            run.lost_bits,
            transport.name(),
        ));
        let resilience = rel.report();
        if resilience.outages > 0 || spec.healing.is_some() {
            let policy = spec.healing.as_ref().map_or("off", |h| h.policy().name());
            report.push_text(format!(
                "healing ({policy}): {} outage(s), {} heal(s), {} flow(s) moved; \
                 recovery p50/p95/p99 = {:.0}/{:.0}/{:.0} cycles",
                resilience.outages,
                resilience.heals,
                resilience.flows_moved,
                resilience.outage_recovery.p50,
                resilience.outage_recovery.p95,
                resilience.outage_recovery.p99,
            ));
        }
    }
    let mut table = open_loop_table("scenario");
    push_open_loop_row(
        &mut table,
        &mode_label,
        pattern_label,
        injection_rate,
        offered_load,
        &run,
        &energy,
    );
    report.push_table(table);
    if let (Some(telemetry), Some((series, chrome))) = (&spec.telemetry, telemetry_out) {
        push_telemetry(report, telemetry, &series, &energy, &chrome)?;
    }
    Ok(())
}

// ----------------------------------------------------------- telemetry --

/// The canonical column order of the per-window `timeseries` artifact
/// (pinned by a golden-header test; downstream plots key on it).
const TIMESERIES_COLUMNS: [&str; 18] = [
    "window_start",
    "offered",
    "admitted",
    "retired",
    "retired_bits",
    "accepted_bits_per_cycle",
    "stall_fraction",
    "gate_held",
    "queue_depth",
    "in_flight",
    "lane_utilization",
    "segment_utilization",
    "ecn_marks",
    "fairness",
    "flow_fairness",
    "failed",
    "retx_bits",
    "lost",
];

/// Tabulates the windowed time series under the canonical header.
pub(crate) fn timeseries_table(series: &TimeSeries) -> Table {
    let mut table = Table::new("timeseries", &TIMESERIES_COLUMNS);
    for (i, w) in series.windows.iter().enumerate() {
        table.push_row(vec![
            w.start.to_string(),
            w.offered.to_string(),
            w.admitted.to_string(),
            w.retired.to_string(),
            format!("{:.0}", w.retired_bits),
            format!("{:.4}", series.accepted_bits_per_cycle(i)),
            format!("{:.4}", series.stall_fraction(i)),
            w.gate_held.to_string(),
            w.queue_depth.to_string(),
            w.in_flight.to_string(),
            format!("{:.4}", series.lane_utilization(i)),
            format!("{:.4}", series.segment_utilization(i)),
            w.ecn_marks.to_string(),
            format!("{:.4}", w.fairness),
            format!("{:.4}", w.flow_fairness),
            w.failed.to_string(),
            format!("{:.0}", w.retransmitted_bits),
            w.lost.to_string(),
        ]);
    }
    table
}

/// Tabulates per-source retirement and latency attribution (idle
/// sources are omitted — they have no latency statistics to report).
fn per_source_table(series: &TimeSeries) -> Table {
    let mut table = Table::new(
        "per_source",
        &[
            "src",
            "retired",
            "retired_bits",
            "latency_mean",
            "latency_p50",
            "latency_p95",
            "latency_p99",
            "latency_max",
        ],
    );
    for src in 0..series.nodes {
        if series.source_retired[src] == 0 {
            continue;
        }
        let stats = &series.source_latency[src];
        table.push_row(vec![
            src.to_string(),
            series.source_retired[src].to_string(),
            format!("{:.0}", series.source_retired_bits[src]),
            format!("{:.2}", stats.mean),
            format!("{:.2}", stats.p50),
            format!("{:.2}", stats.p95),
            format!("{:.2}", stats.p99),
            stats.max.to_string(),
        ]);
    }
    table
}

/// Tabulates the per-flow energy attribution ([`EnergyReport::per_flow`]
/// conserves every term against the run totals).
fn per_flow_energy_table(flows: &[FlowEnergy]) -> Table {
    let mut table = Table::new(
        "per_flow_energy",
        &[
            "src",
            "dst",
            "messages",
            "bits",
            "lane_on_cycles",
            "laser_fj",
            "tuning_fj",
            "tx_fj",
            "rx_fj",
            "total_fj",
        ],
    );
    for f in flows {
        table.push_row(vec![
            f.src.0.to_string(),
            f.dst.0.to_string(),
            f.messages.to_string(),
            format!("{:.0}", f.bits),
            f.lane_on_cycles.to_string(),
            format!("{:.2}", f.laser_fj),
            format!("{:.2}", f.tuning_fj),
            format!("{:.2}", f.tx_fj),
            format!("{:.2}", f.rx_fj),
            format!("{:.2}", f.total_fj()),
        ]);
    }
    table
}

/// Pushes the telemetry artifacts (window series, per-source
/// attribution, per-flow energy) and writes the Chrome trace file when
/// the spec names one.
fn push_telemetry(
    report: &mut Report,
    spec: &TelemetrySpec,
    series: &TimeSeries,
    energy: &EnergyReport,
    chrome: &ChromeTraceProbe,
) -> Result<(), ScenarioError> {
    let active = series.windows.iter().filter(|w| w.retired > 0).count();
    let mean_fairness = {
        let (sum, n) = series
            .windows
            .iter()
            .filter(|w| w.retired > 0)
            .fold((0.0, 0usize), |(s, n), w| (s + w.fairness, n + 1));
        if n == 0 { 1.0 } else { sum / n as f64 }
    };
    report.push_text(format!(
        "telemetry: {} windows of {} cycles ({active} active), mean Jain fairness {:.4} \
         over active windows",
        series.windows.len(),
        series.window,
        mean_fairness,
    ));
    report.push_table(timeseries_table(series));
    report.push_table(per_source_table(series));
    if spec.per_flow() {
        report.push_table(per_flow_energy_table(&energy.per_flow()));
    }
    if let Some(path) = &spec.chrome_trace {
        std::fs::write(path, chrome.to_json()).map_err(|e| ScenarioError::Build {
            stage: "chrome trace export",
            message: format!("{path}: {e}"),
        })?;
        report.push_text(format!(
            "chrome trace: {} duration events → {path} (load in Perfetto or chrome://tracing)",
            chrome.len()
        ));
    }
    Ok(())
}

/// The generator configuration of a synthetic workload, its horizon
/// scaled — the stream both [`run_spec`] and [`capture_trace`] draw.
fn synthetic_traffic(spec: &ScenarioSpec) -> TrafficConfig {
    let WorkloadSpec::Synthetic {
        pattern,
        injection_rate,
        message_bits,
        horizon,
        burstiness,
    } = &spec.workload
    else {
        unreachable!("caller dispatches only synthetic workloads here");
    };
    TrafficConfig {
        nodes: spec.arch.nodes,
        pattern: pattern.clone(),
        injection_rate: *injection_rate,
        message_volume: Bits::new(*message_bits),
        horizon: scaled_horizon(spec.scale, *horizon),
        seed: spec.seed,
        burstiness: burstiness.map(|(mean_on, mean_off)| OnOffConfig { mean_on, mean_off }),
    }
}

/// Reads and parses a trace workload's CSV file.
pub(crate) fn read_trace(path: &str) -> Result<TrafficTrace, ScenarioError> {
    let error = |e: &dyn std::fmt::Display| ScenarioError::Build {
        stage: "trace file",
        message: format!("{path}: {e}"),
    };
    let raw = std::fs::read_to_string(path).map_err(|e| error(&e))?;
    TrafficTrace::from_csv_str(&raw).map_err(|e| error(&e))
}

fn run_synthetic(spec: &ScenarioSpec, report: &mut Report) -> Result<(), ScenarioError> {
    let config = synthetic_traffic(spec);
    let trace = generate(&config);
    report.push_text(format!(
        "trace: {} pattern, rate {}, {} messages over {} cycles, {} injection",
        config.pattern,
        config.injection_rate,
        trace.len(),
        config.horizon,
        spec.injection
    ));
    run_stream(
        spec,
        &trace,
        config.pattern.name(),
        config.injection_rate,
        config.offered_load(),
        report,
    )
}

fn run_trace(spec: &ScenarioSpec, report: &mut Report) -> Result<(), ScenarioError> {
    let WorkloadSpec::Trace { path } = &spec.workload else {
        unreachable!("caller dispatches only trace workloads here");
    };
    let trace = read_trace(path)?;
    if trace.max_node() >= spec.arch.nodes {
        return Err(ScenarioError::Build {
            stage: "trace file",
            message: format!(
                "{path} references node {} but the architecture has {} nodes",
                trace.max_node(),
                spec.arch.nodes
            ),
        });
    }
    report.push_text(format!(
        "trace: {} replayed messages from {path}, {} injection",
        trace.len(),
        spec.injection
    ));
    let offered_load = {
        let window = trace.events().iter().map(|e| e.time).max().unwrap_or(0) + 1;
        trace.events().iter().map(|e| e.volume.value()).sum::<f64>() / window as f64
    };
    run_stream(spec, &trace, "trace", 0.0, offered_load, report)
}

fn run_sweep_workload(
    spec: &ScenarioSpec,
    threads: usize,
    report: &mut Report,
) -> Result<(), ScenarioError> {
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
        unreachable!("caller dispatches only sweep workloads here");
    };
    let AllocatorSpec::Dynamic { policy } = &spec.allocator else {
        unreachable!("spec validation allows only dynamic allocators for sweeps");
    };
    let (faults, transport, aimd) = resolve_reliability(spec);
    let grid = SweepGrid {
        patterns: patterns.clone(),
        injection_rates: injection_rates.clone(),
        wavelengths: wavelengths.clone(),
        ring_sizes: ring_sizes.clone(),
        message_volume: Bits::new(*message_bits),
        horizon: scaled_horizon(spec.scale, *horizon),
        seed: spec.seed,
        lane_rate: rate(),
        policy: *policy,
        burstiness: burstiness.map(|(mean_on, mean_off)| OnOffConfig { mean_on, mean_off }),
        injection: spec.injection,
        // One model for the whole grid, resolved at the spec's nominal
        // architecture (per-point laser re-derivation would make sweep
        // rows incomparable across the comb/ring axes); the fault plan
        // and transport mode are shared the same way.
        energy: Some(resolve_energy(spec)),
        faults,
        transport,
        // A `[healing]` table on a sweep can only carry the parked
        // default (re-pack needs a static allocator, which spec
        // validation rejects for sweeps), but the quarantine trigger
        // still matters under a Gilbert–Elliott `[faults]` channel.
        healing: spec.healing.as_ref().map(HealingSpec::resolve),
        aimd,
        workers: 1,
        static_map: None,
    };
    let scenario_count = grid.scenarios().len();
    let outcome = run_sweep(&grid, threads);
    report.push_text(format!(
        "{scenario_count} scenarios, {} injection",
        spec.injection
    ));
    report.push_table(sweep_table("sweep", &outcome));
    Ok(())
}

/// Renders the exact message stream a spec's run would inject as a
/// `cycle,src,dst,size` CSV (the `onoc run --spec f.toml --capture-trace
/// out.csv` path), making synthetic sweeps replayable artifacts: the
/// captured file feeds back through the `trace` workload kind under any
/// allocator or injection policy.
///
/// Synthetic workloads regenerate their seeded trace (identical to what
/// [`run_spec`] simulates, horizon scaling included); trace workloads
/// re-emit the normalised form of their input file.
///
/// # Errors
///
/// Returns [`ScenarioError::Build`] for workloads without a single
/// message stream (task graphs, sweeps) or when a trace file cannot be
/// read.
pub fn capture_trace(spec: &ScenarioSpec) -> Result<String, ScenarioError> {
    match &spec.workload {
        WorkloadSpec::Synthetic { .. } => Ok(generate(&synthetic_traffic(spec)).to_csv()),
        WorkloadSpec::Trace { path } => Ok(read_trace(path)?.to_csv()),
        other => Err(ScenarioError::Build {
            stage: "trace capture",
            message: format!(
                "a `{}` workload has no single message stream to capture \
                 (only synthetic and trace workloads do)",
                other.kind()
            ),
        }),
    }
}

/// Tabulates a sweep outcome under the sweep runner's canonical header.
#[must_use]
pub fn sweep_table(name: &str, outcome: &SweepOutcome) -> Table {
    let columns: Vec<&str> = SweepOutcome::CSV_HEADER.split(',').collect();
    let mut table = Table::new(name, &columns);
    for row in outcome.to_csv() {
        table.push_row(row.split(',').map(ToString::to_string).collect());
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AllocatorSpec, WorkloadSpec};
    use onoc_sim::{DynamicPolicy, FlowAllocPolicy};
    use onoc_topology::NodeId;
    use onoc_traffic::TrafficPattern;

    fn smoke(spec: ScenarioSpec) -> Report {
        run_spec(&spec, 2).expect("smoke scenario runs")
    }

    #[test]
    fn paper_counts_scenario_reproduces_the_anchor() {
        let report = smoke(
            ScenarioSpec::builder("counts")
                .scale(Scale::Smoke)
                .wavelengths(4)
                .allocator(AllocatorSpec::Counts {
                    counts: vec![1, 1, 1, 1, 1, 1],
                })
                .build()
                .unwrap(),
        );
        let tables = report.tables();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows()[0][1], "38.0000", "frugal anchor is 38 kcc");
    }

    #[test]
    fn nsga2_scenario_produces_a_front() {
        let report = smoke(
            ScenarioSpec::builder("ga")
                .scale(Scale::Smoke)
                .build()
                .unwrap(),
        );
        let front = report.tables()[0];
        assert_eq!(front.name(), "front");
        assert!(!front.rows().is_empty());
    }

    #[test]
    fn the_previously_inexpressible_scenario_runs_from_data() {
        // Hotspot traffic + synthesised static allocation + 12-λ comb:
        // no former binary could run this; the spec layer can. (A pure
        // hotspot keeps the measured flow set colourable: ~30 flows in
        // per-segment cliques of ≤ 8, vs ~240 for a uniform background.)
        let toml = r#"
name = "hotspot-heuristic-12"
seed = 42
scale = "smoke"

[arch]
nodes = 16
wavelengths = 12

[workload]
kind = "synthetic"
pattern = "hotspot"
hotspots = [0]
fraction = 1.0
injection_rate = 0.01
message_bits = 512.0
horizon = 20000

[allocator]
kind = "flow-synthesis"
policy = "proportional"
max_lanes_per_flow = 4
"#;
        let spec = ScenarioSpec::from_toml_str(toml).unwrap();
        let report = run_spec(&spec, 2).unwrap();
        let names: Vec<&str> = report.tables().iter().map(|t| t.name()).collect();
        assert_eq!(names, vec!["flow_lanes", "scenario"]);
        let scenario = report.tables()[1];
        assert_eq!(scenario.rows().len(), 1);
        assert_eq!(scenario.rows()[0][0], "static-flow-synthesis");
        let conflicts_col = scenario
            .columns()
            .iter()
            .position(|c| c == "conflicts")
            .unwrap();
        assert_eq!(
            scenario.rows()[0][conflicts_col],
            "0",
            "synthesised maps replay their own trace conflict-free"
        );
        // The energy columns ride on every message-stream artifact.
        let energy_col = scenario
            .columns()
            .iter()
            .position(|c| c == "energy_pj_per_bit")
            .unwrap();
        let pj: f64 = scenario.rows()[0][energy_col].parse().unwrap();
        assert!(pj > 0.0, "energy column must be populated");
    }

    #[test]
    fn kernel_dynamic_scenario_runs() {
        let report = smoke(
            ScenarioSpec::builder("kernel-dyn")
                .scale(Scale::Smoke)
                .nodes(12)
                .workload(WorkloadSpec::Kernel {
                    kind: KernelKind::Pipeline,
                    stages: 5,
                    exec_kcc: 2.0,
                    volume_kbits: 4.0,
                    mapping_seed: 3,
                })
                .allocator(AllocatorSpec::Dynamic {
                    policy: DynamicPolicy::Single,
                })
                .build()
                .unwrap(),
        );
        assert_eq!(report.tables()[0].name(), "dynamic");
    }

    #[test]
    fn sweep_scenario_is_thread_deterministic() {
        let spec = ScenarioSpec::builder("grid")
            .scale(Scale::Smoke)
            .workload(WorkloadSpec::Sweep {
                patterns: vec![TrafficPattern::UniformRandom, TrafficPattern::Transpose],
                injection_rates: vec![0.005, 0.02],
                wavelengths: vec![4],
                ring_sizes: vec![16],
                message_bits: 256.0,
                horizon: 8_000,
                burstiness: None,
            })
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .build()
            .unwrap();
        let one = run_spec(&spec, 1).unwrap();
        let four = run_spec(&spec, 4).unwrap();
        // The worker head-count line differs; the artifact tables must not.
        assert_eq!(one.tables()[0], four.tables()[0]);
        assert_eq!(one.tables()[0].rows().len(), 4);
    }

    #[test]
    fn infeasible_flow_synthesis_is_a_clean_error() {
        let spec = ScenarioSpec::builder("tight")
            .scale(Scale::Smoke)
            .wavelengths(1)
            .workload(WorkloadSpec::Synthetic {
                pattern: TrafficPattern::Hotspot {
                    hotspots: vec![NodeId(0)],
                    fraction: 0.9,
                },
                injection_rate: 0.05,
                message_bits: 512.0,
                horizon: 5_000,
                burstiness: None,
            })
            .allocator(AllocatorSpec::FlowSynthesis {
                policy: FlowAllocPolicy::FirstFit,
                spares: 0,
            })
            .build()
            .unwrap();
        let err = run_spec(&spec, 2).unwrap_err();
        assert!(matches!(err, ScenarioError::Allocator { .. }), "{err}");
    }

    #[test]
    fn closed_loop_scenario_reports_backpressure_columns() {
        use onoc_sim::InjectionMode;
        let spec = ScenarioSpec::builder("closed")
            .scale(Scale::Smoke)
            .wavelengths(1)
            .workload(WorkloadSpec::Synthetic {
                pattern: TrafficPattern::UniformRandom,
                injection_rate: 0.2,
                message_bits: 512.0,
                horizon: 20_000,
                burstiness: None,
            })
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .injection(InjectionMode::Credit { window: 1 })
            .build()
            .unwrap();
        let report = run_spec(&spec, 2).unwrap();
        let table = report.tables()[0];
        let header = table.csv_header();
        assert!(header.contains("stall_mean") && header.contains("credit_occupancy"));
        let row = &table.rows()[0];
        assert_eq!(row[1], "credit", "injection column");
        let stall: f64 = row[15].parse().unwrap();
        let credit: f64 = row[16].parse().unwrap();
        assert!(stall > 0.0, "saturated credit gate must stall: {row:?}");
        assert!(credit > 0.0 && credit <= 1.0);
    }

    #[test]
    fn trace_scenario_replays_a_csv_file() {
        let path = std::env::temp_dir().join("onoc_exp_trace_scenario.csv");
        std::fs::write(
            &path,
            "cycle,src,dst,size\n0,0,3,256\n5,1,4,128\n9,0,3,256\n",
        )
        .unwrap();
        let spec = ScenarioSpec::builder("replay")
            .scale(Scale::Smoke)
            .workload(WorkloadSpec::Trace {
                path: path.to_string_lossy().into_owned(),
            })
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .build()
            .unwrap();
        let report = run_spec(&spec, 2).unwrap();
        let table = report.tables()[0];
        assert_eq!(table.rows()[0][2], "trace", "pattern column");
        assert_eq!(table.rows()[0][6], "3", "replayed message count");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_scenario_rejects_missing_and_oversized_traces() {
        let spec = ScenarioSpec::builder("missing")
            .workload(WorkloadSpec::Trace {
                path: "/nonexistent/trace.csv".into(),
            })
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .build()
            .unwrap();
        assert!(matches!(
            run_spec(&spec, 1).unwrap_err(),
            ScenarioError::Build {
                stage: "trace file",
                ..
            }
        ));

        let path = std::env::temp_dir().join("onoc_exp_trace_foreign.csv");
        std::fs::write(&path, "0,0,99,256\n").unwrap();
        let spec = ScenarioSpec::builder("foreign")
            .workload(WorkloadSpec::Trace {
                path: path.to_string_lossy().into_owned(),
            })
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .build()
            .unwrap();
        let err = run_spec(&spec, 1).unwrap_err();
        assert!(
            matches!(
                err,
                ScenarioError::Build {
                    stage: "trace file",
                    ..
                }
            ),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn relaxed_synthesis_reports_the_conflict_budget() {
        // The 1-λ hotspot set that is infeasible under first-fit (see
        // `infeasible_flow_synthesis_is_a_clean_error`) runs under the
        // relaxed policy and reports its predicted conflict budget.
        let spec = ScenarioSpec::builder("tight-relaxed")
            .scale(Scale::Smoke)
            .wavelengths(1)
            .workload(WorkloadSpec::Synthetic {
                pattern: TrafficPattern::Hotspot {
                    hotspots: vec![NodeId(0)],
                    fraction: 0.9,
                },
                injection_rate: 0.05,
                message_bits: 512.0,
                horizon: 5_000,
                burstiness: None,
            })
            .allocator(AllocatorSpec::FlowSynthesis {
                policy: FlowAllocPolicy::Relaxed,
                spares: 0,
            })
            .build()
            .unwrap();
        let report = run_spec(&spec, 2).unwrap();
        let rendered = report.render();
        assert!(
            rendered.contains("predicted conflict budget"),
            "allocation summary must name the budget"
        );
        assert!(rendered.contains("lane-sharing pair"), "{rendered}");
    }

    #[test]
    fn streaming_report_knob_runs_and_keeps_exact_metrics() {
        use crate::spec::ReportKind;
        let dynamic = ScenarioSpec::builder("streamed")
            .scale(Scale::Smoke)
            .workload(WorkloadSpec::Synthetic {
                pattern: TrafficPattern::UniformRandom,
                injection_rate: 0.05,
                message_bits: 256.0,
                horizon: 20_000,
                burstiness: None,
            })
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .build()
            .unwrap();
        // A striped map that retransmits and heals: every conflict of a
        // failed attempt or of a healed flow counts in both modes.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/scenario_healing.toml");
        let mut healing =
            ScenarioSpec::from_toml_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        healing.scale = Scale::Quick;
        for mut spec in [dynamic, healing] {
            spec.report = ReportKind::Full;
            let full = run_spec(&spec, 2).unwrap();
            spec.report = ReportKind::Streaming;
            let streaming = run_spec(&spec, 2).unwrap();
            let row = |r: &Report, col: &str| -> String {
                let t = *r.tables().last().unwrap();
                let idx = t.columns().iter().position(|c| c == col).unwrap();
                t.rows()[0][idx].clone()
            };
            // Exact metrics agree across modes; energy folds identically.
            for col in full.tables().last().unwrap().columns() {
                if !matches!(col.as_str(), "latency_p50" | "latency_p95" | "latency_p99") {
                    assert_eq!(
                        row(&full, col),
                        row(&streaming, col),
                        "{}: {col}",
                        spec.name
                    );
                }
            }
            // Quantiles may differ (nearest-rank within one log bin).
            let p99_full: f64 = row(&full, "latency_p99").parse().unwrap();
            let p99_stream: f64 = row(&streaming, "latency_p99").parse().unwrap();
            assert!(p99_stream <= p99_full + 1.0 && p99_full <= p99_stream * 1.125 + 1.0);
        }
    }

    #[test]
    fn captured_traces_replay_to_the_same_message_count() {
        // Capture a synthetic run's stream, feed it back through the
        // trace workload kind, and compare the scenario rows.
        let synthetic = ScenarioSpec::builder("origin")
            .scale(Scale::Smoke)
            .workload(WorkloadSpec::Synthetic {
                pattern: TrafficPattern::Transpose,
                injection_rate: 0.02,
                message_bits: 128.0,
                horizon: 10_000,
                burstiness: None,
            })
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .build()
            .unwrap();
        let csv = capture_trace(&synthetic).unwrap();
        let path = std::env::temp_dir().join("onoc_exp_capture_roundtrip.csv");
        std::fs::write(&path, &csv).unwrap();
        let replay = ScenarioSpec::builder("replay")
            .scale(Scale::Smoke)
            .workload(WorkloadSpec::Trace {
                path: path.to_string_lossy().into_owned(),
            })
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .build()
            .unwrap();
        let origin_report = run_spec(&synthetic, 2).unwrap();
        let replay_report = run_spec(&replay, 2).unwrap();
        let row = |r: &Report, col: &str| -> String {
            let t = *r.tables().last().unwrap();
            let idx = t.columns().iter().position(|c| c == col).unwrap();
            t.rows()[0][idx].clone()
        };
        for col in [
            "messages",
            "latency_mean",
            "latency_max",
            "energy_pj_per_bit",
        ] {
            assert_eq!(row(&origin_report, col), row(&replay_report, col), "{col}");
        }
        std::fs::remove_file(&path).ok();
        // Workloads without a message stream are a clean error.
        let err = capture_trace(&ScenarioSpec::builder("graph").build().unwrap()).unwrap_err();
        assert!(matches!(err, ScenarioError::Build { stage, .. } if stage == "trace capture"));
    }

    #[test]
    fn energy_overrides_change_the_artifact() {
        use crate::spec::EnergySpec;
        let base = ScenarioSpec::builder("base")
            .scale(Scale::Smoke)
            .workload(synthetic_uniform_small())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .build()
            .unwrap();
        let hot = ScenarioSpec::builder("hot")
            .scale(Scale::Smoke)
            .workload(synthetic_uniform_small())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .energy(EnergySpec {
                mr_tuning_mw: Some(1.0),
                ..EnergySpec::default()
            })
            .build()
            .unwrap();
        let col = |spec: &ScenarioSpec| -> f64 {
            let report = run_spec(spec, 2).unwrap();
            let t = *report.tables().last().unwrap();
            let idx = t
                .columns()
                .iter()
                .position(|c| c == "energy_pj_per_bit")
                .unwrap();
            t.rows()[0][idx].parse().unwrap()
        };
        let (base_pj, hot_pj) = (col(&base), col(&hot));
        assert!(base_pj > 0.0);
        assert!(
            hot_pj > base_pj * 5.0,
            "a 50× tuning override must dominate: {base_pj} vs {hot_pj}"
        );
    }

    fn synthetic_uniform_small() -> WorkloadSpec {
        WorkloadSpec::Synthetic {
            pattern: TrafficPattern::UniformRandom,
            injection_rate: 0.02,
            message_bits: 256.0,
            horizon: 10_000,
            burstiness: None,
        }
    }

    #[test]
    fn telemetry_artifacts_ride_on_stream_scenarios() {
        use crate::spec::TelemetrySpec;
        use crate::value::Value;
        let path = std::env::temp_dir().join("onoc_exp_chrome_trace.json");
        let spec = ScenarioSpec::builder("telemetered")
            .scale(Scale::Smoke)
            .workload(synthetic_uniform_small())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .telemetry(TelemetrySpec {
                window: Some(64),
                per_flow: Some(true),
                chrome_trace: Some(path.to_string_lossy().into_owned()),
            })
            .build()
            .unwrap();
        let report = run_spec(&spec, 2).unwrap();
        let names: Vec<&str> = report.tables().iter().map(|t| t.name()).collect();
        assert_eq!(
            names,
            vec!["scenario", "timeseries", "per_source", "per_flow_energy"]
        );

        // Golden header: downstream plots key on this exact column order.
        let find = |name: &str| *report.tables().iter().find(|t| t.name() == name).unwrap();
        let series = find("timeseries");
        assert_eq!(
            series.csv_header(),
            "window_start,offered,admitted,retired,retired_bits,accepted_bits_per_cycle,\
             stall_fraction,gate_held,queue_depth,in_flight,lane_utilization,\
             segment_utilization,ecn_marks,fairness,flow_fairness,failed,retx_bits,lost"
        );

        // The window series conserves the scenario row's message count.
        let scenario = find("scenario");
        let messages: u64 = scenario.rows()[0][6].parse().unwrap();
        let retired_col = series
            .columns()
            .iter()
            .position(|c| c == "retired")
            .unwrap();
        let retired: u64 = series
            .rows()
            .iter()
            .map(|r| r[retired_col].parse::<u64>().unwrap())
            .sum();
        assert_eq!(retired, messages);
        let per_source = find("per_source");
        let src_retired: u64 = per_source
            .rows()
            .iter()
            .map(|r| r[1].parse::<u64>().unwrap())
            .sum();
        assert_eq!(src_retired, messages);

        // The per-flow energy table conserves the scenario's pJ/bit.
        let per_flow = find("per_flow_energy");
        let total_col = per_flow
            .columns()
            .iter()
            .position(|c| c == "total_fj")
            .unwrap();
        let flow_fj: f64 = per_flow
            .rows()
            .iter()
            .map(|r| r[total_col].parse::<f64>().unwrap())
            .sum();
        let bits: f64 = per_flow
            .rows()
            .iter()
            .map(|r| r[3].parse::<f64>().unwrap())
            .sum();
        let pj_per_bit: f64 = scenario.rows()[0][19].parse().unwrap();
        let flow_pj_per_bit = flow_fj / 1e3 / bits;
        assert!(
            (flow_pj_per_bit - pj_per_bit).abs() < 1e-2,
            "per-flow total {flow_pj_per_bit} pJ/bit vs scenario {pj_per_bit}"
        );

        // The exported Chrome trace parses as JSON with one duration
        // event per retired message.
        let json = std::fs::read_to_string(&path).unwrap();
        let value = Value::parse_json(&json).unwrap();
        let events = value.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len() as u64, messages);
        assert!(
            events
                .iter()
                .all(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn telemetry_per_flow_knob_drops_the_flow_table() {
        use crate::spec::TelemetrySpec;
        let spec = ScenarioSpec::builder("lean")
            .scale(Scale::Smoke)
            .workload(synthetic_uniform_small())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .telemetry(TelemetrySpec {
                per_flow: Some(false),
                ..TelemetrySpec::default()
            })
            .build()
            .unwrap();
        let report = run_spec(&spec, 2).unwrap();
        let names: Vec<&str> = report.tables().iter().map(|t| t.name()).collect();
        assert_eq!(names, vec!["scenario", "timeseries", "per_source"]);
    }

    #[test]
    fn faulted_scenario_reports_reliability_columns_and_windows() {
        use crate::spec::{FaultSpec, TelemetrySpec, TransportSpec};
        let toml = r#"
name = "faulted"
seed = 9
scale = "smoke"

[workload]
kind = "synthetic"
pattern = "uniform"
injection_rate = 0.04
message_bits = 256.0
horizon = 30000

[allocator]
kind = "dynamic"
policy = "single"

[faults]
ber = 0.001

[transport]
mode = "gbn"

[telemetry]
window = 64
per_flow = false
"#;
        let spec = ScenarioSpec::from_toml_str(toml).unwrap();
        assert!(matches!(spec.faults, Some(FaultSpec { .. })));
        assert!(matches!(
            spec.transport,
            Some(TransportSpec::GoBackN { .. })
        ));
        assert!(matches!(
            spec.telemetry,
            Some(TelemetrySpec {
                window: Some(64),
                ..
            })
        ));
        let report = run_spec(&spec, 2).unwrap();
        let find = |name: &str| *report.tables().iter().find(|t| t.name() == name).unwrap();
        let scenario = find("scenario");
        let col = |name: &str| -> usize {
            scenario
                .columns()
                .iter()
                .position(|c| c == name)
                .unwrap_or_else(|| panic!("missing column {name}"))
        };
        let row = &scenario.rows()[0];
        let failed: u64 = row[col("failed_attempts")].parse().unwrap();
        let retx: f64 = row[col("retx_bits")].parse().unwrap();
        assert!(
            failed > 0,
            "a 1e-3 BER over 30k cycles must corrupt: {row:?}"
        );
        assert!(retx > 0.0, "go-back-N recovers by retransmitting: {row:?}");
        // The windowed series carries the same reliability totals.
        let series = find("timeseries");
        let fail_col = series.columns().iter().position(|c| c == "failed").unwrap();
        let window_failed: u64 = series
            .rows()
            .iter()
            .map(|r| r[fail_col].parse::<u64>().unwrap())
            .sum();
        assert_eq!(window_failed, failed, "windows conserve failed attempts");
        // The summary line names the transport.
        assert!(report.render().contains("under gbn transport"));
    }

    #[test]
    fn heuristic_and_striped_scenarios_run() {
        let heuristic = smoke(
            ScenarioSpec::builder("ff")
                .scale(Scale::Smoke)
                .allocator(AllocatorSpec::Heuristic {
                    kind: HeuristicKind::FirstFit,
                })
                .build()
                .unwrap(),
        );
        assert_eq!(heuristic.tables()[0].rows()[0][0], "first-fit");

        let striped = smoke(
            ScenarioSpec::builder("striped")
                .scale(Scale::Smoke)
                .wavelengths(16)
                .workload(WorkloadSpec::Synthetic {
                    pattern: TrafficPattern::NearestNeighbor,
                    injection_rate: 0.005,
                    message_bits: 128.0,
                    horizon: 4_000,
                    burstiness: None,
                })
                .allocator(AllocatorSpec::Striped { lanes_per_flow: 1 })
                .build()
                .unwrap(),
        );
        assert_eq!(striped.tables()[0].rows()[0][0], "static-striped");
    }
}
