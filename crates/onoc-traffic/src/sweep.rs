//! Scenario grids and the parallel saturation-sweep runner.
//!
//! A [`SweepGrid`] declares the cartesian product
//! `{pattern} × {injection rate} × {wavelength count} × {ring size}`;
//! [`run_sweep`] fans the scenarios out over a fixed-size pool of scoped
//! worker threads and collects one [`ScenarioResult`] per point, in grid
//! order.
//!
//! Determinism: each scenario's traffic seed derives from
//! `(grid seed, scenario index)` through the splittable
//! [`TrafficRng`], and results are written back by
//! scenario index — so the outcome is bit-identical for 1, 4 or 64
//! worker threads. The only thread-dependent value is the
//! [`SweepOutcome::workers_used`] head-count, run metadata that no
//! rendering prints.

use std::sync::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use onoc_sim::{
    AimdParams, DynamicPolicy, EnergyProbe, EnergyReport, FaultPlan, HealingConfig, InjectionMode,
    LatencyStats, OpenLoopSimulator, ReliabilityProbe, ReportMode, SimScratch, StaticFlowMap,
    TransportMode, WavelengthMode,
};
use onoc_topology::RingTopology;
use onoc_units::{Bits, BitsPerCycle};

use crate::pattern::TrafficPattern;
use crate::rng::TrafficRng;
use crate::trace::{OnOffConfig, TrafficConfig, generate};

/// Why a grid with `workers != 1` is rejected instead of run serially.
const SERIAL_CORE_ONLY: &str =
    "SweepGrid.workers must be 1: every scenario runs on the serial event core";

/// The declared sweep space.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Traffic patterns to sweep.
    pub patterns: Vec<TrafficPattern>,
    /// Mean messages per node per cycle, one scenario per value.
    pub injection_rates: Vec<f64>,
    /// Comb sizes to sweep.
    pub wavelengths: Vec<usize>,
    /// Ring sizes to sweep.
    pub ring_sizes: Vec<usize>,
    /// Message size shared by every scenario.
    pub message_volume: Bits,
    /// Injection window in cycles.
    pub horizon: u64,
    /// Master seed for the whole sweep.
    pub seed: u64,
    /// Per-wavelength data rate.
    pub lane_rate: BitsPerCycle,
    /// Runtime wavelength policy used by every scenario.
    pub policy: DynamicPolicy,
    /// Optional bursty ON-OFF injection (shared by every scenario).
    pub burstiness: Option<OnOffConfig>,
    /// Injection policy (open loop, credit-based or ECN closed loop)
    /// shared by every scenario.
    pub injection: InjectionMode,
    /// Optional energy model: when set, every scenario runs with an
    /// [`EnergyProbe`] attached and its result carries the folded
    /// energy-per-bit figures (0 otherwise).
    pub energy: Option<onoc_sim::EnergyModel>,
    /// Optional fault plan (lane outages, BER corruption) shared by
    /// every scenario.
    pub faults: Option<FaultPlan>,
    /// Reliable-transport recovery mode layered over the injection
    /// policy (defaults to no recovery).
    pub transport: TransportMode,
    /// Optional self-healing configuration shared by every scenario.
    /// Re-pack policies require [`SweepGrid::static_map`] (the engine
    /// asserts this); inert without [`SweepGrid::faults`].
    pub healing: Option<HealingConfig>,
    /// ECN AIMD pacing constants (only read in ECN injection mode).
    pub aimd: AimdParams,
    /// Must be 1. Each scenario runs on the one serial event core;
    /// parallelism is across scenarios (`run_sweep`'s `threads`). The
    /// field is kept only because the benchmark harness
    /// (`benchmark/src/traced.rs`) builds a `SweepGrid` literal with
    /// `workers: 1`; [`run_sweep`] and [`run_scenario_phased`] panic on
    /// any other value rather than run serially in silence.
    pub workers: usize,
    /// Optional static wavelength map shared by every scenario: when
    /// set, scenarios run in [`WavelengthMode::Static`] instead of the
    /// dynamic `policy`.
    pub static_map: Option<StaticFlowMap>,
}

impl SweepGrid {
    /// The default saturation study on the paper's 16-node ring: the
    /// four-pattern panel over seven injection rates at 8 wavelengths.
    #[must_use]
    pub fn saturation_default(seed: u64) -> Self {
        Self {
            patterns: TrafficPattern::panel(),
            injection_rates: vec![0.002, 0.005, 0.01, 0.02, 0.04, 0.08, 0.16],
            wavelengths: vec![8],
            ring_sizes: vec![16],
            message_volume: Bits::new(512.0),
            horizon: 20_000,
            seed,
            lane_rate: BitsPerCycle::new(1.0),
            policy: DynamicPolicy::Single,
            burstiness: None,
            injection: InjectionMode::Open,
            energy: None,
            faults: None,
            transport: TransportMode::None,
            healing: None,
            aimd: AimdParams::default(),
            workers: 1,
            static_map: None,
        }
    }

    /// Expands the grid into scenarios, slowest axis first:
    /// ring size → wavelengths → pattern → injection rate.
    #[must_use]
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        for &nodes in &self.ring_sizes {
            for &wavelengths in &self.wavelengths {
                for pattern in &self.patterns {
                    for &injection_rate in &self.injection_rates {
                        out.push(Scenario {
                            index: out.len(),
                            pattern: pattern.clone(),
                            injection_rate,
                            wavelengths,
                            nodes,
                        });
                    }
                }
            }
        }
        out
    }
}

/// One point of the sweep space.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Position in grid order (also the result slot and the seed salt).
    pub index: usize,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// Mean messages per node per cycle.
    pub injection_rate: f64,
    /// Comb size.
    pub wavelengths: usize,
    /// Ring size.
    pub nodes: usize,
}

/// Measured outcome of one scenario. Contains only seed-deterministic
/// values, so whole-sweep results compare with `==` across thread counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The scenario this result belongs to.
    pub scenario: Scenario,
    /// Messages the trace injected.
    pub injected: usize,
    /// Offered load in bits per cycle (whole ring).
    pub offered_load: f64,
    /// Accepted throughput in bits per cycle over the run.
    pub accepted_throughput: f64,
    /// End-to-end latency statistics.
    pub latency: LatencyStats,
    /// Messages that had to queue for wavelengths at least once.
    pub blocked: usize,
    /// Mean comb occupancy over the run.
    pub occupancy: f64,
    /// Mean cycles the closed-loop gate held messages at their source
    /// (0 in open-loop mode).
    pub stall_mean: f64,
    /// Time-averaged fraction of the credit windows in use (0 outside
    /// credit mode).
    pub credit_occupancy: f64,
    /// Energy per delivered bit in pJ (0 when the grid has no
    /// [`SweepGrid::energy`] model).
    pub energy_pj_per_bit: f64,
    /// Static (laser-on + MR tuning) share of the total energy in
    /// `[0, 1]` (0 without an energy model).
    pub energy_static_frac: f64,
    /// Attempts that failed and were retransmitted or lost (0 without
    /// faults).
    pub failed_attempts: usize,
    /// Messages permanently lost (retries exhausted or unrecoverable).
    pub lost: usize,
    /// Bits spent on failed attempts (wasted fabric traffic).
    pub retransmitted_bits: f64,
    /// Lane outages the run observed (scheduled, stochastic or
    /// quarantine; 0 without faults).
    pub outages: u64,
    /// Mid-run heals applied (0 without a re-pack healing policy).
    pub heals: u64,
    /// Median per-outage recovery latency in cycles (lane-down to
    /// goodput restored; 0 without outages).
    pub recovery_p50: f64,
    /// 95th-percentile recovery latency in cycles.
    pub recovery_p95: f64,
    /// 99th-percentile recovery latency in cycles (the SLO figure).
    pub recovery_p99: f64,
}

/// A finished sweep: per-scenario results in grid order plus parallelism
/// metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// One result per scenario, ordered by [`Scenario::index`].
    pub results: Vec<ScenarioResult>,
    /// Worker threads the pool was started with. Run metadata: no
    /// artifact or rendering prints it.
    pub threads: usize,
    /// Workers that actually processed at least one scenario
    /// (thread-schedule dependent). Run metadata: no artifact or
    /// rendering prints it, so they are identical for any thread count.
    pub workers_used: usize,
}

impl SweepOutcome {
    /// The CSV header matching [`SweepOutcome::to_csv`].
    pub const CSV_HEADER: &'static str = "pattern,nodes,wavelengths,injection_rate,\
        offered_bits_per_cycle,accepted_bits_per_cycle,messages,blocked,\
        latency_mean,latency_p50,latency_p95,latency_p99,latency_max,occupancy,\
        stall_mean,credit_occupancy,energy_pj_per_bit,energy_static_frac,\
        failed_attempts,lost,retx_bits,outages,heals,recovery_p50,\
        recovery_p95,recovery_p99";

    /// Renders every result as one CSV row (no header).
    #[must_use]
    pub fn to_csv(&self) -> Vec<String> {
        self.results
            .iter()
            .map(|r| {
                format!(
                    "{},{},{},{},{:.3},{:.3},{},{},{:.2},{:.2},{:.2},{:.2},{},{:.5},{:.2},{:.5},{:.4},{:.4},{},{},{:.1},{},{},{:.1},{:.1},{:.1}",
                    r.scenario.pattern.name(),
                    r.scenario.nodes,
                    r.scenario.wavelengths,
                    r.scenario.injection_rate,
                    r.offered_load,
                    r.accepted_throughput,
                    r.injected,
                    r.blocked,
                    r.latency.mean,
                    r.latency.p50,
                    r.latency.p95,
                    r.latency.p99,
                    r.latency.max,
                    r.occupancy,
                    r.stall_mean,
                    r.credit_occupancy,
                    r.energy_pj_per_bit,
                    r.energy_static_frac,
                    r.failed_attempts,
                    r.lost,
                    r.retransmitted_bits,
                    r.outages,
                    r.heals,
                    r.recovery_p50,
                    r.recovery_p95,
                    r.recovery_p99,
                )
            })
            .collect()
    }
}

/// Runs one scenario to completion (generation + open-loop simulation).
#[must_use]
pub fn run_scenario(grid: &SweepGrid, scenario: &Scenario) -> ScenarioResult {
    run_scenario_with(grid, scenario, &mut SimScratch::new())
}

/// Wall-clock phase split of one scenario run, in milliseconds: trace
/// setup (seed split + generation), the engine run, and the fold of the
/// run into a [`ScenarioResult`]. The bench harness accumulates these
/// across a grid's points so slowdowns are attributable to a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScenarioPhases {
    /// Trace-generation wall time.
    pub setup_ms: f64,
    /// Engine (simulation) wall time.
    pub simulate_ms: f64,
    /// Report-folding wall time.
    pub report_ms: f64,
}

impl ScenarioPhases {
    /// Adds another run's phase split into this one.
    pub fn accumulate(&mut self, other: ScenarioPhases) {
        self.setup_ms += other.setup_ms;
        self.simulate_ms += other.simulate_ms;
        self.report_ms += other.report_ms;
    }
}

#[allow(clippy::cast_precision_loss)]
fn elapsed_ms(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1e6
}

/// [`run_scenario`] with caller-provided reusable simulator buffers.
///
/// The sweep runs in the engine's streaming report mode: per-message
/// records are folded into log-scale histograms on the fly, so a
/// scenario's memory is `O(bins + sources + in-flight)` regardless of how
/// many messages it injects, and the latency quantiles in the result
/// follow the nearest-rank convention within one histogram bin
/// (≤ 12.5% relative) of exact. Count, mean, max, throughput, occupancy
/// and stall/credit integrals stay exact.
#[must_use]
pub fn run_scenario_with(
    grid: &SweepGrid,
    scenario: &Scenario,
    scratch: &mut SimScratch,
) -> ScenarioResult {
    run_scenario_phased(grid, scenario, scratch).0
}

/// [`run_scenario_with`] plus the wall-clock phase split of the run.
///
/// # Panics
///
/// Panics if `grid.workers != 1`.
#[must_use]
pub fn run_scenario_phased(
    grid: &SweepGrid,
    scenario: &Scenario,
    scratch: &mut SimScratch,
) -> (ScenarioResult, ScenarioPhases) {
    assert_eq!(grid.workers, 1, "{SERIAL_CORE_ONLY}");
    let setup_start = Instant::now();
    let seed = TrafficRng::new(grid.seed)
        .split(scenario.index as u64)
        .next_u64();
    let config = TrafficConfig {
        nodes: scenario.nodes,
        pattern: scenario.pattern.clone(),
        injection_rate: scenario.injection_rate,
        message_volume: grid.message_volume,
        horizon: grid.horizon,
        seed,
        burstiness: grid.burstiness.clone(),
    };
    let trace = generate(&config);
    let setup_ms = elapsed_ms(setup_start);
    let simulate_start = Instant::now();
    let mode = match &grid.static_map {
        Some(map) => WavelengthMode::Static(map.clone()),
        None => WavelengthMode::Dynamic(grid.policy),
    };
    let mut sim = OpenLoopSimulator::with_injection(
        RingTopology::new(scenario.nodes),
        scenario.wavelengths,
        grid.lane_rate,
        mode,
        grid.injection,
    )
    .with_transport(grid.transport)
    .with_aimd(grid.aimd);
    if let Some(plan) = &grid.faults {
        sim = sim.with_faults(plan.clone());
    }
    if let Some(healing) = grid.healing {
        sim = sim.with_healing(healing);
    }
    let sim = sim;
    scratch.set_flow_rows(Some(trace.flow_rows(scenario.nodes)));
    let mut rel = ReliabilityProbe::new(scenario.wavelengths);
    let (report, energy): (_, Option<EnergyReport>) = match &grid.energy {
        Some(model) => {
            let mut probe = EnergyProbe::new(model.clone(), scenario.nodes, scenario.wavelengths);
            let mut pair = (&mut probe, &mut rel);
            let report = sim
                .run_with_scratch_probed(trace.source(), scratch, ReportMode::Streaming, &mut pair)
                .expect("generated traces are ordered and non-degenerate");
            (report, Some(probe.report()))
        }
        None => (
            sim.run_with_scratch_probed(trace.source(), scratch, ReportMode::Streaming, &mut rel)
                .expect("generated traces are ordered and non-degenerate"),
            None,
        ),
    };
    let rel = rel.report();
    let simulate_ms = elapsed_ms(simulate_start);
    let report_start = Instant::now();
    let result = ScenarioResult {
        scenario: scenario.clone(),
        injected: trace.len(),
        offered_load: config.offered_load(),
        accepted_throughput: report.accepted_throughput(),
        latency: report.latency(),
        blocked: report.blocked_attempts,
        occupancy: report.mean_wavelength_occupancy(),
        stall_mean: report.stall().mean,
        credit_occupancy: report.credit_occupancy,
        energy_pj_per_bit: energy.as_ref().map_or(0.0, EnergyReport::pj_per_bit),
        energy_static_frac: energy.as_ref().map_or(0.0, EnergyReport::static_fraction),
        failed_attempts: report.failed_attempts,
        lost: report.lost_messages,
        retransmitted_bits: report.retransmitted_bits,
        outages: rel.outages,
        heals: rel.heals,
        recovery_p50: rel.outage_recovery.p50,
        recovery_p95: rel.outage_recovery.p95,
        recovery_p99: rel.outage_recovery.p99,
    };
    let phases = ScenarioPhases {
        setup_ms,
        simulate_ms,
        report_ms: elapsed_ms(report_start),
    };
    (result, phases)
}

/// Fans the grid out over `threads` scoped workers and gathers results in
/// grid order.
///
/// Workers pull scenario indices from a shared atomic counter, so load
/// balances itself; results land in their scenario's slot, so the output
/// is identical for any `threads ≥ 1`.
///
/// # Panics
///
/// Panics if `threads == 0`, if `grid.workers != 1`, or if a worker
/// panics (the panic is propagated).
#[must_use]
pub fn run_sweep(grid: &SweepGrid, threads: usize) -> SweepOutcome {
    assert!(threads > 0, "the sweep needs at least one worker thread");
    assert_eq!(grid.workers, 1, "{SERIAL_CORE_ONLY}");
    let scenarios = grid.scenarios();
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<ScenarioResult>>> = Mutex::new(vec![None; scenarios.len()]);
    let workers_used = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            handles.push(scope.spawn(|| {
                let mut did_work = false;
                // One reusable buffer set per worker: successive scenarios
                // run allocation-free once the buffers are warm.
                let mut scratch = SimScratch::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(scenario) = scenarios.get(index) else {
                        break;
                    };
                    let result = run_scenario_with(grid, scenario, &mut scratch);
                    slots.lock().expect("no worker panicked holding the lock")[index] =
                        Some(result);
                    did_work = true;
                }
                if did_work {
                    workers_used.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    let results = slots
        .into_inner()
        .expect("all workers joined")
        .into_iter()
        .map(|slot| slot.expect("every scenario index was claimed exactly once"))
        .collect();
    SweepOutcome {
        results,
        threads,
        workers_used: workers_used.into_inner(),
    }
}

/// Configuration of the adaptive sustained-knee search
/// (see [`find_sustained_knee`]).
#[derive(Debug, Clone, PartialEq)]
pub struct KneeSearchConfig {
    /// Accepted throughput within this fraction of the plateau counts as
    /// "at the knee" (matches the grid-mode experiment's 0.98).
    pub tolerance: f64,
    /// Lower end of the offered-rate bracket.
    pub rate_lo: f64,
    /// Upper end of the bracket; must be comfortably past saturation.
    pub rate_hi: f64,
    /// Bisection stops once the bracket's ratio `hi/lo` is below
    /// `1 + rate_resolution`.
    pub rate_resolution: f64,
}

impl Default for KneeSearchConfig {
    fn default() -> Self {
        Self {
            tolerance: 0.98,
            rate_lo: 0.001,
            rate_hi: 0.32,
            rate_resolution: 0.05,
        }
    }
}

/// Outcome of [`find_sustained_knee`].
#[derive(Debug, Clone, PartialEq)]
pub struct KneeResult {
    /// The sustained accepted-throughput plateau (bits per cycle).
    pub plateau: f64,
    /// Lowest probed offered rate whose accepted throughput reaches
    /// `tolerance × plateau`.
    pub knee_rate: f64,
    /// Offered load (bits per cycle) at the knee rate.
    pub knee_offered: f64,
    /// Simulation runs the search spent.
    pub evaluations: usize,
    /// Every probed `(rate, accepted throughput)`, in probe order.
    pub probes: Vec<(f64, f64)>,
}

/// Locates the sustained saturation knee of a (single-pattern,
/// single-comb, single-ring) grid by geometric bisection instead of a
/// fixed rate grid: `O(log(hi/lo) / log(1 + resolution))` simulation runs
/// to a configurable tolerance, versus one run per grid point.
///
/// The plateau is probed at `rate_hi` and `2 × rate_hi` (doubling once
/// more if throughput still grows by > 2%, so an undersized bracket is
/// corrected rather than silently accepted). The knee is the lowest rate
/// whose accepted throughput reaches `tolerance × plateau`; accepted
/// throughput is monotone in offered rate up to simulation noise, which
/// the bisection inherits from the grid mode anyway. Deterministic under
/// the grid seed.
///
/// # Panics
///
/// Panics if the grid has more than one pattern/comb/ring axis value, or
/// the bracket is degenerate.
#[must_use]
pub fn find_sustained_knee(grid: &SweepGrid, config: &KneeSearchConfig) -> KneeResult {
    assert_eq!(grid.patterns.len(), 1, "knee search needs one pattern");
    assert_eq!(grid.wavelengths.len(), 1, "knee search needs one comb");
    assert_eq!(grid.ring_sizes.len(), 1, "knee search needs one ring");
    assert!(
        config.rate_lo > 0.0 && config.rate_lo < config.rate_hi,
        "need 0 < rate_lo < rate_hi"
    );
    assert!(
        config.tolerance > 0.0 && config.tolerance <= 1.0,
        "tolerance must be in (0, 1]"
    );
    assert!(config.rate_resolution > 0.0, "resolution must be positive");

    let mut probes = Vec::new();
    let mut scratch = SimScratch::new();
    let mut probe = |rate: f64, probes: &mut Vec<(f64, f64)>| -> ScenarioResult {
        let point = SweepGrid {
            injection_rates: vec![rate],
            ..grid.clone()
        };
        let scenario = &point.scenarios()[0];
        let result = run_scenario_with(&point, scenario, &mut scratch);
        probes.push((rate, result.accepted_throughput));
        result
    };

    // Establish the plateau; double the upper bracket (up to four times)
    // while accepted throughput still climbs noticeably. `throughput_hi`
    // tracks f(hi) so the bisection invariant — the upper bracket meets
    // the target — holds even for tolerances close to 1.
    let mut hi = config.rate_hi;
    let mut throughput_hi = probe(hi, &mut probes).accepted_throughput;
    let mut plateau = throughput_hi;
    for _ in 0..4 {
        let doubled = probe(hi * 2.0, &mut probes).accepted_throughput;
        if doubled <= plateau * 1.02 {
            if doubled > plateau {
                plateau = doubled;
                if throughput_hi < config.tolerance * plateau {
                    // f(hi) no longer reaches the (raised) target; the
                    // doubled rate, which set the plateau, does.
                    hi *= 2.0;
                    throughput_hi = doubled;
                }
            }
            break;
        }
        hi *= 2.0;
        throughput_hi = doubled;
        plateau = doubled;
    }
    let target = config.tolerance * plateau;
    debug_assert!(
        throughput_hi >= target,
        "upper bracket must meet the knee target"
    );

    let mut lo = config.rate_lo;
    let lo_result = probe(lo, &mut probes);
    if lo_result.accepted_throughput >= target {
        // Already saturated at the bracket floor.
        return KneeResult {
            plateau,
            knee_rate: lo,
            knee_offered: lo_result.offered_load,
            evaluations: probes.len(),
            probes,
        };
    }
    while hi / lo > 1.0 + config.rate_resolution {
        let mid = (lo * hi).sqrt();
        if probe(mid, &mut probes).accepted_throughput >= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    // Offered load is analytic (rate × nodes × message volume), so the
    // knee's offered point needs no extra simulation run.
    #[allow(clippy::cast_precision_loss)]
    let knee_offered = hi * grid.ring_sizes[0] as f64 * grid.message_volume.value();
    KneeResult {
        plateau,
        knee_rate: hi,
        knee_offered,
        evaluations: probes.len(),
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> SweepGrid {
        SweepGrid {
            patterns: vec![TrafficPattern::UniformRandom, TrafficPattern::Transpose],
            injection_rates: vec![0.005, 0.02],
            wavelengths: vec![4],
            ring_sizes: vec![8, 16],
            message_volume: Bits::new(256.0),
            horizon: 2_000,
            seed: 99,
            lane_rate: BitsPerCycle::new(1.0),
            policy: DynamicPolicy::Single,
            burstiness: None,
            injection: InjectionMode::Open,
            energy: None,
            faults: None,
            transport: TransportMode::None,
            healing: None,
            aimd: AimdParams::default(),
            workers: 1,
            static_map: None,
        }
    }

    #[test]
    fn grid_expansion_order_and_indices() {
        let scenarios = tiny_grid().scenarios();
        assert_eq!(scenarios.len(), 8);
        for (i, s) in scenarios.iter().enumerate() {
            assert_eq!(s.index, i);
        }
        // Slowest axis is ring size.
        assert!(scenarios[..4].iter().all(|s| s.nodes == 8));
        assert!(scenarios[4..].iter().all(|s| s.nodes == 16));
    }

    #[test]
    fn sweep_is_identical_across_thread_counts() {
        let grid = tiny_grid();
        let one = run_sweep(&grid, 1);
        let four = run_sweep(&grid, 4);
        assert_eq!(one.results, four.results);
        assert_eq!(one.results.len(), 8);
    }

    #[test]
    fn multiple_workers_participate() {
        // 8 scenarios over 4 workers: with work-stealing via the shared
        // counter, at least two workers get a scenario in practice. The
        // assertion is intentionally weak (≥ 1) plus a sanity ceiling —
        // scheduling can in principle let one worker drain the queue.
        let outcome = run_sweep(&tiny_grid(), 4);
        assert!(outcome.workers_used >= 1 && outcome.workers_used <= 4);
        assert_eq!(outcome.threads, 4);
    }

    #[test]
    #[should_panic(expected = "SweepGrid.workers must be 1")]
    fn grid_workers_other_than_one_is_rejected() {
        let grid = SweepGrid {
            workers: 2,
            ..tiny_grid()
        };
        let _ = run_sweep(&grid, 1);
    }

    #[test]
    fn latency_grows_towards_saturation() {
        let grid = SweepGrid {
            patterns: vec![TrafficPattern::UniformRandom],
            injection_rates: vec![0.002, 0.2],
            wavelengths: vec![2],
            ring_sizes: vec![16],
            horizon: 5_000,
            ..tiny_grid()
        };
        let outcome = run_sweep(&grid, 2);
        let low = &outcome.results[0];
        let high = &outcome.results[1];
        assert!(
            high.latency.mean > 2.0 * low.latency.mean,
            "saturated mean {} vs unloaded mean {}",
            high.latency.mean,
            low.latency.mean
        );
        assert!(high.blocked > low.blocked);
    }

    #[test]
    fn closed_loop_sweep_is_thread_deterministic_and_reports_backpressure() {
        let grid = SweepGrid {
            injection: InjectionMode::Credit { window: 2 },
            injection_rates: vec![0.002, 0.2],
            wavelengths: vec![2],
            ring_sizes: vec![16],
            horizon: 4_000,
            ..tiny_grid()
        };
        let one = run_sweep(&grid, 1);
        let four = run_sweep(&grid, 4);
        assert_eq!(one.results, four.results);
        // Past saturation the credit gate stalls sources and the credit
        // windows fill up; below it they barely register. (Grid order:
        // uniform @ {0.002, 0.2}, then transpose @ {0.002, 0.2}; at 256
        // bits per message a 16-node 2-λ ring saturates near rate 0.004.)
        let (low, high) = (&one.results[0], &one.results[1]);
        assert!(high.stall_mean > low.stall_mean);
        assert!(high.credit_occupancy > low.credit_occupancy);
        assert!(high.credit_occupancy <= 1.0 + 1e-9);
    }

    #[test]
    fn credit_sweep_accepted_throughput_plateaus_where_open_loop_queues() {
        let base = SweepGrid {
            patterns: vec![TrafficPattern::UniformRandom],
            injection_rates: vec![0.08, 0.32],
            wavelengths: vec![1],
            ring_sizes: vec![16],
            horizon: 5_000,
            ..tiny_grid()
        };
        let credit = SweepGrid {
            injection: InjectionMode::Credit { window: 1 },
            ..base.clone()
        };
        let open = run_sweep(&base, 2);
        let closed = run_sweep(&credit, 2);
        // Both operating points are past the 1-λ knee: the closed loop
        // sustains (near-)identical accepted throughput at 4× the offered
        // load instead of just queueing deeper.
        let ratio = closed.results[1].accepted_throughput / closed.results[0].accepted_throughput;
        assert!(
            (0.85..=1.15).contains(&ratio),
            "sustained knee must plateau, got ratio {ratio}"
        );
        // And the closed loop's end-to-end latency stays bounded by the
        // stall-aware admission rather than exploding NI queues.
        assert!(closed.results[1].stall_mean > 0.0);
        assert!(open.results[1].latency.mean > closed.results[1].latency.mean / 10.0);
    }

    #[test]
    fn csv_rows_are_well_formed() {
        let outcome = run_sweep(&tiny_grid(), 2);
        let rows = outcome.to_csv();
        assert_eq!(rows.len(), 8);
        let columns = SweepOutcome::CSV_HEADER.split(',').count();
        for row in &rows {
            assert_eq!(row.split(',').count(), columns, "row {row}");
        }
    }

    #[test]
    fn fault_sweep_populates_reliability_columns_and_is_deterministic() {
        let grid = SweepGrid {
            faults: Some(FaultPlan::new(7).with_ber(1e-3)),
            transport: TransportMode::go_back_n(),
            patterns: vec![TrafficPattern::UniformRandom],
            injection_rates: vec![0.01, 0.04],
            wavelengths: vec![2],
            ring_sizes: vec![16],
            horizon: 3_000,
            ..tiny_grid()
        };
        let one = run_sweep(&grid, 1);
        let four = run_sweep(&grid, 4);
        assert_eq!(one.results, four.results, "fault runs replay exactly");
        // At BER 1e-3 and 256-bit messages roughly a fifth of attempts
        // corrupt, so the grid sees retransmissions somewhere.
        assert!(one.results.iter().any(|r| r.failed_attempts > 0));
        for r in &one.results {
            assert_eq!(r.failed_attempts == 0, r.retransmitted_bits == 0.0, "{r:?}");
        }
        // A vacuous plan with no transport leaves the sweep bit-identical
        // to the plain grid.
        let vacuous = SweepGrid {
            faults: Some(FaultPlan::new(3)),
            ..tiny_grid()
        };
        assert_eq!(
            run_sweep(&vacuous, 2).results,
            run_sweep(&tiny_grid(), 2).results
        );
    }

    #[test]
    fn healing_sweep_populates_recovery_columns_and_beats_parking() {
        use onoc_sim::{HealPolicy, LaneFault};
        let grid = |policy: HealPolicy| SweepGrid {
            static_map: Some(StaticFlowMap::striped(16, 4, 1)),
            faults: Some(FaultPlan::new(5).with_scheduled(LaneFault {
                lane: 0,
                at: 500,
                duration: u64::MAX,
            })),
            healing: Some(HealingConfig {
                policy,
                ber_threshold: None,
            }),
            patterns: vec![TrafficPattern::UniformRandom],
            injection_rates: vec![0.02],
            wavelengths: vec![4],
            ring_sizes: vec![16],
            horizon: 4_000,
            ..tiny_grid()
        };
        let park = run_sweep(&grid(HealPolicy::Park), 2);
        let repack = run_sweep(&grid(HealPolicy::RePackRelaxed), 2);
        let (p, r) = (&park.results[0], &repack.results[0]);
        // Both observe the outage; only the re-pack heals, and its
        // recovery latency is the finite heal delay rather than the
        // horizon-censored park figure.
        assert_eq!(p.outages, 1);
        assert_eq!(r.outages, 1);
        assert_eq!(p.heals, 0);
        assert_eq!(r.heals, 1);
        assert!(r.recovery_p99 <= p.recovery_p99);
        assert!(
            r.accepted_throughput > p.accepted_throughput,
            "re-pack throughput {} must beat park {}",
            r.accepted_throughput,
            p.accepted_throughput
        );
        assert!(r.lost < p.lost);
        // The healing sweep replays across thread counts.
        assert_eq!(
            run_sweep(&grid(HealPolicy::RePackRelaxed), 1).results,
            repack.results
        );
    }

    #[test]
    fn energy_model_populates_the_energy_columns_deterministically() {
        use onoc_sim::EnergyModel;
        let grid = SweepGrid {
            energy: Some(EnergyModel::paper(16, 4)),
            patterns: vec![TrafficPattern::UniformRandom],
            injection_rates: vec![0.005, 0.04],
            wavelengths: vec![4],
            ring_sizes: vec![16],
            horizon: 3_000,
            ..tiny_grid()
        };
        let one = run_sweep(&grid, 1);
        let four = run_sweep(&grid, 4);
        assert_eq!(one.results, four.results, "energy folding is deterministic");
        for r in &one.results {
            assert!(r.energy_pj_per_bit > 0.0, "{r:?}");
            assert!(
                r.energy_static_frac > 0.0 && r.energy_static_frac < 1.0,
                "{r:?}"
            );
        }
        // Higher load amortises the always-on MR tuning power over more
        // bits: energy per bit drops as offered load grows.
        assert!(
            one.results[1].energy_pj_per_bit < one.results[0].energy_pj_per_bit,
            "pJ/bit must fall with load: {} vs {}",
            one.results[1].energy_pj_per_bit,
            one.results[0].energy_pj_per_bit
        );
        // Without a model the columns are exact zeroes and the rest of
        // the result is unchanged.
        let plain = run_sweep(
            &SweepGrid {
                energy: None,
                ..grid
            },
            2,
        );
        for (e, p) in one.results.iter().zip(&plain.results) {
            assert_eq!(p.energy_pj_per_bit, 0.0);
            assert_eq!(p.energy_static_frac, 0.0);
            assert_eq!(e.latency, p.latency, "probes must not change results");
            assert_eq!(e.accepted_throughput, p.accepted_throughput);
        }
    }

    #[test]
    fn scenario_seeds_differ_per_index() {
        let grid = tiny_grid();
        let scenarios = grid.scenarios();
        let a = run_scenario(&grid, &scenarios[0]);
        let b = run_scenario(&grid, &scenarios[1]);
        // Same pattern family, different rate AND different derived seed.
        assert_ne!(a.injected, 0);
        assert_ne!(a.latency, b.latency);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = run_sweep(&tiny_grid(), 0);
    }

    // ------------------------------------------------- knee search --

    fn knee_grid(window: usize) -> SweepGrid {
        SweepGrid {
            patterns: vec![TrafficPattern::UniformRandom],
            injection_rates: vec![],
            wavelengths: vec![1],
            ring_sizes: vec![16],
            message_volume: Bits::new(256.0),
            horizon: 4_000,
            seed: 2017,
            lane_rate: BitsPerCycle::new(1.0),
            policy: DynamicPolicy::Single,
            burstiness: None,
            injection: InjectionMode::Credit { window },
            energy: None,
            faults: None,
            transport: TransportMode::None,
            healing: None,
            aimd: AimdParams::default(),
            workers: 1,
            static_map: None,
        }
    }

    #[test]
    fn knee_search_brackets_the_grid_mode_knee() {
        let grid = knee_grid(2);
        let config = KneeSearchConfig::default();
        let knee = find_sustained_knee(&grid, &config);
        // The plateau is a real operating point, the knee sits inside
        // the bracket, and its throughput is within tolerance of it.
        assert!(knee.plateau > 0.0);
        assert!(knee.knee_rate >= config.rate_lo && knee.knee_rate <= config.rate_hi * 16.0);
        let (_, at_knee) = *knee
            .probes
            .iter()
            .rfind(|&&(r, _)| (r - knee.knee_rate).abs() < 1e-12)
            .expect("knee rate was probed");
        assert!(at_knee >= config.tolerance * knee.plateau * 0.999);
        // O(log) evaluations: a 0.001..0.32 bracket at 5% resolution is
        // ~120 grid points; the search spends far fewer runs.
        assert!(
            knee.evaluations <= 2 + 4 + 120,
            "evaluations {}",
            knee.evaluations
        );
        assert!(knee.evaluations < 130);
        assert_eq!(knee.evaluations, knee.probes.len());
    }

    #[test]
    fn knee_search_is_deterministic_and_logarithmic() {
        let grid = knee_grid(2);
        let config = KneeSearchConfig {
            rate_resolution: 0.10,
            ..KneeSearchConfig::default()
        };
        let a = find_sustained_knee(&grid, &config);
        let b = find_sustained_knee(&grid, &config);
        assert_eq!(a, b, "pure function of grid + config");
        // log(320)/log(1.1) ≈ 61 bisection steps worst case; the real
        // count also includes the plateau and floor probes.
        assert!(a.evaluations <= 70, "evaluations {}", a.evaluations);
    }

    #[test]
    fn knee_search_saturated_floor_short_circuits() {
        // With a bracket floor already past saturation the knee is the
        // floor and the search stops after the plateau + floor probes.
        let grid = knee_grid(1);
        let config = KneeSearchConfig {
            rate_lo: 0.16,
            rate_hi: 0.32,
            ..KneeSearchConfig::default()
        };
        let knee = find_sustained_knee(&grid, &config);
        assert_eq!(knee.knee_rate, 0.16);
        assert!(knee.evaluations <= 6, "evaluations {}", knee.evaluations);
    }

    #[test]
    #[should_panic(expected = "one pattern")]
    fn knee_search_rejects_multi_axis_grids() {
        let grid = SweepGrid {
            patterns: vec![TrafficPattern::UniformRandom, TrafficPattern::Transpose],
            ..knee_grid(2)
        };
        let _ = find_sustained_knee(&grid, &KneeSearchConfig::default());
    }
}
