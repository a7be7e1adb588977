//! The tracked simulation-core benchmark: a pinned scenario set whose
//! wall time and peak RSS are written to `BENCH_sim_core.json`, so every
//! commit has a perf trajectory to compare against.
//!
//! The pinned set covers the hot paths the paper's sweeps exercise:
//! the headline *saturation sweep* (the full rate ramp on uniform
//! traffic, at paper scale and at the 32-node "beyond paper" scale), and
//! a matrix of injection policy × pattern × comb size scenarios
//! (open/credit/ECN × uniform/hotspot × 4/8 λ), plus one online-serve
//! scenario timing the allocation service's incremental grant/release
//! loop. All scenarios run single-threaded, so wall times measure the
//! engine, not the thread pool.
//!
//! `check_regressions` compares a fresh run against a committed baseline
//! file and reports every scenario that slowed down by more than the
//! given factor — CI runs the quick tier against the committed
//! `BENCH_sim_core.json` and fails on a >2× regression.

use std::time::Instant;

use onoc_photonics::WavelengthId;
use onoc_sim::{
    AimdParams, DynamicPolicy, EnergyModel, FaultPlan, HealPolicy, HealingConfig, InjectionMode,
    LaneFault, SimScratch, StaticFlowMap, TransportMode,
};
use onoc_topology::NodeId;
use onoc_traffic::{ScenarioPhases, SweepGrid, TrafficPattern, run_scenario_phased};
use onoc_units::{Bits, BitsPerCycle};

use crate::diff::values_agree;
use crate::value::Value;

/// Schema tag written into the JSON artifact.
pub const BENCH_SCHEMA: &str = "onoc-bench/v1";

/// Default artifact path, relative to the repository root.
pub const BENCH_DEFAULT_PATH: &str = "BENCH_sim_core.json";

/// The workload behind one pinned scenario: most time the streaming
/// sweep engine over a grid; the online-serve scenario times the
/// incremental grant/release loop instead.
#[derive(Debug, Clone)]
pub enum BenchWork {
    /// A streaming sweep over the grid's points (boxed: a grid is an
    /// order of magnitude larger than the serve pair).
    Sweep(Box<SweepGrid>),
    /// An online allocation-service replay: seeded Poisson churn driven
    /// through the occupancy ledger.
    Serve {
        /// The service-loop configuration.
        config: onoc_serve::ServiceConfig,
        /// The seeded session churn the loop replays.
        churn: onoc_serve::PoissonWorkload,
    },
}

/// One pinned benchmark scenario: a named workload.
#[derive(Debug, Clone)]
pub struct BenchScenario {
    /// Stable scenario id (baseline comparisons key on it).
    pub name: String,
    /// The workload this scenario times.
    pub work: BenchWork,
}

impl BenchScenario {
    /// The sweep grid behind a sweep scenario (`None` for the serve
    /// scenario).
    #[must_use]
    pub fn grid(&self) -> Option<&SweepGrid> {
        match &self.work {
            BenchWork::Sweep(grid) => Some(grid),
            BenchWork::Serve { .. } => None,
        }
    }
}

/// Measured outcome of one pinned scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Scenario id.
    pub name: String,
    /// Wall time of the sweep (generation + simulation), single-threaded.
    pub wall_ms: f64,
    /// Process peak RSS (`VmHWM`) after the scenario, in kB. Monotone
    /// over the process lifetime, so it attributes the high-water mark,
    /// not per-scenario usage; 0 when the platform does not expose it.
    pub peak_rss_kb: u64,
    /// Messages injected across the sweep's points.
    pub messages: usize,
    /// Sweep points in the scenario.
    pub points: usize,
    /// Mean energy per delivered bit over the sweep's points, in pJ
    /// (every pinned grid carries the paper energy model), recorded
    /// beside wall time so the perf *and* energy trajectories are
    /// plottable across commits.
    pub pj_per_bit: f64,
    /// Trace-generation wall time summed over the scenario's points.
    pub setup_ms: f64,
    /// Engine wall time summed over the scenario's points.
    pub simulate_ms: f64,
    /// Report-folding wall time summed over the scenario's points.
    pub report_ms: f64,
}

/// The pinned scenario set. `quick` divides horizons by 10 for CI smoke
/// runs; scenario names are tier-independent so a quick run compares
/// against a quick baseline.
#[must_use]
pub fn pinned_scenarios(quick: bool) -> Vec<BenchScenario> {
    let scale = |horizon: u64| if quick { horizon / 10 } else { horizon };
    let ramp = vec![0.002, 0.005, 0.01, 0.02, 0.04, 0.08, 0.16];
    let base = SweepGrid {
        patterns: vec![TrafficPattern::UniformRandom],
        injection_rates: ramp.clone(),
        wavelengths: vec![8],
        ring_sizes: vec![16],
        message_volume: Bits::new(512.0),
        horizon: scale(100_000),
        seed: 2017,
        lane_rate: BitsPerCycle::new(1.0),
        policy: DynamicPolicy::Single,
        burstiness: None,
        injection: InjectionMode::Open,
        energy: Some(EnergyModel::paper(16, 8)),
        faults: None,
        transport: TransportMode::None,
        healing: None,
        aimd: AimdParams::default(),
        workers: 1,
        static_map: None,
    };
    let mut out = vec![
        // The headline saturation sweeps: paper scale and beyond.
        BenchScenario {
            name: "saturation-sweep-16n".into(),
            work: BenchWork::Sweep(Box::new(base.clone())),
        },
        BenchScenario {
            name: "saturation-sweep-32n".into(),
            work: BenchWork::Sweep(Box::new(SweepGrid {
                ring_sizes: vec![32],
                energy: Some(EnergyModel::paper(32, 8)),
                ..base.clone()
            })),
        },
    ];
    // The injection × pattern × comb matrix at paper scale.
    let hotspot = TrafficPattern::Hotspot {
        hotspots: vec![NodeId(0)],
        fraction: 0.5,
    };
    for (inj_name, injection) in [
        ("open", InjectionMode::Open),
        ("credit4", InjectionMode::Credit { window: 4 }),
        ("ecn", InjectionMode::Ecn { threshold: 0.2 }),
    ] {
        for (pat_name, pattern) in [
            ("uniform", TrafficPattern::UniformRandom),
            ("hotspot", hotspot.clone()),
        ] {
            for wavelengths in [4usize, 8] {
                out.push(BenchScenario {
                    name: format!("{inj_name}-{pat_name}-{wavelengths}l"),
                    work: BenchWork::Sweep(Box::new(SweepGrid {
                        patterns: vec![pattern.clone()],
                        injection_rates: vec![0.01, 0.04],
                        wavelengths: vec![wavelengths],
                        horizon: scale(40_000),
                        injection,
                        ..base.clone()
                    })),
                });
            }
        }
    }
    // The reliability scenario: BER-driven corruption recovered by
    // go-back-N, so the fault/transport hot path has its own tracked
    // wall-time and energy trajectory (retransmitted bits burn pJ).
    out.push(BenchScenario {
        name: "gbn-fault-8l".into(),
        work: BenchWork::Sweep(Box::new(SweepGrid {
            injection_rates: vec![0.01, 0.04],
            horizon: scale(40_000),
            faults: Some(FaultPlan::new(2017).with_ber(1e-4)),
            transport: TransportMode::go_back_n(),
            ..base.clone()
        })),
    });
    // The self-healing scenario: a permanent mid-run lane outage on a
    // striped static map, healed by the relaxed re-pack — tracks the
    // quiesce/re-synthesise/swap path (and its recovery-latency probes)
    // as its own wall-time record.
    out.push(BenchScenario {
        name: "heal-perm-fault".into(),
        work: BenchWork::Sweep(Box::new(SweepGrid {
            injection_rates: vec![0.04],
            horizon: scale(40_000),
            faults: Some(FaultPlan::new(2017).with_scheduled(LaneFault {
                lane: 0,
                at: scale(40_000) / 4,
                duration: u64::MAX,
            })),
            transport: TransportMode::go_back_n(),
            healing: Some(HealingConfig {
                policy: HealPolicy::RePackRelaxed,
                ber_threshold: None,
            }),
            static_map: Some(StaticFlowMap::striped(16, 8, 1)),
            ..base.clone()
        })),
    });
    // The scale scenario: one 256-node tornado run in static wavelength
    // mode.
    out.push(BenchScenario {
        name: "serial-256n".into(),
        work: BenchWork::Sweep(Box::new(SweepGrid {
            patterns: vec![TrafficPattern::Tornado],
            injection_rates: vec![0.02],
            wavelengths: vec![128],
            ring_sizes: vec![256],
            horizon: scale(20_000),
            energy: Some(EnergyModel::paper(256, 128)),
            static_map: Some(source_striped_map(256, 128)),
            ..base
        })),
    });
    // The online-serve scenario: the incremental grant/release loop of
    // the allocation service under seeded Poisson churn on the paper
    // point, threshold defrag armed. No energy model folds here, so its
    // pj_per_bit records 0 and the energy gate skips it; the tracked
    // number is the ledger's wall time per session stream.
    out.push(BenchScenario {
        name: "online-serve-8l".into(),
        work: BenchWork::Serve {
            config: onoc_serve::ServiceConfig {
                nodes: 16,
                wavelengths: 8,
                policy: onoc_wa::GrantPolicy::Disjoint,
                defrag: onoc_serve::DefragPolicy::OnThreshold { min_free_run: 0.25 },
                max_wait: Some(5_000),
            },
            churn: onoc_serve::PoissonWorkload {
                nodes: 16,
                sessions: if quick { 2_000 } else { 20_000 },
                arrival_rate: 0.02,
                mean_hold: 400.0,
                max_demand: 3,
                seed: 2017,
            },
        },
    });
    out
}

/// The explicit single-lane static map behind the 256-node scenario:
/// every flow out of `src` owns lane `src % wavelengths`. Under the
/// tornado pattern (⌈n/2⌉ − 1 hops) the two sources sharing a lane sit
/// half a ring apart, so their paths never meet on a directed segment —
/// the map is conflict-free without any contended slots to track.
fn source_striped_map(nodes: usize, wavelengths: usize) -> StaticFlowMap {
    let mut lanes = vec![Vec::new(); nodes * nodes];
    for src in 0..nodes {
        for dst in 0..nodes {
            if src != dst {
                lanes[src * nodes + dst] = vec![WavelengthId(src % wavelengths)];
            }
        }
    }
    StaticFlowMap::from_table(nodes, wavelengths, lanes)
}

/// Peak resident-set size of this process in kB (`VmHWM` from
/// `/proc/self/status`), or 0 where unavailable.
#[must_use]
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.split_whitespace()
                .next()
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .unwrap_or(0)
}

/// Runs every pinned scenario single-threaded and returns the records in
/// pinned order.
///
/// A sweep scenario's points run through
/// [`run_scenario_phased`] on one reusable scratch, so the record carries
/// the setup/simulate/report wall split beside the total — a slowdown in
/// the tracked trajectory is attributable to trace generation, the
/// engine, or the fold without a profiler. The serve scenario splits the
/// same way: workload generation is `setup_ms`, the grant/release loop
/// is `simulate_ms`.
#[must_use]
pub fn run_bench(quick: bool) -> Vec<BenchRecord> {
    pinned_scenarios(quick)
        .into_iter()
        .map(|scenario| match scenario.work {
            BenchWork::Sweep(grid) => run_sweep_record(scenario.name, &grid),
            BenchWork::Serve { config, churn } => run_serve_record(scenario.name, &config, &churn),
        })
        .collect()
}

fn run_sweep_record(name: String, grid: &SweepGrid) -> BenchRecord {
    let points = grid.scenarios();
    let mut scratch = SimScratch::new();
    let mut phases = ScenarioPhases::default();
    let mut results = Vec::with_capacity(points.len());
    let start = Instant::now();
    for point in &points {
        let (result, split) = run_scenario_phased(grid, point, &mut scratch);
        phases.accumulate(split);
        results.push(result);
    }
    let wall = start.elapsed();
    #[allow(clippy::cast_precision_loss)]
    let pj_per_bit = if results.is_empty() {
        0.0
    } else {
        results.iter().map(|r| r.energy_pj_per_bit).sum::<f64>() / results.len() as f64
    };
    BenchRecord {
        name,
        #[allow(clippy::cast_precision_loss)]
        wall_ms: wall.as_nanos() as f64 / 1e6,
        peak_rss_kb: peak_rss_kb(),
        messages: results.iter().map(|r| r.injected).sum(),
        points: results.len(),
        pj_per_bit,
        setup_ms: phases.setup_ms,
        simulate_ms: phases.simulate_ms,
        report_ms: phases.report_ms,
    }
}

fn run_serve_record(
    name: String,
    config: &onoc_serve::ServiceConfig,
    churn: &onoc_serve::PoissonWorkload,
) -> BenchRecord {
    let ms = |d: std::time::Duration| {
        #[allow(clippy::cast_precision_loss)]
        let ms = d.as_nanos() as f64 / 1e6;
        ms
    };
    let start = Instant::now();
    let requests = churn.generate();
    let setup = start.elapsed();
    let sim_start = Instant::now();
    let outcome = onoc_serve::serve(config, &requests, &mut onoc_sim::NullProbe)
        .expect("pinned serve scenarios are valid by construction");
    let simulate = sim_start.elapsed();
    BenchRecord {
        name,
        wall_ms: ms(start.elapsed()),
        peak_rss_kb: peak_rss_kb(),
        messages: outcome.report.offered,
        points: 1,
        // No energy model folds over grants; 0 exempts the scenario from
        // the pJ/bit gate by design.
        pj_per_bit: 0.0,
        setup_ms: ms(setup),
        simulate_ms: ms(simulate),
        report_ms: 0.0,
    }
}

/// The document form of one record — the single field list shared by
/// [`render_json`] and [`history_line`].
fn record_value(r: &BenchRecord) -> Value {
    let mut row = Value::table();
    row.insert("name", r.name.clone());
    row.insert("wall_ms", (r.wall_ms * 1000.0).round() / 1000.0);
    row.insert("peak_rss_kb", r.peak_rss_kb);
    row.insert("messages", r.messages);
    row.insert("points", r.points);
    row.insert("pj_per_bit", (r.pj_per_bit * 10_000.0).round() / 10_000.0);
    let ms = |v: f64| (v * 1000.0).round() / 1000.0;
    row.insert("setup_ms", ms(r.setup_ms));
    row.insert("simulate_ms", ms(r.simulate_ms));
    row.insert("report_ms", ms(r.report_ms));
    row
}

/// Renders records as the `BENCH_sim_core.json` document.
#[must_use]
pub fn render_json(records: &[BenchRecord], quick: bool) -> String {
    let mut doc = Value::table();
    doc.insert("schema", BENCH_SCHEMA);
    doc.insert("tier", if quick { "quick" } else { "full" });
    doc.insert(
        "scenarios",
        Value::Array(records.iter().map(record_value).collect()),
    );
    doc.to_json()
}

/// Schema tag of one bench-history JSONL record.
pub const BENCH_HISTORY_SCHEMA: &str = "onoc-bench-history/v1";

/// Renders one single-line JSON record for the append-only bench history
/// (`onoc bench --append-history BENCH_history.jsonl`): the caller's
/// timestamp plus every scenario's wall time and pJ/bit, so the perf and
/// energy trajectories are plottable across commits with one file.
#[must_use]
pub fn history_line(records: &[BenchRecord], quick: bool, unix_ms: u64) -> String {
    let mut doc = Value::table();
    doc.insert("schema", BENCH_HISTORY_SCHEMA);
    doc.insert("unix_ms", unix_ms);
    doc.insert("tier", if quick { "quick" } else { "full" });
    // Wall times only compare across commits on like hosts, so every
    // history record names its host's core count.
    doc.insert(
        "host_cores",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
    );
    doc.insert(
        "scenarios",
        Value::Array(records.iter().map(record_value).collect()),
    );
    doc.to_json_compact()
}

/// Scenarios faster than this in the baseline are exempt from the
/// regression gate: a 2 ms measurement doubles from scheduler noise
/// alone, and the headline scenarios (tens of ms even at the quick tier)
/// are the ones worth gating.
pub const MIN_GATE_MS: f64 = 10.0;

/// Allowed relative drift of a scenario's mean pJ/bit against the
/// baseline (the `values_agree` rule the artifact differ uses). The
/// simulation is deterministic under the pinned seeds, so drift here is
/// a *model* change, not noise — the slack only absorbs the artifact's
/// 4-decimal rounding.
pub const PJ_GATE_TOLERANCE: f64 = 0.01;

/// Compares `current` (a run at the given tier) against a baseline
/// artifact (the JSON produced by [`render_json`]). Returns the list of
/// regressions — scenarios whose wall time exceeds `factor ×` the
/// baseline, whose mean pJ/bit drifts more than [`PJ_GATE_TOLERANCE`]
/// relative (the deterministic energy fold must not move unless the
/// model does), or which the baseline records but this run lacks (a
/// scenario must not leave the suite unnoticed) — or an error when the
/// baseline cannot be interpreted or was recorded at a different tier
/// (full-tier wall times are ~10× the quick tier's, so a tier mismatch
/// would silently neuter the gate). Scenarios absent from the baseline,
/// and wall times whose baseline is under [`MIN_GATE_MS`], are ignored.
///
/// # Errors
///
/// Returns a description when the baseline is not a bench artifact or
/// its tier does not match.
pub fn check_regressions(
    current: &[BenchRecord],
    quick: bool,
    baseline_json: &str,
    factor: f64,
) -> Result<Vec<String>, String> {
    let baseline =
        Value::parse_json(baseline_json).map_err(|e| format!("baseline is not JSON: {e}"))?;
    if baseline.get("schema").and_then(Value::as_str) != Some(BENCH_SCHEMA) {
        return Err(format!(
            "baseline schema is not {BENCH_SCHEMA}; regenerate it with `onoc bench`"
        ));
    }
    let tier = if quick { "quick" } else { "full" };
    let baseline_tier = baseline.get("tier").and_then(Value::as_str);
    if baseline_tier != Some(tier) {
        return Err(format!(
            "baseline tier is {} but this run is {tier}; wall times are not \
             comparable across tiers — regenerate the baseline with \
             `onoc bench{}`",
            baseline_tier.unwrap_or("missing"),
            if quick { " --quick" } else { "" },
        ));
    }
    let scenarios = baseline
        .get("scenarios")
        .and_then(Value::as_array)
        .ok_or_else(|| "baseline has no scenarios array".to_string())?;
    let mut regressions = Vec::new();
    for record in current {
        let Some(base) = scenarios
            .iter()
            .find(|s| s.get("name").and_then(Value::as_str) == Some(record.name.as_str()))
        else {
            continue;
        };
        if let Some(base_ms) = base.get("wall_ms").and_then(Value::as_float) {
            if base_ms >= MIN_GATE_MS && record.wall_ms > factor * base_ms {
                regressions.push(format!(
                    "{}: {:.1} ms vs baseline {:.1} ms (> {factor}x)",
                    record.name, record.wall_ms, base_ms
                ));
            }
        }
        if let Some(base_pj) = base.get("pj_per_bit").and_then(Value::as_float) {
            if base_pj > 0.0 && !values_agree(record.pj_per_bit, base_pj, PJ_GATE_TOLERANCE) {
                regressions.push(format!(
                    "{}: {:.4} pJ/bit vs baseline {base_pj:.4} (> {:.0}% relative — the \
                     deterministic energy fold moved)",
                    record.name,
                    record.pj_per_bit,
                    PJ_GATE_TOLERANCE * 100.0
                ));
            }
        }
    }
    for name in scenarios
        .iter()
        .filter_map(|s| s.get("name").and_then(Value::as_str))
    {
        if !current.iter().any(|r| r.name == name) {
            regressions.push(format!("{name}: in the baseline but missing from this run"));
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_set_shape_is_stable() {
        let full = pinned_scenarios(false);
        let quick = pinned_scenarios(true);
        assert_eq!(
            full.len(),
            18,
            "2 headline + 3×2×2 matrix + 1 fault + 1 heal + 1 scale + 1 serve"
        );
        assert_eq!(full.len(), quick.len());
        for (f, q) in full.iter().zip(&quick) {
            assert_eq!(f.name, q.name, "tiers share scenario names");
            match (&f.work, &q.work) {
                (BenchWork::Sweep(fg), BenchWork::Sweep(qg)) => {
                    assert_eq!(fg.horizon, qg.horizon * 10);
                }
                (BenchWork::Serve { churn: fc, .. }, BenchWork::Serve { churn: qc, .. }) => {
                    assert_eq!(fc.sessions, qc.sessions * 10);
                }
                _ => panic!("{} changed workload kind across tiers", f.name),
            }
        }
        // Names are unique (baseline lookups key on them).
        let mut names: Vec<&str> = full.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), full.len());
        assert!(names.contains(&"saturation-sweep-32n"));
        assert!(names.contains(&"gbn-fault-8l"));
        assert!(names.contains(&"heal-perm-fault"));
        assert!(names.contains(&"serial-256n"));
        assert!(names.contains(&"online-serve-8l"));
        let serial = full
            .iter()
            .find(|s| s.name == "serial-256n")
            .and_then(BenchScenario::grid)
            .unwrap();
        assert!(serial.static_map.is_some());
        // The serve scenario keeps the paper point and a seeded workload.
        let serve = full.iter().find(|s| s.name == "online-serve-8l").unwrap();
        assert!(serve.grid().is_none());
        let BenchWork::Serve { config, churn } = &serve.work else {
            panic!("online-serve-8l must be a serve workload");
        };
        assert_eq!((config.nodes, config.wavelengths), (16, 8));
        assert_eq!(churn.seed, 2017);
    }

    fn record(name: &str, wall_ms: f64, pj_per_bit: f64) -> BenchRecord {
        BenchRecord {
            name: name.into(),
            wall_ms,
            peak_rss_kb: 1234,
            messages: 42,
            points: 7,
            pj_per_bit,
            setup_ms: wall_ms * 0.3,
            simulate_ms: wall_ms * 0.6,
            report_ms: wall_ms * 0.05,
        }
    }

    #[test]
    fn render_and_check_roundtrip() {
        let records = vec![
            record("saturation-sweep-16n", 100.0, 1.25),
            record("open-uniform-8l", 50.0, 2.5),
        ];
        let json = render_json(&records, true);
        // Unchanged numbers pass the gate at any factor ≥ 1.
        assert_eq!(
            check_regressions(&records, true, &json, 1.0).unwrap(),
            Vec::<String>::new()
        );
        // A 3× slowdown on one scenario is caught at factor 2.
        let mut slowed = records.clone();
        slowed[1].wall_ms = 150.0;
        let regressions = check_regressions(&slowed, true, &json, 2.0).unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("open-uniform-8l"));
        // A scenario the baseline never saw is not a regression.
        let mut grown = records.clone();
        grown.push(record("brand-new", 500.0, 9.0));
        assert!(
            check_regressions(&grown, true, &json, 2.0)
                .unwrap()
                .is_empty()
        );
        // Baselines under the gating floor are exempt (too noisy to gate).
        let tiny_base = vec![record("tiny", 2.0, 0.0)];
        let tiny_json = render_json(&tiny_base, true);
        let mut tiny_now = tiny_base.clone();
        tiny_now[0].wall_ms = 9.0;
        assert!(
            check_regressions(&tiny_now, true, &tiny_json, 2.0)
                .unwrap()
                .is_empty()
        );
        // Garbage baselines are a clean error.
        assert!(check_regressions(&records, true, "{}", 2.0).is_err());
        assert!(check_regressions(&records, true, "not json", 2.0).is_err());
        // A full-tier run must refuse a quick-tier baseline (and vice
        // versa) instead of silently passing against ~10x-off numbers.
        let err = check_regressions(&records, false, &json, 2.0).unwrap_err();
        assert!(err.contains("tier"), "{err}");
    }

    #[test]
    fn missing_baseline_scenario_is_a_regression() {
        let base = vec![
            record("saturation-sweep-16n", 100.0, 1.25),
            record("open-uniform-8l", 50.0, 2.5),
        ];
        let json = render_json(&base, true);
        // Dropping a scenario from the suite fails the gate by name.
        let regressions = check_regressions(&base[..1], true, &json, 2.0).unwrap();
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(
            regressions[0].contains("open-uniform-8l"),
            "{regressions:?}"
        );
        assert!(regressions[0].contains("missing"), "{regressions:?}");
        // So does renaming one: the old name is missing, the new one is
        // ungated.
        let mut renamed = base.clone();
        renamed[1].name = "open-uniform-8l-v2".into();
        let regressions = check_regressions(&renamed, true, &json, 2.0).unwrap();
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(
            regressions[0].starts_with("open-uniform-8l:"),
            "{regressions:?}"
        );
    }

    #[test]
    fn energy_gate_catches_pj_drift_at_any_speed() {
        let base = vec![record("open-uniform-8l", 50.0, 2.5)];
        let json = render_json(&base, true);
        // pJ/bit drift beyond the tolerance fails even when wall time is
        // fine (the fold is deterministic, so drift means a model change),
        // and well under the wall-time gating floor.
        let mut drifted = base.clone();
        drifted[0].wall_ms = 1.0;
        drifted[0].pj_per_bit = 2.6;
        let regressions = check_regressions(&drifted, true, &json, 2.0).unwrap();
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("pJ/bit"), "{regressions:?}");
        // Drift within the tolerance (rounding slack) passes.
        let mut rounded = base.clone();
        rounded[0].pj_per_bit = 2.5001;
        assert!(
            check_regressions(&rounded, true, &json, 2.0)
                .unwrap()
                .is_empty()
        );
        // A zero-pJ baseline (no energy model) is not gated.
        let no_energy = vec![record("tiny", 50.0, 0.0)];
        let no_energy_json = render_json(&no_energy, true);
        let mut now = no_energy.clone();
        now[0].pj_per_bit = 1.0;
        assert!(
            check_regressions(&now, true, &no_energy_json, 2.0)
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn history_line_is_one_parsable_json_record() {
        let records = vec![record("saturation-sweep-16n", 123.456, 1.2345)];
        let line = history_line(&records, true, 1_753_000_000_000);
        assert!(!line.contains('\n'), "JSONL records are single lines");
        let parsed = Value::parse_json(&line).expect("history line is JSON");
        assert_eq!(
            parsed.get("schema").and_then(Value::as_str),
            Some(BENCH_HISTORY_SCHEMA)
        );
        assert_eq!(parsed.get("tier").and_then(Value::as_str), Some("quick"));
        assert_eq!(
            parsed.get("unix_ms").and_then(Value::as_int),
            Some(1_753_000_000_000)
        );
        let scenarios = parsed.get("scenarios").and_then(Value::as_array).unwrap();
        assert_eq!(scenarios.len(), 1);
        assert_eq!(
            scenarios[0].get("pj_per_bit").and_then(Value::as_float),
            Some(1.2345)
        );
    }

    #[test]
    fn serve_bench_record_is_populated() {
        let scenario = pinned_scenarios(true)
            .into_iter()
            .find(|s| s.name == "online-serve-8l")
            .expect("pinned");
        let BenchWork::Serve { config, churn } = scenario.work else {
            panic!("online-serve-8l must be a serve workload");
        };
        let record = run_serve_record(scenario.name, &config, &churn);
        assert_eq!(record.points, 1);
        assert_eq!(record.messages, churn.sessions);
        assert_eq!(record.pj_per_bit, 0.0, "no energy model over grants");
        assert!(record.wall_ms >= record.simulate_ms);
    }

    #[test]
    fn quick_bench_runs_and_reports() {
        // One real quick scenario end-to-end (the smallest matrix entry)
        // to keep the test fast while exercising the measurement path.
        let scenario = pinned_scenarios(true)
            .into_iter()
            .find(|s| s.name == "open-uniform-4l")
            .expect("pinned");
        let grid = scenario.grid().expect("matrix scenarios are sweeps");
        let start = Instant::now();
        let mut scratch = SimScratch::new();
        let mut phases = ScenarioPhases::default();
        let results: Vec<_> = grid
            .scenarios()
            .iter()
            .map(|point| {
                let (result, split) = run_scenario_phased(grid, point, &mut scratch);
                phases.accumulate(split);
                result
            })
            .collect();
        assert!(start.elapsed().as_secs() < 30);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.injected > 0));
        // Every pinned grid carries the paper energy model, so the
        // recorded pJ/bit trajectory is never vacuously zero.
        assert!(results.iter().all(|r| r.energy_pj_per_bit > 0.0));
        // The phase split is populated: both dominant phases measured
        // nonzero wall time.
        assert!(phases.setup_ms > 0.0 && phases.simulate_ms > 0.0);
    }
}
