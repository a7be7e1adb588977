//! The `onoc serve` driver: resolves a spec into a session workload and
//! a [`ServiceConfig`], runs the online
//! allocation service, and shapes the outcome into a structured
//! [`Report`].
//!
//! Two workload sources:
//!
//! * a **synthetic** workload spec runs seeded Poisson session churn
//!   driven by the `[service]` knobs (the workload's own pattern/rate
//!   are not consulted — sessions are lane reservations, not messages);
//! * a **trace** workload replays the recorded arrivals as sessions
//!   (`service.trace_demand` lanes each, clock scaled by
//!   `service.stretch`).
//!
//! Everything in the report's tables is deterministic in the spec: two
//! same-seed runs serialise byte-identically (the CI smoke diffs them).

use onoc_serve::{
    ADMISSION_LOG_HEADER, PoissonWorkload, ServiceConfig, ServiceOutcome, SessionRequest,
    WorkloadError, serve, sessions_from_trace,
};
use onoc_sim::{ChromeTraceProbe, NullProbe, TimeSeriesProbe};

use crate::artifact::{Report, Table};
use crate::scenario::{ScenarioError, read_trace, timeseries_table, window_cap_err};
use crate::spec::{ScenarioSpec, ServiceSpec, WorkloadSpec};

/// Resolves the spec's `[service]` table (defaults when absent) into
/// the service-loop configuration.
#[must_use]
pub fn service_config(spec: &ScenarioSpec) -> ServiceConfig {
    let service = spec.service.clone().unwrap_or_default();
    ServiceConfig {
        nodes: spec.arch.nodes,
        wavelengths: spec.arch.wavelengths,
        policy: service.policy(),
        defrag: service.defrag_policy(),
        max_wait: service.max_wait,
    }
}

/// Materialises the session workload a spec describes: Poisson churn
/// for synthetic workloads (session count scaled like every other
/// horizon: ÷4 at quick scale, ÷10 at smoke), a session-per-message
/// replay for trace workloads.
///
/// # Errors
///
/// Returns [`ScenarioError`] when the trace file cannot be read, the
/// workload kind has no service semantics (task graphs, sweeps), or a
/// session's arrival cycle or holding time does not fit `u64` cycles
/// (naming `service.arrival_rate`, `service.mean_hold` or
/// `service.stretch`).
pub fn build_requests(spec: &ScenarioSpec) -> Result<Vec<SessionRequest>, ScenarioError> {
    let service = spec.service.clone().unwrap_or_default();
    match &spec.workload {
        WorkloadSpec::Synthetic { .. } => {
            let sessions = spec.scale.pick(
                service.sessions(),
                (service.sessions() / 4).max(1),
                (service.sessions() / 10).max(1),
            );
            PoissonWorkload {
                nodes: spec.arch.nodes,
                sessions,
                arrival_rate: service.arrival_rate(),
                mean_hold: service.mean_hold(),
                max_demand: service.max_demand(),
                seed: spec.seed,
            }
            .try_generate()
            .map_err(|e| match e {
                WorkloadError::Arrival { .. } => {
                    clock_err("service.arrival_rate", service.arrival_rate(), e)
                }
                WorkloadError::Hold { .. } => {
                    clock_err("service.mean_hold", service.mean_hold(), e)
                }
            })
        }
        WorkloadSpec::Trace { path } => {
            let trace = read_trace(path)?;
            sessions_from_trace(trace.events(), service.trace_demand(), service.stretch())
                .map_err(|e| clock_err("service.stretch", service.stretch(), e))
        }
        other => Err(ScenarioError::Build {
            stage: "service workload",
            message: format!(
                "the online allocation service needs a synthetic or trace \
                 workload, not {:?}",
                other.kind()
            ),
        }),
    }
}

/// The error for a `[service]` value that drives a session's clock past
/// `u64` cycles.
fn clock_err(key: &str, value: f64, e: WorkloadError) -> ScenarioError {
    ScenarioError::Build {
        stage: "service workload",
        message: format!("`{key}` = {value:e} is out of range: {e}"),
    }
}

/// Runs the online allocation service a spec describes and shapes the
/// outcome into a report: a one-row `service` summary table, the full
/// `admission_log` CSV artifact, and — when a `[telemetry]` table is
/// present — the windowed `timeseries` artifact plus an optional
/// Chrome-trace export.
///
/// # Errors
///
/// Returns [`ScenarioError`] when the workload cannot be assembled or
/// the service rejects it.
pub fn run_serve(spec: &ScenarioSpec) -> Result<Report, ScenarioError> {
    let requests = build_requests(spec)?;
    let config = service_config(spec);
    let service = spec.service.clone().unwrap_or_default();

    let mut report = Report::new(format!("online allocation service — {}", spec.name));
    let outcome = if let Some(telemetry) = &spec.telemetry {
        let mut series =
            TimeSeriesProbe::new(telemetry.window(), spec.arch.nodes, spec.arch.wavelengths);
        let mut chrome = telemetry
            .chrome_trace
            .as_ref()
            .map(|_| ChromeTraceProbe::new());
        let mut probes = (&mut series, chrome.as_mut());
        let outcome = run_with_probe(&config, &requests, &mut probes)?;
        // The service horizon is open, so the window cap is checked on
        // the probe once the loop has drained.
        if series.truncated() {
            return Err(window_cap_err(telemetry.window()));
        }
        report.push_table(timeseries_table(&series.report()).csv_only());
        if let (Some(path), Some(chrome)) = (&telemetry.chrome_trace, chrome) {
            std::fs::write(path, chrome.to_json()).map_err(|e| ScenarioError::Build {
                stage: "chrome trace export",
                message: format!("{path}: {e}"),
            })?;
            report.push_text(format!(
                "chrome trace: {} duration events → {path} \
                 (load in Perfetto or chrome://tracing)",
                chrome.len()
            ));
        }
        outcome
    } else {
        run_with_probe(&config, &requests, &mut NullProbe)?
    };

    report.push_text(format!(
        "{} sessions offered under the {} policy (defrag: {}); \
         {} admitted, {} blocked; admission latency p50/p95/p99 = \
         {}/{}/{} cycles.",
        outcome.report.offered,
        config.policy,
        config.defrag,
        outcome.report.admitted,
        outcome.report.blocked,
        outcome.report.admission_p50,
        outcome.report.admission_p95,
        outcome.report.admission_p99,
    ));
    report.push_text(format!(
        "incremental grants packed {} sessions; from-scratch \
         re-synthesis would have packed {} — a {:.1}× saving on this \
         workload.",
        outcome.report.incremental_packs,
        outcome.report.full_repack_packs,
        outcome.report.full_repack_packs as f64 / outcome.report.incremental_packs.max(1) as f64,
    ));
    report.push_table(service_table(&outcome, &service));
    report.push_table(admission_log_table(&outcome));
    Ok(report)
}

fn run_with_probe<P: onoc_sim::SimProbe>(
    config: &ServiceConfig,
    requests: &[SessionRequest],
    probe: &mut P,
) -> Result<ServiceOutcome, ScenarioError> {
    serve(config, requests, probe).map_err(|e| ScenarioError::Simulation {
        message: e.to_string(),
    })
}

/// The one-row aggregate summary table.
fn service_table(outcome: &ServiceOutcome, service: &ServiceSpec) -> Table {
    let r = &outcome.report;
    let mut table = Table::new(
        "service",
        &[
            "policy",
            "defrag",
            "offered",
            "admitted",
            "blocked",
            "blocking_rate",
            "admission_p50",
            "admission_p95",
            "admission_p99",
            "mean_wait",
            "peak_queue_depth",
            "defrag_runs",
            "defrag_moves",
            "shared_grants",
            "horizon",
            "mean_free_fraction",
            "mean_largest_free_run",
            "mean_occupancy_jain",
            "final_free_fraction",
            "final_largest_free_run",
            "final_occupancy_jain",
            "incremental_packs",
            "full_repack_packs",
        ],
    );
    table.push_row(vec![
        service.policy().name().to_string(),
        service.defrag_policy().name().to_string(),
        r.offered.to_string(),
        r.admitted.to_string(),
        r.blocked.to_string(),
        format!("{:.4}", r.blocking_rate),
        r.admission_p50.to_string(),
        r.admission_p95.to_string(),
        r.admission_p99.to_string(),
        format!("{:.2}", r.mean_wait),
        r.peak_queue_depth.to_string(),
        r.defrag_runs.to_string(),
        r.defrag_moves.to_string(),
        r.shared_grants.to_string(),
        r.horizon.to_string(),
        format!("{:.4}", r.mean_free_fraction),
        format!("{:.4}", r.mean_largest_free_run),
        format!("{:.4}", r.mean_occupancy_jain),
        format!("{:.4}", r.final_free_fraction),
        format!("{:.4}", r.final_largest_free_run),
        format!("{:.4}", r.final_occupancy_jain),
        r.incremental_packs.to_string(),
        r.full_repack_packs.to_string(),
    ]);
    table
}

/// The full admission log, as a CSV-only artifact (one row per
/// arrive/grant/release/block/defrag/move event), each event written
/// straight into the table's body.
fn admission_log_table(outcome: &ServiceOutcome) -> Table {
    let columns: Vec<&str> = ADMISSION_LOG_HEADER.split(',').collect();
    let mut table = Table::new("admission_log", &columns).csv_only();
    for event in &outcome.log {
        table.push_csv_row(|body| event.write_csv_row(body));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DefragKind, TelemetrySpec};
    use onoc_traffic::TrafficPattern;

    fn serve_spec() -> ScenarioSpec {
        ScenarioSpec::builder("serve-smoke")
            .seed(2017)
            .nodes(8)
            .wavelengths(4)
            .workload(WorkloadSpec::Synthetic {
                pattern: TrafficPattern::UniformRandom,
                injection_rate: 0.05,
                message_bits: 512.0,
                horizon: 5_000,
                burstiness: None,
            })
            .allocator(crate::spec::AllocatorSpec::Dynamic {
                policy: onoc_sim::DynamicPolicy::Single,
            })
            .service(ServiceSpec {
                sessions: Some(200),
                arrival_rate: Some(0.05),
                mean_hold: Some(150.0),
                max_demand: Some(2),
                defrag: Some(DefragKind::Threshold),
                defrag_threshold: Some(0.5),
                max_wait: Some(2_000),
                ..ServiceSpec::default()
            })
            .build()
            .unwrap()
    }

    #[test]
    fn serve_report_is_deterministic_and_conserves_sessions() {
        let spec = serve_spec();
        let a = run_serve(&spec).unwrap();
        let b = run_serve(&spec).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "same seed, same artifact bytes");
        let find = |name: &str| {
            a.tables()
                .iter()
                .find(|t| t.name() == name)
                .copied()
                .cloned()
                .unwrap()
        };
        let service = find("service");
        let row = &service.rows()[0];
        let col = |name: &str| {
            let i = service.columns().iter().position(|c| c == name).unwrap();
            row[i].clone()
        };
        let offered: usize = col("offered").parse().unwrap();
        let admitted: usize = col("admitted").parse().unwrap();
        let blocked: usize = col("blocked").parse().unwrap();
        assert_eq!(offered, 200);
        assert_eq!(admitted + blocked, offered);
        assert!(admitted > 0, "a 4-λ comb admits something");
        let log = find("admission_log");
        let grants = log.rows().iter().filter(|r| r[1] == "grant").count();
        assert_eq!(grants, admitted, "one grant row per admitted session");
        let incremental: u64 = col("incremental_packs").parse().unwrap();
        let full: u64 = col("full_repack_packs").parse().unwrap();
        assert!(
            full > incremental,
            "the artifact shows the incremental saving ({full} vs {incremental})"
        );
    }

    #[test]
    fn telemetry_rides_on_serve_runs() {
        let mut spec = serve_spec();
        spec.telemetry = Some(TelemetrySpec {
            window: Some(256),
            ..TelemetrySpec::default()
        });
        let report = run_serve(&spec).unwrap();
        let names: Vec<&str> = report.tables().iter().map(|t| t.name()).collect();
        assert!(names.contains(&"timeseries"), "{names:?}");
        assert!(names.contains(&"service"));
        assert!(names.contains(&"admission_log"));
    }

    #[test]
    fn task_graph_workloads_are_refused() {
        let spec = ScenarioSpec::builder("bad").build().unwrap();
        let err = build_requests(&spec).unwrap_err();
        assert!(matches!(err, ScenarioError::Build { stage, .. } if stage == "service workload"));
    }
}
