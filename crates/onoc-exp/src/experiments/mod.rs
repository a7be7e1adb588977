//! The named paper experiments (E1–E13 of DESIGN.md §5 plus extensions),
//! one [`Experiment`] per former `onoc-bench` binary.
//!
//! | name | former binary | artefact |
//! |---|---|---|
//! | `table1` | `table1` | Table I — power-loss values |
//! | `table2` | `table2` | Table II — search statistics per comb size |
//! | `fig6a` | `fig6a` | Fig. 6(a) — bit energy vs execution time |
//! | `fig6b` | `fig6b` | Fig. 6(b) — BER vs execution time |
//! | `fig7` | `fig7` | Fig. 7 — the valid-solution cloud |
//! | `anchors` | `anchors` | headline anchors vs the exhaustive oracle |
//! | `sim-validation` | `sim_validation` | analytic schedule vs DES |
//! | `baselines` | `baselines` | classical WA heuristics vs the GA front |
//! | `ablation` | `ablation` | model ablations |
//! | `mapping-explore` | `mapping_explore` | joint mapping + WA search |
//! | `moea-comparison` | `moea_comparison` | NSGA-II vs weighted-sum SA |
//! | `dynamic-vs-static` | `dynamic_vs_static` | design-time vs runtime WA |
//! | `traffic-sweep` | `traffic_sweep` | open-loop saturation sweep |
//! | `saturation` | `saturation` | saturation vs comb size |
//! | `sustained-saturation` | — (new) | closed-loop sustained knee per allocator |
//! | `energy-vs-load` | — (new) | energy per bit vs offered load per allocator |
//! | `saturation-timeline` | — (new) | windowed time series across the sustained knee |
//! | `reliability-vs-fault-rate` | — (new) | goodput vs BER with/without go-back-N |
//! | `self-healing-vs-outage` | — (new) | heal policies vs lane loss: goodput + recovery SLOs |
//! | `workload-sweep` | `workload_sweep` | the panel of synthetic kernels |
//! | `online-allocation` | — (new) | service-loop churn: admission latency, blocking, fragmentation per defrag policy |

mod figures;
mod search;
mod serve;
mod tables;
mod traffic;
mod validation;

use crate::Experiment;

/// Every experiment, in registry (presentation) order.
#[must_use]
pub fn all() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(tables::Table1),
        Box::new(tables::Table2),
        Box::new(figures::Fig6a),
        Box::new(figures::Fig6b),
        Box::new(figures::Fig7),
        Box::new(validation::Anchors),
        Box::new(validation::SimValidation),
        Box::new(search::Baselines),
        Box::new(validation::Ablation),
        Box::new(search::MappingExplore),
        Box::new(search::MoeaComparison),
        Box::new(search::DynamicVsStatic),
        Box::new(traffic::TrafficSweep),
        Box::new(traffic::Saturation),
        Box::new(traffic::SustainedSaturation),
        Box::new(traffic::SustainedKnee),
        Box::new(traffic::EnergyVsLoad),
        Box::new(traffic::SaturationTimeline),
        Box::new(traffic::ReliabilityVsFaultRate),
        Box::new(traffic::SelfHealingVsOutage),
        Box::new(traffic::WorkloadSweep),
        Box::new(serve::OnlineAllocation),
    ]
}
