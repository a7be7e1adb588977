//! # ring-wdm-onoc
//!
//! A full reproduction of *"Performance and Energy Aware Wavelength
//! Allocation on Ring-Based WDM 3D Optical NoC"* (Luo et al., DATE 2017) as
//! a production-quality Rust workspace.
//!
//! This facade crate re-exports the public API of every workspace member so
//! downstream users can depend on a single crate:
//!
//! * [`units`] — physical-unit newtypes (dB, dBm, mW, nm, cycles, fJ),
//! * [`photonics`] — micro-ring resonators, WDM grids, lasers,
//!   photodetectors, SNR and BER models,
//! * [`topology`] — the ring-based ONoC architecture, routing and the
//!   per-wavelength receiver-spectrum engine,
//! * [`app`] — task graphs, mappings and the communication-aware schedule,
//! * [`sim`] — cycle-level discrete-event simulators of the ring
//!   (closed-loop task graphs and open-loop injected traffic),
//! * [`traffic`] — synthetic traffic patterns, seeded trace generation and
//!   the parallel saturation-sweep runner,
//! * [`wa`] — the paper's contribution: multi-objective wavelength
//!   allocation (NSGA-II), validity constraints, objectives, heuristic
//!   baselines, exhaustive oracles and the mapping-search extension,
//! * [`exp`] — the experiment layer: declarative
//!   [`ScenarioSpec`](exp::ScenarioSpec)s (TOML/JSON), the registry of
//!   named paper experiments, structured table/CSV/JSON artifacts, and
//!   the `onoc` CLI.
//!
//! # Quickstart
//!
//! ```
//! use ring_wdm_onoc::prelude::*;
//!
//! // The paper's 16-core ring and 6-task application, with 8 wavelengths.
//! let instance = ProblemInstance::paper_with_wavelengths(8);
//! let evaluator = instance.evaluator();
//!
//! // Evaluate the most energy-frugal allocation: one wavelength each.
//! let alloc = instance.allocation_from_counts(&[1, 1, 1, 1, 1, 1]).unwrap();
//! let objectives = evaluator.evaluate(&alloc).expect("allocation is valid");
//! assert_eq!(objectives.exec_time.to_kilocycles(), 38.0);
//! ```
//!
//! # Regenerating the paper (and going beyond it)
//!
//! Every figure/table experiment is a named registry entry of the single
//! `onoc` CLI — `onoc list` enumerates them, `onoc run fig6a --quick`
//! reproduces one, and `onoc run --spec examples/scenario.toml` runs any
//! declarative scenario over the (architecture × workload × allocator ×
//! scale) space:
//!
//! ```
//! use ring_wdm_onoc::prelude::*;
//!
//! let registry = Registry::standard();
//! assert!(registry.get("fig6a").is_some());
//!
//! let spec = ScenarioSpec::builder("frugal")
//!     .scale(Scale::Smoke)
//!     .wavelengths(4)
//!     .allocator(AllocatorSpec::Counts { counts: vec![1; 6] })
//!     .build()
//!     .unwrap();
//! let report = run_spec(&spec, 2).unwrap();
//! assert_eq!(report.tables()[0].rows()[0][1], "38.0000"); // kcc
//! ```

#![forbid(unsafe_code)]

pub use onoc_app as app;
pub use onoc_exp as exp;
pub use onoc_photonics as photonics;
pub use onoc_sim as sim;
pub use onoc_topology as topology;
pub use onoc_traffic as traffic;
pub use onoc_units as units;
pub use onoc_wa as wa;

/// Convenience re-exports covering the most common entry points.
pub mod prelude {
    pub use onoc_app::{MappedApplication, Mapping, RouteStrategy, Schedule, TaskGraph};
    pub use onoc_exp::{
        AllocatorSpec, ArchSpec, EnergySpec, Experiment, Registry, Report, ReportKind, RunContext,
        Scale, ScenarioSpec, Table, WorkloadSpec, capture_trace, diff_reports, run_spec,
    };
    pub use onoc_photonics::{
        BerConvention, EnergyParams, LossParams, MicroRing, Vcsel, WavelengthGrid,
    };
    pub use onoc_sim::{
        EnergyModel, EnergyProbe, EnergyReport, FlowAllocPolicy, FlowMatrix, InjectionMode,
        LatencyStats, OpenLoopReport, OpenLoopSimulator, SimProbe, SimReport, Simulator,
        StaticFlowMap, TrafficEvent, TrafficSource, WavelengthMode,
    };
    pub use onoc_topology::{
        CrosstalkModel, Direction, NodeId, OnocArchitecture, RingPath, SpectrumEngine, Transmission,
    };
    pub use onoc_traffic::{
        SweepGrid, TrafficConfig, TrafficPattern, TrafficTrace, generate, run_sweep,
    };
    pub use onoc_units::{
        Bits, BitsPerCycle, Cycles, DbMilliwatts, Decibels, Femtojoules, Milliwatts, Nanometers,
    };
    pub use onoc_wa::{
        Allocation, EvalOptions, Evaluator, Nsga2, Nsga2Config, ObjectiveSet, Objectives,
        ParetoFront, ProblemInstance, ValidityChecker,
    };
}
