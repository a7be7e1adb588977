//! Cycle-level discrete-event simulator for ring-based WDM optical NoCs.
//!
//! The paper's evaluation (§IV) relies on the *analytic* time model of
//! Eqs. 10–12. This crate provides an independent executable model: an
//! event-driven simulation in integer clock cycles where
//!
//! * a task starts once every incoming communication has fully arrived and
//!   occupies its core for its execution time,
//! * a communication starts when its producer finishes and transmits
//!   `⌈V / (NW·B)⌉` cycles over its wavelengths: the ones a fixed
//!   allocation gives it ([`Simulator::new`]), or the free ones it claims
//!   along its path at runtime under a [`DynamicPolicy`]
//!   ([`Simulator::dynamic`]), waiting for a release when none is free,
//! * every in-flight communication *occupies* its wavelengths on every
//!   waveguide segment of its path, and the simulator records any two
//!   communications that ever hold the same wavelength on the same directed
//!   segment at the same time.
//!
//! The last point makes the simulator a dynamic checker of the paper's
//! static §III-D constraint: statically valid allocations must produce a
//! conflict-free run (asserted by property tests), while statically
//! *invalid* allocations can be replayed to see whether the conflict is
//! real or merely conservative (the two communications may never overlap in
//! time — see [`SimReport::conflicts`]).
//!
//! The open/closed-loop engine ([`OpenLoopSimulator`]) additionally
//! emits a stream of simulation facts to composable observers
//! ([`SimProbe`]): the full and streaming reports are built on that
//! stream, and [`EnergyProbe`] folds it — with an [`EnergyModel`]
//! derived from the `onoc-photonics` devices — into an end-to-end
//! [`EnergyReport`] (pJ/bit, static/dynamic split, per-lane laser-on
//! time, per-flow attribution). The telemetry probes fold the same
//! stream into a windowed [`TimeSeries`] (throughput, occupancy,
//! stalls, ECN marks, Jain fairness) and a Perfetto-loadable Chrome
//! trace ([`ChromeTraceProbe`]).
//!
//! # Example
//!
//! ```
//! use onoc_app::workloads::paper_mapped_application;
//! use onoc_sim::Simulator;
//! use onoc_units::BitsPerCycle;
//! use onoc_wa::ProblemInstance;
//!
//! let instance = ProblemInstance::paper_with_wavelengths(4);
//! let alloc = instance.allocation_from_counts(&[1; 6]).unwrap();
//! let sim = Simulator::new(instance.app(), &alloc, BitsPerCycle::new(1.0)).unwrap();
//! let report = sim.run().unwrap();
//! assert_eq!(report.makespan, 38_000);           // matches Eqs. 10–12
//! assert!(report.conflicts.is_empty());          // §III-D holds at runtime
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calendar;
mod energy;
mod engine;
mod fault;
mod flows;
mod injection;
mod openloop;
mod probe;
mod report;
mod telemetry;
mod transport;

pub use energy::{EnergyModel, EnergyProbe, EnergyReport, FlowEnergy, MRS_PER_NODE_PER_WAVELENGTH};
pub use engine::{Activity, SimError, Simulator};
pub use fault::{
    CorruptionModel, DropFact, FaultCause, FaultPlan, HealFact, LaneFault, ReliabilityProbe,
    ReliabilityReport, StochasticFaults, hash64, message_error_probability, unit_interval,
};
pub use flows::{FlowAllocPolicy, FlowMatrix, FlowSynthesisError, SynthesisSummary};
pub use injection::{AimdParams, DynamicPolicy, InjectionMode};
/// Re-exported so downstream crates can name heal policies without
/// depending on `onoc-wa` directly.
pub use onoc_wa::HealPolicy;
pub use openloop::{
    HealingConfig, OpenLoopError, OpenLoopSimulator, ReportMode, SimScratch, StaticFlowMap,
    TrafficEvent, TrafficSource, WavelengthMode,
};
pub use probe::{NullProbe, SimProbe, TxFact};
pub use report::{
    ChannelConflict, LatencyHistogram, LatencyStats, MsgRecord, OpenLoopReport, SimReport,
};
pub use telemetry::{
    ChromeTraceProbe, MAX_TELEMETRY_WINDOWS, TimeSeries, TimeSeriesProbe, WindowStats,
};
pub use transport::TransportMode;
