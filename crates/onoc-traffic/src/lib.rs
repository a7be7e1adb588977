//! Synthetic traffic generation and saturation sweeps for ring WDM ONoCs.
//!
//! The paper evaluates wavelength allocation against one mapped task graph.
//! This crate opens the *open-loop* side of the evaluation space that the
//! 3D-NoC literature characterises architectures with (Das et al.,
//! arXiv:1608.06972; Dally & Towles ch. 23): parameterised synthetic
//! traffic driven through the network at a controlled injection rate,
//! swept until saturation.
//!
//! * [`TrafficPattern`] — uniform-random, hotspot, transpose,
//!   bit-reversal, bit-complement and nearest-neighbour destination rules,
//! * [`TrafficRng`] — a seeded *splittable* PRNG making every trace a pure
//!   function of `(seed, node)` and every sweep thread-count independent,
//! * [`generate`] / [`TrafficTrace`] — timed message streams, optionally
//!   bursty via a Pareto ON-OFF process ([`OnOffConfig`]),
//! * [`TrafficTrace::from_csv_str`] — external `cycle,src,dst,size` CSV
//!   traces replayed through the same engine,
//! * [`sweep`] — scenario grids `{pattern × rate × λ × ring}` fanned out
//!   over scoped worker threads under any
//!   [`InjectionMode`](onoc_sim::InjectionMode) (open loop, or
//!   credit/ECN closed loop with backpressure-aware offered-vs-accepted
//!   reporting), emitting CSV/JSON saturation curves.
//!
//! Traces feed `onoc-sim`'s [`OpenLoopSimulator`](onoc_sim::OpenLoopSimulator)
//! through the [`TrafficSource`](onoc_sim::TrafficSource) trait.
//!
//! # Example: one saturation point
//!
//! ```
//! use onoc_sim::{DynamicPolicy, OpenLoopSimulator, WavelengthMode};
//! use onoc_topology::RingTopology;
//! use onoc_traffic::{generate, TrafficConfig, TrafficPattern};
//! use onoc_units::BitsPerCycle;
//!
//! let config = TrafficConfig::paper_ring(TrafficPattern::UniformRandom, 0.01, 7);
//! let trace = generate(&config);
//! let sim = OpenLoopSimulator::new(
//!     RingTopology::new(16),
//!     8,
//!     BitsPerCycle::new(1.0),
//!     WavelengthMode::Dynamic(DynamicPolicy::Single),
//! );
//! let report = sim.run(trace.source()).unwrap();
//! assert_eq!(report.records.len(), trace.len());
//! assert!(report.latency().p99 >= report.latency().p50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pattern;
mod rng;
pub mod sweep;
mod trace;

pub use pattern::TrafficPattern;
pub use rng::TrafficRng;
pub use sweep::{
    KneeResult, KneeSearchConfig, Scenario, ScenarioPhases, ScenarioResult, SweepGrid,
    SweepOutcome, find_sustained_knee, run_scenario, run_scenario_phased, run_scenario_with,
    run_sweep,
};
pub use trace::{
    MAX_MESSAGE_BITS, OnOffConfig, TRACE_CSV_HEADER, TraceParseError, TraceSource, TraceStats,
    TrafficConfig, TrafficTrace, generate,
};
