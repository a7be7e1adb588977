//! Online wavelength allocation-as-a-service for ring WDM ONoCs.
//!
//! The batch layers of this workspace (the NSGA-II solver, the heuristic
//! packers, the flow-synthesis simulators) answer a *static* question:
//! given every communication up front, which wavelengths does each one
//! reserve? This crate answers the *online* variant the paper's
//! deployment story implies: flow **sessions arrive and depart
//! continuously**, and each arrival must be granted lanes against
//! whatever the live comb looks like *right now* — without re-solving
//! the whole instance.
//!
//! The pieces:
//!
//! * [`SessionRequest`] / [`PoissonWorkload`] — a session workload, either
//!   seeded Poisson arrival/departure churn or a replay of a recorded
//!   arrival trace ([`sessions_from_trace`]);
//! * [`ServiceConfig`] / [`serve`] — the service loop itself: a FIFO
//!   admission queue over an
//!   [`OccupancyLedger`](onoc_wa::OccupancyLedger), incremental
//!   grant/release per session, first-class admission-latency
//!   percentiles, blocking rate, and fragmentation tracking;
//! * [`DefragPolicy`] — when the service re-packs the live comb
//!   (never / on allocation-failure threshold / on idle gaps);
//! * [`compare_replay_cost`] — replays the same session sequence through
//!   the incremental ledger and through from-scratch re-synthesis, so
//!   the cost of each path is measurable on identical work.
//!
//! Every admission, grant, release, block, and defrag streams through the
//! [`SimProbe`](onoc_sim::SimProbe) telemetry layer, so the existing
//! windowed time-series and Chrome-trace exporters attach unchanged.
//!
//! # Example
//!
//! ```
//! use onoc_serve::{DefragPolicy, PoissonWorkload, ServiceConfig, serve};
//! use onoc_sim::NullProbe;
//! use onoc_wa::GrantPolicy;
//!
//! let requests = PoissonWorkload {
//!     nodes: 8,
//!     sessions: 64,
//!     arrival_rate: 0.02,
//!     mean_hold: 300.0,
//!     max_demand: 2,
//!     seed: 7,
//! }
//! .generate();
//! let config = ServiceConfig {
//!     nodes: 8,
//!     wavelengths: 4,
//!     policy: GrantPolicy::Disjoint,
//!     defrag: DefragPolicy::OnThreshold { min_free_run: 0.25 },
//!     max_wait: Some(10_000),
//! };
//! let outcome = serve(&config, &requests, &mut NullProbe).unwrap();
//! assert_eq!(outcome.report.offered, 64);
//! assert_eq!(outcome.report.admitted + outcome.report.blocked, 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod service;
mod workload;

pub use service::{
    ADMISSION_LOG_HEADER, CostComparison, DefragPolicy, ServeError, ServeEvent, ServeEventKind,
    ServiceConfig, ServiceOutcome, ServiceReport, compare_replay_cost, serve,
};
pub use workload::{PoissonWorkload, SessionRequest, WorkloadError, sessions_from_trace};
