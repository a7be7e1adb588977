//! Ring-based WDM optical NoC architecture model.
//!
//! This crate turns the device-level models of `onoc-photonics` into a
//! concrete 3D architecture (Fig. 1 of Luo et al., DATE 2017):
//!
//! * [`RingTopology`] / [`NodeId`] — `n` optical network interfaces (ONIs)
//!   placed on a ring, one per IP core of the electrical layer,
//! * [`RingGeometry`] — the serpentine physical layout of the ring over the
//!   2D tile grid, giving each waveguide segment a length and bend count,
//! * [`RingPath`] / [`Direction`] — source→destination paths along the
//!   clockwise or counter-clockwise waveguide,
//! * [`OnocArchitecture`] — the assembled architecture (topology + geometry +
//!   WDM grid + losses + laser + detector),
//! * [`SpectrumEngine`] — the per-wavelength power walk that evaluates the
//!   paper's receiver equations: signal power (Eq. 6), inter-channel
//!   crosstalk (Eq. 7) and the end-to-end path loss used by the energy model.
//!
//! # Example
//!
//! ```
//! use onoc_topology::{Direction, NodeId, OnocArchitecture, Transmission};
//!
//! let arch = OnocArchitecture::paper_architecture(8);
//! let path = arch.route(NodeId(0), NodeId(3), Direction::Clockwise);
//! assert_eq!(path.hops(), 3);
//!
//! // One transmission using two wavelengths.
//! let channels = vec![arch.grid().channel(0).unwrap(), arch.grid().channel(1).unwrap()];
//! let traffic = vec![Transmission::new(0, path, channels)];
//! let engine = onoc_topology::SpectrumEngine::new(&arch, &traffic).unwrap();
//! let reports = engine.analyze().unwrap();
//! assert_eq!(reports.len(), 2); // one report per (transmission, wavelength)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod arch;
mod budget;
mod geometry;
mod path;
mod ring;
mod spectrum;

pub use analysis::{CrosstalkBound, worst_case_bounds};
pub use arch::{ArchBuilder, ArchError, OnocArchitecture};
pub use budget::{PowerBudget, lone_prefix_budgets, power_budgets};
pub use geometry::{Centimeters, Millimeters, RingGeometry};
pub use path::{DirectedSegment, RingPath, segment_count};
pub use ring::{Direction, NodeId, RingTopology};
pub use spectrum::{CrosstalkModel, ReceiverReport, SpectrumEngine, SpectrumError, Transmission};
