//! The experiment layer of the ring-wdm-onoc workspace: declarative
//! scenarios, the named-experiment registry, and structured artifacts.
//!
//! The paper's evaluation is a grid of experiments over the
//! (architecture × workload × allocator × scale) space. This crate makes
//! that grid *data*:
//!
//! * [`ScenarioSpec`] — a typed, validated spec naming one point of the
//!   space, with a builder and TOML-subset/JSON round-trip serialization
//!   (hand-rolled in [`value`]; the build container has no crates.io
//!   access),
//! * [`scenario::run_spec`] — the generic interpreter: any spec file runs
//!   without new Rust code,
//! * [`Experiment`] + [`Registry`] — the 20 named paper
//!   experiments/extensions (the 15 former hand-rolled `onoc-bench`
//!   binaries plus the closed-loop `sustained-saturation` /
//!   `sustained-knee` studies, the `energy-vs-load` curve, the
//!   windowed `saturation-timeline`, and the fault-injection
//!   `reliability-vs-fault-rate` study), each returning a structured
//!   [`Report`],
//! * [`artifact`] — the table/CSV/JSON output layer replacing per-binary
//!   `println!` plumbing,
//! * [`diff`] — field-by-field comparison of two report artifacts
//!   (`onoc diff a.json b.json`), non-zero exit on drift,
//! * the `onoc` CLI (`onoc list`, `onoc run fig6a --quick`,
//!   `onoc run --spec scenario.toml`, `onoc sweep …`) — thin lookups over
//!   the registry and the spec runner.
//!
//! # Example: a named experiment
//!
//! ```
//! use onoc_exp::{Registry, RunContext, Scale};
//!
//! let registry = Registry::standard();
//! let anchors = registry.get("anchors").unwrap();
//! let report = anchors.run(&RunContext::new(Scale::Smoke));
//! assert!(!report.tables().is_empty());
//! ```
//!
//! # Example: a declarative scenario
//!
//! ```
//! use onoc_exp::{ScenarioSpec, scenario::run_spec};
//!
//! let spec = ScenarioSpec::from_toml_str(r#"
//! name = "frugal-point"
//! scale = "smoke"
//!
//! [arch]
//! nodes = 16
//! wavelengths = 4
//!
//! [workload]
//! kind = "paper-app"
//!
//! [allocator]
//! kind = "counts"
//! counts = [1, 1, 1, 1, 1, 1]
//! "#).unwrap();
//! let report = run_spec(&spec, 2).unwrap();
//! assert_eq!(report.tables()[0].rows()[0][1], "38.0000"); // kcc anchor
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod bench;
pub mod diff;
pub mod experiment;
pub mod experiments;
pub mod scenario;
pub mod serve;
pub mod spec;
pub mod value;

pub use artifact::{Block, Report, Table};
pub use diff::{DiffReport, diff_reports};
pub use experiment::{Experiment, Registry, RunContext, default_threads};
pub use scenario::{ScenarioError, capture_trace, run_spec};
pub use serve::{build_requests, run_serve, service_config};
pub use spec::{
    AimdSpec, AllocatorSpec, ArchSpec, DefragKind, EnergySpec, FaultSpec, HealingSpec,
    HeuristicKind, KernelKind, ReportKind, Scale, ScenarioSpec, ScenarioSpecBuilder, ServiceSpec,
    SpecError, TelemetrySpec, TransportSpec, WorkloadSpec,
};
pub use value::{ParseError, Value};

#[cfg(test)]
mod tests {
    use super::*;
    use onoc_wa::ObjectiveSet;

    #[test]
    fn scale_reexport_is_the_exp_scale() {
        let quick = Scale::Quick.ga_config(ObjectiveSet::TimeBer, 2);
        assert_eq!(quick.population_size, 120);
        assert_eq!(quick.objectives, ObjectiveSet::TimeBer);
    }

    #[test]
    fn count_formatting_matches_paper_style() {
        assert_eq!(
            artifact::paper_counts(&[2, 8, 6, 6, 4, 7]),
            "[ 2. 8. 6. 6. 4. 7.]"
        );
    }
}
