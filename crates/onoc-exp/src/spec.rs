//! The declarative scenario API: one [`ScenarioSpec`] names a point in the
//! (architecture × workload × allocator × scale) design space.
//!
//! Specs are plain data: build them with [`ScenarioSpec::builder`], load
//! them from TOML-subset or JSON files ([`ScenarioSpec::from_toml_str`],
//! [`ScenarioSpec::from_json_str`]), and hand them to
//! [`run_spec`](crate::scenario::run_spec) — new scenarios need a file,
//! not a binary. Every spec round-trips exactly through both serializers.

use onoc_sim::{
    AimdParams, DynamicPolicy, EnergyModel, FaultPlan, FlowAllocPolicy, HealPolicy, HealingConfig,
    InjectionMode, LaneFault, StochasticFaults, TransportMode,
};
use onoc_topology::NodeId;
use onoc_traffic::TrafficPattern;
use onoc_wa::{GrantPolicy, Nsga2Config, ObjectiveSet};

use crate::value::{ParseError, Value};

/// How large the search/simulation runs should be.
///
/// This is the single scale knob of the workspace (the seven per-binary
/// copies of `Scale::from_env_and_args` collapsed here): GA population ×
/// generations, and a shrink factor experiments apply to horizons and
/// sample counts via [`Scale::pick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// The paper's configuration: population 400, 300 generations.
    #[default]
    Paper,
    /// A reduced configuration for smoke runs: population 120, 60
    /// generations.
    Quick,
    /// A minimal configuration for in-test registry sweeps: population
    /// 32, 12 generations.
    Smoke,
}

impl Scale {
    /// Resolves the scale from the process arguments (`--quick`) and the
    /// `ONOC_SCALE` / legacy `ONOC_BENCH_SCALE` environment variables
    /// (`paper` / `quick` / `smoke`). Defaults to [`Scale::Paper`].
    #[must_use]
    pub fn from_env_and_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            return Scale::Quick;
        }
        for var in ["ONOC_SCALE", "ONOC_BENCH_SCALE"] {
            if let Ok(v) = std::env::var(var) {
                if let Some(scale) = Self::from_name(&v.to_ascii_lowercase()) {
                    return scale;
                }
            }
        }
        Scale::Paper
    }

    /// Parses `paper` / `quick` / `smoke`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "paper" => Some(Scale::Paper),
            "quick" => Some(Scale::Quick),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }

    /// The machine-friendly name (`paper` / `quick` / `smoke`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Quick => "quick",
            Scale::Smoke => "smoke",
        }
    }

    /// The NSGA-II configuration for this scale.
    #[must_use]
    pub fn ga_config(self, objectives: ObjectiveSet, seed: u64) -> Nsga2Config {
        let (population_size, generations) = match self {
            Scale::Paper => (400, 300),
            Scale::Quick => (120, 60),
            Scale::Smoke => (32, 12),
        };
        Nsga2Config {
            population_size,
            generations,
            objectives,
            seed,
            ..Nsga2Config::default()
        }
    }

    /// Scale-dependent constant selection (horizons, sample counts, …).
    #[must_use]
    pub fn pick<T>(self, paper: T, quick: T, smoke: T) -> T {
        match self {
            Scale::Paper => paper,
            Scale::Quick => quick,
            Scale::Smoke => smoke,
        }
    }
}

impl core::fmt::Display for Scale {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Scale::Paper => write!(f, "paper (pop 400 × 300 gen)"),
            Scale::Quick => write!(f, "quick (pop 120 × 60 gen)"),
            Scale::Smoke => write!(f, "smoke (pop 32 × 12 gen)"),
        }
    }
}

/// The architecture axis: ring size and comb size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchSpec {
    /// Cores on the ring.
    pub nodes: usize,
    /// WDM channels in the comb (`N_W`).
    pub wavelengths: usize,
}

impl Default for ArchSpec {
    fn default() -> Self {
        Self {
            nodes: 16,
            wavelengths: 8,
        }
    }
}

/// Closed-loop kernel generators (mapped with a seeded random placement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// A linear chain of `stages` tasks.
    Pipeline,
    /// One source fanning out to `stages` workers and joining.
    ForkJoin,
    /// An FFT-style butterfly with `stages` levels (`2^stages` lanes).
    Butterfly,
    /// A binary reduction over `stages` leaves.
    ReductionTree,
}

impl KernelKind {
    /// The machine-friendly name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Pipeline => "pipeline",
            KernelKind::ForkJoin => "fork-join",
            KernelKind::Butterfly => "butterfly",
            KernelKind::ReductionTree => "reduction-tree",
        }
    }

    /// Parses [`KernelKind::name`] output.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "pipeline" => Some(KernelKind::Pipeline),
            "fork-join" => Some(KernelKind::ForkJoin),
            "butterfly" => Some(KernelKind::Butterfly),
            "reduction-tree" => Some(KernelKind::ReductionTree),
            _ => None,
        }
    }
}

/// The workload axis.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// The paper's 6-task virtual application on its hand mapping.
    PaperApp,
    /// A generated task-graph kernel on a seeded random mapping.
    Kernel {
        /// Which generator.
        kind: KernelKind,
        /// Stages / width / levels / leaves (generator-specific).
        stages: usize,
        /// Per-task execution time in kilocycles.
        exec_kcc: f64,
        /// Per-edge volume in kilobits.
        volume_kbits: f64,
        /// Seed for the random placement.
        mapping_seed: u64,
    },
    /// One open-loop synthetic-traffic scenario.
    Synthetic {
        /// Destination-selection rule.
        pattern: TrafficPattern,
        /// Mean messages per node per cycle, in `[0, 1]`.
        injection_rate: f64,
        /// Size of every message in bits.
        message_bits: f64,
        /// Injection window in cycles.
        horizon: u64,
        /// Optional `(mean_on, mean_off)` bursty ON-OFF injection.
        burstiness: Option<(f64, f64)>,
    },
    /// An external message trace replayed from a `cycle,src,dst,size`
    /// CSV file (see `onoc_traffic::TrafficTrace::from_csv_str`).
    Trace {
        /// Path of the CSV file. The `onoc` CLI resolves relative paths
        /// against the spec file's directory; `run_spec` itself uses the
        /// path as given (i.e. against the working directory).
        path: String,
    },
    /// A grid of open-loop scenarios (the saturation-sweep shape).
    Sweep {
        /// Patterns to sweep.
        patterns: Vec<TrafficPattern>,
        /// Injection rates to sweep.
        injection_rates: Vec<f64>,
        /// Comb sizes to sweep (overrides the arch wavelength count).
        wavelengths: Vec<usize>,
        /// Ring sizes to sweep (overrides the arch node count).
        ring_sizes: Vec<usize>,
        /// Message size in bits, shared by every scenario.
        message_bits: f64,
        /// Injection window in cycles.
        horizon: u64,
        /// Optional `(mean_on, mean_off)` bursty ON-OFF injection.
        burstiness: Option<(f64, f64)>,
    },
}

impl WorkloadSpec {
    /// The `kind` discriminator used in spec files.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            WorkloadSpec::PaperApp => "paper-app",
            WorkloadSpec::Kernel { .. } => "kernel",
            WorkloadSpec::Synthetic { .. } => "synthetic",
            WorkloadSpec::Trace { .. } => "trace",
            WorkloadSpec::Sweep { .. } => "sweep",
        }
    }
}

/// Classical single-solution wavelength-assignment heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeuristicKind {
    /// Lowest-indexed disjoint wavelength per communication.
    FirstFit,
    /// Prefer the most-reserved wavelength.
    MostUsed,
    /// Prefer the least-reserved wavelength.
    LeastUsed,
    /// Rejection-sampled random single wavelength.
    Random,
    /// Greedy makespan descent with pair lookahead.
    GreedyMakespan,
}

impl HeuristicKind {
    /// The machine-friendly name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HeuristicKind::FirstFit => "first-fit",
            HeuristicKind::MostUsed => "most-used",
            HeuristicKind::LeastUsed => "least-used",
            HeuristicKind::Random => "random",
            HeuristicKind::GreedyMakespan => "greedy-makespan",
        }
    }

    /// Parses [`HeuristicKind::name`] output.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "first-fit" => Some(HeuristicKind::FirstFit),
            "most-used" => Some(HeuristicKind::MostUsed),
            "least-used" => Some(HeuristicKind::LeastUsed),
            "random" => Some(HeuristicKind::Random),
            "greedy-makespan" => Some(HeuristicKind::GreedyMakespan),
            _ => None,
        }
    }

    /// Every heuristic, in presentation order.
    #[must_use]
    pub fn all() -> [HeuristicKind; 5] {
        [
            HeuristicKind::FirstFit,
            HeuristicKind::MostUsed,
            HeuristicKind::LeastUsed,
            HeuristicKind::Random,
            HeuristicKind::GreedyMakespan,
        ]
    }
}

/// The allocator axis.
#[derive(Debug, Clone, PartialEq)]
pub enum AllocatorSpec {
    /// The paper's NSGA-II search; population/generations default to the
    /// spec's [`Scale`] when `None`.
    Nsga2 {
        /// Population override.
        population: Option<usize>,
        /// Generation-count override.
        generations: Option<usize>,
    },
    /// A classical single-solution heuristic.
    Heuristic {
        /// Which heuristic.
        kind: HeuristicKind,
    },
    /// A fixed wavelength-count vector packed greedily (`NW_k` per
    /// communication).
    Counts {
        /// One count per communication.
        counts: Vec<usize>,
    },
    /// Runtime wavelength arbitration (open loop and closed loop).
    Dynamic {
        /// Claim policy per message/burst.
        policy: DynamicPolicy,
    },
    /// Design-time static flow map synthesised from the measured flow
    /// matrix of the workload's own trace, via the `onoc-wa` allocator.
    FlowSynthesis {
        /// Lane-sizing policy.
        policy: FlowAllocPolicy,
        /// Heal-aware spare lanes: how many of the comb's top lanes the
        /// synthesis holds out of the initial packing, leaving them
        /// free for mid-run re-homing after a lane loss (0 = pack the
        /// whole comb).
        spares: usize,
    },
    /// Naive striped static flow map (the pre-synthesis baseline).
    Striped {
        /// Consecutive lanes per flow.
        lanes_per_flow: usize,
    },
}

impl AllocatorSpec {
    /// The `kind` discriminator used in spec files.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            AllocatorSpec::Nsga2 { .. } => "nsga2",
            AllocatorSpec::Heuristic { .. } => "heuristic",
            AllocatorSpec::Counts { .. } => "counts",
            AllocatorSpec::Dynamic { .. } => "dynamic",
            AllocatorSpec::FlowSynthesis { .. } => "flow-synthesis",
            AllocatorSpec::Striped { .. } => "striped",
        }
    }
}

/// How a message-stream scenario retains per-message results
/// (the spec form of [`onoc_sim::ReportMode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportKind {
    /// Retain every record: exact quantiles, per-flow latency, conflict
    /// examples. Memory is `O(messages)`.
    #[default]
    Full,
    /// Fold retirements into fixed-size histograms as they happen:
    /// `O(bins + sources)` memory for paper-scale corpus runs, quantiles
    /// within one log bin of exact.
    Streaming,
}

impl ReportKind {
    /// The machine-friendly name (`full` / `streaming`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ReportKind::Full => "full",
            ReportKind::Streaming => "streaming",
        }
    }

    /// Parses [`ReportKind::name`] output.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "full" => Some(ReportKind::Full),
            "streaming" => Some(ReportKind::Streaming),
            _ => None,
        }
    }

    /// The engine-level report mode this spec value selects.
    #[must_use]
    pub fn mode(self) -> onoc_sim::ReportMode {
        match self {
            ReportKind::Full => onoc_sim::ReportMode::Full,
            ReportKind::Streaming => onoc_sim::ReportMode::Streaming,
        }
    }
}

/// The `[energy]` table: a named parameter preset plus per-coefficient
/// overrides, resolved into an [`EnergyModel`] at run time.
///
/// Every field that is `None` falls back to the preset's value, so the
/// document form round-trips exactly (only explicit overrides are
/// written back).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnergySpec {
    /// Override: electrical laser power per active wavelength, in mW
    /// (preset: derived from the architecture's mean path-loss budget).
    pub laser_mw: Option<f64>,
    /// Override: dynamic transmitter energy per bit, in fJ.
    pub tx_fj_per_bit: Option<f64>,
    /// Override: dynamic receiver energy per bit, in fJ.
    pub rx_fj_per_bit: Option<f64>,
    /// Override: thermal tuning power per micro-ring, in mW.
    pub mr_tuning_mw: Option<f64>,
    /// Override: core clock in GHz.
    pub clock_ghz: Option<f64>,
}

/// The only named preset so far (`preset = "paper"`): Table I devices on
/// the spec's architecture, [`onoc_photonics::EnergyParams::paper`]
/// coefficients, 1 GHz clock.
pub const ENERGY_PRESET_PAPER: &str = "paper";

impl EnergySpec {
    /// Resolves the spec into a concrete model for a `nodes`-core ring
    /// with a `wavelengths`-channel comb: the paper preset with this
    /// spec's overrides applied. When `laser_mw` is overridden, the
    /// preset's all-pairs power-budget derivation — whose only output is
    /// the laser power — is skipped entirely.
    #[must_use]
    pub fn resolve(&self, nodes: usize, wavelengths: usize) -> EnergyModel {
        let mut model = match self.laser_mw {
            Some(laser_mw) => {
                EnergyModel::new(laser_mw, onoc_photonics::EnergyParams::paper(), 1.0)
            }
            None => EnergyModel::paper(nodes, wavelengths),
        };
        if let Some(v) = self.tx_fj_per_bit {
            model.tx_fj_per_bit = v;
        }
        if let Some(v) = self.rx_fj_per_bit {
            model.rx_fj_per_bit = v;
        }
        if let Some(v) = self.mr_tuning_mw {
            model.mr_tuning_mw = v;
        }
        if let Some(v) = self.clock_ghz {
            model.clock_ghz = v;
        }
        model
    }

    fn validate(&self) -> Result<(), SpecError> {
        let positive = [
            ("energy.laser_mw", self.laser_mw),
            ("energy.clock_ghz", self.clock_ghz),
        ];
        for (field, v) in positive {
            if let Some(v) = v {
                if !(v.is_finite() && v > 0.0) {
                    return Err(SpecError::Invalid {
                        field,
                        message: format!("must be positive and finite, got {v}"),
                    });
                }
            }
        }
        let nonnegative = [
            ("energy.tx_fj_per_bit", self.tx_fj_per_bit),
            ("energy.rx_fj_per_bit", self.rx_fj_per_bit),
            ("energy.mr_tuning_mw", self.mr_tuning_mw),
        ];
        for (field, v) in nonnegative {
            if let Some(v) = v {
                if !(v.is_finite() && v >= 0.0) {
                    return Err(SpecError::Invalid {
                        field,
                        message: format!("must be finite and >= 0, got {v}"),
                    });
                }
            }
        }
        Ok(())
    }
}

/// The `[telemetry]` table: windowed time-series and attribution
/// telemetry for message-stream runs.
///
/// Every field that is `None` falls back to its default, so the
/// document form round-trips exactly (only explicit keys are written
/// back) — the same convention as [`EnergySpec`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySpec {
    /// Override: time-series window length in cycles
    /// (default [`TELEMETRY_DEFAULT_WINDOW`]).
    pub window: Option<u64>,
    /// Override: emit the per-flow attribution artifacts (retired bits
    /// and energy split per source→destination pair; default `true`).
    pub per_flow: Option<bool>,
    /// Chrome trace-event export path. Relative paths resolve against
    /// the spec file's directory; the `--export-chrome-trace` CLI flag
    /// overrides this key.
    pub chrome_trace: Option<String>,
}

/// Default [`TelemetrySpec`] window length, in cycles.
pub const TELEMETRY_DEFAULT_WINDOW: u64 = 256;

impl TelemetrySpec {
    /// The effective window length in cycles.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window.unwrap_or(TELEMETRY_DEFAULT_WINDOW)
    }

    /// Whether per-flow attribution artifacts are emitted.
    #[must_use]
    pub fn per_flow(&self) -> bool {
        self.per_flow.unwrap_or(true)
    }

    fn validate(&self) -> Result<(), SpecError> {
        if self.window == Some(0) {
            return Err(invalid("telemetry.window", "must be at least 1 cycle"));
        }
        if let Some(path) = &self.chrome_trace {
            if path.trim().is_empty() {
                return Err(invalid("telemetry.chrome_trace", "must name a JSON file"));
            }
        }
        Ok(())
    }
}

/// Defragmentation trigger of the `[service]` table (the spec form of
/// [`onoc_serve::DefragPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DefragKind {
    /// Never re-pack.
    #[default]
    Never,
    /// Re-pack when a grant fails below the free-run threshold.
    Threshold,
    /// Re-pack during idle gaps.
    Idle,
}

impl DefragKind {
    /// The machine name used in spec documents.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DefragKind::Never => "never",
            DefragKind::Threshold => "threshold",
            DefragKind::Idle => "idle",
        }
    }

    /// Parses the machine name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "never" => Some(DefragKind::Never),
            "threshold" => Some(DefragKind::Threshold),
            "idle" => Some(DefragKind::Idle),
            _ => None,
        }
    }
}

/// The `[service]` table: the online allocation-as-a-service loop
/// (`onoc serve`) — session churn against the live occupancy ledger.
///
/// With a synthetic workload the sessions are seeded Poisson churn
/// driven by `arrival_rate`/`mean_hold`/`max_demand`; with a trace
/// workload the recorded arrivals replay as sessions
/// (`trace_demand` lanes each, arrival clock scaled by `stretch`).
///
/// Every field that is `None` falls back to its default, so the
/// document form round-trips exactly (only explicit keys are written
/// back) — the same convention as [`TelemetrySpec`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceSpec {
    /// Override: Poisson sessions to offer
    /// (default [`SERVICE_DEFAULT_SESSIONS`]; ignored by trace replay).
    pub sessions: Option<usize>,
    /// Override: mean session arrivals per cycle (default
    /// [`SERVICE_DEFAULT_ARRIVAL_RATE`]; ignored by trace replay).
    pub arrival_rate: Option<f64>,
    /// Override: mean lane-holding time in cycles (default
    /// [`SERVICE_DEFAULT_MEAN_HOLD`]; ignored by trace replay).
    pub mean_hold: Option<f64>,
    /// Override: Poisson demands are uniform in `1..=max_demand`
    /// lanes (default 1; ignored by trace replay).
    pub max_demand: Option<usize>,
    /// Override: grant discipline (`"disjoint"` / `"shared"`,
    /// default disjoint).
    pub policy: Option<GrantPolicy>,
    /// Override: defrag trigger (`"never"` / `"threshold"` / `"idle"`,
    /// default never).
    pub defrag: Option<DefragKind>,
    /// Threshold trigger: re-pack when the largest contiguous free run
    /// falls below this fraction of the comb (default
    /// [`SERVICE_DEFAULT_DEFRAG_THRESHOLD`]; only with
    /// `defrag = "threshold"`).
    pub defrag_threshold: Option<f64>,
    /// Idle trigger: re-pack after this many event-free cycles
    /// (default [`SERVICE_DEFAULT_DEFRAG_IDLE`]; only with
    /// `defrag = "idle"`).
    pub defrag_idle: Option<u64>,
    /// Cycles a queued request may wait before it is blocked
    /// (default: wait forever).
    pub max_wait: Option<u64>,
    /// Trace replay: lanes each replayed session requests (default 1).
    pub trace_demand: Option<usize>,
    /// Trace replay: arrival-clock stretch factor (2.0 = half the
    /// offered load; default 1.0).
    pub stretch: Option<f64>,
}

/// Default [`ServiceSpec`] session count.
pub const SERVICE_DEFAULT_SESSIONS: usize = 1_000;
/// Default [`ServiceSpec`] arrival rate (sessions per cycle).
pub const SERVICE_DEFAULT_ARRIVAL_RATE: f64 = 0.02;
/// Default [`ServiceSpec`] mean hold time (cycles).
pub const SERVICE_DEFAULT_MEAN_HOLD: f64 = 400.0;
/// Default [`ServiceSpec`] threshold-defrag free-run floor.
pub const SERVICE_DEFAULT_DEFRAG_THRESHOLD: f64 = 0.25;
/// Default [`ServiceSpec`] idle-defrag gap (cycles).
pub const SERVICE_DEFAULT_DEFRAG_IDLE: u64 = 1_000;

impl ServiceSpec {
    /// The effective Poisson session count.
    #[must_use]
    pub fn sessions(&self) -> usize {
        self.sessions.unwrap_or(SERVICE_DEFAULT_SESSIONS)
    }

    /// The effective arrival rate (sessions per cycle).
    #[must_use]
    pub fn arrival_rate(&self) -> f64 {
        self.arrival_rate.unwrap_or(SERVICE_DEFAULT_ARRIVAL_RATE)
    }

    /// The effective mean hold time (cycles).
    #[must_use]
    pub fn mean_hold(&self) -> f64 {
        self.mean_hold.unwrap_or(SERVICE_DEFAULT_MEAN_HOLD)
    }

    /// The effective Poisson demand ceiling (lanes).
    #[must_use]
    pub fn max_demand(&self) -> usize {
        self.max_demand.unwrap_or(1)
    }

    /// The effective grant discipline.
    #[must_use]
    pub fn policy(&self) -> GrantPolicy {
        self.policy.unwrap_or(GrantPolicy::Disjoint)
    }

    /// The effective trace-replay demand (lanes per session).
    #[must_use]
    pub fn trace_demand(&self) -> usize {
        self.trace_demand.unwrap_or(1)
    }

    /// The effective trace-replay clock stretch.
    #[must_use]
    pub fn stretch(&self) -> f64 {
        self.stretch.unwrap_or(1.0)
    }

    /// The effective defrag policy, resolved to the service-layer type.
    #[must_use]
    pub fn defrag_policy(&self) -> onoc_serve::DefragPolicy {
        match self.defrag.unwrap_or_default() {
            DefragKind::Never => onoc_serve::DefragPolicy::Never,
            DefragKind::Threshold => onoc_serve::DefragPolicy::OnThreshold {
                min_free_run: self
                    .defrag_threshold
                    .unwrap_or(SERVICE_DEFAULT_DEFRAG_THRESHOLD),
            },
            DefragKind::Idle => onoc_serve::DefragPolicy::OnIdle {
                idle: self.defrag_idle.unwrap_or(SERVICE_DEFAULT_DEFRAG_IDLE),
            },
        }
    }

    fn validate(&self) -> Result<(), SpecError> {
        if self.sessions == Some(0) {
            return Err(invalid("service.sessions", "must offer at least 1 session"));
        }
        if let Some(rate) = self.arrival_rate
            && !(rate.is_finite() && rate > 0.0)
        {
            return Err(invalid("service.arrival_rate", "must be a positive rate"));
        }
        if let Some(hold) = self.mean_hold
            && !(hold.is_finite() && hold > 0.0)
        {
            return Err(invalid("service.mean_hold", "must be a positive duration"));
        }
        if self.max_demand == Some(0) {
            return Err(invalid("service.max_demand", "must be at least 1 lane"));
        }
        if let Some(th) = self.defrag_threshold {
            if !(th.is_finite() && th > 0.0 && th <= 1.0) {
                return Err(invalid("service.defrag_threshold", "must be in (0, 1]"));
            }
            if self.defrag != Some(DefragKind::Threshold) {
                return Err(invalid(
                    "service.defrag_threshold",
                    "applies to defrag = \"threshold\"",
                ));
            }
        }
        if let Some(idle) = self.defrag_idle {
            if idle == 0 {
                return Err(invalid("service.defrag_idle", "must be at least 1 cycle"));
            }
            if self.defrag != Some(DefragKind::Idle) {
                return Err(invalid(
                    "service.defrag_idle",
                    "applies to defrag = \"idle\"",
                ));
            }
        }
        if self.max_wait == Some(0) {
            return Err(invalid("service.max_wait", "must be at least 1 cycle"));
        }
        if self.trace_demand == Some(0) {
            return Err(invalid("service.trace_demand", "must be at least 1 lane"));
        }
        if let Some(stretch) = self.stretch
            && !(stretch.is_finite() && stretch > 0.0)
        {
            return Err(invalid("service.stretch", "must be a positive factor"));
        }
        Ok(())
    }
}

/// The `[faults]` table: lane outages and BER-driven corruption for
/// message-stream runs, resolved into a [`FaultPlan`] at run time.
///
/// Every field that is `None` falls back to its default, so the
/// document form round-trips exactly (only explicit keys are written
/// back) — the same convention as [`EnergySpec`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Override: fault-stream seed (default: the spec's master seed).
    pub seed: Option<u64>,
    /// Uniform bit-error rate in `[0, 1)` applied to every flow.
    /// Mutually exclusive with `ber_model`.
    pub ber: Option<f64>,
    /// Named per-flow BER derivation. The only model so far is
    /// [`FAULT_BER_MODEL_PAPER`]: each destination's worst-case
    /// crosstalk bound on the spec's architecture, pushed through the
    /// photonics SNR → BER chain.
    pub ber_model: Option<String>,
    /// Scheduled outages, as parallel arrays (all three keys given
    /// together, same length): the failed wavelength per outage...
    pub outage_lanes: Option<Vec<usize>>,
    /// ...the first down cycle per outage...
    pub outage_starts: Option<Vec<u64>>,
    /// ...and the outage length in cycles (0 means the lane never
    /// recovers).
    pub outage_durations: Option<Vec<u64>>,
    /// Stochastic MR-failure process: mean cycles between failures of
    /// one lane. Given together with `mean_down` and `fault_horizon`.
    pub mean_up: Option<f64>,
    /// Mean outage length in cycles.
    pub mean_down: Option<f64>,
    /// No new stochastic failures start at or past this cycle.
    pub fault_horizon: Option<u64>,
    /// Per-lane Gilbert–Elliott burst-error channel: good→bad switch
    /// probability per cycle, in `(0, 1]`. All four `ge_*` keys are
    /// given together; mutually exclusive with `ber` and `ber_model`.
    pub ge_p_gb: Option<f64>,
    /// Bad→good switch probability per cycle, in `(0, 1]`.
    pub ge_p_bg: Option<f64>,
    /// Per-bit error rate while a lane sits in the good state, in
    /// `[0, 1)`.
    pub ge_ber_good: Option<f64>,
    /// Per-bit error rate while a lane sits in the bad state, in
    /// `[0, 1)` and at least `ge_ber_good`.
    pub ge_ber_bad: Option<f64>,
}

/// The only named per-flow BER model so far (`ber_model = "paper"`):
/// Table I devices on the spec's architecture, worst-case crosstalk per
/// destination, `PaperDb` BER convention.
pub const FAULT_BER_MODEL_PAPER: &str = "paper";

impl FaultSpec {
    /// Resolves the table into a concrete plan for a `nodes`-core ring
    /// with a `wavelengths`-channel comb. `spec_seed` seeds the fault
    /// streams when the table has no seed of its own.
    #[must_use]
    pub fn resolve(&self, spec_seed: u64, nodes: usize, wavelengths: usize) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed.unwrap_or(spec_seed));
        if let Some(ber) = self.ber {
            plan = plan.with_ber(ber);
        }
        if self.ber_model.is_some() {
            plan = plan.with_per_flow_ber(paper_path_bers(nodes, wavelengths));
        }
        if let (Some(p_gb), Some(p_bg), Some(ber_good), Some(ber_bad)) = (
            self.ge_p_gb,
            self.ge_p_bg,
            self.ge_ber_good,
            self.ge_ber_bad,
        ) {
            plan = plan.with_gilbert_elliott(p_gb, p_bg, ber_good, ber_bad);
        }
        if let (Some(lanes), Some(starts), Some(durations)) = (
            &self.outage_lanes,
            &self.outage_starts,
            &self.outage_durations,
        ) {
            for ((&lane, &at), &duration) in lanes.iter().zip(starts).zip(durations) {
                plan = plan.with_scheduled(LaneFault {
                    lane,
                    at,
                    duration: if duration == 0 { u64::MAX } else { duration },
                });
            }
        }
        if let (Some(mean_up), Some(mean_down), Some(horizon)) =
            (self.mean_up, self.mean_down, self.fault_horizon)
        {
            plan = plan.with_stochastic(StochasticFaults {
                mean_up,
                mean_down,
                horizon,
            });
        }
        plan
    }

    fn validate(&self, max_lane: usize) -> Result<(), SpecError> {
        if let Some(ber) = self.ber {
            if !(ber.is_finite() && (0.0..1.0).contains(&ber)) {
                return Err(invalid(
                    "faults.ber",
                    format!("must be in [0, 1), got {ber}"),
                ));
            }
            if self.ber_model.is_some() {
                return Err(invalid(
                    "faults.ber",
                    "ber and ber_model are mutually exclusive",
                ));
            }
        }
        if let Some(model) = &self.ber_model {
            if model != FAULT_BER_MODEL_PAPER {
                return Err(invalid(
                    "faults.ber_model",
                    format!("unknown model {model:?} (only \"paper\" is defined)"),
                ));
            }
        }
        let given = [
            self.outage_lanes.is_some(),
            self.outage_starts.is_some(),
            self.outage_durations.is_some(),
        ];
        if given.iter().any(|g| *g) && !given.iter().all(|g| *g) {
            return Err(invalid(
                "faults.outage_lanes",
                "outage_lanes, outage_starts and outage_durations must be given together",
            ));
        }
        if let (Some(lanes), Some(starts), Some(durations)) = (
            &self.outage_lanes,
            &self.outage_starts,
            &self.outage_durations,
        ) {
            if lanes.len() != starts.len() || lanes.len() != durations.len() {
                return Err(invalid(
                    "faults.outage_lanes",
                    "the outage arrays must have the same length",
                ));
            }
            for &lane in lanes {
                if lane >= max_lane {
                    return Err(invalid(
                        "faults.outage_lanes",
                        format!("lane {lane} is outside the {max_lane}-channel comb"),
                    ));
                }
            }
        }
        let given = [
            self.mean_up.is_some(),
            self.mean_down.is_some(),
            self.fault_horizon.is_some(),
        ];
        if given.iter().any(|g| *g) && !given.iter().all(|g| *g) {
            return Err(invalid(
                "faults.mean_up",
                "mean_up, mean_down and fault_horizon must be given together",
            ));
        }
        for (field, v) in [
            ("faults.mean_up", self.mean_up),
            ("faults.mean_down", self.mean_down),
        ] {
            if let Some(v) = v {
                if !(v.is_finite() && v > 0.0) {
                    return Err(SpecError::Invalid {
                        field,
                        message: format!("must be positive and finite, got {v}"),
                    });
                }
            }
        }
        let given = [
            self.ge_p_gb.is_some(),
            self.ge_p_bg.is_some(),
            self.ge_ber_good.is_some(),
            self.ge_ber_bad.is_some(),
        ];
        if given.iter().any(|g| *g) && !given.iter().all(|g| *g) {
            return Err(invalid(
                "faults.ge_p_gb",
                "ge_p_gb, ge_p_bg, ge_ber_good and ge_ber_bad must be given together",
            ));
        }
        if let (Some(p_gb), Some(p_bg), Some(ber_good), Some(ber_bad)) = (
            self.ge_p_gb,
            self.ge_p_bg,
            self.ge_ber_good,
            self.ge_ber_bad,
        ) {
            if self.ber.is_some() || self.ber_model.is_some() {
                return Err(invalid(
                    "faults.ge_p_gb",
                    "the Gilbert–Elliott channel is mutually exclusive with ber/ber_model",
                ));
            }
            for (field, p) in [("faults.ge_p_gb", p_gb), ("faults.ge_p_bg", p_bg)] {
                if !(p.is_finite() && p > 0.0 && p <= 1.0) {
                    return Err(SpecError::Invalid {
                        field,
                        message: format!("must be in (0, 1], got {p}"),
                    });
                }
            }
            for (field, ber) in [
                ("faults.ge_ber_good", ber_good),
                ("faults.ge_ber_bad", ber_bad),
            ] {
                if !(ber.is_finite() && (0.0..1.0).contains(&ber)) {
                    return Err(SpecError::Invalid {
                        field,
                        message: format!("must be in [0, 1), got {ber}"),
                    });
                }
            }
            if ber_bad < ber_good {
                return Err(invalid(
                    "faults.ge_ber_bad",
                    format!("bad-state BER {ber_bad} below good-state BER {ber_good}"),
                ));
            }
        }
        Ok(())
    }
}

/// Per-flow worst-case path BERs on the near-square paper architecture:
/// for every destination, the noisiest channel of its receiver stack's
/// crosstalk bound (whole-ring signal travel, all interferers active),
/// shared by every source targeting it.
#[must_use]
pub fn paper_path_bers(nodes: usize, wavelengths: usize) -> Vec<f64> {
    use onoc_topology::{Direction, NodeId, OnocArchitecture, worst_case_bounds};
    let (rows, cols) = OnocArchitecture::near_square_grid(nodes);
    let arch = OnocArchitecture::builder()
        .grid_dimensions(rows, cols)
        .wavelengths(wavelengths)
        .build()
        .expect("near-square paper grids are valid architectures");
    let p0 = arch.laser().power_off().to_milliwatts();
    let mut bers = vec![0.0; nodes * nodes];
    for dst in 0..nodes {
        let worst_log = worst_case_bounds(&arch, NodeId(dst), Direction::Clockwise)
            .iter()
            .map(|b| b.worst_log_ber(p0, onoc_photonics::BerConvention::PaperDb))
            .fold(f64::NEG_INFINITY, f64::max);
        // The bound is conservative but a BER is still a probability.
        let ber = 10f64.powf(worst_log).min(0.5);
        for src in 0..nodes {
            if src != dst {
                bers[src * nodes + dst] = ber;
            }
        }
    }
    bers
}

/// The `[healing]` table: the self-healing re-allocation policy the
/// open-loop engine invokes at each lane-down quiesce point, resolved
/// into a [`HealingConfig`] at run time.
///
/// Every field that is `None` falls back to its default (traffic parks
/// until the lane recovers; no degradation trigger), so the document
/// form round-trips exactly — the same convention as [`FaultSpec`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealingSpec {
    /// Heal policy name: `"park"` (the default), `"re-pack-strict"`,
    /// or `"re-pack-relaxed"` (alias `"re-pack"`). Re-pack policies
    /// re-synthesise a static flow map, so they need a `striped` or
    /// `flow-synthesis` allocator.
    pub policy: Option<String>,
    /// Gilbert–Elliott degradation trigger in `(0, 1)`: quarantine a
    /// lane for the rest of its bad sojourn when a corrupted attempt
    /// sees a bad-state BER at or above this threshold. Inert without
    /// the `ge_*` keys of the `[faults]` table.
    pub ber_threshold: Option<f64>,
}

impl HealingSpec {
    /// Resolves the table into the engine's healing configuration.
    #[must_use]
    pub fn resolve(&self) -> HealingConfig {
        HealingConfig {
            policy: self.policy(),
            ber_threshold: self.ber_threshold,
        }
    }

    /// The heal policy the table resolves to (the parked default when
    /// the key is absent).
    #[must_use]
    pub fn policy(&self) -> HealPolicy {
        self.policy
            .as_deref()
            .and_then(HealPolicy::parse)
            .unwrap_or_default()
    }

    fn validate(&self) -> Result<(), SpecError> {
        if let Some(policy) = &self.policy
            && HealPolicy::parse(policy).is_none()
        {
            return Err(invalid(
                "healing.policy",
                format!(
                    "unknown heal policy {policy:?} \
                     (park, re-pack-strict, re-pack-relaxed)"
                ),
            ));
        }
        if let Some(th) = self.ber_threshold
            && !(th.is_finite() && th > 0.0 && th < 1.0)
        {
            return Err(invalid(
                "healing.ber_threshold",
                format!("must be in (0, 1), got {th}"),
            ));
        }
        Ok(())
    }
}

/// The `[transport]` table: a reliable-transport recovery mode plus
/// per-parameter overrides, resolved into a [`TransportMode`] at run
/// time. Every field that is `None` falls back to the mode's preset
/// ([`TransportMode::go_back_n`] / [`TransportMode::pfc`]), so the
/// document form round-trips exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportSpec {
    /// Go-back-N ARQ (`mode = "gbn"`).
    GoBackN {
        /// Override: maximum unacknowledged messages per flow.
        window: Option<usize>,
        /// Override: NACK round trip in cycles.
        nack_delay: Option<u64>,
        /// Override: sender timeout in cycles.
        timeout: Option<u64>,
        /// Override: retransmissions allowed per message.
        max_retries: Option<u32>,
    },
    /// PFC-style lossless backpressure (`mode = "pfc"`).
    Pfc {
        /// Override: maximum in-flight messages per destination.
        dst_window: Option<usize>,
        /// Override: retransmissions allowed per message.
        max_retries: Option<u32>,
    },
}

impl TransportSpec {
    /// The `mode` discriminator used in spec files.
    #[must_use]
    pub fn mode(&self) -> &'static str {
        match self {
            TransportSpec::GoBackN { .. } => "gbn",
            TransportSpec::Pfc { .. } => "pfc",
        }
    }

    /// Resolves the table into a concrete mode: the preset with this
    /// spec's overrides applied.
    #[must_use]
    pub fn resolve(&self) -> TransportMode {
        match self {
            TransportSpec::GoBackN {
                window,
                nack_delay,
                timeout,
                max_retries,
            } => {
                let TransportMode::GoBackN {
                    window: dw,
                    nack_delay: dn,
                    timeout: dt,
                    max_retries: dr,
                } = TransportMode::go_back_n()
                else {
                    unreachable!("the preset is go-back-N")
                };
                TransportMode::GoBackN {
                    window: window.unwrap_or(dw),
                    nack_delay: nack_delay.unwrap_or(dn),
                    timeout: timeout.unwrap_or(dt),
                    max_retries: max_retries.unwrap_or(dr),
                }
            }
            TransportSpec::Pfc {
                dst_window,
                max_retries,
            } => {
                let TransportMode::Pfc {
                    dst_window: dw,
                    max_retries: dr,
                } = TransportMode::pfc()
                else {
                    unreachable!("the preset is PFC")
                };
                TransportMode::Pfc {
                    dst_window: dst_window.unwrap_or(dw),
                    max_retries: max_retries.unwrap_or(dr),
                }
            }
        }
    }

    fn validate(&self) -> Result<(), SpecError> {
        match self {
            TransportSpec::GoBackN {
                window, timeout, ..
            } => {
                if *window == Some(0) {
                    return Err(invalid("transport.window", "must be at least 1"));
                }
                if *timeout == Some(0) {
                    return Err(invalid("transport.timeout", "must be at least 1 cycle"));
                }
            }
            TransportSpec::Pfc { dst_window, .. } => {
                if *dst_window == Some(0) {
                    return Err(invalid("transport.dst_window", "must be at least 1"));
                }
            }
        }
        Ok(())
    }
}

/// ECN AIMD pacing overrides, carried in the `[injection]` table
/// (`aimd_step` / `aimd_md_factor` / `aimd_min_factor` keys). Every
/// field that is `None` falls back to [`AimdParams::default`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AimdSpec {
    /// Override: additive-increase step per unmarked delivery.
    pub additive_step: Option<f64>,
    /// Override: multiplicative-decrease factor per marked delivery.
    pub md_factor: Option<f64>,
    /// Override: floor of the rate factor.
    pub min_factor: Option<f64>,
}

impl AimdSpec {
    /// `true` when no key is overridden.
    #[must_use]
    pub fn is_default(&self) -> bool {
        *self == AimdSpec::default()
    }

    /// Resolves the overrides over [`AimdParams::default`].
    #[must_use]
    pub fn resolve(&self) -> AimdParams {
        let d = AimdParams::default();
        AimdParams {
            additive_step: self.additive_step.unwrap_or(d.additive_step),
            md_factor: self.md_factor.unwrap_or(d.md_factor),
            min_factor: self.min_factor.unwrap_or(d.min_factor),
        }
    }

    fn validate(&self) -> Result<(), SpecError> {
        if let Some(v) = self.additive_step {
            if !(v.is_finite() && v > 0.0 && v <= 1.0) {
                return Err(invalid("injection.aimd_step", "must be in (0, 1]"));
            }
        }
        if let Some(v) = self.md_factor {
            if !(v.is_finite() && v > 0.0 && v < 1.0) {
                return Err(invalid("injection.aimd_md_factor", "must be in (0, 1)"));
            }
        }
        if let Some(v) = self.min_factor {
            if !(v.is_finite() && v > 0.0 && v <= 1.0) {
                return Err(invalid("injection.aimd_min_factor", "must be in (0, 1]"));
            }
        }
        Ok(())
    }
}

/// Why a spec could not be built or parsed.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document did not parse.
    Parse(ParseError),
    /// A required field is absent.
    Missing {
        /// Dotted path of the field.
        field: &'static str,
    },
    /// A field is present but unusable.
    Invalid {
        /// Dotted path of the field.
        field: &'static str,
        /// What is wrong with it.
        message: String,
    },
    /// The workload/allocator combination has no defined semantics.
    Incompatible {
        /// Workload kind.
        workload: &'static str,
        /// Allocator kind.
        allocator: &'static str,
    },
    /// The document carries a key the schema does not know.
    UnknownKey {
        /// The key as written.
        key: String,
        /// The known key nearest to it by edit distance.
        nearest: &'static str,
    },
}

impl core::fmt::Display for SpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpecError::Parse(e) => write!(f, "spec parse error: {e}"),
            SpecError::Missing { field } => write!(f, "spec is missing required field `{field}`"),
            SpecError::Invalid { field, message } => write!(f, "spec field `{field}`: {message}"),
            SpecError::Incompatible {
                workload,
                allocator,
            } => write!(
                f,
                "a `{workload}` workload cannot run under a `{allocator}` allocator"
            ),
            SpecError::UnknownKey { key, nearest } => write!(
                f,
                "spec has unknown key `{key}` (the nearest known key is `{nearest}`)"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<ParseError> for SpecError {
    fn from(e: ParseError) -> Self {
        SpecError::Parse(e)
    }
}

/// A complete, validated experiment scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Human-readable scenario name (also the artifact prefix).
    pub name: String,
    /// Master seed for everything the scenario randomises.
    pub seed: u64,
    /// Search/simulation scale.
    pub scale: Scale,
    /// Objectives driving GA dominance (ignored by non-GA allocators).
    pub objectives: ObjectiveSet,
    /// Architecture axis.
    pub arch: ArchSpec,
    /// Workload axis.
    pub workload: WorkloadSpec,
    /// Allocator axis.
    pub allocator: AllocatorSpec,
    /// Injection policy for message-stream workloads (open loop by
    /// default; ignored by the closed task-graph workloads, which are
    /// dependence-gated by construction).
    pub injection: InjectionMode,
    /// Report retention for message-stream workloads (`full` by
    /// default; `streaming` runs paper-scale corpora in
    /// `O(bins + sources)` memory).
    pub report: ReportKind,
    /// Optional `[energy]` table. When present, message-stream runs fold
    /// an [`EnergyReport`](onoc_sim::EnergyReport) with the resolved
    /// model; when absent, the paper preset is used for the artifact's
    /// energy columns.
    pub energy: Option<EnergySpec>,
    /// Optional `[telemetry]` table. When present, single message-stream
    /// runs additionally fold a windowed
    /// [`TimeSeries`](onoc_sim::TimeSeries) (plus per-source and
    /// per-flow attribution artifacts) and can export a Chrome trace.
    pub telemetry: Option<TelemetrySpec>,
    /// ECN AIMD pacing overrides, carried as `aimd_*` keys of the
    /// `[injection]` table (defaults when untouched; only meaningful in
    /// ECN mode).
    pub aimd: AimdSpec,
    /// Optional `[faults]` table: lane outages and BER corruption for
    /// message-stream runs.
    pub faults: Option<FaultSpec>,
    /// Optional `[transport]` table: reliable-transport recovery for
    /// message-stream runs.
    pub transport: Option<TransportSpec>,
    /// Optional `[healing]` table: mid-run wavelength re-synthesis on
    /// lane failure for message-stream runs.
    pub healing: Option<HealingSpec>,
    /// Optional `[service]` table: the online allocation-as-a-service
    /// loop (`onoc serve`) — session churn against the live occupancy
    /// ledger.
    pub service: Option<ServiceSpec>,
}

impl ScenarioSpec {
    /// Starts a builder with the paper's defaults (16 nodes, 8 λ, paper
    /// app, NSGA-II, seed 2017, paper scale).
    #[must_use]
    pub fn builder(name: impl Into<String>) -> ScenarioSpecBuilder {
        ScenarioSpecBuilder {
            name: name.into(),
            seed: 2017,
            scale: Scale::Paper,
            objectives: ObjectiveSet::TimeEnergy,
            arch: ArchSpec::default(),
            workload: WorkloadSpec::PaperApp,
            allocator: AllocatorSpec::Nsga2 {
                population: None,
                generations: None,
            },
            injection: InjectionMode::Open,
            report: ReportKind::Full,
            energy: None,
            telemetry: None,
            aimd: AimdSpec::default(),
            faults: None,
            transport: None,
            healing: None,
            service: None,
        }
    }

    /// Parses a TOML-subset spec document.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] on parse or validation failure.
    pub fn from_toml_str(input: &str) -> Result<Self, SpecError> {
        Self::from_value(&Value::parse_toml(input)?)
    }

    /// Parses a JSON spec document.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] on parse or validation failure.
    pub fn from_json_str(input: &str) -> Result<Self, SpecError> {
        Self::from_value(&Value::parse_json(input)?)
    }

    /// Serializes as a TOML-subset document.
    #[must_use]
    pub fn to_toml(&self) -> String {
        self.to_value().to_toml()
    }

    /// Serializes as JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// The document form of this spec.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut root = Value::table();
        root.insert("name", self.name.as_str());
        root.insert("seed", self.seed);
        root.insert("scale", self.scale.name());
        root.insert("objectives", objectives_name(self.objectives));
        if self.report != ReportKind::Full {
            root.insert("report", self.report.name());
        }

        let mut arch = Value::table();
        arch.insert("nodes", self.arch.nodes);
        arch.insert("wavelengths", self.arch.wavelengths);
        root.insert("arch", arch);

        let mut workload = Value::table();
        workload.insert("kind", self.workload.kind());
        match &self.workload {
            WorkloadSpec::PaperApp => {}
            WorkloadSpec::Trace { path } => {
                workload.insert("path", path.as_str());
            }
            WorkloadSpec::Kernel {
                kind,
                stages,
                exec_kcc,
                volume_kbits,
                mapping_seed,
            } => {
                workload.insert("kernel", kind.name());
                workload.insert("stages", *stages);
                workload.insert("exec_kcc", *exec_kcc);
                workload.insert("volume_kbits", *volume_kbits);
                workload.insert("mapping_seed", *mapping_seed);
            }
            WorkloadSpec::Synthetic {
                pattern,
                injection_rate,
                message_bits,
                horizon,
                burstiness,
            } => {
                write_pattern(&mut workload, pattern);
                workload.insert("injection_rate", *injection_rate);
                workload.insert("message_bits", *message_bits);
                workload.insert("horizon", *horizon);
                write_burstiness(&mut workload, *burstiness);
            }
            WorkloadSpec::Sweep {
                patterns,
                injection_rates,
                wavelengths,
                ring_sizes,
                message_bits,
                horizon,
                burstiness,
            } => {
                let mut names = Vec::new();
                for p in patterns {
                    if let TrafficPattern::Hotspot { hotspots, fraction } = p {
                        workload
                            .insert("hotspots", hotspots.iter().map(|h| h.0).collect::<Vec<_>>());
                        workload.insert("fraction", *fraction);
                    }
                    names.push(pattern_name(p));
                }
                workload.insert("patterns", names);
                workload.insert("injection_rates", injection_rates.clone());
                workload.insert("wavelengths", wavelengths.clone());
                workload.insert("ring_sizes", ring_sizes.clone());
                workload.insert("message_bits", *message_bits);
                workload.insert("horizon", *horizon);
                write_burstiness(&mut workload, *burstiness);
            }
        }
        root.insert("workload", workload);

        let mut allocator = Value::table();
        allocator.insert("kind", self.allocator.kind());
        match &self.allocator {
            AllocatorSpec::Nsga2 {
                population,
                generations,
            } => {
                if let Some(p) = population {
                    allocator.insert("population", *p);
                }
                if let Some(g) = generations {
                    allocator.insert("generations", *g);
                }
            }
            AllocatorSpec::Heuristic { kind } => allocator.insert("name", kind.name()),
            AllocatorSpec::Counts { counts } => allocator.insert("counts", counts.clone()),
            AllocatorSpec::Dynamic { policy } => match policy {
                DynamicPolicy::Single => allocator.insert("policy", "single"),
                DynamicPolicy::Greedy { cap } => {
                    allocator.insert("policy", "greedy");
                    allocator.insert("cap", *cap);
                }
            },
            AllocatorSpec::FlowSynthesis { policy, spares } => {
                match policy {
                    FlowAllocPolicy::FirstFit => allocator.insert("policy", "first-fit"),
                    FlowAllocPolicy::Relaxed => allocator.insert("policy", "relaxed"),
                    FlowAllocPolicy::Proportional { max_lanes_per_flow } => {
                        allocator.insert("policy", "proportional");
                        allocator.insert("max_lanes_per_flow", *max_lanes_per_flow);
                    }
                }
                if *spares != 0 {
                    allocator.insert("spares", *spares);
                }
            }
            AllocatorSpec::Striped { lanes_per_flow } => {
                allocator.insert("lanes_per_flow", *lanes_per_flow);
            }
        }
        root.insert("allocator", allocator);

        if self.injection != InjectionMode::Open {
            let mut injection = Value::table();
            injection.insert("mode", self.injection.name());
            match self.injection {
                InjectionMode::Open => unreachable!("open mode is the omitted default"),
                InjectionMode::Credit { window } | InjectionMode::CreditPerDst { window } => {
                    injection.insert("credit_window", window);
                }
                InjectionMode::Ecn { threshold } => injection.insert("ecn_threshold", threshold),
            }
            let overrides = [
                ("aimd_step", self.aimd.additive_step),
                ("aimd_md_factor", self.aimd.md_factor),
                ("aimd_min_factor", self.aimd.min_factor),
            ];
            for (key, v) in overrides {
                if let Some(v) = v {
                    injection.insert(key, v);
                }
            }
            root.insert("injection", injection);
        }
        if let Some(energy) = &self.energy {
            let mut table = Value::table();
            table.insert("preset", ENERGY_PRESET_PAPER);
            let overrides = [
                ("laser_mw", energy.laser_mw),
                ("tx_fj_per_bit", energy.tx_fj_per_bit),
                ("rx_fj_per_bit", energy.rx_fj_per_bit),
                ("mr_tuning_mw", energy.mr_tuning_mw),
                ("clock_ghz", energy.clock_ghz),
            ];
            for (key, v) in overrides {
                if let Some(v) = v {
                    table.insert(key, v);
                }
            }
            root.insert("energy", table);
        }
        if let Some(telemetry) = &self.telemetry {
            let mut table = Value::table();
            if let Some(window) = telemetry.window {
                table.insert("window", window);
            }
            if let Some(per_flow) = telemetry.per_flow {
                table.insert("per_flow", per_flow);
            }
            if let Some(path) = &telemetry.chrome_trace {
                table.insert("chrome_trace", path.clone());
            }
            root.insert("telemetry", table);
        }
        if let Some(faults) = &self.faults {
            let mut table = Value::table();
            if let Some(seed) = faults.seed {
                table.insert("seed", seed);
            }
            if let Some(ber) = faults.ber {
                table.insert("ber", ber);
            }
            if let Some(model) = &faults.ber_model {
                table.insert("ber_model", model.clone());
            }
            if let Some(lanes) = &faults.outage_lanes {
                table.insert("outage_lanes", lanes.clone());
            }
            if let Some(starts) = &faults.outage_starts {
                table.insert("outage_starts", starts.clone());
            }
            if let Some(durations) = &faults.outage_durations {
                table.insert("outage_durations", durations.clone());
            }
            if let Some(v) = faults.mean_up {
                table.insert("mean_up", v);
            }
            if let Some(v) = faults.mean_down {
                table.insert("mean_down", v);
            }
            if let Some(v) = faults.fault_horizon {
                table.insert("fault_horizon", v);
            }
            let ge = [
                ("ge_p_gb", faults.ge_p_gb),
                ("ge_p_bg", faults.ge_p_bg),
                ("ge_ber_good", faults.ge_ber_good),
                ("ge_ber_bad", faults.ge_ber_bad),
            ];
            for (key, v) in ge {
                if let Some(v) = v {
                    table.insert(key, v);
                }
            }
            root.insert("faults", table);
        }
        if let Some(transport) = &self.transport {
            let mut table = Value::table();
            table.insert("mode", transport.mode());
            match transport {
                TransportSpec::GoBackN {
                    window,
                    nack_delay,
                    timeout,
                    max_retries,
                } => {
                    if let Some(v) = window {
                        table.insert("window", *v);
                    }
                    if let Some(v) = nack_delay {
                        table.insert("nack_delay", *v);
                    }
                    if let Some(v) = timeout {
                        table.insert("timeout", *v);
                    }
                    if let Some(v) = max_retries {
                        table.insert("max_retries", u64::from(*v));
                    }
                }
                TransportSpec::Pfc {
                    dst_window,
                    max_retries,
                } => {
                    if let Some(v) = dst_window {
                        table.insert("dst_window", *v);
                    }
                    if let Some(v) = max_retries {
                        table.insert("max_retries", u64::from(*v));
                    }
                }
            }
            root.insert("transport", table);
        }
        if let Some(healing) = &self.healing {
            let mut table = Value::table();
            if let Some(policy) = &healing.policy {
                table.insert("policy", policy.clone());
            }
            if let Some(th) = healing.ber_threshold {
                table.insert("ber_threshold", th);
            }
            root.insert("healing", table);
        }
        if let Some(service) = &self.service {
            let mut table = Value::table();
            if let Some(sessions) = service.sessions {
                table.insert("sessions", sessions);
            }
            if let Some(rate) = service.arrival_rate {
                table.insert("arrival_rate", rate);
            }
            if let Some(hold) = service.mean_hold {
                table.insert("mean_hold", hold);
            }
            if let Some(demand) = service.max_demand {
                table.insert("max_demand", demand);
            }
            if let Some(policy) = service.policy {
                table.insert("policy", policy.name());
            }
            if let Some(defrag) = service.defrag {
                table.insert("defrag", defrag.name());
            }
            if let Some(th) = service.defrag_threshold {
                table.insert("defrag_threshold", th);
            }
            if let Some(idle) = service.defrag_idle {
                table.insert("defrag_idle", idle);
            }
            if let Some(wait) = service.max_wait {
                table.insert("max_wait", wait);
            }
            if let Some(demand) = service.trace_demand {
                table.insert("trace_demand", demand);
            }
            if let Some(stretch) = service.stretch {
                table.insert("stretch", stretch);
            }
            root.insert("service", table);
        }
        root
    }

    /// Reads and validates a spec from its document form.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when fields are missing or malformed, the
    /// root carries a key the schema does not know, or the combination
    /// is invalid.
    pub fn from_value(value: &Value) -> Result<Self, SpecError> {
        check_root_keys(value)?;
        let name = req_str(value, "name")?.to_string();
        let seed = opt_u64(value, "seed")?.unwrap_or(2017);
        let scale = match value.get("scale") {
            None => Scale::Paper,
            Some(v) => {
                let raw = v.as_str().ok_or_else(|| invalid("scale", "not a string"))?;
                Scale::from_name(raw)
                    .ok_or_else(|| invalid("scale", format!("unknown scale {raw:?}")))?
            }
        };
        let objectives = match value.get("objectives") {
            None => ObjectiveSet::TimeEnergy,
            Some(v) => {
                let raw = v
                    .as_str()
                    .ok_or_else(|| invalid("objectives", "not a string"))?;
                objectives_from_name(raw)
                    .ok_or_else(|| invalid("objectives", format!("unknown set {raw:?}")))?
            }
        };
        let arch = match value.get("arch") {
            None => ArchSpec::default(),
            Some(a) => ArchSpec {
                nodes: opt_usize_in(a, "arch.nodes", "nodes")?.unwrap_or(16),
                wavelengths: opt_usize_in(a, "arch.wavelengths", "wavelengths")?.unwrap_or(8),
            },
        };
        let workload = parse_workload(
            value
                .get("workload")
                .ok_or(SpecError::Missing { field: "workload" })?,
        )?;
        let allocator = parse_allocator(
            value
                .get("allocator")
                .ok_or(SpecError::Missing { field: "allocator" })?,
        )?;
        let (injection, aimd) = match value.get("injection") {
            None => (InjectionMode::Open, AimdSpec::default()),
            Some(table) => parse_injection(table)?,
        };
        let report = match value.get("report") {
            None => ReportKind::Full,
            Some(v) => {
                let raw = v
                    .as_str()
                    .ok_or_else(|| invalid("report", "not a string"))?;
                ReportKind::from_name(raw)
                    .ok_or_else(|| invalid("report", format!("unknown report mode {raw:?}")))?
            }
        };
        let energy = match value.get("energy") {
            None => None,
            Some(table) => Some(parse_energy(table)?),
        };
        let telemetry = match value.get("telemetry") {
            None => None,
            Some(table) => Some(parse_telemetry(table)?),
        };
        let faults = match value.get("faults") {
            None => None,
            Some(table) => Some(parse_faults(table)?),
        };
        let transport = match value.get("transport") {
            None => None,
            Some(table) => Some(parse_transport(table)?),
        };
        let healing = match value.get("healing") {
            None => None,
            Some(table) => Some(parse_healing(table)?),
        };
        let service = match value.get("service") {
            None => None,
            Some(table) => Some(parse_service(table)?),
        };
        ScenarioSpecBuilder {
            name,
            seed,
            scale,
            objectives,
            arch,
            workload,
            allocator,
            injection,
            report,
            energy,
            telemetry,
            aimd,
            faults,
            transport,
            healing,
            service,
        }
        .build()
    }
}

/// The keys a spec document may carry at its root.
const ROOT_KEYS: [&str; 15] = [
    "name",
    "seed",
    "scale",
    "objectives",
    "report",
    "arch",
    "workload",
    "allocator",
    "injection",
    "energy",
    "telemetry",
    "faults",
    "transport",
    "healing",
    "service",
];

/// Rejects the first root key that [`ROOT_KEYS`] does not list, naming
/// the known key nearest to it. Allocates only on the error path.
fn check_root_keys(root: &Value) -> Result<(), SpecError> {
    let Some(entries) = root.as_table() else {
        return Ok(());
    };
    match entries
        .keys()
        .find(|key| !ROOT_KEYS.contains(&key.as_str()))
    {
        None => Ok(()),
        Some(key) => Err(SpecError::UnknownKey {
            key: key.clone(),
            nearest: ROOT_KEYS
                .into_iter()
                .min_by_key(|k| edit_distance(key, k))
                .expect("ROOT_KEYS is not empty"),
        }),
    }
}

/// Levenshtein distance between `a` and `b`, in chars.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diagonal = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let above = row[j + 1];
            row[j + 1] = (above + 1)
                .min(row[j] + 1)
                .min(diagonal + usize::from(ca != cb));
            diagonal = above;
        }
    }
    row[b.len()]
}

/// Typed builder for [`ScenarioSpec`]; `build` validates the combination.
#[derive(Debug, Clone)]
pub struct ScenarioSpecBuilder {
    name: String,
    seed: u64,
    scale: Scale,
    objectives: ObjectiveSet,
    arch: ArchSpec,
    workload: WorkloadSpec,
    allocator: AllocatorSpec,
    injection: InjectionMode,
    report: ReportKind,
    energy: Option<EnergySpec>,
    telemetry: Option<TelemetrySpec>,
    aimd: AimdSpec,
    faults: Option<FaultSpec>,
    transport: Option<TransportSpec>,
    healing: Option<HealingSpec>,
    service: Option<ServiceSpec>,
}

impl ScenarioSpecBuilder {
    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the scale.
    #[must_use]
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the GA objective set.
    #[must_use]
    pub fn objectives(mut self, objectives: ObjectiveSet) -> Self {
        self.objectives = objectives;
        self
    }

    /// Sets the ring size.
    #[must_use]
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.arch.nodes = nodes;
        self
    }

    /// Sets the comb size.
    #[must_use]
    pub fn wavelengths(mut self, wavelengths: usize) -> Self {
        self.arch.wavelengths = wavelengths;
        self
    }

    /// Sets the workload axis.
    #[must_use]
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the allocator axis.
    #[must_use]
    pub fn allocator(mut self, allocator: AllocatorSpec) -> Self {
        self.allocator = allocator;
        self
    }

    /// Sets the injection policy.
    #[must_use]
    pub fn injection(mut self, injection: InjectionMode) -> Self {
        self.injection = injection;
        self
    }

    /// Sets the report retention mode.
    #[must_use]
    pub fn report(mut self, report: ReportKind) -> Self {
        self.report = report;
        self
    }

    /// Sets the `[energy]` table.
    #[must_use]
    pub fn energy(mut self, energy: EnergySpec) -> Self {
        self.energy = Some(energy);
        self
    }

    /// Sets the `[telemetry]` table.
    #[must_use]
    pub fn telemetry(mut self, telemetry: TelemetrySpec) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Sets the ECN AIMD pacing overrides.
    #[must_use]
    pub fn aimd(mut self, aimd: AimdSpec) -> Self {
        self.aimd = aimd;
        self
    }

    /// Sets the `[faults]` table.
    #[must_use]
    pub fn faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets the `[transport]` table.
    #[must_use]
    pub fn transport(mut self, transport: TransportSpec) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Sets the `[healing]` table.
    #[must_use]
    pub fn healing(mut self, healing: HealingSpec) -> Self {
        self.healing = Some(healing);
        self
    }

    /// Sets the `[service]` table.
    #[must_use]
    pub fn service(mut self, service: ServiceSpec) -> Self {
        self.service = Some(service);
        self
    }

    /// Validates the combination and produces the spec.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] on out-of-range fields or an
    /// undefined workload/allocator combination.
    pub fn build(self) -> Result<ScenarioSpec, SpecError> {
        if self.name.trim().is_empty() {
            return Err(invalid("name", "must not be empty"));
        }
        if self.arch.nodes < 2 {
            return Err(invalid("arch.nodes", "a ring needs at least 2 nodes"));
        }
        if self.arch.wavelengths == 0 || self.arch.wavelengths > 128 {
            return Err(invalid("arch.wavelengths", "must be in 1..=128"));
        }
        match &self.workload {
            WorkloadSpec::PaperApp => {
                if self.arch.nodes != 16 {
                    return Err(invalid(
                        "arch.nodes",
                        "the paper application is mapped on a 16-node ring",
                    ));
                }
            }
            WorkloadSpec::Kernel {
                stages,
                exec_kcc,
                volume_kbits,
                ..
            } => {
                if *stages == 0 {
                    return Err(invalid("workload.stages", "must be at least 1"));
                }
                if *exec_kcc <= 0.0 || *volume_kbits <= 0.0 {
                    return Err(invalid(
                        "workload.exec_kcc",
                        "execution time and volume must be positive",
                    ));
                }
            }
            WorkloadSpec::Synthetic {
                pattern,
                injection_rate,
                message_bits,
                horizon,
                burstiness,
            } => {
                validate_pattern(pattern, self.arch.nodes)?;
                if !(0.0..=1.0).contains(injection_rate) {
                    return Err(invalid(
                        "workload.injection_rate",
                        "per-cycle probability must be in [0, 1]",
                    ));
                }
                if *message_bits <= 0.0 {
                    return Err(invalid("workload.message_bits", "must be positive"));
                }
                if *horizon == 0 {
                    return Err(invalid("workload.horizon", "must be positive"));
                }
                validate_burstiness(*burstiness)?;
            }
            WorkloadSpec::Trace { path } => {
                if path.trim().is_empty() {
                    return Err(invalid("workload.path", "must name a CSV file"));
                }
            }
            WorkloadSpec::Sweep {
                patterns,
                injection_rates,
                wavelengths,
                ring_sizes,
                message_bits,
                horizon,
                burstiness,
            } => {
                if patterns.is_empty()
                    || injection_rates.is_empty()
                    || wavelengths.is_empty()
                    || ring_sizes.is_empty()
                {
                    return Err(invalid(
                        "workload.patterns",
                        "sweep axes must all be non-empty",
                    ));
                }
                for nodes in ring_sizes {
                    if *nodes < 2 {
                        return Err(invalid("workload.ring_sizes", "rings need ≥ 2 nodes"));
                    }
                    for pattern in patterns {
                        validate_pattern(pattern, *nodes)?;
                    }
                }
                // The sweep document form stores hotspot parameters in
                // shared sibling keys, so two *different* hotspot
                // parameterisations cannot round-trip — reject them.
                let mut hotspot_params: Option<&TrafficPattern> = None;
                for pattern in patterns {
                    if matches!(pattern, TrafficPattern::Hotspot { .. }) {
                        match hotspot_params {
                            None => hotspot_params = Some(pattern),
                            Some(first) if first == pattern => {}
                            Some(_) => {
                                return Err(invalid(
                                    "workload.patterns",
                                    "a sweep supports at most one distinct hotspot \
                                     parameterisation (hotspots/fraction are shared keys)",
                                ));
                            }
                        }
                    }
                }
                for nw in wavelengths {
                    if *nw == 0 || *nw > 128 {
                        return Err(invalid(
                            "workload.wavelengths",
                            "entries must be in 1..=128",
                        ));
                    }
                }
                for rate in injection_rates {
                    if !(0.0..=1.0).contains(rate) {
                        return Err(invalid(
                            "workload.injection_rates",
                            "rates must be in [0, 1]",
                        ));
                    }
                }
                if *message_bits <= 0.0 || *horizon == 0 {
                    return Err(invalid(
                        "workload.message_bits",
                        "message size and horizon must be positive",
                    ));
                }
                validate_burstiness(*burstiness)?;
            }
        }
        match &self.allocator {
            AllocatorSpec::Counts { counts } if counts.is_empty() => {
                return Err(invalid("allocator.counts", "must not be empty"));
            }
            AllocatorSpec::Striped { lanes_per_flow }
                if *lanes_per_flow == 0 || *lanes_per_flow > self.arch.wavelengths =>
            {
                return Err(invalid(
                    "allocator.lanes_per_flow",
                    "must be in 1..=arch.wavelengths",
                ));
            }
            AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Greedy { cap: 0 },
            } => {
                return Err(invalid("allocator.cap", "greedy burst cap must be ≥ 1"));
            }
            AllocatorSpec::FlowSynthesis {
                policy:
                    FlowAllocPolicy::Proportional {
                        max_lanes_per_flow: 0,
                    },
                ..
            } => {
                return Err(invalid(
                    "allocator.max_lanes_per_flow",
                    "lane cap must be ≥ 1",
                ));
            }
            AllocatorSpec::FlowSynthesis { spares, .. } if *spares >= self.arch.wavelengths => {
                return Err(invalid(
                    "allocator.spares",
                    "spare lanes must leave at least one packable lane \
                     (spares < arch.wavelengths)",
                ));
            }
            _ => {}
        }
        match self.injection {
            InjectionMode::Open => {}
            InjectionMode::Credit { window: 0 } | InjectionMode::CreditPerDst { window: 0 } => {
                return Err(invalid("injection.credit_window", "must be at least 1"));
            }
            InjectionMode::Ecn { threshold }
                if !(threshold.is_finite() && threshold > 0.0 && threshold <= 1.0) =>
            {
                return Err(invalid("injection.ecn_threshold", "must be in (0, 1]"));
            }
            InjectionMode::Credit { .. }
            | InjectionMode::CreditPerDst { .. }
            | InjectionMode::Ecn { .. } => {
                if matches!(
                    self.workload,
                    WorkloadSpec::PaperApp | WorkloadSpec::Kernel { .. }
                ) {
                    return Err(invalid(
                        "injection.mode",
                        "task-graph workloads are dependence-gated already; \
                         closed-loop injection applies to message-stream workloads",
                    ));
                }
            }
        }
        self.aimd.validate()?;
        if !self.aimd.is_default() && !matches!(self.injection, InjectionMode::Ecn { .. }) {
            return Err(invalid(
                "injection.aimd_step",
                "AIMD overrides apply to ECN injection",
            ));
        }
        if self.report == ReportKind::Streaming
            && matches!(
                self.workload,
                WorkloadSpec::PaperApp | WorkloadSpec::Kernel { .. }
            )
        {
            return Err(invalid(
                "report",
                "streaming reports apply to message-stream workloads; \
                 task-graph runs do not use the open-loop engine",
            ));
        }
        if let Some(energy) = &self.energy {
            energy.validate()?;
        }
        let message_stream = matches!(
            self.workload,
            WorkloadSpec::Synthetic { .. }
                | WorkloadSpec::Trace { .. }
                | WorkloadSpec::Sweep { .. }
        );
        if let Some(faults) = &self.faults {
            let max_lane = match &self.workload {
                WorkloadSpec::Sweep { wavelengths, .. } => wavelengths
                    .iter()
                    .copied()
                    .min()
                    .unwrap_or(self.arch.wavelengths),
                _ => self.arch.wavelengths,
            };
            faults.validate(max_lane)?;
            if faults.ber_model.is_some()
                && matches!(&self.workload, WorkloadSpec::Sweep { ring_sizes, .. }
                    if ring_sizes.iter().any(|&n| n != self.arch.nodes))
            {
                return Err(invalid(
                    "faults.ber_model",
                    "the per-flow BER model is sized to the spec architecture; \
                     sweep ring_sizes must all equal arch.nodes",
                ));
            }
            if !message_stream {
                return Err(invalid(
                    "faults",
                    "fault injection applies to message-stream workloads \
                     (the open-loop engine)",
                ));
            }
        }
        if let Some(transport) = &self.transport {
            transport.validate()?;
            if !message_stream {
                return Err(invalid(
                    "transport",
                    "reliable transport applies to message-stream workloads \
                     (the open-loop engine)",
                ));
            }
        }
        if let Some(healing) = &self.healing {
            healing.validate()?;
            if !message_stream {
                return Err(invalid(
                    "healing",
                    "self-healing applies to message-stream workloads \
                     (the open-loop engine)",
                ));
            }
            if healing.policy() != HealPolicy::Park
                && !matches!(
                    self.allocator,
                    AllocatorSpec::Striped { .. } | AllocatorSpec::FlowSynthesis { .. }
                )
            {
                return Err(invalid(
                    "healing.policy",
                    "re-pack heal policies re-synthesise a static flow map \
                     (use a striped or flow-synthesis allocator)",
                ));
            }
        }
        if let Some(telemetry) = &self.telemetry {
            telemetry.validate()?;
            if !matches!(
                self.workload,
                WorkloadSpec::Synthetic { .. } | WorkloadSpec::Trace { .. }
            ) {
                return Err(invalid(
                    "telemetry",
                    "windowed telemetry applies to single message-stream runs \
                     (synthetic or trace workloads)",
                ));
            }
        }
        if let Some(service) = &self.service {
            service.validate()?;
            if !matches!(
                self.workload,
                WorkloadSpec::Synthetic { .. } | WorkloadSpec::Trace { .. }
            ) {
                return Err(invalid(
                    "service",
                    "the online allocation service runs Poisson churn over a \
                     synthetic workload or replays a trace workload",
                ));
            }
            if service.max_demand() > self.arch.wavelengths {
                return Err(invalid(
                    "service.max_demand",
                    "a session cannot demand more lanes than the comb holds",
                ));
            }
            if service.trace_demand() > self.arch.wavelengths {
                return Err(invalid(
                    "service.trace_demand",
                    "a session cannot demand more lanes than the comb holds",
                ));
            }
        }
        let closed_loop = matches!(
            self.workload,
            WorkloadSpec::PaperApp | WorkloadSpec::Kernel { .. }
        );
        let compatible = match &self.allocator {
            AllocatorSpec::Nsga2 { .. }
            | AllocatorSpec::Heuristic { .. }
            | AllocatorSpec::Counts { .. } => closed_loop,
            AllocatorSpec::Dynamic { .. } => true,
            AllocatorSpec::FlowSynthesis { .. } | AllocatorSpec::Striped { .. } => {
                matches!(
                    self.workload,
                    WorkloadSpec::Synthetic { .. } | WorkloadSpec::Trace { .. }
                )
            }
        };
        if !compatible {
            return Err(SpecError::Incompatible {
                workload: self.workload.kind(),
                allocator: self.allocator.kind(),
            });
        }
        Ok(ScenarioSpec {
            name: self.name,
            seed: self.seed,
            scale: self.scale,
            objectives: self.objectives,
            arch: self.arch,
            workload: self.workload,
            allocator: self.allocator,
            injection: self.injection,
            report: self.report,
            energy: self.energy,
            telemetry: self.telemetry,
            aimd: self.aimd,
            faults: self.faults,
            transport: self.transport,
            healing: self.healing,
            service: self.service,
        })
    }
}

// ------------------------------------------------------- field helpers --

fn invalid(field: &'static str, message: impl Into<String>) -> SpecError {
    SpecError::Invalid {
        field,
        message: message.into(),
    }
}

fn req_str<'a>(value: &'a Value, field: &'static str) -> Result<&'a str, SpecError> {
    value
        .get(field)
        .ok_or(SpecError::Missing { field })?
        .as_str()
        .ok_or_else(|| invalid(field, "not a string"))
}

fn opt_u64(value: &Value, field: &'static str) -> Result<Option<u64>, SpecError> {
    match value.get(field) {
        None => Ok(None),
        Some(v) => {
            let i = v.as_int().ok_or_else(|| invalid(field, "not an integer"))?;
            u64::try_from(i)
                .map(Some)
                .map_err(|_| invalid(field, "must be nonnegative"))
        }
    }
}

fn opt_usize_in(table: &Value, field: &'static str, key: &str) -> Result<Option<usize>, SpecError> {
    match table.get(key) {
        None => Ok(None),
        Some(v) => {
            let i = v.as_int().ok_or_else(|| invalid(field, "not an integer"))?;
            usize::try_from(i)
                .map(Some)
                .map_err(|_| invalid(field, "must be nonnegative"))
        }
    }
}

fn req_float_in(table: &Value, field: &'static str, key: &str) -> Result<f64, SpecError> {
    table
        .get(key)
        .ok_or(SpecError::Missing { field })?
        .as_float()
        .ok_or_else(|| invalid(field, "not a number"))
}

fn usize_array(table: &Value, field: &'static str, key: &str) -> Result<Vec<usize>, SpecError> {
    table
        .get(key)
        .ok_or(SpecError::Missing { field })?
        .as_array()
        .ok_or_else(|| invalid(field, "not an array"))?
        .iter()
        .map(|v| {
            v.as_int()
                .and_then(|i| usize::try_from(i).ok())
                .ok_or_else(|| invalid(field, "entries must be nonnegative integers"))
        })
        .collect()
}

fn float_array(table: &Value, field: &'static str, key: &str) -> Result<Vec<f64>, SpecError> {
    table
        .get(key)
        .ok_or(SpecError::Missing { field })?
        .as_array()
        .ok_or_else(|| invalid(field, "not an array"))?
        .iter()
        .map(|v| {
            v.as_float()
                .ok_or_else(|| invalid(field, "entries must be numbers"))
        })
        .collect()
}

// ----------------------------------------------- pattern/objective names --

/// The spec-file name of a pattern (hotspot parameters live in sibling
/// keys, not the name).
fn pattern_name(pattern: &TrafficPattern) -> &'static str {
    match pattern {
        TrafficPattern::UniformRandom => "uniform",
        TrafficPattern::Hotspot { .. } => "hotspot",
        TrafficPattern::Transpose => "transpose",
        TrafficPattern::BitReversal => "bit-reversal",
        TrafficPattern::BitComplement => "bit-complement",
        TrafficPattern::NearestNeighbor => "nearest-neighbor",
        TrafficPattern::Tornado => "tornado",
    }
}

fn pattern_from_parts(
    name: &str,
    table: &Value,
    field: &'static str,
) -> Result<TrafficPattern, SpecError> {
    match name {
        "uniform" => Ok(TrafficPattern::UniformRandom),
        "transpose" => Ok(TrafficPattern::Transpose),
        "bit-reversal" => Ok(TrafficPattern::BitReversal),
        "bit-complement" => Ok(TrafficPattern::BitComplement),
        "nearest-neighbor" => Ok(TrafficPattern::NearestNeighbor),
        "tornado" => Ok(TrafficPattern::Tornado),
        "hotspot" => {
            let hotspots = usize_array(table, "workload.hotspots", "hotspots")?
                .into_iter()
                .map(NodeId)
                .collect::<Vec<_>>();
            let fraction = req_float_in(table, "workload.fraction", "fraction")?;
            Ok(TrafficPattern::Hotspot { hotspots, fraction })
        }
        other => Err(invalid(field, format!("unknown pattern {other:?}"))),
    }
}

fn write_pattern(workload: &mut Value, pattern: &TrafficPattern) {
    workload.insert("pattern", pattern_name(pattern));
    if let TrafficPattern::Hotspot { hotspots, fraction } = pattern {
        workload.insert("hotspots", hotspots.iter().map(|h| h.0).collect::<Vec<_>>());
        workload.insert("fraction", *fraction);
    }
}

fn write_burstiness(workload: &mut Value, burstiness: Option<(f64, f64)>) {
    if let Some((on, off)) = burstiness {
        workload.insert("burst_on", on);
        workload.insert("burst_off", off);
    }
}

fn read_burstiness(table: &Value) -> Result<Option<(f64, f64)>, SpecError> {
    match (table.get("burst_on"), table.get("burst_off")) {
        (None, None) => Ok(None),
        (Some(on), Some(off)) => {
            let on = on
                .as_float()
                .ok_or_else(|| invalid("workload.burst_on", "not a number"))?;
            let off = off
                .as_float()
                .ok_or_else(|| invalid("workload.burst_off", "not a number"))?;
            Ok(Some((on, off)))
        }
        _ => Err(invalid(
            "workload.burst_on",
            "burst_on and burst_off must be given together",
        )),
    }
}

fn validate_pattern(pattern: &TrafficPattern, nodes: usize) -> Result<(), SpecError> {
    if let TrafficPattern::Hotspot { hotspots, fraction } = pattern {
        if hotspots.is_empty() {
            return Err(invalid("workload.hotspots", "needs at least one hotspot"));
        }
        if !(0.0..=1.0).contains(fraction) {
            return Err(invalid("workload.fraction", "must be in [0, 1]"));
        }
        for h in hotspots {
            if h.0 >= nodes {
                return Err(invalid(
                    "workload.hotspots",
                    format!("{h} is not on a {nodes}-node ring"),
                ));
            }
        }
    }
    Ok(())
}

fn validate_burstiness(burstiness: Option<(f64, f64)>) -> Result<(), SpecError> {
    if let Some((on, off)) = burstiness {
        if on < 1.0 || (off != 0.0 && off < 1.0) {
            return Err(invalid(
                "workload.burst_on",
                "ON-OFF means must be ≥ 1 (on) and 0 or ≥ 1 (off)",
            ));
        }
    }
    Ok(())
}

/// The spec-file name of an objective set.
#[must_use]
pub fn objectives_name(set: ObjectiveSet) -> &'static str {
    match set {
        ObjectiveSet::TimeEnergy => "time-energy",
        ObjectiveSet::TimeBer => "time-ber",
        ObjectiveSet::TimeEnergyBer => "time-energy-ber",
    }
}

/// Parses [`objectives_name`] output.
#[must_use]
pub fn objectives_from_name(name: &str) -> Option<ObjectiveSet> {
    match name {
        "time-energy" => Some(ObjectiveSet::TimeEnergy),
        "time-ber" => Some(ObjectiveSet::TimeBer),
        "time-energy-ber" => Some(ObjectiveSet::TimeEnergyBer),
        _ => None,
    }
}

fn parse_workload(table: &Value) -> Result<WorkloadSpec, SpecError> {
    match req_str(table, "kind") {
        Err(SpecError::Missing { .. }) => Err(SpecError::Missing {
            field: "workload.kind",
        }),
        Err(e) => Err(e),
        Ok("paper-app") => Ok(WorkloadSpec::PaperApp),
        Ok("trace") => {
            let path = req_str(table, "path")
                .map_err(|e| match e {
                    SpecError::Missing { .. } => SpecError::Missing {
                        field: "workload.path",
                    },
                    other => other,
                })?
                .to_string();
            Ok(WorkloadSpec::Trace { path })
        }
        Ok("kernel") => {
            let raw = table
                .get("kernel")
                .ok_or(SpecError::Missing {
                    field: "workload.kernel",
                })?
                .as_str()
                .ok_or_else(|| invalid("workload.kernel", "not a string"))?;
            let kind = KernelKind::from_name(raw)
                .ok_or_else(|| invalid("workload.kernel", format!("unknown kernel {raw:?}")))?;
            Ok(WorkloadSpec::Kernel {
                kind,
                stages: opt_usize_in(table, "workload.stages", "stages")?.ok_or(
                    SpecError::Missing {
                        field: "workload.stages",
                    },
                )?,
                exec_kcc: req_float_in(table, "workload.exec_kcc", "exec_kcc")?,
                volume_kbits: req_float_in(table, "workload.volume_kbits", "volume_kbits")?,
                mapping_seed: opt_u64(table, "mapping_seed")?.unwrap_or(1),
            })
        }
        Ok("synthetic") => {
            let raw = req_str(table, "pattern").map_err(|e| match e {
                SpecError::Missing { .. } => SpecError::Missing {
                    field: "workload.pattern",
                },
                other => other,
            })?;
            Ok(WorkloadSpec::Synthetic {
                pattern: pattern_from_parts(raw, table, "workload.pattern")?,
                injection_rate: req_float_in(table, "workload.injection_rate", "injection_rate")?,
                message_bits: req_float_in(table, "workload.message_bits", "message_bits")?,
                horizon: opt_u64(table, "horizon")?.ok_or(SpecError::Missing {
                    field: "workload.horizon",
                })?,
                burstiness: read_burstiness(table)?,
            })
        }
        Ok("sweep") => {
            let names = table
                .get("patterns")
                .ok_or(SpecError::Missing {
                    field: "workload.patterns",
                })?
                .as_array()
                .ok_or_else(|| invalid("workload.patterns", "not an array"))?;
            let patterns = names
                .iter()
                .map(|v| {
                    let raw = v
                        .as_str()
                        .ok_or_else(|| invalid("workload.patterns", "entries must be strings"))?;
                    pattern_from_parts(raw, table, "workload.patterns")
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(WorkloadSpec::Sweep {
                patterns,
                injection_rates: float_array(table, "workload.injection_rates", "injection_rates")?,
                wavelengths: usize_array(table, "workload.wavelengths", "wavelengths")?,
                ring_sizes: usize_array(table, "workload.ring_sizes", "ring_sizes")?,
                message_bits: req_float_in(table, "workload.message_bits", "message_bits")?,
                horizon: opt_u64(table, "horizon")?.ok_or(SpecError::Missing {
                    field: "workload.horizon",
                })?,
                burstiness: read_burstiness(table)?,
            })
        }
        Ok(other) => Err(invalid(
            "workload.kind",
            format!("unknown workload kind {other:?}"),
        )),
    }
}

fn parse_allocator(table: &Value) -> Result<AllocatorSpec, SpecError> {
    match req_str(table, "kind") {
        Err(SpecError::Missing { .. }) => Err(SpecError::Missing {
            field: "allocator.kind",
        }),
        Err(e) => Err(e),
        Ok("nsga2") => Ok(AllocatorSpec::Nsga2 {
            population: opt_usize_in(table, "allocator.population", "population")?,
            generations: opt_usize_in(table, "allocator.generations", "generations")?,
        }),
        Ok("heuristic") => {
            let raw = req_str(table, "name").map_err(|e| match e {
                SpecError::Missing { .. } => SpecError::Missing {
                    field: "allocator.name",
                },
                other => other,
            })?;
            let kind = HeuristicKind::from_name(raw)
                .ok_or_else(|| invalid("allocator.name", format!("unknown heuristic {raw:?}")))?;
            Ok(AllocatorSpec::Heuristic { kind })
        }
        Ok("counts") => Ok(AllocatorSpec::Counts {
            counts: usize_array(table, "allocator.counts", "counts")?,
        }),
        Ok("dynamic") => {
            let policy = match table.get("policy").and_then(Value::as_str) {
                None | Some("single") => DynamicPolicy::Single,
                Some("greedy") => DynamicPolicy::Greedy {
                    cap: opt_usize_in(table, "allocator.cap", "cap")?.ok_or(
                        SpecError::Missing {
                            field: "allocator.cap",
                        },
                    )?,
                },
                Some(other) => {
                    return Err(invalid(
                        "allocator.policy",
                        format!("unknown dynamic policy {other:?}"),
                    ));
                }
            };
            Ok(AllocatorSpec::Dynamic { policy })
        }
        Ok("flow-synthesis") => {
            let policy = match table.get("policy").and_then(Value::as_str) {
                None | Some("proportional") => FlowAllocPolicy::Proportional {
                    max_lanes_per_flow: opt_usize_in(
                        table,
                        "allocator.max_lanes_per_flow",
                        "max_lanes_per_flow",
                    )?
                    .unwrap_or(128),
                },
                Some("first-fit") => FlowAllocPolicy::FirstFit,
                Some("relaxed") => FlowAllocPolicy::Relaxed,
                Some(other) => {
                    return Err(invalid(
                        "allocator.policy",
                        format!("unknown flow-synthesis policy {other:?}"),
                    ));
                }
            };
            Ok(AllocatorSpec::FlowSynthesis {
                policy,
                spares: opt_usize_in(table, "allocator.spares", "spares")?.unwrap_or(0),
            })
        }
        Ok("striped") => Ok(AllocatorSpec::Striped {
            lanes_per_flow: opt_usize_in(table, "allocator.lanes_per_flow", "lanes_per_flow")?
                .unwrap_or(1),
        }),
        Ok(other) => Err(invalid(
            "allocator.kind",
            format!("unknown allocator kind {other:?}"),
        )),
    }
}

fn parse_energy(table: &Value) -> Result<EnergySpec, SpecError> {
    match table.get("preset") {
        None => {}
        Some(v) => {
            let raw = v
                .as_str()
                .ok_or_else(|| invalid("energy.preset", "not a string"))?;
            if raw != ENERGY_PRESET_PAPER {
                return Err(invalid(
                    "energy.preset",
                    format!("unknown preset {raw:?} (only \"paper\" is defined)"),
                ));
            }
        }
    }
    let opt_float = |key, field: &'static str| -> Result<Option<f64>, SpecError> {
        match table.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_float()
                .map(Some)
                .ok_or_else(|| invalid(field, "not a number")),
        }
    };
    Ok(EnergySpec {
        laser_mw: opt_float("laser_mw", "energy.laser_mw")?,
        tx_fj_per_bit: opt_float("tx_fj_per_bit", "energy.tx_fj_per_bit")?,
        rx_fj_per_bit: opt_float("rx_fj_per_bit", "energy.rx_fj_per_bit")?,
        mr_tuning_mw: opt_float("mr_tuning_mw", "energy.mr_tuning_mw")?,
        clock_ghz: opt_float("clock_ghz", "energy.clock_ghz")?,
    })
}

fn parse_telemetry(table: &Value) -> Result<TelemetrySpec, SpecError> {
    let window = match table.get("window") {
        None => None,
        Some(v) => {
            let i = v
                .as_int()
                .ok_or_else(|| invalid("telemetry.window", "not an integer"))?;
            Some(u64::try_from(i).map_err(|_| invalid("telemetry.window", "must be nonnegative"))?)
        }
    };
    let per_flow = match table.get("per_flow") {
        None => None,
        Some(v) => Some(
            v.as_bool()
                .ok_or_else(|| invalid("telemetry.per_flow", "not a boolean"))?,
        ),
    };
    let chrome_trace = match table.get("chrome_trace") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| invalid("telemetry.chrome_trace", "not a string"))?
                .to_string(),
        ),
    };
    Ok(TelemetrySpec {
        window,
        per_flow,
        chrome_trace,
    })
}

fn parse_service(table: &Value) -> Result<ServiceSpec, SpecError> {
    let opt_float = |key, field: &'static str| -> Result<Option<f64>, SpecError> {
        match table.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_float()
                .map(Some)
                .ok_or_else(|| invalid(field, "not a number")),
        }
    };
    let opt_u64 = |key, field: &'static str| -> Result<Option<u64>, SpecError> {
        match table.get(key) {
            None => Ok(None),
            Some(v) => {
                let i = v.as_int().ok_or_else(|| invalid(field, "not an integer"))?;
                Some(u64::try_from(i).map_err(|_| invalid(field, "must be nonnegative")))
                    .transpose()
            }
        }
    };
    let policy = match table.get("policy") {
        None => None,
        Some(v) => {
            let raw = v
                .as_str()
                .ok_or_else(|| invalid("service.policy", "not a string"))?;
            Some(GrantPolicy::parse(raw).ok_or_else(|| {
                invalid("service.policy", format!("unknown grant policy {raw:?}"))
            })?)
        }
    };
    let defrag = match table.get("defrag") {
        None => None,
        Some(v) => {
            let raw = v
                .as_str()
                .ok_or_else(|| invalid("service.defrag", "not a string"))?;
            Some(DefragKind::from_name(raw).ok_or_else(|| {
                invalid("service.defrag", format!("unknown defrag policy {raw:?}"))
            })?)
        }
    };
    Ok(ServiceSpec {
        sessions: opt_usize_in(table, "service.sessions", "sessions")?,
        arrival_rate: opt_float("arrival_rate", "service.arrival_rate")?,
        mean_hold: opt_float("mean_hold", "service.mean_hold")?,
        max_demand: opt_usize_in(table, "service.max_demand", "max_demand")?,
        policy,
        defrag,
        defrag_threshold: opt_float("defrag_threshold", "service.defrag_threshold")?,
        defrag_idle: opt_u64("defrag_idle", "service.defrag_idle")?,
        max_wait: opt_u64("max_wait", "service.max_wait")?,
        trace_demand: opt_usize_in(table, "service.trace_demand", "trace_demand")?,
        stretch: opt_float("stretch", "service.stretch")?,
    })
}

fn parse_injection(table: &Value) -> Result<(InjectionMode, AimdSpec), SpecError> {
    let opt_float = |key, field: &'static str| -> Result<Option<f64>, SpecError> {
        match table.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_float()
                .map(Some)
                .ok_or_else(|| invalid(field, "not a number")),
        }
    };
    let aimd = AimdSpec {
        additive_step: opt_float("aimd_step", "injection.aimd_step")?,
        md_factor: opt_float("aimd_md_factor", "injection.aimd_md_factor")?,
        min_factor: opt_float("aimd_min_factor", "injection.aimd_min_factor")?,
    };
    let mode = match req_str(table, "mode") {
        Err(SpecError::Missing { .. }) => Err(SpecError::Missing {
            field: "injection.mode",
        }),
        Err(e) => Err(e),
        Ok("open") => Ok(InjectionMode::Open),
        Ok("credit") => Ok(InjectionMode::Credit {
            window: opt_usize_in(table, "injection.credit_window", "credit_window")?.unwrap_or(4),
        }),
        Ok("credit-dst") => Ok(InjectionMode::CreditPerDst {
            window: opt_usize_in(table, "injection.credit_window", "credit_window")?.unwrap_or(4),
        }),
        Ok("ecn") => {
            let threshold = match table.get("ecn_threshold") {
                None => 0.75,
                Some(v) => v
                    .as_float()
                    .ok_or_else(|| invalid("injection.ecn_threshold", "not a number"))?,
            };
            Ok(InjectionMode::Ecn { threshold })
        }
        Ok(other) => Err(invalid(
            "injection.mode",
            format!("unknown injection mode {other:?}"),
        )),
    }?;
    Ok((mode, aimd))
}

fn opt_usize_array(
    table: &Value,
    field: &'static str,
    key: &str,
) -> Result<Option<Vec<usize>>, SpecError> {
    match table.get(key) {
        None => Ok(None),
        Some(_) => usize_array(table, field, key).map(Some),
    }
}

fn opt_u64_array(
    table: &Value,
    field: &'static str,
    key: &str,
) -> Result<Option<Vec<u64>>, SpecError> {
    match table.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_array()
            .ok_or_else(|| invalid(field, "not an array"))?
            .iter()
            .map(|v| {
                v.as_int()
                    .and_then(|i| u64::try_from(i).ok())
                    .ok_or_else(|| invalid(field, "entries must be nonnegative integers"))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
    }
}

fn parse_faults(table: &Value) -> Result<FaultSpec, SpecError> {
    let opt_float = |key, field: &'static str| -> Result<Option<f64>, SpecError> {
        match table.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_float()
                .map(Some)
                .ok_or_else(|| invalid(field, "not a number")),
        }
    };
    let ber_model = match table.get("ber_model") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| invalid("faults.ber_model", "not a string"))?
                .to_string(),
        ),
    };
    Ok(FaultSpec {
        seed: opt_u64(table, "seed")?,
        ber: opt_float("ber", "faults.ber")?,
        ber_model,
        outage_lanes: opt_usize_array(table, "faults.outage_lanes", "outage_lanes")?,
        outage_starts: opt_u64_array(table, "faults.outage_starts", "outage_starts")?,
        outage_durations: opt_u64_array(table, "faults.outage_durations", "outage_durations")?,
        mean_up: opt_float("mean_up", "faults.mean_up")?,
        mean_down: opt_float("mean_down", "faults.mean_down")?,
        fault_horizon: opt_u64(table, "fault_horizon")?,
        ge_p_gb: opt_float("ge_p_gb", "faults.ge_p_gb")?,
        ge_p_bg: opt_float("ge_p_bg", "faults.ge_p_bg")?,
        ge_ber_good: opt_float("ge_ber_good", "faults.ge_ber_good")?,
        ge_ber_bad: opt_float("ge_ber_bad", "faults.ge_ber_bad")?,
    })
}

fn parse_healing(table: &Value) -> Result<HealingSpec, SpecError> {
    let policy = match table.get("policy") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| invalid("healing.policy", "not a string"))?
                .to_string(),
        ),
    };
    let ber_threshold = match table.get("ber_threshold") {
        None => None,
        Some(v) => Some(
            v.as_float()
                .ok_or_else(|| invalid("healing.ber_threshold", "not a number"))?,
        ),
    };
    Ok(HealingSpec {
        policy,
        ber_threshold,
    })
}

fn parse_transport(table: &Value) -> Result<TransportSpec, SpecError> {
    let opt_u32 = |key, field: &'static str| -> Result<Option<u32>, SpecError> {
        match table.get(key) {
            None => Ok(None),
            Some(v) => {
                let i = v.as_int().ok_or_else(|| invalid(field, "not an integer"))?;
                u32::try_from(i)
                    .map(Some)
                    .map_err(|_| invalid(field, "must be a nonnegative 32-bit integer"))
            }
        }
    };
    match req_str(table, "mode") {
        Err(SpecError::Missing { .. }) => Err(SpecError::Missing {
            field: "transport.mode",
        }),
        Err(e) => Err(e),
        Ok("gbn") => Ok(TransportSpec::GoBackN {
            window: opt_usize_in(table, "transport.window", "window")?,
            nack_delay: opt_u64(table, "nack_delay")?,
            timeout: opt_u64(table, "timeout")?,
            max_retries: opt_u32("max_retries", "transport.max_retries")?,
        }),
        Ok("pfc") => Ok(TransportSpec::Pfc {
            dst_window: opt_usize_in(table, "transport.dst_window", "dst_window")?,
            max_retries: opt_u32("max_retries", "transport.max_retries")?,
        }),
        Ok(other) => Err(invalid(
            "transport.mode",
            format!("unknown transport mode {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_produce_expected_configs() {
        let paper = Scale::Paper.ga_config(ObjectiveSet::TimeEnergy, 1);
        assert_eq!(paper.population_size, 400);
        assert_eq!(paper.generations, 300);
        let quick = Scale::Quick.ga_config(ObjectiveSet::TimeBer, 2);
        assert_eq!(quick.population_size, 120);
        assert_eq!(quick.objectives, ObjectiveSet::TimeBer);
        let smoke = Scale::Smoke.ga_config(ObjectiveSet::TimeEnergyBer, 3);
        assert!(smoke.population_size < quick.population_size);
    }

    #[test]
    fn scale_names_round_trip() {
        for scale in [Scale::Paper, Scale::Quick, Scale::Smoke] {
            assert_eq!(Scale::from_name(scale.name()), Some(scale));
        }
        assert_eq!(Scale::from_name("warp"), None);
    }

    #[test]
    fn builder_defaults_are_the_paper_point() {
        let spec = ScenarioSpec::builder("default").build().unwrap();
        assert_eq!(spec.arch, ArchSpec::default());
        assert_eq!(spec.workload, WorkloadSpec::PaperApp);
        assert_eq!(spec.scale, Scale::Paper);
        assert_eq!(spec.seed, 2017);
    }

    #[test]
    fn paper_app_requires_sixteen_nodes() {
        let err = ScenarioSpec::builder("bad").nodes(8).build().unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "arch.nodes"));
    }

    #[test]
    fn open_loop_allocators_reject_closed_loop_workloads() {
        let err = ScenarioSpec::builder("bad")
            .allocator(AllocatorSpec::Striped { lanes_per_flow: 1 })
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SpecError::Incompatible {
                workload: "paper-app",
                allocator: "striped"
            }
        );
    }

    #[test]
    fn ga_rejects_synthetic_workloads() {
        let err = ScenarioSpec::builder("bad")
            .workload(WorkloadSpec::Synthetic {
                pattern: TrafficPattern::UniformRandom,
                injection_rate: 0.02,
                message_bits: 512.0,
                horizon: 1_000,
                burstiness: None,
            })
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SpecError::Incompatible {
                workload: "synthetic",
                allocator: "nsga2"
            }
        );
    }

    #[test]
    fn hotspot_outside_the_ring_is_rejected() {
        let err = ScenarioSpec::builder("bad")
            .workload(WorkloadSpec::Synthetic {
                pattern: TrafficPattern::Hotspot {
                    hotspots: vec![NodeId(99)],
                    fraction: 0.5,
                },
                injection_rate: 0.02,
                message_bits: 512.0,
                horizon: 1_000,
                burstiness: None,
            })
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "workload.hotspots"));
    }

    #[test]
    fn toml_spec_round_trips() {
        let spec = ScenarioSpec::builder("hotspot-heuristic-12")
            .seed(42)
            .scale(Scale::Quick)
            .wavelengths(12)
            .workload(WorkloadSpec::Synthetic {
                pattern: TrafficPattern::Hotspot {
                    hotspots: vec![NodeId(0), NodeId(5)],
                    fraction: 0.5,
                },
                injection_rate: 0.02,
                message_bits: 512.0,
                horizon: 20_000,
                burstiness: Some((50.0, 200.0)),
            })
            .allocator(AllocatorSpec::FlowSynthesis {
                policy: FlowAllocPolicy::Proportional {
                    max_lanes_per_flow: 4,
                },
                spares: 2,
            })
            .build()
            .unwrap();
        let toml = spec.to_toml();
        let round = ScenarioSpec::from_toml_str(&toml).unwrap();
        assert_eq!(round, spec);
        let json = spec.to_json();
        assert_eq!(ScenarioSpec::from_json_str(&json).unwrap(), spec);
    }

    #[test]
    fn sweep_spec_round_trips() {
        let spec = ScenarioSpec::builder("grid")
            .workload(WorkloadSpec::Sweep {
                patterns: vec![
                    TrafficPattern::UniformRandom,
                    TrafficPattern::Hotspot {
                        hotspots: vec![NodeId(0)],
                        fraction: 0.4,
                    },
                ],
                injection_rates: vec![0.002, 0.04],
                wavelengths: vec![2, 8],
                ring_sizes: vec![16],
                message_bits: 512.0,
                horizon: 5_000,
                burstiness: None,
            })
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Greedy { cap: 4 },
            })
            .build()
            .unwrap();
        let round = ScenarioSpec::from_toml_str(&spec.to_toml()).unwrap();
        assert_eq!(round, spec);
    }

    #[test]
    fn sweeps_reject_two_distinct_hotspot_parameterisations() {
        // The document form shares hotspots/fraction keys across the
        // pattern list, so two different hotspot patterns cannot
        // round-trip — the builder must refuse rather than corrupt.
        let build = |second: TrafficPattern| {
            ScenarioSpec::builder("grid")
                .workload(WorkloadSpec::Sweep {
                    patterns: vec![
                        TrafficPattern::Hotspot {
                            hotspots: vec![NodeId(0)],
                            fraction: 0.5,
                        },
                        second,
                    ],
                    injection_rates: vec![0.01],
                    wavelengths: vec![4],
                    ring_sizes: vec![16],
                    message_bits: 512.0,
                    horizon: 5_000,
                    burstiness: None,
                })
                .allocator(AllocatorSpec::Dynamic {
                    policy: DynamicPolicy::Single,
                })
                .build()
        };
        let err = build(TrafficPattern::Hotspot {
            hotspots: vec![NodeId(3)],
            fraction: 0.9,
        })
        .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "workload.patterns"));
        // An identical repeat is representable and round-trips.
        let spec = build(TrafficPattern::Hotspot {
            hotspots: vec![NodeId(0)],
            fraction: 0.5,
        })
        .unwrap();
        assert_eq!(ScenarioSpec::from_toml_str(&spec.to_toml()).unwrap(), spec);
    }

    #[test]
    fn handwritten_spec_parses_without_optional_fields() {
        let spec = ScenarioSpec::from_toml_str(
            r#"
name = "minimal"

[workload]
kind = "paper-app"

[allocator]
kind = "nsga2"
"#,
        )
        .unwrap();
        assert_eq!(spec.seed, 2017);
        assert_eq!(spec.scale, Scale::Paper);
        assert_eq!(spec.arch, ArchSpec::default());
    }

    #[test]
    fn missing_sections_are_named() {
        let err = ScenarioSpec::from_toml_str("name = \"x\"").unwrap_err();
        assert_eq!(err, SpecError::Missing { field: "workload" });
    }

    #[test]
    fn unknown_kinds_are_reported_with_context() {
        let err = ScenarioSpec::from_toml_str(
            "name = \"x\"\n[workload]\nkind = \"quantum\"\n[allocator]\nkind = \"nsga2\"\n",
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "workload.kind"));
    }

    fn synthetic_uniform() -> WorkloadSpec {
        WorkloadSpec::Synthetic {
            pattern: TrafficPattern::UniformRandom,
            injection_rate: 0.02,
            message_bits: 512.0,
            horizon: 5_000,
            burstiness: None,
        }
    }

    #[test]
    fn unknown_root_keys_are_rejected_in_both_formats() {
        let base = ScenarioSpec::builder("strict")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::Striped { lanes_per_flow: 1 })
            .build()
            .unwrap();
        let mut engine = Value::table();
        engine.insert("workers", 2_i64);
        let mut telemetery = Value::table();
        telemetery.insert("window", 64_i64);
        for (key, value, nearest) in [
            ("engine", engine, "name"),
            ("reprot", Value::from("streaming"), "report"),
            ("telemetery", telemetery, "telemetry"),
        ] {
            let mut doc = base.to_value();
            doc.insert(key, value);
            for parsed in [
                ScenarioSpec::from_toml_str(&doc.to_toml()),
                ScenarioSpec::from_json_str(&doc.to_json()),
            ] {
                let err = parsed.unwrap_err();
                assert_eq!(
                    err,
                    SpecError::UnknownKey {
                        key: key.into(),
                        nearest
                    }
                );
                assert!(err.to_string().contains(&format!("`{key}`")), "{err}");
            }
        }
    }

    #[test]
    fn injection_table_round_trips_in_both_formats() {
        for injection in [
            InjectionMode::Credit { window: 3 },
            InjectionMode::Ecn { threshold: 0.6 },
        ] {
            let spec = ScenarioSpec::builder("closed")
                .workload(synthetic_uniform())
                .allocator(AllocatorSpec::Dynamic {
                    policy: DynamicPolicy::Single,
                })
                .injection(injection)
                .build()
                .unwrap();
            let toml = spec.to_toml();
            assert!(toml.contains("[injection]"), "{toml}");
            assert_eq!(ScenarioSpec::from_toml_str(&toml).unwrap(), spec);
            assert_eq!(ScenarioSpec::from_json_str(&spec.to_json()).unwrap(), spec);
        }
    }

    #[test]
    fn open_injection_is_the_omitted_default() {
        let spec = ScenarioSpec::builder("open")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .build()
            .unwrap();
        assert_eq!(spec.injection, InjectionMode::Open);
        assert!(!spec.to_toml().contains("[injection]"));
        assert_eq!(ScenarioSpec::from_toml_str(&spec.to_toml()).unwrap(), spec);
    }

    #[test]
    fn injection_defaults_and_errors() {
        let parse = |body: &str| {
            ScenarioSpec::from_toml_str(&format!(
                "name = \"x\"\n[workload]\nkind = \"synthetic\"\npattern = \"uniform\"\n\
                 injection_rate = 0.01\nmessage_bits = 512.0\nhorizon = 1000\n\
                 [allocator]\nkind = \"dynamic\"\n{body}"
            ))
        };
        // Defaults: credit window 4, ECN threshold 0.75.
        assert_eq!(
            parse("[injection]\nmode = \"credit\"\n").unwrap().injection,
            InjectionMode::Credit { window: 4 }
        );
        assert_eq!(
            parse("[injection]\nmode = \"ecn\"\n").unwrap().injection,
            InjectionMode::Ecn { threshold: 0.75 }
        );
        let err = parse("[injection]\nmode = \"credit\"\ncredit_window = 0\n").unwrap_err();
        assert!(
            matches!(err, SpecError::Invalid { field, .. } if field == "injection.credit_window")
        );
        let err = parse("[injection]\nmode = \"ecn\"\necn_threshold = 2.0\n").unwrap_err();
        assert!(
            matches!(err, SpecError::Invalid { field, .. } if field == "injection.ecn_threshold")
        );
        let err = parse("[injection]\nmode = \"tcp\"\n").unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "injection.mode"));
    }

    #[test]
    fn task_graph_workloads_reject_closed_loop_injection() {
        let err = ScenarioSpec::builder("bad")
            .injection(InjectionMode::Credit { window: 4 })
            .build()
            .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "injection.mode"));
    }

    #[test]
    fn energy_table_round_trips_in_both_formats() {
        // Bare preset, and preset + overrides: both must survive the
        // TOML and JSON round trips exactly.
        for energy in [
            EnergySpec::default(),
            EnergySpec {
                laser_mw: Some(0.004),
                tx_fj_per_bit: Some(75.0),
                rx_fj_per_bit: None,
                mr_tuning_mw: Some(0.05),
                clock_ghz: Some(2.0),
            },
        ] {
            let spec = ScenarioSpec::builder("energetic")
                .workload(synthetic_uniform())
                .allocator(AllocatorSpec::Dynamic {
                    policy: DynamicPolicy::Single,
                })
                .energy(energy.clone())
                .build()
                .unwrap();
            let toml = spec.to_toml();
            assert!(toml.contains("[energy]"), "{toml}");
            assert!(toml.contains("preset = \"paper\""), "{toml}");
            assert_eq!(ScenarioSpec::from_toml_str(&toml).unwrap(), spec);
            assert_eq!(ScenarioSpec::from_json_str(&spec.to_json()).unwrap(), spec);
            assert_eq!(spec.energy, Some(energy));
        }
        // Omitted [energy] stays omitted.
        let plain = ScenarioSpec::builder("plain")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .build()
            .unwrap();
        assert_eq!(plain.energy, None);
        assert!(!plain.to_toml().contains("[energy]"));
    }

    #[test]
    fn energy_overrides_resolve_over_the_paper_preset() {
        let spec = EnergySpec {
            laser_mw: Some(0.5),
            mr_tuning_mw: Some(0.0),
            ..EnergySpec::default()
        };
        let model = spec.resolve(16, 8);
        assert_eq!(model.laser_mw, 0.5);
        assert_eq!(model.mr_tuning_mw, 0.0);
        // Untouched coefficients fall back to the preset.
        assert_eq!(model.tx_fj_per_bit, 50.0);
        assert_eq!(model.clock_ghz, 1.0);
    }

    #[test]
    fn energy_validation_rejects_bad_overrides() {
        let build = |energy: EnergySpec| {
            ScenarioSpec::builder("bad")
                .workload(synthetic_uniform())
                .allocator(AllocatorSpec::Dynamic {
                    policy: DynamicPolicy::Single,
                })
                .energy(energy)
                .build()
        };
        let err = build(EnergySpec {
            laser_mw: Some(0.0),
            ..EnergySpec::default()
        })
        .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "energy.laser_mw"));
        let err = build(EnergySpec {
            tx_fj_per_bit: Some(-1.0),
            ..EnergySpec::default()
        })
        .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "energy.tx_fj_per_bit"));
        // Unknown presets are named in the error.
        let err = ScenarioSpec::from_toml_str(
            "name = \"x\"\n[workload]\nkind = \"synthetic\"\npattern = \"uniform\"\n\
             injection_rate = 0.01\nmessage_bits = 512.0\nhorizon = 1000\n\
             [allocator]\nkind = \"dynamic\"\n[energy]\npreset = \"exotic\"\n",
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "energy.preset"));
    }

    #[test]
    fn telemetry_table_round_trips_in_both_formats() {
        // Defaults-only, and fully explicit: both must survive the TOML
        // and JSON round trips exactly.
        for telemetry in [
            TelemetrySpec::default(),
            TelemetrySpec {
                window: Some(128),
                per_flow: Some(false),
                chrome_trace: Some("trace.json".to_string()),
            },
        ] {
            let spec = ScenarioSpec::builder("telemetered")
                .workload(synthetic_uniform())
                .allocator(AllocatorSpec::Dynamic {
                    policy: DynamicPolicy::Single,
                })
                .telemetry(telemetry.clone())
                .build()
                .unwrap();
            let toml = spec.to_toml();
            assert!(toml.contains("[telemetry]"), "{toml}");
            assert_eq!(ScenarioSpec::from_toml_str(&toml).unwrap(), spec);
            assert_eq!(ScenarioSpec::from_json_str(&spec.to_json()).unwrap(), spec);
            assert_eq!(spec.telemetry, Some(telemetry));
        }
        // Omitted [telemetry] stays omitted, and defaults resolve.
        let plain = ScenarioSpec::builder("plain")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .build()
            .unwrap();
        assert_eq!(plain.telemetry, None);
        assert!(!plain.to_toml().contains("[telemetry]"));
        let defaults = TelemetrySpec::default();
        assert_eq!(defaults.window(), TELEMETRY_DEFAULT_WINDOW);
        assert!(defaults.per_flow());
    }

    #[test]
    fn telemetry_validation_rejects_bad_tables() {
        let build = |telemetry: TelemetrySpec| {
            ScenarioSpec::builder("bad")
                .workload(synthetic_uniform())
                .allocator(AllocatorSpec::Dynamic {
                    policy: DynamicPolicy::Single,
                })
                .telemetry(telemetry)
                .build()
        };
        let err = build(TelemetrySpec {
            window: Some(0),
            ..TelemetrySpec::default()
        })
        .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "telemetry.window"));
        let err = build(TelemetrySpec {
            chrome_trace: Some(String::new()),
            ..TelemetrySpec::default()
        })
        .unwrap_err();
        assert!(
            matches!(err, SpecError::Invalid { field, .. } if field == "telemetry.chrome_trace")
        );
        // Task-graph workloads have no message stream to window.
        let err = ScenarioSpec::builder("graphed")
            .telemetry(TelemetrySpec::default())
            .build()
            .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "telemetry"));
    }

    #[test]
    fn report_knob_round_trips_and_validates() {
        let spec = ScenarioSpec::builder("streamed")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .report(ReportKind::Streaming)
            .build()
            .unwrap();
        let toml = spec.to_toml();
        assert!(toml.contains("report = \"streaming\""), "{toml}");
        assert_eq!(ScenarioSpec::from_toml_str(&toml).unwrap(), spec);
        assert_eq!(ScenarioSpec::from_json_str(&spec.to_json()).unwrap(), spec);
        // Full is the omitted default.
        let full = ScenarioSpec::builder("full")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .build()
            .unwrap();
        assert_eq!(full.report, ReportKind::Full);
        assert!(!full.to_toml().contains("report ="));
        // Task-graph workloads reject the knob (they never run the
        // open-loop engine).
        let err = ScenarioSpec::builder("bad")
            .report(ReportKind::Streaming)
            .build()
            .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "report"));
        assert_eq!(
            ReportKind::from_name("streaming"),
            Some(ReportKind::Streaming)
        );
        assert_eq!(ReportKind::from_name("warp"), None);
    }

    #[test]
    fn trace_workload_round_trips_and_validates() {
        let spec = ScenarioSpec::builder("replay")
            .workload(WorkloadSpec::Trace {
                path: "traces/app.csv".into(),
            })
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .injection(InjectionMode::Credit { window: 2 })
            .build()
            .unwrap();
        assert_eq!(ScenarioSpec::from_toml_str(&spec.to_toml()).unwrap(), spec);
        assert_eq!(ScenarioSpec::from_json_str(&spec.to_json()).unwrap(), spec);

        let err = ScenarioSpec::builder("bad")
            .workload(WorkloadSpec::Trace { path: "  ".into() })
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "workload.path"));
        // GA allocators have no trace semantics.
        let err = ScenarioSpec::builder("bad")
            .workload(WorkloadSpec::Trace {
                path: "trace.csv".into(),
            })
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SpecError::Incompatible {
                workload: "trace",
                allocator: "nsga2"
            }
        );
    }

    #[test]
    fn relaxed_flow_synthesis_round_trips() {
        let spec = ScenarioSpec::builder("relaxed")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::FlowSynthesis {
                policy: FlowAllocPolicy::Relaxed,
                spares: 0,
            })
            .build()
            .unwrap();
        assert_eq!(ScenarioSpec::from_toml_str(&spec.to_toml()).unwrap(), spec);
    }

    #[test]
    fn fault_and_transport_tables_round_trip_in_both_formats() {
        let faults = FaultSpec {
            seed: Some(11),
            ber: Some(1e-4),
            outage_lanes: Some(vec![0, 2]),
            outage_starts: Some(vec![100, 4_000]),
            outage_durations: Some(vec![500, 0]),
            mean_up: Some(2_000.0),
            mean_down: Some(50.0),
            fault_horizon: Some(4_500),
            ..FaultSpec::default()
        };
        for transport in [
            TransportSpec::GoBackN {
                window: Some(4),
                nack_delay: None,
                timeout: Some(128),
                max_retries: Some(3),
            },
            TransportSpec::Pfc {
                dst_window: None,
                max_retries: Some(32),
            },
        ] {
            let spec = ScenarioSpec::builder("faulty")
                .workload(synthetic_uniform())
                .allocator(AllocatorSpec::Dynamic {
                    policy: DynamicPolicy::Single,
                })
                .faults(faults.clone())
                .transport(transport.clone())
                .build()
                .unwrap();
            let toml = spec.to_toml();
            assert!(toml.contains("[faults]"), "{toml}");
            assert!(toml.contains("[transport]"), "{toml}");
            assert_eq!(ScenarioSpec::from_toml_str(&toml).unwrap(), spec);
            assert_eq!(ScenarioSpec::from_json_str(&spec.to_json()).unwrap(), spec);
            assert_eq!(spec.faults, Some(faults.clone()));
            assert_eq!(spec.transport, Some(transport));
        }
        // Defaults-only tables survive too (a bare mode, a bare seed).
        let spec = ScenarioSpec::builder("bare")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .faults(FaultSpec {
                ber: Some(1e-5),
                ..FaultSpec::default()
            })
            .transport(TransportSpec::GoBackN {
                window: None,
                nack_delay: None,
                timeout: None,
                max_retries: None,
            })
            .build()
            .unwrap();
        assert_eq!(ScenarioSpec::from_toml_str(&spec.to_toml()).unwrap(), spec);
        // Omitted tables stay omitted.
        let plain = ScenarioSpec::builder("plain")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .build()
            .unwrap();
        assert_eq!(plain.faults, None);
        assert_eq!(plain.transport, None);
        assert!(!plain.to_toml().contains("[faults]"));
        assert!(!plain.to_toml().contains("[transport]"));
    }

    #[test]
    fn fault_spec_resolves_to_the_engine_plan() {
        let spec = FaultSpec {
            ber: Some(1e-4),
            outage_lanes: Some(vec![1]),
            outage_starts: Some(vec![10]),
            outage_durations: Some(vec![0]),
            ..FaultSpec::default()
        };
        let plan = spec.resolve(2017, 16, 4);
        assert!(!plan.is_vacuous());
        plan.validate(16, 4);
        // Duration 0 means a permanent outage.
        assert_eq!(plan.scheduled[0].duration, u64::MAX);
        assert_eq!(plan.seed, 2017);
        // The paper BER model derives a per-flow vector through the
        // photonics chain: finite, in [0, 1), zero on the diagonal.
        let plan = FaultSpec {
            ber_model: Some(FAULT_BER_MODEL_PAPER.to_string()),
            ..FaultSpec::default()
        }
        .resolve(1, 8, 4);
        plan.validate(8, 4);
        let bers = paper_path_bers(8, 4);
        assert_eq!(bers.len(), 64);
        for (i, &b) in bers.iter().enumerate() {
            if i / 8 == i % 8 {
                assert_eq!(b, 0.0);
            } else {
                assert!(b.is_finite() && (0.0..0.5).contains(&b) && b > 0.0, "{b}");
            }
        }
    }

    #[test]
    fn transport_spec_resolves_overrides_over_presets() {
        let gbn = TransportSpec::GoBackN {
            window: Some(2),
            nack_delay: None,
            timeout: None,
            max_retries: Some(1),
        }
        .resolve();
        assert_eq!(
            gbn,
            TransportMode::GoBackN {
                window: 2,
                nack_delay: 16,
                timeout: 256,
                max_retries: 1
            }
        );
        let pfc = TransportSpec::Pfc {
            dst_window: None,
            max_retries: None,
        }
        .resolve();
        assert_eq!(pfc, TransportMode::pfc());
    }

    #[test]
    fn fault_and_transport_validation_rejects_bad_tables() {
        let build = |faults: Option<FaultSpec>, transport: Option<TransportSpec>| {
            let mut b = ScenarioSpec::builder("bad")
                .workload(synthetic_uniform())
                .allocator(AllocatorSpec::Dynamic {
                    policy: DynamicPolicy::Single,
                });
            if let Some(f) = faults {
                b = b.faults(f);
            }
            if let Some(t) = transport {
                b = b.transport(t);
            }
            b.build()
        };
        let err = build(
            Some(FaultSpec {
                ber: Some(1.5),
                ..FaultSpec::default()
            }),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "faults.ber"));
        let err = build(
            Some(FaultSpec {
                outage_lanes: Some(vec![0]),
                ..FaultSpec::default()
            }),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "faults.outage_lanes"));
        // Lanes are checked against the spec's comb.
        let err = build(
            Some(FaultSpec {
                outage_lanes: Some(vec![8]),
                outage_starts: Some(vec![0]),
                outage_durations: Some(vec![10]),
                ..FaultSpec::default()
            }),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "faults.outage_lanes"));
        let err = build(
            None,
            Some(TransportSpec::GoBackN {
                window: Some(0),
                nack_delay: None,
                timeout: None,
                max_retries: None,
            }),
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "transport.window"));
        // Task-graph workloads have no message stream to perturb.
        let err = ScenarioSpec::builder("graphed")
            .faults(FaultSpec {
                ber: Some(1e-6),
                ..FaultSpec::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "faults"));
        let err = ScenarioSpec::from_toml_str(
            "name = \"x\"\n[workload]\nkind = \"synthetic\"\npattern = \"uniform\"\n\
             injection_rate = 0.01\nmessage_bits = 512.0\nhorizon = 1000\n\
             [allocator]\nkind = \"dynamic\"\n[transport]\nmode = \"tcp\"\n",
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "transport.mode"));
    }

    #[test]
    fn gilbert_elliott_keys_round_trip_and_resolve() {
        let spec = ScenarioSpec::builder("bursty-lanes")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .faults(FaultSpec {
                ge_p_gb: Some(0.01),
                ge_p_bg: Some(0.1),
                ge_ber_good: Some(0.0),
                ge_ber_bad: Some(0.2),
                ..FaultSpec::default()
            })
            .build()
            .unwrap();
        let toml = spec.to_toml();
        assert!(toml.contains("ge_p_gb = 0.01"), "{toml}");
        assert_eq!(ScenarioSpec::from_toml_str(&toml).unwrap(), spec);
        assert_eq!(ScenarioSpec::from_json_str(&spec.to_json()).unwrap(), spec);
        let plan = spec.faults.as_ref().unwrap().resolve(2017, 16, 8);
        plan.validate(16, 8);
        match plan.corruption {
            onoc_sim::CorruptionModel::GilbertElliott {
                p_gb,
                p_bg,
                ber_good,
                ber_bad,
            } => assert_eq!((p_gb, p_bg, ber_good, ber_bad), (0.01, 0.1, 0.0, 0.2)),
            other => panic!("expected a Gilbert–Elliott model, got {other:?}"),
        }
        // The four keys are given together…
        let err = ScenarioSpec::builder("partial")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .faults(FaultSpec {
                ge_p_gb: Some(0.01),
                ..FaultSpec::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "faults.ge_p_gb"));
        // …are exclusive with the uniform BER…
        let err = ScenarioSpec::builder("both")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .faults(FaultSpec {
                ber: Some(1e-5),
                ge_p_gb: Some(0.01),
                ge_p_bg: Some(0.1),
                ge_ber_good: Some(0.0),
                ge_ber_bad: Some(0.2),
                ..FaultSpec::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "faults.ge_p_gb"));
        // …and the bad state must be at least as noisy as the good one.
        let err = ScenarioSpec::builder("inverted")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .faults(FaultSpec {
                ge_p_gb: Some(0.01),
                ge_p_bg: Some(0.1),
                ge_ber_good: Some(0.3),
                ge_ber_bad: Some(0.1),
                ..FaultSpec::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "faults.ge_ber_bad"));
    }

    #[test]
    fn healing_table_round_trips_and_validates() {
        let spec = ScenarioSpec::builder("healed")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::Striped { lanes_per_flow: 1 })
            .healing(HealingSpec {
                policy: Some("re-pack-relaxed".into()),
                ber_threshold: Some(0.1),
            })
            .build()
            .unwrap();
        let toml = spec.to_toml();
        assert!(toml.contains("[healing]"), "{toml}");
        assert!(toml.contains("policy = \"re-pack-relaxed\""), "{toml}");
        assert_eq!(ScenarioSpec::from_toml_str(&toml).unwrap(), spec);
        assert_eq!(ScenarioSpec::from_json_str(&spec.to_json()).unwrap(), spec);
        let config = spec.healing.as_ref().unwrap().resolve();
        assert_eq!(config.policy, HealPolicy::RePackRelaxed);
        assert_eq!(config.ber_threshold, Some(0.1));
        // A bare table resolves to the parked default and stays bare.
        let bare = ScenarioSpec::builder("bare-heal")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .healing(HealingSpec::default())
            .build()
            .unwrap();
        assert_eq!(
            bare.healing.as_ref().unwrap().resolve().policy,
            HealPolicy::Park
        );
        assert_eq!(ScenarioSpec::from_toml_str(&bare.to_toml()).unwrap(), bare);
        // Unknown policy names are rejected, not defaulted.
        let err = ScenarioSpec::builder("typo")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::Striped { lanes_per_flow: 1 })
            .healing(HealingSpec {
                policy: Some("repack".into()),
                ber_threshold: None,
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "healing.policy"));
        // The degradation trigger is a probability strictly inside (0, 1).
        let err = ScenarioSpec::builder("hot")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .healing(HealingSpec {
                policy: None,
                ber_threshold: Some(1.0),
            })
            .build()
            .unwrap_err();
        assert!(
            matches!(err, SpecError::Invalid { field, .. } if field == "healing.ber_threshold")
        );
        // Re-pack needs a static flow map to re-synthesise.
        let err = ScenarioSpec::builder("dynamic-repack")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .healing(HealingSpec {
                policy: Some("re-pack".into()),
                ber_threshold: None,
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "healing.policy"));
        // Task-graph workloads have no message stream to heal.
        let err = ScenarioSpec::builder("graphed")
            .healing(HealingSpec::default())
            .build()
            .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "healing"));
    }

    #[test]
    fn credit_dst_injection_and_aimd_keys_round_trip() {
        let spec = ScenarioSpec::builder("per-dst")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .injection(InjectionMode::CreditPerDst { window: 3 })
            .build()
            .unwrap();
        let toml = spec.to_toml();
        assert!(toml.contains("mode = \"credit-dst\""), "{toml}");
        assert_eq!(ScenarioSpec::from_toml_str(&toml).unwrap(), spec);
        assert_eq!(ScenarioSpec::from_json_str(&spec.to_json()).unwrap(), spec);
        // AIMD overrides ride in the [injection] table under ECN.
        let spec = ScenarioSpec::builder("paced")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .injection(InjectionMode::Ecn { threshold: 0.5 })
            .aimd(AimdSpec {
                additive_step: Some(0.25),
                md_factor: None,
                min_factor: Some(0.125),
            })
            .build()
            .unwrap();
        let toml = spec.to_toml();
        assert!(toml.contains("aimd_step = 0.25"), "{toml}");
        assert_eq!(ScenarioSpec::from_toml_str(&toml).unwrap(), spec);
        let params = spec.aimd.resolve();
        assert_eq!(params.additive_step, 0.25);
        assert_eq!(params.md_factor, 0.5);
        assert_eq!(params.min_factor, 0.125);
        // AIMD keys outside ECN mode are rejected rather than dropped.
        let err = ScenarioSpec::builder("bad")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .injection(InjectionMode::Credit { window: 2 })
            .aimd(AimdSpec {
                additive_step: Some(0.25),
                ..AimdSpec::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { field, .. } if field == "injection.aimd_step"));
        let err = ScenarioSpec::builder("bad")
            .workload(synthetic_uniform())
            .allocator(AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            })
            .injection(InjectionMode::Ecn { threshold: 0.5 })
            .aimd(AimdSpec {
                md_factor: Some(1.5),
                ..AimdSpec::default()
            })
            .build()
            .unwrap_err();
        assert!(
            matches!(err, SpecError::Invalid { field, .. } if field == "injection.aimd_md_factor")
        );
    }

    #[test]
    fn kernel_spec_round_trips() {
        let spec = ScenarioSpec::builder("kernel")
            .workload(WorkloadSpec::Kernel {
                kind: KernelKind::ForkJoin,
                stages: 4,
                exec_kcc: 4.0,
                volume_kbits: 5.0,
                mapping_seed: 7,
            })
            .allocator(AllocatorSpec::Heuristic {
                kind: HeuristicKind::GreedyMakespan,
            })
            .build()
            .unwrap();
        assert_eq!(ScenarioSpec::from_toml_str(&spec.to_toml()).unwrap(), spec);
    }
}
