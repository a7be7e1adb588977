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
use onoc_traffic::{MAX_MESSAGE_BITS, TrafficPattern};
use onoc_wa::{GrantPolicy, Nsga2Config, ObjectiveSet};

use crate::value::{ParseError, Value};

/// How large the search/simulation runs should be.
///
/// This is the single scale knob of the workspace: GA population ×
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
    /// Document names, in variant order.
    const NAMES: [&'static str; 3] = ["paper", "quick", "smoke"];
    const ALL: [Scale; 3] = [Scale::Paper, Scale::Quick, Scale::Smoke];

    /// Parses `paper` / `quick` / `smoke`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        position(&Self::NAMES, name).map(|i| Self::ALL[i])
    }

    /// The machine-friendly name (`paper` / `quick` / `smoke`).
    #[must_use]
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
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
    /// Document names, in variant order.
    const NAMES: [&'static str; 4] = ["pipeline", "fork-join", "butterfly", "reduction-tree"];
    const ALL: [KernelKind; 4] = [
        KernelKind::Pipeline,
        KernelKind::ForkJoin,
        KernelKind::Butterfly,
        KernelKind::ReductionTree,
    ];

    /// The machine-friendly name.
    #[must_use]
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }

    /// Parses [`KernelKind::name`] output.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        position(&Self::NAMES, name).map(|i| Self::ALL[i])
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
        WORKLOAD_KINDS[self.shape()]
    }

    /// The position of this kind in [`WORKLOAD_KINDS`].
    fn shape(&self) -> usize {
        match self {
            WorkloadSpec::PaperApp => 0,
            WorkloadSpec::Kernel { .. } => 1,
            WorkloadSpec::Synthetic { .. } => 2,
            WorkloadSpec::Trace { .. } => 3,
            WorkloadSpec::Sweep { .. } => 4,
        }
    }

    /// Whether the workload is a message stream run by the open-loop
    /// engine (as opposed to a dependence-gated task graph).
    fn is_message_stream(&self) -> bool {
        !matches!(self, WorkloadSpec::PaperApp | WorkloadSpec::Kernel { .. })
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
    /// Document names, in variant order.
    const NAMES: [&'static str; 5] = [
        "first-fit",
        "most-used",
        "least-used",
        "random",
        "greedy-makespan",
    ];

    /// The machine-friendly name.
    #[must_use]
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }

    /// Parses [`HeuristicKind::name`] output.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        position(&Self::NAMES, name).map(|i| Self::all()[i])
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
        ALLOCATOR_KINDS[self.shape()]
    }

    /// The position of this kind in [`ALLOCATOR_KINDS`].
    fn shape(&self) -> usize {
        match self {
            AllocatorSpec::Nsga2 { .. } => 0,
            AllocatorSpec::Heuristic { .. } => 1,
            AllocatorSpec::Counts { .. } => 2,
            AllocatorSpec::Dynamic { .. } => 3,
            AllocatorSpec::FlowSynthesis { .. } => 4,
            AllocatorSpec::Striped { .. } => 5,
        }
    }
}

/// How a message-stream scenario retains per-message results
/// (the spec form of [`onoc_sim::ReportMode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportKind {
    /// Retain every record: exact quantiles and per-flow latency. Memory
    /// is `O(messages)`.
    #[default]
    Full,
    /// Fold retirements into fixed-size histograms as they happen:
    /// `O(bins + sources)` memory for paper-scale corpus runs, quantiles
    /// within one log bin of exact.
    Streaming,
}

impl ReportKind {
    /// Document names, in variant order.
    const NAMES: [&'static str; 2] = ["full", "streaming"];
    const ALL: [ReportKind; 2] = [ReportKind::Full, ReportKind::Streaming];

    /// The machine-friendly name (`full` / `streaming`).
    #[must_use]
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }

    /// Parses [`ReportKind::name`] output.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        position(&Self::NAMES, name).map(|i| Self::ALL[i])
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
    /// Document names, in variant order.
    const NAMES: [&'static str; 3] = ["never", "threshold", "idle"];
    const ALL: [DefragKind; 3] = [DefragKind::Never, DefragKind::Threshold, DefragKind::Idle];

    /// The machine name used in spec documents.
    #[must_use]
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }

    /// Parses the machine name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        position(&Self::NAMES, name).map(|i| Self::ALL[i])
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
        TRANSPORT_MODES[match self {
            TransportSpec::GoBackN { .. } => 0,
            TransportSpec::Pfc { .. } => 1,
        }]
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
        /// The key as written, with its table's dotted path.
        key: String,
        /// The known key of that table nearest to it by edit distance.
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
        ScenarioSpecBuilder(ScenarioSpec {
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
        })
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

    /// The document form of this spec: exactly the keys it sets.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let injection = match self.injection {
            InjectionMode::Open => None,
            InjectionMode::Credit { window } => Some(INJECTION.write(1, [window.to_doc()])),
            InjectionMode::CreditPerDst { window } => Some(INJECTION.write(2, [window.to_doc()])),
            InjectionMode::Ecn { threshold } => {
                Some(
                    INJECTION.store(3, &(threshold, self.aimd), |(threshold, aimd), v| {
                        v.key(threshold);
                        aimd.visit(v);
                    }),
                )
            }
        };
        ROOT.write(
            0,
            [
                self.name.to_doc(),
                self.seed.to_doc(),
                Some(self.scale.name().into()),
                Some(objectives_name(self.objectives).into()),
                Some(self.report.name().into()),
                Some(ARCH.store(0, &self.arch, ArchSpec::visit)),
                Some(self.workload.doc()),
                Some(self.allocator.doc()),
                injection,
                self.energy
                    .as_ref()
                    .map(|e| ENERGY.store(0, e, EnergySpec::visit)),
                self.telemetry
                    .as_ref()
                    .map(|t| TELEMETRY.store(0, t, TelemetrySpec::visit)),
                self.faults
                    .as_ref()
                    .map(|f| FAULTS.store(0, f, FaultSpec::visit)),
                self.transport.as_ref().map(TransportSpec::doc),
                self.healing
                    .as_ref()
                    .map(|h| HEALING.store(0, h, HealingSpec::visit)),
                self.service
                    .as_ref()
                    .map(|s| SERVICE.store(0, s, ServiceSpec::visit)),
            ],
        )
    }

    /// Reads and validates a spec from its document form.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when a key is unknown, misplaced, missing,
    /// of the wrong type or out of range, or the combination is invalid.
    pub fn from_value(value: &Value) -> Result<Self, SpecError> {
        let spec = Self::read(value)?;
        spec.check_rules()?;
        Ok(spec)
    }

    /// Checks the spec as [`ScenarioSpecBuilder::build`] does: every
    /// field against the type and range of its key, then the rules that
    /// relate fields. For a spec whose fields changed after it was built
    /// or parsed.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`] found.
    pub fn validate(&self) -> Result<(), SpecError> {
        Self::read(&self.to_value())?;
        self.check_rules()
    }

    /// Builds the typed spec from a document, checking every table
    /// against its field list; the rules across fields are `check_rules`.
    fn read(doc: &Value) -> Result<Self, SpecError> {
        let mut r = ROOT.reader(doc, 0)?;
        let (name, seed) = (r.val(), r.val());
        let scale = Scale::ALL[r.index()];
        let objectives = OBJECTIVE_SETS[r.index()];
        let report = ReportKind::ALL[r.index()];
        let arch = ARCH.load(r.table().unwrap_or(&EMPTY), ArchSpec::visit)?;
        let workload = read_workload(r.table().unwrap_or(&EMPTY))?;
        let allocator = read_allocator(r.table().unwrap_or(&EMPTY))?;
        let (injection, aimd) = match r.table() {
            Some(table) => read_injection(table)?,
            None => (InjectionMode::Open, AimdSpec::default()),
        };
        Ok(ScenarioSpec {
            name,
            seed,
            scale,
            objectives,
            arch,
            workload,
            allocator,
            injection,
            report,
            aimd,
            energy: r.load(&ENERGY, EnergySpec::visit)?,
            telemetry: r.load(&TELEMETRY, TelemetrySpec::visit)?,
            faults: r.load(&FAULTS, FaultSpec::visit)?,
            transport: r.table().map(read_transport).transpose()?,
            healing: r.load(&HEALING, HealingSpec::visit)?,
            service: r.load(&SERVICE, ServiceSpec::visit)?,
        })
    }

    /// The rules that relate fields to each other; every single-field
    /// type and range check is the reader's.
    fn check_rules(&self) -> Result<(), SpecError> {
        let (nodes, comb) = (self.arch.nodes, self.arch.wavelengths);
        match &self.workload {
            WorkloadSpec::PaperApp if nodes != 16 => {
                return Err(invalid(
                    "arch.nodes",
                    "the paper application is mapped on a 16-node ring",
                ));
            }
            WorkloadSpec::Synthetic { pattern, .. } => hotspots_on_ring(pattern, nodes)?,
            WorkloadSpec::Sweep {
                patterns,
                ring_sizes,
                ..
            } => {
                for &nodes in ring_sizes {
                    for pattern in patterns {
                        hotspots_on_ring(pattern, nodes)?;
                    }
                }
                // The document stores hotspot parameters in shared
                // sibling keys, so two *different* hotspot
                // parameterisations cannot round-trip.
                let mut hot = patterns
                    .iter()
                    .filter(|p| matches!(p, TrafficPattern::Hotspot { .. }));
                if let Some(first) = hot.next()
                    && hot.any(|p| p != first)
                {
                    return Err(invalid(
                        "workload.patterns",
                        "a sweep supports at most one distinct hotspot \
                         parameterisation (hotspots/fraction are shared keys)",
                    ));
                }
            }
            _ => {}
        }
        match &self.allocator {
            AllocatorSpec::Striped { lanes_per_flow } if *lanes_per_flow > comb => {
                return Err(invalid(
                    "allocator.lanes_per_flow",
                    "must be in 1..=arch.wavelengths",
                ));
            }
            AllocatorSpec::FlowSynthesis { spares, .. } if *spares >= comb => {
                return Err(invalid(
                    "allocator.spares",
                    "spare lanes must leave at least one packable lane \
                     (spares < arch.wavelengths)",
                ));
            }
            _ => {}
        }
        if !self.aimd.is_default() && !matches!(self.injection, InjectionMode::Ecn { .. }) {
            return Err(invalid(
                "injection.aimd_step",
                "AIMD overrides apply to ECN injection",
            ));
        }
        // Task-graph workloads run on their own engines: what shapes a
        // message stream applies to the message-stream workloads only.
        let stream = self.workload.is_message_stream();
        let single = matches!(
            self.workload,
            WorkloadSpec::Synthetic { .. } | WorkloadSpec::Trace { .. }
        );
        let rejected = [
            (self.injection.is_closed_loop() && !stream, "injection.mode"),
            (self.report == ReportKind::Streaming && !stream, "report"),
            (self.faults.is_some() && !stream, "faults"),
            (self.transport.is_some() && !stream, "transport"),
            (self.healing.is_some() && !stream, "healing"),
            (self.telemetry.is_some() && !single, "telemetry"),
            (self.service.is_some() && !single, "service"),
        ];
        if let Some(&(_, field)) = rejected.iter().find(|r| r.0) {
            let workloads = match field {
                "telemetry" | "service" => "a synthetic or trace workload",
                _ => "a message-stream workload (synthetic, trace or sweep)",
            };
            return Err(invalid(field, format!("applies to {workloads}")));
        }
        if let Some(faults) = &self.faults {
            let min_comb = match &self.workload {
                WorkloadSpec::Sweep { wavelengths, .. } => {
                    wavelengths.iter().copied().min().unwrap_or(comb)
                }
                _ => comb,
            };
            faults.check_rules(min_comb)?;
            if faults.ber_model.is_some()
                && matches!(&self.workload, WorkloadSpec::Sweep { ring_sizes, .. }
                    if ring_sizes.iter().any(|&n| n != nodes))
            {
                return Err(invalid(
                    "faults.ber_model",
                    "the per-flow BER model is sized to the spec architecture; \
                     sweep ring_sizes must all equal arch.nodes",
                ));
            }
        }
        if let Some(healing) = &self.healing
            && healing.policy() != HealPolicy::Park
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
        if let Some(service) = &self.service {
            let defrag = service.defrag.unwrap_or_default();
            if service.defrag_threshold.is_some() && defrag != DefragKind::Threshold {
                return Err(invalid(
                    "service.defrag_threshold",
                    "applies to defrag = \"threshold\"",
                ));
            }
            if service.defrag_idle.is_some() && defrag != DefragKind::Idle {
                return Err(invalid(
                    "service.defrag_idle",
                    "applies to defrag = \"idle\"",
                ));
            }
            for (field, demand) in [
                ("service.max_demand", service.max_demand()),
                ("service.trace_demand", service.trace_demand()),
            ] {
                if demand > comb {
                    return Err(invalid(
                        field,
                        "a session cannot demand more lanes than the comb holds",
                    ));
                }
            }
        }
        let compatible = match &self.allocator {
            AllocatorSpec::Nsga2 { .. }
            | AllocatorSpec::Heuristic { .. }
            | AllocatorSpec::Counts { .. } => !stream,
            AllocatorSpec::Dynamic { .. } => true,
            AllocatorSpec::FlowSynthesis { .. } | AllocatorSpec::Striped { .. } => single,
        };
        if !compatible {
            return Err(SpecError::Incompatible {
                workload: self.workload.kind(),
                allocator: self.allocator.kind(),
            });
        }
        Ok(())
    }
}

impl FaultSpec {
    /// The `[faults]` groups given together, their mutual exclusions,
    /// and the outage lanes against the (smallest) comb.
    fn check_rules(&self, comb: usize) -> Result<(), SpecError> {
        let together = |given: &[bool], field: &'static str, keys: &str| {
            if given.iter().any(|g| *g) && !given.iter().all(|g| *g) {
                return Err(invalid(field, format!("{keys} must be given together")));
            }
            Ok(())
        };
        if self.ber.is_some() && self.ber_model.is_some() {
            return Err(invalid(
                "faults.ber",
                "ber and ber_model are mutually exclusive",
            ));
        }
        together(
            &[
                self.outage_lanes.is_some(),
                self.outage_starts.is_some(),
                self.outage_durations.is_some(),
            ],
            "faults.outage_lanes",
            "outage_lanes, outage_starts and outage_durations",
        )?;
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
            if let Some(lane) = lanes.iter().find(|&&lane| lane >= comb) {
                return Err(invalid(
                    "faults.outage_lanes",
                    format!("lane {lane} is outside the {comb}-channel comb"),
                ));
            }
        }
        together(
            &[
                self.mean_up.is_some(),
                self.mean_down.is_some(),
                self.fault_horizon.is_some(),
            ],
            "faults.mean_up",
            "mean_up, mean_down and fault_horizon",
        )?;
        together(
            &[
                self.ge_p_gb.is_some(),
                self.ge_p_bg.is_some(),
                self.ge_ber_good.is_some(),
                self.ge_ber_bad.is_some(),
            ],
            "faults.ge_p_gb",
            "ge_p_gb, ge_p_bg, ge_ber_good and ge_ber_bad",
        )?;
        if let (Some(good), Some(bad)) = (self.ge_ber_good, self.ge_ber_bad) {
            if self.ber.is_some() || self.ber_model.is_some() {
                return Err(invalid(
                    "faults.ge_p_gb",
                    "the Gilbert–Elliott channel is mutually exclusive with ber/ber_model",
                ));
            }
            if bad < good {
                return Err(invalid(
                    "faults.ge_ber_bad",
                    format!("bad-state BER {bad} below good-state BER {good}"),
                ));
            }
        }
        Ok(())
    }
}

fn hotspots_on_ring(pattern: &TrafficPattern, nodes: usize) -> Result<(), SpecError> {
    if let TrafficPattern::Hotspot { hotspots, .. } = pattern
        && let Some(h) = hotspots.iter().find(|h| h.0 >= nodes)
    {
        return Err(invalid(
            "workload.hotspots",
            format!("{h} is not on a {nodes}-node ring"),
        ));
    }
    Ok(())
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
pub struct ScenarioSpecBuilder(ScenarioSpec);

impl ScenarioSpecBuilder {
    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.0.seed = seed;
        self
    }

    /// Sets the scale.
    #[must_use]
    pub fn scale(mut self, scale: Scale) -> Self {
        self.0.scale = scale;
        self
    }

    /// Sets the GA objective set.
    #[must_use]
    pub fn objectives(mut self, objectives: ObjectiveSet) -> Self {
        self.0.objectives = objectives;
        self
    }

    /// Sets the ring size.
    #[must_use]
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.0.arch.nodes = nodes;
        self
    }

    /// Sets the comb size.
    #[must_use]
    pub fn wavelengths(mut self, wavelengths: usize) -> Self {
        self.0.arch.wavelengths = wavelengths;
        self
    }

    /// Sets the workload axis.
    #[must_use]
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.0.workload = workload;
        self
    }

    /// Sets the allocator axis.
    #[must_use]
    pub fn allocator(mut self, allocator: AllocatorSpec) -> Self {
        self.0.allocator = allocator;
        self
    }

    /// Sets the injection policy.
    #[must_use]
    pub fn injection(mut self, injection: InjectionMode) -> Self {
        self.0.injection = injection;
        self
    }

    /// Sets the report retention mode.
    #[must_use]
    pub fn report(mut self, report: ReportKind) -> Self {
        self.0.report = report;
        self
    }

    /// Sets the `[energy]` table.
    #[must_use]
    pub fn energy(mut self, energy: EnergySpec) -> Self {
        self.0.energy = Some(energy);
        self
    }

    /// Sets the `[telemetry]` table.
    #[must_use]
    pub fn telemetry(mut self, telemetry: TelemetrySpec) -> Self {
        self.0.telemetry = Some(telemetry);
        self
    }

    /// Sets the ECN AIMD pacing overrides.
    #[must_use]
    pub fn aimd(mut self, aimd: AimdSpec) -> Self {
        self.0.aimd = aimd;
        self
    }

    /// Sets the `[faults]` table.
    #[must_use]
    pub fn faults(mut self, faults: FaultSpec) -> Self {
        self.0.faults = Some(faults);
        self
    }

    /// Sets the `[transport]` table.
    #[must_use]
    pub fn transport(mut self, transport: TransportSpec) -> Self {
        self.0.transport = Some(transport);
        self
    }

    /// Sets the `[healing]` table.
    #[must_use]
    pub fn healing(mut self, healing: HealingSpec) -> Self {
        self.0.healing = Some(healing);
        self
    }

    /// Sets the `[service]` table.
    #[must_use]
    pub fn service(mut self, service: ServiceSpec) -> Self {
        self.0.service = Some(service);
        self
    }

    /// Validates the combination and produces the spec.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] on out-of-range fields or an
    /// undefined workload/allocator combination.
    pub fn build(self) -> Result<ScenarioSpec, SpecError> {
        self.0.validate()?;
        Ok(self.0)
    }
}

fn invalid(field: &'static str, message: impl Into<String>) -> SpecError {
    SpecError::Invalid {
        field,
        message: message.into(),
    }
}

// --------------------------------------------------------------- names --

/// The position of `name` in `names`.
fn position(names: &[&str], name: &str) -> Option<usize> {
    names.iter().position(|n| *n == name)
}

/// Workload kinds, in [`WorkloadSpec`] variant order.
const WORKLOAD_KINDS: [&str; 5] = ["paper-app", "kernel", "synthetic", "trace", "sweep"];
/// Allocator kinds, in [`AllocatorSpec`] variant order.
const ALLOCATOR_KINDS: [&str; 6] = [
    "nsga2",
    "heuristic",
    "counts",
    "dynamic",
    "flow-synthesis",
    "striped",
];
/// Injection modes, as [`InjectionMode::name`] spells them.
const INJECTION_MODES: [&str; 4] = ["open", "credit", "credit-dst", "ecn"];
/// Transport modes, as [`TransportSpec::mode`] spells them.
const TRANSPORT_MODES: [&str; 2] = ["gbn", "pfc"];
/// Dynamic claim policies: one lane per message, or greedy up to `cap`.
const DYNAMIC_POLICIES: [&str; 2] = ["single", "greedy"];
/// Flow-synthesis lane-sizing policies.
const SYNTHESIS_POLICIES: [&str; 3] = ["proportional", "first-fit", "relaxed"];
/// Grant disciplines, as [`GrantPolicy::name`] spells them.
const GRANT_POLICIES: [&str; 2] = ["disjoint", "shared"];
/// Heal policies [`HealPolicy::parse`] accepts (`re-pack` is the relaxed
/// variant's alias).
const HEAL_POLICIES: [&str; 4] = ["park", "re-pack-strict", "re-pack-relaxed", "re-pack"];
const ENERGY_PRESETS: [&str; 1] = [ENERGY_PRESET_PAPER];
const BER_MODELS: [&str; 1] = [FAULT_BER_MODEL_PAPER];
const OBJECTIVES: [&str; 3] = ["time-energy", "time-ber", "time-energy-ber"];
const OBJECTIVE_SETS: [ObjectiveSet; 3] = [
    ObjectiveSet::TimeEnergy,
    ObjectiveSet::TimeBer,
    ObjectiveSet::TimeEnergyBer,
];

/// The traffic patterns a spec can name (hotspot parameters live in
/// sibling keys, not the name).
pub const TRAFFIC_PATTERNS: [&str; 7] = [
    "uniform",
    "hotspot",
    "transpose",
    "bit-reversal",
    "bit-complement",
    "nearest-neighbor",
    "tornado",
];

/// The pattern [`TRAFFIC_PATTERNS`] names, with the hotspot parameters
/// for `"hotspot"`; `None` for a name outside the list.
#[must_use]
pub fn traffic_pattern(name: &str, hotspots: &[NodeId], fraction: f64) -> Option<TrafficPattern> {
    let i = position(&TRAFFIC_PATTERNS, name)?;
    Some(pattern_at(i, || TrafficPattern::Hotspot {
        hotspots: hotspots.to_vec(),
        fraction,
    }))
}

/// The pattern at position `i` of [`TRAFFIC_PATTERNS`]; `hotspot` makes
/// the hotspot one.
fn pattern_at(i: usize, hotspot: impl FnOnce() -> TrafficPattern) -> TrafficPattern {
    match i {
        0 => TrafficPattern::UniformRandom,
        1 => hotspot(),
        2 => TrafficPattern::Transpose,
        3 => TrafficPattern::BitReversal,
        4 => TrafficPattern::BitComplement,
        5 => TrafficPattern::NearestNeighbor,
        _ => TrafficPattern::Tornado,
    }
}

/// The spec-file name of a pattern.
fn pattern_name(pattern: &TrafficPattern) -> &'static str {
    TRAFFIC_PATTERNS[match pattern {
        TrafficPattern::UniformRandom => 0,
        TrafficPattern::Hotspot { .. } => 1,
        TrafficPattern::Transpose => 2,
        TrafficPattern::BitReversal => 3,
        TrafficPattern::BitComplement => 4,
        TrafficPattern::NearestNeighbor => 5,
        TrafficPattern::Tornado => 6,
    }]
}

/// The spec-file name of an objective set.
#[must_use]
pub fn objectives_name(set: ObjectiveSet) -> &'static str {
    OBJECTIVES[OBJECTIVE_SETS
        .iter()
        .position(|s| *s == set)
        .expect("every objective set is listed")]
}

/// Parses [`objectives_name`] output.
#[must_use]
pub fn objectives_from_name(name: &str) -> Option<ObjectiveSet> {
    position(&OBJECTIVES, name).map(|i| OBJECTIVE_SETS[i])
}

// -------------------------------------------------------------- schema --
//
// Every key a spec document may carry is declared once, in the field
// list of its table (or of the table's kind or mode) further down. One
// reader checks a table against its list and builds the typed value, one
// writer emits the keys a spec sets, and `ScenarioSpec::validate` runs a
// built spec's document through the same reader, so parsed and built
// specs meet the same range checks.

/// The interval a number, or every entry of a number array, lies in.
#[derive(Debug, Clone, Copy)]
struct Range {
    lo: f64,
    hi: f64,
    lo_open: bool,
    hi_open: bool,
    /// Zero is admitted besides the interval.
    or_zero: bool,
}

const fn between(lo: f64, hi: f64, lo_open: bool, hi_open: bool) -> Range {
    Range {
        lo,
        hi,
        lo_open,
        hi_open,
        or_zero: false,
    }
}

const fn at_least(lo: f64) -> Range {
    between(lo, f64::INFINITY, false, true)
}

const NAT: Range = at_least(0.0);
const ONE_UP: Range = at_least(1.0);
const POSITIVE: Range = between(0.0, f64::INFINITY, true, true);
const UNIT: Range = between(0.0, 1.0, false, false);
const UNIT_NO_ZERO: Range = between(0.0, 1.0, true, false);
const UNIT_OPEN: Range = between(0.0, 1.0, true, true);
const UNIT_NO_ONE: Range = between(0.0, 1.0, false, true);
/// Comb sizes: a lane mask is 128 bits wide.
const LANES: Range = between(1.0, 128.0, false, false);
const U32: Range = between(0.0, u32::MAX as f64, false, false);
/// Message sizes: every single-lane transfer time fits `u64` cycles.
const MESSAGE_SIZE: Range = between(0.0, MAX_MESSAGE_BITS, true, false);

impl Range {
    fn admits(self, x: f64) -> bool {
        (self.or_zero && x == 0.0)
            || ((if self.lo_open {
                x > self.lo
            } else {
                x >= self.lo
            }) && (if self.hi_open {
                x < self.hi
            } else {
                x <= self.hi
            }))
    }
}

impl core::fmt::Display for Range {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.or_zero {
            f.write_str("0 or ")?;
        }
        if self.hi.is_infinite() {
            return write!(f, "{} {}", if self.lo_open { ">" } else { "≥" }, self.lo);
        }
        let open = if self.lo_open { '(' } else { '[' };
        let close = if self.hi_open { ')' } else { ']' };
        write!(f, "in {open}{}, {}{close}", self.lo, self.hi)
    }
}

/// What a key's value must be. Arrays must not be empty.
#[derive(Debug, Clone, Copy)]
enum Ty {
    Bool,
    /// A string with a non-blank character.
    Str,
    /// One of an enum's names.
    Name(&'static [&'static str]),
    Int(Range),
    Float(Range),
    Ints(Range),
    Floats(Range),
    Names(&'static [&'static str]),
    /// A subtable, read against its own field lists.
    #[cfg_attr(not(test), allow(dead_code))] // walked by the README key reference
    Table(&'static Schema),
}

impl Ty {
    /// Whether `value` has this type and lies in its range.
    fn admits(self, value: &Value) -> bool {
        let int = |v: &Value, r: Range| v.as_int().is_some_and(|i| r.admits(i as f64));
        let float = |v: &Value, r: Range| v.as_float().is_some_and(|x| r.admits(x));
        let name = |v: &Value, names: &[&str]| v.as_str().is_some_and(|s| names.contains(&s));
        let every = |ok: &dyn Fn(&Value) -> bool| {
            value
                .as_array()
                .is_some_and(|items| !items.is_empty() && items.iter().all(ok))
        };
        match self {
            Ty::Bool => value.as_bool().is_some(),
            Ty::Str => value.as_str().is_some_and(|s| !s.trim().is_empty()),
            Ty::Name(names) => name(value, names),
            Ty::Int(r) => int(value, r),
            Ty::Float(r) => float(value, r),
            Ty::Ints(r) => every(&|v| int(v, r)),
            Ty::Floats(r) => every(&|v| float(v, r)),
            Ty::Names(names) => every(&|v| name(v, names)),
            Ty::Table(_) => value.as_table().is_some(),
        }
    }
}

impl core::fmt::Display for Ty {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            Ty::Bool => f.write_str("a boolean"),
            Ty::Str => f.write_str("a non-blank string"),
            Ty::Name(names) => write!(f, "one of {names:?}"),
            Ty::Int(r) => write!(f, "an integer {r}"),
            Ty::Float(r) => write!(f, "a number {r}"),
            Ty::Ints(r) => write!(f, "a non-empty array of integers {r}"),
            Ty::Floats(r) => write!(f, "a non-empty array of numbers {r}"),
            Ty::Names(names) => write!(f, "a non-empty array of names from {names:?}"),
            Ty::Table(_) => f.write_str("a table"),
        }
    }
}

/// What an absent key means. Values are written as document text: a
/// number, or a bare name.
#[derive(Debug, Clone, Copy)]
enum Dflt {
    /// The key must be given.
    Required,
    /// Absent reads as this value; the writer always emits the key.
    Fill(&'static str),
    /// Absent reads as this value; the writer leaves the key out at it.
    Omit(&'static str),
    /// Absent leaves the typed field unset; what that resolves to.
    #[cfg_attr(not(test), allow(dead_code))] // read by the README key reference
    Unset(&'static str),
}

/// One key of a spec table: path, type and range, default, and doc.
#[derive(Debug, Clone, Copy)]
struct Field {
    /// Dotted path: the table, then the key.
    path: &'static str,
    /// The last segment of `path`.
    key: &'static str,
    ty: Ty,
    default: Dflt,
    /// For a key that only some values of a sibling key use: that key
    /// and the value it must hold (or, for an array, contain).
    when: Option<(&'static str, &'static str)>,
    /// One line for the README key reference.
    #[cfg_attr(not(test), allow(dead_code))]
    doc: &'static str,
}

const fn field(path: &'static str, ty: Ty, default: Dflt, doc: &'static str) -> Field {
    let bytes = path.as_bytes();
    let mut start = bytes.len();
    while start > 0 && bytes[start - 1] != b'.' {
        start -= 1;
    }
    let Ok(key) = core::str::from_utf8(bytes.split_at(start).1) else {
        panic!("a field path is UTF-8");
    };
    Field {
        path,
        key,
        ty,
        default,
        when: None,
        doc,
    }
}

impl Field {
    const fn when(self, key: &'static str, value: &'static str) -> Self {
        Field {
            when: Some((key, value)),
            ..self
        }
    }

    /// The names a `Name` or `Names` field admits.
    fn names(&self) -> &'static [&'static str] {
        match self.ty {
            Ty::Name(names) | Ty::Names(names) => names,
            _ => &[],
        }
    }

    /// The text of a `Fill` or `Omit` default.
    fn fallback(&self) -> Option<&'static str> {
        match self.default {
            Dflt::Fill(text) | Dflt::Omit(text) => Some(text),
            Dflt::Required | Dflt::Unset(_) => None,
        }
    }

    fn mismatch(&self, value: &Value) -> SpecError {
        // A built spec can hold a non-finite float, which JSON cannot show.
        let finite = |v: &Value| v.as_float().is_none_or(f64::is_finite);
        let got = if finite(value) && value.as_array().is_none_or(|a| a.iter().all(finite)) {
            short_json(value)
        } else {
            format!("{value:?}")
        };
        invalid(self.path, format!("must be {}, got {got}", self.ty))
    }
}

/// A value as a range error quotes it: compact JSON, except that a float
/// far from 1 reads in Rust's shortest `{:e}` form (`1e300`, not 301
/// digits).
fn short_json(value: &Value) -> String {
    match value {
        Value::Float(x) if *x != 0.0 && !(1e-5..1e16).contains(&x.abs()) => format!("{x:e}"),
        Value::Array(items) => {
            let items: Vec<String> = items.iter().map(short_json).collect();
            format!("[{}]", items.join(","))
        }
        _ => value.to_json_compact(),
    }
}

/// A table's field lists: one, or one per name of its selector key.
#[derive(Debug)]
struct Schema {
    /// The key whose value picks the field list (`kind` / `mode`).
    select: Option<Field>,
    /// The field lists, in the order of the selector's names.
    shapes: &'static [&'static [Field]],
}

/// An empty table: what an absent table of defaulted keys reads as.
static EMPTY: Value = Value::Table(std::collections::BTreeMap::new());

impl Schema {
    /// The position of the selector's name among its names (0 without a
    /// selector).
    fn shape(&self, table: &Value) -> Result<usize, SpecError> {
        let Some(select) = &self.select else {
            return Ok(0);
        };
        let Some(value) = table.get(select.key) else {
            // A misspelt selector is unknown before it is missing.
            let mut keys = table.as_table().into_iter().flatten().map(|(k, _)| k);
            return Err(match keys.find(|k| !self.fields().any(|f| f.key == *k)) {
                Some(key) => self.stray(key),
                None => SpecError::Missing { field: select.path },
            });
        };
        match value
            .as_str()
            .and_then(|name| position(select.names(), name))
        {
            Some(shape) => Ok(shape),
            None => Err(select.mismatch(value)),
        }
    }

    /// Every field of the table, the selector first.
    fn fields(&self) -> impl Iterator<Item = &Field> {
        self.select
            .iter()
            .chain(self.shapes.iter().copied().flatten())
    }

    /// Checks `table` against shape `shape`, then hands out its keys in
    /// field-list order. Every key must be the selector or one of the
    /// shape's fields, of its type and in its range; a required key must
    /// be present. Allocates only on error.
    fn reader<'a>(&'a self, table: &'a Value, shape: usize) -> Result<Read<'a>, SpecError> {
        let fields = self.shapes[shape];
        let mut values = [None; MAX_FIELDS];
        for (key, value) in table.as_table().into_iter().flatten() {
            match fields.iter().position(|f| f.key == *key) {
                Some(i) if !fields[i].ty.admits(value) => return Err(fields[i].mismatch(value)),
                Some(i) => values[i] = Some(value),
                None if self.select.is_some_and(|s| s.key == *key) => {}
                None => return Err(self.stray(key)),
            }
        }
        for (field, value) in fields.iter().zip(values) {
            let applies = field.when.is_none_or(|(key, name)| {
                let i = fields.iter().position(|f| f.key == key);
                let i = i.expect("a condition names a key of its own shape");
                match values[i] {
                    Some(Value::Array(items)) => items.iter().any(|v| v.as_str() == Some(name)),
                    Some(value) => value.as_str() == Some(name),
                    None => fields[i].fallback() == Some(name),
                }
            });
            match (value, field.when) {
                (Some(_), Some((key, name))) if !applies => {
                    return Err(invalid(field.path, format!("applies to {key} = {name:?}")));
                }
                (None, _) if applies && matches!(field.default, Dflt::Required) => {
                    return Err(SpecError::Missing { field: field.path });
                }
                _ => {}
            }
        }
        Ok(Read {
            fields: fields.iter(),
            values: values.into_iter(),
        })
    }

    /// The error for a key outside the chosen shape: a key another shape
    /// uses names the selector value that uses it; any other is unknown.
    fn stray(&self, key: &str) -> SpecError {
        let owner = self
            .shapes
            .iter()
            .position(|s| s.iter().any(|f| f.key == key));
        if let (Some(select), Some(shape)) = (&self.select, owner) {
            let field = self.shapes[shape].iter().find(|f| f.key == key);
            let path = field.map_or(select.path, |f| f.path);
            let name = select.names()[shape];
            return invalid(path, format!("applies to {} = {name:?}", select.key));
        }
        let nearest = self
            .fields()
            .min_by_key(|f| edit_distance(key, f.key))
            .expect("every table declares a key");
        let table = &nearest.path[..nearest.path.len() - nearest.key.len()];
        SpecError::UnknownKey {
            key: format!("{table}{key}"),
            nearest: nearest.path,
        }
    }

    /// Reads a whole table into a `T` through its `visit`.
    fn load<'a, T: Default>(
        &'a self,
        table: &'a Value,
        visit: impl FnOnce(&mut T, &mut Read<'a>),
    ) -> Result<T, SpecError> {
        let mut x = T::default();
        visit(&mut x, &mut self.reader(table, 0)?);
        Ok(x)
    }

    /// A writer for shape `shape`, the selector's name already in.
    fn writer(&self, shape: usize) -> Write {
        let mut table = Value::table();
        if let Some(select) = &self.select {
            table.insert(select.key, select.names()[shape]);
        }
        Write {
            fields: self.shapes[shape].iter(),
            table,
        }
    }

    /// Writes shape `shape` from its values in field-list order.
    fn write<const N: usize>(&self, shape: usize, values: [Option<Value>; N]) -> Value {
        let mut w = self.writer(shape);
        for value in values {
            w.put(value);
        }
        w.table
    }

    /// Writes shape `shape` of `x` through its `visit`.
    fn store<T: Clone>(
        &self,
        shape: usize,
        x: &T,
        visit: impl FnOnce(&mut T, &mut Write),
    ) -> Value {
        let mut w = self.writer(shape);
        visit(&mut x.clone(), &mut w);
        w.table
    }
}

/// Hands out a checked table's keys in field-list order.
struct Read<'a> {
    fields: std::slice::Iter<'a, Field>,
    values: std::array::IntoIter<Option<&'a Value>, MAX_FIELDS>,
}

/// The most keys one field list declares (the root's).
const MAX_FIELDS: usize = 15;

impl<'a> Read<'a> {
    fn next(&mut self) -> (&'a Field, Option<&'a Value>) {
        let field = self.fields.next().expect("a reader follows its field list");
        (field, self.values.next().flatten())
    }

    /// The next key's value, its default when absent, or `None` when it
    /// is absent and unset.
    fn get<T: Doc>(&mut self) -> Option<T> {
        match self.next() {
            (_, Some(value)) => T::from_doc(value),
            (field, None) => {
                // Defaults read here are numbers; `index` reads names.
                let text = field.fallback()?;
                let value = match text.parse::<i64>() {
                    Ok(i) => Value::Int(i),
                    Err(_) => Value::Float(text.parse().ok()?),
                };
                T::from_doc(&value)
            }
        }
    }

    /// The value of a key the check guarantees (required or defaulted).
    fn val<T: Doc + Default>(&mut self) -> T {
        self.get().unwrap_or_default()
    }

    /// The position of the next key's name in its field's names.
    fn index(&mut self) -> usize {
        let (field, value) = self.next();
        let name = value.map_or(field.fallback(), Value::as_str);
        name.and_then(|name| position(field.names(), name))
            .unwrap_or(0)
    }

    /// The next key's subtable, if given.
    fn table(&mut self) -> Option<&'a Value> {
        self.next().1
    }

    /// Reads the next key's subtable, if given, through `visit`.
    fn load<T: Default>(
        &mut self,
        schema: &'a Schema,
        visit: impl FnOnce(&mut T, &mut Read<'a>),
    ) -> Result<Option<T>, SpecError> {
        self.table().map(|t| schema.load(t, visit)).transpose()
    }
}

/// Collects a table's keys in field-list order.
struct Write {
    fields: std::slice::Iter<'static, Field>,
    table: Value,
}

impl Write {
    /// Writes the next key, unless the value is absent or an `Omit`
    /// default.
    fn put(&mut self, value: Option<Value>) {
        let field = self.fields.next().expect("a writer follows its field list");
        let omit = |text: &str, v: &Value| {
            v.as_str() == Some(text) || v.as_float().is_some_and(|x| text.parse() == Ok(x))
        };
        match (value, field.default) {
            (Some(v), Dflt::Omit(text)) if omit(text, &v) => {}
            (Some(v), _) => self.table.insert(field.key, v),
            (None, _) => {}
        }
    }
}

/// Walks a table's typed fields in field-list order: a [`Read`] fills
/// them, a [`Write`] emits them.
trait Visit {
    fn key<T: Doc>(&mut self, x: &mut T);
}

impl Visit for Read<'_> {
    fn key<T: Doc>(&mut self, x: &mut T) {
        if let Some(value) = self.get() {
            *x = value;
        }
    }
}

impl Visit for Write {
    fn key<T: Doc>(&mut self, x: &mut T) {
        self.put(x.to_doc());
    }
}

/// A typed value's document form.
trait Doc: Sized {
    /// From a value the reader already checked.
    fn from_doc(value: &Value) -> Option<Self>;
    /// The document value; `None` leaves the key out.
    fn to_doc(&self) -> Option<Value>;
}

/// [`Doc`] for integers. A document holds `i64`: a larger value is
/// written as a float, which the reader rejects as a non-integer.
macro_rules! int_doc {
    ($($t:ty),*) => {$(
        impl Doc for $t {
            fn from_doc(value: &Value) -> Option<Self> {
                value.as_int()?.try_into().ok()
            }
            fn to_doc(&self) -> Option<Value> {
                Some(i64::try_from(*self).map_or(Value::Float(*self as f64), Value::Int))
            }
        }
    )*};
}
int_doc!(u64, usize, u32);

/// [`Doc`] for types held in one [`Value`] variant.
macro_rules! scalar_doc {
    ($($t:ty: $get:expr, $variant:ident;)*) => {$(
        impl Doc for $t {
            fn from_doc(value: &Value) -> Option<Self> {
                $get(value)
            }
            fn to_doc(&self) -> Option<Value> {
                Some(Value::$variant(self.clone()))
            }
        }
    )*};
}
scalar_doc! {
    f64: Value::as_float, Float;
    bool: Value::as_bool, Bool;
    String: |v: &Value| v.as_str().map(str::to_string), Str;
}

/// [`Doc`] for enums written as one of their names.
macro_rules! name_doc {
    ($($t:ty: $parse:path, $name:path;)*) => {$(
        impl Doc for $t {
            fn from_doc(value: &Value) -> Option<Self> {
                $parse(value.as_str()?)
            }
            fn to_doc(&self) -> Option<Value> {
                Some($name(*self).into())
            }
        }
    )*};
}
name_doc! {
    DefragKind: DefragKind::from_name, DefragKind::name;
    GrantPolicy: GrantPolicy::parse, GrantPolicy::name;
}

impl<T: Doc> Doc for Option<T> {
    fn from_doc(value: &Value) -> Option<Self> {
        T::from_doc(value).map(Some)
    }
    fn to_doc(&self) -> Option<Value> {
        self.as_ref()?.to_doc()
    }
}

impl<T: Doc> Doc for Vec<T> {
    fn from_doc(value: &Value) -> Option<Self> {
        value.as_array()?.iter().map(T::from_doc).collect()
    }
    fn to_doc(&self) -> Option<Value> {
        self.iter()
            .map(T::to_doc)
            .collect::<Option<_>>()
            .map(Value::Array)
    }
}

impl Doc for NodeId {
    fn from_doc(value: &Value) -> Option<Self> {
        usize::from_doc(value).map(NodeId)
    }
    fn to_doc(&self) -> Option<Value> {
        self.0.to_doc()
    }
}

// --------------------------------------------------------- field lists --

/// A table whose keys fill a struct's fields: one row per key, naming
/// the field it fills. Defines the table's [`Schema`] and the struct's
/// `visit`, so a row and its binding cannot drift apart.
macro_rules! struct_table {
    ($schema:ident: $ty:ty { $($field:ident: $entry:expr),* $(,)? }) => {
        static $schema: Schema = Schema { select: None, shapes: &[&[$($entry),*]] };

        impl $ty {
            fn visit(&mut self, v: &mut impl Visit) {
                $(v.key(&mut self.$field);)*
            }
        }
    };
}

use Dflt::{Fill, Omit, Required, Unset};
use Ty::{Bool, Float, Floats, Int, Ints, Name, Names, Str};

#[rustfmt::skip]
static ROOT: Schema = Schema { select: None, shapes: &[&[
    field("name", Str, Required, "Scenario name; also the artifact prefix."),
    field("seed", Int(NAT), Fill("2017"), "Master seed for everything the scenario randomises."),
    field("scale", Name(&Scale::NAMES), Fill(Scale::NAMES[0]), "GA size and horizon shrink; the CLI's --quick / --scale override it."),
    field("objectives", Name(&OBJECTIVES), Fill(OBJECTIVES[0]), "Objectives driving GA dominance (GA allocators only)."),
    field("report", Name(&ReportKind::NAMES), Omit(ReportKind::NAMES[0]), "Per-message retention: exact records, or O(bins + sources) histograms."),
    field("arch", Ty::Table(&ARCH), Unset("16 nodes, 8 λ"), "Architecture axis: ring size and comb size."),
    field("workload", Ty::Table(&WORKLOAD), Required, "Workload axis; `kind` picks its keys."),
    field("allocator", Ty::Table(&ALLOCATOR), Required, "Allocator axis; `kind` picks its keys."),
    field("injection", Ty::Table(&INJECTION), Unset("open loop"), "Closed-loop injection of a message stream; `mode` picks its keys."),
    field("energy", Ty::Table(&ENERGY), Unset("paper preset"), "Energy-model overrides on the paper preset."),
    field("telemetry", Ty::Table(&TELEMETRY), Unset("off"), "Windowed time series, per-flow attribution, Chrome trace export."),
    field("faults", Ty::Table(&FAULTS), Unset("off"), "Lane outages and BER corruption of a message stream."),
    field("transport", Ty::Table(&TRANSPORT), Unset("off"), "Reliable-transport recovery; `mode` picks its keys."),
    field("healing", Ty::Table(&HEALING), Unset("off"), "Self-healing re-allocation on lane failure."),
    field("service", Ty::Table(&SERVICE), Unset("off"), "The online allocation service loop (`onoc serve`)."),
]]};

struct_table! { ARCH: ArchSpec {
    nodes: field("arch.nodes", Int(at_least(2.0)), Fill("16"), "Cores on the ring."),
    wavelengths: field("arch.wavelengths", Int(LANES), Fill("8"), "WDM channels in the comb (N_W)."),
}}

#[rustfmt::skip]
const HOTSPOTS: Field = field("workload.hotspots", Ints(NAT), Required, "Hotspot nodes.");
#[rustfmt::skip]
const FRACTION: Field = field("workload.fraction", Float(UNIT), Required, "Share of traffic sent to the hotspots.");
#[rustfmt::skip]
const MESSAGE_BITS: Field = field("workload.message_bits", Float(MESSAGE_SIZE), Required, "Size of every message, bits.");
#[rustfmt::skip]
const HORIZON: Field = field("workload.horizon", Int(ONE_UP), Required, "Injection window, cycles.");
#[rustfmt::skip]
const BURST_ON: Field = field("workload.burst_on", Float(ONE_UP), Unset("smooth"), "Mean ON period of Pareto ON-OFF injection, cycles; with burst_off.");
#[rustfmt::skip]
const BURST_OFF: Field = field("workload.burst_off", Float(Range { or_zero: true, ..ONE_UP }), Unset("smooth"), "Mean OFF period, cycles; with burst_on.");
const HOTSPOT: &str = TRAFFIC_PATTERNS[1];

#[rustfmt::skip]
static WORKLOAD: Schema = Schema {
    select: Some(field("workload.kind", Name(&WORKLOAD_KINDS), Required, "Which workload; picks the keys below.")),
    shapes: &[
        &[],
        &[
            field("workload.kernel", Name(&KernelKind::NAMES), Required, "Task-graph generator, mapped by a seeded random placement."),
            field("workload.stages", Int(ONE_UP), Required, "Stages, width, levels or leaves (generator-specific)."),
            field("workload.exec_kcc", Float(POSITIVE), Required, "Per-task execution time, kilocycles."),
            field("workload.volume_kbits", Float(POSITIVE), Required, "Per-edge volume, kilobits."),
            field("workload.mapping_seed", Int(NAT), Fill("1"), "Seed of the random placement."),
        ],
        &[
            field("workload.pattern", Name(&TRAFFIC_PATTERNS), Required, "Destination-selection rule."),
            HOTSPOTS.when("pattern", HOTSPOT),
            FRACTION.when("pattern", HOTSPOT),
            field("workload.injection_rate", Float(UNIT), Required, "Mean messages per node per cycle."),
            MESSAGE_BITS, HORIZON, BURST_ON, BURST_OFF,
        ],
        &[field("workload.path", Str, Required, "`cycle,src,dst,size` CSV trace; the CLI resolves it against the spec's directory.")],
        &[
            field("workload.patterns", Names(&TRAFFIC_PATTERNS), Required, "Patterns to sweep."),
            HOTSPOTS.when("patterns", HOTSPOT),
            FRACTION.when("patterns", HOTSPOT),
            field("workload.injection_rates", Floats(UNIT), Required, "Injection rates to sweep."),
            field("workload.wavelengths", Ints(LANES), Required, "Comb sizes to sweep (in place of arch.wavelengths)."),
            field("workload.ring_sizes", Ints(at_least(2.0)), Required, "Ring sizes to sweep (in place of arch.nodes)."),
            MESSAGE_BITS, HORIZON, BURST_ON, BURST_OFF,
        ],
    ],
};

#[rustfmt::skip]
static ALLOCATOR: Schema = Schema {
    select: Some(field("allocator.kind", Name(&ALLOCATOR_KINDS), Required, "Which allocator; picks the keys below.")),
    shapes: &[
        &[
            field("allocator.population", Int(at_least(4.0)), Unset("400 / 120 / 32 by scale"), "NSGA-II population."),
            field("allocator.generations", Int(ONE_UP), Unset("300 / 60 / 12 by scale"), "NSGA-II generations."),
        ],
        &[field("allocator.name", Name(&HeuristicKind::NAMES), Required, "Which single-solution heuristic.")],
        &[field("allocator.counts", Ints(NAT), Required, "Wavelengths per communication (NW_k), packed greedily.")],
        &[
            field("allocator.policy", Name(&DYNAMIC_POLICIES), Fill(DYNAMIC_POLICIES[0]), "Lanes claimed per message: one, or greedily up to `cap`."),
            field("allocator.cap", Int(ONE_UP), Required, "Most lanes one greedy claim takes.").when("policy", DYNAMIC_POLICIES[1]),
        ],
        &[
            field("allocator.policy", Name(&SYNTHESIS_POLICIES), Fill(SYNTHESIS_POLICIES[0]), "Lane sizing from the measured flow matrix; relaxed may share lanes."),
            field("allocator.max_lanes_per_flow", Int(ONE_UP), Fill("128"), "Lane cap per flow.").when("policy", SYNTHESIS_POLICIES[0]),
            field("allocator.spares", Int(NAT), Omit("0"), "Top lanes held out of the initial packing for healing."),
        ],
        &[field("allocator.lanes_per_flow", Int(ONE_UP), Fill("1"), "Consecutive lanes per flow.")],
    ],
};

#[rustfmt::skip]
const CREDIT_WINDOW: Field = field("injection.credit_window", Int(ONE_UP), Fill("4"), "Credits per source (per destination under credit-dst).");

#[rustfmt::skip]
static INJECTION: Schema = Schema {
    select: Some(field("injection.mode", Name(&INJECTION_MODES), Required, "Injection policy; picks the keys below.")),
    shapes: &[
        &[],
        &[CREDIT_WINDOW],
        &[CREDIT_WINDOW],
        &[
            field("injection.ecn_threshold", Float(UNIT_NO_ZERO), Fill("0.75"), "Ring occupancy above which a start is ECN-marked."),
            field("injection.aimd_step", Float(UNIT_NO_ZERO), Unset("0.05"), "AIMD additive increase per unmarked delivery."),
            field("injection.aimd_md_factor", Float(UNIT_OPEN), Unset("0.5"), "AIMD multiplicative decrease per marked delivery."),
            field("injection.aimd_min_factor", Float(UNIT_NO_ZERO), Unset("1/64"), "Floor of the AIMD rate factor."),
        ],
    ],
};

#[rustfmt::skip]
static ENERGY: Schema = Schema { select: None, shapes: &[&[
    field("energy.preset", Name(&ENERGY_PRESETS), Fill(ENERGY_PRESETS[0]), "Table I devices, paper coefficients, 1 GHz clock."),
    field("energy.laser_mw", Float(POSITIVE), Unset("from the power budget"), "Electrical laser power per active wavelength, mW."),
    field("energy.tx_fj_per_bit", Float(NAT), Unset("preset"), "Transmitter energy per bit, fJ."),
    field("energy.rx_fj_per_bit", Float(NAT), Unset("preset"), "Receiver energy per bit, fJ."),
    field("energy.mr_tuning_mw", Float(NAT), Unset("preset"), "Thermal tuning power per micro-ring, mW."),
    field("energy.clock_ghz", Float(POSITIVE), Unset("1"), "Core clock, GHz."),
]]};

struct_table! { TELEMETRY: TelemetrySpec {
    window: field("telemetry.window", Int(ONE_UP), Unset("256"), "Time-series window, cycles."),
    per_flow: field("telemetry.per_flow", Bool, Unset("true"), "Emit the per-flow attribution tables."),
    chrome_trace: field("telemetry.chrome_trace", Str, Unset("no export"), "Chrome trace-event JSON to write; relative to the spec's directory."),
}}

struct_table! { FAULTS: FaultSpec {
    seed: field("faults.seed", Int(NAT), Unset("the spec seed"), "Fault-stream seed."),
    ber: field("faults.ber", Float(UNIT_NO_ONE), Unset("0"), "Uniform bit-error rate on every flow."),
    ber_model: field("faults.ber_model", Name(&BER_MODELS), Unset("none"), "Per-flow BER from each destination's worst-case crosstalk."),
    outage_lanes: field("faults.outage_lanes", Ints(NAT), Unset("none"), "Scheduled outages: the lane each takes down."),
    outage_starts: field("faults.outage_starts", Ints(NAT), Unset("none"), "First down cycle of each outage."),
    outage_durations: field("faults.outage_durations", Ints(NAT), Unset("none"), "Cycles each outage lasts (0: the lane never recovers)."),
    mean_up: field("faults.mean_up", Float(POSITIVE), Unset("none"), "Stochastic failures: mean cycles between failures of one lane."),
    mean_down: field("faults.mean_down", Float(POSITIVE), Unset("none"), "Mean stochastic outage length, cycles."),
    fault_horizon: field("faults.fault_horizon", Int(NAT), Unset("none"), "No stochastic failure starts at or past this cycle."),
    ge_p_gb: field("faults.ge_p_gb", Float(UNIT_NO_ZERO), Unset("none"), "Gilbert–Elliott channel: good→bad switch probability per cycle."),
    ge_p_bg: field("faults.ge_p_bg", Float(UNIT_NO_ZERO), Unset("none"), "Bad→good switch probability per cycle."),
    ge_ber_good: field("faults.ge_ber_good", Float(UNIT_NO_ONE), Unset("none"), "Bit-error rate in the good state."),
    ge_ber_bad: field("faults.ge_ber_bad", Float(UNIT_NO_ONE), Unset("none"), "Bit-error rate in the bad state, at least ge_ber_good."),
}}

#[rustfmt::skip]
const MAX_RETRIES: Field = field("transport.max_retries", Int(U32), Unset("8 (gbn), 16 (pfc)"), "Retransmissions allowed per message.");

#[rustfmt::skip]
static TRANSPORT: Schema = Schema {
    select: Some(field("transport.mode", Name(&TRANSPORT_MODES), Required, "Recovery mode; picks the keys below.")),
    shapes: &[
        &[
            field("transport.window", Int(ONE_UP), Unset("8"), "Most unacknowledged messages per flow."),
            field("transport.nack_delay", Int(NAT), Unset("16"), "NACK round trip, cycles."),
            field("transport.timeout", Int(ONE_UP), Unset("256"), "Sender timeout, cycles."),
            MAX_RETRIES,
        ],
        &[
            field("transport.dst_window", Int(ONE_UP), Unset("4"), "Most in-flight messages per destination."),
            MAX_RETRIES,
        ],
    ],
};

struct_table! { HEALING: HealingSpec {
    policy: field("healing.policy", Name(&HEAL_POLICIES), Unset("park"), "What a lane-down quiesce point does; re-pack needs a static allocator."),
    ber_threshold: field("healing.ber_threshold", Float(UNIT_OPEN), Unset("off"), "Quarantine a lane whose bad-state BER reaches this (with the ge_* keys)."),
}}

struct_table! { SERVICE: ServiceSpec {
    sessions: field("service.sessions", Int(ONE_UP), Unset("1000"), "Poisson sessions to offer."),
    arrival_rate: field("service.arrival_rate", Float(POSITIVE), Unset("0.02"), "Mean session arrivals per cycle."),
    mean_hold: field("service.mean_hold", Float(POSITIVE), Unset("400"), "Mean lane-holding time, cycles."),
    max_demand: field("service.max_demand", Int(ONE_UP), Unset("1"), "Poisson demands are uniform in 1..=max_demand lanes."),
    policy: field("service.policy", Name(&GRANT_POLICIES), Unset("disjoint"), "Grant discipline: disjoint lanes, or shared where paths do not overlap."),
    defrag: field("service.defrag", Name(&DefragKind::NAMES), Unset("never"), "When live sessions are re-packed."),
    defrag_threshold: field("service.defrag_threshold", Float(UNIT_NO_ZERO), Unset("0.25"), "Re-pack when the largest free run falls below this share of the comb."),
    defrag_idle: field("service.defrag_idle", Int(ONE_UP), Unset("1000"), "Re-pack after this many event-free cycles."),
    max_wait: field("service.max_wait", Int(ONE_UP), Unset("forever"), "Cycles a queued request waits before it is blocked."),
    trace_demand: field("service.trace_demand", Int(ONE_UP), Unset("1"), "Trace replay: lanes each session requests."),
    stretch: field("service.stretch", Float(POSITIVE), Unset("1"), "Trace replay: arrival-clock stretch (2 = half the load)."),
}}

// ------------------------------------------------ table read and write --

fn read_workload(doc: &Value) -> Result<WorkloadSpec, SpecError> {
    let shape = WORKLOAD.shape(doc)?;
    let mut r = WORKLOAD.reader(doc, shape)?;
    Ok(match shape {
        0 => WorkloadSpec::PaperApp,
        1 => WorkloadSpec::Kernel {
            kind: KernelKind::ALL[r.index()],
            stages: r.val(),
            exec_kcc: r.val(),
            volume_kbits: r.val(),
            mapping_seed: r.val(),
        },
        2 => {
            let pattern = r.index();
            let hotspot = TrafficPattern::Hotspot {
                hotspots: r.val(),
                fraction: r.val(),
            };
            WorkloadSpec::Synthetic {
                pattern: pattern_at(pattern, || hotspot),
                injection_rate: r.val(),
                message_bits: r.val(),
                horizon: r.val(),
                burstiness: burstiness(&mut r)?,
            }
        }
        3 => WorkloadSpec::Trace { path: r.val() },
        _ => {
            let (field, names) = r.next();
            let hotspot = TrafficPattern::Hotspot {
                hotspots: r.val(),
                fraction: r.val(),
            };
            let names = names.and_then(Value::as_array).unwrap_or_default();
            let patterns = names
                .iter()
                .filter_map(|n| position(field.names(), n.as_str()?));
            WorkloadSpec::Sweep {
                patterns: patterns
                    .map(|i| pattern_at(i, || hotspot.clone()))
                    .collect(),
                injection_rates: r.val(),
                wavelengths: r.val(),
                ring_sizes: r.val(),
                message_bits: r.val(),
                horizon: r.val(),
                burstiness: burstiness(&mut r)?,
            }
        }
    })
}

fn burstiness(r: &mut Read) -> Result<Option<(f64, f64)>, SpecError> {
    match (r.get(), r.get()) {
        (None, None) => Ok(None),
        (Some(on), Some(off)) => Ok(Some((on, off))),
        _ => Err(invalid(
            BURST_ON.path,
            format!(
                "{} and {} must be given together",
                BURST_ON.key, BURST_OFF.key
            ),
        )),
    }
}

impl WorkloadSpec {
    fn doc(&self) -> Value {
        let mut w = WORKLOAD.writer(self.shape());
        // The first hotspot's parameters (a sweep holds one at most).
        let hotspot = |w: &mut Write, patterns: &[TrafficPattern]| {
            let params = patterns.iter().find_map(|p| match p {
                TrafficPattern::Hotspot { hotspots, fraction } => Some((hotspots, fraction)),
                _ => None,
            });
            w.put(params.and_then(|p| p.0.to_doc()));
            w.put(params.and_then(|p| p.1.to_doc()));
        };
        let burst = |w: &mut Write, burstiness: &Option<(f64, f64)>| {
            w.put(burstiness.map(|b| b.0).to_doc());
            w.put(burstiness.map(|b| b.1).to_doc());
        };
        match self {
            WorkloadSpec::PaperApp => {}
            WorkloadSpec::Kernel {
                kind,
                stages,
                exec_kcc,
                volume_kbits,
                mapping_seed,
            } => {
                w.put(Some(kind.name().into()));
                w.put(stages.to_doc());
                w.put(exec_kcc.to_doc());
                w.put(volume_kbits.to_doc());
                w.put(mapping_seed.to_doc());
            }
            WorkloadSpec::Synthetic {
                pattern,
                injection_rate,
                message_bits,
                horizon,
                burstiness,
            } => {
                w.put(Some(pattern_name(pattern).into()));
                hotspot(&mut w, std::slice::from_ref(pattern));
                w.put(injection_rate.to_doc());
                w.put(message_bits.to_doc());
                w.put(horizon.to_doc());
                burst(&mut w, burstiness);
            }
            WorkloadSpec::Trace { path } => w.put(path.to_doc()),
            WorkloadSpec::Sweep {
                patterns,
                injection_rates,
                wavelengths,
                ring_sizes,
                message_bits,
                horizon,
                burstiness,
            } => {
                let names: Vec<&str> = patterns.iter().map(pattern_name).collect();
                w.put(Some(names.into()));
                hotspot(&mut w, patterns);
                w.put(injection_rates.to_doc());
                w.put(wavelengths.to_doc());
                w.put(ring_sizes.to_doc());
                w.put(message_bits.to_doc());
                w.put(horizon.to_doc());
                burst(&mut w, burstiness);
            }
        }
        w.table
    }
}

fn read_allocator(doc: &Value) -> Result<AllocatorSpec, SpecError> {
    let shape = ALLOCATOR.shape(doc)?;
    let mut r = ALLOCATOR.reader(doc, shape)?;
    Ok(match shape {
        0 => AllocatorSpec::Nsga2 {
            population: r.get(),
            generations: r.get(),
        },
        1 => AllocatorSpec::Heuristic {
            kind: HeuristicKind::all()[r.index()],
        },
        2 => AllocatorSpec::Counts { counts: r.val() },
        3 => AllocatorSpec::Dynamic {
            policy: match r.index() {
                0 => DynamicPolicy::Single,
                _ => DynamicPolicy::Greedy { cap: r.val() },
            },
        },
        4 => AllocatorSpec::FlowSynthesis {
            policy: match (r.index(), r.val()) {
                (0, max_lanes_per_flow) => FlowAllocPolicy::Proportional { max_lanes_per_flow },
                (1, _) => FlowAllocPolicy::FirstFit,
                _ => FlowAllocPolicy::Relaxed,
            },
            spares: r.val(),
        },
        _ => AllocatorSpec::Striped {
            lanes_per_flow: r.val(),
        },
    })
}

impl AllocatorSpec {
    fn doc(&self) -> Value {
        let shape = self.shape();
        match self {
            AllocatorSpec::Nsga2 {
                population,
                generations,
            } => ALLOCATOR.write(shape, [population.to_doc(), generations.to_doc()]),
            AllocatorSpec::Heuristic { kind } => ALLOCATOR.write(shape, [Some(kind.name().into())]),
            AllocatorSpec::Counts { counts } => ALLOCATOR.write(shape, [counts.to_doc()]),
            AllocatorSpec::Dynamic { policy } => {
                let (i, cap) = match policy {
                    DynamicPolicy::Single => (0, None),
                    DynamicPolicy::Greedy { cap } => (1, cap.to_doc()),
                };
                ALLOCATOR.write(shape, [Some(DYNAMIC_POLICIES[i].into()), cap])
            }
            AllocatorSpec::FlowSynthesis { policy, spares } => {
                let (i, max_lanes) = match policy {
                    FlowAllocPolicy::Proportional { max_lanes_per_flow } => {
                        (0, max_lanes_per_flow.to_doc())
                    }
                    FlowAllocPolicy::FirstFit => (1, None),
                    FlowAllocPolicy::Relaxed => (2, None),
                };
                let name = Some(SYNTHESIS_POLICIES[i].into());
                ALLOCATOR.write(shape, [name, max_lanes, spares.to_doc()])
            }
            AllocatorSpec::Striped { lanes_per_flow } => {
                ALLOCATOR.write(shape, [lanes_per_flow.to_doc()])
            }
        }
    }
}

fn read_injection(doc: &Value) -> Result<(InjectionMode, AimdSpec), SpecError> {
    let shape = INJECTION.shape(doc)?;
    let mut r = INJECTION.reader(doc, shape)?;
    let mut aimd = AimdSpec::default();
    let mode = match shape {
        0 => InjectionMode::Open,
        1 => InjectionMode::Credit { window: r.val() },
        2 => InjectionMode::CreditPerDst { window: r.val() },
        _ => {
            let threshold = r.val();
            aimd.visit(&mut r);
            InjectionMode::Ecn { threshold }
        }
    };
    Ok((mode, aimd))
}

fn read_transport(doc: &Value) -> Result<TransportSpec, SpecError> {
    let shape = TRANSPORT.shape(doc)?;
    let mut r = TRANSPORT.reader(doc, shape)?;
    Ok(match shape {
        0 => TransportSpec::GoBackN {
            window: r.get(),
            nack_delay: r.get(),
            timeout: r.get(),
            max_retries: r.get(),
        },
        _ => TransportSpec::Pfc {
            dst_window: r.get(),
            max_retries: r.get(),
        },
    })
}

impl TransportSpec {
    fn doc(&self) -> Value {
        match self {
            TransportSpec::GoBackN {
                window,
                nack_delay,
                timeout,
                max_retries,
            } => TRANSPORT.write(
                0,
                [
                    window.to_doc(),
                    nack_delay.to_doc(),
                    timeout.to_doc(),
                    max_retries.to_doc(),
                ],
            ),
            TransportSpec::Pfc {
                dst_window,
                max_retries,
            } => TRANSPORT.write(1, [dst_window.to_doc(), max_retries.to_doc()]),
        }
    }
}

impl AimdSpec {
    fn visit(&mut self, v: &mut impl Visit) {
        v.key(&mut self.additive_step);
        v.key(&mut self.md_factor);
        v.key(&mut self.min_factor);
    }
}

impl EnergySpec {
    fn visit(&mut self, v: &mut impl Visit) {
        v.key(&mut ENERGY_PRESETS[0].to_string());
        v.key(&mut self.laser_mw);
        v.key(&mut self.tx_fj_per_bit);
        v.key(&mut self.rx_fj_per_bit);
        v.key(&mut self.mr_tuning_mw);
        v.key(&mut self.clock_ghz);
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

    /// Valid documents that between them set every declared key.
    const CORPUS: [&str; 6] = [
        r#"name = "kernel"
seed = 3
scale = "smoke"
objectives = "time-ber"
[arch]
nodes = 16
wavelengths = 8
[workload]
kind = "kernel"
kernel = "fork-join"
stages = 3
exec_kcc = 2.0
volume_kbits = 4.0
mapping_seed = 5
[allocator]
kind = "heuristic"
name = "first-fit"
"#,
        r#"name = "ga"
[workload]
kind = "paper-app"
[allocator]
kind = "nsga2"
population = 40
generations = 10
"#,
        r#"name = "counts"
[workload]
kind = "paper-app"
[allocator]
kind = "counts"
counts = [1, 1, 1, 1, 1, 1]
"#,
        r#"name = "everything"
report = "streaming"
[workload]
kind = "synthetic"
pattern = "hotspot"
hotspots = [0, 3]
fraction = 0.5
injection_rate = 0.01
message_bits = 512.0
horizon = 5000
burst_on = 50.0
burst_off = 200.0
[allocator]
kind = "flow-synthesis"
policy = "proportional"
max_lanes_per_flow = 4
spares = 1
[injection]
mode = "ecn"
ecn_threshold = 0.5
aimd_step = 0.25
aimd_md_factor = 0.5
aimd_min_factor = 0.125
[energy]
preset = "paper"
laser_mw = 0.004
tx_fj_per_bit = 75.0
rx_fj_per_bit = 40.0
mr_tuning_mw = 0.05
clock_ghz = 2.0
[telemetry]
window = 128
per_flow = false
chrome_trace = "trace.json"
[faults]
seed = 11
ber = 0.0001
outage_lanes = [0, 2]
outage_starts = [100, 4000]
outage_durations = [500, 0]
mean_up = 2000.0
mean_down = 50.0
fault_horizon = 4500
[transport]
mode = "gbn"
window = 4
nack_delay = 8
timeout = 128
max_retries = 3
[healing]
policy = "re-pack"
ber_threshold = 0.1
[service]
sessions = 100
arrival_rate = 0.02
mean_hold = 400.0
max_demand = 3
policy = "shared"
defrag = "threshold"
defrag_threshold = 0.25
max_wait = 5000
trace_demand = 2
stretch = 2.0
"#,
        r#"name = "sweep"
[workload]
kind = "sweep"
patterns = ["uniform", "hotspot"]
hotspots = [1]
fraction = 0.25
injection_rates = [0.002, 0.04]
wavelengths = [2, 8]
ring_sizes = [16]
message_bits = 512.0
horizon = 5000
[allocator]
kind = "dynamic"
policy = "greedy"
cap = 2
[injection]
mode = "credit"
credit_window = 3
[faults]
ge_p_gb = 0.01
ge_p_bg = 0.1
ge_ber_good = 0.0
ge_ber_bad = 0.2
"#,
        r#"name = "replay"
[workload]
kind = "trace"
path = "trace.csv"
[allocator]
kind = "striped"
lanes_per_flow = 2
[injection]
mode = "credit-dst"
credit_window = 2
[faults]
ber_model = "paper"
[transport]
mode = "pfc"
dst_window = 2
max_retries = 16
[service]
defrag = "idle"
defrag_idle = 1000
"#,
    ];

    /// Every declared field: the root's, then each table's.
    fn all_fields() -> impl Iterator<Item = &'static Field> {
        let tables = ROOT.fields().filter_map(|f| match f.ty {
            Ty::Table(schema) => Some(schema.fields()),
            _ => None,
        });
        ROOT.fields().chain(tables.flatten())
    }

    /// Every declared dotted path, selectors and root tables included.
    fn declared_paths() -> std::collections::BTreeSet<&'static str> {
        all_fields().map(|f| f.path).collect()
    }

    /// Every `(dotted path, document with that key's value replaced)`
    /// pair the corpus offers, in TOML and JSON form.
    fn edited(
        edit: impl Fn(&mut Value, &str),
    ) -> Vec<(String, Vec<Result<ScenarioSpec, SpecError>>)> {
        let mut out = Vec::new();
        for text in CORPUS {
            let doc = Value::parse_toml(text).unwrap();
            assert!(ScenarioSpec::from_value(&doc).is_ok(), "{text}");
            for (key, value) in doc.as_table().unwrap() {
                let tables: Vec<(String, Option<&str>)> = std::iter::once((key.clone(), None))
                    .chain(
                        (value.as_table().into_iter().flatten())
                            .map(|(sub, _)| (format!("{key}.{sub}"), Some(sub.as_str()))),
                    )
                    .collect();
                for (path, sub) in tables {
                    let mut changed = doc.clone();
                    let Value::Table(root) = &mut changed else {
                        unreachable!()
                    };
                    match sub {
                        None => edit(&mut changed, key),
                        Some(sub) => edit(root.get_mut(key).unwrap(), sub),
                    }
                    let parsed = vec![
                        ScenarioSpec::from_toml_str(&changed.to_toml()),
                        ScenarioSpec::from_json_str(&changed.to_json()),
                    ];
                    out.push((path, parsed));
                }
            }
        }
        out
    }

    #[test]
    fn every_declared_field_rejects_a_value_of_the_wrong_type() {
        let mut seen = std::collections::BTreeSet::new();
        let wrong = |table: &mut Value, key: &str| {
            let Value::Table(entries) = table else {
                unreachable!()
            };
            let value = entries.get_mut(key).unwrap();
            *value = match value {
                Value::Str(_) => Value::Int(3),
                _ => Value::from("x"),
            };
        };
        for (path, results) in edited(wrong) {
            for result in results {
                match result {
                    Err(SpecError::Invalid { field, .. }) if field == path => {}
                    other => panic!("`{path}` with a wrong type gave {other:?}"),
                }
            }
            seen.insert(path);
        }
        let declared: std::collections::BTreeSet<String> =
            declared_paths().into_iter().map(String::from).collect();
        assert_eq!(seen, declared, "the corpus must set every declared key");
    }

    #[test]
    fn every_key_misspelt_by_one_edit_is_unknown_in_both_formats() {
        let misspell = |table: &mut Value, key: &str| {
            let Value::Table(entries) = table else {
                unreachable!()
            };
            let value = entries.remove(key).unwrap();
            entries.insert(format!("{key}{}", key.chars().last().unwrap()), value);
        };
        for (path, results) in edited(misspell) {
            let typo = format!("{path}{}", path.chars().last().unwrap());
            for result in results {
                match result {
                    Err(SpecError::UnknownKey { key, nearest }) if key == typo => {
                        assert_eq!(nearest, path, "nearest to `{key}`");
                    }
                    other => panic!("`{typo}` gave {other:?}"),
                }
            }
        }
    }

    #[test]
    fn keys_another_kind_or_mode_uses_are_rejected() {
        let base = "name = \"x\"\n[workload]\nkind = \"synthetic\"\npattern = \"uniform\"\n\
                    injection_rate = 0.01\nmessage_bits = 512.0\nhorizon = 1000\n";
        for (tables, field, applies) in [
            (
                "[allocator]\nkind = \"dynamic\"\n[transport]\nmode = \"pfc\"\nwindow = 8\n",
                "transport.window",
                "mode = \"gbn\"",
            ),
            (
                "[allocator]\nkind = \"dynamic\"\n[injection]\nmode = \"credit\"\necn_threshold = 0.5\n",
                "injection.ecn_threshold",
                "mode = \"ecn\"",
            ),
            (
                "hotspots = [3]\n[allocator]\nkind = \"dynamic\"\n",
                "workload.hotspots",
                "pattern = \"hotspot\"",
            ),
            (
                "fraction = 0.5\n[allocator]\nkind = \"dynamic\"\n",
                "workload.fraction",
                "pattern = \"hotspot\"",
            ),
            (
                "[allocator]\nkind = \"flow-synthesis\"\npolicy = \"first-fit\"\nmax_lanes_per_flow = 2\n",
                "allocator.max_lanes_per_flow",
                "policy = \"proportional\"",
            ),
            (
                "[allocator]\nkind = \"dynamic\"\npolicy = \"single\"\ncap = 2\n",
                "allocator.cap",
                "policy = \"greedy\"",
            ),
            (
                "[allocator]\nkind = \"dynamic\"\ncap = 2\n",
                "allocator.cap",
                "policy = \"greedy\"",
            ),
            (
                "[allocator]\nkind = \"striped\"\npolicy = \"single\"\n",
                "allocator.policy",
                "kind = \"dynamic\"",
            ),
        ] {
            let doc = Value::parse_toml(&format!("{base}{tables}")).unwrap();
            for parsed in [
                ScenarioSpec::from_toml_str(&doc.to_toml()),
                ScenarioSpec::from_json_str(&doc.to_json()),
            ] {
                match parsed {
                    Err(SpecError::Invalid { field: f, message }) if f == field => {
                        assert!(message.contains(applies), "{field}: {message}");
                    }
                    other => panic!("{field}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn field_lists_fit_the_reader_and_admit_their_defaults() {
        for root in ROOT.fields() {
            if let Ty::Table(schema) = root.ty {
                assert!(schema.shapes.iter().all(|s| s.len() <= MAX_FIELDS));
            }
        }
        assert!(ROOT.shapes[0].len() <= MAX_FIELDS);
        for field in all_fields() {
            if let Some(text) = field.fallback() {
                let value = match field.ty {
                    Ty::Name(_) => Value::from(text),
                    _ => Value::parse_json(text).unwrap(),
                };
                assert!(field.ty.admits(&value), "{}: default {text}", field.path);
            }
        }
    }

    /// The README "Spec key reference" table, rendered from the field
    /// lists.
    fn key_reference() -> String {
        let mut out = String::from(
            "| table | key | type | default | range | doc |\n|---|---|---|---|---|---|\n",
        );
        let mut row = |table: &str, field: &Field| {
            let (ty, range) = match field.ty {
                Ty::Bool => ("boolean", String::new()),
                Ty::Str => ("string", "non-blank".to_string()),
                Ty::Name(names) => (
                    "name",
                    names
                        .iter()
                        .map(|n| format!("`{n}`"))
                        .collect::<Vec<_>>()
                        .join(", "),
                ),
                Ty::Int(r) => ("integer", r.to_string()),
                Ty::Float(r) => ("number", r.to_string()),
                Ty::Ints(r) => ("integer array", r.to_string()),
                Ty::Floats(r) => ("number array", r.to_string()),
                Ty::Names(names) => (
                    "name array",
                    names
                        .iter()
                        .map(|n| format!("`{n}`"))
                        .collect::<Vec<_>>()
                        .join(", "),
                ),
                Ty::Table(_) => ("table", String::new()),
            };
            let default = match field.default {
                Dflt::Required => "required".to_string(),
                Dflt::Fill(text) | Dflt::Omit(text) => format!("`{text}`"),
                Dflt::Unset(text) => text.to_string(),
            };
            let when = field.when.map_or(String::new(), |(key, value)| {
                format!(" Only with `{key} = \"{value}\"`.")
            });
            out.push_str(&format!(
                "| {table} | `{}` | {ty} | {default} | {range} | {}{when} |\n",
                field.key, field.doc
            ));
        };
        for root in ROOT.fields() {
            row("(top level)", root);
        }
        for root in ROOT.fields() {
            let Ty::Table(schema) = root.ty else { continue };
            let table = format!("`[{}]`", root.key);
            if let Some(select) = &schema.select {
                row(&table, select);
            }
            for (i, shape) in schema.shapes.iter().enumerate() {
                let label = schema.select.map_or(table.clone(), |s| {
                    format!("`[{}]` {} = `{}`", root.key, s.key, s.names()[i])
                });
                for field in *shape {
                    row(&label, field);
                }
            }
        }
        out
    }

    #[test]
    fn readme_key_reference_matches_the_field_lists() {
        let readme = include_str!("../../../README.md");
        let (begin, end) = ("<!-- spec-keys:begin -->\n", "<!-- spec-keys:end -->");
        let start = readme.find(begin).expect("README has the begin marker") + begin.len();
        let stop = readme.find(end).expect("README has the end marker");
        let expected = key_reference();
        assert!(
            readme[start..stop] == expected,
            "README's spec key reference is stale; between the markers it should read:\n\n{expected}"
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
