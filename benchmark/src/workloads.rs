//! The four benchmark workloads as spec text, generated from the run seed.
//!
//! Each workload is one `ScenarioSpec` TOML document, exactly what a user
//! would pass to `onoc run --spec` / `onoc serve --spec`. The seed only
//! enters through the spec's `seed` key, so the same seed gives the same
//! inputs. `Size::Tiny` shrinks every workload to a fraction of a second
//! for the self-tests; `Size::Full` is what the benchmark measures.

/// Which workload, and which public entry point runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 16-core application under NSGA-II (`onoc run`).
    GaPaper8l,
    /// A uniform-traffic rate ramp across the saturation knee (`onoc run`).
    SweepUniform64n,
    /// Transpose traffic on a synthesised static map with telemetry
    /// (`onoc run`).
    StaticTranspose128n,
    /// Poisson session churn through the online service (`onoc serve`).
    ServeChurn16n,
}

/// Run size: `Full` for measurement, `Tiny` for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A fraction-of-a-second version of the same workload.
    Tiny,
}

/// The sweep's injection-rate ramp. Points below [`KNEE_LOW`] run on the
/// engine's admit fast path, points above [`KNEE_HIGH`] on blocked-retry;
/// the knee of a 64-node, 32-lane ring sits between the two.
pub const SWEEP_RATES: [f64; 6] = [0.001, 0.002, 0.004, 0.008, 0.012, 0.016];
/// Highest rate still counted as below the knee is strictly less than this.
pub const KNEE_LOW: f64 = 0.004;
/// Lowest rate counted as above the knee is strictly greater than this.
pub const KNEE_HIGH: f64 = 0.008;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::GaPaper8l,
        Workload::SweepUniform64n,
        Workload::StaticTranspose128n,
        Workload::ServeChurn16n,
    ];

    /// The workload's name as `--workload` takes it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GaPaper8l => "ga-paper-8l",
            Workload::SweepUniform64n => "sweep-uniform-64n",
            Workload::StaticTranspose128n => "static-transpose-128n",
            Workload::ServeChurn16n => "serve-churn-16n",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The spec text for this workload at `size`, seeded with `seed`.
    pub fn spec_text(self, size: Size, seed: u64) -> String {
        let tiny = size == Size::Tiny;
        match self {
            Workload::GaPaper8l => {
                let (population, generations) = if tiny { (32, 12) } else { (400, 300) };
                format!(
                    r#"name = "ga-paper-8l"
seed = {seed}
scale = "paper"
objectives = "time-energy"

[arch]
nodes = 16
wavelengths = 8

[workload]
kind = "paper-app"

[allocator]
kind = "nsga2"
population = {population}
generations = {generations}
"#
                )
            }
            Workload::SweepUniform64n => {
                let (nodes, wavelengths, horizon) = if tiny {
                    (16, 8, 4_000)
                } else {
                    (64, 32, 200_000)
                };
                let rates: Vec<String> = SWEEP_RATES.iter().map(|r| format!("{r}")).collect();
                format!(
                    r#"name = "sweep-uniform-64n"
seed = {seed}
scale = "paper"

[arch]
nodes = {nodes}
wavelengths = {wavelengths}

[workload]
kind = "sweep"
patterns = ["uniform"]
injection_rates = [{rates}]
wavelengths = [{wavelengths}]
ring_sizes = [{nodes}]
message_bits = 512.0
horizon = {horizon}

[allocator]
kind = "dynamic"
policy = "single"

[energy]
preset = "paper"
"#,
                    rates = rates.join(", ")
                )
            }
            Workload::StaticTranspose128n => {
                let (nodes, wavelengths, horizon) = if tiny {
                    (16, 8, 5_000)
                } else {
                    (128, 64, 200_000)
                };
                format!(
                    r#"name = "static-transpose-128n"
seed = {seed}
scale = "paper"

[arch]
nodes = {nodes}
wavelengths = {wavelengths}

[workload]
kind = "synthetic"
pattern = "transpose"
injection_rate = 0.002
message_bits = 512.0
horizon = {horizon}

[allocator]
kind = "flow-synthesis"
policy = "proportional"

[telemetry]
window = 1024
per_flow = true
"#
                )
            }
            Workload::ServeChurn16n => {
                let sessions = if tiny { 2_000 } else { 100_000 };
                format!(
                    r#"name = "serve-churn-16n"
seed = {seed}
scale = "paper"

[arch]
nodes = 16
wavelengths = 8

[workload]
kind = "synthetic"
pattern = "uniform"
injection_rate = 0.02
message_bits = 512.0
horizon = 40000

[allocator]
kind = "dynamic"
policy = "single"

[service]
sessions = {sessions}
arrival_rate = 0.02
mean_hold = 400.0
max_demand = 3
defrag = "threshold"
defrag_threshold = 0.25
max_wait = 5000
"#
                )
            }
        }
    }
}
