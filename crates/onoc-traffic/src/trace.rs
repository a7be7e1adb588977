//! Trace generation: turn a pattern + injection process into a stream of
//! timed [`TrafficEvent`]s.
//!
//! Each node runs an independent injection process derived from the master
//! seed via [`TrafficRng::split`], so the trace is a pure function of the
//! configuration — independent of generation order, thread count, or how
//! many other scenarios share the seed.
//!
//! Two injection processes are provided:
//!
//! * **Bernoulli** (default): each node independently injects a message
//!   with probability `injection_rate` per cycle — the standard open-loop
//!   load model.
//! * **ON-OFF bursty** ([`OnOffConfig`]): nodes alternate Pareto-length ON
//!   periods and geometric OFF gaps, injecting only while ON. Heavy-tailed
//!   ON periods give the aggregate stream the burstiness/self-similarity
//!   of measured traffic (Willinger et al.'s ON-OFF construction). The ON
//!   rate is scaled so the long-run mean rate still equals
//!   `injection_rate`, keeping sweeps comparable.

use onoc_sim::{TrafficEvent, TrafficSource};
use onoc_topology::NodeId;
use onoc_units::Bits;

use crate::pattern::TrafficPattern;
use crate::rng::TrafficRng;

/// Parameters of the bursty ON-OFF injection process.
#[derive(Debug, Clone, PartialEq)]
pub struct OnOffConfig {
    /// Mean ON-period length in cycles (Pareto-distributed, shape
    /// [`OnOffConfig::PARETO_SHAPE`], capped at 64× the mean).
    pub mean_on: f64,
    /// Mean OFF-period length in cycles (geometric); exactly 0 (never
    /// idle) or at least 1.
    pub mean_off: f64,
}

impl OnOffConfig {
    /// Pareto shape for ON periods. 1.5 sits in the (1, 2) range that
    /// yields self-similar aggregate traffic: finite mean, infinite
    /// variance.
    pub const PARETO_SHAPE: f64 = 1.5;

    /// A moderately bursty default: 50-cycle bursts separated by
    /// 200-cycle idle gaps (20% duty cycle).
    #[must_use]
    pub fn default_bursty() -> Self {
        Self {
            mean_on: 50.0,
            mean_off: 200.0,
        }
    }

    /// Fraction of time a node spends ON.
    #[must_use]
    pub fn duty_cycle(&self) -> f64 {
        self.mean_on / (self.mean_on + self.mean_off)
    }

    fn validate(&self) {
        assert!(
            self.mean_on >= 1.0 && (self.mean_off == 0.0 || self.mean_off >= 1.0),
            "ON-OFF means must be >= 1 (on) and 0 or >= 1 (off), got on {} / off {}",
            self.mean_on,
            self.mean_off
        );
    }

    /// Pareto scale `x_m` whose mean equals `mean_on` at the fixed shape.
    fn pareto_scale(&self) -> f64 {
        // E[X] = α·x_m / (α − 1)  ⇒  x_m = mean·(α − 1)/α.
        self.mean_on * (Self::PARETO_SHAPE - 1.0) / Self::PARETO_SHAPE
    }
}

/// Full specification of one synthetic traffic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Ring size.
    pub nodes: usize,
    /// Destination rule.
    pub pattern: TrafficPattern,
    /// Mean injected messages per node per cycle, in `[0, 1]`.
    pub injection_rate: f64,
    /// Size of every message.
    pub message_volume: Bits,
    /// Injection window: messages enter during `[0, horizon)`.
    pub horizon: u64,
    /// Master seed; everything downstream derives from it.
    pub seed: u64,
    /// `Some` switches the Bernoulli process to bursty ON-OFF.
    pub burstiness: Option<OnOffConfig>,
}

impl TrafficConfig {
    /// A small, fast default on the paper's 16-node ring: uniform traffic,
    /// 512-bit messages, a 10 kcc window.
    #[must_use]
    pub fn paper_ring(pattern: TrafficPattern, injection_rate: f64, seed: u64) -> Self {
        Self {
            nodes: 16,
            pattern,
            injection_rate,
            message_volume: Bits::new(512.0),
            horizon: 10_000,
            seed,
            burstiness: None,
        }
    }

    fn validate(&self) {
        assert!(
            self.nodes >= 2,
            "a ring needs at least 2 nodes, got {}",
            self.nodes
        );
        assert!(
            (0.0..=1.0).contains(&self.injection_rate),
            "injection rate is a per-cycle probability, got {}",
            self.injection_rate
        );
        assert!(
            self.message_volume.value() > 0.0,
            "messages need a positive volume, got {}",
            self.message_volume
        );
        self.pattern.validate(self.nodes);
        if let Some(b) = &self.burstiness {
            b.validate();
            // The ON-period rate is injection_rate / duty_cycle; it must
            // stay a probability or the mean-rate guarantee breaks.
            assert!(
                self.injection_rate <= b.duty_cycle(),
                "bursty injection rate {} exceeds the ON-OFF duty cycle {:.3}: \
                 the rescaled burst rate would exceed 1 msg/cycle",
                self.injection_rate,
                b.duty_cycle()
            );
        }
    }

    /// Mean offered load in bits per cycle across the whole ring.
    #[must_use]
    pub fn offered_load(&self) -> f64 {
        self.injection_rate * self.nodes as f64 * self.message_volume.value()
    }
}

/// A generated, time-ordered batch of traffic events.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficTrace {
    events: Vec<TrafficEvent>,
}

impl TrafficTrace {
    /// The events in nondecreasing time order.
    #[must_use]
    pub fn events(&self) -> &[TrafficEvent] {
        &self.events
    }

    /// Number of messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no node ever injected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A polling [`TrafficSource`] over the trace (cheap; clones nothing).
    #[must_use]
    pub fn source(&self) -> TraceSource<'_> {
        TraceSource {
            events: &self.events,
            at: 0,
        }
    }

    /// Consumes the trace into an owning source.
    #[must_use]
    pub fn into_source(self) -> std::vec::IntoIter<TrafficEvent> {
        self.events.into_iter()
    }

    /// Summarises the trace: counts, cycle span, volume, offered load and
    /// per-node histograms (the `onoc trace info` payload).
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        let mut stats = TraceStats {
            messages: self.events.len(),
            first_cycle: self.events.iter().map(|e| e.time).min().unwrap_or(0),
            last_cycle: self.events.iter().map(|e| e.time).max().unwrap_or(0),
            total_bits: self.events.iter().map(|e| e.volume.value()).sum(),
            mean_offered_bits_per_cycle: 0.0,
            per_source: Vec::new(),
            per_dest: Vec::new(),
        };
        let nodes = self
            .events
            .iter()
            .map(|e| e.src.0.max(e.dst.0) + 1)
            .max()
            .unwrap_or(0);
        stats.per_source = vec![0; nodes];
        stats.per_dest = vec![0; nodes];
        for e in &self.events {
            stats.per_source[e.src.0] += 1;
            stats.per_dest[e.dst.0] += 1;
        }
        if stats.messages > 0 {
            // The offered window convention matches
            // `OpenLoopReport::offered_load`: a burst entirely at cycle 0
            // is a 1-cycle window.
            #[allow(clippy::cast_precision_loss)]
            {
                stats.mean_offered_bits_per_cycle =
                    stats.total_bits / (stats.last_cycle + 1) as f64;
            }
        }
        stats
    }
}

/// Summary statistics of a message trace (see [`TrafficTrace::stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Number of messages.
    pub messages: usize,
    /// Earliest offered cycle (0 for an empty trace).
    pub first_cycle: u64,
    /// Latest offered cycle (0 for an empty trace).
    pub last_cycle: u64,
    /// Total offered volume in bits.
    pub total_bits: f64,
    /// `total_bits / (last_cycle + 1)` — the whole-trace offered load.
    pub mean_offered_bits_per_cycle: f64,
    /// Messages produced per source node (indexed by node id, length
    /// `max referenced node + 1`).
    pub per_source: Vec<usize>,
    /// Messages consumed per destination node (same indexing).
    pub per_dest: Vec<usize>,
}

/// Why a CSV trace document could not be loaded.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceParseError {
    /// A row could not be parsed.
    Row {
        /// 1-based line number of the offending row.
        line: usize,
        /// What is wrong with it.
        message: String,
    },
    /// The document holds no event rows.
    Empty,
}

impl core::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceParseError::Row { line, message } => {
                write!(f, "trace line {line}: {message}")
            }
            TraceParseError::Empty => write!(f, "trace holds no event rows"),
        }
    }
}

impl std::error::Error for TraceParseError {}

/// The largest message, in bits, a trace row or a scenario spec may
/// carry: 2³² bits, so a single-lane transfer at the specs' 1 bit per
/// cycle lasts at most 2³² cycles and every latency fits `u64`.
pub const MAX_MESSAGE_BITS: f64 = 4_294_967_296.0;

/// The header [`TrafficTrace::to_csv`] writes and
/// [`TrafficTrace::from_csv_str`] accepts (and skips) on the first line.
pub const TRACE_CSV_HEADER: &str = "cycle,src,dst,size";

impl TrafficTrace {
    /// Loads an external message trace from `cycle,src,dst,size` CSV rows
    /// (sizes in bits; an optional header line and blank or `#`-comment
    /// lines are skipped). Rows are sorted by `(cycle, src, dst)`, so
    /// out-of-order dumps replay deterministically.
    ///
    /// Node bounds are checked by the engine against the ring the trace
    /// is replayed on, not here — a trace file is ring-agnostic data.
    ///
    /// # Errors
    ///
    /// Returns [`TraceParseError`] on a malformed row (wrong column
    /// count, unparsable number, nonpositive size or one above
    /// [`MAX_MESSAGE_BITS`]) or an event-free document.
    pub fn from_csv_str(input: &str) -> Result<Self, TraceParseError> {
        let mut events = Vec::new();
        let mut seen_row = false;
        for (index, raw) in input.lines().enumerate() {
            let line = index + 1;
            let row = raw.trim();
            if row.is_empty() || row.starts_with('#') {
                continue;
            }
            // The header may follow leading blank/comment lines, but not
            // actual data rows.
            if !seen_row && row.eq_ignore_ascii_case(TRACE_CSV_HEADER) {
                seen_row = true;
                continue;
            }
            seen_row = true;
            let fields: Vec<&str> = row.split(',').map(str::trim).collect();
            if fields.len() != 4 {
                return Err(TraceParseError::Row {
                    line,
                    message: format!(
                        "expected 4 columns (cycle,src,dst,size), got {}",
                        fields.len()
                    ),
                });
            }
            let number = |field: &str, what: &str| -> Result<u64, TraceParseError> {
                field.parse::<u64>().map_err(|_| TraceParseError::Row {
                    line,
                    message: format!("could not parse {what} {field:?}"),
                })
            };
            let time = number(fields[0], "cycle")?;
            let src = number(fields[1], "src")? as usize;
            let dst = number(fields[2], "dst")? as usize;
            let size = fields[3].parse::<f64>().map_err(|_| TraceParseError::Row {
                line,
                message: format!("could not parse size {:?}", fields[3]),
            })?;
            if !size.is_finite() || size <= 0.0 {
                return Err(TraceParseError::Row {
                    line,
                    message: format!("size must be a positive bit count, got {size}"),
                });
            }
            if size > MAX_MESSAGE_BITS {
                return Err(TraceParseError::Row {
                    line,
                    message: format!("size {size} exceeds the {MAX_MESSAGE_BITS}-bit limit"),
                });
            }
            if src == dst {
                return Err(TraceParseError::Row {
                    line,
                    message: format!("self-addressed row n{src}→n{dst} never enters the ring"),
                });
            }
            events.push(TrafficEvent {
                time,
                src: NodeId(src),
                dst: NodeId(dst),
                volume: Bits::new(size),
            });
        }
        if events.is_empty() {
            return Err(TraceParseError::Empty);
        }
        events.sort_by_key(|e| (e.time, e.src, e.dst));
        Ok(Self { events })
    }

    /// Renders the trace as `cycle,src,dst,size` CSV with a header line
    /// (the inverse of [`TrafficTrace::from_csv_str`]).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(TRACE_CSV_HEADER);
        for e in &self.events {
            out.push('\n');
            out.push_str(&format!(
                "{},{},{},{}",
                e.time,
                e.src.0,
                e.dst.0,
                e.volume.value()
            ));
        }
        out.push('\n');
        out
    }

    /// The largest node index any event references (the minimum ring
    /// size for replay is one more than this).
    #[must_use]
    pub fn max_node(&self) -> usize {
        self.events
            .iter()
            .map(|e| e.src.0.max(e.dst.0))
            .max()
            .unwrap_or(0)
    }

    /// The flows this trace injects on a `nodes`-node ring, as sorted,
    /// deduplicated `src * nodes + dst` rows: the list
    /// [`SimScratch::set_flow_rows`](onoc_sim::SimScratch::set_flow_rows)
    /// takes to build route/mask rows for these flows only, O(active
    /// flows) instead of O(nodes²) setup work.
    #[must_use]
    pub fn flow_rows(&self, nodes: usize) -> Vec<u32> {
        let mut rows: Vec<u32> = self
            .events
            .iter()
            .map(|e| u32::try_from(e.src.0 * nodes + e.dst.0).expect("ring rows fit in u32"))
            .collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }
}

/// Borrowing [`TrafficSource`] over a [`TrafficTrace`].
#[derive(Debug, Clone)]
pub struct TraceSource<'a> {
    events: &'a [TrafficEvent],
    at: usize,
}

impl TrafficSource for TraceSource<'_> {
    fn next_event(&mut self) -> Option<TrafficEvent> {
        let event = self.events.get(self.at).copied();
        self.at += 1;
        event
    }
}

/// Generates the deterministic trace for `config`.
///
/// Each node walks the injection window cycle by cycle with its own split
/// stream; per-node events are then merged by `(time, src)`, which is a
/// total order because one node injects at most once per cycle.
///
/// # Panics
///
/// Panics on a degenerate configuration (see [`TrafficConfig`] field
/// docs).
#[must_use]
pub fn generate(config: &TrafficConfig) -> TrafficTrace {
    config.validate();
    let master = TrafficRng::new(config.seed);
    let mut events = Vec::new();
    for node in 0..config.nodes {
        generate_node(config, node, &master, &mut events);
    }
    events.sort_by_key(|e| (e.time, e.src));
    TrafficTrace { events }
}

/// One node's independent injection process.
fn generate_node(
    config: &TrafficConfig,
    node: usize,
    master: &TrafficRng,
    out: &mut Vec<TrafficEvent>,
) {
    if config.burstiness.is_none() {
        generate_node_geometric(config, node, master, out);
    } else {
        generate_node_per_cycle(config, node, master, out);
    }
}

/// Smooth-traffic fast path: geometric inter-arrival sampling.
///
/// Instead of one Bernoulli draw (uniform → `f64` → compare) per cycle,
/// the clock stream is scanned as raw 53-bit integers against a
/// precomputed threshold, yielding the next arrival gap directly — the
/// gap is Geometric(`injection_rate`) by construction. The scan consumes
/// exactly one draw per cycle, and `k < ⌈p·2⁵³⌉` decides identically to
/// `k·2⁻⁵³ < p` (both products are exact: power-of-two scaling loses no
/// bits), so the trace is bit-identical to the per-cycle reference —
/// pinned by the `geometric_sampling_matches_per_cycle_reference`
/// property test.
fn generate_node_geometric(
    config: &TrafficConfig,
    node: usize,
    master: &TrafficRng,
    out: &mut Vec<TrafficEvent>,
) {
    let mut clock_rng = master.split(node as u64 * 2);
    let mut addr_rng = master.split(node as u64 * 2 + 1);
    let src = NodeId(node);
    let threshold = bernoulli_threshold(config.injection_rate);
    let mut cycle = 0u64;
    while let Some(hit) = next_arrival(&mut clock_rng, threshold, cycle, config.horizon) {
        if let Some(dst) = config.pattern.destination(src, config.nodes, &mut addr_rng) {
            out.push(TrafficEvent {
                time: hit,
                src,
                dst,
                volume: config.message_volume,
            });
        }
        cycle = hit + 1;
    }
}

/// The integer threshold equivalent to [`TrafficRng::bernoulli`]\(`p`\):
/// a draw hits iff its top 53 bits are below the returned value.
fn bernoulli_threshold(p: f64) -> u64 {
    let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        (p * (1u64 << 53) as f64).ceil() as u64
    }
}

/// Scans the clock stream from `from`, returning the first cycle before
/// `horizon` whose draw hits `threshold` (one draw per cycle).
fn next_arrival(rng: &mut TrafficRng, threshold: u64, from: u64, horizon: u64) -> Option<u64> {
    (from..horizon).find(|_| (rng.next_u64() >> 11) < threshold)
}

/// The cycle-by-cycle reference process: one Bernoulli draw per cycle,
/// plus the ON/OFF phase machine when burstiness is configured.
fn generate_node_per_cycle(
    config: &TrafficConfig,
    node: usize,
    master: &TrafficRng,
    out: &mut Vec<TrafficEvent>,
) {
    // Separate streams for timing and addressing, so adding a pattern draw
    // never perturbs the arrival process.
    let mut clock_rng = master.split(node as u64 * 2);
    let mut addr_rng = master.split(node as u64 * 2 + 1);
    let src = NodeId(node);

    let (rate_when_active, mut phase) = match &config.burstiness {
        None => (config.injection_rate, Phase::AlwaysOn),
        Some(onoff) => {
            // Rescale so duty_cycle × on_rate = mean injection rate;
            // validate() guarantees the rescaled rate stays a probability.
            let on_rate = config.injection_rate / onoff.duty_cycle();
            (on_rate, Phase::Off { remaining: 0 })
        }
    };

    for cycle in 0..config.horizon {
        if let Some(onoff) = &config.burstiness {
            phase = phase.step(onoff, &mut clock_rng);
        }
        let active = matches!(phase, Phase::AlwaysOn | Phase::On { .. });
        if !active || !clock_rng.bernoulli(rate_when_active) {
            continue;
        }
        if let Some(dst) = config.pattern.destination(src, config.nodes, &mut addr_rng) {
            out.push(TrafficEvent {
                time: cycle,
                src,
                dst,
                volume: config.message_volume,
            });
        }
    }
}

/// ON-OFF state machine for one node.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Bernoulli process without bursts.
    AlwaysOn,
    /// Injecting for `remaining` more cycles.
    On { remaining: u64 },
    /// Idle for `remaining` more cycles.
    Off { remaining: u64 },
}

impl Phase {
    /// Advances one cycle, drawing fresh period lengths at boundaries.
    fn step(self, onoff: &OnOffConfig, rng: &mut TrafficRng) -> Phase {
        match self {
            Phase::AlwaysOn => Phase::AlwaysOn,
            Phase::On { remaining: 0 } | Phase::Off { remaining: 0 } => {
                let entering_on = matches!(self, Phase::Off { .. });
                if entering_on {
                    let cap = onoff.mean_on * 64.0;
                    let len = rng
                        .pareto(onoff.pareto_scale(), OnOffConfig::PARETO_SHAPE, cap)
                        .round()
                        .max(1.0) as u64;
                    Phase::On { remaining: len - 1 }
                } else if onoff.mean_off == 0.0 {
                    // Degenerate always-on configuration; validate()
                    // forbids mean_off in (0, 1) so p below stays ≤ 1.
                    Phase::On { remaining: 0 }
                } else {
                    // Geometric with mean `mean_off` via inverse CDF.
                    let p = 1.0 / onoff.mean_off;
                    let u = rng.next_f64().max(f64::MIN_POSITIVE);
                    let len = (u.ln() / (1.0 - p).ln()).ceil().max(1.0) as u64;
                    Phase::Off { remaining: len - 1 }
                }
            }
            Phase::On { remaining } => Phase::On {
                remaining: remaining - 1,
            },
            Phase::Off { remaining } => Phase::Off {
                remaining: remaining - 1,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config() -> TrafficConfig {
        TrafficConfig::paper_ring(TrafficPattern::UniformRandom, 0.02, 7)
    }

    proptest::proptest! {
        #[test]
        fn geometric_sampling_matches_per_cycle_reference(
            seed in 0u64..10_000,
            nodes in 2usize..10,
            rate_mil in 0u64..=1_000,
            horizon in 1u64..3_000,
            uniform in proptest::any::<bool>(),
        ) {
            #[allow(clippy::cast_precision_loss)]
            let config = TrafficConfig {
                nodes,
                pattern: if uniform {
                    TrafficPattern::UniformRandom
                } else {
                    TrafficPattern::BitComplement
                },
                injection_rate: rate_mil as f64 / 1_000.0,
                horizon,
                seed,
                ..TrafficConfig::paper_ring(TrafficPattern::UniformRandom, 0.5, seed)
            };
            config.validate();
            let master = TrafficRng::new(config.seed);
            for node in 0..config.nodes {
                let mut fast = Vec::new();
                generate_node_geometric(&config, node, &master, &mut fast);
                let mut reference = Vec::new();
                generate_node_per_cycle(&config, node, &master, &mut reference);
                proptest::prop_assert_eq!(&fast, &reference);
            }
        }
    }

    #[test]
    fn bernoulli_threshold_is_exact_at_the_edges() {
        assert_eq!(bernoulli_threshold(0.0), 0);
        assert_eq!(bernoulli_threshold(1.0), 1u64 << 53);
        assert_eq!(bernoulli_threshold(f64::NAN), 0);
        assert_eq!(bernoulli_threshold(-3.0), 0);
        assert_eq!(bernoulli_threshold(7.0), 1u64 << 53);
        // 0.5 · 2⁵³ is exact; a draw of exactly the threshold misses.
        assert_eq!(bernoulli_threshold(0.5), 1u64 << 52);
    }

    #[test]
    fn traces_are_seed_deterministic() {
        let a = generate(&base_config());
        let b = generate(&base_config());
        assert_eq!(a, b);
        let c = generate(&TrafficConfig {
            seed: 8,
            ..base_config()
        });
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn trace_is_time_ordered_and_in_window() {
        let trace = generate(&base_config());
        assert!(!trace.is_empty());
        for pair in trace.events().windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        assert!(trace.events().iter().all(|e| e.time < 10_000));
        assert!(trace.events().iter().all(|e| e.src != e.dst));
    }

    #[test]
    fn mean_rate_is_close_to_configured() {
        let config = TrafficConfig {
            horizon: 50_000,
            ..base_config()
        };
        let trace = generate(&config);
        let expected = config.injection_rate * config.nodes as f64 * config.horizon as f64;
        let got = trace.len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.1,
            "expected ≈{expected}, got {got}"
        );
    }

    #[test]
    fn bursty_mean_rate_is_preserved() {
        let config = TrafficConfig {
            horizon: 200_000,
            burstiness: Some(OnOffConfig::default_bursty()),
            ..base_config()
        };
        let trace = generate(&config);
        let expected = config.injection_rate * config.nodes as f64 * config.horizon as f64;
        let got = trace.len() as f64;
        // Heavy-tailed ON periods converge slowly; 25% is enough to catch
        // a broken rescale (which would be off by 5×).
        assert!(
            (got - expected).abs() < expected * 0.25,
            "expected ≈{expected}, got {got}"
        );
    }

    #[test]
    fn bursty_traffic_is_burstier() {
        // Compare the variance of per-100-cycle message counts.
        let smooth = generate(&TrafficConfig {
            horizon: 50_000,
            ..base_config()
        });
        let bursty = generate(&TrafficConfig {
            horizon: 50_000,
            burstiness: Some(OnOffConfig::default_bursty()),
            ..base_config()
        });
        let variance = |trace: &TrafficTrace| {
            let mut bins = vec![0f64; 500];
            for e in trace.events() {
                bins[(e.time / 100) as usize] += 1.0;
            }
            let mean = bins.iter().sum::<f64>() / bins.len() as f64;
            bins.iter().map(|b| (b - mean).powi(2)).sum::<f64>() / bins.len() as f64
        };
        assert!(
            variance(&bursty) > 2.0 * variance(&smooth),
            "bursty {} vs smooth {}",
            variance(&bursty),
            variance(&smooth)
        );
    }

    #[test]
    fn source_yields_events_in_order() {
        let trace = generate(&base_config());
        let mut source = trace.source();
        let mut n = 0;
        while let Some(e) = source.next_event() {
            assert_eq!(e, trace.events()[n]);
            n += 1;
        }
        assert_eq!(n, trace.len());
    }

    #[test]
    fn deterministic_pattern_traces_have_fixed_destinations() {
        let config = TrafficConfig::paper_ring(TrafficPattern::BitComplement, 0.05, 3);
        let trace = generate(&config);
        assert!(trace.events().iter().all(|e| e.dst.0 == (e.src.0 ^ 0xF)));
    }

    #[test]
    fn offered_load_formula() {
        let config = base_config();
        assert!((config.offered_load() - 0.02 * 16.0 * 512.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_gives_empty_trace() {
        let config = TrafficConfig {
            injection_rate: 0.0,
            ..base_config()
        };
        assert!(generate(&config).is_empty());
    }

    #[test]
    #[should_panic(expected = "per-cycle probability")]
    fn excessive_rate_rejected() {
        let config = TrafficConfig {
            injection_rate: 1.5,
            ..base_config()
        };
        let _ = generate(&config);
    }

    #[test]
    fn csv_round_trips_through_loader_and_writer() {
        let trace = generate(&base_config());
        let round = TrafficTrace::from_csv_str(&trace.to_csv()).unwrap();
        assert_eq!(round, trace);
    }

    #[test]
    fn csv_loader_sorts_skips_and_validates() {
        let parsed = TrafficTrace::from_csv_str(
            "cycle,src,dst,size\n# warm-up burst\n20, 3, 1, 64\n\n5,0,2,128.5\n",
        )
        .unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed.events()[0].time, 5, "rows are time-sorted");
        assert_eq!(parsed.events()[0].src, NodeId(0));
        assert!((parsed.events()[0].volume.value() - 128.5).abs() < 1e-12);
        assert_eq!(parsed.max_node(), 3);

        // The header is recognised after leading comments/blank lines…
        let late_header = TrafficTrace::from_csv_str(
            "# generated by dump tool\n\ncycle,src,dst,size\n0,0,3,256\n",
        )
        .unwrap();
        assert_eq!(late_header.len(), 1);
        // …but a header-looking line after data rows is a malformed row.
        assert!(matches!(
            TrafficTrace::from_csv_str("0,0,3,256\ncycle,src,dst,size\n").unwrap_err(),
            TraceParseError::Row { line: 2, .. }
        ));

        let bad_columns = TrafficTrace::from_csv_str("1,2,3\n").unwrap_err();
        assert!(matches!(bad_columns, TraceParseError::Row { line: 1, .. }));
        let bad_size = TrafficTrace::from_csv_str("1,0,2,-5\n").unwrap_err();
        assert!(matches!(bad_size, TraceParseError::Row { line: 1, .. }));
        // A size past the message limit is refused with its line; the
        // limit itself loads.
        let huge = TrafficTrace::from_csv_str("0,0,2,64\n1,0,2,1e300\n").unwrap_err();
        assert!(matches!(huge, TraceParseError::Row { line: 2, .. }));
        let at_limit = format!("0,0,2,{MAX_MESSAGE_BITS}\n");
        assert_eq!(TrafficTrace::from_csv_str(&at_limit).unwrap().len(), 1);
        let self_loop = TrafficTrace::from_csv_str("1,2,2,64\n").unwrap_err();
        assert!(matches!(self_loop, TraceParseError::Row { line: 1, .. }));
        assert_eq!(
            TrafficTrace::from_csv_str("# only comments\n").unwrap_err(),
            TraceParseError::Empty
        );
    }

    #[test]
    fn csv_trace_drives_both_injection_modes() {
        use onoc_sim::{DynamicPolicy, InjectionMode, OpenLoopSimulator, WavelengthMode};
        use onoc_topology::RingTopology;
        use onoc_units::BitsPerCycle;

        let trace = TrafficTrace::from_csv_str("0,0,3,256\n0,0,3,256\n4,5,9,128\n").unwrap();
        for injection in [InjectionMode::Open, InjectionMode::Credit { window: 1 }] {
            let sim = OpenLoopSimulator::with_injection(
                RingTopology::new(16),
                2,
                BitsPerCycle::new(1.0),
                WavelengthMode::Dynamic(DynamicPolicy::Single),
                injection,
            );
            let report = sim.run(trace.source()).unwrap();
            assert_eq!(report.records.len(), 3, "{injection}");
            assert_eq!(report.delivered_bits, 640.0, "{injection}");
        }
    }

    #[test]
    fn simulates_end_to_end_with_openloop() {
        use onoc_sim::{DynamicPolicy, OpenLoopSimulator, WavelengthMode};
        use onoc_topology::RingTopology;
        use onoc_units::BitsPerCycle;

        let trace = generate(&base_config());
        let sim = OpenLoopSimulator::new(
            RingTopology::new(16),
            8,
            BitsPerCycle::new(1.0),
            WavelengthMode::Dynamic(DynamicPolicy::Single),
        );
        let report = sim.run(trace.source()).unwrap();
        assert_eq!(report.records.len(), trace.len());
        assert!(report.latency().mean > 0.0);
    }

    #[test]
    fn trace_stats_summarise_counts_span_and_load() {
        let trace = TrafficTrace::from_csv_str(
            "cycle,src,dst,size\n0,0,3,256\n5,1,4,128\n9,0,3,256\n9,4,1,60\n",
        )
        .unwrap();
        let stats = trace.stats();
        assert_eq!(stats.messages, 4);
        assert_eq!((stats.first_cycle, stats.last_cycle), (0, 9));
        assert!((stats.total_bits - 700.0).abs() < 1e-9);
        assert!((stats.mean_offered_bits_per_cycle - 70.0).abs() < 1e-9);
        assert_eq!(stats.per_source, vec![2, 1, 0, 0, 1]);
        assert_eq!(stats.per_dest, vec![0, 1, 0, 2, 1]);
    }

    #[test]
    fn trace_stats_match_generated_traffic() {
        let trace = generate(&base_config());
        let stats = trace.stats();
        assert_eq!(stats.messages, trace.len());
        assert_eq!(stats.per_source.iter().sum::<usize>(), trace.len());
        assert_eq!(stats.per_dest.iter().sum::<usize>(), trace.len());
        assert!(stats.mean_offered_bits_per_cycle > 0.0);
    }
}
