//! End-to-end energy accounting over the open/closed-loop engine.
//!
//! [`EnergyModel`] turns `onoc-photonics` device parameters into run-level
//! coefficients; [`EnergyProbe`] attaches to any engine run through the
//! [`SimProbe`] stream and folds every fact into an [`EnergyReport`]:
//!
//! * **laser** — electrical laser power per *active* wavelength
//!   (wall-plug + OOK duty over the launch power the photodetector
//!   demands through the mean path loss), integrated over each lane's
//!   transmission-on time,
//! * **MR tuning** — thermal power holding every micro-ring resonator on
//!   resonance, burned for the whole run horizon,
//! * **TX/RX dynamic** — per-bit modulator and receiver switching energy,
//!   proportional to traffic put on the waveguide — delivered *plus*
//!   retransmitted bits under fault injection, so wasted attempts burn
//!   energy without contributing goodput.
//!
//! The laser term is the measured-traffic analogue of the analytic
//! `onoc_wa::Evaluator` bit-energy objective (DESIGN.md S6): a
//! cross-validation test pins the simulated laser-only pJ/bit on the
//! paper's 16-core instance against the evaluator within a documented
//! tolerance (see `tests/probe.rs`).

use onoc_photonics::{EnergyParams, WavelengthId};
use onoc_topology::{Direction, NodeId, OnocArchitecture, lone_prefix_budgets};

use crate::fault::DropFact;
use crate::probe::{SimProbe, TxFact};
use crate::report::MsgRecord;

/// Run-level energy coefficients derived from the photonic device models.
///
/// Build one with [`EnergyModel::from_architecture`] (or the
/// [`EnergyModel::paper`] shortcut) and hand it to an [`EnergyProbe`].
///
/// # Examples
///
/// ```
/// use onoc_sim::EnergyModel;
///
/// let model = EnergyModel::paper(16, 8);
/// // The paper's Table I devices put the per-wavelength electrical
/// // laser power in the microwatt range — at 1 bit/cycle and 1 GHz
/// // that is the few-fJ/bit magnitude of Fig. 6(a).
/// assert!(model.laser_mw > 0.0005 && model.laser_mw < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Electrical laser power drawn per active wavelength while it is
    /// being driven, in mW (wall-plug efficiency and OOK duty included).
    pub laser_mw: f64,
    /// Dynamic transmitter energy per bit, in fJ.
    pub tx_fj_per_bit: f64,
    /// Dynamic receiver energy per bit, in fJ.
    pub rx_fj_per_bit: f64,
    /// Thermal tuning power per micro-ring resonator, in mW.
    pub mr_tuning_mw: f64,
    /// Core clock in GHz (cycles → wall-clock time).
    pub clock_ghz: f64,
}

/// Micro-ring resonators per ONI per wavelength: one modulator ring at
/// the transmitter and one drop ring at the receiver.
pub const MRS_PER_NODE_PER_WAVELENGTH: usize = 2;

impl EnergyModel {
    /// Builds the model from an explicit per-wavelength laser power and
    /// the photonics energy coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `laser_mw` or `clock_ghz` is not strictly positive and
    /// finite, or `params` fail their validation.
    #[must_use]
    pub fn new(laser_mw: f64, params: EnergyParams, clock_ghz: f64) -> Self {
        assert!(
            laser_mw.is_finite() && laser_mw > 0.0,
            "laser power must be positive and finite, got {laser_mw} mW"
        );
        assert!(
            clock_ghz.is_finite() && clock_ghz > 0.0,
            "clock must be positive and finite, got {clock_ghz} GHz"
        );
        if let Err(e) = params.validate() {
            panic!("invalid energy parameters: {e}");
        }
        Self {
            laser_mw,
            tx_fj_per_bit: params.tx_fj_per_bit,
            rx_fj_per_bit: params.rx_fj_per_bit,
            mr_tuning_mw: params.mr_tuning_mw,
            clock_ghz,
        }
    }

    /// Derives the per-wavelength laser power from the architecture's
    /// power budget: for every ordered `(src, dst)` pair, the laser must
    /// deliver the photodetector's target power through the pair's path
    /// loss; the electrical power (wall-plug efficiency, OOK duty) is
    /// averaged over all pairs. This mirrors the analytic evaluator's
    /// per-communication laser sizing with the allocation-dependent
    /// ON-MR crossings replaced by the traffic-free budget.
    ///
    /// Each pair's loss is the [`PowerBudget`](onoc_topology::PowerBudget)
    /// of a lone channel-0 transmission on its shortest route. dB losses
    /// add along a path, so one [`lone_prefix_budgets`] walk per source
    /// and direction gives every destination's budget: O(n² · λ) for the
    /// whole model, with the same floating-point result as a
    /// [`power_budgets`](onoc_topology::power_budgets) call per pair.
    #[must_use]
    pub fn from_architecture(
        arch: &OnocArchitecture,
        params: EnergyParams,
        clock_ghz: f64,
    ) -> Self {
        let laser = arch.laser();
        let extinction = (laser.power_off() - laser.power_on()).to_linear();
        let duty = 0.5 * (1.0 + extinction);
        let ring = arch.ring();
        let nodes = ring.node_count();
        // Shortest routes reach at most `nodes / 2` hops clockwise (which
        // wins ties) and `(nodes - 1) / 2` counter-clockwise.
        let reach = |src: usize, direction: Direction, hops: usize| {
            if hops == 0 {
                return Vec::new();
            }
            let far = match direction {
                Direction::Clockwise => (src + hops) % nodes,
                Direction::CounterClockwise => (src + nodes - hops) % nodes,
            };
            let path = arch.route(NodeId(src), NodeId(far), direction);
            lone_prefix_budgets(arch, &path, WavelengthId(0))
        };
        let mut total_mw = 0.0;
        let mut pairs = 0usize;
        for src in 0..nodes {
            let cw = reach(src, Direction::Clockwise, nodes / 2);
            let ccw = reach(src, Direction::CounterClockwise, (nodes - 1) / 2);
            for dst in 0..nodes {
                if src == dst {
                    continue;
                }
                let direction = ring.shortest_direction(NodeId(src), NodeId(dst));
                let hops = ring.hops(NodeId(src), NodeId(dst), direction);
                let walk = match direction {
                    Direction::Clockwise => &cw,
                    Direction::CounterClockwise => &ccw,
                };
                let loss = walk[hops - 1].total();
                let launch = arch.detector().required_launch_power(loss);
                total_mw += (laser.electrical_power(launch.to_milliwatts()) * duty).value();
                pairs += 1;
            }
        }
        #[allow(clippy::cast_precision_loss)]
        Self::new(total_mw / pairs as f64, params, clock_ghz)
    }

    /// The paper preset: Table I devices on a near-square serpentine
    /// grid of `nodes` cores with a `wavelengths`-channel comb,
    /// [`EnergyParams::paper`] coefficients, 1 GHz clock.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2` or `wavelengths` is outside the comb range
    /// the architecture accepts.
    #[must_use]
    pub fn paper(nodes: usize, wavelengths: usize) -> Self {
        let (rows, cols) = OnocArchitecture::near_square_grid(nodes);
        let arch = OnocArchitecture::builder()
            .grid_dimensions(rows, cols)
            .wavelengths(wavelengths)
            .build()
            .expect("near-square paper grids are valid architectures");
        Self::from_architecture(&arch, EnergyParams::paper(), 1.0)
    }

    /// Femtojoules burned by `mw` milliwatts over `cycles` engine cycles
    /// at this model's clock.
    #[must_use]
    pub fn mw_cycles_to_fj(&self, mw: f64, cycles: f64) -> f64 {
        // mW × s = mJ = 1e12 fJ; one cycle is 1e-9 / clock_ghz seconds.
        mw * cycles * 1e3 / self.clock_ghz
    }
}

/// A [`SimProbe`] folding every engine fact into an [`EnergyReport`].
///
/// Per-lane buffers are sized at construction, so a probed run makes no
/// allocations on the steady-state admit path (the zero-alloc regression
/// test runs with this probe attached).
///
/// # Examples
///
/// ```
/// use onoc_sim::{
///     DynamicPolicy, EnergyModel, EnergyProbe, OpenLoopSimulator, TrafficEvent,
///     WavelengthMode,
/// };
/// use onoc_topology::{NodeId, RingTopology};
/// use onoc_units::{Bits, BitsPerCycle};
///
/// let sim = OpenLoopSimulator::new(
///     RingTopology::new(16),
///     8,
///     BitsPerCycle::new(1.0),
///     WavelengthMode::Dynamic(DynamicPolicy::Single),
/// );
/// let mut probe = EnergyProbe::new(EnergyModel::paper(16, 8), 16, 8);
/// let events = vec![TrafficEvent {
///     time: 0,
///     src: NodeId(0),
///     dst: NodeId(3),
///     volume: Bits::new(512.0),
/// }];
/// sim.run_probed(events.into_iter(), &mut probe).unwrap();
/// let energy = probe.report();
/// assert!(energy.pj_per_bit() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyProbe {
    model: EnergyModel,
    nodes: usize,
    lane_on_cycles: Vec<u64>,
    flow_lane_on_cycles: Vec<u64>,
    flow_bits: Vec<f64>,
    flow_messages: Vec<u64>,
    bits: f64,
    retransmitted_bits: f64,
    messages: u64,
    horizon: u64,
}

impl EnergyProbe {
    /// A probe for runs on a `nodes`-core ring with a
    /// `wavelengths`-channel comb.
    #[must_use]
    pub fn new(model: EnergyModel, nodes: usize, wavelengths: usize) -> Self {
        Self {
            model,
            nodes,
            lane_on_cycles: vec![0; wavelengths],
            flow_lane_on_cycles: vec![0; nodes * nodes],
            flow_bits: vec![0.0; nodes * nodes],
            flow_messages: vec![0; nodes * nodes],
            bits: 0.0,
            retransmitted_bits: 0.0,
            messages: 0,
            horizon: 0,
        }
    }

    /// Clears the folded state so the probe can observe another run
    /// (buffers keep their capacity).
    pub fn reset(&mut self) {
        self.lane_on_cycles.fill(0);
        self.flow_lane_on_cycles.fill(0);
        self.flow_bits.fill(0.0);
        self.flow_messages.fill(0);
        self.bits = 0.0;
        self.retransmitted_bits = 0.0;
        self.messages = 0;
        self.horizon = 0;
    }

    /// The model this probe folds with.
    #[must_use]
    pub fn model(&self) -> &EnergyModel {
        &self.model
    }

    /// Assembles the energy report of the observed run.
    #[must_use]
    pub fn report(&self) -> EnergyReport {
        let m = &self.model;
        #[allow(clippy::cast_precision_loss)]
        let lane_on_total: f64 = self.lane_on_cycles.iter().map(|&c| c as f64).sum();
        let ring_count = MRS_PER_NODE_PER_WAVELENGTH * self.nodes * self.lane_on_cycles.len();
        #[allow(clippy::cast_precision_loss)]
        let tuning_fj = m.mw_cycles_to_fj(m.mr_tuning_mw * ring_count as f64, self.horizon as f64);
        let wire_bits = self.bits + self.retransmitted_bits;
        EnergyReport {
            bits: self.bits,
            retransmitted_bits: self.retransmitted_bits,
            messages: self.messages,
            horizon: self.horizon,
            laser_fj: m.mw_cycles_to_fj(m.laser_mw, lane_on_total),
            tuning_fj,
            tx_fj: m.tx_fj_per_bit * wire_bits,
            rx_fj: m.rx_fj_per_bit * wire_bits,
            lane_on_cycles: self.lane_on_cycles.clone(),
            ring_count,
            nodes: self.nodes,
            flow_lane_on_cycles: self.flow_lane_on_cycles.clone(),
            flow_bits: self.flow_bits.clone(),
            flow_messages: self.flow_messages.clone(),
        }
    }
}

impl SimProbe for EnergyProbe {
    #[inline]
    fn completed(&mut self, fact: TxFact) {
        let span = fact.span();
        let mut rest = fact.lanes;
        while rest != 0 {
            let lane = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            assert!(
                lane < self.lane_on_cycles.len(),
                "EnergyProbe was built for {} wavelengths but observed lane {lane}; \
                 construct it with the simulator's comb size",
                self.lane_on_cycles.len()
            );
            self.lane_on_cycles[lane] += span;
        }
        let flow = fact.src.0 * self.nodes + fact.dst.0;
        self.flow_lane_on_cycles[flow] += span * fact.lane_count() as u64;
    }

    #[inline]
    fn dropped(&mut self, fact: DropFact) {
        // A failed attempt drove its lanes for the full span before the
        // receiver rejected it: the laser-on time and the modulated bits
        // are burned exactly as on a delivery, only the goodput is not.
        let span = fact.end - fact.start;
        let mut rest = fact.lanes;
        while rest != 0 {
            let lane = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            assert!(
                lane < self.lane_on_cycles.len(),
                "EnergyProbe was built for {} wavelengths but observed lane {lane}; \
                 construct it with the simulator's comb size",
                self.lane_on_cycles.len()
            );
            self.lane_on_cycles[lane] += span;
        }
        let flow = fact.src.0 * self.nodes + fact.dst.0;
        self.flow_lane_on_cycles[flow] += span * fact.lane_count() as u64;
        self.retransmitted_bits += fact.bits;
    }

    #[inline]
    fn retired(&mut self, record: &MsgRecord, volume_bits: f64, _hops: usize) {
        self.bits += volume_bits;
        self.messages += 1;
        let flow = record.src.0 * self.nodes + record.dst.0;
        self.flow_bits[flow] += volume_bits;
        self.flow_messages[flow] += 1;
    }

    #[inline]
    fn finished(&mut self, horizon: u64, _last_injection: u64) {
        self.horizon = horizon;
    }
}

/// The folded energy outcome of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// Bits delivered by the run.
    pub bits: f64,
    /// Bits of failed attempts that had to be retransmitted — charged
    /// to the TX/RX dynamic terms alongside the delivered bits, but not
    /// part of the `pj_per_bit` denominator (waste raises it).
    pub retransmitted_bits: f64,
    /// Messages delivered by the run.
    pub messages: u64,
    /// Cycle of the last completion.
    pub horizon: u64,
    /// Laser electrical energy over every lane's transmission-on time.
    pub laser_fj: f64,
    /// MR thermal-tuning energy over the whole horizon.
    pub tuning_fj: f64,
    /// Dynamic transmitter energy (per-bit × bits).
    pub tx_fj: f64,
    /// Dynamic receiver energy (per-bit × bits).
    pub rx_fj: f64,
    /// Transmission-on cycles per wavelength (laser-on time per lane).
    pub lane_on_cycles: Vec<u64>,
    /// Micro-ring resonators held on resonance for the tuning term.
    pub ring_count: usize,
    /// Ring size, for indexing the flow vectors (flow = src × nodes + dst).
    pub nodes: usize,
    /// Lane-on cycles per flow (span × lanes of every completion).
    pub flow_lane_on_cycles: Vec<u64>,
    /// Bits delivered per flow.
    pub flow_bits: Vec<f64>,
    /// Messages delivered per flow.
    pub flow_messages: Vec<u64>,
}

/// One flow's slice of an [`EnergyReport`], from
/// [`EnergyReport::per_flow`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEnergy {
    /// Source node.
    pub src: onoc_topology::NodeId,
    /// Destination node.
    pub dst: onoc_topology::NodeId,
    /// Messages the flow delivered.
    pub messages: u64,
    /// Bits the flow delivered.
    pub bits: f64,
    /// Lane-on cycles the flow drove.
    pub lane_on_cycles: u64,
    /// Laser energy attributed to the flow (∝ its lane-on cycles).
    pub laser_fj: f64,
    /// MR-tuning energy attributed to the flow (∝ its delivered bits).
    pub tuning_fj: f64,
    /// Transmitter energy attributed to the flow (∝ its delivered bits).
    pub tx_fj: f64,
    /// Receiver energy attributed to the flow (∝ its delivered bits).
    pub rx_fj: f64,
}

impl FlowEnergy {
    /// Total energy attributed to the flow, in femtojoules.
    #[must_use]
    pub fn total_fj(&self) -> f64 {
        self.laser_fj + self.tuning_fj + self.tx_fj + self.rx_fj
    }
}

impl EnergyReport {
    /// Static energy: laser-on plus MR tuning — power that burns whether
    /// or not a given bit is useful.
    #[must_use]
    pub fn static_fj(&self) -> f64 {
        self.laser_fj + self.tuning_fj
    }

    /// Dynamic energy: TX + RX switching, proportional to traffic.
    #[must_use]
    pub fn dynamic_fj(&self) -> f64 {
        self.tx_fj + self.rx_fj
    }

    /// Total energy of the run in femtojoules.
    #[must_use]
    pub fn total_fj(&self) -> f64 {
        self.static_fj() + self.dynamic_fj()
    }

    /// Headline figure of merit: picojoules per delivered bit
    /// (0 for an empty run).
    #[must_use]
    pub fn pj_per_bit(&self) -> f64 {
        if self.bits <= 0.0 {
            0.0
        } else {
            self.total_fj() / self.bits / 1e3
        }
    }

    /// Laser-only energy per bit in fJ — the measured analogue of the
    /// analytic evaluator's bit-energy objective.
    #[must_use]
    pub fn laser_fj_per_bit(&self) -> f64 {
        if self.bits <= 0.0 {
            0.0
        } else {
            self.laser_fj / self.bits
        }
    }

    /// Fraction of the total energy that is static (0 for an empty run).
    #[must_use]
    pub fn static_fraction(&self) -> f64 {
        let total = self.total_fj();
        if total <= 0.0 {
            0.0
        } else {
            self.static_fj() / total
        }
    }

    /// Splits the run's energy across its active flows: laser in
    /// proportion to each flow's lane-on cycles, MR tuning and TX/RX
    /// dynamic energy in proportion to its delivered bits (falling back
    /// to message share on a zero-bit run). Summing every
    /// [`FlowEnergy`] term recovers the corresponding run total to
    /// floating-point rounding (proptested); flows with no activity are
    /// omitted.
    #[must_use]
    pub fn per_flow(&self) -> Vec<FlowEnergy> {
        fn share(num: f64, den: f64) -> f64 {
            if den <= 0.0 { 0.0 } else { num / den }
        }
        #[allow(clippy::cast_precision_loss)]
        let lane_total: f64 = self.flow_lane_on_cycles.iter().map(|&c| c as f64).sum();
        let mut flows = Vec::new();
        for flow in 0..self.flow_bits.len() {
            let (cycles, bits, messages) = (
                self.flow_lane_on_cycles[flow],
                self.flow_bits[flow],
                self.flow_messages[flow],
            );
            if cycles == 0 && messages == 0 {
                continue;
            }
            #[allow(clippy::cast_precision_loss)]
            let lane_share = share(cycles as f64, lane_total);
            #[allow(clippy::cast_precision_loss)]
            let bit_share = if self.bits > 0.0 {
                bits / self.bits
            } else {
                share(messages as f64, self.messages as f64)
            };
            flows.push(FlowEnergy {
                src: onoc_topology::NodeId(flow / self.nodes),
                dst: onoc_topology::NodeId(flow % self.nodes),
                messages,
                bits,
                lane_on_cycles: cycles,
                laser_fj: self.laser_fj * lane_share,
                tuning_fj: self.tuning_fj * bit_share,
                tx_fj: self.tx_fj * bit_share,
                rx_fj: self.rx_fj * bit_share,
            });
        }
        flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_model() -> EnergyModel {
        EnergyModel::new(
            1.0,
            EnergyParams {
                tx_fj_per_bit: 10.0,
                rx_fj_per_bit: 5.0,
                mr_tuning_mw: 0.1,
            },
            1.0,
        )
    }

    #[test]
    fn mw_cycles_conversion_at_1ghz() {
        // 1 mW for 1 cycle at 1 GHz = 1 mW × 1 ns = 1 pJ = 1000 fJ.
        let m = unit_model();
        assert!((m.mw_cycles_to_fj(1.0, 1.0) - 1_000.0).abs() < 1e-9);
        // Doubling the clock halves the cycle time, hence the energy.
        let fast = EnergyModel {
            clock_ghz: 2.0,
            ..unit_model()
        };
        assert!((fast.mw_cycles_to_fj(1.0, 1.0) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn hand_computed_single_transmission() {
        // One 100-bit message on one lane over 2 hops: span 100 cycles.
        let mut probe = EnergyProbe::new(unit_model(), 4, 2);
        probe.completed(TxFact {
            start: 0,
            end: 100,
            lanes: 0b01,
            hops: 2,
            src: onoc_topology::NodeId(0),
            dst: onoc_topology::NodeId(2),
            marked: false,
        });
        probe.retired(
            &MsgRecord {
                src: onoc_topology::NodeId(0),
                dst: onoc_topology::NodeId(2),
                injected: 0,
                admitted: 0,
                started: 0,
                completed: 100,
                lanes: 1,
                attempts: 1,
            },
            100.0,
            2,
        );
        probe.finished(100, 0);
        let r = probe.report();
        // Laser: 1 mW × 100 cycles = 100 pJ = 100 000 fJ.
        assert!((r.laser_fj - 100_000.0).abs() < 1e-6);
        // Tuning: 0.1 mW × (2 × 4 nodes × 2 λ = 16 rings) × 100 cycles
        // = 160 pJ.
        assert_eq!(r.ring_count, 16);
        assert!((r.tuning_fj - 160_000.0).abs() < 1e-6);
        // Dynamic: (10 + 5) fJ/bit × 100 bits.
        assert!((r.tx_fj - 1_000.0).abs() < 1e-9);
        assert!((r.rx_fj - 500.0).abs() < 1e-9);
        assert!((r.total_fj() - 261_500.0).abs() < 1e-6);
        // 261 500 fJ / 100 bits = 2 615 fJ/bit = 2.615 pJ/bit.
        assert!((r.pj_per_bit() - 2.615).abs() < 1e-9);
        assert!((r.laser_fj_per_bit() - 1_000.0).abs() < 1e-9);
        assert!((r.static_fraction() - 260_000.0 / 261_500.0).abs() < 1e-12);
        assert_eq!(r.lane_on_cycles, vec![100, 0]);
    }

    #[test]
    fn multi_lane_transmissions_accumulate_per_lane() {
        let mut probe = EnergyProbe::new(unit_model(), 4, 4);
        probe.completed(TxFact {
            start: 0,
            end: 50,
            lanes: 0b1010,
            hops: 1,
            src: onoc_topology::NodeId(0),
            dst: onoc_topology::NodeId(1),
            marked: false,
        });
        probe.completed(TxFact {
            start: 60,
            end: 80,
            lanes: 0b0010,
            hops: 1,
            src: onoc_topology::NodeId(2),
            dst: onoc_topology::NodeId(3),
            marked: false,
        });
        let r = probe.report();
        assert_eq!(r.lane_on_cycles, vec![0, 70, 0, 50]);
        // Flow attribution splits the same cycles by source pair:
        // 0→1 drove 2 lanes × 50 cycles, 2→3 one lane × 20.
        assert_eq!(r.flow_lane_on_cycles[1], 100);
        assert_eq!(r.flow_lane_on_cycles[2 * 4 + 3], 20);
    }

    #[test]
    fn dropped_attempts_burn_laser_and_dynamic_energy() {
        use crate::fault::FaultCause;
        // A 100-bit delivery plus one failed 100-bit attempt on the
        // same flow: laser-on doubles, TX/RX charge 200 wire bits, but
        // goodput stays 100 bits.
        let mut probe = EnergyProbe::new(unit_model(), 4, 2);
        probe.dropped(DropFact {
            start: 0,
            end: 100,
            lanes: 0b01,
            hops: 2,
            src: onoc_topology::NodeId(0),
            dst: onoc_topology::NodeId(2),
            bits: 100.0,
            cause: FaultCause::Corrupt,
            attempt: 1,
        });
        probe.completed(TxFact {
            start: 100,
            end: 200,
            lanes: 0b01,
            hops: 2,
            src: onoc_topology::NodeId(0),
            dst: onoc_topology::NodeId(2),
            marked: false,
        });
        probe.retired(
            &MsgRecord {
                src: onoc_topology::NodeId(0),
                dst: onoc_topology::NodeId(2),
                injected: 0,
                admitted: 0,
                started: 100,
                completed: 200,
                lanes: 1,
                attempts: 2,
            },
            100.0,
            2,
        );
        probe.finished(200, 0);
        let r = probe.report();
        assert_eq!(r.lane_on_cycles, vec![200, 0]);
        assert!((r.bits - 100.0).abs() < 1e-12);
        assert!((r.retransmitted_bits - 100.0).abs() < 1e-12);
        // Laser: 1 mW × 200 cycles; TX/RX: (10 + 5) fJ × 200 wire bits.
        assert!((r.laser_fj - 200_000.0).abs() < 1e-6);
        assert!((r.tx_fj - 2_000.0).abs() < 1e-9);
        assert!((r.rx_fj - 1_000.0).abs() < 1e-9);
        // The failed attempt's lane cycles stay attributed to the flow.
        assert_eq!(r.flow_lane_on_cycles[2], 200);
    }

    #[test]
    fn empty_run_reports_zeroes() {
        let probe = EnergyProbe::new(unit_model(), 4, 2);
        let r = probe.report();
        assert_eq!(r.pj_per_bit(), 0.0);
        assert_eq!(r.static_fraction(), 0.0);
        assert_eq!(r.total_fj(), 0.0);
    }

    #[test]
    fn reset_clears_folded_state() {
        let mut probe = EnergyProbe::new(unit_model(), 4, 2);
        probe.completed(TxFact {
            start: 0,
            end: 10,
            lanes: 1,
            hops: 1,
            src: onoc_topology::NodeId(0),
            dst: onoc_topology::NodeId(1),
            marked: false,
        });
        probe.finished(10, 0);
        probe.reset();
        assert_eq!(probe.report().total_fj(), 0.0);
        assert_eq!(probe.report().horizon, 0);
        assert!(probe.report().per_flow().is_empty());
    }

    #[test]
    fn per_flow_attribution_is_hand_checkable_and_conserves() {
        // Two flows on a 4-node ring: 0→2 delivers 300 of the 400 bits
        // and 150 of the 200 lane-on cycles, 1→3 the rest.
        let mut probe = EnergyProbe::new(unit_model(), 4, 2);
        for (src, dst, bits, start, end) in
            [(0usize, 2usize, 300.0, 0u64, 150u64), (1, 3, 100.0, 0, 50)]
        {
            probe.completed(TxFact {
                start,
                end,
                lanes: 0b01,
                hops: 2,
                src: onoc_topology::NodeId(src),
                dst: onoc_topology::NodeId(dst),
                marked: false,
            });
            probe.retired(
                &MsgRecord {
                    src: onoc_topology::NodeId(src),
                    dst: onoc_topology::NodeId(dst),
                    injected: start,
                    admitted: start,
                    started: start,
                    completed: end,
                    lanes: 1,
                    attempts: 1,
                },
                bits,
                2,
            );
        }
        probe.finished(150, 0);
        let r = probe.report();
        let flows = r.per_flow();
        assert_eq!(flows.len(), 2);
        let f02 = &flows[0];
        assert_eq!((f02.src.0, f02.dst.0), (0, 2));
        // Laser splits by lane-on share (150/200), bit terms by 300/400.
        assert!((f02.laser_fj - r.laser_fj * 0.75).abs() < 1e-9);
        assert!((f02.tuning_fj - r.tuning_fj * 0.75).abs() < 1e-9);
        assert!((f02.tx_fj - r.tx_fj * 0.75).abs() < 1e-9);
        // The split conserves every term.
        let sum: f64 = flows.iter().map(FlowEnergy::total_fj).sum();
        assert!((sum - r.total_fj()).abs() <= 1e-9 * r.total_fj());
    }

    #[test]
    fn paper_model_is_in_the_calibrated_band() {
        let model = EnergyModel::paper(16, 8);
        // Table I devices sized for the photodetector target through the
        // mean ring path loss draw a few µW of electrical laser power per
        // wavelength; at 1 bit/cycle and 1 GHz that is a few fJ/bit of
        // laser energy — the Fig. 6(a) magnitude (P mW × 1 ns/bit =
        // P × 1000 fJ/bit).
        assert!(
            model.laser_mw > 0.0005 && model.laser_mw < 0.05,
            "laser {} mW outside the calibrated band",
            model.laser_mw
        );
        assert_eq!(model.clock_ghz, 1.0);
        assert_eq!(model.tx_fj_per_bit, 50.0);
        // More wavelengths raise the per-channel crosstalk-free loss only
        // marginally; the model stays in the band.
        let wide = EnergyModel::paper(16, 16);
        assert!(wide.laser_mw > 0.0005 && wide.laser_mw < 0.05);
        // Larger rings mean longer mean paths, hence more launch power.
        let big = EnergyModel::paper(32, 8);
        assert!(big.laser_mw > model.laser_mw);
    }

    /// The per-pair model before the one-walk rewrite: a spectrum-engine
    /// `power_budgets` call for every ordered pair's lone channel-0
    /// transmission.
    #[allow(clippy::cast_precision_loss)]
    fn per_pair_laser_mw(arch: &OnocArchitecture) -> f64 {
        use onoc_topology::{Transmission, power_budgets};
        let laser = arch.laser();
        let extinction = (laser.power_off() - laser.power_on()).to_linear();
        let duty = 0.5 * (1.0 + extinction);
        let nodes = arch.ring().node_count();
        let mut total_mw = 0.0;
        let mut pairs = 0usize;
        for src in 0..nodes {
            for dst in 0..nodes {
                if src == dst {
                    continue;
                }
                let path = arch.route_shortest(NodeId(src), NodeId(dst));
                let tx = Transmission::new(0, path, vec![WavelengthId(0)]);
                let loss = power_budgets(arch, std::slice::from_ref(&tx)).unwrap()[0].total();
                let launch = arch.detector().required_launch_power(loss);
                total_mw += (laser.electrical_power(launch.to_milliwatts()) * duty).value();
                pairs += 1;
            }
        }
        total_mw / pairs as f64
    }

    #[test]
    fn one_walk_model_is_bit_identical_to_the_per_pair_budgets() {
        for nodes in [2, 3, 5, 16, 17, 32, 33, 64] {
            for comb in [1, 8, 31, 64] {
                let (rows, cols) = OnocArchitecture::near_square_grid(nodes);
                let arch = OnocArchitecture::builder()
                    .grid_dimensions(rows, cols)
                    .wavelengths(comb)
                    .build()
                    .unwrap();
                let model = EnergyModel::from_architecture(&arch, EnergyParams::paper(), 1.0);
                assert_eq!(
                    model.laser_mw.to_bits(),
                    per_pair_laser_mw(&arch).to_bits(),
                    "{nodes} nodes × {comb} λ"
                );
                assert_eq!(model, EnergyModel::paper(nodes, comb));
            }
        }
    }

    #[test]
    #[should_panic(expected = "laser power")]
    fn zero_laser_power_panics() {
        let _ = EnergyModel::new(0.0, EnergyParams::paper(), 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid energy parameters")]
    fn invalid_params_panic() {
        let _ = EnergyModel::new(
            1.0,
            EnergyParams {
                tx_fj_per_bit: -1.0,
                ..EnergyParams::paper()
            },
            1.0,
        );
    }
}
