//! Per-wavelength power walk: signal (Eq. 6), crosstalk (Eq. 7) and path loss.

use onoc_photonics::{MrElement, MrState, SignalNoise, WavelengthId};
use onoc_units::{Decibels, Milliwatts};

use crate::{Direction, NodeId, OnocArchitecture, RingPath};

/// A set of wavelengths travelling together along one path — one
/// application-level communication after wavelength allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Transmission {
    id: usize,
    path: RingPath,
    channels: Vec<WavelengthId>,
}

impl Transmission {
    /// Creates a transmission with caller-chosen `id` (used in reports),
    /// travelling over `path` on the given WDM `channels`.
    ///
    /// Channels are sorted and deduplicated.
    #[must_use]
    pub fn new(id: usize, path: RingPath, mut channels: Vec<WavelengthId>) -> Self {
        channels.sort_unstable();
        channels.dedup();
        Self { id, path, channels }
    }

    /// Caller-chosen identifier.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The path travelled.
    #[must_use]
    pub fn path(&self) -> &RingPath {
        &self.path
    }

    /// The allocated WDM channels (sorted, unique).
    #[must_use]
    pub fn channels(&self) -> &[WavelengthId] {
        &self.channels
    }
}

/// How interferer power is propagated to a victim photodetector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CrosstalkModel {
    /// The paper's first-order model (Eq. 7): each co-propagating wavelength
    /// arrives at the destination ONI with its own accumulated path loss and
    /// couples into the victim photodetector through the Lorentzian
    /// `Φ(λ_m, λ_i)` directly.
    #[default]
    PaperFirstOrder,
    /// Element-wise walk: the interferer additionally traverses the
    /// destination ONI's MR stack up to the victim MR, including the `Kp1`
    /// residual attenuation if the interferer was itself dropped at an
    /// earlier stack position. Physically tighter than the paper's model;
    /// kept as an ablation (DESIGN.md, E9).
    Elementwise,
}

impl core::fmt::Display for CrosstalkModel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CrosstalkModel::PaperFirstOrder => write!(f, "paper-first-order"),
            CrosstalkModel::Elementwise => write!(f, "elementwise"),
        }
    }
}

/// Errors detected while building or running a [`SpectrumEngine`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpectrumError {
    /// A transmission reserves a channel outside the architecture's comb.
    ChannelOutOfRange {
        /// Transmission id.
        transmission: usize,
        /// Offending channel.
        channel: WavelengthId,
        /// Number of channels in the comb.
        grid_size: usize,
    },
    /// A transmission has no channels, so it cannot carry data.
    NoChannels {
        /// Transmission id.
        transmission: usize,
    },
    /// Two transmissions on the same waveguide want to receive the same
    /// channel at the same ONI.
    ReceiverCollision {
        /// First transmission id.
        first: usize,
        /// Second transmission id.
        second: usize,
        /// The contested channel.
        channel: WavelengthId,
        /// The ONI where both receivers sit.
        at: NodeId,
    },
    /// A signal would be dropped before reaching its destination because an
    /// intermediate ONI receives the same channel — a wavelength-
    /// disjointness violation (§III-D of the paper).
    ChannelDroppedEnRoute {
        /// The transmission losing its signal.
        transmission: usize,
        /// The channel being intercepted.
        channel: WavelengthId,
        /// The intercepting ONI.
        at: NodeId,
        /// The transmission whose receiver intercepts the channel.
        intercepted_by: usize,
    },
}

impl core::fmt::Display for SpectrumError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpectrumError::ChannelOutOfRange {
                transmission,
                channel,
                grid_size,
            } => write!(
                f,
                "transmission {transmission} reserves {channel} outside the {grid_size}-channel comb"
            ),
            SpectrumError::NoChannels { transmission } => {
                write!(f, "transmission {transmission} has no wavelengths")
            }
            SpectrumError::ReceiverCollision {
                first,
                second,
                channel,
                at,
            } => write!(
                f,
                "transmissions {first} and {second} both receive {channel} at {at}"
            ),
            SpectrumError::ChannelDroppedEnRoute {
                transmission,
                channel,
                at,
                intercepted_by,
            } => write!(
                f,
                "transmission {transmission} loses {channel} at {at}: intercepted by transmission {intercepted_by}"
            ),
        }
    }
}

impl std::error::Error for SpectrumError {}

/// The optical state of one photodetector input: received signal, accumulated
/// inter-channel crosstalk and the end-to-end path loss of the signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReceiverReport {
    /// Id of the transmission owning this receiver.
    pub transmission: usize,
    /// The received WDM channel.
    pub channel: WavelengthId,
    /// Signal power at the photodetector (Eq. 6).
    pub signal: Milliwatts,
    /// Total inter-channel crosstalk power (Eq. 7).
    pub crosstalk: Milliwatts,
    /// Total noise: crosstalk plus the laser's residual zero-level `P0`
    /// (Eq. 8 denominator).
    pub noise: Milliwatts,
    /// End-to-end loss of the signal from laser to photodetector; feeds the
    /// energy model.
    pub path_loss: Decibels,
    /// Number of co-propagating wavelengths contributing crosstalk (`M` in
    /// Eq. 7).
    pub interferers: usize,
}

impl ReceiverReport {
    /// The signal/noise pair at this photodetector, ready for SNR and BER
    /// evaluation.
    #[must_use]
    pub fn signal_noise(&self) -> SignalNoise {
        SignalNoise::new(self.signal, self.noise)
    }
}

/// Evaluates the receiver-side optics of a set of concurrent transmissions on
/// one [`OnocArchitecture`].
///
/// The engine walks every allocated wavelength once, element by element —
/// waveguide segments (propagation + bending loss), intermediate ONI stacks
/// (OFF/ON MR through losses, Eqs. 2 and 4) and the destination stack (drop
/// loss, Eq. 5) — snapshotting the loss at each node it enters, and
/// accumulates from those snapshots the crosstalk every other
/// co-propagating wavelength leaks into each photodetector.
///
/// # Examples
///
/// ```
/// use onoc_topology::{Direction, NodeId, OnocArchitecture, SpectrumEngine, Transmission};
///
/// let arch = OnocArchitecture::paper_architecture(8);
/// let ch = |i| arch.grid().channel(i).unwrap();
/// let traffic = vec![
///     Transmission::new(0, arch.route(NodeId(0), NodeId(3), Direction::Clockwise), vec![ch(0)]),
///     Transmission::new(1, arch.route(NodeId(1), NodeId(3), Direction::Clockwise), vec![ch(1)]),
/// ];
/// let engine = SpectrumEngine::new(&arch, &traffic)?;
/// let reports = engine.analyze()?;
/// // Both receivers sit at node 3 and each sees the other as crosstalk.
/// assert_eq!(reports.len(), 2);
/// assert!(reports.iter().all(|r| r.interferers == 1));
/// # Ok::<(), onoc_topology::SpectrumError>(())
/// ```
#[derive(Debug)]
pub struct SpectrumEngine<'a> {
    arch: &'a OnocArchitecture,
    traffic: &'a [Transmission],
    model: CrosstalkModel,
    /// `receivers[receiver_slot(direction, node, channel)]` = index (into
    /// `traffic`) of the transmission whose receiver MR for `channel` at
    /// `node` on the waveguide of `direction` is ON.
    receivers: Vec<Option<usize>>,
}

fn dir_index(direction: Direction) -> usize {
    match direction {
        Direction::Clockwise => 0,
        Direction::CounterClockwise => 1,
    }
}

/// One allocated lane's walk along its transmission's path.
#[derive(Debug)]
struct LaneWalk {
    /// Offset of the lane's first snapshot in [`LaneWalks::entries`].
    start: usize,
    /// Snapshots taken: the path's hop count, or the hop of the node whose
    /// stack intercepts the lane.
    reached: usize,
    /// The interception that stopped the walk early.
    intercepted: Option<SpectrumError>,
}

/// Loss snapshots of every allocated lane, taken in one walk per lane.
#[derive(Debug)]
struct LaneWalks {
    /// Per transmission: index of its first lane in `lanes`, and its hops.
    transmissions: Vec<(usize, usize)>,
    /// Per lane, in traffic order, then channel order.
    lanes: Vec<LaneWalk>,
    /// Snapshot `h - 1` of a lane: the loss from its laser to the entry of
    /// the path's `h`-th node (segments and full intermediate stacks,
    /// nothing of that node's own stack).
    entries: Vec<Decibels>,
}

impl LaneWalks {
    /// Hop count of transmission `t_idx`'s path.
    fn hops(&self, t_idx: usize) -> usize {
        self.transmissions[t_idx].1
    }

    /// The loss of lane `c_idx` of transmission `t_idx` at the entry of its
    /// path's `hop`-th node, or the interception that drops the lane before
    /// that node.
    fn entry(&self, t_idx: usize, c_idx: usize, hop: usize) -> Result<Decibels, SpectrumError> {
        let lane = &self.lanes[self.transmissions[t_idx].0 + c_idx];
        if hop <= lane.reached {
            Ok(self.entries[lane.start + hop - 1])
        } else {
            Err(lane
                .intercepted
                .clone()
                .expect("a walk stops short only at an interception"))
        }
    }
}

impl<'a> SpectrumEngine<'a> {
    /// Builds an engine with the default (paper) crosstalk model.
    ///
    /// # Errors
    ///
    /// Returns [`SpectrumError`] if a transmission has no channels, uses a
    /// channel outside the comb, or two transmissions collide on a receiver.
    pub fn new(
        arch: &'a OnocArchitecture,
        traffic: &'a [Transmission],
    ) -> Result<Self, SpectrumError> {
        Self::with_model(arch, traffic, CrosstalkModel::default())
    }

    /// Builds an engine with an explicit [`CrosstalkModel`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpectrumEngine::new`].
    pub fn with_model(
        arch: &'a OnocArchitecture,
        traffic: &'a [Transmission],
        model: CrosstalkModel,
    ) -> Result<Self, SpectrumError> {
        let nodes = arch.ring().node_count();
        let nw = arch.grid().count();
        let mut engine = Self {
            arch,
            traffic,
            model,
            receivers: vec![None; 2 * nodes * nw],
        };
        for (idx, t) in traffic.iter().enumerate() {
            if t.channels().is_empty() {
                return Err(SpectrumError::NoChannels {
                    transmission: t.id(),
                });
            }
            for &ch in t.channels() {
                if ch.index() >= nw {
                    return Err(SpectrumError::ChannelOutOfRange {
                        transmission: t.id(),
                        channel: ch,
                        grid_size: nw,
                    });
                }
                let slot = engine.receiver_slot(t.path().dst(), t.path().direction(), ch);
                if let Some(prev) = engine.receivers[slot] {
                    return Err(SpectrumError::ReceiverCollision {
                        first: traffic[prev].id(),
                        second: t.id(),
                        channel: ch,
                        at: t.path().dst(),
                    });
                }
                engine.receivers[slot] = Some(idx);
            }
        }
        Ok(engine)
    }

    /// The crosstalk model in use.
    #[must_use]
    pub fn model(&self) -> CrosstalkModel {
        self.model
    }

    /// The transmissions under analysis.
    #[must_use]
    pub fn traffic(&self) -> &[Transmission] {
        self.traffic
    }

    /// Index of the receiver MR for `channel` at `node` on the waveguide of
    /// `direction` in the flat receiver map.
    fn receiver_slot(&self, node: NodeId, direction: Direction, channel: WavelengthId) -> usize {
        let nodes = self.arch.ring().node_count();
        (dir_index(direction) * nodes + node.0) * self.arch.grid().count() + channel.index()
    }

    /// State of the receiver MR for `channel` at `node` on the waveguide of
    /// `direction`, together with the owning transmission index.
    fn receiver_at(
        &self,
        node: NodeId,
        direction: Direction,
        channel: WavelengthId,
    ) -> Option<usize> {
        self.receivers[self.receiver_slot(node, direction, channel)]
    }

    /// Returns `true` if any receiver MR of `node`'s stack on the waveguide
    /// of `direction` is ON.
    fn has_on_ring(&self, node: NodeId, direction: Direction) -> bool {
        let row = self.receiver_slot(node, direction, WavelengthId(0));
        self.receivers[row..row + self.arch.grid().count()]
            .iter()
            .any(Option::is_some)
    }

    /// The MR element (channel + ON/OFF state) at stack position `channel`
    /// of the ONI at `node` on the waveguide of `direction`, under the
    /// engine's traffic.
    #[must_use]
    pub fn receiver_element(
        &self,
        node: NodeId,
        direction: Direction,
        channel: WavelengthId,
    ) -> MrElement {
        self.mr_element(node, direction, channel)
    }

    fn mr_element(&self, node: NodeId, direction: Direction, channel: WavelengthId) -> MrElement {
        let state = if self.receiver_at(node, direction, channel).is_some() {
            MrState::On
        } else {
            MrState::Off
        };
        MrElement::new(channel, state)
    }

    /// Propagation plus bending loss of one physical segment.
    fn segment_loss(&self, segment: usize) -> Decibels {
        let geo = self.arch.geometry();
        let params = self.arch.losses();
        params.propagation_per_cm * geo.segment_length(segment).to_centimeters().value()
            + params.bending_per_90deg * geo.segment_bends(segment) as f64
    }

    /// Through loss of the full (or prefix of the) receiver MR stack at
    /// `node` for a signal on `signal`, checking for fatal interception.
    ///
    /// MRs inside an ONI are ordered by channel index; `upto` limits the walk
    /// to stack positions `< upto`.
    fn stack_through_loss(
        &self,
        node: NodeId,
        direction: Direction,
        signal: WavelengthId,
        upto: usize,
        carrier: usize,
    ) -> Result<Decibels, SpectrumError> {
        let grid = self.arch.grid();
        let params = self.arch.losses();
        let mut loss = Decibels::ZERO;
        for c in 0..upto {
            let ch = WavelengthId(c);
            if ch == signal {
                if let Some(owner) = self.receiver_at(node, direction, ch) {
                    if owner != carrier {
                        return Err(SpectrumError::ChannelDroppedEnRoute {
                            transmission: self.traffic[carrier].id(),
                            channel: signal,
                            at: node,
                            intercepted_by: self.traffic[owner].id(),
                        });
                    }
                }
            }
            loss += self
                .mr_element(node, direction, ch)
                .through_loss(signal, grid, params);
        }
        Ok(loss)
    }

    /// Walks every allocated lane once along its path, snapshotting the
    /// loss at each node entry.
    ///
    /// The additions happen in the order of a per-receiver walk (segment
    /// loss, then the node's full stack summed from zero), so a snapshot
    /// equals, bit for bit, the loss such a walk reaches at that node. A
    /// stack without an ON ring loses `Lp0` per ring for every signal, so
    /// one all-OFF sum serves each such node. A stack that intercepts the
    /// lane ends its walk: later nodes read that error instead.
    fn walk_lanes(&self) -> LaneWalks {
        let grid = self.arch.grid();
        let params = self.arch.losses();
        let nw = grid.count();
        // An OFF ring's through loss does not depend on the signal.
        let all_off: Decibels = (0..nw)
            .map(|c| {
                let ch = WavelengthId(c);
                MrElement::new(ch, MrState::Off).through_loss(ch, grid, params)
            })
            .sum();
        let lane_count = self.traffic.iter().map(|t| t.channels().len()).sum();
        let mut walks = LaneWalks {
            transmissions: Vec::with_capacity(self.traffic.len()),
            lanes: Vec::with_capacity(lane_count),
            entries: Vec::new(),
        };
        let mut route: Vec<(Decibels, NodeId)> = Vec::new();
        for (t_idx, t) in self.traffic.iter().enumerate() {
            let path = t.path();
            let direction = path.direction();
            route.clear();
            route.extend(
                path.segments()
                    .zip(path.nodes().skip(1))
                    .map(|(segment, arrival)| (self.segment_loss(segment.index), arrival)),
            );
            walks.transmissions.push((walks.lanes.len(), route.len()));
            for &channel in t.channels() {
                let start = walks.entries.len();
                let mut loss = Decibels::ZERO;
                let mut intercepted = None;
                for (h, &(segment, arrival)) in route.iter().enumerate() {
                    loss += segment;
                    walks.entries.push(loss);
                    if h + 1 == route.len() {
                        break;
                    }
                    let stack = if self.has_on_ring(arrival, direction) {
                        self.stack_through_loss(arrival, direction, channel, nw, t_idx)
                    } else {
                        Ok(all_off)
                    };
                    match stack {
                        Ok(through) => loss += through,
                        Err(e) => {
                            intercepted = Some(e);
                            break;
                        }
                    }
                }
                walks.lanes.push(LaneWalk {
                    start,
                    reached: walks.entries.len() - start,
                    intercepted,
                });
            }
        }
        walks
    }

    /// Evaluates every receiver of every transmission.
    ///
    /// Reports are ordered by traffic position, then channel.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpectrumError`] encountered: a signal (or an
    /// interfering signal) intercepted before its destination.
    pub fn analyze(&self) -> Result<Vec<ReceiverReport>, SpectrumError> {
        let grid = self.arch.grid();
        let params = self.arch.losses();
        let ring = self.arch.ring();
        let power_on = self.arch.laser().power_on();
        let walks = self.walk_lanes();
        let mut reports = Vec::with_capacity(walks.lanes.len());
        for (t_idx, t) in self.traffic.iter().enumerate() {
            let dst = t.path().dst();
            let direction = t.path().direction();
            for (c_idx, &channel) in t.channels().iter().enumerate() {
                // --- Signal walk (Eq. 6) ------------------------------------
                let mut loss = walks.entry(t_idx, c_idx, walks.hops(t_idx))?;
                // Prefix of the destination stack, then the intended drop.
                loss += self.stack_through_loss(dst, direction, channel, channel.index(), t_idx)?;
                loss += self
                    .mr_element(dst, direction, channel)
                    .drop_loss(channel, grid, params);
                let signal = (power_on + loss).to_milliwatts();

                // --- Crosstalk accumulation (Eq. 7) -------------------------
                let mut crosstalk = Milliwatts::ZERO;
                let mut interferers = 0usize;
                let victim_mr = self.mr_element(dst, direction, channel);
                for (o_idx, other) in self.traffic.iter().enumerate() {
                    if other.path().direction() != direction {
                        continue;
                    }
                    // The victim's ONI is the `hop`-th node of the other
                    // path; the source (hop 0) has no receiver in its way.
                    let hop = ring.hops(other.path().src(), dst, direction);
                    if hop == 0 || hop > walks.hops(o_idx) {
                        continue;
                    }
                    for (oc_idx, &ch) in other.channels().iter().enumerate() {
                        if o_idx == t_idx && ch == channel {
                            continue;
                        }
                        let mut o_loss = walks.entry(o_idx, oc_idx, hop)?;
                        if self.model == CrosstalkModel::Elementwise {
                            // Continue through the victim ONI's stack up to
                            // the victim MR (this applies Kp1 if `ch` was
                            // dropped at an earlier stack position of the
                            // same ONI).
                            o_loss += self.stack_through_loss(
                                dst,
                                direction,
                                ch,
                                channel.index(),
                                o_idx,
                            )?;
                        }
                        // Lorentzian leakage into the victim photodetector.
                        o_loss += victim_mr.drop_loss(ch, grid, params);
                        crosstalk += (power_on + o_loss).to_milliwatts();
                        interferers += 1;
                    }
                }

                let noise = crosstalk + self.arch.laser().power_off().to_milliwatts();
                reports.push(ReceiverReport {
                    transmission: t.id(),
                    channel,
                    signal,
                    crosstalk,
                    noise,
                    path_loss: loss,
                    interferers,
                });
            }
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoc_photonics::BerConvention;
    use proptest::prelude::*;

    /// The per-receiver walk `analyze` replaced, kept as its oracle: every
    /// receiver re-walks its own path and, for each interfering lane, that
    /// lane's path up to the victim's ONI.
    impl SpectrumEngine<'_> {
        /// Loss accumulated by transmission `t_idx`'s wavelength `channel`
        /// from its laser up to the *entry* of `until` (segments and full
        /// intermediate stacks, nothing of `until`'s own stack).
        fn loss_to_node_entry(
            &self,
            t_idx: usize,
            channel: WavelengthId,
            until: NodeId,
        ) -> Result<Decibels, SpectrumError> {
            let t = &self.traffic[t_idx];
            let path = t.path();
            let nw = self.arch.grid().count();
            let mut loss = Decibels::ZERO;
            let nodes: Vec<NodeId> = path.nodes().collect();
            for (segment, arrival) in path.segments().zip(nodes.iter().skip(1)) {
                loss += self.segment_loss(segment.index);
                if *arrival == until {
                    return Ok(loss);
                }
                loss += self.stack_through_loss(*arrival, path.direction(), channel, nw, t_idx)?;
            }
            panic!(
                "loss_to_node_entry: {until} is not downstream of {} on {path}",
                path.src()
            );
        }

        /// Evaluates one receiver: transmission index `t_idx`, channel
        /// `channel`.
        fn analyze_receiver(
            &self,
            t_idx: usize,
            channel: WavelengthId,
        ) -> Result<ReceiverReport, SpectrumError> {
            let t = &self.traffic[t_idx];
            let grid = self.arch.grid();
            let params = self.arch.losses();
            let dst = t.path().dst();
            let direction = t.path().direction();

            let mut loss = self.loss_to_node_entry(t_idx, channel, dst)?;
            loss += self.stack_through_loss(dst, direction, channel, channel.index(), t_idx)?;
            loss += self
                .mr_element(dst, direction, channel)
                .drop_loss(channel, grid, params);
            let signal = (self.arch.laser().power_on() + loss).to_milliwatts();

            let mut crosstalk = Milliwatts::ZERO;
            let mut interferers = 0usize;
            let victim_mr = self.mr_element(dst, direction, channel);
            for (o_idx, other) in self.traffic.iter().enumerate() {
                if other.path().direction() != direction || !other.path().reaches_receiver(dst) {
                    continue;
                }
                for &ch in other.channels() {
                    if o_idx == t_idx && ch == channel {
                        continue;
                    }
                    let mut o_loss = self.loss_to_node_entry(o_idx, ch, dst)?;
                    if self.model == CrosstalkModel::Elementwise {
                        o_loss +=
                            self.stack_through_loss(dst, direction, ch, channel.index(), o_idx)?;
                    }
                    o_loss += victim_mr.drop_loss(ch, grid, params);
                    crosstalk += (self.arch.laser().power_on() + o_loss).to_milliwatts();
                    interferers += 1;
                }
            }

            let noise = crosstalk + self.arch.laser().power_off().to_milliwatts();
            Ok(ReceiverReport {
                transmission: t.id(),
                channel,
                signal,
                crosstalk,
                noise,
                path_loss: loss,
                interferers,
            })
        }

        fn analyze_per_receiver(&self) -> Result<Vec<ReceiverReport>, SpectrumError> {
            let mut reports = Vec::new();
            for (t_idx, t) in self.traffic.iter().enumerate() {
                for &ch in t.channels() {
                    reports.push(self.analyze_receiver(t_idx, ch)?);
                }
            }
            Ok(reports)
        }
    }

    /// A report with every float replaced by its bit pattern, so `==` is
    /// bit-for-bit equality.
    fn report_bits(r: &ReceiverReport) -> (usize, WavelengthId, [u64; 4], usize) {
        let floats = [
            r.signal.value(),
            r.crosstalk.value(),
            r.noise.value(),
            r.path_loss.value(),
        ];
        (
            r.transmission,
            r.channel,
            floats.map(f64::to_bits),
            r.interferers,
        )
    }

    /// Random traffic on a `nodes`-node ring with an `nw`-channel comb:
    /// `count` transmissions with random direction and endpoints, each on a
    /// random set of one to four channels drawn from a narrow window of the
    /// comb, so interceptions are common.
    fn random_traffic(
        a: &OnocArchitecture,
        count: usize,
        next: &mut impl FnMut(usize) -> usize,
    ) -> Vec<Transmission> {
        let nodes = a.ring().node_count();
        let nw = a.grid().count();
        let window = nw.min(1 + next(6));
        let base = next(nw - window + 1);
        (0..count)
            .map(|id| {
                let src = next(nodes);
                let dst = (src + 1 + next(nodes - 1)) % nodes;
                let direction = Direction::BOTH[next(2)];
                let channels = (0..1 + next(4))
                    .map(|_| WavelengthId(base + next(window)))
                    .collect();
                Transmission::new(id, a.route(NodeId(src), NodeId(dst), direction), channels)
            })
            .collect()
    }

    proptest! {
        /// One walk per lane reproduces the per-receiver walk bit for bit,
        /// and fails with the same first error, under both crosstalk
        /// models.
        #[test]
        fn lane_walks_match_the_per_receiver_walk(
            nodes in 2usize..33,
            nw in 1usize..33,
            count in 1usize..9,
            seed in 0u64..u64::MAX,
        ) {
            let (rows, cols) = OnocArchitecture::near_square_grid(nodes);
            let a = OnocArchitecture::builder()
                .grid_dimensions(rows, cols)
                .wavelengths(nw)
                .build()
                .unwrap();
            let mut state = seed | 1;
            let mut next = |bound: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % bound as u64) as usize
            };
            // Several traffic sets per case: collisions fail at
            // construction, before either walk runs.
            for _ in 0..8 {
                let traffic = random_traffic(&a, count, &mut next);
                for model in [CrosstalkModel::PaperFirstOrder, CrosstalkModel::Elementwise] {
                    let Ok(engine) = SpectrumEngine::with_model(&a, &traffic, model) else {
                        continue;
                    };
                    let walked = engine.analyze().map(|r| r.iter().map(report_bits).collect::<Vec<_>>());
                    let oracle = engine
                        .analyze_per_receiver()
                        .map(|r| r.iter().map(report_bits).collect::<Vec<_>>());
                    prop_assert_eq!(walked, oracle, "{} on {:?}", model, traffic);
                }
            }
        }
    }

    fn arch(nw: usize) -> OnocArchitecture {
        OnocArchitecture::paper_architecture(nw)
    }

    fn ch(a: &OnocArchitecture, i: usize) -> WavelengthId {
        a.grid().channel(i).expect("channel in range")
    }

    #[test]
    fn lone_transmission_has_no_crosstalk() {
        let a = arch(8);
        let traffic = vec![Transmission::new(
            7,
            a.route(NodeId(0), NodeId(3), Direction::Clockwise),
            vec![ch(&a, 2)],
        )];
        let engine = SpectrumEngine::new(&a, &traffic).unwrap();
        let r = engine.analyze().unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].transmission, 7);
        assert_eq!(r[0].interferers, 0);
        assert_eq!(r[0].crosstalk, Milliwatts::ZERO);
        // Noise floor is exactly the laser zero level.
        assert!((r[0].noise.value() - 1e-3).abs() < 1e-12);
        // Loss is strictly negative but small (a few dB at most here).
        assert!(r[0].path_loss.value() < 0.0 && r[0].path_loss.value() > -3.0);
    }

    #[test]
    fn signal_walk_matches_hand_computation() {
        // One hop 0→1 clockwise, single channel 0, 8-λ comb.
        // Loss = prop(1.5 mm) + 0 bends + dst stack prefix (none, channel 0)
        //        + own drop (Lp1).
        let a = arch(8);
        let traffic = vec![Transmission::new(
            0,
            a.route(NodeId(0), NodeId(1), Direction::Clockwise),
            vec![ch(&a, 0)],
        )];
        let engine = SpectrumEngine::new(&a, &traffic).unwrap();
        let r = engine.analyze().unwrap();
        let expected = -0.274 * 0.15 - 0.5;
        assert!(
            (r[0].path_loss.value() - expected).abs() < 1e-9,
            "loss = {}, expected {expected}",
            r[0].path_loss
        );
    }

    #[test]
    fn off_state_mrs_of_intermediate_nodes_attenuate() {
        // 0→2 passes the full 8-MR stack of node 1: 8 × Lp0 extra compared
        // with two single-hop transmissions.
        let a = arch(8);
        let direct = vec![Transmission::new(
            0,
            a.route(NodeId(0), NodeId(2), Direction::Clockwise),
            vec![ch(&a, 0)],
        )];
        let engine = SpectrumEngine::new(&a, &direct).unwrap();
        let r = engine.analyze().unwrap();
        let expected = -0.274 * 0.3 - 8.0 * 0.005 - 0.5;
        assert!(
            (r[0].path_loss.value() - expected).abs() < 1e-9,
            "loss = {}",
            r[0].path_loss
        );
    }

    #[test]
    fn sibling_wavelengths_interfere() {
        let a = arch(8);
        let traffic = vec![Transmission::new(
            0,
            a.route(NodeId(0), NodeId(3), Direction::Clockwise),
            vec![ch(&a, 3), ch(&a, 4)],
        )];
        let engine = SpectrumEngine::new(&a, &traffic).unwrap();
        let r = engine.analyze().unwrap();
        assert_eq!(r.len(), 2);
        for report in &r {
            assert_eq!(report.interferers, 1);
            assert!(report.crosstalk.value() > 0.0);
        }
    }

    #[test]
    fn adjacent_channels_interfere_more_than_distant_ones() {
        let a = arch(8);
        let make = |i: usize| {
            vec![Transmission::new(
                0,
                a.route(NodeId(0), NodeId(3), Direction::Clockwise),
                vec![ch(&a, 0), ch(&a, i)],
            )]
        };
        let near_traffic = make(1);
        let near = SpectrumEngine::new(&a, &near_traffic)
            .unwrap()
            .analyze()
            .unwrap();
        let far_traffic = make(7);
        let far = SpectrumEngine::new(&a, &far_traffic)
            .unwrap()
            .analyze()
            .unwrap();
        assert!(near[0].crosstalk > far[0].crosstalk);
    }

    #[test]
    fn pass_through_traffic_interferes_at_the_victim() {
        // t0: 0→3 on λ1; t1: 1→3 on λ2 — both arrive at node 3.
        let a = arch(8);
        let traffic = vec![
            Transmission::new(
                0,
                a.route(NodeId(0), NodeId(3), Direction::Clockwise),
                vec![ch(&a, 0)],
            ),
            Transmission::new(
                1,
                a.route(NodeId(1), NodeId(3), Direction::Clockwise),
                vec![ch(&a, 1)],
            ),
        ];
        let engine = SpectrumEngine::new(&a, &traffic).unwrap();
        let r = engine.analyze().unwrap();
        assert!(r.iter().all(|rep| rep.interferers == 1));
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let a = arch(8);
        let traffic = vec![
            Transmission::new(
                0,
                a.route(NodeId(0), NodeId(2), Direction::Clockwise),
                vec![ch(&a, 0)],
            ),
            Transmission::new(
                1,
                a.route(NodeId(8), NodeId(10), Direction::Clockwise),
                vec![ch(&a, 0)],
            ),
        ];
        let engine = SpectrumEngine::new(&a, &traffic).unwrap();
        let r = engine.analyze().unwrap();
        assert!(r.iter().all(|rep| rep.interferers == 0));
    }

    #[test]
    fn opposite_waveguides_are_isolated() {
        let a = arch(8);
        let traffic = vec![
            Transmission::new(
                0,
                a.route(NodeId(0), NodeId(3), Direction::Clockwise),
                vec![ch(&a, 0)],
            ),
            Transmission::new(
                1,
                a.route(NodeId(5), NodeId(2), Direction::CounterClockwise),
                vec![ch(&a, 1)],
            ),
        ];
        let engine = SpectrumEngine::new(&a, &traffic).unwrap();
        let r = engine.analyze().unwrap();
        assert!(r.iter().all(|rep| rep.interferers == 0));
    }

    #[test]
    fn interception_is_detected() {
        // t0 carries λ1 from 0 to 5; t1 receives λ1 at node 2 (en route).
        let a = arch(8);
        let traffic = vec![
            Transmission::new(
                0,
                a.route(NodeId(0), NodeId(5), Direction::Clockwise),
                vec![ch(&a, 0)],
            ),
            Transmission::new(
                1,
                a.route(NodeId(1), NodeId(2), Direction::Clockwise),
                vec![ch(&a, 0)],
            ),
        ];
        let engine = SpectrumEngine::new(&a, &traffic).unwrap();
        let err = engine.analyze().unwrap_err();
        assert!(
            matches!(
                err,
                SpectrumError::ChannelDroppedEnRoute {
                    transmission: 0,
                    at: NodeId(2),
                    ..
                }
            ),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn receiver_collision_is_detected_at_construction() {
        let a = arch(8);
        let traffic = vec![
            Transmission::new(
                0,
                a.route(NodeId(0), NodeId(3), Direction::Clockwise),
                vec![ch(&a, 0)],
            ),
            Transmission::new(
                1,
                a.route(NodeId(1), NodeId(3), Direction::Clockwise),
                vec![ch(&a, 0)],
            ),
        ];
        let err = SpectrumEngine::new(&a, &traffic).unwrap_err();
        assert!(matches!(err, SpectrumError::ReceiverCollision { .. }));
    }

    #[test]
    fn empty_channel_set_rejected() {
        let a = arch(8);
        let traffic = vec![Transmission::new(
            0,
            a.route(NodeId(0), NodeId(3), Direction::Clockwise),
            vec![],
        )];
        assert!(matches!(
            SpectrumEngine::new(&a, &traffic).unwrap_err(),
            SpectrumError::NoChannels { transmission: 0 }
        ));
    }

    #[test]
    fn out_of_range_channel_rejected() {
        let a = arch(4);
        let traffic = vec![Transmission::new(
            0,
            a.route(NodeId(0), NodeId(3), Direction::Clockwise),
            vec![WavelengthId(4)],
        )];
        assert!(matches!(
            SpectrumEngine::new(&a, &traffic).unwrap_err(),
            SpectrumError::ChannelOutOfRange { .. }
        ));
    }

    #[test]
    fn elementwise_model_never_reports_more_crosstalk() {
        let a = arch(8);
        let traffic = vec![Transmission::new(
            0,
            a.route(NodeId(0), NodeId(3), Direction::Clockwise),
            vec![ch(&a, 1), ch(&a, 2), ch(&a, 5)],
        )];
        let paper = SpectrumEngine::with_model(&a, &traffic, CrosstalkModel::PaperFirstOrder)
            .unwrap()
            .analyze()
            .unwrap();
        let element = SpectrumEngine::with_model(&a, &traffic, CrosstalkModel::Elementwise)
            .unwrap()
            .analyze()
            .unwrap();
        for (p, e) in paper.iter().zip(&element) {
            assert!(
                e.crosstalk <= p.crosstalk,
                "paper {p:?} vs elementwise {e:?}"
            );
        }
    }

    #[test]
    fn paper_snr_lands_in_reported_ber_window() {
        // A configuration representative of the paper's experiments should
        // produce log10(BER) in roughly the window of Figs. 6(b)/7.
        let a = arch(8);
        let traffic = vec![
            Transmission::new(
                0,
                a.route(NodeId(0), NodeId(3), Direction::Clockwise),
                vec![ch(&a, 0), ch(&a, 1), ch(&a, 2)],
            ),
            Transmission::new(
                1,
                a.route(NodeId(1), NodeId(3), Direction::Clockwise),
                vec![ch(&a, 4), ch(&a, 5)],
            ),
        ];
        let engine = SpectrumEngine::new(&a, &traffic).unwrap();
        for r in engine.analyze().unwrap() {
            let log_ber = r.signal_noise().log10_ber(BerConvention::PaperDb);
            assert!(
                (-4.2..=-2.5).contains(&log_ber),
                "log BER {log_ber} outside the plausible paper window"
            );
        }
    }
}
