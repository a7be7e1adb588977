//! Per-wavelength power walk: signal (Eq. 6), crosstalk (Eq. 7) and path loss.

use onoc_photonics::{MrElement, MrState, SignalNoise, WavelengthId};
use onoc_units::{DbMilliwatts, Decibels, Milliwatts};

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
    /// kept as an ablation that measures what the first-order model leaves
    /// out.
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
/// The engine walks every allocated wavelength along its path, element by
/// element — waveguide segments (propagation + bending loss), intermediate
/// ONI stacks (OFF/ON MR through losses, Eqs. 2 and 4) and the destination
/// stack (drop loss, Eq. 5) — and accumulates the crosstalk every other
/// co-propagating wavelength leaks into each photodetector.
/// [`SpectrumEngine::analyze`] runs the walk of a [`SpectrumWalker`] built
/// for the engine's routes.
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

/// Propagation plus bending loss of one physical segment.
fn segment_loss(arch: &OnocArchitecture, segment: usize) -> Decibels {
    let geo = arch.geometry();
    let params = arch.losses();
    params.propagation_per_cm * geo.segment_length(segment).to_centimeters().value()
        + params.bending_per_90deg * geo.segment_bends(segment) as f64
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
        let state = if self.receivers[self.receiver_slot(node, direction, channel)].is_some() {
            MrState::On
        } else {
            MrState::Off
        };
        MrElement::new(channel, state)
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
        let mut walker = SpectrumWalker::new(
            self.arch,
            self.traffic.iter().map(|t| (t.id(), *t.path())),
            self.model,
        );
        let lanes = self
            .traffic
            .iter()
            .enumerate()
            .flat_map(|(route, t)| t.channels().iter().map(move |&ch| (route, ch)));
        walker.analyze(lanes).map(<[ReceiverReport]>::to_vec)
    }
}

/// The spectrum walk over one fixed set of routes, reusable across lane
/// assignments: what [`SpectrumEngine::analyze`] runs, and what a caller
/// that scores many allocations on the same routes keeps.
///
/// [`SpectrumWalker::new`] builds what does not depend on the lanes: the
/// drop loss of the ON ring of every receiving channel for every signal
/// channel (`Lp1` on the diagonal, the Lorentzian leakage elsewhere), each
/// hop's segment loss and receiving stack, and the hop at which every
/// route's destination sits on every other route.
/// [`SpectrumWalker::analyze`] loads one assignment of lanes into ON masks,
/// one per receiving (direction, node) stack, and reuses the buffers of the
/// previous call.
///
/// Every loss makes the additions of the element-by-element walk, in its
/// order: a stack adds its rings from zero in channel order, a lane adds a
/// segment and then the node's whole stack at every hop, and crosstalk adds
/// interferers in route order, then channel order.
///
/// # Examples
///
/// ```
/// use onoc_photonics::WavelengthId;
/// use onoc_topology::{CrosstalkModel, Direction, NodeId, OnocArchitecture, SpectrumWalker};
///
/// let arch = OnocArchitecture::paper_architecture(8);
/// let routes = [
///     (0, arch.route(NodeId(0), NodeId(3), Direction::Clockwise)),
///     (1, arch.route(NodeId(1), NodeId(3), Direction::Clockwise)),
/// ];
/// let mut walker = SpectrumWalker::new(&arch, routes, CrosstalkModel::default());
/// // Route 0 on λ1 and λ2, route 1 on λ3.
/// let reports = walker.analyze([(0, WavelengthId(0)), (0, WavelengthId(1)), (1, WavelengthId(2))])?;
/// assert_eq!(reports.len(), 3);
/// assert!(reports.iter().all(|r| r.interferers == 2));
/// # Ok::<(), onoc_topology::SpectrumError>(())
/// ```
#[derive(Debug)]
pub struct SpectrumWalker {
    model: CrosstalkModel,
    nw: usize,
    /// `u64` words per channel mask.
    words: usize,
    power_on: DbMilliwatts,
    /// The laser's zero level, which every receiver adds to its noise.
    power_off: Milliwatts,
    mr_on: Decibels,
    mr_off: Decibels,
    crosstalk_on: Decibels,
    /// Through loss of a stack whose rings are all OFF.
    all_off: Decibels,
    /// `leakage[receiver * nw + signal]`: what a signal on channel
    /// `signal` loses into the drop port of the ON ring resonant on
    /// `receiver`.
    leakage: Vec<Decibels>,
    routes: Vec<Route>,
    /// The hops of every route, route after route.
    hops: Vec<Hop>,
    /// `reach[o * routes + t]`: the hop of route `t`'s destination on
    /// route `o`, or 0 when `o` does not carry light to it (the other
    /// waveguide, or `t`'s destination is `o`'s source or lies past its
    /// end).
    reach: Vec<usize>,
    /// The node of every stack a route ends at.
    stacks: Vec<NodeId>,
    // What follows holds one assignment; `analyze` refills it.
    /// Lane masks, `words` per route.
    lanes: Vec<u64>,
    /// ON masks, `words` per stack.
    on: Vec<u64>,
    /// Per stack, `nw + 1` sums: `k` holds the through loss of its first
    /// `k` rings for a signal none of them drops.
    prefix: Vec<Decibels>,
    /// Per hop (the layout of `hops`): the loss from the laser to the
    /// entry of the hop's node, shared by every lane of the route that
    /// reaches that node.
    entries: Vec<Decibels>,
    /// Every lane, route after route, in channel order.
    lane_walks: Vec<LaneWalk>,
    /// Per route, its first lane in `lane_walks`; one more entry closes
    /// the last route.
    first_lane: Vec<usize>,
    reports: Vec<ReceiverReport>,
}

/// One route of a [`SpectrumWalker`].
#[derive(Debug)]
struct Route {
    /// The caller's id, used in reports and errors.
    id: usize,
    /// Its hops in [`SpectrumWalker::hops`].
    hops: core::ops::Range<usize>,
    /// The stack at its destination.
    stack: usize,
}

/// One hop of a route: the segment into a node, and that node's stack.
#[derive(Debug, Clone, Copy)]
struct Hop {
    segment: Decibels,
    /// The node's receiving stack; `None` when no route ends at the node,
    /// so that all its rings are OFF.
    stack: Option<usize>,
}

/// One allocated lane.
#[derive(Debug)]
struct LaneWalk {
    channel: usize,
    /// Node entries the lane reaches: its route's hop count, or the hop
    /// of the node whose stack intercepts it.
    reached: usize,
    /// The interception that stops the lane early.
    intercepted: Option<SpectrumError>,
}

/// Is channel `c` set in `mask`?
fn has(mask: &[u64], c: usize) -> bool {
    mask[c / 64] >> (c % 64) & 1 == 1
}

/// The channels set in `mask`, ascending.
fn channels(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(word, &bits)| {
        let mut rest = bits;
        core::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                word * 64 + bit
            })
        })
    })
}

impl SpectrumWalker {
    /// Builds the walker for `routes`, each given with the id its reports
    /// and errors carry, under `model`.
    ///
    /// This reads the Lorentzian of every pair of comb channels (`N_W²`
    /// values): build one walker per route set and reuse it.
    #[must_use]
    pub fn new(
        arch: &OnocArchitecture,
        routes: impl IntoIterator<Item = (usize, RingPath)>,
        model: CrosstalkModel,
    ) -> Self {
        let grid = arch.grid();
        let params = arch.losses();
        let ring = arch.ring();
        let nodes = ring.node_count();
        let nw = grid.count();
        let words = nw.div_ceil(64);
        let leakage = (0..nw)
            .flat_map(|receiver| {
                let mr = MrElement::new(WavelengthId(receiver), MrState::On);
                (0..nw).map(move |signal| mr.drop_loss(WavelengthId(signal), grid, params))
            })
            .collect();
        let mut all_off = Decibels::ZERO;
        for _ in 0..nw {
            all_off += params.mr_off;
        }

        let paths: Vec<(usize, RingPath)> = routes.into_iter().collect();
        let slot = |direction: Direction, node: NodeId| dir_index(direction) * nodes + node.0;
        let mut stack_at: Vec<Option<usize>> = vec![None; 2 * nodes];
        let mut stacks = Vec::new();
        for (_, path) in &paths {
            let at = &mut stack_at[slot(path.direction(), path.dst())];
            if at.is_none() {
                *at = Some(stacks.len());
                stacks.push(path.dst());
            }
        }
        let mut hops = Vec::new();
        let mut routes = Vec::with_capacity(paths.len());
        for &(id, path) in &paths {
            let first = hops.len();
            for (segment, node) in path.segments().zip(path.nodes().skip(1)) {
                hops.push(Hop {
                    segment: segment_loss(arch, segment.index),
                    stack: stack_at[slot(path.direction(), node)],
                });
            }
            routes.push(Route {
                id,
                hops: first..hops.len(),
                stack: stack_at[slot(path.direction(), path.dst())]
                    .expect("every destination has a stack"),
            });
        }
        let reach = paths
            .iter()
            .flat_map(|(_, other)| {
                paths.iter().map(move |(_, path)| {
                    if other.direction() != path.direction() {
                        return 0;
                    }
                    let hop = ring.hops(other.src(), path.dst(), path.direction());
                    if hop > other.hops() { 0 } else { hop }
                })
            })
            .collect();

        Self {
            model,
            nw,
            words,
            power_on: arch.laser().power_on(),
            power_off: arch.laser().power_off().to_milliwatts(),
            mr_on: params.mr_on,
            mr_off: params.mr_off,
            crosstalk_on: params.crosstalk_on,
            all_off,
            leakage,
            lanes: vec![0; routes.len() * words],
            on: vec![0; stacks.len() * words],
            prefix: vec![Decibels::ZERO; stacks.len() * (nw + 1)],
            entries: vec![Decibels::ZERO; hops.len()],
            lane_walks: Vec::new(),
            first_lane: vec![0; routes.len() + 1],
            reports: Vec::new(),
            routes,
            hops,
            reach,
            stacks,
        }
    }

    /// Evaluates every receiver of one lane assignment: `lanes` gives
    /// `(route, channel)` pairs, routes numbered in the order
    /// [`SpectrumWalker::new`] received them. A repeated pair counts once.
    ///
    /// Reports are ordered by route, then channel, as
    /// [`SpectrumEngine::analyze`] orders them; the slice lives until the
    /// next call.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpectrumError`] in the order of
    /// [`SpectrumEngine::with_model`] and then [`SpectrumEngine::analyze`]:
    /// a route without lanes, two routes ending at one stack on a common
    /// channel, or a signal (or an interfering signal) intercepted before
    /// its destination.
    ///
    /// # Panics
    ///
    /// Panics if a route index is out of range or a channel lies outside
    /// the comb.
    pub fn analyze(
        &mut self,
        lanes: impl IntoIterator<Item = (usize, WavelengthId)>,
    ) -> Result<&[ReceiverReport], SpectrumError> {
        self.load(lanes)?;
        self.walk_routes();
        self.walk_receivers()?;
        Ok(&self.reports)
    }

    /// The route that receives `channel` at `stack`.
    fn owner(&self, stack: usize, channel: usize) -> usize {
        let words = self.words;
        let route = (0..self.routes.len())
            .find(|&r| {
                self.routes[r].stack == stack
                    && has(&self.lanes[r * words..(r + 1) * words], channel)
            })
            .expect("an ON ring belongs to a route ending at its stack");
        self.routes[route].id
    }

    /// Fills the lane and ON masks, the lane list and every stack's prefix
    /// sums, checking what [`SpectrumEngine::with_model`] checks.
    fn load(
        &mut self,
        lanes: impl IntoIterator<Item = (usize, WavelengthId)>,
    ) -> Result<(), SpectrumError> {
        let (nw, words) = (self.nw, self.words);
        self.lanes.fill(0);
        for (route, channel) in lanes {
            let c = channel.index();
            assert!(c < nw, "{channel} lies outside the {nw}-channel comb");
            self.lanes[route * words + c / 64] |= 1 << (c % 64);
        }
        self.on.fill(0);
        self.lane_walks.clear();
        for (r, route) in self.routes.iter().enumerate() {
            self.first_lane[r] = self.lane_walks.len();
            let mask = &self.lanes[r * words..(r + 1) * words];
            if mask.iter().all(|&w| w == 0) {
                return Err(SpectrumError::NoChannels {
                    transmission: route.id,
                });
            }
            let on = &mut self.on[route.stack * words..(route.stack + 1) * words];
            let clash = on.iter().zip(mask).enumerate().find_map(|(word, (a, b))| {
                let common = a & b;
                (common != 0).then(|| word * 64 + common.trailing_zeros() as usize)
            });
            if let Some(c) = clash {
                return Err(SpectrumError::ReceiverCollision {
                    first: self.owner(route.stack, c),
                    second: route.id,
                    channel: WavelengthId(c),
                    at: self.stacks[route.stack],
                });
            }
            for (on, lane) in on.iter_mut().zip(mask) {
                *on |= lane;
            }
            self.lane_walks
                .extend(channels(mask).map(|channel| LaneWalk {
                    channel,
                    reached: 0,
                    intercepted: None,
                }));
        }
        self.first_lane[self.routes.len()] = self.lane_walks.len();
        for (stack, prefix) in self.prefix.chunks_exact_mut(nw + 1).enumerate() {
            let on = &self.on[stack * words..(stack + 1) * words];
            let mut loss = Decibels::ZERO;
            prefix[0] = loss;
            for c in 0..nw {
                loss += if has(on, c) { self.mr_on } else { self.mr_off };
                prefix[c + 1] = loss;
            }
        }
        Ok(())
    }

    /// Walks every route once, recording the loss at each node entry, and
    /// finds where each lane is intercepted.
    ///
    /// Every lane of a route that a stack does not intercept crosses it
    /// with the same rings ON, so all of them reach each node with the
    /// same loss: the sum of segment losses and full-stack losses up to it.
    fn walk_routes(&mut self) {
        let (nw, words) = (self.nw, self.words);
        for r in 0..self.routes.len() {
            let route = &self.routes[r];
            let hops = &self.hops[route.hops.clone()];
            let mut loss = Decibels::ZERO;
            for (h, hop) in hops.iter().enumerate() {
                loss += hop.segment;
                self.entries[route.hops.start + h] = loss;
                if h + 1 == hops.len() {
                    break;
                }
                loss += match hop.stack {
                    Some(stack) => self.prefix[stack * (nw + 1) + nw],
                    None => self.all_off,
                };
            }
            for lane in self.first_lane[r]..self.first_lane[r + 1] {
                let channel = self.lane_walks[lane].channel;
                let intercept = hops[..hops.len() - 1]
                    .iter()
                    .enumerate()
                    .find_map(|(h, hop)| {
                        let stack = hop.stack?;
                        has(&self.on[stack * words..(stack + 1) * words], channel)
                            .then_some((h + 1, stack))
                    });
                let walk = match intercept {
                    Some((reached, stack)) => LaneWalk {
                        channel,
                        reached,
                        intercepted: Some(SpectrumError::ChannelDroppedEnRoute {
                            transmission: route.id,
                            channel: WavelengthId(channel),
                            at: self.stacks[stack],
                            intercepted_by: self.owner(stack, channel),
                        }),
                    },
                    None => LaneWalk {
                        channel,
                        reached: hops.len(),
                        intercepted: None,
                    },
                };
                self.lane_walks[lane] = walk;
            }
        }
    }

    /// The loss of `lane` of route `r` at the entry of the route's `hop`-th
    /// node, or the interception that drops the lane before that node.
    fn entry(&self, r: usize, lane: usize, hop: usize) -> Result<Decibels, SpectrumError> {
        let walk = &self.lane_walks[lane];
        if hop <= walk.reached {
            Ok(self.entries[self.routes[r].hops.start + hop - 1])
        } else {
            Err(walk
                .intercepted
                .clone()
                .expect("a walk stops short only at an interception"))
        }
    }

    /// Through loss of the first `upto` rings of `stack` for a lane of
    /// route `o` on `channel` ([`CrosstalkModel::Elementwise`]): a ring that
    /// drops the channel leaves its `Kp1` residue when it is the lane's own
    /// receiver, and intercepts the lane otherwise.
    fn stack_prefix(
        &self,
        stack: usize,
        upto: usize,
        o: usize,
        channel: usize,
    ) -> Result<Decibels, SpectrumError> {
        let nw = self.nw;
        let on = &self.on[stack * self.words..(stack + 1) * self.words];
        let prefix = &self.prefix[stack * (nw + 1)..(stack + 1) * (nw + 1)];
        if channel >= upto || !has(on, channel) {
            return Ok(prefix[upto]);
        }
        if self.routes[o].stack != stack {
            return Err(SpectrumError::ChannelDroppedEnRoute {
                transmission: self.routes[o].id,
                channel: WavelengthId(channel),
                at: self.stacks[stack],
                intercepted_by: self.owner(stack, channel),
            });
        }
        let mut loss = prefix[channel] + self.crosstalk_on;
        for c in channel + 1..upto {
            loss += if has(on, c) { self.mr_on } else { self.mr_off };
        }
        Ok(loss)
    }

    /// Evaluates every receiver into `reports` (Eqs. 6–8), keeping the
    /// buffer's capacity whatever the outcome.
    fn walk_receivers(&mut self) -> Result<(), SpectrumError> {
        let mut reports = core::mem::take(&mut self.reports);
        reports.clear();
        let outcome = self.receivers_into(&mut reports);
        self.reports = reports;
        outcome
    }

    fn receivers_into(&self, reports: &mut Vec<ReceiverReport>) -> Result<(), SpectrumError> {
        let nw = self.nw;
        let count = self.routes.len();
        for (t, route) in self.routes.iter().enumerate() {
            let prefix = &self.prefix[route.stack * (nw + 1)..(route.stack + 1) * (nw + 1)];
            for lane in self.first_lane[t]..self.first_lane[t + 1] {
                let channel = self.lane_walks[lane].channel;
                let leakage = &self.leakage[channel * nw..(channel + 1) * nw];
                // --- Signal walk (Eq. 6) ------------------------------------
                let mut loss = self.entry(t, lane, route.hops.len())?;
                // Prefix of the destination stack, then the intended drop.
                loss += prefix[channel];
                loss += leakage[channel];
                let signal = (self.power_on + loss).to_milliwatts();

                // --- Crosstalk accumulation (Eq. 7) -------------------------
                let mut crosstalk = Milliwatts::ZERO;
                let mut interferers = 0usize;
                for o in 0..count {
                    let hop = self.reach[o * count + t];
                    if hop == 0 {
                        continue;
                    }
                    for o_lane in self.first_lane[o]..self.first_lane[o + 1] {
                        let ch = self.lane_walks[o_lane].channel;
                        if o == t && ch == channel {
                            continue;
                        }
                        let mut o_loss = self.entry(o, o_lane, hop)?;
                        if self.model == CrosstalkModel::Elementwise {
                            // Continue through the victim ONI's stack up to
                            // the victim MR.
                            o_loss += self.stack_prefix(route.stack, channel, o, ch)?;
                        }
                        // Lorentzian leakage into the victim photodetector.
                        o_loss += leakage[ch];
                        crosstalk += (self.power_on + o_loss).to_milliwatts();
                        interferers += 1;
                    }
                }

                reports.push(ReceiverReport {
                    transmission: route.id,
                    channel: WavelengthId(channel),
                    signal,
                    crosstalk,
                    noise: crosstalk + self.power_off,
                    path_loss: loss,
                    interferers,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoc_photonics::BerConvention;
    use proptest::prelude::*;

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

    /// Random routes on a `nodes`-node ring: `count` of them with random
    /// direction and endpoints.
    fn random_routes(
        a: &OnocArchitecture,
        count: usize,
        next: &mut impl FnMut(usize) -> usize,
    ) -> Vec<RingPath> {
        let nodes = a.ring().node_count();
        (0..count)
            .map(|_| {
                let src = next(nodes);
                let dst = (src + 1 + next(nodes - 1)) % nodes;
                a.route(NodeId(src), NodeId(dst), Direction::BOTH[next(2)])
            })
            .collect()
    }

    /// Random traffic over `routes` with an `nw`-channel comb: each route
    /// on a random set of channels drawn from a narrow window of the comb,
    /// so that interceptions are common; one route in 16 gets none.
    fn random_lanes(
        routes: &[RingPath],
        nw: usize,
        next: &mut impl FnMut(usize) -> usize,
    ) -> Vec<Transmission> {
        let window = nw.min(1 + next(6));
        let base = next(nw - window + 1);
        routes
            .iter()
            .enumerate()
            .map(|(id, &path)| {
                let lanes = if next(16) == 0 { 0 } else { 1 + next(4) };
                let channels = (0..lanes)
                    .map(|_| WavelengthId(base + next(window)))
                    .collect();
                Transmission::new(id, path, channels)
            })
            .collect()
    }

    /// A xorshift stream drawing `next(bound)` in `0..bound`.
    fn draws(seed: u64) -> impl FnMut(usize) -> usize {
        let mut state = seed | 1;
        move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        }
    }

    fn architecture(nodes: usize, nw: usize) -> OnocArchitecture {
        let (rows, cols) = OnocArchitecture::near_square_grid(nodes);
        OnocArchitecture::builder()
            .grid_dimensions(rows, cols)
            .wavelengths(nw)
            .build()
            .unwrap()
    }

    /// Comb sizes of one, two and three mask words.
    const COMBS: [usize; 12] = [1, 2, 3, 5, 8, 12, 16, 31, 64, 65, 128, 130];

    proptest! {
        /// The walk reproduces the per-receiver walk bit for bit, and fails
        /// with the same first error, under both crosstalk models: through
        /// `SpectrumEngine::analyze`, and through one walker reused across
        /// lane sets in any order (lanes fed in reverse), which must also
        /// fail where `SpectrumEngine::with_model` fails (a route without
        /// lanes, a receiver collision).
        #[test]
        fn lane_walks_match_the_per_receiver_walk(
            nodes in 2usize..33,
            comb in 0usize..COMBS.len(),
            count in 1usize..9,
            seed in 0u64..u64::MAX,
        ) {
            let a = architecture(nodes, COMBS[comb]);
            let bits = |r: Result<Vec<ReceiverReport>, SpectrumError>| {
                r.map(|r| r.iter().map(report_bits).collect::<Vec<_>>())
            };
            let mut next = draws(seed);
            for _ in 0..3 {
                let routes = random_routes(&a, count, &mut next);
                for model in [CrosstalkModel::PaperFirstOrder, CrosstalkModel::Elementwise] {
                    let mut walker = SpectrumWalker::new(
                        &a,
                        routes.iter().copied().enumerate(),
                        model,
                    );
                    for _ in 0..4 {
                        let traffic = random_lanes(&routes, a.grid().count(), &mut next);
                        let engine = SpectrumEngine::with_model(&a, &traffic, model);
                        let oracle = bits(engine.as_ref().map_err(Clone::clone).and_then(|_| {
                            crate::spectrum_oracle::analyze_per_receiver(&a, &traffic, model)
                        }));
                        if let Ok(engine) = &engine {
                            prop_assert_eq!(&bits(engine.analyze()), &oracle, "{} on {:?}", model, traffic);
                        }
                        let lanes = traffic
                            .iter()
                            .enumerate()
                            .flat_map(|(r, t)| t.channels().iter().rev().map(move |&ch| (r, ch)));
                        let walked = bits(walker.analyze(lanes).map(<[ReceiverReport]>::to_vec));
                        prop_assert_eq!(&walked, &oracle, "reused, {} on {:?}", model, traffic);
                    }
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
