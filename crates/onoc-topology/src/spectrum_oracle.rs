//! The per-receiver spectrum walk that [`SpectrumWalker`] replaced, kept as
//! its test oracle: every receiver re-walks its own path ring by ring
//! through [`MrElement`], and for each interfering lane that lane's path up
//! to the victim's ONI. It reads no precomputed loss.
//!
//! Test builds only. It names this crate as `onoc_topology` and uses public
//! items alone, so that `onoc-wa` compiles the same file into its tests
//! (through `#[path]`) and checks its evaluator against this walk too.
//!
//! [`SpectrumWalker`]: onoc_topology::SpectrumWalker

use onoc_photonics::{MrElement, MrState, WavelengthId};
use onoc_topology::{
    CrosstalkModel, Direction, NodeId, OnocArchitecture, ReceiverReport, SpectrumError,
    Transmission,
};
use onoc_units::{Decibels, Milliwatts};

/// Every receiver of `traffic`, in traffic order, then channel order, as
/// `SpectrumEngine::analyze` reports them.
///
/// `traffic` must have passed `SpectrumEngine::with_model`'s checks.
pub(crate) fn analyze_per_receiver(
    arch: &OnocArchitecture,
    traffic: &[Transmission],
    model: CrosstalkModel,
) -> Result<Vec<ReceiverReport>, SpectrumError> {
    let oracle = PerReceiverWalk::new(arch, traffic, model);
    let mut reports = Vec::new();
    for (t_idx, t) in traffic.iter().enumerate() {
        for &ch in t.channels() {
            reports.push(oracle.analyze_receiver(t_idx, ch)?);
        }
    }
    Ok(reports)
}

struct PerReceiverWalk<'a> {
    arch: &'a OnocArchitecture,
    traffic: &'a [Transmission],
    model: CrosstalkModel,
    /// Index into `traffic` of the transmission receiving each
    /// (direction, node, channel).
    receivers: Vec<Option<usize>>,
}

impl<'a> PerReceiverWalk<'a> {
    fn new(arch: &'a OnocArchitecture, traffic: &'a [Transmission], model: CrosstalkModel) -> Self {
        let mut oracle = Self {
            arch,
            traffic,
            model,
            receivers: vec![None; 2 * arch.ring().node_count() * arch.grid().count()],
        };
        for (idx, t) in traffic.iter().enumerate() {
            for &ch in t.channels() {
                let slot = oracle.receiver_slot(t.path().dst(), t.path().direction(), ch);
                oracle.receivers[slot] = Some(idx);
            }
        }
        oracle
    }

    fn receiver_slot(&self, node: NodeId, direction: Direction, channel: WavelengthId) -> usize {
        let dir = match direction {
            Direction::Clockwise => 0,
            Direction::CounterClockwise => 1,
        };
        (dir * self.arch.ring().node_count() + node.0) * self.arch.grid().count() + channel.index()
    }

    fn receiver_at(
        &self,
        node: NodeId,
        direction: Direction,
        channel: WavelengthId,
    ) -> Option<usize> {
        self.receivers[self.receiver_slot(node, direction, channel)]
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

    /// Through loss of the stack positions `< upto` at `node` for a signal
    /// on `signal` carried by transmission `carrier`, checking for fatal
    /// interception.
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
}
