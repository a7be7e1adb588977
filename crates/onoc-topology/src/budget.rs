//! Per-receiver power-budget breakdown.
//!
//! The spectrum engine ([`crate::SpectrumEngine`]) returns totals; this
//! module decomposes the end-to-end loss of one signal into its physical
//! contributions (Eq. 6 term by term), which is what an architect needs to
//! see to understand *why* a design point costs what it costs.

use onoc_photonics::{MrElement, MrState, WavelengthId};
use onoc_units::Decibels;

use crate::{NodeId, OnocArchitecture, RingPath, SpectrumEngine, SpectrumError, Transmission};

/// The loss of one signal decomposed into physical contributions.
///
/// The components always sum to [`PowerBudget::total`] (up to floating-point
/// rounding); a property test enforces this against the spectrum engine's
/// monolithic walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBudget {
    /// The transmission this budget belongs to (caller id).
    pub transmission: usize,
    /// The analysed wavelength.
    pub channel: WavelengthId,
    /// Waveguide propagation loss (`LP`, length × Lp).
    pub propagation: Decibels,
    /// Bending loss (`LB`, 90° bends × Lb).
    pub bending: Decibels,
    /// Accumulated OFF-state MR through losses (`Lp0` terms).
    pub off_mr_through: Decibels,
    /// Accumulated ON-state MR through losses (`Lp1` terms, other
    /// receivers' rings crossed on the way).
    pub on_mr_through: Decibels,
    /// The final drop into the photodetector (`Lp1`).
    pub drop: Decibels,
    /// Number of OFF-state MRs crossed.
    pub off_mr_count: usize,
    /// Number of ON-state MRs crossed (excluding the drop ring).
    pub on_mr_count: usize,
}

impl PowerBudget {
    /// Total end-to-end loss (sum of all components).
    #[must_use]
    pub fn total(&self) -> Decibels {
        self.propagation + self.bending + self.off_mr_through + self.on_mr_through + self.drop
    }
}

impl core::fmt::Display for PowerBudget {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "t{} {}: {} = prop {} + bend {} + {}×offMR {} + {}×onMR {} + drop {}",
            self.transmission,
            self.channel,
            self.total(),
            self.propagation,
            self.bending,
            self.off_mr_count,
            self.off_mr_through,
            self.on_mr_count,
            self.on_mr_through,
            self.drop
        )
    }
}

/// Computes the decomposed budget of every receiver in `traffic`.
///
/// Reports appear in traffic order, then channel order (matching
/// [`SpectrumEngine::analyze`]).
///
/// # Errors
///
/// Returns the same [`SpectrumError`] conditions as the spectrum engine
/// (collisions, interceptions, malformed channel sets).
pub fn power_budgets(
    arch: &OnocArchitecture,
    traffic: &[Transmission],
) -> Result<Vec<PowerBudget>, SpectrumError> {
    // Reuse the engine's construction-time validation and receiver map.
    let engine = SpectrumEngine::new(arch, traffic)?;
    let mut budgets = Vec::new();
    for (t_idx, t) in traffic.iter().enumerate() {
        for &channel in t.channels() {
            budgets.push(budget_for(arch, &engine, traffic, t_idx, channel)?);
        }
    }
    Ok(budgets)
}

/// The budgets of a lone transmission on `channel` over every prefix of
/// `path`, in hop order: element `h - 1` equals, bit for bit, what
/// [`power_budgets`] reports for the single transmission (id 0) from the
/// path's source to its `h`-th node on `channel`.
///
/// dB losses add along a path, so one walk yields all `path.hops()`
/// budgets in O(hops · comb), where one [`power_budgets`] call per prefix
/// costs O(hops² · comb). With a single transmission the only ON ring is
/// the receiver's own drop ring, so every stack the signal crosses is
/// OFF; the walk snapshots the budget on arrival (destination stack
/// prefix plus the drop) before adding the node's full OFF stack, which
/// keeps the floating-point addition order of the per-prefix walk.
#[must_use]
pub fn lone_prefix_budgets(
    arch: &OnocArchitecture,
    path: &RingPath,
    channel: WavelengthId,
) -> Vec<PowerBudget> {
    let geo = arch.geometry();
    let params = arch.losses();
    let grid = arch.grid();
    let off = |c: usize| MrElement::new(WavelengthId(c), MrState::Off);
    let cross_off = |budget: &mut PowerBudget, stack_end: usize| {
        for c in 0..stack_end {
            budget.off_mr_count += 1;
            budget.off_mr_through += off(c).through_loss(channel, grid, params);
        }
    };
    let drop = MrElement::new(channel, MrState::On).drop_loss(channel, grid, params);
    let mut walk = PowerBudget {
        transmission: 0,
        channel,
        propagation: Decibels::ZERO,
        bending: Decibels::ZERO,
        off_mr_through: Decibels::ZERO,
        on_mr_through: Decibels::ZERO,
        drop: Decibels::ZERO,
        off_mr_count: 0,
        on_mr_count: 0,
    };
    let hops = path.hops();
    let mut budgets = Vec::with_capacity(hops);
    for (h, segment) in path.segments().enumerate() {
        walk.propagation +=
            params.propagation_per_cm * geo.segment_length(segment.index).to_centimeters().value();
        walk.bending += params.bending_per_90deg * geo.segment_bends(segment.index) as f64;
        let mut arrived = walk;
        cross_off(&mut arrived, channel.index());
        arrived.drop = drop;
        budgets.push(arrived);
        if h + 1 < hops {
            cross_off(&mut walk, grid.count());
        }
    }
    budgets
}

fn budget_for(
    arch: &OnocArchitecture,
    engine: &SpectrumEngine<'_>,
    traffic: &[Transmission],
    t_idx: usize,
    channel: WavelengthId,
) -> Result<PowerBudget, SpectrumError> {
    let t = &traffic[t_idx];
    let path = t.path();
    let geo = arch.geometry();
    let params = arch.losses();
    let grid = arch.grid();
    let nw = grid.count();
    let dst = path.dst();
    let direction = path.direction();

    let mut budget = PowerBudget {
        transmission: t.id(),
        channel,
        propagation: Decibels::ZERO,
        bending: Decibels::ZERO,
        off_mr_through: Decibels::ZERO,
        on_mr_through: Decibels::ZERO,
        drop: Decibels::ZERO,
        off_mr_count: 0,
        on_mr_count: 0,
    };

    let nodes: Vec<NodeId> = path.nodes().collect();
    for (segment, arrival) in path.segments().zip(nodes.iter().skip(1)) {
        budget.propagation +=
            params.propagation_per_cm * geo.segment_length(segment.index).to_centimeters().value();
        budget.bending += params.bending_per_90deg * geo.segment_bends(segment.index) as f64;
        let stack_end = if *arrival == dst { channel.index() } else { nw };
        for c in 0..stack_end {
            let ch = WavelengthId(c);
            let element = engine.receiver_element(*arrival, direction, ch);
            match element.state() {
                MrState::On => {
                    if ch == channel {
                        // The engine's own walk reports this precisely.
                        return Err(SpectrumError::ChannelDroppedEnRoute {
                            transmission: t.id(),
                            channel,
                            at: *arrival,
                            intercepted_by: t.id(),
                        });
                    }
                    budget.on_mr_count += 1;
                    budget.on_mr_through += element.through_loss(channel, grid, params);
                }
                MrState::Off => {
                    budget.off_mr_count += 1;
                    budget.off_mr_through += element.through_loss(channel, grid, params);
                }
            }
        }
        if *arrival == dst {
            budget.drop = engine
                .receiver_element(dst, direction, channel)
                .drop_loss(channel, grid, params);
        }
    }
    Ok(budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Direction;
    use proptest::prelude::*;

    fn arch(nw: usize) -> OnocArchitecture {
        OnocArchitecture::paper_architecture(nw)
    }

    fn ch(a: &OnocArchitecture, i: usize) -> WavelengthId {
        a.grid().channel(i).expect("channel in range")
    }

    #[test]
    fn budget_components_sum_to_engine_loss() {
        let a = arch(8);
        let traffic = vec![
            Transmission::new(
                0,
                a.route(NodeId(0), NodeId(3), Direction::Clockwise),
                vec![ch(&a, 0), ch(&a, 5)],
            ),
            Transmission::new(
                1,
                a.route(NodeId(1), NodeId(3), Direction::Clockwise),
                vec![ch(&a, 2)],
            ),
        ];
        let engine = SpectrumEngine::new(&a, &traffic).unwrap();
        let reports = engine.analyze().unwrap();
        let budgets = power_budgets(&a, &traffic).unwrap();
        assert_eq!(reports.len(), budgets.len());
        for (r, b) in reports.iter().zip(&budgets) {
            assert_eq!(r.channel, b.channel);
            assert!(
                (r.path_loss.value() - b.total().value()).abs() < 1e-9,
                "engine {} vs budget {}",
                r.path_loss,
                b.total()
            );
        }
    }

    #[test]
    fn single_hop_budget_by_hand() {
        let a = arch(8);
        let traffic = vec![Transmission::new(
            0,
            a.route(NodeId(0), NodeId(1), Direction::Clockwise),
            vec![ch(&a, 0)],
        )];
        let b = &power_budgets(&a, &traffic).unwrap()[0];
        assert!((b.propagation.value() + 0.274 * 0.15).abs() < 1e-12);
        assert_eq!(b.bending, Decibels::ZERO);
        assert_eq!(b.off_mr_count, 0); // channel 0 heads the stack
        assert_eq!(b.on_mr_count, 0);
        assert_eq!(b.drop, Decibels::new(-0.5));
    }

    #[test]
    fn higher_stack_positions_cross_more_rings() {
        let a = arch(8);
        let make = |i: usize| {
            vec![Transmission::new(
                0,
                a.route(NodeId(0), NodeId(1), Direction::Clockwise),
                vec![ch(&a, i)],
            )]
        };
        let low_t = make(0);
        let high_t = make(7);
        let low = &power_budgets(&a, &low_t).unwrap()[0];
        let high = &power_budgets(&a, &high_t).unwrap()[0];
        assert_eq!(low.off_mr_count, 0);
        assert_eq!(high.off_mr_count, 7);
        assert!(high.total() < low.total());
    }

    #[test]
    fn sibling_rings_count_as_on_state() {
        // Two wavelengths of the same transmission: the higher one passes
        // the lower one's ON ring at the shared destination.
        let a = arch(8);
        let traffic = vec![Transmission::new(
            0,
            a.route(NodeId(0), NodeId(1), Direction::Clockwise),
            vec![ch(&a, 0), ch(&a, 1)],
        )];
        let budgets = power_budgets(&a, &traffic).unwrap();
        assert_eq!(budgets[0].on_mr_count, 0);
        assert_eq!(budgets[1].on_mr_count, 1);
        assert_eq!(budgets[1].on_mr_through, Decibels::new(-0.5));
    }

    #[test]
    fn display_is_informative() {
        let a = arch(4);
        let traffic = vec![Transmission::new(
            3,
            a.route(NodeId(0), NodeId(2), Direction::Clockwise),
            vec![ch(&a, 1)],
        )];
        let b = &power_budgets(&a, &traffic).unwrap()[0];
        let text = b.to_string();
        assert!(text.contains("t3") && text.contains("λ2") && text.contains("drop"));
    }

    #[test]
    fn prefix_walk_matches_one_budget_per_prefix() {
        for (rows, cols, nw) in [(1, 2, 1), (4, 4, 8), (3, 5, 31)] {
            let a = OnocArchitecture::builder()
                .grid_dimensions(rows, cols)
                .wavelengths(nw)
                .build()
                .unwrap();
            let n = rows * cols;
            for direction in Direction::BOTH {
                for chan in [0, nw / 2, nw - 1] {
                    let far = match direction {
                        Direction::Clockwise => NodeId(n - 1),
                        Direction::CounterClockwise => NodeId(1),
                    };
                    let path = a.route(NodeId(0), far, direction);
                    let walk = lone_prefix_budgets(&a, &path, ch(&a, chan));
                    assert_eq!(walk.len(), n - 1);
                    for (h, (budget, dst)) in walk.iter().zip(path.nodes().skip(1)).enumerate() {
                        let traffic = vec![Transmission::new(
                            0,
                            a.route(NodeId(0), dst, direction),
                            vec![ch(&a, chan)],
                        )];
                        let oracle = power_budgets(&a, &traffic).unwrap().remove(0);
                        assert_eq!(*budget, oracle, "hop {} on λ{chan}", h + 1);
                        assert_eq!(
                            budget.total().value().to_bits(),
                            oracle.total().value().to_bits()
                        );
                    }
                }
            }
        }
    }

    proptest! {
        /// For any pair of distances, the budget decomposition always sums
        /// to the engine's loss (the two walks stay in lockstep).
        #[test]
        fn decomposition_matches_engine(
            src in 0usize..16, hops in 1usize..15, chan in 0usize..8,
        ) {
            let a = arch(8);
            let dst = NodeId((src + hops) % 16);
            let traffic = vec![Transmission::new(
                0,
                a.route(NodeId(src), dst, Direction::Clockwise),
                vec![ch(&a, chan)],
            )];
            let engine = SpectrumEngine::new(&a, &traffic).unwrap();
            let report = engine.analyze().unwrap().remove(0);
            let budget = power_budgets(&a, &traffic).unwrap().remove(0);
            prop_assert!((report.path_loss.value() - budget.total().value()).abs() < 1e-9);
        }
    }
}
