//! Application-independent worst-case / average crosstalk analysis.
//!
//! Nikdast et al. (cited as \[10\] by the paper) bound the crosstalk of an
//! ONoC at design time by assuming every other wavelength is always active
//! at the least favourable position. The paper argues that such bounds are
//! "not sufficient if targeting a performance/energy trade-off for a
//! specific application" — this module implements the bound so the claim
//! can be quantified (see the `ablation` benchmark binary): the
//! application-aware spectrum walk of [`crate::SpectrumEngine`] sits far
//! inside the worst-case envelope for every Pareto allocation.

use onoc_photonics::{BerConvention, SignalNoise, WavelengthId, ber};
use onoc_units::{Decibels, Milliwatts};

use crate::{Direction, NodeId, OnocArchitecture};

/// Crosstalk bounds for one receiver channel, independent of any workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrosstalkBound {
    /// The victim channel.
    pub channel: WavelengthId,
    /// Received signal power under the worst path (the full ring).
    pub worst_signal: Milliwatts,
    /// Crosstalk with every other channel injected one hop upstream at full
    /// power (the worst case).
    pub worst_crosstalk: Milliwatts,
    /// Crosstalk with every other channel travelling half the ring before
    /// reaching the victim (an average-case estimate).
    pub average_crosstalk: Milliwatts,
}

impl CrosstalkBound {
    /// Worst-case SNR: weakest signal over strongest noise (plus the laser
    /// zero level `p_zero`).
    #[must_use]
    pub fn worst_snr(&self, p_zero: Milliwatts) -> SignalNoise {
        SignalNoise::new(self.worst_signal, self.worst_crosstalk + p_zero)
    }

    /// Worst-case `log10(BER)` under `convention`.
    #[must_use]
    pub fn worst_log_ber(&self, p_zero: Milliwatts, convention: BerConvention) -> f64 {
        ber(self.worst_snr(p_zero).snr_linear(), convention).log10()
    }
}

/// Computes per-channel crosstalk bounds for the receiver stack at `dst` on
/// the waveguide of `direction`.
///
/// Assumptions of the bound (Nikdast-style, conservative for
/// single-wavelength reception):
///
/// * the victim signal travelled the **whole ring** (maximal loss): every
///   intermediate ONI crossed with all MRs OFF, plus its own drop;
/// * every other comb channel is present at the ONI entry having paid only
///   **one hop** of propagation (minimal attenuation), i.e. it was injected
///   by the immediate upstream neighbour;
/// * first-order coupling through the victim's Lorentzian (Eq. 1), as in
///   the paper.
///
/// Note that the all-OFF-path assumption means the bound does **not** cover
/// extremely dense intra-communication allocations, whose victims also pay
/// `Lp1` per sibling ON ring at their own destination stack — one more
/// reason (measured in the `ablation` benchmark) why worst-case-only sizing
/// is no substitute for application-aware analysis.
///
/// # Examples
///
/// ```
/// use onoc_topology::{worst_case_bounds, Direction, NodeId, OnocArchitecture};
///
/// let arch = OnocArchitecture::paper_architecture(8);
/// let bounds = worst_case_bounds(&arch, NodeId(3), Direction::Clockwise);
/// assert_eq!(bounds.len(), 8);
/// // Edge channels have one fewer adjacent interferer, so the middle of
/// // the comb is always at least as noisy as the edges.
/// assert!(bounds[4].worst_crosstalk >= bounds[0].worst_crosstalk);
/// ```
#[must_use]
pub fn worst_case_bounds(
    arch: &OnocArchitecture,
    dst: NodeId,
    direction: Direction,
) -> Vec<CrosstalkBound> {
    let grid = arch.grid();
    let params = arch.losses();
    let geo = arch.geometry();
    let n = arch.ring().node_count();
    let laser_on = arch.laser().power_on();

    // Loss of the full ring loop ending at `dst`: all segments once, the
    // full OFF stack of the other n−1 ONIs.
    let mut loop_loss = Decibels::ZERO;
    for s in 0..n {
        loop_loss += params.propagation_per_cm * geo.segment_length(s).to_centimeters().value()
            + params.bending_per_90deg * geo.segment_bends(s) as f64;
    }
    loop_loss += params.mr_off * ((n - 1) * grid.count()) as f64;

    // Entry loss of an interferer injected one hop upstream.
    let upstream_segment = geo.departing_segment(dst, direction.reversed());
    let one_hop = params.propagation_per_cm
        * geo
            .segment_length(upstream_segment)
            .to_centimeters()
            .value()
        + params.bending_per_90deg * geo.segment_bends(upstream_segment) as f64;

    // Average-case entry loss: half the ring, OFF stacks included.
    let mut half_loss = Decibels::ZERO;
    for s in 0..n / 2 {
        half_loss += params.propagation_per_cm * geo.segment_length(s).to_centimeters().value()
            + params.bending_per_90deg * geo.segment_bends(s) as f64;
    }
    half_loss += params.mr_off * ((n / 2).saturating_sub(1) * grid.count()) as f64;

    grid.channels()
        .map(|victim| {
            // Victim signal: full loop + own stack prefix + drop.
            let prefix = params.mr_off * victim.index() as f64;
            let signal_loss = loop_loss + prefix + params.mr_on;
            let worst_signal = (laser_on + signal_loss).to_milliwatts();

            let mr = grid.micro_ring(victim);
            let mut worst = Milliwatts::ZERO;
            let mut average = Milliwatts::ZERO;
            for other in grid.channels() {
                if other == victim {
                    continue;
                }
                let phi = mr.transmission_db(grid.wavelength(other));
                worst += (laser_on + one_hop + phi).to_milliwatts();
                average += (laser_on + half_loss + phi).to_milliwatts();
            }
            CrosstalkBound {
                channel: victim,
                worst_signal,
                worst_crosstalk: worst,
                average_crosstalk: average,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpectrumEngine, Transmission};
    use proptest::prelude::*;

    fn arch(nw: usize) -> OnocArchitecture {
        OnocArchitecture::paper_architecture(nw)
    }

    #[test]
    fn worst_exceeds_average() {
        for b in worst_case_bounds(&arch(8), NodeId(5), Direction::Clockwise) {
            assert!(b.worst_crosstalk > b.average_crosstalk, "{b:?}");
        }
    }

    #[test]
    fn middle_channels_are_noisiest() {
        let bounds = worst_case_bounds(&arch(12), NodeId(0), Direction::Clockwise);
        let edge = bounds[0].worst_crosstalk;
        let middle = bounds[6].worst_crosstalk;
        assert!(middle > edge);
    }

    #[test]
    fn denser_combs_have_worse_bounds() {
        let worst = |nw: usize| {
            worst_case_bounds(&arch(nw), NodeId(0), Direction::Clockwise)
                .iter()
                .map(|b| b.worst_crosstalk.value())
                .fold(0.0f64, f64::max)
        };
        assert!(worst(12) > worst(8));
        assert!(worst(8) > worst(4));
    }

    #[test]
    fn worst_case_ber_is_meaningfully_pessimistic() {
        // At 8 λ the bound sits at the bad edge of the paper's application
        // window (−3.0); at 12 λ it falls clearly outside it — worst-case
        // sizing would reject design points the application never stresses.
        for (nw, threshold) in [(8usize, -3.1), (12, -3.0)] {
            let a = arch(nw);
            let p0 = a.laser().power_off().to_milliwatts();
            let bounds = worst_case_bounds(&a, NodeId(3), Direction::Clockwise);
            let worst_ber = bounds
                .iter()
                .map(|b| b.worst_log_ber(p0, BerConvention::PaperDb))
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(
                worst_ber > threshold,
                "NW = {nw}: worst-case log BER {worst_ber}"
            );
        }
    }

    proptest! {
        /// The worst-case bound dominates any single-transmission reality:
        /// an actual application receiver always sees less crosstalk and
        /// more signal.
        #[test]
        fn bound_dominates_reality(src in 0usize..16, hops in 1usize..15, chan in 0usize..8) {
            let a = arch(8);
            let dst = NodeId((src + hops) % 16);
            let ch = a.grid().channel(chan).unwrap();
            let traffic = vec![Transmission::new(
                0,
                a.route(NodeId(src), dst, Direction::Clockwise),
                vec![ch],
            )];
            let report = SpectrumEngine::new(&a, &traffic).unwrap().analyze().unwrap()[0];
            let bound = worst_case_bounds(&a, dst, Direction::Clockwise)[chan];
            prop_assert!(report.signal >= bound.worst_signal);
            prop_assert!(report.crosstalk <= bound.worst_crosstalk);
        }
    }
}
