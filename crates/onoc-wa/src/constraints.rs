//! Validity constraints on allocations (§III-D of the paper).

use onoc_app::{CommId, MappedApplication};
use onoc_photonics::WavelengthId;

use crate::Allocation;

/// A violated validity constraint.
///
/// The paper marks a chromosome invalid when "same wavelengths are assigned
/// to the same link" or "the reserved wavelengths for one link exceed the
/// bandwidth of the waveguide"; such individuals get infinite fitness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A communication carries data but reserves no wavelength.
    MissingWavelength(CommId),
    /// Two communications whose paths share a waveguide segment reserve the
    /// same wavelength.
    SharedWavelength {
        /// First communication.
        first: CommId,
        /// Second communication.
        second: CommId,
        /// The contested wavelength.
        channel: WavelengthId,
    },
    /// The allocation shape does not match the instance
    /// (communication count or comb size differ).
    ShapeMismatch {
        /// Expected (comms, wavelengths).
        expected: (usize, usize),
        /// Found (comms, wavelengths).
        found: (usize, usize),
    },
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Violation::MissingWavelength(c) => {
                write!(f, "{c} has no reserved wavelength")
            }
            Violation::SharedWavelength {
                first,
                second,
                channel,
            } => write!(
                f,
                "{first} and {second} share {channel} on a common waveguide segment"
            ),
            Violation::ShapeMismatch { expected, found } => write!(
                f,
                "allocation shape {found:?} does not match instance {expected:?}"
            ),
        }
    }
}

impl std::error::Error for Violation {}

/// Checks allocations against the §III-D validity constraints for one mapped
/// application.
///
/// Construction pre-computes which communication pairs share waveguide
/// segments; each check is then a handful of bit-mask intersections.
///
/// # Examples
///
/// ```
/// use onoc_app::workloads::paper_mapped_application;
/// use onoc_wa::{Allocation, ValidityChecker};
///
/// let app = paper_mapped_application();
/// let checker = ValidityChecker::new(&app, 4);
///
/// // One wavelength each, but c0 and c1 share segments and both take λ1.
/// let dense = Allocation::from_counts_dense(&[1, 1, 1, 1, 1, 1], 4).unwrap();
/// assert!(!checker.is_valid(&dense));
/// ```
#[derive(Debug, Clone)]
pub struct ValidityChecker {
    comms: usize,
    wavelengths: usize,
    overlapping: Vec<(CommId, CommId)>,
}

impl ValidityChecker {
    /// Builds a checker for `app` with a `wavelengths`-channel comb.
    ///
    /// # Panics
    ///
    /// Panics if `wavelengths` is zero or exceeds 128 (the bit-mask width).
    #[must_use]
    pub fn new(app: &MappedApplication, wavelengths: usize) -> Self {
        assert!(
            wavelengths > 0 && wavelengths <= 128,
            "checker supports 1..=128 wavelengths, got {wavelengths}"
        );
        Self {
            comms: app.graph().comm_count(),
            wavelengths,
            overlapping: app.overlapping_pairs(),
        }
    }

    /// The communication pairs that must use disjoint wavelengths.
    #[must_use]
    pub fn overlapping_pairs(&self) -> &[(CommId, CommId)] {
        &self.overlapping
    }

    /// Number of communications expected in an allocation.
    #[must_use]
    pub fn comm_count(&self) -> usize {
        self.comms
    }

    /// Comb size expected in an allocation.
    #[must_use]
    pub fn wavelength_count(&self) -> usize {
        self.wavelengths
    }

    /// Checks `allocation`, reporting the first violation found.
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`]: shape mismatch, then missing
    /// wavelengths in communication order, then shared wavelengths in pair
    /// order.
    pub fn check(&self, allocation: &Allocation) -> Result<(), Violation> {
        self.check_masks(allocation, &mut Vec::new())
    }

    /// [`check`](Self::check), leaving each communication's channel mask
    /// in `masks`, communication order, when the shape matches.
    pub(crate) fn check_masks(
        &self,
        allocation: &Allocation,
        masks: &mut Vec<u128>,
    ) -> Result<(), Violation> {
        if allocation.comm_count() != self.comms
            || allocation.wavelength_count() != self.wavelengths
        {
            return Err(Violation::ShapeMismatch {
                expected: (self.comms, self.wavelengths),
                found: (allocation.comm_count(), allocation.wavelength_count()),
            });
        }
        masks.clear();
        masks.extend((0..self.comms).map(|k| allocation.channel_mask(CommId(k))));
        for (k, &mask) in masks.iter().enumerate() {
            if mask == 0 {
                return Err(Violation::MissingWavelength(CommId(k)));
            }
        }
        for &(a, b) in &self.overlapping {
            let shared = masks[a.0] & masks[b.0];
            if shared != 0 {
                return Err(Violation::SharedWavelength {
                    first: a,
                    second: b,
                    channel: WavelengthId(shared.trailing_zeros() as usize),
                });
            }
        }
        Ok(())
    }

    /// Convenience wrapper over [`check`](Self::check).
    #[must_use]
    pub fn is_valid(&self, allocation: &Allocation) -> bool {
        self.check(allocation).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoc_app::workloads::paper_mapped_application;
    use proptest::prelude::*;

    fn checker(nw: usize) -> ValidityChecker {
        ValidityChecker::new(&paper_mapped_application(), nw)
    }

    #[test]
    fn paper_instance_overlap_structure() {
        let c = checker(8);
        assert_eq!(
            c.overlapping_pairs(),
            &[(CommId(0), CommId(1)), (CommId(3), CommId(4))]
        );
    }

    #[test]
    fn paper_example_chromosome_is_valid() {
        // §III-D example: [1000/0001/0001/0001/1000/1000].
        let genes = "100000010001000110001000"
            .chars()
            .map(|c| c == '1')
            .collect::<Vec<_>>();
        let a = Allocation::from_genes(genes, 4).unwrap();
        assert!(checker(4).is_valid(&a));
    }

    #[test]
    fn missing_wavelength_detected() {
        let mut a = Allocation::from_counts_dense(&[1, 1, 1, 1, 1, 1], 4).unwrap();
        // Make it valid first: separate the overlapping pairs.
        a.set(CommId(1), WavelengthId(0), false);
        a.set(CommId(1), WavelengthId(1), true);
        a.set(CommId(4), WavelengthId(0), false);
        a.set(CommId(4), WavelengthId(1), true);
        assert!(checker(4).is_valid(&a));
        // Now strip c5 entirely.
        a.set(CommId(5), WavelengthId(0), false);
        assert_eq!(
            checker(4).check(&a),
            Err(Violation::MissingWavelength(CommId(5)))
        );
    }

    #[test]
    fn shared_wavelength_on_overlap_detected() {
        let a = Allocation::from_counts_dense(&[1, 1, 1, 1, 1, 1], 4).unwrap();
        assert_eq!(
            checker(4).check(&a),
            Err(Violation::SharedWavelength {
                first: CommId(0),
                second: CommId(1),
                channel: WavelengthId(0),
            })
        );
    }

    #[test]
    fn non_overlapping_comms_may_share() {
        // c2 and c5 never share a segment with anything: same λ is fine.
        let mut a = Allocation::new(6, 4);
        for k in 0..6 {
            a.set(CommId(k), WavelengthId(0), true);
        }
        a.set(CommId(1), WavelengthId(0), false);
        a.set(CommId(1), WavelengthId(1), true);
        a.set(CommId(4), WavelengthId(0), false);
        a.set(CommId(4), WavelengthId(1), true);
        assert!(checker(4).is_valid(&a));
    }

    #[test]
    fn shape_mismatch_detected() {
        let a = Allocation::new(6, 8);
        assert!(matches!(
            checker(4).check(&a),
            Err(Violation::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn violation_messages_are_informative() {
        let v = Violation::SharedWavelength {
            first: CommId(0),
            second: CommId(1),
            channel: WavelengthId(2),
        };
        let msg = v.to_string();
        assert!(msg.contains("c0") && msg.contains("c1") && msg.contains("λ3"));
    }

    proptest! {
        /// Group-wise capacity: when c0+c1 or c3+c4 exceed NW, no valid
        /// allocation with those counts exists (pigeonhole).
        #[test]
        fn overfull_groups_are_always_invalid(
            genes in proptest::collection::vec(any::<bool>(), 24),
        ) {
            let a = Allocation::from_genes(genes, 4).unwrap();
            let counts = a.counts();
            let c = checker(4);
            if counts[0] + counts[1] > 4 || counts[3] + counts[4] > 4 {
                prop_assert!(!c.is_valid(&a));
            }
        }

        /// The checker's verdict agrees with a naive set-intersection check.
        #[test]
        fn mask_check_matches_naive(genes in proptest::collection::vec(any::<bool>(), 24)) {
            let a = Allocation::from_genes(genes, 4).unwrap();
            let c = checker(4);
            let naive_valid = {
                let all_nonempty = (0..6).all(|k| !a.channels(CommId(k)).is_empty());
                let disjoint = c.overlapping_pairs().iter().all(|&(x, y)| {
                    let sx: std::collections::HashSet<_> =
                        a.channels(x).into_iter().collect();
                    a.channels(y).iter().all(|ch| !sx.contains(ch))
                });
                all_nonempty && disjoint
            };
            prop_assert_eq!(c.is_valid(&a), naive_valid);
        }
    }
}
