//! Problem instances: architecture + mapped application + evaluation options.

use onoc_app::{CommId, MappedApplication};
use onoc_photonics::BerConvention;
use onoc_topology::{CrosstalkModel, OnocArchitecture};
use onoc_units::{BitsPerCycle, Gigahertz};

use crate::heuristics::{ConflictGraph, assign_disjoint_lanes};
use crate::{Allocation, Evaluator, ValidityChecker};

/// Tunable knobs of the objective models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOptions {
    /// Per-wavelength data rate `B` of Eq. 10 (DESIGN.md S2: 1 bit/cycle).
    pub rate: BitsPerCycle,
    /// Core clock used to convert cycles into wall-clock time for the
    /// energy model (DESIGN.md S2: 1 GHz).
    pub clock: Gigahertz,
    /// SNR scale plugged into Eq. 9 (DESIGN.md S5).
    pub ber_convention: BerConvention,
    /// Crosstalk propagation model (DESIGN.md E9 ablation).
    pub crosstalk_model: CrosstalkModel,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self {
            rate: BitsPerCycle::new(1.0),
            clock: Gigahertz::new(1.0),
            ber_convention: BerConvention::default(),
            crosstalk_model: CrosstalkModel::default(),
        }
    }
}

/// Errors raised while assembling a [`ProblemInstance`].
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceError {
    /// The application is mapped on a ring of a different size than the
    /// architecture provides.
    RingMismatch {
        /// Nodes in the architecture ring.
        arch_nodes: usize,
        /// Nodes in the application's ring.
        app_nodes: usize,
    },
    /// The task graph is cyclic and cannot be scheduled.
    CyclicTaskGraph,
    /// The comb exceeds the 128-channel limit of the validity bit masks.
    TooManyWavelengths(usize),
    /// A count vector cannot be packed into the comb without violating the
    /// waveguide-sharing constraints.
    CountsDoNotFit {
        /// The communication that ran out of channels.
        comm: CommId,
        /// Its requested count.
        requested: usize,
        /// Channels still free for it.
        available: usize,
    },
    /// The count vector length differs from the number of communications.
    WrongCountLength {
        /// Communications in the application.
        comms: usize,
        /// Counts supplied.
        entries: usize,
    },
}

impl core::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InstanceError::RingMismatch {
                arch_nodes,
                app_nodes,
            } => write!(
                f,
                "application mapped on a {app_nodes}-node ring but the architecture has {arch_nodes} nodes"
            ),
            InstanceError::CyclicTaskGraph => write!(f, "task graph contains a cycle"),
            InstanceError::TooManyWavelengths(n) => {
                write!(f, "{n} wavelengths exceed the 128-channel limit")
            }
            InstanceError::CountsDoNotFit {
                comm,
                requested,
                available,
            } => write!(
                f,
                "{comm} requests {requested} wavelengths but only {available} remain disjoint from its waveguide neighbours"
            ),
            InstanceError::WrongCountLength { comms, entries } => {
                write!(f, "{entries} counts supplied for {comms} communications")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// A complete wavelength-allocation problem: the architecture, the mapped
/// application and the evaluation options.
///
/// # Examples
///
/// ```
/// use onoc_wa::ProblemInstance;
///
/// let instance = ProblemInstance::paper_with_wavelengths(8);
/// assert_eq!(instance.comm_count(), 6);
/// assert_eq!(instance.wavelength_count(), 8);
///
/// let evaluator = instance.evaluator();
/// let alloc = instance.allocation_from_counts(&[1, 1, 1, 1, 1, 1]).unwrap();
/// let objectives = evaluator.evaluate(&alloc).expect("valid allocation");
/// assert_eq!(objectives.exec_time.to_kilocycles(), 38.0);
/// ```
#[derive(Debug, Clone)]
pub struct ProblemInstance {
    arch: OnocArchitecture,
    app: MappedApplication,
    options: EvalOptions,
}

impl ProblemInstance {
    /// Assembles an instance, validating architecture/application agreement.
    ///
    /// # Errors
    ///
    /// Returns [`InstanceError`] if ring sizes differ, the task graph is
    /// cyclic, or the comb is wider than 128 channels.
    pub fn new(
        arch: OnocArchitecture,
        app: MappedApplication,
        options: EvalOptions,
    ) -> Result<Self, InstanceError> {
        if arch.ring().node_count() != app.ring().node_count() {
            return Err(InstanceError::RingMismatch {
                arch_nodes: arch.ring().node_count(),
                app_nodes: app.ring().node_count(),
            });
        }
        if arch.grid().count() > 128 {
            return Err(InstanceError::TooManyWavelengths(arch.grid().count()));
        }
        if app.graph().topological_order().is_err() {
            return Err(InstanceError::CyclicTaskGraph);
        }
        Ok(Self { arch, app, options })
    }

    /// The paper's instance: 16-core ring (Table-I parameters), the 6-task
    /// virtual application of Fig. 5, and the calibrated evaluation options
    /// of DESIGN.md, with a comb of `wavelengths` channels.
    ///
    /// # Panics
    ///
    /// Panics if `wavelengths` is zero or exceeds 128.
    #[must_use]
    pub fn paper_with_wavelengths(wavelengths: usize) -> Self {
        let arch = OnocArchitecture::paper_architecture(wavelengths);
        let app = onoc_app::workloads::paper_mapped_application();
        Self::new(arch, app, EvalOptions::default()).expect("paper instance is consistent")
    }

    /// The architecture.
    #[must_use]
    pub fn arch(&self) -> &OnocArchitecture {
        &self.arch
    }

    /// The mapped application.
    #[must_use]
    pub fn app(&self) -> &MappedApplication {
        &self.app
    }

    /// The evaluation options.
    #[must_use]
    pub fn options(&self) -> &EvalOptions {
        &self.options
    }

    /// Number of communications (`N_l`).
    #[must_use]
    pub fn comm_count(&self) -> usize {
        self.app.graph().comm_count()
    }

    /// Comb size (`N_W`).
    #[must_use]
    pub fn wavelength_count(&self) -> usize {
        self.arch.grid().count()
    }

    /// Builds the objective evaluator for this instance.
    #[must_use]
    pub fn evaluator(&self) -> Evaluator<'_> {
        Evaluator::new(self)
    }

    /// Builds the validity checker for this instance.
    #[must_use]
    pub fn checker(&self) -> ValidityChecker {
        ValidityChecker::new(&self.app, self.wavelength_count())
    }

    /// Packs a wavelength-count vector (`NW_k` per communication) into a
    /// concrete *valid* allocation: each communication takes the
    /// lowest-indexed channels that stay disjoint from the communications it
    /// shares waveguide segments with.
    ///
    /// # Errors
    ///
    /// Returns [`InstanceError::WrongCountLength`] or
    /// [`InstanceError::CountsDoNotFit`] when no such packing exists in
    /// greedy order.
    pub fn allocation_from_counts(&self, counts: &[usize]) -> Result<Allocation, InstanceError> {
        let nl = self.comm_count();
        let nw = self.wavelength_count();
        if counts.len() != nl {
            return Err(InstanceError::WrongCountLength {
                comms: nl,
                entries: counts.len(),
            });
        }
        let lanes = assign_disjoint_lanes(counts, &self.conflict_graph(), nw).map_err(|e| {
            InstanceError::CountsDoNotFit {
                comm: CommId(e.index),
                requested: e.requested,
                available: e.available,
            }
        })?;
        let mut alloc = Allocation::new(nl, nw);
        for (k, set) in lanes.iter().enumerate() {
            for &w in set {
                alloc.set(CommId(k), w, true);
            }
        }
        Ok(alloc)
    }

    /// The communications' conflict graph: pairs whose paths share a
    /// directed waveguide segment.
    pub(crate) fn conflict_graph(&self) -> ConflictGraph {
        let pairs: Vec<(usize, usize)> = self
            .app
            .overlapping_pairs()
            .iter()
            .map(|&(a, b)| (a.0, b.0))
            .collect();
        ConflictGraph::new(self.comm_count(), &pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoc_app::workloads;
    use onoc_app::{Mapping, RouteStrategy};
    use onoc_topology::RingTopology;

    #[test]
    fn paper_instance_assembles() {
        let inst = ProblemInstance::paper_with_wavelengths(12);
        assert_eq!(inst.wavelength_count(), 12);
        assert_eq!(inst.comm_count(), 6);
    }

    #[test]
    fn ring_mismatch_rejected() {
        let arch = OnocArchitecture::builder()
            .grid_dimensions(2, 2)
            .build()
            .unwrap();
        let app = workloads::paper_mapped_application(); // 16-node ring
        let err = ProblemInstance::new(arch, app, EvalOptions::default()).unwrap_err();
        assert!(matches!(err, InstanceError::RingMismatch { .. }));
    }

    #[test]
    fn cyclic_graph_rejected() {
        use onoc_units::{Bits, Cycles};
        let mut tg = onoc_app::TaskGraph::new();
        let a = tg.add_task("a", Cycles::new(1.0));
        let b = tg.add_task("b", Cycles::new(1.0));
        tg.add_comm(a, b, Bits::new(1.0)).unwrap();
        tg.add_comm(b, a, Bits::new(1.0)).unwrap();
        let mapping = Mapping::new(
            &tg,
            vec![onoc_topology::NodeId(0), onoc_topology::NodeId(1)],
        )
        .unwrap();
        let app =
            MappedApplication::new(tg, mapping, RingTopology::new(16), RouteStrategy::Shortest)
                .unwrap();
        let arch = OnocArchitecture::paper_architecture(4);
        assert_eq!(
            ProblemInstance::new(arch, app, EvalOptions::default()).unwrap_err(),
            InstanceError::CyclicTaskGraph
        );
    }

    #[test]
    fn counts_packing_respects_overlaps() {
        let inst = ProblemInstance::paper_with_wavelengths(4);
        let alloc = inst.allocation_from_counts(&[2, 2, 4, 2, 2, 4]).unwrap();
        assert!(inst.checker().is_valid(&alloc));
        assert_eq!(alloc.counts(), vec![2, 2, 4, 2, 2, 4]);
        // c0 and c1 split the comb.
        assert_eq!(alloc.channel_mask(onoc_app::CommId(0)), 0b0011);
        assert_eq!(alloc.channel_mask(onoc_app::CommId(1)), 0b1100);
    }

    #[test]
    fn overfull_counts_rejected() {
        let inst = ProblemInstance::paper_with_wavelengths(4);
        let err = inst
            .allocation_from_counts(&[3, 2, 1, 1, 1, 1])
            .unwrap_err();
        assert!(matches!(
            err,
            InstanceError::CountsDoNotFit {
                comm: CommId(1),
                requested: 2,
                available: 1
            }
        ));
    }

    #[test]
    fn wrong_count_length_rejected() {
        let inst = ProblemInstance::paper_with_wavelengths(4);
        assert!(matches!(
            inst.allocation_from_counts(&[1, 1]).unwrap_err(),
            InstanceError::WrongCountLength {
                comms: 6,
                entries: 2
            }
        ));
    }

    #[test]
    fn packed_allocations_for_all_paper_nws() {
        for nw in [4, 8, 12] {
            let inst = ProblemInstance::paper_with_wavelengths(nw);
            let alloc = inst.allocation_from_counts(&[1; 6]).unwrap();
            assert!(inst.checker().is_valid(&alloc), "NW = {nw}");
        }
    }
}
