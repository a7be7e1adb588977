//! The three-objective evaluation pipeline.

use std::cell::RefCell;

use onoc_app::{Schedule, ScheduleError};
use onoc_photonics::WavelengthId;
use onoc_topology::{SpectrumError, SpectrumWalker};
use onoc_units::{Cycles, Femtojoules, Milliwatts};

use crate::heuristics::lanes;
use crate::{Allocation, ProblemInstance, ValidityChecker, Violation};

/// The three objective values of one valid allocation (all minimised).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    /// Global execution time (Eq. 11).
    pub exec_time: Cycles,
    /// Average transmitter energy per transmitted bit.
    pub bit_energy: Femtojoules,
    /// `log10` of the average bit error rate over all receivers.
    pub avg_log_ber: f64,
}

impl Objectives {
    /// Projects the objectives onto a minimisation vector for the given set.
    #[must_use]
    pub fn values(&self, set: ObjectiveSet) -> Vec<f64> {
        match set {
            ObjectiveSet::TimeEnergy => {
                vec![self.exec_time.to_kilocycles(), self.bit_energy.value()]
            }
            ObjectiveSet::TimeBer => vec![self.exec_time.to_kilocycles(), self.avg_log_ber],
            ObjectiveSet::TimeEnergyBer => vec![
                self.exec_time.to_kilocycles(),
                self.bit_energy.value(),
                self.avg_log_ber,
            ],
        }
    }
}

/// Which objectives the optimiser should trade off.
///
/// The paper formulates all three but reports Pareto fronts per pair:
/// Fig. 6(a) uses `TimeEnergy`, Fig. 6(b)/7 use `TimeBer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ObjectiveSet {
    /// Execution time vs bit energy (Fig. 6a).
    TimeEnergy,
    /// Execution time vs average BER (Figs. 6b and 7).
    TimeBer,
    /// The full three-objective problem.
    #[default]
    TimeEnergyBer,
}

impl ObjectiveSet {
    /// Number of objectives in the set.
    #[must_use]
    pub fn arity(self) -> usize {
        match self {
            ObjectiveSet::TimeEnergy | ObjectiveSet::TimeBer => 2,
            ObjectiveSet::TimeEnergyBer => 3,
        }
    }
}

impl core::fmt::Display for ObjectiveSet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ObjectiveSet::TimeEnergy => write!(f, "time+energy"),
            ObjectiveSet::TimeBer => write!(f, "time+ber"),
            ObjectiveSet::TimeEnergyBer => write!(f, "time+energy+ber"),
        }
    }
}

/// Why an allocation could not be scored.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The allocation violates a §III-D validity constraint; the GA treats
    /// this as infinite fitness.
    Invalid(Violation),
    /// The schedule model rejected the allocation.
    Schedule(ScheduleError),
    /// The optical model rejected the allocation.
    Spectrum(SpectrumError),
}

impl core::fmt::Display for EvalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EvalError::Invalid(v) => write!(f, "invalid allocation: {v}"),
            EvalError::Schedule(e) => write!(f, "schedule error: {e}"),
            EvalError::Spectrum(e) => write!(f, "spectrum error: {e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<Violation> for EvalError {
    fn from(v: Violation) -> Self {
        EvalError::Invalid(v)
    }
}

impl From<ScheduleError> for EvalError {
    fn from(e: ScheduleError) -> Self {
        EvalError::Schedule(e)
    }
}

impl From<SpectrumError> for EvalError {
    fn from(e: SpectrumError) -> Self {
        EvalError::Spectrum(e)
    }
}

/// Scores allocations against a [`ProblemInstance`].
///
/// The pipeline per allocation:
///
/// 1. validity check (§III-D) — invalid allocations score `None`,
/// 2. schedule evaluation (Eqs. 10–12) → execution time,
/// 3. spectrum analysis (Eqs. 6–8) → per-receiver signal, crosstalk, loss,
/// 4. BER model (Eq. 9) → average `log10(BER)`,
/// 5. energy model, the reproduction's own (the paper motivates it without
///    giving one): each laser is sized to deliver the photodetector target
///    power through its path loss; the OOK duty factor and the laser
///    wall-plug efficiency convert optical power into electrical energy
///    per bit.
///
/// Step 3 runs one [`SpectrumWalker`] over the instance's routes, built at
/// the first allocation that reaches it and reused, buffers included, by
/// every later call. An evaluator therefore serves one thread at a time
/// (it is not `Sync`).
///
/// # Examples
///
/// ```
/// use onoc_wa::ProblemInstance;
///
/// let instance = ProblemInstance::paper_with_wavelengths(8);
/// let evaluator = instance.evaluator();
///
/// let frugal = instance.allocation_from_counts(&[1; 6]).unwrap();
/// let fast = instance.allocation_from_counts(&[3, 5, 8, 4, 4, 8]).unwrap();
/// let o_frugal = evaluator.evaluate(&frugal).unwrap();
/// let o_fast = evaluator.evaluate(&fast).unwrap();
///
/// // The paper's headline trade-off: faster costs energy and BER.
/// assert!(o_fast.exec_time < o_frugal.exec_time);
/// assert!(o_fast.bit_energy > o_frugal.bit_energy);
/// assert!(o_fast.avg_log_ber > o_frugal.avg_log_ber);
/// ```
#[derive(Debug)]
pub struct Evaluator<'a> {
    instance: &'a ProblemInstance,
    schedule: Schedule<'a>,
    checker: ValidityChecker,
    scratch: RefCell<Scratch>,
}

/// What [`Evaluator::evaluate_checked`] keeps from one call to the next.
#[derive(Debug, Default)]
struct Scratch {
    /// Channel mask of each communication.
    masks: Vec<u128>,
    /// Wavelength count of each communication.
    counts: Vec<usize>,
    /// Built lazily: its `N_W²` Lorentzian table costs more than the rest
    /// of the evaluator's setup.
    spectrum: Option<SpectrumWalker>,
}

impl<'a> Evaluator<'a> {
    /// Builds the evaluator (called by
    /// [`ProblemInstance::evaluator`]).
    #[must_use]
    pub(crate) fn new(instance: &'a ProblemInstance) -> Self {
        let schedule = Schedule::new(instance.app().graph(), instance.options().rate)
            .expect("ProblemInstance::new validated acyclicity");
        let checker = instance.checker();
        Self {
            instance,
            schedule,
            checker,
            scratch: RefCell::default(),
        }
    }

    /// The underlying instance.
    #[must_use]
    pub fn instance(&self) -> &ProblemInstance {
        self.instance
    }

    /// The validity checker used for step 1.
    #[must_use]
    pub fn checker(&self) -> &ValidityChecker {
        &self.checker
    }

    /// Scores an allocation, or returns the precise failure reason.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::Invalid`] for §III-D violations and wraps model
    /// errors otherwise.
    pub fn evaluate_checked(&self, allocation: &Allocation) -> Result<Objectives, EvalError> {
        let scratch = &mut *self.scratch.borrow_mut();
        self.checker.check_masks(allocation, &mut scratch.masks)?;

        // Step 2: execution time.
        scratch.counts.clear();
        scratch
            .counts
            .extend(scratch.masks.iter().map(|m| m.count_ones() as usize));
        let schedule = self.schedule.evaluate(&scratch.counts)?;

        // Step 3: optical spectrum.
        let app = self.instance.app();
        let walker = scratch.spectrum.get_or_insert_with(|| {
            SpectrumWalker::new(
                self.instance.arch(),
                app.graph().comms().map(|(id, _)| (id.0, *app.route(id))),
                self.instance.options().crosstalk_model,
            )
        });
        let reports = walker.analyze(
            scratch
                .masks
                .iter()
                .enumerate()
                .flat_map(|(k, &mask)| lanes(mask).map(move |w| (k, WavelengthId(w)))),
        )?;

        // Step 4: average BER.
        let convention = self.instance.options().ber_convention;
        let mean_ber = reports
            .iter()
            .map(|r| r.signal_noise().ber(convention))
            .sum::<f64>()
            / reports.len() as f64;
        let avg_log_ber = mean_ber.log10();

        // Step 5: energy per bit.
        let arch = self.instance.arch();
        let clock = self.instance.options().clock;
        // OOK sends ones and zeros with equal probability; the zero level is
        // `extinction` below the one level.
        let extinction = (arch.laser().power_off() - arch.laser().power_on()).to_linear();
        let duty = 0.5 * (1.0 + extinction);
        let mut energy = Femtojoules::ZERO;
        let mut total_bits = 0.0;
        for r in reports {
            let launch = arch.detector().required_launch_power(r.path_loss);
            let electrical: Milliwatts =
                arch.laser().electrical_power(launch.to_milliwatts()) * duty;
            let duration = schedule.comm_time[r.transmission].to_seconds(clock);
            energy += Femtojoules::from_power(electrical, duration);
        }
        for (_, c) in app.graph().comms() {
            total_bits += c.volume().value();
        }
        let bit_energy = energy / total_bits;

        Ok(Objectives {
            exec_time: schedule.makespan,
            bit_energy,
            avg_log_ber,
        })
    }

    /// Scores an allocation; `None` means the §III-D constraints are
    /// violated (the paper's "fitness = infinity" case).
    ///
    /// # Panics
    ///
    /// Panics if the allocation passes the validity check but the physical
    /// model still rejects it — that would be a bug in the checker, not a
    /// property of the input.
    #[must_use]
    pub fn evaluate(&self, allocation: &Allocation) -> Option<Objectives> {
        match self.evaluate_checked(allocation) {
            Ok(o) => Some(o),
            Err(EvalError::Invalid(_)) => None,
            Err(e) => panic!("validity checker admitted an unphysical allocation: {e}"),
        }
    }

    /// Scores an allocation and projects it onto `set`'s minimisation
    /// vector.
    #[must_use]
    pub fn objective_values(&self, allocation: &Allocation, set: ObjectiveSet) -> Option<Vec<f64>> {
        self.evaluate(allocation).map(|o| o.values(set))
    }

    /// Fast path: validity check plus schedule only (no optical model).
    ///
    /// Execution time depends only on the wavelength *counts*, so greedy
    /// search loops that compare makespans can skip the spectrum walk —
    /// about an order of magnitude cheaper per candidate (7–15× on the
    /// paper's 8-λ instance: 0.24–0.43 µs against 2.6–4.2 µs for a warm
    /// [`Evaluator::evaluate`], over the 400 valid chromosomes of a
    /// seed-1 `ga-paper-8l` final population on a 2-vCPU x86-64 host).
    #[must_use]
    pub fn makespan(&self, allocation: &Allocation) -> Option<onoc_units::Cycles> {
        self.checker.check(allocation).ok()?;
        self.schedule
            .evaluate(&allocation.counts())
            .ok()
            .map(|r| r.makespan)
    }
}

#[cfg(test)]
#[path = "../../onoc-topology/src/spectrum_oracle.rs"]
mod spectrum_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EvalOptions;
    use onoc_app::workloads::{LayeredDagConfig, random_layered_dag, random_mapping};
    use onoc_app::{Mapping, RouteStrategy};
    use onoc_photonics::BerConvention;
    use onoc_topology::{
        CrosstalkModel, OnocArchitecture, RingTopology, SpectrumEngine, Transmission,
    };
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl Evaluator<'_> {
        /// `evaluate_checked` as it was before step 3 moved onto a reused
        /// walker, kept as its oracle with the per-receiver walk as the
        /// spectrum step: fresh transmissions, a fresh engine, and no table
        /// or buffer shared with `evaluate_checked`.
        fn evaluate_checked_oracle(
            &self,
            allocation: &Allocation,
        ) -> Result<Objectives, EvalError> {
            self.checker.check(allocation)?;

            // Step 2: execution time.
            let counts = allocation.counts();
            let schedule = self.schedule.evaluate(&counts)?;

            // Step 3: optical spectrum.
            let app = self.instance.app();
            let traffic: Vec<Transmission> = app
                .graph()
                .comms()
                .map(|(id, _)| Transmission::new(id.0, *app.route(id), allocation.channels(id)))
                .collect();
            let engine = SpectrumEngine::with_model(
                self.instance.arch(),
                &traffic,
                self.instance.options().crosstalk_model,
            )?;
            let reports = super::spectrum_oracle::analyze_per_receiver(
                self.instance.arch(),
                engine.traffic(),
                engine.model(),
            )?;

            // Step 4: average BER.
            let convention = self.instance.options().ber_convention;
            let mean_ber = reports
                .iter()
                .map(|r| r.signal_noise().ber(convention))
                .sum::<f64>()
                / reports.len() as f64;
            let avg_log_ber = mean_ber.log10();

            // Step 5: energy per bit.
            let arch = self.instance.arch();
            let clock = self.instance.options().clock;
            let extinction = (arch.laser().power_off() - arch.laser().power_on()).to_linear();
            let duty = 0.5 * (1.0 + extinction);
            let mut energy = Femtojoules::ZERO;
            let mut total_bits = 0.0;
            for r in &reports {
                let launch = arch.detector().required_launch_power(r.path_loss);
                let electrical: Milliwatts =
                    arch.laser().electrical_power(launch.to_milliwatts()) * duty;
                let duration = schedule.comm_time[r.transmission].to_seconds(clock);
                energy += Femtojoules::from_power(electrical, duration);
            }
            for (_, c) in app.graph().comms() {
                total_bits += c.volume().value();
            }
            let bit_energy = energy / total_bits;

            Ok(Objectives {
                exec_time: schedule.makespan,
                bit_energy,
                avg_log_ber,
            })
        }
    }

    /// An evaluation outcome with every float as its bit pattern, so `==`
    /// is bit-for-bit equality.
    fn outcome_bits(outcome: Result<Objectives, EvalError>) -> Result<[u64; 3], EvalError> {
        outcome
            .map(|o| [o.exec_time.value(), o.bit_energy.value(), o.avg_log_ber].map(f64::to_bits))
    }

    /// The paper application, or a random layered DAG randomly mapped on
    /// the paper's 16-node ring, on an `nw`-channel comb.
    fn random_instance(
        rng: &mut StdRng,
        paper: bool,
        nw: usize,
        options: EvalOptions,
    ) -> ProblemInstance {
        let app = if paper {
            onoc_app::workloads::paper_mapped_application()
        } else {
            let config = LayeredDagConfig {
                layers: rng.random_range(2usize..5),
                width: rng.random_range(1usize..4),
                ..LayeredDagConfig::default()
            };
            let graph = random_layered_dag(rng, &config);
            let nodes = random_mapping(rng, graph.task_count(), 16);
            let mapping = Mapping::new(&graph, nodes).unwrap();
            onoc_app::MappedApplication::new(
                graph,
                mapping,
                RingTopology::new(16),
                RouteStrategy::Shortest,
            )
            .unwrap()
        };
        ProblemInstance::new(OnocArchitecture::paper_architecture(nw), app, options).unwrap()
    }

    /// Allocations of every kind for `inst`: valid packings, sparse and
    /// dense random genes (mostly overlapping), low-channel dense packings,
    /// valid ones with one communication emptied, and one of another
    /// comb size.
    fn random_allocations(rng: &mut StdRng, inst: &ProblemInstance) -> Vec<Allocation> {
        let (nl, nw) = (inst.comm_count(), inst.wavelength_count());
        let mut out = Vec::new();
        let mut valid = Vec::new();
        valid.extend(crate::heuristics::first_fit(inst).ok());
        for _ in 0..8 {
            let counts: Vec<usize> = (0..nl).map(|_| rng.random_range(1..=nw.min(6))).collect();
            valid.extend(inst.allocation_from_counts(&counts).ok());
            out.extend(Allocation::from_counts_dense(&counts, nw).ok());
            let density: f64 = if rng.random_bool(0.5) {
                2.0 / nw as f64
            } else {
                0.5
            };
            let density = density.min(0.5);
            let genes = (0..nl * nw).map(|_| rng.random_bool(density)).collect();
            out.push(Allocation::from_genes(genes, nw).unwrap());
        }
        for v in &valid {
            let mut emptied = v.clone();
            let comm = onoc_app::CommId(rng.random_range(0..nl));
            for w in 0..nw {
                emptied.set(comm, WavelengthId(w), false);
            }
            out.push(emptied);
        }
        out.extend(valid);
        out.push(Allocation::new(nl, nw + 1));
        out
    }

    fn instance(nw: usize) -> ProblemInstance {
        ProblemInstance::paper_with_wavelengths(nw)
    }

    #[test]
    fn frugal_allocation_hits_anchor_time() {
        let inst = instance(4);
        let ev = inst.evaluator();
        let alloc = inst.allocation_from_counts(&[1; 6]).unwrap();
        let o = ev.evaluate(&alloc).unwrap();
        assert_eq!(o.exec_time.to_kilocycles(), 38.0);
    }

    #[test]
    fn invalid_allocation_scores_none() {
        let inst = instance(4);
        let ev = inst.evaluator();
        let dense = Allocation::from_counts_dense(&[1; 6], 4).unwrap();
        assert_eq!(ev.evaluate(&dense), None);
        assert!(matches!(
            ev.evaluate_checked(&dense),
            Err(EvalError::Invalid(_))
        ));
    }

    #[test]
    fn ber_lands_in_paper_window() {
        // Valid allocations of the paper instance should produce average
        // log10(BER) within (or very near) the −3.7…−3.0 band of Fig. 6(b).
        let inst = instance(8);
        let ev = inst.evaluator();
        for counts in [[1, 1, 1, 1, 1, 1], [3, 5, 8, 4, 4, 8], [2, 4, 3, 3, 2, 3]] {
            let alloc = inst.allocation_from_counts(&counts).unwrap();
            let o = ev.evaluate(&alloc).unwrap();
            assert!(
                (-3.9..=-2.8).contains(&o.avg_log_ber),
                "counts {counts:?} gave log BER {}",
                o.avg_log_ber
            );
        }
    }

    #[test]
    fn energy_grows_with_wavelength_count() {
        let inst = instance(12);
        let ev = inst.evaluator();
        let frugal = inst.allocation_from_counts(&[1; 6]).unwrap();
        let rich = inst.allocation_from_counts(&[2, 8, 6, 6, 4, 7]).unwrap();
        let o1 = ev.evaluate(&frugal).unwrap();
        let o2 = ev.evaluate(&rich).unwrap();
        assert!(
            o2.bit_energy > o1.bit_energy,
            "rich {} should cost more than frugal {}",
            o2.bit_energy,
            o1.bit_energy
        );
    }

    #[test]
    fn energy_calibration_magnitude() {
        // Fig. 6(a) spans roughly 3.5–8 fJ/bit.
        let inst = instance(12);
        let ev = inst.evaluator();
        let frugal = ev
            .evaluate(&inst.allocation_from_counts(&[1; 6]).unwrap())
            .unwrap();
        assert!(
            frugal.bit_energy.value() > 1.0 && frugal.bit_energy.value() < 6.0,
            "frugal bit energy {} outside the calibrated band",
            frugal.bit_energy
        );
        let rich = ev
            .evaluate(&inst.allocation_from_counts(&[2, 8, 6, 6, 4, 7]).unwrap())
            .unwrap();
        assert!(
            rich.bit_energy.value() > frugal.bit_energy.value() * 1.2
                && rich.bit_energy.value() < 20.0,
            "rich bit energy {} outside the calibrated band",
            rich.bit_energy
        );
    }

    #[test]
    fn linear_convention_reports_far_lower_ber() {
        let inst = ProblemInstance::new(
            instance(8).arch().clone(),
            onoc_app::workloads::paper_mapped_application(),
            EvalOptions {
                ber_convention: BerConvention::Linear,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        let ev = inst.evaluator();
        let alloc = inst.allocation_from_counts(&[1; 6]).unwrap();
        let o = ev.evaluate(&alloc).unwrap();
        assert!(
            o.avg_log_ber < -8.0,
            "linear-convention log BER should be tiny, got {}",
            o.avg_log_ber
        );
    }

    #[test]
    fn elementwise_crosstalk_is_no_worse() {
        let paper = instance(8);
        let elementwise = ProblemInstance::new(
            paper.arch().clone(),
            onoc_app::workloads::paper_mapped_application(),
            EvalOptions {
                crosstalk_model: CrosstalkModel::Elementwise,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        let alloc = paper.allocation_from_counts(&[3, 5, 8, 4, 4, 8]).unwrap();
        let a = paper.evaluator().evaluate(&alloc).unwrap();
        let b = elementwise.evaluator().evaluate(&alloc).unwrap();
        assert!(b.avg_log_ber <= a.avg_log_ber);
    }

    #[test]
    fn objective_set_projection() {
        let o = Objectives {
            exec_time: Cycles::from_kilocycles(28.0),
            bit_energy: Femtojoules::new(4.0),
            avg_log_ber: -3.3,
        };
        assert_eq!(o.values(ObjectiveSet::TimeEnergy), vec![28.0, 4.0]);
        assert_eq!(o.values(ObjectiveSet::TimeBer), vec![28.0, -3.3]);
        assert_eq!(o.values(ObjectiveSet::TimeEnergyBer), vec![28.0, 4.0, -3.3]);
        assert_eq!(ObjectiveSet::TimeEnergy.arity(), 2);
        assert_eq!(ObjectiveSet::TimeEnergyBer.arity(), 3);
    }

    proptest! {
        /// `evaluate_checked` returns, bit for bit, what the per-receiver
        /// oracle returns, errors included, for allocations of every kind
        /// on the paper application and on random DAGs, under both
        /// crosstalk models and both BER conventions; and one evaluator
        /// scoring the same allocations again in shuffled order returns the
        /// same bits, so no state leaks from one call into the next.
        #[test]
        fn evaluations_match_the_per_receiver_oracle(
            paper in any::<bool>(),
            comb in 0usize..8,
            elementwise in any::<bool>(),
            linear in any::<bool>(),
            seed in 0u64..u64::MAX,
        ) {
            let nw = [1, 2, 4, 8, 12, 16, 64, 128][comb];
            let options = EvalOptions {
                crosstalk_model: if elementwise {
                    CrosstalkModel::Elementwise
                } else {
                    CrosstalkModel::PaperFirstOrder
                },
                ber_convention: if linear { BerConvention::Linear } else { BerConvention::PaperDb },
                ..EvalOptions::default()
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = random_instance(&mut rng, paper, nw, options);
            let ev = inst.evaluator();
            let allocations = random_allocations(&mut rng, &inst);
            let mut scored = Vec::new();
            for a in &allocations {
                let got = outcome_bits(ev.evaluate_checked(a));
                prop_assert_eq!(&got, &outcome_bits(ev.evaluate_checked_oracle(a)), "{}", a);
                scored.push(got);
            }
            let mut order: Vec<usize> = (0..allocations.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.random_range(0..=i));
            }
            for i in order {
                prop_assert_eq!(&outcome_bits(ev.evaluate_checked(&allocations[i])), &scored[i]);
            }
        }

        /// Every valid allocation produced by count packing evaluates to
        /// finite objectives within physical bounds.
        #[test]
        fn valid_allocations_always_score(
            c0 in 1usize..4, c2 in 1usize..8, c3 in 1usize..4, c5 in 1usize..8,
        ) {
            let inst = instance(8);
            let ev = inst.evaluator();
            let counts = [c0, 4 - c0.min(3), c2, c3, 4 - c3.min(3), c5];
            if let Ok(alloc) = inst.allocation_from_counts(&counts) {
                let o = ev.evaluate(&alloc).expect("packed allocations are valid");
                prop_assert!(o.exec_time.is_finite());
                prop_assert!(o.bit_energy.is_finite() && o.bit_energy.value() > 0.0);
                prop_assert!(o.avg_log_ber.is_finite() && o.avg_log_ber < 0.0);
            }
        }
    }
}
