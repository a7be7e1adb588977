//! The NSGA-II generational loop.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::nsga2::crowding::crowding_distances;
use crate::nsga2::operators::{binary_tournament, bitflip_mutation, two_point_crossover};
use crate::nsga2::sort::fast_nondominated_sort;
use crate::pareto::{FrontPoint, ParetoFront};
use crate::{Allocation, Evaluator, ObjectiveSet, Objectives};
use onoc_units::{Cycles, Femtojoules};

/// Configuration of one NSGA-II run.
///
/// The defaults reproduce the paper's setup (§IV): population 400,
/// 300 generations; crossover/mutation rates are not stated in the paper, so
/// the standard NSGA-II choices are used (pc = 0.9, pm = 1/genes).
#[derive(Debug, Clone, PartialEq)]
pub struct Nsga2Config {
    /// Individuals per generation (the paper uses 400).
    pub population_size: usize,
    /// Number of generations (the paper uses 300).
    pub generations: usize,
    /// Probability that a selected pair undergoes crossover.
    pub crossover_probability: f64,
    /// Per-gene mutation probability; `None` selects `1/gene_count`.
    pub mutation_probability: Option<f64>,
    /// RNG seed — runs are fully deterministic given a seed.
    pub seed: u64,
    /// Which objectives drive dominance.
    pub objectives: ObjectiveSet,
    /// Keep an archive of every distinct valid solution encountered; the
    /// returned front is then drawn from the whole search history (as in
    /// Fig. 7) instead of the final population only.
    pub track_archive: bool,
    /// Seed the initial population with the First-Fit allocation when one
    /// exists. On heavily constrained instances (dense waveguide-sharing
    /// graphs) random initialisation may contain no valid individual at
    /// all; one feasible seed is enough for selection pressure to take
    /// over.
    pub seed_with_heuristics: bool,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Self {
            population_size: 400,
            generations: 300,
            crossover_probability: 0.9,
            mutation_probability: None,
            seed: 42,
            objectives: ObjectiveSet::default(),
            track_archive: true,
            seed_with_heuristics: true,
        }
    }
}

/// One population member.
#[derive(Debug, Clone, PartialEq)]
pub struct Individual {
    /// The chromosome.
    pub allocation: Allocation,
    /// Its score; `None` marks a §III-D-invalid individual (the paper's
    /// "fitness = infinity").
    pub objectives: Option<Objectives>,
}

/// Search statistics, the raw material of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Nsga2Stats {
    /// Total chromosome evaluations (initial population + offspring).
    pub evaluations: usize,
    /// Evaluations that satisfied the §III-D constraints
    /// (Table II counts these as "valid solutions").
    pub valid_evaluations: usize,
    /// Distinct valid chromosomes encountered.
    pub unique_valid: usize,
    /// Generations executed.
    pub generations: usize,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Nsga2Outcome {
    /// The Pareto front (archive-wide if `track_archive`, else drawn from
    /// the final population).
    pub front: ParetoFront,
    /// The final population.
    pub final_population: Vec<Individual>,
    /// Search statistics.
    pub stats: Nsga2Stats,
}

/// The NSGA-II optimiser bound to an [`Evaluator`].
///
/// # Examples
///
/// ```
/// use onoc_wa::{Nsga2, Nsga2Config, ObjectiveSet, ProblemInstance};
///
/// let instance = ProblemInstance::paper_with_wavelengths(4);
/// let evaluator = instance.evaluator();
/// let outcome = Nsga2::new(&evaluator, Nsga2Config {
///     population_size: 40,
///     generations: 20,
///     objectives: ObjectiveSet::TimeEnergy,
///     seed: 1,
///     ..Nsga2Config::default()
/// }).run();
/// assert!(outcome.stats.valid_evaluations > 0);
/// assert!(!outcome.front.is_empty());
/// ```
#[derive(Debug)]
pub struct Nsga2<'e, 'i> {
    evaluator: &'e Evaluator<'i>,
    config: Nsga2Config,
}

impl<'e, 'i> Nsga2<'e, 'i> {
    /// Binds the algorithm to an evaluator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (population < 4, zero
    /// generations, or probabilities outside `[0, 1]`).
    #[must_use]
    pub fn new(evaluator: &'e Evaluator<'i>, config: Nsga2Config) -> Self {
        assert!(
            config.population_size >= 4,
            "population must hold at least 4 individuals, got {}",
            config.population_size
        );
        assert!(config.generations > 0, "need at least one generation");
        assert!(
            (0.0..=1.0).contains(&config.crossover_probability),
            "crossover probability must be in [0, 1]"
        );
        if let Some(pm) = config.mutation_probability {
            assert!(
                (0.0..=1.0).contains(&pm),
                "mutation probability must be in [0, 1]"
            );
        }
        Self { evaluator, config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &Nsga2Config {
        &self.config
    }

    /// Runs the optimisation.
    #[must_use]
    pub fn run(&self) -> Nsga2Outcome {
        self.run_with_observers(|_, _| {}, |_, _| {})
    }

    /// Runs the optimisation, invoking `observer(generation, front_so_far)`
    /// after every generation.
    #[must_use]
    pub fn run_with_observer(&self, observer: impl FnMut(usize, &ParetoFront)) -> Nsga2Outcome {
        self.run_with_observers(observer, |_, _| {})
    }

    /// Runs the optimisation with two observers: `observer` fires per
    /// generation, `on_eval` fires for every chromosome evaluation
    /// (`None` objectives = §III-D-invalid). The evaluation observer is how
    /// the Fig. 7 scatter of all explored valid solutions is collected.
    #[must_use]
    pub fn run_with_observers(
        &self,
        mut observer: impl FnMut(usize, &ParetoFront),
        mut on_eval: impl FnMut(&Allocation, Option<&Objectives>),
    ) -> Nsga2Outcome {
        let instance = self.evaluator.instance();
        let nl = instance.comm_count();
        let nw = instance.wavelength_count();
        let genes = nl * nw;
        let pm = self
            .config
            .mutation_probability
            .unwrap_or(1.0 / genes as f64);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut stats = Nsga2Stats::default();
        let mut archive = Archive::new(self.config.track_archive, self.config.objectives);
        let mut memo = Memo::default();

        // Initial population: sparse random chromosomes. A per-gene density
        // of ~2/NW keeps a healthy share of §III-D-valid individuals at
        // every comb size (dense uniform bits are almost always invalid for
        // wide combs).
        let density = (2.0 / nw as f64).min(0.5);
        let mut population: Vec<Individual> = Vec::with_capacity(self.config.population_size);
        if self.config.seed_with_heuristics {
            if let Ok(seeded) = crate::heuristics::first_fit(instance) {
                population.push(self.score(
                    seeded,
                    &mut memo,
                    &mut stats,
                    &mut archive,
                    &mut on_eval,
                ));
            }
        }
        while population.len() < self.config.population_size {
            let genes: Vec<bool> = (0..genes).map(|_| rng.random_bool(density)).collect();
            let allocation =
                Allocation::from_genes(genes, nw).expect("generated genes are aligned");
            population.push(self.score(
                allocation,
                &mut memo,
                &mut stats,
                &mut archive,
                &mut on_eval,
            ));
        }
        let mut fitness = self.rank_population(&population);

        for generation in 0..self.config.generations {
            // Variation: tournament parents, two-point crossover, mutation.
            let mut offspring = Vec::with_capacity(self.config.population_size);
            while offspring.len() < self.config.population_size {
                let pa = &population[binary_tournament(&mut rng, &fitness)];
                let pb = &population[binary_tournament(&mut rng, &fitness)];
                let (mut ca, mut cb) = if rng.random_bool(self.config.crossover_probability) {
                    two_point_crossover(&mut rng, &pa.allocation, &pb.allocation)
                } else {
                    (pa.allocation.clone(), pb.allocation.clone())
                };
                bitflip_mutation(&mut rng, &mut ca, pm);
                bitflip_mutation(&mut rng, &mut cb, pm);
                offspring.push(self.score(ca, &mut memo, &mut stats, &mut archive, &mut on_eval));
                if offspring.len() < self.config.population_size {
                    offspring.push(self.score(
                        cb,
                        &mut memo,
                        &mut stats,
                        &mut archive,
                        &mut on_eval,
                    ));
                }
            }

            // Environmental selection over parents ∪ offspring.
            let mut combined = population;
            combined.extend(offspring);
            (population, fitness) = self.select(combined);

            stats.generations = generation + 1;
            if self.config.track_archive {
                observer(generation, archive.front());
            } else {
                let front = self.population_front(&population);
                observer(generation, &front);
            }
        }

        if self.config.track_archive {
            stats.unique_valid = memo.len();
        }
        let front = if self.config.track_archive {
            archive.into_front()
        } else {
            self.population_front(&population)
        };
        Nsga2Outcome {
            front,
            final_population: population,
            stats,
        }
    }

    /// Scores a chromosome: from the memo when this run has scored the
    /// same genes valid before (evaluation is a pure function of the
    /// genes), else through the evaluator. It counts as an evaluation
    /// either way.
    fn score(
        &self,
        allocation: Allocation,
        memo: &mut Memo,
        stats: &mut Nsga2Stats,
        archive: &mut Archive,
        on_eval: &mut impl FnMut(&Allocation, Option<&Objectives>),
    ) -> Individual {
        let objectives = memo.get(&allocation).or_else(|| {
            let objectives = self.evaluator.evaluate(&allocation);
            if let Some(o) = objectives {
                memo.insert(o);
                archive.record(&allocation, o);
            }
            objectives
        });
        stats.evaluations += 1;
        if objectives.is_some() {
            stats.valid_evaluations += 1;
        }
        on_eval(&allocation, objectives.as_ref());
        Individual {
            allocation,
            objectives,
        }
    }

    /// Ranks a population: valid individuals by front and crowding, invalid
    /// ones all share the worst rank.
    fn rank_population(&self, population: &[Individual]) -> Vec<(usize, f64)> {
        let valid: Vec<usize> = (0..population.len())
            .filter(|&i| population[i].objectives.is_some())
            .collect();
        let objs: Vec<Vec<f64>> = valid
            .iter()
            .map(|&i| {
                population[i]
                    .objectives
                    .expect("filtered to valid")
                    .values(self.config.objectives)
            })
            .collect();
        let mut fitness = vec![(usize::MAX, 0.0f64); population.len()];
        if !valid.is_empty() {
            let fronts = fast_nondominated_sort(&objs);
            for (rank, front) in fronts.iter().enumerate() {
                let dists = crowding_distances(front, &objs);
                for (&local, dist) in front.iter().zip(dists) {
                    fitness[valid[local]] = (rank, dist);
                }
            }
        }
        fitness
    }

    /// NSGA-II environmental selection: keep the best `population_size` of
    /// the combined population (front by front, last front by crowding);
    /// invalid individuals fill leftover slots only when valids run out.
    fn select(&self, combined: Vec<Individual>) -> (Vec<Individual>, Vec<(usize, f64)>) {
        let n = self.config.population_size;
        let fitness = self.rank_population(&combined);
        let mut order: Vec<usize> = (0..combined.len()).collect();
        order.sort_by(|&a, &b| {
            fitness[a]
                .0
                .cmp(&fitness[b].0)
                .then_with(|| {
                    fitness[b]
                        .1
                        .partial_cmp(&fitness[a].1)
                        .expect("crowding distances are not NaN")
                })
                .then_with(|| a.cmp(&b)) // determinism
        });
        order.truncate(n);
        let mut keep = vec![false; combined.len()];
        for &i in &order {
            keep[i] = true;
        }
        let mut survivors = Vec::with_capacity(n);
        let mut survivor_fitness = Vec::with_capacity(n);
        for (i, ind) in combined.into_iter().enumerate() {
            if keep[i] {
                survivor_fitness.push(fitness[i]);
                survivors.push(ind);
            }
        }
        (survivors, survivor_fitness)
    }

    fn population_front(&self, population: &[Individual]) -> ParetoFront {
        ParetoFront::from_points(
            population
                .iter()
                .filter_map(|ind| {
                    ind.objectives.map(|o| FrontPoint {
                        allocation: ind.allocation.clone(),
                        objectives: o,
                        values: o.values(self.config.objectives),
                    })
                })
                .collect(),
        )
    }
}

/// The objectives of every distinct valid chromosome a run has scored.
///
/// One [`Scored`] record per chromosome, looked up by its genes packed 64
/// to a word. Hash order differs per process, so nothing iterates the set.
#[derive(Debug, Default)]
struct Memo {
    scored: HashSet<Scored>,
    /// The genes of the last [`Memo::get`], packed.
    key: Vec<u64>,
}

impl Memo {
    /// The objectives recorded for `allocation`'s genes; the genes stay
    /// packed for an [`insert`](Self::insert) that follows.
    fn get(&mut self, allocation: &Allocation) -> Option<Objectives> {
        self.key.clear();
        self.key.extend(allocation.genes().chunks(64).map(|chunk| {
            chunk
                .iter()
                .rev()
                .fold(0, |word, &g| word << 1 | u64::from(g))
        }));
        self.scored.get(self.key.as_slice()).map(Scored::objectives)
    }

    /// Records `objectives` for the genes of the last [`get`](Self::get).
    fn insert(&mut self, objectives: Objectives) {
        let record = self
            .key
            .iter()
            .copied()
            .chain([
                objectives.exec_time.value().to_bits(),
                objectives.bit_energy.value().to_bits(),
                objectives.avg_log_ber.to_bits(),
            ])
            .collect();
        self.scored.insert(Scored(record));
    }

    fn len(&self) -> usize {
        self.scored.len()
    }
}

/// One chromosome's packed genes followed by the bit patterns of its three
/// objectives, in one heap block; hashed and compared on the genes alone.
#[derive(Debug)]
struct Scored(Box<[u64]>);

impl Scored {
    const OBJECTIVES: usize = 3;

    fn genes(&self) -> &[u64] {
        &self.0[..self.0.len() - Self::OBJECTIVES]
    }

    fn objectives(&self) -> Objectives {
        let [exec_time, bit_energy, avg_log_ber] =
            [0, 1, 2].map(|i| f64::from_bits(self.0[self.0.len() - Self::OBJECTIVES + i]));
        Objectives {
            exec_time: Cycles::new(exec_time),
            bit_energy: Femtojoules::new(bit_energy),
            avg_log_ber,
        }
    }
}

impl PartialEq for Scored {
    fn eq(&self, other: &Self) -> bool {
        self.genes() == other.genes()
    }
}

impl Eq for Scored {}

impl Hash for Scored {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.genes().hash(state);
    }
}

impl Borrow<[u64]> for Scored {
    fn borrow(&self) -> &[u64] {
        self.genes()
    }
}

/// The non-dominated front of the distinct valid solutions a run has
/// scored, fed each one once.
#[derive(Debug)]
struct Archive {
    enabled: bool,
    set: ObjectiveSet,
    front: ParetoFront,
}

impl Archive {
    fn new(enabled: bool, set: ObjectiveSet) -> Self {
        Self {
            enabled,
            set,
            front: ParetoFront::default(),
        }
    }

    fn record(&mut self, allocation: &Allocation, objectives: Objectives) {
        if !self.enabled {
            return;
        }
        let _ = self.front.insert(FrontPoint {
            allocation: allocation.clone(),
            objectives,
            values: objectives.values(self.set),
        });
    }

    fn front(&self) -> &ParetoFront {
        &self.front
    }

    fn into_front(self) -> ParetoFront {
        self.front
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProblemInstance;

    fn small_config(set: ObjectiveSet, seed: u64) -> Nsga2Config {
        Nsga2Config {
            population_size: 40,
            generations: 25,
            objectives: set,
            seed,
            ..Nsga2Config::default()
        }
    }

    #[test]
    fn run_is_deterministic_under_seed() {
        let instance = ProblemInstance::paper_with_wavelengths(4);
        let ev = instance.evaluator();
        let run = |seed| {
            Nsga2::new(&ev, small_config(ObjectiveSet::TimeEnergy, seed))
                .run()
                .front
                .points()
                .iter()
                .map(|p| p.values.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        // And virtually always differs across seeds (not asserted strictly).
    }

    #[test]
    fn stats_account_for_every_evaluation() {
        let instance = ProblemInstance::paper_with_wavelengths(4);
        let ev = instance.evaluator();
        let config = small_config(ObjectiveSet::TimeEnergy, 3);
        let outcome = Nsga2::new(&ev, config.clone()).run();
        assert_eq!(
            outcome.stats.evaluations,
            config.population_size * (config.generations + 1)
        );
        assert!(outcome.stats.valid_evaluations <= outcome.stats.evaluations);
        assert!(outcome.stats.unique_valid <= outcome.stats.valid_evaluations);
        assert_eq!(outcome.stats.generations, config.generations);
        assert_eq!(outcome.final_population.len(), config.population_size);
    }

    #[test]
    fn front_solutions_are_valid_allocations() {
        let instance = ProblemInstance::paper_with_wavelengths(4);
        let ev = instance.evaluator();
        let outcome = Nsga2::new(&ev, small_config(ObjectiveSet::TimeEnergy, 5)).run();
        for p in outcome.front.points() {
            assert!(ev.checker().is_valid(&p.allocation));
        }
    }

    #[test]
    fn ga_finds_the_frugal_corner() {
        // The minimum-energy point [1,1,1,1,1,1] (38 kcc) must be on the
        // time-energy front, as in Fig. 6(a). A quick run needs a slightly
        // larger budget than the other tests to hit this exact corner of
        // the 2^24 gene space.
        let instance = ProblemInstance::paper_with_wavelengths(4);
        let ev = instance.evaluator();
        let config = Nsga2Config {
            population_size: 80,
            generations: 80,
            objectives: ObjectiveSet::TimeEnergy,
            seed: 11,
            ..Nsga2Config::default()
        };
        let outcome = Nsga2::new(&ev, config).run();
        let has_frugal = outcome
            .front
            .points()
            .iter()
            .any(|p| p.allocation.counts() == vec![1; 6]);
        assert!(
            has_frugal,
            "front lacks [1,1,1,1,1,1]: {:?}",
            outcome
                .front
                .points()
                .iter()
                .map(|p| p.allocation.counts())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn observer_sees_every_generation() {
        let instance = ProblemInstance::paper_with_wavelengths(4);
        let ev = instance.evaluator();
        let mut seen = Vec::new();
        let _ = Nsga2::new(&ev, small_config(ObjectiveSet::TimeEnergy, 2))
            .run_with_observer(|g, front| seen.push((g, front.len())));
        assert_eq!(seen.len(), 25);
        assert_eq!(seen[0].0, 0);
        assert_eq!(seen.last().unwrap().0, 24);
    }

    #[test]
    fn population_front_mode_works_without_archive() {
        let instance = ProblemInstance::paper_with_wavelengths(4);
        let ev = instance.evaluator();
        let config = Nsga2Config {
            track_archive: false,
            ..small_config(ObjectiveSet::TimeEnergy, 13)
        };
        let outcome = Nsga2::new(&ev, config).run();
        assert!(!outcome.front.is_empty());
        assert_eq!(outcome.stats.unique_valid, 0); // not tracked
    }

    /// The memo stands in for the evaluator: every objective `on_eval`
    /// sees equals a fresh evaluation of that chromosome, bit for bit, and
    /// `unique_valid` counts the distinct valid chromosomes it saw.
    #[test]
    fn memoised_objectives_equal_fresh_evaluations() {
        let bits = |o: Option<&Objectives>| {
            o.map(|o| [o.exec_time.value(), o.bit_energy.value(), o.avg_log_ber].map(f64::to_bits))
        };
        for nw in [4, 8, 12] {
            let instance = ProblemInstance::paper_with_wavelengths(nw);
            let ev = instance.evaluator();
            let fresh = instance.evaluator();
            for set in [
                ObjectiveSet::TimeEnergy,
                ObjectiveSet::TimeBer,
                ObjectiveSet::TimeEnergyBer,
            ] {
                for seed in [1, 2, 3] {
                    let mut scored = Vec::new();
                    let outcome = Nsga2::new(&ev, small_config(set, seed))
                        .run_with_observers(|_, _| {}, |a, o| scored.push((a.clone(), bits(o))));
                    let mut valid = HashSet::new();
                    for (allocation, objectives) in &scored {
                        assert_eq!(*objectives, bits(fresh.evaluate(allocation).as_ref()));
                        if objectives.is_some() {
                            valid.insert(allocation.genes().to_vec());
                        }
                    }
                    assert_eq!(
                        outcome.stats.unique_valid,
                        valid.len(),
                        "{nw} λ, {set}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_population_rejected() {
        let instance = ProblemInstance::paper_with_wavelengths(4);
        let ev = instance.evaluator();
        let _ = Nsga2::new(
            &ev,
            Nsga2Config {
                population_size: 2,
                ..Nsga2Config::default()
            },
        );
    }
}
