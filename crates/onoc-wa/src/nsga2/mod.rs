//! NSGA-II (Deb et al. \[4\]) specialised to wavelength allocation.
//!
//! The paper evolves a population of 400 binary chromosomes over 300
//! generations, marking §III-D-violating individuals with infinite fitness.
//! This module implements the full algorithm from scratch:
//!
//! * [`sort`] — fast non-dominated sorting,
//! * [`crowding`] — crowding-distance assignment,
//! * [`operators`] — binary tournament, two-point crossover, bit-flip
//!   mutation (the operators named in §III-D),
//! * [`algorithm`] — the generational loop, the valid-solution archive
//!   behind Table II and the Pareto front extraction behind Figs. 6–7.

pub(crate) mod algorithm;
pub mod crowding;
pub mod operators;
pub mod sort;

pub use algorithm::{Individual, Nsga2, Nsga2Config, Nsga2Outcome, Nsga2Stats};
