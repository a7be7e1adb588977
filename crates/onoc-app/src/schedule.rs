//! The global-execution-time model (Eqs. 10–12 of the paper).

use onoc_units::{BitsPerCycle, Cycles};

use crate::{CommId, TaskGraph, TaskGraphError, TaskId};

/// Errors raised by the schedule evaluator.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// The task graph is cyclic and admits no schedule.
    Cyclic,
    /// The wavelength-count vector length differs from the number of
    /// communications.
    WrongCountLength {
        /// Communications in the graph.
        comms: usize,
        /// Counts supplied.
        entries: usize,
    },
    /// A communication was allocated zero wavelengths but carries data.
    NoBandwidth(CommId),
}

impl core::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScheduleError::Cyclic => write!(f, "task graph contains a cycle"),
            ScheduleError::WrongCountLength { comms, entries } => {
                write!(
                    f,
                    "{entries} wavelength counts supplied for {comms} communications"
                )
            }
            ScheduleError::NoBandwidth(c) => {
                write!(f, "communication {c} has data but no wavelengths")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<TaskGraphError> for ScheduleError {
    fn from(e: TaskGraphError) -> Self {
        debug_assert_eq!(e, TaskGraphError::Cyclic, "unexpected graph error: {e}");
        ScheduleError::Cyclic
    }
}

/// The outcome of one schedule evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleResult {
    /// Completion time of each task (`t_end`), task id order.
    pub task_end: Vec<Cycles>,
    /// Transmission time of each communication (`T_{j,k}`, Eq. 10), comm id
    /// order.
    pub comm_time: Vec<Cycles>,
    /// Global execution time (Eq. 11): the latest task completion.
    pub makespan: Cycles,
}

/// Evaluator for the paper's analytic time model.
///
/// Eq. 10 gives each communication a transmission time
/// `T = V / (NW · B)` where `NW` is the number of reserved wavelengths and
/// `B` the per-wavelength data rate; Eq. 12 propagates completion times
/// through the DAG; Eq. 11 takes the maximum.
///
/// The evaluator pre-computes the topological order once so that the
/// genetic algorithm can re-evaluate thousands of allocations cheaply.
///
/// # Examples
///
/// ```
/// use onoc_app::{Schedule, workloads};
/// use onoc_units::BitsPerCycle;
///
/// let app = workloads::paper_mapped_application();
/// let schedule = Schedule::new(app.graph(), BitsPerCycle::new(1.0))?;
/// let one_each = schedule.evaluate(&[1; 6])?;
/// let max_bw = schedule.evaluate(&[8, 8, 8, 8, 8, 8])?;
/// assert!(max_bw.makespan < one_each.makespan);
/// # Ok::<(), onoc_app::ScheduleError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Schedule<'a> {
    graph: &'a TaskGraph,
    rate: BitsPerCycle,
    topo: Vec<TaskId>,
}

impl<'a> Schedule<'a> {
    /// Creates an evaluator for `graph` with per-wavelength data rate
    /// `rate` (`B` in Eq. 10).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Cyclic`] for cyclic graphs.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn new(graph: &'a TaskGraph, rate: BitsPerCycle) -> Result<Self, ScheduleError> {
        assert!(
            rate.value() > 0.0,
            "per-wavelength data rate must be strictly positive, got {rate}"
        );
        let topo = graph.topological_order()?;
        Ok(Self { graph, rate, topo })
    }

    /// The underlying task graph.
    #[must_use]
    pub fn graph(&self) -> &TaskGraph {
        self.graph
    }

    /// The per-wavelength data rate.
    #[must_use]
    pub fn rate(&self) -> BitsPerCycle {
        self.rate
    }

    /// Evaluates the schedule for the given wavelength counts (one entry per
    /// communication, comm id order).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if the count vector has the wrong length or
    /// any communication has zero wavelengths.
    pub fn evaluate(
        &self,
        wavelengths_per_comm: &[usize],
    ) -> Result<ScheduleResult, ScheduleError> {
        if wavelengths_per_comm.len() != self.graph.comm_count() {
            return Err(ScheduleError::WrongCountLength {
                comms: self.graph.comm_count(),
                entries: wavelengths_per_comm.len(),
            });
        }
        let mut comm_time = Vec::with_capacity(self.graph.comm_count());
        for ((id, c), &nw) in self.graph.comms().zip(wavelengths_per_comm) {
            if nw == 0 {
                return Err(ScheduleError::NoBandwidth(id));
            }
            comm_time.push(c.volume() / (self.rate * nw as f64));
        }
        Ok(self.propagate(comm_time))
    }

    /// The makespan in the limit of unbounded bandwidth (all transmission
    /// times zero): the paper's "Min exe time" asymptote.
    #[must_use]
    pub fn min_makespan(&self) -> Cycles {
        let zeros = vec![Cycles::ZERO; self.graph.comm_count()];
        self.propagate(zeros).makespan
    }

    fn propagate(&self, comm_time: Vec<Cycles>) -> ScheduleResult {
        let mut task_end = vec![Cycles::ZERO; self.graph.task_count()];
        for &t in &self.topo {
            // Eq. 12: t_end = t_p + max over predecessors (t_end_pred + T).
            let ready = self
                .graph
                .incoming(t)
                .iter()
                .map(|&c| task_end[self.graph.comm(c).src().0] + comm_time[c.0])
                .fold(Cycles::ZERO, Cycles::max);
            task_end[t.0] = ready + self.graph.task(t).execution_time();
        }
        let makespan = task_end.iter().copied().fold(Cycles::ZERO, Cycles::max);
        ScheduleResult {
            task_end,
            comm_time,
            makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use onoc_units::Bits;
    use proptest::prelude::*;

    fn chain() -> TaskGraph {
        let mut tg = TaskGraph::new();
        let a = tg.add_task("a", Cycles::new(100.0));
        let b = tg.add_task("b", Cycles::new(100.0));
        let c = tg.add_task("c", Cycles::new(100.0));
        tg.add_comm(a, b, Bits::new(400.0)).unwrap();
        tg.add_comm(b, c, Bits::new(800.0)).unwrap();
        tg
    }

    #[test]
    fn chain_makespan_by_hand() {
        let tg = chain();
        let s = Schedule::new(&tg, BitsPerCycle::new(1.0)).unwrap();
        // 100 + 400/2 + 100 + 800/4 + 100 = 700.
        let r = s.evaluate(&[2, 4]).unwrap();
        assert_eq!(r.makespan, Cycles::new(700.0));
        assert_eq!(r.comm_time, vec![Cycles::new(200.0), Cycles::new(200.0)]);
        assert_eq!(
            r.task_end,
            vec![Cycles::new(100.0), Cycles::new(400.0), Cycles::new(700.0)]
        );
    }

    #[test]
    fn min_makespan_ignores_communications() {
        let tg = chain();
        let s = Schedule::new(&tg, BitsPerCycle::new(1.0)).unwrap();
        assert_eq!(s.min_makespan(), Cycles::new(300.0));
    }

    #[test]
    fn paper_anchor_one_wavelength_each() {
        // DESIGN.md S1/S2: the [1,1,1,1,1,1] allocation runs in 38 kcc.
        let app = workloads::paper_mapped_application();
        let s = Schedule::new(app.graph(), BitsPerCycle::new(1.0)).unwrap();
        let r = s.evaluate(&[1; 6]).unwrap();
        assert_eq!(r.makespan.to_kilocycles(), 38.0);
    }

    #[test]
    fn paper_anchor_minimum() {
        let app = workloads::paper_mapped_application();
        let s = Schedule::new(app.graph(), BitsPerCycle::new(1.0)).unwrap();
        assert_eq!(s.min_makespan().to_kilocycles(), 20.0);
    }

    #[test]
    fn paper_anchor_best_counts() {
        // The best count vectors reconstructed for NW = 4, 8, 12
        // (DESIGN.md S2) land on ~28, 24 and ~22.8 kcc.
        let app = workloads::paper_mapped_application();
        let s = Schedule::new(app.graph(), BitsPerCycle::new(1.0)).unwrap();
        let m4 = s.evaluate(&[2, 2, 4, 2, 2, 4]).unwrap().makespan;
        assert_eq!(m4.to_kilocycles(), 28.0);
        let m8 = s.evaluate(&[3, 5, 8, 4, 4, 8]).unwrap().makespan;
        assert_eq!(m8.to_kilocycles(), 24.0);
        let m12 = s.evaluate(&[4, 8, 12, 6, 6, 12]).unwrap().makespan;
        assert!((m12.to_kilocycles() - 22.8333).abs() < 1e-3);
    }

    #[test]
    fn zero_wavelengths_rejected() {
        let tg = chain();
        let s = Schedule::new(&tg, BitsPerCycle::new(1.0)).unwrap();
        assert_eq!(
            s.evaluate(&[1, 0]),
            Err(ScheduleError::NoBandwidth(CommId(1)))
        );
    }

    #[test]
    fn wrong_length_rejected() {
        let tg = chain();
        let s = Schedule::new(&tg, BitsPerCycle::new(1.0)).unwrap();
        assert_eq!(
            s.evaluate(&[1]),
            Err(ScheduleError::WrongCountLength {
                comms: 2,
                entries: 1
            })
        );
    }

    #[test]
    fn cyclic_graph_rejected() {
        let mut tg = TaskGraph::new();
        let a = tg.add_task("a", Cycles::new(1.0));
        let b = tg.add_task("b", Cycles::new(1.0));
        tg.add_comm(a, b, Bits::new(1.0)).unwrap();
        tg.add_comm(b, a, Bits::new(1.0)).unwrap();
        assert_eq!(
            Schedule::new(&tg, BitsPerCycle::new(1.0)).err(),
            Some(ScheduleError::Cyclic)
        );
    }

    proptest! {
        /// Adding wavelengths to any communication never slows the
        /// application down (monotonicity of Eqs. 10–12).
        #[test]
        fn makespan_is_monotone_in_wavelengths(
            counts in proptest::collection::vec(1usize..12, 6),
            extra_at in 0usize..6,
        ) {
            let app = workloads::paper_mapped_application();
            let s = Schedule::new(app.graph(), BitsPerCycle::new(1.0)).unwrap();
            let base = s.evaluate(&counts).unwrap().makespan;
            let mut more = counts.clone();
            more[extra_at] += 1;
            let improved = s.evaluate(&more).unwrap().makespan;
            prop_assert!(improved <= base);
        }

        /// The makespan never drops below the zero-communication bound and
        /// approaches it as bandwidth grows.
        #[test]
        fn makespan_bounded_below(counts in proptest::collection::vec(1usize..64, 6)) {
            let app = workloads::paper_mapped_application();
            let s = Schedule::new(app.graph(), BitsPerCycle::new(1.0)).unwrap();
            let m = s.evaluate(&counts).unwrap().makespan;
            prop_assert!(m >= s.min_makespan());
        }

        /// Doubling the data rate is equivalent to doubling every count.
        #[test]
        fn rate_and_counts_are_interchangeable(counts in proptest::collection::vec(1usize..8, 6)) {
            let app = workloads::paper_mapped_application();
            let slow = Schedule::new(app.graph(), BitsPerCycle::new(1.0)).unwrap();
            let fast = Schedule::new(app.graph(), BitsPerCycle::new(2.0)).unwrap();
            let doubled: Vec<usize> = counts.iter().map(|&c| 2 * c).collect();
            let a = slow.evaluate(&doubled).unwrap().makespan;
            let b = fast.evaluate(&counts).unwrap().makespan;
            prop_assert!((a.value() - b.value()).abs() < 1e-9);
        }
    }
}
