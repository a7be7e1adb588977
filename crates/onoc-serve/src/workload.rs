//! Session workloads: who asks for lanes, when, and for how long.

use onoc_sim::TrafficEvent;
use onoc_topology::NodeId;
use onoc_traffic::TrafficRng;

/// One flow session offered to the service: a source/destination pair
/// asking for `demand` wavelengths from `arrival` until
/// `arrival + wait + hold` (the hold clock starts when the grant lands,
/// not when the request arrives).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionRequest {
    /// Stable session identifier (unique per workload).
    pub id: u64,
    /// Cycle the request is offered.
    pub arrival: u64,
    /// Producing ONI.
    pub src: NodeId,
    /// Consuming ONI.
    pub dst: NodeId,
    /// Wavelengths requested.
    pub demand: usize,
    /// Cycles the session holds its lanes once granted (≥ 1).
    pub hold: u64,
}

/// Seeded Poisson session churn: exponential inter-arrival times at
/// `arrival_rate` sessions per cycle, uniform endpoints, uniform demand
/// in `1..=max_demand`, and exponentially distributed hold times with
/// mean `mean_hold` cycles.
///
/// The generator is deterministic in `seed`: arrivals, endpoints,
/// demands, and holds each draw from an independent
/// [`TrafficRng`] split, so changing one knob (say `max_demand`) never
/// perturbs the arrival clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonWorkload {
    /// ONIs on the ring (endpoints are drawn uniformly, `src != dst`).
    pub nodes: usize,
    /// Number of sessions to offer.
    pub sessions: usize,
    /// Mean arrivals per cycle (λ of the Poisson process).
    pub arrival_rate: f64,
    /// Mean lane-holding time in cycles once granted.
    pub mean_hold: f64,
    /// Demands are uniform in `1..=max_demand` wavelengths.
    pub max_demand: usize,
    /// Workload seed.
    pub seed: u64,
}

/// A session workload whose clock leaves `u64` cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadError {
    /// Session `session` would arrive at cycle `cycle`, which does not fit
    /// a `u64`.
    Arrival {
        /// The session's id.
        session: u64,
        /// Its arrival cycle.
        cycle: f64,
    },
    /// Session `session` would hold its lanes for `cycles`, which does not
    /// fit a `u64`.
    Hold {
        /// The session's id.
        session: u64,
        /// Its holding time.
        cycles: f64,
    },
}

impl core::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WorkloadError::Arrival { session, cycle } => write!(
                f,
                "session {session} would arrive at cycle {cycle:e}, past the last cycle a run can reach ({})",
                u64::MAX
            ),
            WorkloadError::Hold { session, cycles } => write!(
                f,
                "session {session} would hold its lanes for {cycles:e} cycles, more than a run can count ({})",
                u64::MAX
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// `cycles` (a whole number, or infinite) as a `u64`, or `None` when it
/// does not fit, where `as` would saturate.
fn whole_cycles(cycles: f64) -> Option<u64> {
    // 2^64, the first float past `u64::MAX`.
    const PAST_U64: f64 = 18_446_744_073_709_551_616.0;
    (cycles < PAST_U64).then_some(cycles as u64)
}

impl PoissonWorkload {
    /// Materialises the request sequence, ordered by arrival cycle.
    ///
    /// # Panics
    ///
    /// Panics where [`PoissonWorkload::try_generate`] panics or returns an
    /// error.
    #[must_use]
    pub fn generate(&self) -> Vec<SessionRequest> {
        self.try_generate().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Materialises the request sequence, ordered by arrival cycle.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] for the first session whose arrival cycle
    /// or holding time does not fit a `u64`: an `arrival_rate` or a
    /// `mean_hold` too far from one session per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2` (a session needs distinct endpoints),
    /// `max_demand == 0`, or `arrival_rate`/`mean_hold` are not
    /// strictly positive finite numbers.
    pub fn try_generate(&self) -> Result<Vec<SessionRequest>, WorkloadError> {
        assert!(self.nodes >= 2, "sessions need at least 2 ONIs");
        assert!(self.max_demand >= 1, "max_demand must be at least 1 lane");
        assert!(
            self.arrival_rate.is_finite() && self.arrival_rate > 0.0,
            "arrival_rate must be positive, got {}",
            self.arrival_rate
        );
        assert!(
            self.mean_hold.is_finite() && self.mean_hold > 0.0,
            "mean_hold must be positive, got {}",
            self.mean_hold
        );
        let root = TrafficRng::new(self.seed);
        let mut arrivals = root.split(0x5e55_10a5);
        let mut endpoints = root.split(0xe17d_0f10);
        let mut demands = root.split(0xd317_a11d);
        let mut holds = root.split(0x401d_71ae);
        let mean_gap = 1.0 / self.arrival_rate;
        let mut clock = 0.0f64;
        let mut requests = Vec::with_capacity(self.sessions);
        for session in 0..self.sessions as u64 {
            clock += exponential(&mut arrivals, mean_gap);
            let src = endpoints.below(self.nodes);
            let mut dst = endpoints.below(self.nodes - 1);
            if dst >= src {
                dst += 1;
            }
            let arrival = clock.floor();
            let hold = exponential(&mut holds, self.mean_hold).ceil();
            requests.push(SessionRequest {
                id: session,
                arrival: whole_cycles(arrival).ok_or(WorkloadError::Arrival {
                    session,
                    cycle: arrival,
                })?,
                src: NodeId(src),
                dst: NodeId(dst),
                demand: 1 + demands.below(self.max_demand),
                hold: whole_cycles(hold)
                    .ok_or(WorkloadError::Hold {
                        session,
                        cycles: hold,
                    })?
                    .max(1),
            });
        }
        Ok(requests)
    }
}

/// One exponential draw with the given mean (inverse-CDF method; the
/// `1 - u` guard keeps `ln` off zero).
fn exponential(rng: &mut TrafficRng, mean: f64) -> f64 {
    -mean * (1.0 - rng.next_f64()).ln()
}

/// Converts a recorded arrival trace (the PR 3/5 replay format) into a
/// session workload: each trace message becomes a session arriving at
/// its offered cycle, asking for `demand` lanes and holding them long
/// enough to drain its volume at 1 bit/cycle/lane
/// (`ceil(volume / demand)`, at least one cycle).
///
/// `stretch` scales the replayed arrival clock (2.0 = half the offered
/// load), matching the serve CLI's rate knob.
///
/// # Errors
///
/// Returns [`WorkloadError`] for the first session whose stretched arrival
/// cycle or holding time does not fit a `u64`.
///
/// # Panics
///
/// Panics if `demand == 0` or `stretch` is not a strictly positive
/// finite number.
pub fn sessions_from_trace(
    events: &[TrafficEvent],
    demand: usize,
    stretch: f64,
) -> Result<Vec<SessionRequest>, WorkloadError> {
    assert!(demand >= 1, "trace sessions need at least 1 lane");
    assert!(
        stretch.is_finite() && stretch > 0.0,
        "stretch must be positive, got {stretch}"
    );
    let mut requests = Vec::with_capacity(events.len());
    for (event, session) in events.iter().zip(0..) {
        let arrival = ((event.time as f64) * stretch).floor();
        let hold = (event.volume.value() / demand as f64).ceil();
        requests.push(SessionRequest {
            id: session,
            arrival: whole_cycles(arrival).ok_or(WorkloadError::Arrival {
                session,
                cycle: arrival,
            })?,
            src: event.src,
            dst: event.dst,
            demand,
            hold: whole_cycles(hold)
                .ok_or(WorkloadError::Hold {
                    session,
                    cycles: hold,
                })?
                .max(1),
        });
    }
    Ok(requests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoc_units::Bits;

    #[test]
    fn poisson_workload_is_deterministic_and_ordered() {
        let spec = PoissonWorkload {
            nodes: 8,
            sessions: 200,
            arrival_rate: 0.05,
            mean_hold: 120.0,
            max_demand: 3,
            seed: 2017,
        };
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b, "same seed must reproduce the same workload");
        assert_eq!(a.len(), 200);
        for pair in a.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival, "arrivals out of order");
        }
        for req in &a {
            assert_ne!(req.src, req.dst);
            assert!(req.src.0 < 8 && req.dst.0 < 8);
            assert!((1..=3).contains(&req.demand));
            assert!(req.hold >= 1);
        }
    }

    #[test]
    fn demand_knob_leaves_the_arrival_clock_alone() {
        let base = PoissonWorkload {
            nodes: 6,
            sessions: 50,
            arrival_rate: 0.02,
            mean_hold: 200.0,
            max_demand: 1,
            seed: 9,
        };
        let wide = PoissonWorkload {
            max_demand: 4,
            ..base
        };
        let a = base.generate();
        let b = wide.generate();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival, y.arrival, "split streams must be independent");
            assert_eq!((x.src, x.dst), (y.src, y.dst));
        }
    }

    #[test]
    fn trace_sessions_hold_long_enough_to_drain_their_volume() {
        let events = vec![
            TrafficEvent {
                time: 10,
                src: NodeId(0),
                dst: NodeId(3),
                volume: Bits::new(640.0),
            },
            TrafficEvent {
                time: 25,
                src: NodeId(2),
                dst: NodeId(1),
                volume: Bits::new(1.0),
            },
        ];
        let sessions = sessions_from_trace(&events, 2, 1.0).unwrap();
        assert_eq!(sessions[0].arrival, 10);
        assert_eq!(sessions[0].hold, 320);
        assert_eq!(sessions[1].hold, 1, "tiny volumes still hold one cycle");
        let slowed = sessions_from_trace(&events, 2, 2.0).unwrap();
        assert_eq!(slowed[0].arrival, 20, "stretch rescales the clock");
    }
}
