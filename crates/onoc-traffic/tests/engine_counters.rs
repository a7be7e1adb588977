//! Pins the open-loop core's [`EngineCounters`] on the repository
//! benchmark's `sweep-uniform-64n` workload at seed 1: uniform traffic at
//! six rates from 0.001 to 0.016 on 64 nodes × 32 λ, dynamic single-lane
//! claims, 512-bit messages over 200 000 cycles. The traces are the ones
//! `run_scenario_phased` generates for that grid, so the message count is
//! the benchmark's.
//!
//! Blocked heads are woken only when a lane the release freed is free on
//! their whole path. Each waiter the lane test rejects would have cost a
//! failed claim before it, so `claims + waiters_examined −
//! waiters_passed` is the claim count of waking every waiter on a
//! released segment with a full claim (the unit tests hold the two
//! against each other).
//!
//! The sweep takes about 7 s in a debug build and 1 s in a release build.

use onoc_sim::{
    DynamicPolicy, EngineCounters, OpenLoopSimulator, ReportMode, SimScratch, WavelengthMode,
};
use onoc_topology::RingTopology;
use onoc_traffic::{SweepGrid, TrafficConfig, TrafficPattern, TrafficRng, generate};
use onoc_units::{Bits, BitsPerCycle};

#[test]
fn seed_1_uniform_sweep_counters_are_pinned() {
    let grid = SweepGrid {
        patterns: vec![TrafficPattern::UniformRandom],
        injection_rates: vec![0.001, 0.002, 0.004, 0.008, 0.012, 0.016],
        wavelengths: vec![32],
        ring_sizes: vec![64],
        horizon: 200_000,
        ..SweepGrid::saturation_default(1)
    };
    let mut scratch = SimScratch::new();
    let (mut messages, mut pushed, mut popped) = (0usize, 0u64, 0u64);
    let mut sum = EngineCounters::default();
    for scenario in grid.scenarios() {
        let config = TrafficConfig {
            nodes: scenario.nodes,
            pattern: scenario.pattern.clone(),
            injection_rate: scenario.injection_rate,
            message_volume: Bits::new(512.0),
            horizon: grid.horizon,
            seed: TrafficRng::new(grid.seed)
                .split(scenario.index as u64)
                .next_u64(),
            burstiness: None,
        };
        let trace = generate(&config);
        let sim = OpenLoopSimulator::new(
            RingTopology::new(scenario.nodes),
            scenario.wavelengths,
            BitsPerCycle::new(1.0),
            WavelengthMode::Dynamic(DynamicPolicy::Single),
        );
        scratch.set_flow_rows(Some(trace.flow_rows(scenario.nodes)));
        let report = sim
            .run_with_scratch(trace.source(), &mut scratch, ReportMode::Streaming)
            .unwrap();
        let c = report.counters;
        assert_eq!(c.grants, report.message_count as u64, "one start each");
        messages += report.message_count;
        pushed += c.pushed;
        popped += c.popped.total();
        sum.claims += c.claims;
        sum.grants += c.grants;
        sum.waiters_examined += c.waiters_examined;
        sum.waiters_passed += c.waiters_passed;
    }
    assert_eq!(pushed, popped, "every pushed event pops");
    assert_eq!(pushed, 1_102_956, "an offer and a completion per message");
    assert_eq!(messages, 551_478);
    assert_eq!(
        (
            sum.claims,
            sum.grants,
            sum.waiters_examined,
            sum.waiters_passed
        ),
        (871_802, 551_478, 6_788_477, 320_324)
    );
    assert_eq!(
        sum.claims + sum.waiters_examined - sum.waiters_passed,
        7_339_955,
        "claims when every waiter on a released segment is claimed"
    );
}
