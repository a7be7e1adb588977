//! Reproducibility: every stochastic component is exactly deterministic
//! under a fixed seed, and deterministic components are pure.

use rand::SeedableRng;
use rand::rngs::StdRng;
use ring_wdm_onoc::prelude::*;
use ring_wdm_onoc::wa::{heuristics, mapping_search};

#[test]
fn ga_runs_are_bit_identical_per_seed() {
    let instance = ProblemInstance::paper_with_wavelengths(8);
    let evaluator = instance.evaluator();
    let run = |seed: u64| {
        let outcome = Nsga2::new(
            &evaluator,
            Nsga2Config {
                population_size: 50,
                generations: 20,
                objectives: ObjectiveSet::TimeEnergyBer,
                seed,
                ..Nsga2Config::default()
            },
        )
        .run();
        (
            outcome
                .front
                .points()
                .iter()
                .map(|p| (p.allocation.genes().to_vec(), p.values.clone()))
                .collect::<Vec<_>>(),
            outcome.stats,
        )
    };
    assert_eq!(run(123), run(123));
    let (front_a, _) = run(123);
    let (front_b, _) = run(124);
    assert_ne!(
        front_a, front_b,
        "different seeds should explore differently"
    );
}

#[test]
fn evaluation_is_pure() {
    let instance = ProblemInstance::paper_with_wavelengths(12);
    let evaluator = instance.evaluator();
    let alloc = instance
        .allocation_from_counts(&[2, 8, 6, 6, 4, 7])
        .unwrap();
    let a = evaluator.evaluate(&alloc).unwrap();
    let b = evaluator.evaluate(&alloc).unwrap();
    assert_eq!(a, b);
}

#[test]
fn random_heuristic_is_seed_deterministic() {
    let instance = ProblemInstance::paper_with_wavelengths(8);
    let a = heuristics::random_single(&instance, &mut StdRng::seed_from_u64(9), 1000).unwrap();
    let b = heuristics::random_single(&instance, &mut StdRng::seed_from_u64(9), 1000).unwrap();
    assert_eq!(a, b);
}

#[test]
fn mapping_search_is_seed_deterministic() {
    let arch = OnocArchitecture::paper_architecture(4);
    let graph = ring_wdm_onoc::app::workloads::paper_task_graph();
    let config = mapping_search::MappingSearchConfig {
        iterations: 20,
        restarts: 2,
        seed: 77,
        options: EvalOptions::default(),
    };
    let a = mapping_search::optimize_mapping(&arch, &graph, &config);
    let b = mapping_search::optimize_mapping(&arch, &graph, &config);
    assert_eq!(a.mapping, b.mapping);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.evaluated, b.evaluated);
}

#[test]
fn simulator_is_pure() {
    let instance = ProblemInstance::paper_with_wavelengths(8);
    let alloc = instance
        .allocation_from_counts(&[3, 4, 8, 5, 3, 8])
        .unwrap();
    let run = || {
        Simulator::new(instance.app(), &alloc, instance.options().rate)
            .unwrap()
            .run()
            .unwrap()
    };
    assert_eq!(run(), run());
}

#[test]
fn workload_generators_are_seed_deterministic() {
    use ring_wdm_onoc::app::workloads;
    let config = workloads::LayeredDagConfig::default();
    let a = workloads::random_layered_dag(&mut StdRng::seed_from_u64(5), &config);
    let b = workloads::random_layered_dag(&mut StdRng::seed_from_u64(5), &config);
    assert_eq!(a, b);
    let ma = workloads::random_mapping(&mut StdRng::seed_from_u64(5), 6, 16);
    let mb = workloads::random_mapping(&mut StdRng::seed_from_u64(5), 6, 16);
    assert_eq!(ma, mb);
}

#[test]
fn dynamic_simulator_is_pure() {
    use ring_wdm_onoc::sim::DynamicPolicy;

    let instance = ProblemInstance::paper_with_wavelengths(8);
    let run = || {
        Simulator::dynamic(
            instance.app(),
            8,
            instance.options().rate,
            DynamicPolicy::Greedy { cap: 4 },
        )
        .and_then(|sim| sim.run())
        .unwrap()
    };
    assert_eq!(run(), run());
}

#[test]
fn traffic_traces_are_seed_deterministic() {
    let config = TrafficConfig::paper_ring(TrafficPattern::UniformRandom, 0.02, 11);
    assert_eq!(generate(&config), generate(&config));
    let reseeded = TrafficConfig {
        seed: 12,
        ..config.clone()
    };
    assert_ne!(generate(&config), generate(&reseeded));
}

#[test]
fn open_loop_reports_are_pure() {
    use ring_wdm_onoc::sim::DynamicPolicy;
    use ring_wdm_onoc::topology::RingTopology;

    let config = TrafficConfig::paper_ring(TrafficPattern::BitReversal, 0.03, 5);
    let trace = generate(&config);
    let sim = OpenLoopSimulator::new(
        RingTopology::new(16),
        8,
        BitsPerCycle::new(1.0),
        WavelengthMode::Dynamic(DynamicPolicy::Single),
    );
    let a = sim.run(trace.source()).unwrap();
    let b = sim.run(trace.source()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn sweeps_are_identical_across_thread_counts() {
    use ring_wdm_onoc::traffic::run_sweep;

    let grid = SweepGrid {
        injection_rates: vec![0.005, 0.02],
        horizon: 2_000,
        ..SweepGrid::saturation_default(33)
    };
    let serial = run_sweep(&grid, 1);
    let parallel = run_sweep(&grid, 3);
    let more_parallel = run_sweep(&grid, 7);
    assert_eq!(serial.results, parallel.results);
    assert_eq!(parallel.results, more_parallel.results);
    // And the whole sweep is a pure function of the grid.
    assert_eq!(parallel.results, run_sweep(&grid, 3).results);
}

#[test]
fn closed_loop_reports_are_pure_and_thread_count_independent() {
    use ring_wdm_onoc::sim::DynamicPolicy;
    use ring_wdm_onoc::topology::RingTopology;
    use ring_wdm_onoc::traffic::run_sweep;

    // Engine level: one closed-loop run is a pure function of its input.
    let config = TrafficConfig::paper_ring(TrafficPattern::UniformRandom, 0.05, 5);
    let trace = generate(&config);
    for injection in [
        InjectionMode::Credit { window: 2 },
        InjectionMode::Ecn { threshold: 0.3 },
    ] {
        let sim = OpenLoopSimulator::with_injection(
            RingTopology::new(16),
            4,
            BitsPerCycle::new(1.0),
            WavelengthMode::Dynamic(DynamicPolicy::Single),
            injection,
        );
        let a = sim.run(trace.source()).unwrap();
        let b = sim.run(trace.source()).unwrap();
        assert_eq!(a, b, "{injection:?}");
    }

    // Sweep level: credit-gated sweeps are bit-identical for any worker
    // head-count, like their open-loop counterparts.
    let grid = SweepGrid {
        injection_rates: vec![0.005, 0.08],
        horizon: 2_000,
        injection: InjectionMode::Credit { window: 2 },
        ..SweepGrid::saturation_default(34)
    };
    let serial = run_sweep(&grid, 1);
    let parallel = run_sweep(&grid, 5);
    assert_eq!(serial.results, parallel.results);
    assert!(
        serial.results.iter().any(|r| r.stall_mean > 0.0),
        "the saturated points must exercise the credit gate"
    );
}
