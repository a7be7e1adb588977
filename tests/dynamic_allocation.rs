//! Integration: static design-time allocation vs the dynamic runtime
//! allocator, across the facade.

use ring_wdm_onoc::prelude::*;
use ring_wdm_onoc::sim::DynamicPolicy;
use ring_wdm_onoc::wa::exhaustive;

#[test]
fn full_burst_dynamic_bounds_the_static_optimum_from_below() {
    for nw in [4usize, 8, 12] {
        let instance = ProblemInstance::paper_with_wavelengths(nw);
        let evaluator = instance.evaluator();
        let (_, static_best) = exhaustive::time_optimal_counts(&instance, &evaluator);
        let dynamic = Simulator::dynamic(
            instance.app(),
            nw,
            instance.options().rate,
            DynamicPolicy::Greedy { cap: nw },
        )
        .and_then(|sim| sim.run())
        .unwrap();
        assert!(
            (dynamic.makespan as f64) <= static_best.value() + 1e-9,
            "NW = {nw}: dynamic {} should lower-bound static {static_best}",
            dynamic.makespan
        );
        // And neither can beat the zero-communication asymptote.
        assert!(dynamic.makespan >= 20_000);
    }
}

#[test]
fn single_lane_dynamic_equals_the_frugal_static_schedule_when_uncontended() {
    // With ≥ 2 wavelengths the paper app never blocks under Single policy,
    // so the dynamic run must reproduce the [1,…,1] static schedule.
    let instance = ProblemInstance::paper_with_wavelengths(4);
    let frugal = instance.allocation_from_counts(&[1; 6]).unwrap();
    let static_run = Simulator::new(instance.app(), &frugal, instance.options().rate)
        .unwrap()
        .run()
        .unwrap();
    let dynamic = Simulator::dynamic(
        instance.app(),
        4,
        instance.options().rate,
        DynamicPolicy::Single,
    )
    .and_then(|sim| sim.run())
    .unwrap();
    assert_eq!(dynamic.makespan, static_run.makespan);
    assert_eq!(dynamic.blocked_attempts, 0);
}

#[test]
fn dynamic_single_on_one_wavelength_serialises() {
    let instance = ProblemInstance::paper_with_wavelengths(1);
    let dynamic = Simulator::dynamic(
        instance.app(),
        1,
        instance.options().rate,
        DynamicPolicy::Single,
    )
    .and_then(|sim| sim.run())
    .unwrap();
    assert!(dynamic.blocked_attempts > 0);
    assert!(dynamic.makespan > 38_000);
    assert!(dynamic.conflicts.is_empty());
}

#[test]
fn dynamic_gap_shrinks_as_the_comb_grows() {
    // The advantage of runtime bursts over the static optimum diminishes
    // once the static allocation already saturates the useful bandwidth.
    let gap = |nw: usize| {
        let instance = ProblemInstance::paper_with_wavelengths(nw);
        let evaluator = instance.evaluator();
        let (_, static_best) = exhaustive::time_optimal_counts(&instance, &evaluator);
        let dynamic = Simulator::dynamic(
            instance.app(),
            nw,
            instance.options().rate,
            DynamicPolicy::Greedy { cap: nw },
        )
        .and_then(|sim| sim.run())
        .unwrap();
        static_best.value() - dynamic.makespan as f64
    };
    let gap4 = gap(4);
    let gap8 = gap(8);
    assert!(
        gap8 <= gap4,
        "dynamic advantage should shrink: 4λ gap {gap4}, 8λ gap {gap8}"
    );
}
