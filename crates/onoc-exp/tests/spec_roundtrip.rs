//! Property-style round-trip coverage for the spec serializers: any
//! builder-valid [`ScenarioSpec`] must survive
//! `parse(serialize(spec)) == spec` through both the TOML-subset and the
//! JSON serializer, and the two document forms must agree.

use onoc_exp::{
    AllocatorSpec, DefragKind, HeuristicKind, KernelKind, Scale, ScenarioSpec, ServiceSpec,
    WorkloadSpec,
};
use onoc_sim::{DynamicPolicy, FlowAllocPolicy, InjectionMode};
use onoc_topology::NodeId;
use onoc_traffic::TrafficPattern;
use onoc_wa::{GrantPolicy, ObjectiveSet};
use proptest::prelude::*;

/// Draws one arbitrary-but-valid spec from the sampled raw material.
/// (The vendored proptest stub has no `Strategy` composition for enums,
/// so the enum choices are decoded from sampled integers.)
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn decode_spec(
    name_salt: usize,
    seed: u64,
    scale_pick: usize,
    objectives_pick: usize,
    nodes_pick: usize,
    wavelengths: usize,
    workload_pick: usize,
    allocator_pick: usize,
    rate_millis: usize,
    stages: usize,
    lanes: usize,
) -> ScenarioSpec {
    let scale = [Scale::Paper, Scale::Quick, Scale::Smoke][scale_pick % 3];
    let objectives = [
        ObjectiveSet::TimeEnergy,
        ObjectiveSet::TimeBer,
        ObjectiveSet::TimeEnergyBer,
    ][objectives_pick % 3];
    #[allow(clippy::cast_precision_loss)]
    let rate = (rate_millis % 1000) as f64 / 1000.0;
    let patterns = [
        TrafficPattern::UniformRandom,
        TrafficPattern::Transpose,
        TrafficPattern::BitReversal,
        TrafficPattern::BitComplement,
        TrafficPattern::NearestNeighbor,
        TrafficPattern::Hotspot {
            hotspots: vec![NodeId(0), NodeId(1)],
            fraction: 0.25,
        },
    ];
    // Open-loop workloads may use any ring ≥ 2; closed-loop kernels keep
    // task counts ≤ nodes, and the paper app pins 16.
    let nodes = 2 + nodes_pick % 31;
    let (workload, nodes) = match workload_pick % 4 {
        0 => (WorkloadSpec::PaperApp, 16),
        1 => (
            WorkloadSpec::Kernel {
                kind: [
                    KernelKind::Pipeline,
                    KernelKind::ForkJoin,
                    KernelKind::Butterfly,
                    KernelKind::ReductionTree,
                ][stages % 4],
                stages: 1 + stages % 3,
                exec_kcc: 2.5,
                volume_kbits: 4.0,
                mapping_seed: seed ^ 0xabcd,
            },
            16.max(nodes),
        ),
        2 => (
            WorkloadSpec::Synthetic {
                pattern: patterns[name_salt % patterns.len()].clone(),
                injection_rate: rate,
                message_bits: 256.0,
                horizon: 4_000,
                burstiness: if seed.is_multiple_of(2) {
                    None
                } else {
                    Some((40.0, 160.0))
                },
            },
            nodes,
        ),
        _ => (
            WorkloadSpec::Sweep {
                patterns: vec![
                    patterns[name_salt % patterns.len()].clone(),
                    TrafficPattern::UniformRandom,
                ],
                injection_rates: vec![0.004, rate.clamp(0.001, 0.9)],
                wavelengths: vec![1 + wavelengths % 16, 8],
                ring_sizes: vec![nodes, 16],
                message_bits: 512.0,
                horizon: 6_000,
                burstiness: None,
            },
            nodes,
        ),
    };
    let closed_loop = matches!(
        workload,
        WorkloadSpec::PaperApp | WorkloadSpec::Kernel { .. }
    );
    let sweep = matches!(workload, WorkloadSpec::Sweep { .. });
    let nw = 1 + wavelengths % 64;
    let allocator = if sweep {
        AllocatorSpec::Dynamic {
            policy: if allocator_pick.is_multiple_of(2) {
                DynamicPolicy::Single
            } else {
                DynamicPolicy::Greedy { cap: 1 + lanes % 8 }
            },
        }
    } else if closed_loop {
        match allocator_pick % 4 {
            0 => AllocatorSpec::Nsga2 {
                population: lanes.is_multiple_of(2).then_some(40 + lanes),
                generations: stages.is_multiple_of(2).then_some(10 + stages),
            },
            1 => AllocatorSpec::Heuristic {
                kind: HeuristicKind::all()[lanes % 5],
            },
            2 => AllocatorSpec::Counts { counts: vec![1; 6] },
            _ => AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Single,
            },
        }
    } else {
        match allocator_pick % 3 {
            0 => AllocatorSpec::Dynamic {
                policy: DynamicPolicy::Greedy { cap: 1 + lanes % 4 },
            },
            1 => AllocatorSpec::FlowSynthesis {
                policy: match lanes % 3 {
                    0 => FlowAllocPolicy::FirstFit,
                    1 => FlowAllocPolicy::Relaxed,
                    _ => FlowAllocPolicy::Proportional {
                        max_lanes_per_flow: 1 + lanes % 8,
                    },
                },
                spares: (lanes % 2) * (nw.saturating_sub(1) / 2),
            },
            _ => AllocatorSpec::Striped {
                lanes_per_flow: 1 + lanes % nw,
            },
        }
    };
    // Closed-loop injection applies to the message-stream workloads only.
    let injection = if closed_loop {
        InjectionMode::Open
    } else {
        match (rate_millis + stages) % 3 {
            0 => InjectionMode::Open,
            1 => InjectionMode::Credit {
                window: 1 + stages % 8,
            },
            _ => InjectionMode::Ecn {
                threshold: 0.25 + ((rate_millis % 3) as f64) * 0.25,
            },
        }
    };
    // The `[service]` table only composes with session-bearing workloads
    // (synthetic churn / trace replay); exercise it on the synthetic arm.
    let service = matches!(workload, WorkloadSpec::Synthetic { .. }).then(|| {
        let defrag = match stages % 4 {
            0 => None,
            1 => Some(DefragKind::Never),
            2 => Some(DefragKind::Threshold),
            _ => Some(DefragKind::Idle),
        };
        ServiceSpec {
            sessions: lanes.is_multiple_of(2).then_some(10 + stages),
            arrival_rate: seed.is_multiple_of(2).then_some(0.001 + rate * 0.05),
            mean_hold: seed.is_multiple_of(3).then_some(250.0),
            max_demand: lanes.is_multiple_of(3).then_some(1 + lanes % nw),
            policy: allocator_pick
                .is_multiple_of(2)
                .then_some(GrantPolicy::Shared),
            defrag,
            defrag_threshold: (defrag == Some(DefragKind::Threshold)).then_some(0.5),
            defrag_idle: (defrag == Some(DefragKind::Idle)).then_some(1 + stages as u64 * 100),
            max_wait: seed.is_multiple_of(5).then_some(1_000),
            trace_demand: None,
            stretch: None,
        }
    });
    let mut builder = ScenarioSpec::builder(format!("prop-{name_salt}"))
        .seed(seed)
        .scale(scale)
        .objectives(objectives)
        .nodes(nodes)
        .wavelengths(nw)
        .workload(workload)
        .allocator(allocator)
        .injection(injection);
    if let Some(service) = service {
        builder = builder.service(service);
    }
    builder
        .build()
        .expect("decoded specs are valid by construction")
}

proptest! {
    #[test]
    fn specs_round_trip_through_toml_and_json(
        name_salt in 0usize..1000,
        seed in 0u64..1_000_000,
        scale_pick in 0usize..3,
        objectives_pick in 0usize..3,
        nodes_pick in 0usize..31,
        wavelengths in 0usize..64,
        workload_pick in 0usize..4,
        allocator_pick in 0usize..4,
        rate_millis in 0usize..1000,
        stages in 0usize..12,
        lanes in 0usize..16,
    ) {
        let spec = decode_spec(
            name_salt, seed, scale_pick, objectives_pick, nodes_pick,
            wavelengths, workload_pick, allocator_pick, rate_millis,
            stages, lanes,
        );
        let toml = spec.to_toml();
        let from_toml = ScenarioSpec::from_toml_str(&toml)
            .expect("serialized TOML re-parses");
        prop_assert_eq!(&from_toml, &spec);

        let json = spec.to_json();
        let from_json = ScenarioSpec::from_json_str(&json)
            .expect("serialized JSON re-parses");
        prop_assert_eq!(&from_json, &spec);

        // The two document forms describe the same value.
        prop_assert_eq!(spec.to_value().to_json(), json);
    }
}

#[test]
fn second_serialization_is_a_fixed_point() {
    let spec = decode_spec(7, 99, 1, 2, 5, 11, 2, 1, 250, 4, 3);
    let once = spec.to_toml();
    let twice = ScenarioSpec::from_toml_str(&once).unwrap().to_toml();
    assert_eq!(once, twice, "serialize ∘ parse must be idempotent");
}

#[test]
fn every_example_spec_parses() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut parsed = 0;
    for entry in std::fs::read_dir(dir).expect("examples directory") {
        let path = entry.expect("directory entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable example");
        if let Err(e) = ScenarioSpec::from_toml_str(&text) {
            panic!("{}: {e}", path.display());
        }
        parsed += 1;
    }
    assert!(parsed >= 8, "found only {parsed} example specs");
}
