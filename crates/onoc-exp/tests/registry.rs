//! Registry completeness + golden CSV headers: every experiment named by
//! `onoc list` must run (at smoke scale) and must emit its canonical
//! machine-readable artifact under the documented header — downstream
//! extraction scripts key on these. The same run pins each experiment's
//! artifact bytes: an FNV-1a digest of the text rendering and of the
//! JSON document, so a renderer change that moves one byte fails here.
//! On a mismatch the test prints the whole observed table, ready to
//! paste over `ARTIFACT_PINS` once a change of output is intended.

use onoc_exp::{Registry, RunContext, Scale};
use onoc_traffic::SweepOutcome;

/// FNV-1a 64-bit digest of an artifact's bytes.
fn fnv1a(bytes: &str) -> u64 {
    bytes.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The text with each sweep narrative's "Workers used: N of M." count
/// replaced by `_`: N counts the threads that found work, which depends
/// on scheduling, so the digest covers every other byte.
fn mask_worker_counts(text: &str) -> String {
    const KEY: &str = "Workers used: ";
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at + KEY.len()]);
        rest = rest[at + KEY.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
        out.push('_');
    }
    out.push_str(rest);
    out
}

/// `(experiment, render() digest, to_json() digest)` at smoke scale,
/// seed default, two threads; the text is digested through
/// `mask_worker_counts`.
const ARTIFACT_PINS: &[(&str, u64, u64)] = &[
    ("table1", 0x566d1e60e9e37212, 0x997241b70f7b6a2c),
    ("table2", 0xac7b0e0e6ee8dc97, 0x40369794e41cabf2),
    ("fig6a", 0x8f38ea98f9ff6774, 0xac6f6424b18d40ac),
    ("fig6b", 0x2d97c2332683aff5, 0xb5b2dc30e266d530),
    ("fig7", 0x0660b0319f116e75, 0x664dae62520e1ecb),
    ("anchors", 0xf9833767c362f252, 0x978cb249d59bffed),
    ("sim-validation", 0x14dcd35bada2a346, 0x2cb59c9403f19e6c),
    ("baselines", 0xcd7c73e56f347eaa, 0xf4e95baebc88b3ac),
    ("ablation", 0x0ce9fd9adf5cdc25, 0x0ddcff8809358cfa),
    ("mapping-explore", 0x00a9f8d21d04e1de, 0x3c837061a89de8ef),
    ("moea-comparison", 0x8e8e2baaae930f5c, 0x74fc3bc42d5e80a6),
    ("dynamic-vs-static", 0x1b501d28cd5521f9, 0xd56b06dbdcdba9f3),
    ("traffic-sweep", 0xfc4db753c94f9a6f, 0x27e347be526f11b7),
    ("saturation", 0x8d7a36de9d5e9c1b, 0x597f4ad00cb042ee),
    (
        "sustained-saturation",
        0xed7b7ef31a10e20c,
        0x05bd7b4b51f1407e,
    ),
    ("sustained-knee", 0xa60c8bdce45a5916, 0x512dc5075bc9f5d0),
    ("energy-vs-load", 0xfc108e68f46db6b9, 0x098b13926f30c8ec),
    (
        "saturation-timeline",
        0x699f07b9fb762956,
        0x4613e8a5584ff04c,
    ),
    (
        "reliability-vs-fault-rate",
        0x87be318b7de19219,
        0xa23c22b4fa0f6075,
    ),
    (
        "self-healing-vs-outage",
        0x769c727ae6794c7b,
        0x7278c01f0da1ef1c,
    ),
    ("workload-sweep", 0xd337e9fc6a0f10c4, 0x44461aef37855e7c),
    ("online-allocation", 0x64f8ecc0f1809fb3, 0xd8b9e5b83ce56b4c),
];

/// The canonical artifact per experiment: `(experiment, table, header)`.
fn golden_headers() -> Vec<(&'static str, &'static str, String)> {
    vec![
        ("table1", "table1", "parameter,value".into()),
        (
            "table2",
            "table2",
            "nw,valid_ours,valid_paper,front_ours,front_paper,unique_valid_ours".into(),
        ),
        ("fig6a", "fig6a", "nw,exec_kcc,bit_energy_fj,counts".into()),
        ("fig6b", "fig6b", "nw,exec_kcc,log10_ber,counts".into()),
        ("fig7", "fig7", "exec_kcc,log10_ber,kind".into()),
        ("anchors", "anchors", "anchor,paper,ours".into()),
        ("sim-validation", "sim_validation", "study,a,b,c,d".into()),
        (
            "baselines",
            "baselines",
            "method,exec_kcc,bit_energy_fj,log10_ber,counts".into(),
        ),
        ("ablation", "ablation", "study,a,b,c,d".into()),
        (
            "mapping-explore",
            "mapping_explore",
            "method,exec_kcc".into(),
        ),
        (
            "moea-comparison",
            "moea_comparison",
            "method,evaluations,front_size,hypervolume".into(),
        ),
        (
            "dynamic-vs-static",
            "dynamic_vs_static",
            "nw,static_opt_kcc,dynamic_single_kcc,dynamic_full_kcc,blocked".into(),
        ),
        (
            "traffic-sweep",
            "traffic_sweep",
            SweepOutcome::CSV_HEADER.to_string(),
        ),
        (
            "saturation",
            "saturation",
            "wavelengths,workload,offered_bits_per_cycle,accepted_bits_per_cycle,\
             latency_mean,latency_p99,occupancy"
                .into(),
        ),
        (
            "sustained-saturation",
            "sustained_saturation",
            "allocator,injection_rate,offered_bits_per_cycle,accepted_bits_per_cycle,\
             stall_mean,credit_occupancy,latency_p99"
                .into(),
        ),
        (
            "sustained-knee",
            "sustained_knee",
            "allocator,wavelengths,knee_rate,knee_offered_bits_per_cycle,\
             plateau_bits_per_cycle,evaluations"
                .into(),
        ),
        (
            "energy-vs-load",
            "energy_vs_load",
            "allocator,injection_rate,offered_bits_per_cycle,\
             accepted_bits_per_cycle,energy_pj_per_bit,energy_static_frac,\
             latency_p99"
                .into(),
        ),
        (
            "saturation-timeline",
            "saturation_timeline",
            "injection_rate,window_start,offered,admitted,retired,\
             accepted_bits_per_cycle,stall_fraction,gate_held,in_flight,\
             lane_utilization,fairness"
                .into(),
        ),
        (
            "reliability-vs-fault-rate",
            "reliability_vs_fault_rate",
            "transport,ber,offered_bits_per_cycle,goodput_bits_per_cycle,\
             failed_attempts,retx_bits,lost,latency_p99,energy_pj_per_bit"
                .into(),
        ),
        (
            "self-healing-vs-outage",
            "self_healing_vs_outage",
            "regime,policy,delivered,goodput_bits_per_cycle,failed_attempts,\
             retx_bits,lost,outages,heals,recovery_p50,recovery_p95,\
             recovery_p99,energy_pj_per_bit"
                .into(),
        ),
        (
            "workload-sweep",
            "workload_sweep",
            "workload,tasks,comms,pairs,front,exec_lo,exec_hi,fj_lo,fj_hi,ber_lo,ber_hi".into(),
        ),
        (
            "online-allocation",
            "online_allocation",
            "defrag,arrival_rate,offered,admitted,blocked,blocking_rate,\
             admission_p50,admission_p95,admission_p99,mean_wait,defrag_runs,\
             defrag_moves,mean_largest_free_run,mean_occupancy_jain,\
             incremental_packs,full_repack_packs"
                .into(),
        ),
    ]
}

#[test]
fn every_listed_experiment_runs_and_emits_its_golden_artifact() {
    let registry = Registry::standard();
    let golden = golden_headers();
    assert_eq!(
        registry.len(),
        golden.len(),
        "golden table must cover the whole registry"
    );
    let ctx = RunContext::new(Scale::Smoke).with_threads(2);
    let mut observed = Vec::new();
    for (experiment_name, table_name, header) in &golden {
        let experiment = registry
            .get(experiment_name)
            .unwrap_or_else(|| panic!("{experiment_name} missing from the registry"));
        let report = experiment.run(&ctx);
        assert!(
            !report.title.is_empty() && !report.tables().is_empty(),
            "{experiment_name} must produce at least one table"
        );
        let table = report
            .tables()
            .into_iter()
            .find(|t| t.name() == *table_name)
            .unwrap_or_else(|| {
                panic!(
                    "{experiment_name} lost its canonical `{table_name}` artifact; tables: {:?}",
                    report
                        .tables()
                        .iter()
                        .map(|t| t.name().to_string())
                        .collect::<Vec<_>>()
                )
            });
        assert_eq!(
            &table.csv_header(),
            header,
            "{experiment_name}/{table_name} golden header changed"
        );
        assert!(
            !table.rows().is_empty(),
            "{experiment_name}/{table_name} must have rows"
        );
        // The fenced block downstream tools grep for.
        let rendered = report.render();
        assert!(
            rendered.contains(&format!("--- begin csv: {table_name} ---")),
            "{experiment_name} render lost the CSV fence"
        );
        observed.push((
            *experiment_name,
            fnv1a(&mask_worker_counts(&rendered)),
            fnv1a(&report.to_json()),
        ));
    }
    if observed != ARTIFACT_PINS {
        let rows: String = observed
            .iter()
            .map(|(name, text, json)| format!("    ({name:?}, {text:#018x}, {json:#018x}),\n"))
            .collect();
        panic!("experiment artifacts differ from the pins; observed:\n{rows}");
    }
}

#[test]
fn registry_order_matches_the_documented_index() {
    let names = Registry::standard().names();
    assert_eq!(
        names,
        vec![
            "table1",
            "table2",
            "fig6a",
            "fig6b",
            "fig7",
            "anchors",
            "sim-validation",
            "baselines",
            "ablation",
            "mapping-explore",
            "moea-comparison",
            "dynamic-vs-static",
            "traffic-sweep",
            "saturation",
            "sustained-saturation",
            "sustained-knee",
            "energy-vs-load",
            "saturation-timeline",
            "reliability-vs-fault-rate",
            "self-healing-vs-outage",
            "workload-sweep",
            "online-allocation",
        ]
    );
}

#[test]
fn experiments_are_seed_deterministic() {
    let registry = Registry::standard();
    let ctx = RunContext::new(Scale::Smoke).with_seed(11).with_threads(2);
    // A GA-backed and a sweep-backed experiment; both must reproduce
    // bit-identical artifacts for the same context.
    for name in ["table2", "traffic-sweep"] {
        let exp = registry.get(name).unwrap();
        let a = exp.run(&ctx);
        let b = exp.run(&ctx);
        assert_eq!(a.tables(), b.tables(), "{name} is not deterministic");
    }
}
