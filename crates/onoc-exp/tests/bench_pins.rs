//! Exact pins for the quick tier of `onoc bench`'s scenario matrix.
//!
//! `onoc bench --check` gates the matrix's message counts and pJ/bit at
//! a 1 % tolerance; this test pins them exactly. Each scenario of
//! [`pinned_scenarios`]`(true)` runs through the same per-point runner
//! the bench uses, and must reproduce the recorded message count, the
//! bits of its mean pJ/bit and an FNV-1a digest of its output: the
//! sweep's CSV rows, or the serve scenario's admission log. The matrix
//! covers open, credit and ECN injection, go-back-N faults, healing, the
//! 256-node striped run and the online service.
//!
//! On a mismatch the test prints the whole observed table, ready to
//! paste over `PINS` once a behaviour change is intended.

use onoc_exp::bench::{BenchWork, pinned_scenarios};
use onoc_sim::{NullProbe, SimScratch};
use onoc_traffic::{SweepOutcome, run_scenario_phased};

/// FNV-1a 64-bit digest of a text.
fn fnv1a(bytes: &str) -> u64 {
    bytes.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Message count, mean pJ/bit and output digest of one scenario.
fn observe(work: &BenchWork) -> (usize, f64, u64) {
    match work {
        BenchWork::Sweep(grid) => {
            let mut scratch = SimScratch::new();
            let results: Vec<_> = grid
                .scenarios()
                .iter()
                .map(|point| run_scenario_phased(grid, point, &mut scratch).0)
                .collect();
            let messages = results.iter().map(|r| r.injected).sum();
            #[allow(clippy::cast_precision_loss)]
            let pj_per_bit =
                results.iter().map(|r| r.energy_pj_per_bit).sum::<f64>() / results.len() as f64;
            let outcome = SweepOutcome {
                results,
                threads: 1,
                workers_used: 1,
            };
            (messages, pj_per_bit, fnv1a(&outcome.to_csv().join("\n")))
        }
        BenchWork::Serve { config, churn } => {
            let outcome = onoc_serve::serve(config, &churn.generate(), &mut NullProbe).unwrap();
            let log = outcome.admission_log_csv();
            (outcome.report.offered, 0.0, fnv1a(&log))
        }
    }
}

/// Recorded with the engine this file was written against.
const PINS: &[(&str, usize, u64, u64)] = &[
    (
        "saturation-sweep-16n",
        50698,
        0x3fd1c277a6dc7b2b,
        0x6ff2d329e20cbf15,
    ),
    (
        "saturation-sweep-32n",
        101485,
        0x3fd90b04a72f5496,
        0xab6994155c453eef,
    ),
    (
        "open-uniform-4l",
        3120,
        0x3fd004127f8e7968,
        0x3c8429a529783002,
    ),
    (
        "open-uniform-8l",
        3120,
        0x3fcf91b51d8a2dcd,
        0xa36a4db40b1225e0,
    ),
    (
        "open-hotspot-4l",
        3120,
        0x3fd49a01517dccfd,
        0x60d368d2011409bc,
    ),
    (
        "open-hotspot-8l",
        3120,
        0x3fd4cdceb3a31880,
        0xbe4315d2fd4e865a,
    ),
    (
        "credit4-uniform-4l",
        3120,
        0x3fd03cc04090a5b8,
        0x9792b270efeec9c4,
    ),
    (
        "credit4-uniform-8l",
        3120,
        0x3fd11e6114086cc6,
        0x269cb19bc8f9e103,
    ),
    (
        "credit4-hotspot-4l",
        3120,
        0x3fd4e2f338630f44,
        0x4edfc52ff3784a5c,
    ),
    (
        "credit4-hotspot-8l",
        3120,
        0x3fd5fb55ec68572a,
        0x11fb3389b16c5c2f,
    ),
    (
        "ecn-uniform-4l",
        3120,
        0x3fe4bef58de83c9e,
        0x7cf8df7cec4a4f6c,
    ),
    (
        "ecn-uniform-8l",
        3120,
        0x3fecfa5b6f321f2b,
        0x59b72a16ca0f4006,
    ),
    (
        "ecn-hotspot-4l",
        3120,
        0x3fe0ee60debfa65b,
        0x1e12836989b9b7dd,
    ),
    (
        "ecn-hotspot-8l",
        3120,
        0x3fe4ca2a85f160bc,
        0x7e4c3c874a1a2697,
    ),
    ("gbn-fault-8l", 3120, 0x3fd22d1b93beac72, 0xd285fe271d9847e9),
    (
        "heal-perm-fault",
        2512,
        0x3fc6107178ed9efe,
        0xc67b01c1a1c5264c,
    ),
    ("serial-256n", 10008, 0x40f1f047db8deb67, 0x81ea2330c95a175b),
    (
        "online-serve-8l",
        2000,
        0x0000000000000000,
        0xaf11ee833de67a82,
    ),
];

#[test]
fn quick_bench_matrix_matches_the_pins() {
    let observed: Vec<(String, usize, u64, u64)> = pinned_scenarios(true)
        .iter()
        .map(|scenario| {
            let (messages, pj_per_bit, digest) = observe(&scenario.work);
            (
                scenario.name.clone(),
                messages,
                pj_per_bit.to_bits(),
                digest,
            )
        })
        .collect();
    let expected: Vec<(String, usize, u64, u64)> = PINS
        .iter()
        .map(|&(name, messages, pj, digest)| (name.to_string(), messages, pj, digest))
        .collect();
    if observed != expected {
        let rows: String = observed
            .iter()
            .map(|(name, messages, pj, digest)| {
                format!("    ({name:?}, {messages}, {pj:#018x}, {digest:#018x}),\n")
            })
            .collect();
        panic!("quick bench matrix differs from the pins; observed:\n{rows}");
    }
}
