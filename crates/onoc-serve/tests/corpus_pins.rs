//! Exact pins for the service loop over a corpus of seeded workloads.
//!
//! Each case runs [`serve`] and must reproduce the recorded FNV-1a
//! digests of its admission-log CSV and of its report's `Debug` text
//! (which prints every `f64` in round-trip form). The 24 cases cover
//! rings of 2–80 nodes, combs of 1–128 lanes, both grant policies, all
//! three defrag policies, `max_wait` on and off, one trace replay and one
//! workload whose ids arrive out of order. An `#[ignore]`d corpus of
//! 2 000 generated cases is checked against one combined digest.
//!
//! On a mismatch the test prints the whole observed table, ready to paste
//! over `PINS` once a behaviour change is intended.

use onoc_serve::{
    DefragPolicy, PoissonWorkload, ServiceConfig, SessionRequest, serve, sessions_from_trace,
};
use onoc_sim::NullProbe;
use onoc_traffic::{TrafficConfig, TrafficPattern};
use onoc_units::Bits;
use onoc_wa::GrantPolicy;

/// Where a case's sessions come from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Seeded Poisson churn, ids ascending in arrival order.
    Poisson,
    /// The same churn with every id mapped through a bijection, so ids
    /// arrive in no particular order.
    Scrambled,
    /// A replayed uniform-traffic trace at the same aggregate arrival
    /// rate: `sessions / rate` cycles of injection at `rate / nodes` per
    /// node, each session asking for `max_demand` lanes for `hold`
    /// cycles.
    Trace,
}

/// `(nodes, wavelengths, policy, defrag, max_wait, sessions, rate, hold,
/// max_demand, source, seed)`.
type Case = (
    usize,
    usize,
    GrantPolicy,
    DefragPolicy,
    Option<u64>,
    usize,
    f64,
    f64,
    usize,
    Source,
    u64,
);

const D: GrantPolicy = GrantPolicy::Disjoint;
const S: GrantPolicy = GrantPolicy::Shared;
const NEVER: DefragPolicy = DefragPolicy::Never;
const P: Source = Source::Poisson;

const fn threshold(min_free_run: f64) -> DefragPolicy {
    DefragPolicy::OnThreshold { min_free_run }
}

const fn idle(idle: u64) -> DefragPolicy {
    DefragPolicy::OnIdle { idle }
}

const CASES: [Case; 24] = [
    (2, 1, D, NEVER, None, 200, 0.05, 30.0, 1, P, 1),
    (3, 2, S, NEVER, Some(100), 300, 0.05, 60.0, 2, P, 2),
    (
        4,
        4,
        D,
        threshold(0.5),
        Some(500),
        400,
        0.04,
        120.0,
        2,
        P,
        3,
    ),
    (5, 3, S, threshold(0.4), None, 400, 0.03, 150.0, 3, P, 4),
    (6, 8, D, idle(200), Some(2_000), 400, 0.03, 250.0, 3, P, 5),
    (7, 2, S, idle(50), None, 300, 0.05, 80.0, 2, P, 6),
    (
        8,
        16,
        D,
        threshold(0.25),
        Some(5_000),
        600,
        0.05,
        300.0,
        4,
        P,
        7,
    ),
    (8, 1, D, NEVER, Some(50), 300, 0.02, 40.0, 1, P, 8),
    (
        9,
        5,
        S,
        threshold(1.0),
        Some(300),
        400,
        0.04,
        200.0,
        3,
        P,
        9,
    ),
    (10, 7, D, idle(1), None, 400, 0.03, 150.0, 3, P, 10),
    (
        12,
        32,
        D,
        threshold(0.25),
        Some(5_000),
        600,
        0.1,
        400.0,
        8,
        P,
        11,
    ),
    (12, 6, S, NEVER, None, 400, 0.05, 200.0, 6, P, 12),
    (
        16,
        8,
        D,
        threshold(0.25),
        Some(5_000),
        1_000,
        0.02,
        400.0,
        3,
        P,
        13,
    ),
    (16, 8, D, NEVER, Some(5_000), 1_000, 0.02, 400.0, 3, P, 14),
    (16, 8, S, idle(40), Some(3_000), 800, 0.01, 400.0, 3, P, 15),
    (20, 64, D, threshold(0.5), None, 600, 0.2, 300.0, 16, P, 16),
    (
        24,
        12,
        S,
        threshold(0.3),
        Some(1_000),
        600,
        0.05,
        250.0,
        4,
        P,
        17,
    ),
    (31, 3, D, idle(500), Some(800), 500, 0.02, 300.0, 2, P, 18),
    (40, 100, S, NEVER, Some(4_000), 400, 0.1, 300.0, 16, P, 19),
    (
        48,
        128,
        D,
        threshold(0.2),
        Some(3_000),
        600,
        0.4,
        400.0,
        32,
        P,
        20,
    ),
    (64, 24, D, idle(100), None, 600, 0.1, 300.0, 5, P, 21),
    (
        80,
        10,
        S,
        threshold(0.6),
        Some(2_000),
        800,
        0.05,
        400.0,
        4,
        P,
        22,
    ),
    (
        24,
        8,
        D,
        threshold(1.0),
        Some(2_000),
        600,
        0.06,
        200.0,
        3,
        Source::Trace,
        23,
    ),
    (
        12,
        6,
        D,
        threshold(0.4),
        Some(1_500),
        600,
        0.04,
        250.0,
        3,
        Source::Scrambled,
        24,
    ),
];

/// `(admission-log digest, report digest)` per case of [`CASES`],
/// recorded before the constant-time overlap test and the ledger's claim
/// counts.
const PINS: [(u64, u64); 24] = [
    (0xccf10944390a0305, 0xdd3f8a9cbd72c1d0),
    (0x450b48d4dfb97921, 0x1de232d9fa3a2e82),
    (0x8dbd2ec45576424c, 0x98ccfb3fe632cbf6),
    (0x8912f1fb8819c6f0, 0x18c0b9db5a57a761),
    (0x183cc01cd5dd305f, 0x8a7116becbc68f06),
    (0x19ce74d3fd964d0e, 0x69cc6caf7b743577),
    (0xd9798dbec11ad31d, 0x3976fc57709c845d),
    (0xdfef09851c8d3272, 0xcfbd08b665cff6d7),
    (0xb6681718210b2a9f, 0x4a485064d65da7d9),
    (0x07e78824c217edc3, 0xfc296feafb7d0425),
    (0x785ea7213bf16775, 0x0ea0352e0599e9a7),
    (0xc570562d81c8f72e, 0x369c609eb5dd4751),
    (0x45cdadf357001717, 0x2ea06aabf2b8ad17),
    (0x8abfe1bb64f5c542, 0xab8418b2b7e47925),
    (0xf7286118bea9c6d2, 0x3cbe5b63bb417c6e),
    (0xbef6cfc29c948470, 0x5c576c5524c090d7),
    (0x0deac22e5f99a62f, 0x560aa578e300501d),
    (0xbb4410790ab30db9, 0xc3675c2b0a34f8c8),
    (0x7ca77b0b75e2f889, 0xe135e76abc1d6b72),
    (0x640db7511a376dc2, 0x7a23dba5a7dcc5c3),
    (0x8d4d86e8f64f9bae, 0x0defdfefa7144098),
    (0x40b60ad5a32836c2, 0x5a69cba0a4f0b4d1),
    (0xcf71badee81334e2, 0x3ab0344da40e17cc),
    (0xd76e4738c80c15e1, 0xe2163ab40dd51ec7),
];

/// Combined digest of the 2 000-case corpus, recorded with [`PINS`].
const CORPUS_DIGEST: u64 = 0x00c9_9762_b853_5d23;

/// FNV-1a 64-bit digest of `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The sessions of `case`, arrival-ordered.
fn requests(case: &Case) -> Vec<SessionRequest> {
    let &(nodes, _, _, _, _, sessions, rate, hold, max_demand, source, seed) = case;
    let churn = PoissonWorkload {
        nodes,
        sessions,
        arrival_rate: rate,
        mean_hold: hold,
        max_demand,
        seed,
    };
    match source {
        Source::Poisson => churn.generate(),
        Source::Scrambled => {
            let mut requests = churn.generate();
            for r in &mut requests {
                r.id = r.id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
            }
            requests
        }
        Source::Trace => {
            let trace = onoc_traffic::generate(&TrafficConfig {
                nodes,
                pattern: TrafficPattern::UniformRandom,
                injection_rate: rate / nodes as f64,
                message_volume: Bits::new(hold * max_demand as f64),
                horizon: (sessions as f64 / rate).ceil() as u64,
                seed,
                burstiness: None,
            });
            sessions_from_trace(trace.events(), max_demand, 1.0).unwrap()
        }
    }
}

/// Runs `case`; returns the digests of its admission log and of its
/// report's `Debug` text, and that text.
fn observe(case: &Case) -> (u64, u64, String) {
    let &(nodes, wavelengths, policy, defrag, max_wait, ..) = case;
    let config = ServiceConfig {
        nodes,
        wavelengths,
        policy,
        defrag,
        max_wait,
    };
    let outcome = serve(&config, &requests(case), &mut NullProbe).unwrap();
    let report = format!("{:?}", outcome.report);
    (
        fnv1a(FNV_OFFSET, outcome.admission_log_csv().as_bytes()),
        fnv1a(FNV_OFFSET, report.as_bytes()),
        report,
    )
}

#[test]
fn the_serve_corpus_matches_the_pins() {
    let observed: Vec<(u64, u64, String)> = CASES.iter().map(observe).collect();
    let digests: Vec<(u64, u64)> = observed
        .iter()
        .map(|&(log, report, _)| (log, report))
        .collect();
    if digests != PINS {
        let rows: String = observed
            .iter()
            .zip(&CASES)
            .map(|((log, report, text), case)| {
                format!("    ({log:#018x}, {report:#018x}), // {case:?}: {text}\n")
            })
            .collect();
        panic!("the serve corpus differs from the pins; observed:\n{rows}");
    }
}

/// Deterministic xorshift stream.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// Generated case `index` of the large corpus: any ring of 2–80 nodes,
/// any comb (small ones half the time), either policy, any defrag
/// policy, and one case in ten each scrambled or replayed from a trace.
fn generated_case(index: u64) -> Case {
    let mut next = stream(index);
    let mut below = |n: u64| next() % n;
    let nodes = 2 + below(79) as usize;
    let wavelengths = if below(2) == 0 {
        1 + below(16)
    } else {
        1 + below(128)
    } as usize;
    let policy = if below(2) == 0 { D } else { S };
    let defrag = match below(3) {
        0 => NEVER,
        1 => threshold((1 + below(10)) as f64 / 10.0),
        _ => idle(1 + below(1_000)),
    };
    let max_wait = (below(2) == 0).then(|| 50 + below(10_000));
    let sessions = 50 + below(350) as usize;
    let rate = (1 + below(200)) as f64 / 1_000.0;
    let hold = (20 + below(800)) as f64;
    let max_demand = 1 + below(wavelengths.min(8) as u64) as usize;
    let source = match below(10) {
        0 => Source::Scrambled,
        1 => Source::Trace,
        _ => P,
    };
    (
        nodes,
        wavelengths,
        policy,
        defrag,
        max_wait,
        sessions,
        rate,
        hold,
        max_demand,
        source,
        index,
    )
}

#[test]
#[ignore = "2 000 serve runs; run in release with --ignored"]
fn a_2000_case_serve_corpus_matches_its_combined_digest() {
    let digest = (0..2_000u64)
        .map(generated_case)
        .fold(FNV_OFFSET, |h, case| {
            let (log, report, _) = observe(&case);
            fnv1a(fnv1a(h, &log.to_le_bytes()), &report.to_le_bytes())
        });
    assert_eq!(
        digest, CORPUS_DIGEST,
        "the 2 000-case corpus digest is {digest:#018x}"
    );
}
