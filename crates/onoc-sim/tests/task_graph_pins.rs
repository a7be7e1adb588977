//! Task-graph engine pins.
//!
//! Every case runs one mapped application through the task-graph
//! simulator, with its lanes either fixed by an allocation or claimed at
//! runtime under a [`DynamicPolicy`], and must reproduce the recorded
//! makespan, blocked-attempt count and FNV-1a digests: one over the task
//! spans, communication spans, granted lanes and conflicts, and (under
//! fixed lanes) one over the per-segment busy cycles. A change to the
//! event order, the duration rounding, the arbiter's lane choice or the
//! retry order shows up here even when it keeps a run deterministic.
//!
//! The cases cover the paper application across comb sizes and policies,
//! every allocation `sim-validation` simulates, a statically invalid
//! allocation with a real runtime conflict, the four kernels and seeded
//! random layered DAGs.
//!
//! On a mismatch the test prints the whole observed table, ready to
//! paste over `PINS` once a behaviour change is intended.

use onoc_app::{MappedApplication, Mapping, RouteStrategy, TaskGraph, workloads};
use onoc_sim::{DynamicPolicy, SimReport, Simulator};
use onoc_topology::{DirectedSegment, Direction, OnocArchitecture, RingTopology};
use onoc_units::{Bits, BitsPerCycle, Cycles};
use onoc_wa::{Allocation, EvalOptions, ProblemInstance, heuristics};
use rand::SeedableRng;
use rand::rngs::StdRng;

/// Where a run's lanes come from.
#[derive(Clone, Copy)]
enum Lanes<'a> {
    Fixed(&'a Allocation),
    Arbitrated(usize, DynamicPolicy),
}

/// What one run is pinned on: makespan, blocked attempts, the digest of
/// spans, lanes and conflicts, and the segment-busy digest (0 under
/// arbitrated lanes).
type Observed = (u64, usize, u64, u64);

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn spans(&mut self, spans: &[(u64, u64)]) {
        self.word(spans.len() as u64);
        for &(start, end) in spans {
            self.word(start);
            self.word(end);
        }
    }

    fn segment(&mut self, segment: DirectedSegment) {
        self.word(segment.index as u64);
        self.word(u64::from(segment.direction == Direction::Clockwise));
    }
}

/// FNV-1a over a run's task spans, communication spans, granted lanes
/// and conflicts.
fn run_digest(r: &SimReport) -> u64 {
    let mut h = Fnv::new();
    h.spans(&r.task_spans);
    h.spans(&r.comm_spans);
    for lanes in &r.granted {
        h.word(lanes.len() as u64);
        for lane in lanes {
            h.word(lane.index() as u64);
        }
    }
    h.word(r.conflicts.len() as u64);
    for c in &r.conflicts {
        h.segment(c.segment);
        h.word(c.channel.index() as u64);
        h.word(c.first.0 as u64);
        h.word(c.second.0 as u64);
        h.word(c.overlap.0);
        h.word(c.overlap.1);
    }
    h.0
}

/// FNV-1a over a run's per-segment busy cycles.
fn busy_digest(r: &SimReport) -> u64 {
    let mut h = Fnv::new();
    h.word(r.segment_busy.len() as u64);
    for &(segment, busy) in &r.segment_busy {
        h.segment(segment);
        h.word(busy);
    }
    h.0
}

fn run(app: &MappedApplication, lanes: Lanes<'_>) -> Observed {
    let rate = BitsPerCycle::new(1.0);
    let sim = match lanes {
        Lanes::Fixed(alloc) => Simulator::new(app, alloc, rate),
        Lanes::Arbitrated(wavelengths, policy) => {
            Simulator::dynamic(app, wavelengths, rate, policy)
        }
    };
    let r = sim.unwrap().run().unwrap();
    let busy = match lanes {
        Lanes::Fixed(_) => busy_digest(&r),
        Lanes::Arbitrated(..) => 0,
    };
    (r.makespan, r.blocked_attempts, run_digest(&r), busy)
}

fn policy_name(policy: DynamicPolicy) -> String {
    match policy {
        DynamicPolicy::Single => "single".into(),
        DynamicPolicy::Greedy { cap } => format!("greedy{cap}"),
    }
}

/// A layered DAG mapped on a 16-node ring with shortest routes.
fn random_instance(seed: u64, layers: usize, width: usize) -> ProblemInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = workloads::random_layered_dag(
        &mut rng,
        &workloads::LayeredDagConfig {
            layers,
            width,
            edge_probability: 0.35,
            exec_range: (500.0, 4_000.0),
            volume_range: (200.0, 5_000.0),
        },
    );
    let nodes = workloads::random_mapping(&mut rng, graph.task_count(), 16);
    shortest_instance(graph, nodes, 16)
}

fn shortest_instance(
    graph: TaskGraph,
    nodes: Vec<onoc_topology::NodeId>,
    wavelengths: usize,
) -> ProblemInstance {
    let ring = RingTopology::new(16);
    let mapping = Mapping::new(&graph, nodes).unwrap();
    let app = MappedApplication::new(graph, mapping, ring, RouteStrategy::Shortest).unwrap();
    let arch = OnocArchitecture::paper_architecture(wavelengths);
    ProblemInstance::new(arch, app, EvalOptions::default()).unwrap()
}

fn observe_all() -> Vec<(String, Observed)> {
    let mut out = Vec::new();

    // The paper application across comb sizes, under both policies.
    for nw in [1usize, 2, 4, 8, 12, 16] {
        let inst = ProblemInstance::paper_with_wavelengths(nw);
        for policy in [
            DynamicPolicy::Single,
            DynamicPolicy::Greedy { cap: 1 },
            DynamicPolicy::Greedy { cap: 3 },
            DynamicPolicy::Greedy { cap: nw },
        ] {
            let name = format!("paper-nw{nw}-{}", policy_name(policy));
            out.push((name, run(inst.app(), Lanes::Arbitrated(nw, policy))));
        }
    }

    // Every paper allocation `sim-validation` simulates.
    for (nw, counts) in [
        (4usize, [1usize, 1, 1, 1, 1, 1]),
        (4, [2, 2, 4, 2, 2, 4]),
        (8, [3, 4, 8, 5, 3, 8]),
        (8, [1, 7, 4, 4, 3, 5]),
        (12, [4, 8, 12, 6, 6, 12]),
        (12, [2, 8, 6, 6, 4, 7]),
    ] {
        let inst = ProblemInstance::paper_with_wavelengths(nw);
        let alloc = inst.allocation_from_counts(&counts).unwrap();
        let name = format!("paper-nw{nw}-counts{counts:?}");
        out.push((name, run(inst.app(), Lanes::Fixed(&alloc))));
    }

    // ... and its random-DAG sweep at paper scale (seed 99, first-fit on
    // 16 λ), folded into one row: the summed makespans and the digests
    // chained in DAG order.
    let mut rng = StdRng::seed_from_u64(99);
    let (mut makespan, mut digest, mut busy) = (0u64, Fnv::new(), Fnv::new());
    for _ in 0..200 {
        let graph = workloads::random_layered_dag(
            &mut rng,
            &workloads::LayeredDagConfig {
                layers: 4,
                width: 3,
                edge_probability: 0.35,
                exec_range: (500.0, 4_000.0),
                volume_range: (200.0, 5_000.0),
            },
        );
        let nodes = workloads::random_mapping(&mut rng, graph.task_count(), 16);
        let inst = shortest_instance(graph, nodes, 16);
        let Ok(alloc) = heuristics::first_fit(&inst) else {
            continue;
        };
        let (m, _, d, b) = run(inst.app(), Lanes::Fixed(&alloc));
        makespan += m;
        digest.word(d);
        busy.word(b);
    }
    out.push((
        "sim-validation-dags".into(),
        (makespan, 0, digest.0, busy.0),
    ));

    // A statically invalid allocation whose c0/c1 collision is real.
    let inst = ProblemInstance::paper_with_wavelengths(4);
    let dense = Allocation::from_counts_dense(&[1; 6], 4).unwrap();
    out.push((
        "paper-nw4-dense-invalid".into(),
        run(inst.app(), Lanes::Fixed(&dense)),
    ));

    // The four kernels on a seeded mapping, under both policies.
    let exec = Cycles::from_kilocycles(1.0);
    let volume = Bits::from_kilobits(6.0);
    for (name, graph) in [
        ("pipeline", workloads::pipeline(6, exec, volume)),
        ("fork-join", workloads::fork_join(6, exec, volume)),
        ("butterfly", workloads::butterfly(2, exec, volume)),
        ("reduction-tree", workloads::reduction_tree(8, exec, volume)),
    ] {
        let nodes =
            workloads::random_mapping(&mut StdRng::seed_from_u64(7), graph.task_count(), 16);
        let inst = shortest_instance(graph, nodes, 8);
        for policy in [DynamicPolicy::Single, DynamicPolicy::Greedy { cap: 3 }] {
            let name = format!("kernel-{name}-{}", policy_name(policy));
            out.push((name, run(inst.app(), Lanes::Arbitrated(8, policy))));
        }
    }

    // Seeded random layered DAGs under first-fit and both policies, on
    // combs tight enough to block.
    for seed in 0..20u64 {
        let inst = random_instance(seed, 3 + (seed % 3) as usize, 2 + (seed % 2) as usize);
        if let Ok(alloc) = heuristics::first_fit(&inst) {
            let name = format!("dag{seed}-first-fit");
            out.push((name, run(inst.app(), Lanes::Fixed(&alloc))));
        }
        let nw = 1 + (seed % 6) as usize;
        for policy in [DynamicPolicy::Single, DynamicPolicy::Greedy { cap: 3 }] {
            let name = format!("dag{seed}-nw{nw}-{}", policy_name(policy));
            out.push((name, run(inst.app(), Lanes::Arbitrated(nw, policy))));
        }
    }
    out
}

/// Recorded with the engine this file was written against.
const PINS: &[(&str, u64, usize, u64, u64)] = &[
    (
        "paper-nw1-single",
        44000,
        1,
        0xefd7c8bbbb0fa76b,
        0x0000000000000000,
    ),
    (
        "paper-nw1-greedy1",
        44000,
        1,
        0xefd7c8bbbb0fa76b,
        0x0000000000000000,
    ),
    (
        "paper-nw1-greedy3",
        44000,
        1,
        0xefd7c8bbbb0fa76b,
        0x0000000000000000,
    ),
    (
        "paper-nw1-greedy1",
        44000,
        1,
        0xefd7c8bbbb0fa76b,
        0x0000000000000000,
    ),
    (
        "paper-nw2-single",
        38000,
        0,
        0xf1ccc30f29a36e01,
        0x0000000000000000,
    ),
    (
        "paper-nw2-greedy1",
        38000,
        0,
        0xf1ccc30f29a36e01,
        0x0000000000000000,
    ),
    (
        "paper-nw2-greedy3",
        32000,
        1,
        0x67eb08b364a9b7c4,
        0x0000000000000000,
    ),
    (
        "paper-nw2-greedy2",
        32000,
        1,
        0x67eb08b364a9b7c4,
        0x0000000000000000,
    ),
    (
        "paper-nw4-single",
        38000,
        0,
        0xf1ccc30f29a36e01,
        0x0000000000000000,
    ),
    (
        "paper-nw4-greedy1",
        38000,
        0,
        0xf1ccc30f29a36e01,
        0x0000000000000000,
    ),
    (
        "paper-nw4-greedy3",
        31334,
        0,
        0x4735505db52b92b4,
        0x0000000000000000,
    ),
    (
        "paper-nw4-greedy4",
        26000,
        1,
        0x094626b921a095ec,
        0x0000000000000000,
    ),
    (
        "paper-nw8-single",
        38000,
        0,
        0xf1ccc30f29a36e01,
        0x0000000000000000,
    ),
    (
        "paper-nw8-greedy1",
        38000,
        0,
        0xf1ccc30f29a36e01,
        0x0000000000000000,
    ),
    (
        "paper-nw8-greedy3",
        26001,
        0,
        0x2e79f20663eca95c,
        0x0000000000000000,
    ),
    (
        "paper-nw8-greedy8",
        23000,
        1,
        0xad958a4b7d08a192,
        0x0000000000000000,
    ),
    (
        "paper-nw12-single",
        38000,
        0,
        0xf1ccc30f29a36e01,
        0x0000000000000000,
    ),
    (
        "paper-nw12-greedy1",
        38000,
        0,
        0xf1ccc30f29a36e01,
        0x0000000000000000,
    ),
    (
        "paper-nw12-greedy3",
        26001,
        0,
        0x2e79f20663eca95c,
        0x0000000000000000,
    ),
    (
        "paper-nw12-greedy12",
        22001,
        1,
        0xa6a7d7b82ee26cf4,
        0x0000000000000000,
    ),
    (
        "paper-nw16-single",
        38000,
        0,
        0xf1ccc30f29a36e01,
        0x0000000000000000,
    ),
    (
        "paper-nw16-greedy1",
        38000,
        0,
        0xf1ccc30f29a36e01,
        0x0000000000000000,
    ),
    (
        "paper-nw16-greedy3",
        26001,
        0,
        0x2e79f20663eca95c,
        0x0000000000000000,
    ),
    (
        "paper-nw16-greedy16",
        21500,
        1,
        0x0873ba53d7222bbd,
        0x0000000000000000,
    ),
    (
        "paper-nw4-counts[1, 1, 1, 1, 1, 1]",
        38000,
        0,
        0xe0b27722182aea01,
        0x25edf65168076776,
    ),
    (
        "paper-nw4-counts[2, 2, 4, 2, 2, 4]",
        28000,
        0,
        0xbe0063d895b03040,
        0x25edf65168076776,
    ),
    (
        "paper-nw8-counts[3, 4, 8, 5, 3, 8]",
        23700,
        0,
        0xa5dfe4a4b9d1eb35,
        0x15ca2fe79ba5431f,
    ),
    (
        "paper-nw8-counts[1, 7, 4, 4, 3, 5]",
        28300,
        0,
        0xa7457343f5fb7003,
        0x4f009e0fe3e72ccb,
    ),
    (
        "paper-nw12-counts[4, 8, 12, 6, 6, 12]",
        22834,
        0,
        0x6dfde6d3ef1846ab,
        0xe252658366fea80a,
    ),
    (
        "paper-nw12-counts[2, 8, 6, 6, 4, 7]",
        24572,
        0,
        0x672e59fe6c33d407,
        0x8db807c065fae820,
    ),
    (
        "sim-validation-dags",
        4216216,
        0,
        0xe07623c9a2e733ac,
        0x49854908d4bfdef8,
    ),
    (
        "paper-nw4-dense-invalid",
        38000,
        0,
        0x5cc029d9ef4b6d62,
        0x25edf65168076776,
    ),
    (
        "kernel-pipeline-single",
        36000,
        0,
        0x8a2e57fb8ef86c13,
        0x0000000000000000,
    ),
    (
        "kernel-pipeline-greedy3",
        16000,
        0,
        0xf2676ec541e0f29c,
        0x0000000000000000,
    ),
    (
        "kernel-fork-join-single",
        15000,
        0,
        0x97cb8d22954d15e5,
        0x0000000000000000,
    ),
    (
        "kernel-fork-join-greedy3",
        10000,
        1,
        0x620b42b1011d2c53,
        0x0000000000000000,
    ),
    (
        "kernel-butterfly-single",
        15000,
        0,
        0xd606df9be3aaafd8,
        0x0000000000000000,
    ),
    (
        "kernel-butterfly-greedy3",
        10000,
        4,
        0x2fb5bc773919e750,
        0x0000000000000000,
    ),
    (
        "kernel-reduction-tree-single",
        22000,
        0,
        0xd8738cc2a132f157,
        0x0000000000000000,
    ),
    (
        "kernel-reduction-tree-greedy3",
        11000,
        0,
        0x549965b536472070,
        0x0000000000000000,
    ),
    (
        "dag0-first-fit",
        11651,
        0,
        0xcf288e0c43314f2e,
        0xfed926a660bf4066,
    ),
    (
        "dag0-nw1-single",
        11651,
        0,
        0xc515b8566cf04f2e,
        0x0000000000000000,
    ),
    (
        "dag0-nw1-greedy3",
        11651,
        0,
        0xc515b8566cf04f2e,
        0x0000000000000000,
    ),
    (
        "dag1-first-fit",
        22015,
        0,
        0x46b2d1227b00c46f,
        0xeb432f22de86aa6f,
    ),
    (
        "dag1-nw2-single",
        24550,
        1,
        0x74fafd7a3f9456d3,
        0x0000000000000000,
    ),
    (
        "dag1-nw2-greedy3",
        20207,
        7,
        0x74a1463ea4ffa570,
        0x0000000000000000,
    ),
    (
        "dag2-first-fit",
        27157,
        0,
        0x36c4f40789ce47e9,
        0xd4b1eca0022cfdc3,
    ),
    (
        "dag2-nw3-single",
        27157,
        0,
        0xacd9ced3f2cd46e9,
        0x0000000000000000,
    ),
    (
        "dag2-nw3-greedy3",
        19870,
        5,
        0x6d8530439f93fccd,
        0x0000000000000000,
    ),
    (
        "dag3-first-fit",
        11616,
        0,
        0xe68d583443dcc774,
        0xdf7775c8c7952d9b,
    ),
    (
        "dag3-nw4-single",
        11616,
        0,
        0x3e0c498205b03735,
        0x0000000000000000,
    ),
    (
        "dag3-nw4-greedy3",
        9029,
        0,
        0xa86ad944fca84eb6,
        0x0000000000000000,
    ),
    (
        "dag4-first-fit",
        24277,
        0,
        0x14c8ce763c9bd5db,
        0xfdbe9023669e7a38,
    ),
    (
        "dag4-nw5-single",
        24277,
        0,
        0x87e6eed327ea2959,
        0x0000000000000000,
    ),
    (
        "dag4-nw5-greedy3",
        16176,
        0,
        0x15b78a5b04668fb1,
        0x0000000000000000,
    ),
    (
        "dag5-first-fit",
        29245,
        0,
        0x36a308afcee795f3,
        0xf2c8e75eb892d8f3,
    ),
    (
        "dag5-nw6-single",
        29245,
        0,
        0xa3330d5c7f6bebb6,
        0x0000000000000000,
    ),
    (
        "dag5-nw6-greedy3",
        18565,
        2,
        0x2c0b57ff9a6d75c2,
        0x0000000000000000,
    ),
    (
        "dag6-first-fit",
        13043,
        0,
        0x5e596af7c517d8d7,
        0x7f991a0c6f3bdbf3,
    ),
    (
        "dag6-nw1-single",
        18229,
        3,
        0x07c0de096b4817cc,
        0x0000000000000000,
    ),
    (
        "dag6-nw1-greedy3",
        18229,
        3,
        0x07c0de096b4817cc,
        0x0000000000000000,
    ),
    (
        "dag7-first-fit",
        19177,
        0,
        0x9e3d716f739c3547,
        0x908f5201ccec2d46,
    ),
    (
        "dag7-nw2-single",
        19177,
        1,
        0x0f0172fdbfec0214,
        0x0000000000000000,
    ),
    (
        "dag7-nw2-greedy3",
        16104,
        3,
        0x8fc39eede9e43802,
        0x0000000000000000,
    ),
    (
        "dag8-first-fit",
        24732,
        0,
        0x07c8030cc19f5898,
        0xecc8d4dea8665038,
    ),
    (
        "dag8-nw3-single",
        24732,
        0,
        0xe392d129de0c2818,
        0x0000000000000000,
    ),
    (
        "dag8-nw3-greedy3",
        16694,
        4,
        0xefde5c9e91c28dac,
        0x0000000000000000,
    ),
    (
        "dag9-first-fit",
        16765,
        0,
        0x933b5a26f1629007,
        0x30e8d5386109078b,
    ),
    (
        "dag9-nw4-single",
        16765,
        0,
        0xca86bd8596b29105,
        0x0000000000000000,
    ),
    (
        "dag9-nw4-greedy3",
        11705,
        2,
        0x7155be5e06024a26,
        0x0000000000000000,
    ),
    (
        "dag10-first-fit",
        25092,
        0,
        0xd79090572e10d2e4,
        0x58dfa1c3eafd9dbc,
    ),
    (
        "dag10-nw5-single",
        25092,
        0,
        0x71f7cf862eb4d7e6,
        0x0000000000000000,
    ),
    (
        "dag10-nw5-greedy3",
        18032,
        0,
        0x25fb8d3b9c35a21d,
        0x0000000000000000,
    ),
    (
        "dag11-first-fit",
        25241,
        0,
        0xa626fe41828b4d70,
        0xc45073c0d976eac1,
    ),
    (
        "dag11-nw6-single",
        25241,
        0,
        0x020ba4e4043d4237,
        0x0000000000000000,
    ),
    (
        "dag11-nw6-greedy3",
        18015,
        0,
        0x35b5330a695d2b8f,
        0x0000000000000000,
    ),
    (
        "dag12-first-fit",
        12936,
        0,
        0x1bf764be3ec26533,
        0xd4cecf3f9bcd0aac,
    ),
    (
        "dag12-nw1-single",
        12936,
        0,
        0x1bf764be3ec26533,
        0x0000000000000000,
    ),
    (
        "dag12-nw1-greedy3",
        12936,
        0,
        0x1bf764be3ec26533,
        0x0000000000000000,
    ),
    (
        "dag13-first-fit",
        18775,
        0,
        0x02cb2fa7ae28ac1b,
        0x71310b8f42ba6303,
    ),
    (
        "dag13-nw2-single",
        20589,
        2,
        0x16901dc2d34aa64a,
        0x0000000000000000,
    ),
    (
        "dag13-nw2-greedy3",
        17930,
        5,
        0x962a96bd9f355d26,
        0x0000000000000000,
    ),
    (
        "dag14-first-fit",
        22494,
        0,
        0x18f951cd43672e3d,
        0xe67ed15c836bf395,
    ),
    (
        "dag14-nw3-single",
        22494,
        0,
        0x18f951cd43672e3d,
        0x0000000000000000,
    ),
    (
        "dag14-nw3-greedy3",
        14539,
        0,
        0xde82c171087382e8,
        0x0000000000000000,
    ),
    (
        "dag15-first-fit",
        14087,
        0,
        0x1bbbb9f438854589,
        0x639de5ad1e0eb931,
    ),
    (
        "dag15-nw4-single",
        14087,
        0,
        0x6a309c169d62d609,
        0x0000000000000000,
    ),
    (
        "dag15-nw4-greedy3",
        11942,
        2,
        0x90ceadbe625061aa,
        0x0000000000000000,
    ),
    (
        "dag16-first-fit",
        16403,
        0,
        0x745dd4964c38f390,
        0xc38fed9ce76623b9,
    ),
    (
        "dag16-nw5-single",
        16403,
        0,
        0xa0d6e8dacf5487d1,
        0x0000000000000000,
    ),
    (
        "dag16-nw5-greedy3",
        12012,
        0,
        0x182fad5ecd38cf4f,
        0x0000000000000000,
    ),
    (
        "dag17-first-fit",
        22930,
        0,
        0xcdba3cca664c1f73,
        0xc253d036211dfa5e,
    ),
    (
        "dag17-nw6-single",
        22930,
        0,
        0x6c8da97f8ff41236,
        0x0000000000000000,
    ),
    (
        "dag17-nw6-greedy3",
        15369,
        3,
        0xe47e8e1e88816cf7,
        0x0000000000000000,
    ),
    (
        "dag18-first-fit",
        13883,
        0,
        0x25a2f0314bc6c2cd,
        0x24793a1ddcd66e73,
    ),
    (
        "dag18-nw1-single",
        20323,
        4,
        0xf9caf7968833a5b2,
        0x0000000000000000,
    ),
    (
        "dag18-nw1-greedy3",
        20323,
        4,
        0xf9caf7968833a5b2,
        0x0000000000000000,
    ),
    (
        "dag19-first-fit",
        20897,
        0,
        0x45e4eba6079fdfd2,
        0x7ff51bf45f69da2d,
    ),
    (
        "dag19-nw2-single",
        20897,
        1,
        0xbc5a13ed30abeb93,
        0x0000000000000000,
    ),
    (
        "dag19-nw2-greedy3",
        18410,
        5,
        0x6c0cd5ef38ef7962,
        0x0000000000000000,
    ),
];

#[test]
fn task_graph_runs_match_the_pins() {
    let observed = observe_all();
    let expected: Vec<(String, Observed)> = PINS
        .iter()
        .map(|&(name, makespan, blocked, digest, busy)| {
            (name.to_string(), (makespan, blocked, digest, busy))
        })
        .collect();
    if observed != expected {
        let rows: String = observed
            .iter()
            .map(|(name, (makespan, blocked, digest, busy))| {
                format!("    ({name:?}, {makespan}, {blocked}, {digest:#018x}, {busy:#018x}),\n")
            })
            .collect();
        panic!("task-graph runs differ from the pins; observed:\n{rows}");
    }
}
