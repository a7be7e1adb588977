//! NSGA-II outcome pins.
//!
//! Small converging runs on the paper instance (population 60 × 40
//! generations at 4 and 8 wavelengths, every objective set, three seeds)
//! must reproduce the recorded outcome bit for bit: the search
//! statistics, the archive front's objectives and the final
//! population's chromosomes and objectives. A change to the evaluator,
//! the front sort, the crowding ties, the selection order or the RNG
//! draws shows up here even when it keeps a run deterministic.
//!
//! On a mismatch the test prints the whole observed table, ready to
//! paste over `PINS` once a behaviour change is intended.

use onoc_wa::{Nsga2, Nsga2Config, Nsga2Outcome, ObjectiveSet, Objectives, ProblemInstance};

/// One pinned run and its recorded outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    wavelengths: usize,
    set: ObjectiveSet,
    seed: u64,
    evaluations: usize,
    valid_evaluations: usize,
    unique_valid: usize,
    front_len: usize,
    /// FNV-1a over the front's objective bits, in front order.
    front_digest: u64,
    /// FNV-1a over the final population's genes and objective bits.
    population_digest: u64,
}

/// Recorded with the sort, crowding and evaluator this file was written
/// against; every row is one `run` call.
const PINS: &[Pin] = &[
    Pin {
        wavelengths: 4,
        set: ObjectiveSet::TimeEnergy,
        seed: 1,
        evaluations: 2460,
        valid_evaluations: 1235,
        unique_valid: 726,
        front_len: 15,
        front_digest: 0x5874227ca132e93d,
        population_digest: 0x6052780574a749f5,
    },
    Pin {
        wavelengths: 4,
        set: ObjectiveSet::TimeEnergy,
        seed: 2,
        evaluations: 2460,
        valid_evaluations: 1376,
        unique_valid: 923,
        front_len: 17,
        front_digest: 0x8862bb973b582003,
        population_digest: 0xef427982f210d9c7,
    },
    Pin {
        wavelengths: 4,
        set: ObjectiveSet::TimeEnergy,
        seed: 3,
        evaluations: 2460,
        valid_evaluations: 1359,
        unique_valid: 851,
        front_len: 17,
        front_digest: 0xce6156ff7e357b02,
        population_digest: 0xbe170fbc74215f95,
    },
    Pin {
        wavelengths: 4,
        set: ObjectiveSet::TimeBer,
        seed: 1,
        evaluations: 2460,
        valid_evaluations: 1346,
        unique_valid: 667,
        front_len: 16,
        front_digest: 0xe234394512043aec,
        population_digest: 0xc9ec3b968c241744,
    },
    Pin {
        wavelengths: 4,
        set: ObjectiveSet::TimeBer,
        seed: 2,
        evaluations: 2460,
        valid_evaluations: 1403,
        unique_valid: 770,
        front_len: 15,
        front_digest: 0x704b7862a5dd889f,
        population_digest: 0x7033743c0a6c3937,
    },
    Pin {
        wavelengths: 4,
        set: ObjectiveSet::TimeBer,
        seed: 3,
        evaluations: 2460,
        valid_evaluations: 1285,
        unique_valid: 817,
        front_len: 16,
        front_digest: 0xef0fe8b8948fd120,
        population_digest: 0x0365f7ad34b16922,
    },
    Pin {
        wavelengths: 4,
        set: ObjectiveSet::TimeEnergyBer,
        seed: 1,
        evaluations: 2460,
        valid_evaluations: 1224,
        unique_valid: 876,
        front_len: 67,
        front_digest: 0xf7412238812956b9,
        population_digest: 0x1670fc2ea3d7ff73,
    },
    Pin {
        wavelengths: 4,
        set: ObjectiveSet::TimeEnergyBer,
        seed: 2,
        evaluations: 2460,
        valid_evaluations: 1423,
        unique_valid: 1015,
        front_len: 50,
        front_digest: 0x799485b1f6641580,
        population_digest: 0xb6f468012cc02f93,
    },
    Pin {
        wavelengths: 4,
        set: ObjectiveSet::TimeEnergyBer,
        seed: 3,
        evaluations: 2460,
        valid_evaluations: 1397,
        unique_valid: 907,
        front_len: 57,
        front_digest: 0x1ce8e1a27e841058,
        population_digest: 0xcfb06ebedd4c9905,
    },
    Pin {
        wavelengths: 8,
        set: ObjectiveSet::TimeEnergy,
        seed: 1,
        evaluations: 2460,
        valid_evaluations: 1570,
        unique_valid: 1264,
        front_len: 25,
        front_digest: 0xc0ccabab59bdeb8b,
        population_digest: 0xf0f3f92af4b19a4a,
    },
    Pin {
        wavelengths: 8,
        set: ObjectiveSet::TimeEnergy,
        seed: 2,
        evaluations: 2460,
        valid_evaluations: 1706,
        unique_valid: 1402,
        front_len: 31,
        front_digest: 0xadfd1c94989bda5c,
        population_digest: 0xe2c89f6de9af0de8,
    },
    Pin {
        wavelengths: 8,
        set: ObjectiveSet::TimeEnergy,
        seed: 3,
        evaluations: 2460,
        valid_evaluations: 1605,
        unique_valid: 1358,
        front_len: 37,
        front_digest: 0xeeb4aa98270adbae,
        population_digest: 0xf8eedcb20a1d3803,
    },
    Pin {
        wavelengths: 8,
        set: ObjectiveSet::TimeBer,
        seed: 1,
        evaluations: 2460,
        valid_evaluations: 1515,
        unique_valid: 1271,
        front_len: 26,
        front_digest: 0x252eca8f3a34c48b,
        population_digest: 0x29332c186cde8c82,
    },
    Pin {
        wavelengths: 8,
        set: ObjectiveSet::TimeBer,
        seed: 2,
        evaluations: 2460,
        valid_evaluations: 1667,
        unique_valid: 1269,
        front_len: 24,
        front_digest: 0x3ef28905667eba8f,
        population_digest: 0x7c8e8ef8a89b2658,
    },
    Pin {
        wavelengths: 8,
        set: ObjectiveSet::TimeBer,
        seed: 3,
        evaluations: 2460,
        valid_evaluations: 1730,
        unique_valid: 1335,
        front_len: 22,
        front_digest: 0x363e097ab42814df,
        population_digest: 0x791462a7f7c774de,
    },
    Pin {
        wavelengths: 8,
        set: ObjectiveSet::TimeEnergyBer,
        seed: 1,
        evaluations: 2460,
        valid_evaluations: 1564,
        unique_valid: 1341,
        front_len: 84,
        front_digest: 0x509952f8734ccf9b,
        population_digest: 0x12371281eb7125a3,
    },
    Pin {
        wavelengths: 8,
        set: ObjectiveSet::TimeEnergyBer,
        seed: 2,
        evaluations: 2460,
        valid_evaluations: 1590,
        unique_valid: 1374,
        front_len: 104,
        front_digest: 0xee0ac788051a230c,
        population_digest: 0x846b457b86b6238c,
    },
    Pin {
        wavelengths: 8,
        set: ObjectiveSet::TimeEnergyBer,
        seed: 3,
        evaluations: 2460,
        valid_evaluations: 1687,
        unique_valid: 1462,
        front_len: 100,
        front_digest: 0x286bce1a9c1cf0d6,
        population_digest: 0x31fef92d1ce3df92,
    },
];

const SETS: [ObjectiveSet; 3] = [
    ObjectiveSet::TimeEnergy,
    ObjectiveSet::TimeBer,
    ObjectiveSet::TimeEnergyBer,
];

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

    fn objectives(&mut self, o: &Objectives) {
        self.word(o.exec_time.value().to_bits());
        self.word(o.bit_energy.value().to_bits());
        self.word(o.avg_log_ber.to_bits());
    }
}

fn run(wavelengths: usize, set: ObjectiveSet, seed: u64) -> Pin {
    let instance = ProblemInstance::paper_with_wavelengths(wavelengths);
    let evaluator = instance.evaluator();
    let Nsga2Outcome {
        front,
        final_population,
        stats,
    } = Nsga2::new(
        &evaluator,
        Nsga2Config {
            population_size: 60,
            generations: 40,
            objectives: set,
            seed,
            ..Nsga2Config::default()
        },
    )
    .run();
    let mut front_digest = Fnv::new();
    for point in front.points() {
        front_digest.objectives(&point.objectives);
    }
    let mut population_digest = Fnv::new();
    for individual in &final_population {
        for &gene in individual.allocation.genes() {
            population_digest.word(u64::from(gene));
        }
        match &individual.objectives {
            Some(o) => population_digest.objectives(o),
            None => population_digest.word(u64::MAX),
        }
    }
    Pin {
        wavelengths,
        set,
        seed,
        evaluations: stats.evaluations,
        valid_evaluations: stats.valid_evaluations,
        unique_valid: stats.unique_valid,
        front_len: front.len(),
        front_digest: front_digest.0,
        population_digest: population_digest.0,
    }
}

fn check(wavelengths: usize) {
    let observed: Vec<Pin> = SETS
        .iter()
        .flat_map(|&set| [1, 2, 3].map(|seed| run(wavelengths, set, seed)))
        .collect();
    let expected: Vec<Pin> = PINS
        .iter()
        .filter(|p| p.wavelengths == wavelengths)
        .copied()
        .collect();
    if observed != expected {
        let rows: String = observed
            .iter()
            .map(|p| {
                format!(
                    "    Pin {{\n        wavelengths: {},\n        set: ObjectiveSet::{:?},\n        \
                     seed: {},\n        evaluations: {},\n        valid_evaluations: {},\n        \
                     unique_valid: {},\n        front_len: {},\n        \
                     front_digest: {:#018x},\n        population_digest: {:#018x},\n    }},\n",
                    p.wavelengths,
                    p.set,
                    p.seed,
                    p.evaluations,
                    p.valid_evaluations,
                    p.unique_valid,
                    p.front_len,
                    p.front_digest,
                    p.population_digest
                )
            })
            .collect();
        panic!("NSGA-II outcome differs from the pins at {wavelengths} λ; observed:\n{rows}");
    }
}

#[test]
fn paper_instance_at_4_wavelengths_matches_the_pins() {
    check(4);
}

#[test]
fn paper_instance_at_8_wavelengths_matches_the_pins() {
    check(8);
}
