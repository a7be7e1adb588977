//! Artifact-byte pins for the shipped example specs.
//!
//! Every `examples/*.toml` runs through `run_spec` at smoke scale, as
//! `onoc run --spec <file> --scale smoke` does, and
//! `scenario_serve.toml` also runs through `run_serve` at its own scale
//! (1 000 sessions), as `onoc serve --spec` does. Each artifact's text
//! rendering and JSON document must hash to the recorded FNV-1a digest.
//! On a mismatch the test prints the whole observed table, ready to
//! paste over `PINS` once a change of output is intended.

use std::path::{Path, PathBuf};

use onoc_exp::{Report, Scale, ScenarioSpec, WorkloadSpec, run_serve, run_spec};

/// `(spec file, run, render() digest, to_json() digest)`.
const PINS: &[(&str, &str, u64, u64)] = &[
    (
        "scenario.toml",
        "run-smoke",
        0xca1bbb20d09fd8ca,
        0xa8b870e0feee9cf2,
    ),
    (
        "scenario_closed_loop.toml",
        "run-smoke",
        0x9c85e3ae0c630217,
        0x97cb0cb21b342f34,
    ),
    (
        "scenario_energy.toml",
        "run-smoke",
        0x7050351d15718a69,
        0x15d2c7dda4acd7fd,
    ),
    (
        "scenario_faults.toml",
        "run-smoke",
        0x09c004f560c2d7af,
        0xe23aba1336134501,
    ),
    (
        "scenario_healing.toml",
        "run-smoke",
        0xf7a1fa35cc824b26,
        0x45fa9e5bbfcabb35,
    ),
    (
        "scenario_paper_ga.toml",
        "run-smoke",
        0x693abaced93679d8,
        0x3a47b300e20015ac,
    ),
    (
        "scenario_serve.toml",
        "run-smoke",
        0x7a4344a637d312de,
        0x1550ad5c99a16cc2,
    ),
    (
        "scenario_serve.toml",
        "serve",
        0xdd943baa07e44973,
        0x7c122325687edd1a,
    ),
    (
        "scenario_telemetry.toml",
        "run-smoke",
        0x2eea7aa99902cfff,
        0xca5576bc5e9dcc53,
    ),
    (
        "scenario_trace_replay.toml",
        "run-smoke",
        0x5b72d3270e8a95cf,
        0x4e8c9351167a93ac,
    ),
];

fn examples_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples")
}

/// FNV-1a 64-bit digest of an artifact's bytes.
fn fnv1a(bytes: &str) -> u64 {
    bytes.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Parses a spec file, resolving a relative trace path against the
/// examples directory the way the CLI does. The trace artifact prints
/// that path, so it stays package-relative (cargo runs integration tests
/// from the package root) and the pins hold wherever the checkout lives.
fn load(path: &Path) -> ScenarioSpec {
    let raw = std::fs::read_to_string(path).unwrap();
    let mut spec = ScenarioSpec::from_toml_str(&raw).unwrap();
    if let WorkloadSpec::Trace { path: trace } = &mut spec.workload {
        *trace = Path::new("../../examples")
            .join(&*trace)
            .to_string_lossy()
            .into_owned();
    }
    spec
}

#[test]
fn example_artifacts_match_the_pins() {
    let mut files: Vec<PathBuf> = std::fs::read_dir(examples_dir())
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == "toml"))
        .collect();
    files.sort();
    let mut observed = Vec::new();
    let mut record = |file: &Path, run: &'static str, report: Report| {
        let name = file.file_name().unwrap().to_string_lossy().into_owned();
        observed.push((name, run, fnv1a(&report.render()), fnv1a(&report.to_json())));
    };
    for file in &files {
        let mut spec = load(file);
        let serve_scale = spec.scale;
        spec.scale = Scale::Smoke;
        record(file, "run-smoke", run_spec(&spec, 2).unwrap());
        if spec.service.is_some() {
            spec.scale = serve_scale;
            record(file, "serve", run_serve(&spec).unwrap());
        }
    }
    let expected: Vec<(String, &str, u64, u64)> = PINS
        .iter()
        .map(|&(file, run, text, json)| (file.to_string(), run, text, json))
        .collect();
    if observed != expected {
        let rows: String = observed
            .iter()
            .map(|(file, run, text, json)| {
                format!("    ({file:?}, {run:?}, {text:#018x}, {json:#018x}),\n")
            })
            .collect();
        panic!("example artifacts differ from the pins; observed:\n{rows}");
    }
}
