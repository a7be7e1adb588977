//! The `onoc` binary's flag handling: a flag a subcommand does not take
//! is a usage error (exit 2, naming the flag), never silently ignored,
//! while every flag USAGE documents for `onoc run --spec` is accepted.

use std::process::{Command, Output};

const SCENARIO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenario.toml");

fn onoc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_onoc"))
        .args(args)
        .output()
        .expect("the onoc binary runs")
}

#[test]
fn unknown_flags_exit_2_and_name_the_flag() {
    for flag in ["--workers", "--bogus", "--wrokers"] {
        let out = onoc(&["run", "--spec", SCENARIO, "--scale", "smoke", flag, "2"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(flag), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} must fail before running");
    }
    // The same rule holds for the other subcommands.
    for (args, flag) in [
        (&["sweep", "--workers", "2"][..], "--workers"),
        (
            &["serve", "--spec", SCENARIO, "--threads", "2"],
            "--threads",
        ),
        (&["bench", "--bogus"], "--bogus"),
        (&["diff", "a.json", "b.json", "--bogus"], "--bogus"),
        (&["list", "--bogus"], "--bogus"),
    ] {
        let out = onoc(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}

#[test]
fn every_documented_run_spec_flag_is_accepted() {
    let dir = std::env::temp_dir().join(format!("onoc-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (capture, chrome) = (path("trace.csv"), path("chrome.json"));
    let out_dir = path("out");
    let cases: [&[&str]; 12] = [
        &["--quick"],
        &["--scale", "smoke"],
        &["--seed", "7"],
        &["--threads", "2"],
        &["--json"],
        &["--out", &out_dir],
        &["--capture-trace", &capture],
        &["--export-chrome-trace", &chrome],
        &["--fault-ber", "0.001"],
        &["--fault-seed", "3"],
        &["--transport", "gbn"],
        &["--heal-policy", "park"],
    ];
    for extra in cases {
        let mut args = vec!["run", "--spec", SCENARIO, "--scale", "smoke"];
        args.extend_from_slice(extra);
        let out = onoc(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
