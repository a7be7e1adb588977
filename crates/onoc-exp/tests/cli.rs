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

/// Writes `text` to a fresh file named `name` in a per-test directory.
fn spec_file(test: &str, name: &str, text: &str) -> String {
    let dir = std::env::temp_dir().join(format!("onoc-cli-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path.to_string_lossy().into_owned()
}

const ENERGY: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/scenario_energy.toml"
);

#[test]
fn override_flags_that_break_the_spec_exit_2() {
    let paper_app = spec_file(
        "overrides",
        "paper_app.toml",
        "name = \"paper\"\nscale = \"smoke\"\n[workload]\nkind = \"paper-app\"\n\
         [allocator]\nkind = \"counts\"\ncounts = [1, 1, 1, 1, 1, 1]\n",
    );
    for (spec, flag, value) in [
        (ENERGY, "--fault-ber", "2"),
        (ENERGY, "--fault-ber", "nan"),
        (ENERGY, "--heal-policy", "re-pack-strict"),
        (paper_app.as_str(), "--transport", "gbn"),
    ] {
        let args = ["run", "--spec", spec, "--scale", "smoke", flag, value];
        let out = onoc(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must fail before running");
    }
}

#[test]
fn one_edit_spec_mistakes_exit_1_and_name_the_key() {
    let base = std::fs::read_to_string(ENERGY).unwrap();
    let edits: [(&str, &str, &str); 9] = [
        ("wavelengths = 8", "wavelenghts = 2", "arch.wavelengths"),
        (
            "policy = \"single\"",
            "plicy = \"greedy\"",
            "allocator.policy",
        ),
        ("policy = \"single\"", "policy = 3", "allocator.policy"),
        (
            "\n[energy]\n",
            "\n[faults]\nbre = 0.5\n[energy]\n",
            "faults.ber",
        ),
        (
            "\n[energy]\n",
            "\n[faults]\nseed = -1\n[energy]\n",
            "faults.seed",
        ),
        (
            "\n[energy]\n",
            "\n[transport]\nmode = \"pfc\"\nwindow = 8\n[energy]\n",
            "transport.window",
        ),
        (
            "\n[energy]\n",
            "\n[injection]\nmode = \"credit\"\necn_threshold = 0.5\n[energy]\n",
            "injection.ecn_threshold",
        ),
        (
            "pattern = \"uniform\"",
            "pattern = \"uniform\"\nhotspots = [3]",
            "workload.hotspots",
        ),
        (
            "message_bits = 512.0",
            "message_bits = 1e300",
            "workload.message_bits",
        ),
    ];
    for (i, (from, to, key)) in edits.into_iter().enumerate() {
        assert!(base.contains(from), "{from}");
        let toml = base.replacen(from, to, 1);
        let json = onoc_exp::Value::parse_toml(&toml).unwrap().to_json();
        for (name, text) in [(format!("{i}.toml"), &toml), (format!("{i}.json"), &json)] {
            let path = spec_file("strict", &name, text);
            let out = onoc(&["run", "--spec", &path, "--scale", "smoke"]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name} ({to}): {stderr}");
            assert!(stderr.contains(&format!("`{key}`")), "{name}: {stderr}");
            if to.contains("1e300") {
                // The range error quotes the value short, not in 301 digits.
                assert!(stderr.contains("got 1e300"), "{name}: {stderr}");
            }
        }
    }
}

#[test]
fn sweep_grids_the_spec_rejects_exit_2_instead_of_panicking() {
    for args in [
        &["sweep", "--wavelengths", "200", "--rates", "0.01"][..],
        &["sweep", "--rates", "1.5"],
        &["sweep", "--rings", "1"],
        &["sweep", "--policy", "greedy:0"],
    ] {
        let out = onoc(&[args, &["--scale", "smoke"]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("invalid sweep"), "{args:?}: {stderr}");
    }
}

const PAPER_GA: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/scenario_paper_ga.toml"
);

#[test]
fn a_ga_too_small_to_run_exits_1_and_names_the_key() {
    let base = std::fs::read_to_string(PAPER_GA).unwrap();
    for (setting, key) in [
        ("population = 3", "allocator.population"),
        ("generations = 0", "allocator.generations"),
    ] {
        let toml = base.replacen(
            "kind = \"nsga2\"",
            &format!("kind = \"nsga2\"\n{setting}"),
            1,
        );
        assert_ne!(toml, base);
        let path = spec_file("small-ga", &format!("{key}.toml"), &toml);
        let out = onoc(&["run", "--spec", &path, "--scale", "smoke"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{setting}: {stderr}");
        assert!(stderr.contains(&format!("`{key}`")), "{setting}: {stderr}");
        assert!(!stderr.contains("panicked"), "{setting}: {stderr}");
    }
}

const SERVE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/scenario_serve.toml"
);

#[test]
fn a_reader_that_closes_stdout_early_is_not_a_crash() {
    use std::io::BufRead;
    use std::process::Stdio;
    // Both artifacts are larger than a pipe buffer, so the writer is
    // still mid-artifact when the reader goes away (`onoc ... | head -1`).
    for args in [&["serve", "--spec", SERVE][..], &["run", "fig7", "--quick"]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_onoc"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("the onoc binary runs");
        let mut first = String::new();
        std::io::BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut first)
            .unwrap();
        assert!(!first.is_empty(), "{args:?} printed nothing");
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// Runs a dynamic-allocator pipeline kernel whose `exec_kcc` or
/// `volume_kbits` saturates a duration at `u64::MAX` cycles (its end
/// cycle used to wrap around into a too-small makespan): the run must
/// exit 1 and name `key`, without a panic.
fn assert_time_overflow_names(exec: &str, volume: &str, key: &str) {
    let toml = format!(
        "name = \"overflow\"\nscale = \"smoke\"\n[arch]\nnodes = 16\nwavelengths = 4\n\
         [workload]\nkind = \"kernel\"\nkernel = \"pipeline\"\nstages = 4\n\
         exec_kcc = {exec}\nvolume_kbits = {volume}\n\
         [allocator]\nkind = \"dynamic\"\npolicy = \"single\"\n"
    );
    let path = spec_file("overflow", &format!("{key}.toml"), &toml);
    let out = onoc(&["run", "--spec", &path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{key}: {stderr}");
    assert!(stderr.contains(&format!("`{key}`")), "{key}: {stderr}");
    assert!(!stderr.contains("panicked"), "{key}: {stderr}");
}

#[test]
fn transfer_time_past_u64_exits_1_and_names_the_volume() {
    assert_time_overflow_names("1.0", "1e300", "workload.volume_kbits");
}

#[test]
fn task_time_past_u64_exits_1_and_names_the_exec_time() {
    assert_time_overflow_names("1e300", "6.0", "workload.exec_kcc");
}

/// Runs `onoc args…` with its address space capped at 2 GiB, so a
/// telemetry series that grows with simulated time aborts at once
/// instead of taking the host's memory.
#[cfg(unix)]
fn onoc_capped(args: &[&str]) -> Output {
    Command::new("sh")
        .arg("-c")
        .arg("ulimit -v 2097152 && exec \"$0\" \"$@\"")
        .arg(env!("CARGO_BIN_EXE_onoc"))
        .args(args)
        .output()
        .expect("sh runs the onoc binary")
}

/// Requires exit 1 naming `telemetry.window`, without a panic.
fn assert_window_cap(out: &Output, case: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{case}: {stderr}");
    assert!(stderr.contains("`telemetry.window`"), "{case}: {stderr}");
    assert!(!stderr.contains("panicked"), "{case}: {stderr}");
}

#[cfg(unix)]
#[test]
fn a_serve_run_past_the_telemetry_window_cap_exits_1() {
    // Sessions this sparse arrive near cycle 10^11, which the series
    // must not grow towards one window at a time.
    let base = std::fs::read_to_string(SERVE).unwrap();
    let toml = base.replacen("arrival_rate = 0.02 ", "arrival_rate = 1e-9 ", 1);
    assert_ne!(toml, base);
    let path = spec_file("window-cap", "serve.toml", &toml);
    let out = onoc_capped(&["serve", "--spec", &path, "--quick"]);
    assert_window_cap(&out, "serve");
}

/// Runs `onoc serve --quick` on `toml`, whose `key` drives a session's
/// arrival cycle or holding time past `u64` cycles (which used to
/// saturate there and print that cycle as the horizon): the run must exit
/// 1 and name `key`, without a panic.
fn assert_session_clock_names(toml: &str, key: &str) {
    let path = spec_file("session-clock", &format!("{key}.toml"), toml);
    let out = onoc(&["serve", "--spec", &path, "--quick"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{key}: {stderr}");
    assert!(stderr.contains(&format!("`{key}`")), "{key}: {stderr}");
    assert!(!stderr.contains("panicked"), "{key}: {stderr}");
}

#[test]
fn session_clocks_past_u64_exit_1_and_name_the_key() {
    let base = std::fs::read_to_string(SERVE).unwrap();
    let untimed = &base[..base.find("[telemetry]").unwrap()];
    for (from, to, key) in [
        (
            "arrival_rate = 0.02 ",
            "arrival_rate = 1e-300 ",
            "service.arrival_rate",
        ),
        (
            "mean_hold = 400.0 ",
            "mean_hold = 1e300 ",
            "service.mean_hold",
        ),
    ] {
        let toml = untimed.replacen(from, to, 1);
        assert_ne!(toml, untimed);
        assert_session_clock_names(&toml, key);
    }
    let trace = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/trace_replay.csv"
    );
    let toml = format!(
        "name = \"stretch\"\n[arch]\nnodes = 16\nwavelengths = 4\n\
         [workload]\nkind = \"trace\"\npath = \"{trace}\"\n\
         [allocator]\nkind = \"dynamic\"\npolicy = \"single\"\n\
         [service]\nstretch = 1e300\n"
    );
    assert_session_clock_names(&toml, "service.stretch");
}

#[test]
fn a_run_past_the_telemetry_window_cap_exits_1_before_simulating() {
    // Injections reach cycle ~200 000: 100 000 windows of 2 cycles.
    let toml = "name = \"windows\"\n[arch]\nnodes = 4\nwavelengths = 2\n\
                [workload]\nkind = \"synthetic\"\npattern = \"uniform\"\n\
                injection_rate = 0.001\nmessage_bits = 64.0\nhorizon = 200000\n\
                [allocator]\nkind = \"dynamic\"\npolicy = \"single\"\n\
                [telemetry]\nwindow = 2\n";
    let path = spec_file("window-cap", "run.toml", toml);
    let out = onoc(&["run", "--spec", &path]);
    assert_window_cap(&out, "run");
    assert!(out.stdout.is_empty(), "the cap is checked before the run");
}

#[test]
fn a_bench_check_leaves_the_baseline_and_writes_no_artifact() {
    let dir = std::env::temp_dir().join(format!("onoc-cli-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim_core.json");
    let baseline = std::fs::read(committed).unwrap();
    std::fs::write(dir.join("baseline.json"), &baseline).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_onoc"))
        .args([
            "bench",
            "--quick",
            "--factor",
            "1e9",
            "--check",
            "baseline.json",
        ])
        .current_dir(&dir)
        .output()
        .expect("the onoc binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        !dir.join("BENCH_sim_core.json").exists(),
        "a check wrote the default artifact"
    );
    assert_eq!(std::fs::read(dir.join("baseline.json")).unwrap(), baseline);
    std::fs::remove_dir_all(&dir).unwrap();
}
