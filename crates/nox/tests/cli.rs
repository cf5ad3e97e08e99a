//! The `noxsim` binary itself, run as a process: the one front end to
//! every figure harness, and an argument parser that rejects what a
//! command does not list instead of ignoring it.
//!
//! Only the cheap harnesses (closed-form tables, golden traces) are run
//! here; the simulating ones go through the same table and are driven by
//! CI's `claims` job. The probe's exports (run reports, waveforms, Chrome
//! traces, heatmaps) are checked on short low-rate runs.

use std::process::{Command, Output};

use nox::analysis::harness;
use nox::analysis::Json;

fn noxsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_noxsim"))
        .args(args)
        .output()
        .expect("noxsim runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

#[test]
fn run_prints_the_versioned_document_or_the_tables() {
    let out = noxsim(&["run", "table2", "--json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let doc = Json::parse(stdout(&out).trim_end()).expect("--json prints one JSON document");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("nox-bench/table2/v1")
    );
    assert_eq!(doc.get("all_match").and_then(Json::as_bool), Some(true));

    let out = noxsim(&["run", "figs237"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("Figure 2"), "{}", stdout(&out));
}

#[test]
fn run_rejects_an_unknown_harness_and_lists_the_table() {
    let out = noxsim(&["run", "nosuch"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    for name in harness::names() {
        assert!(err.contains(name), "{name} missing from: {err}");
    }
    // The retired wrapper's name for fig13 is not an alias.
    assert!(!noxsim(&["run", "fig13_area"]).status.success());
}

#[test]
fn smoke_outranks_quick() {
    // The tier is announced on stderr; the cheapest tier named wins, in
    // either order, and `run` with no tier flag means the full tier.
    let tier_of = |args: &[&str]| {
        let out = noxsim(&[&["run", "table1"], args].concat());
        assert!(out.status.success(), "{}", stderr(&out));
        let err = stderr(&out);
        ["full", "quick", "smoke"]
            .into_iter()
            .find(|t| err.contains(&format!("at the {t} tier")))
            .unwrap_or_else(|| panic!("no tier announced: {err}"))
    };
    assert_eq!(tier_of(&["--quick", "--smoke"]), "smoke");
    assert_eq!(tier_of(&["--smoke", "--quick"]), "smoke");
    assert_eq!(tier_of(&["--quick"]), "quick");
    assert_eq!(tier_of(&[]), "full");
}

#[test]
fn flags_a_command_does_not_list_are_errors() {
    // A typo, a flag that belongs to other commands, and a value flag
    // spelled as another command's option: none may be swallowed.
    for args in [
        &["run", "statics", "--jsno", "x"][..],
        &["power", "--smoke", "--json"],
        &["claims", "--tier", "smoke"],
        &["run", "table1", "--chrome", "t.json"],
        &["info", "--csv"],
    ] {
        let out = noxsim(args);
        assert!(!out.status.success(), "{args:?} was accepted");
        let err = stderr(&out);
        assert!(err.contains("has no flag"), "{args:?}: {err}");
        // The error names the command's own flags.
        assert!(err.contains(&format!("usage: noxsim {}", args[0])), "{err}");
        assert!(stdout(&out).is_empty(), "{args:?} ran anyway");
    }
    // Stray positionals and unknown commands fail the same way.
    assert!(!noxsim(&["info", "extra"]).status.success());
    assert!(!noxsim(&["frobnicate"]).status.success());
}

#[test]
fn the_commands_run_replaced_are_unknown() {
    // `run verify`, `run statics` and `run faults` keep no aliases.
    for cmd in ["verify", "statics", "faults"] {
        let out = noxsim(&[cmd, "--quick"]);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("unknown command {cmd:?}")),
            "{cmd}: {}",
            stderr(&out)
        );
        assert!(stdout(&out).is_empty(), "{cmd} ran anyway");
    }
}

#[test]
fn run_verify_checks_the_protocol() {
    // One run (the sanitized sweep is slow in a debug build): the text on
    // stdout, the document that `--json` would print in the `--out` file.
    let dir = scratch("verify");
    let path = dir.join("verify.json");
    let path = path.to_str().unwrap();
    let out = noxsim(&["run", "verify", "--smoke", "--out", path]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("all mutations caught"), "{text}");
    let text = text
        .strip_suffix(&format!("wrote {path}\n"))
        .expect("--out");
    assert!(text.ends_with("sanitized sweep clean\n"), "{text}");
    let doc = read_json(std::path::Path::new(path));
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("nox-bench/verify/v1")
    );
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_is_printed_from_the_command_table() {
    let out = noxsim(&["--help"]);
    assert!(out.status.success());
    let help = stdout(&out);
    let commands = [
        "sweep", "app", "power", "gen", "replay", "heatmap", "claims", "run", "profile", "serve",
        "client", "info",
    ];
    for cmd in commands {
        assert!(
            help.contains(&format!("\n  {cmd}")),
            "{cmd} missing: {help}"
        );
    }
    // And no others: a command's synopsis is indented two spaces, its
    // description six.
    let section = help.split("\n\n").nth(1).expect("the command section");
    let listed = section.lines().filter(|l| !l.starts_with("   ")).count();
    assert_eq!(listed, 1 + commands.len(), "{section}");
    assert!(help.contains("run HARNESS"), "{help}");
    for h in harness::HARNESSES {
        assert!(help.contains(h.name) && help.contains(h.what), "{}", h.name);
    }
}

/// A fresh scratch directory for one test's files.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("noxsim-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read_json(path: &std::path::Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    Json::parse(text.trim_end()).unwrap_or_else(|e| panic!("{path:?} is not JSON: {e}"))
}

#[test]
fn numeric_flags_are_checked_where_they_enter() {
    // Refused with a message naming the flag: none may reach the
    // generator and panic there, and none may be rounded quietly.
    let dir = scratch("numeric-flags");
    let out_file = dir.join("t.txt");
    let out_file = out_file.to_str().unwrap();
    for (args, flag) in [
        (&["gen", "--len", "0"][..], "--len"),
        (&["sweep", "--len", "0", "--rates", "100"], "--len"),
        (&["gen", "--len", "2.9"], "--len"),
        (&["gen", "--len", "65536"], "--len"),
        (&["gen", "--rate", "-5"], "--rate"),
        (&["gen", "--rate", "inf"], "--rate"),
        (&["sweep", "--rates", "100,NaN"], "--rates"),
        (&["gen", "--duration", "0"], "--duration"),
        (&["gen", "--duration", "inf"], "--duration"),
        (&["gen", "--seed", "7.5"], "--seed"),
    ] {
        let mut args = args.to_vec();
        if args[0] == "gen" {
            args.extend(["--out", out_file]);
        }
        let out = noxsim(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains(&format!("error: {flag}")), "{args:?}: {err}");
        assert!(stdout(&out).is_empty(), "{args:?} ran anyway");
    }
    assert!(!std::path::Path::new(out_file).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeds_differ_in_their_last_bit() {
    // 2^53 and 2^53 + 1 are one number as an f64; as seeds they differ.
    let dir = scratch("seed-bits");
    let trace = |seed: &str| {
        let path = dir.join(seed);
        let out = noxsim(&[
            "gen",
            "--seed",
            seed,
            "--duration",
            "1000",
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        std::fs::read(&path).unwrap()
    };
    assert!(
        trace("9007199254740992") != trace("9007199254740993"),
        "seeds 2^53 and 2^53 + 1 wrote the same trace"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_writes_the_probe_report_waveform_and_chrome_trace() {
    let dir = scratch("replay");
    let (trace, run, chrome) = (
        dir.join("t.trace"),
        dir.join("run.json"),
        dir.join("ct.json"),
    );
    let path = |p: &std::path::PathBuf| p.to_str().unwrap().to_string();
    let out = noxsim(&[
        "gen",
        "--out",
        &path(&trace),
        "--rate",
        "100",
        "--duration",
        "1000",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let out = noxsim(&[
        "replay",
        "--trace",
        &path(&trace),
        "--arch",
        "nox",
        "--probe-out",
        &path(&run),
        "--wave",
        "27",
        "--chrome",
        &path(&chrome),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let doc = read_json(&run);
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("nox-probe/report-set/v1")
    );
    let reports = doc
        .get("reports")
        .and_then(Json::as_array)
        .expect("reports");
    assert!(!reports.is_empty(), "no probe reports");
    assert!(
        stdout(&out).contains("-- replay "),
        "no waveform: {}",
        stdout(&out)
    );
    read_json(&chrome);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_names_a_trace_it_cannot_read() {
    let dir = scratch("replay-missing");
    let missing = dir.join("missing.trace");
    let missing = missing.to_str().unwrap();
    let out = noxsim(&["replay", "--trace", missing]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains(&format!("could not read {missing}: ")),
        "{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn probe_reports_repeat_byte_for_byte() {
    // A run report holds simulated time only, so a rerun writes the same
    // file; the run's wall time is `noxsim profile`'s.
    let dir = scratch("probe-repeat");
    let write = |name: &str| {
        let path = dir.join(name);
        let out = noxsim(&[
            "sweep",
            "--arch",
            "nox",
            "--rates",
            "900",
            "--probe-out",
            path.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        std::fs::read(&path).unwrap()
    };
    let first = write("a.json");
    assert!(!first.is_empty());
    assert!(
        first == write("b.json"),
        "probe reports differ between runs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_writes_a_chrome_span_trace() {
    let dir = scratch("profile");
    let chrome = dir.join("t.json");
    // Flags may precede the harness name as well as follow it.
    let out = noxsim(&[
        "profile",
        "--quick",
        "--chrome",
        chrome.to_str().unwrap(),
        "table1",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    read_json(&chrome);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn heatmap_renders_the_mesh_grids() {
    let out = noxsim(&["heatmap", "--rate", "200"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.starts_with("== NoX @ 200 MB/s/node"), "{text}");
    assert!(
        text.contains("link utilization") && text.contains("y=7"),
        "{text}"
    );
}
