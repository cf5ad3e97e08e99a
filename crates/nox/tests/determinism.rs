//! Reproducibility: every layer of the stack is deterministic given its
//! seeds, so any experiment in this repository can be re-run bit for bit
//! — including through the `nox-exec` worker pool, whose submission-order
//! reduction must keep every artifact byte-identical at any thread count.

use std::path::{Path, PathBuf};

use nox::exec::Executor;
use nox::prelude::*;
use nox::sim::network::Network;
use nox::sim::sim::run;
use nox::traffic::cmp::synthesize;
use nox::traffic::synthetic::generate;

#[test]
fn traces_are_reproducible() {
    let mesh = Mesh::new(8, 8);
    let cfg = SyntheticConfig::uniform(900.0, 5_000.0);
    assert_eq!(generate(mesh, &cfg), generate(mesh, &cfg));
    let w = &WORKLOADS[0];
    assert_eq!(
        synthesize(mesh, w, 3_000.0, 5),
        synthesize(mesh, w, 3_000.0, 5)
    );
}

#[test]
fn simulations_are_reproducible() {
    let mesh = Mesh::new(4, 4);
    let trace = generate(mesh, &SyntheticConfig::uniform(1_000.0, 3_000.0));
    let spec = RunSpec::quick();
    for arch in Arch::ALL {
        let a = run(NetConfig::small(arch), &trace, &spec);
        let b = run(NetConfig::small(arch), &trace, &spec);
        assert_eq!(a.window_counters, b.window_counters, "{arch} diverged");
        assert_eq!(a.latency_ns, b.latency_ns, "{arch} latency diverged");
        assert_eq!(a.cycles, b.cycles);
    }
}

#[test]
fn saturated_paper_mesh_cycle_counts_are_pinned() {
    // The paper's 8x8 mesh at 2 GB/s/node uniform, the operating point of
    // the repo benchmark's `mesh_saturated` workload: how many cycles each
    // architecture simulates before its measured packets drain. Nothing
    // else pins these by value; any change to the step loop, the traffic
    // generator or the RNG that moves a simulated number moves these.
    // The energy counters are pinned beside them, so a miscounted event
    // fails here and not only in the claims run's Figure 12 tolerance.
    let trace = generate(
        Mesh::new(8, 8),
        &SyntheticConfig::uniform(2_000.0, 40_000.0),
    );
    let spec = RunSpec {
        warmup_ns: 1_500.0,
        measure_ns: 6_000.0,
        drain_ns: 30_000.0,
    };
    let results = Arch::ALL.map(|arch| run(NetConfig::paper(arch), &trace, &spec));
    assert_eq!(
        results.each_ref().map(|r| r.cycles),
        [8169, 12918, 10436, 9887]
    );
    // The window counters nox-power charges energy for (Figure 12).
    let energy = results.each_ref().map(|r| {
        let c = &r.window_counters;
        [
            c.link_flits,
            c.link_wasted,
            c.xbar_traversals,
            c.xbar_inputs_active,
            c.buffer_writes,
            c.buffer_reads,
            c.arbitrations,
            c.decode_xors,
            c.decode_reg_writes,
        ]
    });
    assert_eq!(
        energy,
        [
            [607969, 0, 607969, 607969, 704200, 704190, 607969, 0, 0],
            [598618, 23418, 622036, 645723, 693275, 693273, 733030, 0, 0],
            [607911, 52280, 660191, 713742, 704140, 704117, 52280, 0, 0],
            [607982, 0, 607982, 642457, 704218, 737948, 574244, 34100, 34102],
        ]
    );
}

#[test]
fn eject_logs_are_reproducible() {
    let mesh = Mesh::new(4, 4);
    let trace = generate(mesh, &SyntheticConfig::uniform(1_000.0, 2_000.0));
    let run_once = || {
        let mut net = Network::new(NetConfig::small(Arch::Nox), &trace, (0.0, f64::MAX));
        net.enable_eject_log();
        assert!(net.run_to_quiescence(200_000));
        net.eject_log().unwrap().to_vec()
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn sweeps_are_thread_count_invariant() {
    use nox::analysis::sweep::sweep_series;

    // Transpose saturates inside this grid, so some series end early and
    // the waves shrink as they go.
    let cfg = SweepConfig {
        pattern: Pattern::Transpose,
        duration_ns: 3_000.0,
        run: RunSpec {
            warmup_ns: 300.0,
            measure_ns: 1_000.0,
            drain_ns: 2_000.0,
        },
        ..SweepConfig::uniform(vec![400.0, 1_200.0, 2_000.0, 2_800.0])
    };
    let nets = [Arch::NonSpec, Arch::SpecFast, Arch::Nox].map(NetConfig::paper);
    let sweep = |exec: &Executor| sweep_series("sweep", std::slice::from_ref(&cfg), &nets, exec);
    let serial = sweep(&Executor::sequential());
    let undrained = serial[0]
        .iter()
        .filter(|s| s.points.last().is_some_and(|p| !p.drained))
        .count();
    assert!(undrained > 0, "the grid never saturates: {serial:?}");
    let serial = format!("{serial:?}");
    for threads in [2, 8] {
        let parallel = format!("{:?}", sweep(&Executor::new(threads)));
        assert_eq!(serial, parallel, "sweep diverged at {threads} threads");
    }
}

#[test]
fn faults_artifact_is_thread_count_invariant() {
    use nox::analysis::harness::faults;
    use nox::analysis::Tier;

    let artifact = |exec: &Executor| faults::run_with(Tier::Smoke, exec).to_json().to_string();
    let serial = artifact(&Executor::sequential());
    for threads in [2, 8] {
        assert_eq!(
            serial,
            artifact(&Executor::new(threads)),
            "faults artifact diverged at {threads} threads"
        );
    }
}

#[test]
fn model_checker_reports_are_thread_count_invariant() {
    use nox::verify::{check_decoder_crc_with, check_with, Bounds, FaultBounds};

    let bounds = Bounds::quick();
    let serial = check_with(&bounds, &Executor::sequential());
    let fault_serial = check_decoder_crc_with(&FaultBounds::quick(), &Executor::sequential());
    for threads in [2, 8] {
        let exec = Executor::new(threads);
        let r = check_with(&bounds, &exec);
        assert_eq!(serial.scenarios, r.scenarios);
        assert_eq!(
            serial.states, r.states,
            "states diverged at {threads} threads"
        );
        assert_eq!(serial.exhausted, r.exhausted);
        assert_eq!(
            format!("{:?}", serial.violations),
            format!("{:?}", r.violations)
        );

        let f = check_decoder_crc_with(&FaultBounds::quick(), &exec);
        assert_eq!(
            (
                fault_serial.cases,
                fault_serial.presented,
                fault_serial.corrupted
            ),
            (f.cases, f.presented, f.corrupted),
            "I7 counters diverged at {threads} threads"
        );
        assert_eq!(fault_serial.flagged, f.flagged);
        assert_eq!(fault_serial.false_flags, f.false_flags);
        assert_eq!(fault_serial.max_fanout, f.max_fanout);
        assert_eq!(
            format!("{:?}", fault_serial.violations),
            format!("{:?}", f.violations)
        );
    }
}

#[test]
fn different_architectures_carry_identical_packet_sets() {
    // Trace-driven methodology: the offered traffic is byte-identical
    // across router architectures (only delivery timing differs).
    let mesh = Mesh::new(4, 4);
    let trace = generate(mesh, &SyntheticConfig::uniform(800.0, 2_000.0));
    let mut ejected: Vec<Vec<u64>> = Vec::new();
    for arch in Arch::ALL {
        let mut net = Network::new(NetConfig::small(arch), &trace, (0.0, f64::MAX));
        net.enable_eject_log();
        assert!(net.run_to_quiescence(200_000));
        let mut ids: Vec<u64> = net.eject_log().unwrap().iter().map(|&(p, _)| p.0).collect();
        ids.sort_unstable();
        ejected.push(ids);
    }
    assert!(ejected.windows(2).all(|w| w[0] == w[1]));
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn clippy_rejects_every_banned_path_in_the_seeded_fixture() {
    // The root clippy.toml is the determinism lint (DESIGN.md section 13),
    // enforced by CI's `cargo clippy --workspace --all-targets`. If clippy
    // stops flagging the fixture's use of a banned path, that gate has
    // rotted into a no-op. --locked keeps the committed Cargo.lock as is.
    let fixture = workspace_root().join("crates/nox/tests/fixtures/seeded_violations");
    let out = std::process::Command::new(env!("CARGO"))
        .args("clippy --offline --locked --quiet --manifest-path".split(' '))
        .arg(fixture.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("seeded_violations"))
        .args(["--", "-D", "warnings"])
        .output()
        .expect("run cargo clippy");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "clippy passed:\n{stderr}");
    let config = std::fs::read_to_string(workspace_root().join("clippy.toml")).unwrap();
    let banned: Vec<&str> = config
        .split("path = \"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap())
        .collect();
    assert!(banned.len() >= 6, "clippy.toml lost its bans: {banned:?}");
    for path in banned {
        assert!(
            stderr.contains(&format!("disallowed type `{path}`"))
                || stderr.contains(&format!("disallowed method `{path}`")),
            "clippy did not flag `{path}` in the fixture:\n{stderr}"
        );
    }
}

#[test]
fn banned_path_exceptions_sit_where_the_policy_allows() {
    // An exception is an `expect` (so clippy errors once it silences
    // nothing), carries a reason, and sits directly above the one call
    // it excuses: a clock read only in nox-telemetry, the machine's
    // thread count only in nox-exec. Nothing may `allow` a banned path.
    // Split so that this file does not match its own needle.
    let lint = concat!("clippy::", "disallowed_");
    let (mut offences, mut seen) = (Vec::new(), 0);
    let mut sources = Vec::new();
    for dir in ["crates", "shims"] {
        collect_rs(&workspace_root().join(dir), &mut sources);
    }
    for file in sources {
        let text = std::fs::read_to_string(&file).unwrap();
        let name = file.to_string_lossy();
        for (at, _) in text.match_indices(lint) {
            seen += 1;
            let open = text[..at].rfind('#').unwrap_or(0);
            let close = at + text[at..].find(")]").map_or(text.len() - at, |end| end + 2);
            let attr = &text[open..close];
            let next = text[close..].trim_start().lines().next().unwrap_or("");
            let placed = if text[at..].starts_with(concat!("clippy::", "disallowed_methods")) {
                let clock = next.contains("Instant::now") || next.contains("SystemTime::now");
                let width = next.contains("available_parallelism(");
                (name.contains("/crates/nox-telemetry/") && clock)
                    || (name.contains("/crates/nox-exec/") && width)
            } else {
                true
            };
            if !attr.starts_with("#[expect(") || !attr.contains("reason = ") || !placed {
                let line = text[..at].lines().count();
                offences.push(format!("{name}:{line}: {attr} {next}"));
            }
        }
    }
    assert!(seen > 0, "the scan found no exception at all");
    assert!(
        offences.is_empty(),
        "misplaced exceptions:\n{}",
        offences.join("\n")
    );
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
