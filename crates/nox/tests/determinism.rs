//! Reproducibility: every layer of the stack is deterministic given its
//! seeds, so any experiment in this repository can be re-run bit for bit
//! — including through the `nox-exec` worker pool, whose submission-order
//! reduction must keep every artifact byte-identical at any thread count.

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
    let trace = generate(
        Mesh::new(8, 8),
        &SyntheticConfig::uniform(2_000.0, 40_000.0),
    );
    let spec = RunSpec {
        warmup_ns: 1_500.0,
        measure_ns: 6_000.0,
        drain_ns: 30_000.0,
    };
    let cycles = Arch::ALL.map(|arch| run(NetConfig::paper(arch), &trace, &spec).cycles);
    assert_eq!(cycles, [8169, 12918, 10436, 9887]);
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
    use nox::analysis::sweep::{sweep, sweep_with};

    let cfg = SweepConfig {
        duration_ns: 8_000.0,
        run: RunSpec {
            warmup_ns: 500.0,
            measure_ns: 2_000.0,
            drain_ns: 8_000.0,
        },
        ..SweepConfig::uniform(vec![400.0, 900.0, 1_400.0])
    };
    let serial = format!("{:?}", sweep(Arch::Nox, &cfg));
    for threads in [2, 8] {
        let parallel = format!("{:?}", sweep_with(Arch::Nox, &cfg, &Executor::new(threads)));
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
