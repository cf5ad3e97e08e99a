//! End-to-end fault-tolerance properties across the whole stack: the
//! injection campaign is bit-reproducible, the unprotected XOR chain is
//! measurably fragile, and the CRC + retransmission stack recovers full
//! delivery — the same properties `noxsim faults` turns into artifacts,
//! here locked as regression tests.

use nox::analysis::harness::faults;
use nox::analysis::Tier;
use nox::exec::Executor;
use nox::fault::FaultConfig;
use nox::prelude::*;
use nox::sim::network::Network;
use nox::traffic::synthetic::generate;

#[test]
fn fault_campaigns_are_reproducible() {
    // Same seed, same config: stats and counters must match bit for bit
    // on every architecture, protected and unprotected alike.
    let mesh = Mesh::new(4, 4);
    let trace = generate(mesh, &SyntheticConfig::uniform(800.0, 3_000.0));
    for arch in Arch::ALL {
        for protected in [false, true] {
            let run_once = || {
                let cfg = if protected {
                    FaultConfig::protected_bit_flips(0xBEEF, 0.005)
                } else {
                    FaultConfig::bit_flips(0xBEEF, 0.005)
                };
                let mut net = Network::new(NetConfig::small(arch), &trace, (0.0, f64::MAX));
                net.enable_faults(cfg);
                net.run_to_settlement(400_000);
                (*net.counters(), net.fault_state().unwrap().stats().clone())
            };
            let (c1, s1) = run_once();
            let (c2, s2) = run_once();
            assert_eq!(c1, c2, "{arch} protected={protected}: counters diverged");
            assert_eq!(s1, s2, "{arch} protected={protected}: fault stats diverged");
        }
    }
}

#[test]
fn fault_study_artifacts_are_bit_identical_across_runs() {
    // The smoke-tier campaign drives all four architectures; its JSON
    // document is the input to both fault claims, so bit-identical JSON
    // here means bit-identical claims output too.
    let a = faults::run_with(Tier::Smoke, &Executor::sequential());
    let b = faults::run_with(Tier::Smoke, &Executor::sequential());
    assert_eq!(a.render(), b.render());
    assert_eq!(a.to_json().to_string(), b.to_json().to_string());
}

#[test]
fn chain_fragility_and_protected_recovery_hold_end_to_end() {
    let study = faults::run_with(Tier::Smoke, &Executor::sequential());

    // Claim (a): the unprotected XOR chain fans single bit flips out
    // into strictly more silent corruptions per flip than the
    // non-speculative baseline suffers.
    assert!(
        study.nox_fragility_holds(),
        "NoX fragility signature lost: nox={:.3}/flip nonspec={:.3}/flip",
        study.silent_per_flip(Arch::Nox),
        study.silent_per_flip(Arch::NonSpec),
    );

    // Claim (b): CRC + retransmission recovers 100% delivery with zero
    // silent corruptions on every architecture, with bounded recovery
    // latency.
    for arch in Arch::ALL {
        assert!(study.full_recovery(arch), "{arch} failed to fully recover");
    }
    let latency = study.nox_max_recovery_latency();
    assert!(
        latency > 0 && latency <= 20_000,
        "recovery latency {latency} outside the claimed band"
    );
}
