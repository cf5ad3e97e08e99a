//! End-to-end fault-tolerance properties across the whole stack: the
//! injection campaign is bit-reproducible, the unprotected XOR chain is
//! measurably fragile, and the CRC + retransmission stack recovers full
//! delivery — the same properties `noxsim run faults` turns into artifacts,
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

#[test]
fn fault_study_numbers_are_pinned() {
    // The study is compared with itself above, and the claims baseline
    // pins only verdicts, so a change in when a retransmission enters
    // its source would pass both. These are the smoke tier's exact
    // numbers: per campaign (protected, architecture, flip rate) its
    // cycles and offered and delivered packets, and NoX's worst
    // recovery latency.
    let study = faults::run_with(Tier::Smoke, &Executor::sequential());
    let rows: Vec<(bool, &str, f64, u64, u64, u64)> = [false, true]
        .into_iter()
        .flat_map(|protected| {
            let study = &study;
            Arch::ALL.into_iter().flat_map(move |arch| {
                let series = if protected {
                    study.protected_of(arch)
                } else {
                    study.unprotected_of(arch)
                };
                series.points.iter().map(move |p| {
                    (
                        protected,
                        arch.name(),
                        p.rate,
                        p.cycles,
                        p.offered_packets,
                        p.delivered_packets,
                    )
                })
            })
        })
        .collect();
    assert_eq!(rows, PINNED, "{rows:#?}");
    assert_eq!(study.nox_max_recovery_latency(), 1205);
}

/// `fault_study_numbers_are_pinned`'s table: (protected, architecture,
/// flip rate, cycles, offered packets, delivered packets).
const PINNED: &[(bool, &str, f64, u64, u64, u64)] = &[
    (false, "Non-Speculative", 0.01, 522, 300, 300),
    (false, "Non-Speculative", 0.02, 522, 300, 300),
    (false, "Spec-Fast", 0.01, 696, 300, 300),
    (false, "Spec-Fast", 0.02, 696, 300, 300),
    (false, "Spec-Accurate", 0.01, 667, 300, 300),
    (false, "Spec-Accurate", 0.02, 667, 300, 300),
    (false, "NoX", 0.01, 632, 300, 300),
    (false, "NoX", 0.02, 632, 300, 300),
    (true, "Non-Speculative", 0.01, 830, 300, 300),
    (true, "Non-Speculative", 0.02, 1334, 300, 300),
    (true, "Spec-Fast", 0.01, 1680, 300, 300),
    (true, "Spec-Fast", 0.02, 1060, 300, 300),
    (true, "Spec-Accurate", 0.01, 1832, 300, 300),
    (true, "Spec-Accurate", 0.02, 1270, 300, 300),
    (true, "NoX", 0.01, 1831, 300, 300),
    (true, "NoX", 0.02, 1430, 300, 300),
];
