//! The tentpole acceptance tests: the real FSMs pass the bounded checker
//! exhaustively with zero violations, and every documented mutation is
//! caught.

use nox_exec::Executor;
use nox_verify::{
    check_mutation, check_scenario, check_with, mutation_smoke_with, Bounds, Mutation, Scenario,
};

#[test]
fn real_fsms_pass_the_bounded_checker_exhaustively() {
    let bounds = Bounds::quick();
    let report = check_with(&bounds, &Executor::sequential());
    assert!(
        report.scenarios > 100,
        "sweep too small: {}",
        report.scenarios
    );
    assert!(
        report.exhausted,
        "state budget exceeded — raise max_states or shrink bounds"
    );
    assert!(
        report.violations.is_empty(),
        "protocol violations on the real FSMs:\n{}",
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.is_clean());
}

#[test]
fn every_documented_mutation_is_caught() {
    let bounds = Bounds::quick();
    for report in mutation_smoke_with(&bounds, &Executor::sequential()) {
        assert!(
            report.caught.is_some(),
            "mutation `{}` ({}) survived the checker — an invariant has no teeth",
            report.mutation.name(),
            report.mutation.description()
        );
    }
}

#[test]
fn disabled_zero_credit_freeze_is_caught_specifically() {
    // The ISSUE's worked example: disabling the zero-credit freeze must
    // surface as a credit-protocol violation.
    let bounds = Bounds::quick();
    let report = check_mutation(&bounds, Mutation::IgnoreCreditFreeze);
    let v = report.caught.expect("freeze mutation must be caught");
    assert!(
        matches!(
            v.kind,
            nox_verify::ViolationKind::CreditUnderflow
                | nox_verify::ViolationKind::FifoOverflow
                | nox_verify::ViolationKind::CreditAccounting
        ),
        "unexpected violation kind: {v}"
    );
}

#[test]
fn three_way_collision_scenario_is_explored_and_clean() {
    // The paper's Figure 3 shape: three single-flit packets collide.
    let bounds = Bounds::quick();
    let sc = Scenario {
        inputs: vec![vec![1], vec![1], vec![1]],
        depth: 2,
        options: Default::default(),
    };
    let r = check_scenario(&sc, &bounds, None);
    assert!(r.exhausted);
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    // Three independent arrival points, credit timing, and stalls give a
    // non-trivial space; a tiny count would mean the env is not branching.
    assert!(r.states > 100, "suspiciously small space: {}", r.states);
}

#[test]
fn multiflit_abort_scenario_is_explored_and_clean() {
    // A multi-flit packet colliding with a single-flit packet exercises
    // the abort + stream-lock path (DESIGN.md clarification 2).
    let bounds = Bounds::quick();
    for scheduled_mode in [true, false] {
        let sc = Scenario {
            inputs: vec![vec![2], vec![1]],
            depth: 1,
            options: nox_core::NoxOptions { scheduled_mode },
        };
        let r = check_scenario(&sc, &bounds, None);
        assert!(r.exhausted);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }
}

#[test]
fn settled_contract_holds_on_every_reachable_output_state() {
    // `OutputCtl::settled` is what lets the simulator skip a tick: on
    // every controller state the checker can reach, a settled controller
    // must answer an empty request set with the idle decision and not
    // change, and an unsettled one must settle within one empty tick.
    use nox_core::{Decision, RequestSet};
    use nox_verify::{scenarios, Model};
    use std::collections::VecDeque;

    let bounds = Bounds::quick();
    let (mut settled, mut unsettled) = (0u64, 0u64);
    for sc in scenarios(&bounds) {
        let scripts = sc.scripts();
        let init = Model::init(&sc);
        #[expect(clippy::disallowed_types, reason = "membership only, never iterated")]
        let mut visited: std::collections::HashSet<Model> = [init.clone()].into();
        let mut queue = VecDeque::from([init]);
        while let Some(state) = queue.pop_front() {
            let ctl = state.ctl();
            let mut probe = ctl.clone();
            let d = probe.tick(RequestSet::default());
            if ctl.settled() {
                settled += 1;
                assert_eq!(d, Decision::IDLE, "{}: {ctl:?}", sc.label());
                assert_eq!(&probe, ctl, "{}: settled state moved", sc.label());
            } else {
                unsettled += 1;
                assert!(probe.settled(), "{}: {ctl:?} -> {probe:?}", sc.label());
            }
            for choice in state.choices(&scripts) {
                let mut next = state.clone();
                next.step(&sc, &scripts, choice, None)
                    .unwrap_or_else(|v| panic!("real FSMs violated the protocol: {v}"));
                assert!(visited.len() < bounds.max_states, "state budget exceeded");
                if visited.insert(next.clone()) {
                    queue.push_back(next);
                }
            }
        }
    }
    assert!(
        settled > 1_000 && unsettled > 100,
        "walk too small to mean anything: {settled} settled, {unsettled} unsettled"
    );
}
