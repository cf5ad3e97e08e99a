//! The bounded model checker: breadth-first exhaustive exploration of
//! every scenario's reachable joint state space, with the invariants
//! checked at every transition and bounded liveness probed from every
//! reachable state.

use std::collections::VecDeque;

use crate::model::{Model, Violation};
use crate::mutation::Mutation;
use crate::scenario::{scenarios, Bounds, Scenario};
use nox_exec::Executor;

/// Exploration result for one scenario.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// The scenario explored.
    pub label: String,
    /// Distinct states reached.
    pub states: usize,
    /// Violations found (exploration of a scenario stops at the first).
    pub violations: Vec<Violation>,
    /// `true` if the full reachable space was enumerated within the
    /// state budget.
    pub exhausted: bool,
}

/// Aggregate result over a scenario sweep.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Scenarios explored.
    pub scenarios: usize,
    /// Total distinct states across all scenarios.
    pub states: usize,
    /// All violations found.
    pub violations: Vec<Violation>,
    /// `true` only if *every* scenario was explored to exhaustion.
    pub exhausted: bool,
}

impl CheckReport {
    /// `true` when the sweep proves the invariants over the bounded
    /// space: exhaustive and violation-free.
    pub fn is_clean(&self) -> bool {
        self.exhausted && self.violations.is_empty()
    }
}

/// Result of the mutation smoke sweep for one mutation.
#[derive(Clone, Debug)]
pub struct MutationReport {
    /// The mutation applied.
    pub mutation: Mutation,
    /// `Some` with the first violation that caught it, `None` if the
    /// mutation survived the whole sweep (a checker gap).
    pub caught: Option<Violation>,
    /// States explored before it was caught (or in total, if missed).
    pub states: usize,
}

/// Exhaustively explores one scenario under an optional mutation.
///
/// From every newly discovered state the checker (a) probes bounded
/// liveness via the maximally fair schedule, and (b) expands every
/// environment choice, checking the safety invariants on each transition.
/// States are deduplicated by hashing the full joint state, so the
/// exploration terminates exactly when the reachable space is closed.
pub fn check_scenario(
    sc: &Scenario,
    bounds: &Bounds,
    mutation: Option<Mutation>,
) -> ScenarioReport {
    let scripts = sc.scripts();
    let k = bounds.liveness_k(sc);
    let init = Model::init(sc);

    #[expect(clippy::disallowed_types, reason = "membership only, never iterated")]
    let mut visited: std::collections::HashSet<Model> = Default::default();
    let mut queue: VecDeque<Model> = VecDeque::new();
    visited.insert(init.clone());
    queue.push_back(init);

    let mut violations = Vec::new();
    let mut exhausted = true;

    'explore: while let Some(state) = queue.pop_front() {
        if let Err(v) = state.check_liveness(sc, &scripts, k, mutation) {
            violations.push(v);
            break 'explore;
        }
        for choice in state.choices(&scripts) {
            let mut next = state.clone();
            match next.step(sc, &scripts, choice, mutation) {
                Err(v) => {
                    violations.push(v);
                    break 'explore;
                }
                Ok(()) => {
                    if visited.contains(&next) {
                        continue;
                    }
                    if visited.len() >= bounds.max_states {
                        exhausted = false;
                        break 'explore;
                    }
                    visited.insert(next.clone());
                    queue.push_back(next);
                }
            }
        }
    }

    ScenarioReport {
        label: sc.label(),
        states: visited.len(),
        violations,
        exhausted,
    }
}

/// Runs the checker over every scenario within `bounds` on the real,
/// unmutated FSMs, each scenario's exploration one job on `exec`. A clean
/// report is a bounded proof of the protocol invariants.
///
/// Every scenario explores an independent state space, and the sweep
/// never stops early across scenarios, so the ordered reduction makes
/// the report bit-identical at any thread count.
pub fn check_with(bounds: &Bounds, exec: &Executor) -> CheckReport {
    let reports = exec.map_stage("verify.scenarios", scenarios(bounds), |_, sc| {
        check_scenario(&sc, bounds, None)
    });
    let mut report = CheckReport {
        exhausted: true,
        ..CheckReport::default()
    };
    for r in reports {
        report.scenarios += 1;
        report.states += r.states;
        report.exhausted &= r.exhausted;
        report.violations.extend(r.violations);
    }
    report
}

/// Runs the checker over the scenario sweep with `mutation` applied,
/// stopping at the first violation (which is the desired outcome).
pub fn check_mutation(bounds: &Bounds, mutation: Mutation) -> MutationReport {
    let mut states = 0;
    for sc in scenarios(bounds) {
        let r = check_scenario(&sc, bounds, Some(mutation));
        states += r.states;
        if let Some(v) = r.violations.into_iter().next() {
            return MutationReport {
                mutation,
                caught: Some(v),
                states,
            };
        }
    }
    MutationReport {
        mutation,
        caught: None,
        states,
    }
}

/// Runs every documented mutation through the checker, one job per
/// mutation on `exec`. Each must be caught; a surviving mutation means an
/// invariant has lost its teeth.
///
/// Each mutation's *inner* scenario sweep stays serial — it stops at the
/// first catching scenario, and that early exit is part of the reported
/// state count — so every `MutationReport` is bit-identical at any
/// thread count.
pub fn mutation_smoke_with(bounds: &Bounds, exec: &Executor) -> Vec<MutationReport> {
    exec.map_stage("verify.mutations", Mutation::ALL.iter().copied(), |_, m| {
        check_mutation(bounds, m)
    })
}
