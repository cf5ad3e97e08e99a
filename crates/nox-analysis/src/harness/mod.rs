//! Library implementations of every figure/table harness, and the one
//! table ([`HARNESSES`]) every front end reaches them through.
//!
//! Each submodule owns the *computation* behind one figure or table and
//! returns a structured result type with two views:
//!
//! * `render()` — the human-readable tables;
//! * `to_json()` — the same numbers on a versioned machine-readable
//!   schema (`nox-bench/<harness>/v1`).
//!
//! [`HARNESSES`] lists them once: name, one-line description, and a
//! `run(tier, executor)` that returns a [`Report`] — the rendered text,
//! the JSON document, and the harness's own pass/fail predicate.
//! `noxsim run` and `noxsim profile`, the serve daemon's request parser
//! and its job dispatcher all read that table, and the claims registry
//! ([`crate::claims`]) evaluates the paper's headline claims against the
//! same typed results — so the table a human reads, the `--json` a tool
//! consumes, and the conformance verdict CI gates on can never drift
//! apart.
//!
//! Figures that share their underlying runs share a study type:
//! [`synthetic::SyntheticStudy`] feeds both Figure 8 (latency) and
//! Figure 9 (ED²), and [`appstudy::AppStudy`] feeds both Figure 10
//! (latency) and Figure 11 (ED²), so a claims evaluation pays for the
//! expensive sweeps exactly once.

use crate::json::Json;
use crate::sweep::SweepConfig;
use nox_exec::Executor;
use nox_sim::sim::RunSpec;
use nox_traffic::synthetic::UNIFORM_SEED;

pub mod ablation;
pub mod appstudy;
pub mod cmesh;
pub mod faults;
pub mod feedback;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig8;
pub mod fig9;
pub mod figs237;
pub mod synthetic;
pub mod table1;
pub mod table2;

/// How much simulation to spend on a harness run.
///
/// `Full` regenerates the EXPERIMENTS.md numbers, `Quick` coarsens the
/// sweeps (the historical `--quick` flag), and `Smoke` additionally
/// shortens warmup/measurement windows so the whole claims registry
/// finishes in well under a minute for CI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Paper-resolution sweeps (EXPERIMENTS.md numbers).
    Full,
    /// Coarser rate grid, full measurement windows (`--quick`).
    Quick,
    /// Coarse grid *and* short windows (`--smoke`), for CI gating.
    Smoke,
}

impl Tier {
    /// The tier's canonical name (`full` / `quick` / `smoke`).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Full => "full",
            Tier::Quick => "quick",
            Tier::Smoke => "smoke",
        }
    }

    /// Parses a tier name.
    pub fn parse(name: &str) -> Option<Tier> {
        match name {
            "full" => Some(Tier::Full),
            "quick" => Some(Tier::Quick),
            "smoke" => Some(Tier::Smoke),
            _ => None,
        }
    }
}

/// The single-flit uniform-random configuration of the harnesses that
/// run every network of a rate on one trace (Figure 12, the ablation,
/// the concentrated-mesh study): the generator's [`UNIFORM_SEED`],
/// Figure 8's trace and warm-up at full and quick with a `measure_ns`
/// window, and at smoke a 15 µs trace, a 1 µs warm-up and half the window.
pub(crate) fn uniform_config(tier: Tier, rates_mbps: Vec<f64>, measure_ns: f64) -> SweepConfig {
    let base = SweepConfig {
        seed: UNIFORM_SEED,
        ..SweepConfig::uniform(rates_mbps)
    };
    let (duration_ns, run) = match tier {
        Tier::Full | Tier::Quick => (
            base.duration_ns,
            RunSpec {
                measure_ns,
                ..base.run
            },
        ),
        Tier::Smoke => (
            15_000.0,
            RunSpec {
                warmup_ns: 1_000.0,
                measure_ns: measure_ns / 2.0,
                drain_ns: 15_000.0,
            },
        ),
    };
    SweepConfig {
        duration_ns,
        run,
        ..base
    }
}

/// The display names of the four architectures, in `Arch::ALL` order —
/// the column order every table in the paper uses.
pub const ARCH_COLUMNS: [&str; 4] = ["Non-Spec", "Spec-Fast", "Spec-Acc", "NoX"];

/// What one harness run produced — everything a front end needs.
#[derive(Clone, Debug)]
pub struct Report {
    /// The human-readable tables: the typed result's `render()`.
    pub text: String,
    /// The versioned machine-readable document: its `to_json()`.
    pub json: Json,
    /// The harness's own verdict — golden traces all pass, the timing
    /// model matches Table 2, the cmesh clocks are consistent — and
    /// `true` for a harness that only measures. A front end exits
    /// non-zero on `false`.
    pub ok: bool,
}

/// One row of [`HARNESSES`].
pub struct Harness {
    /// The name front ends select the harness by.
    pub name: &'static str,
    /// One line saying what it regenerates.
    pub what: &'static str,
    /// Runs it at a tier. Harnesses with a fan-out (the synthetic and
    /// application studies, the fault campaigns, the claims registry)
    /// spread over the executor and the rest run inline — either way the
    /// report is bit-identical at any executor width. The run is one
    /// `harness.stage` span, so a profile always attributes the
    /// harness's own (non-simulator) time.
    pub run: fn(Tier, &Executor) -> Report,
}

/// Builds a [`Harness`] row from an expression yielding a typed result
/// with `render()` / `to_json()`, and optionally its pass predicate.
macro_rules! harness {
    ($name:literal, $what:literal, |$tier:ident, $exec:ident| $result:expr $(, ok: $ok:expr)?) => {
        Harness {
            name: $name,
            what: $what,
            run: |$tier, $exec| {
                let _span = nox_telemetry::SpanGuard::begin(nox_telemetry::phase::HARNESS_STAGE);
                let r = $result;
                Report {
                    text: r.render(),
                    json: r.to_json(),
                    ok: true $(&& ($ok)(&r))?,
                }
            },
        }
    };
}

/// Every harness, in menu order: the paper's evaluation (Figures 8-13,
/// the golden timing traces, Tables 1-2), the three beyond-paper
/// studies, the fault campaigns and the claims registry.
pub static HARNESSES: &[Harness] = &[
    harness!(
        "fig8",
        "Figure 8: synthetic traffic latency vs injection bandwidth",
        |tier, exec| fig8::Fig8Result::from_study(synthetic::study_with(tier, exec))
    ),
    harness!(
        "fig9",
        "Figure 9: synthetic traffic energy-delay^2 vs injection bandwidth",
        |tier, exec| fig9::Fig9Result::from_study(synthetic::study_with(tier, exec))
    ),
    harness!(
        "fig10",
        "Figure 10: application average packet latency",
        |tier, exec| fig10::Fig10Result::from_study(appstudy::study_with(tier, exec))
    ),
    harness!(
        "fig11",
        "Figure 11: application energy-delay^2 (with paper comparison)",
        |tier, exec| fig11::Fig11Result::from_study(appstudy::study_with(tier, exec))
    ),
    harness!(
        "fig12",
        "Figure 12: network dynamic power breakdown @ 2 GB/s/node",
        |tier, _exec| fig12::run(tier)
    ),
    harness!(
        "fig13",
        "Figure 13 / section 6.2: router floorplans and area penalty",
        |tier, _exec| fig13::run(tier)
    ),
    harness!(
        "figs237",
        "Figures 2, 3, 7: golden cycle-by-cycle timing diagrams",
        |tier, _exec| figs237::run(tier),
        ok: figs237::TimingResult::all_pass
    ),
    harness!(
        "table1",
        "Table 1: common system parameters",
        |tier, _exec| table1::run(tier)
    ),
    harness!(
        "table2",
        "Table 2: router clock periods from the logical-effort model",
        |tier, _exec| table2::run(tier),
        ok: table2::Table2Result::all_match
    ),
    harness!(
        "ablation",
        "beyond the paper: NoX with Scheduled mode disabled",
        |tier, _exec| ablation::run(tier)
    ),
    harness!(
        "cmesh",
        "section 8 future work: radix-8 concentrated mesh",
        |tier, _exec| cmesh::run(tier),
        ok: |r: &cmesh::CmeshResult| r.clocks_consistent
    ),
    harness!(
        "feedback",
        "section 5.2 conjecture: closed-loop (self-throttling) CMP",
        |tier, _exec| feedback::run(tier)
    ),
    harness!(
        "faults",
        "fault-injection campaigns: XOR-chain fragility + CRC/retransmission recovery",
        |tier, exec| faults::run_with(tier, exec)
    ),
    harness!(
        "claims",
        "the paper-conformance claims registry over all of the above",
        |tier, exec| crate::claims::evaluate(&crate::claims::ClaimInputs::gather_with(tier, exec))
    ),
];

/// The table row named `name`, or an error listing the names there are.
pub fn find(name: &str) -> Result<&'static Harness, String> {
    HARNESSES
        .iter()
        .find(|h| h.name == name)
        .ok_or_else(|| format!("unknown harness {name:?}; one of: {}", names().join(" ")))
}

/// Every harness name, in table order.
pub fn names() -> Vec<&'static str> {
    HARNESSES.iter().map(|h| h.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_round_trip() {
        for t in [Tier::Full, Tier::Quick, Tier::Smoke] {
            assert_eq!(Tier::parse(t.name()), Some(t));
        }
        assert_eq!(Tier::parse("bogus"), None);
    }

    #[test]
    fn table_names_are_unique_and_keep_the_menu_order() {
        // The (distinct) names `noxsim profile` and the serve protocol
        // have always accepted, in the order their menus listed them.
        assert_eq!(
            names(),
            [
                "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "figs237", "table1", "table2",
                "ablation", "cmesh", "feedback", "faults", "claims"
            ]
        );
        assert!(HARNESSES.iter().all(|h| !h.what.is_empty()));
        let err = find("fig13_area").err().expect("not an alias");
        assert!(err.contains(&names().join(" ")), "{err}");
    }
}
