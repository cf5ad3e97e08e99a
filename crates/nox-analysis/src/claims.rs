//! Claims-as-code: the machine-checkable conformance registry.
//!
//! Every headline claim EXPERIMENTS.md makes about this reproduction is
//! encoded here as a typed record — a stable ID (`fig8.uniform.nox_throughput`,
//! `table2.nox_clock`, ...), the paper's statement, a *shape* predicate
//! (the qualitative trend that must reproduce) and, where the paper
//! commits to a number, a *quantitative* tolerance band. `noxsim claims`
//! evaluates the whole registry against live harness runs, emits a
//! versioned `claims_report.json`, and diffs the statuses against the
//! committed `CLAIMS_BASELINE.json`, failing on any claim whose status
//! got worse — so "13 of 15 claims reproduce in shape, 8 quantitatively"
//! is a CI-enforced invariant instead of prose.
//!
//! Tolerance bands are calibrated for the `quick`/`smoke` tiers (500
//! MB/s-grid sweeps), wide enough to absorb grid coarseness but tight
//! enough that a behavioural regression in the simulator flips the
//! status. The two claims that genuinely do not reproduce (the Fig 8a
//! crossover rate and the Fig 11 ED² magnitudes — see EXPERIMENTS.md's
//! delta analyses) are encoded with their honest `fail` status, and the
//! baseline pins them there: silently *fixing* them would also show up
//! in the diff, as an improvement.

use std::fmt::Write as _;

use crate::harness::appstudy::AppStudy;
use crate::harness::faults::FaultStudy;
use crate::harness::fig11::PAPER_IMPROVEMENTS_PCT;
use crate::harness::synthetic::SyntheticStudy;
use crate::harness::{appstudy, faults, fig12, fig13, figs237, synthetic, table2, Tier};
use crate::json::Json;
use nox_sim::config::Arch;

/// Versioned schema of `claims_report.json`.
pub const REPORT_SCHEMA: &str = "nox-claims/report/v1";

/// Versioned schema of `CLAIMS_BASELINE.json`.
pub const BASELINE_SCHEMA: &str = "nox-claims/baseline/v1";

/// Conformance status of one claim, ordered worst to best.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Status {
    /// The qualitative trend did not reproduce.
    Fail,
    /// The trend reproduces; the number (if any) does not.
    Shape,
    /// The trend reproduces and the number sits inside the band.
    Quantitative,
}

impl Status {
    /// The status's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Status::Fail => "fail",
            Status::Shape => "shape",
            Status::Quantitative => "quantitative",
        }
    }

    /// Parses a status name.
    pub fn parse(name: &str) -> Option<Status> {
        match name {
            "fail" => Some(Status::Fail),
            "shape" => Some(Status::Shape),
            "quantitative" => Some(Status::Quantitative),
            _ => None,
        }
    }
}

/// The static description of one claim.
#[derive(Debug)]
pub struct ClaimSpec {
    /// Stable ID: `<figure>.<scenario>.<aspect>` (also the tag carried
    /// by the corresponding EXPERIMENTS.md row).
    pub id: &'static str,
    /// Where the paper states it.
    pub source: &'static str,
    /// The paper's claim, verbatim enough to recognise.
    pub paper: &'static str,
    /// The quantitative band, human-readable, or `None` for claims that
    /// only commit to a trend (their best status is [`Status::Shape`]).
    pub quant: Option<&'static str>,
}

/// The full registry, in EXPERIMENTS.md order.
pub static REGISTRY: [ClaimSpec; 19] = [
    ClaimSpec {
        id: "figs237.golden_traces",
        source: "Figures 2, 3, 7",
        paper: "the cycle-by-cycle transmit/receive/speculation examples",
        quant: Some("all five golden traces identical, cycle for cycle"),
    },
    ClaimSpec {
        id: "table2.nox_clock",
        source: "Table 2",
        paper: "clock periods 0.92 / 0.69 / 0.72 / 0.76 ns",
        quant: Some("modeled periods equal the published ones exactly"),
    },
    ClaimSpec {
        id: "table2.decode_overhead",
        source: "Table 2 / §4.3",
        paper: "NoX decode adds ~40 ps over Spec-Accurate",
        quant: Some("decode overhead within 40 +/- 10 ps"),
    },
    ClaimSpec {
        id: "fig8.uniform.spec_fast_low_load",
        source: "Figure 8a",
        paper: "Spec-Fast is the best network at low load, up to 575 MB/s/node",
        quant: Some("Spec-Fast's lead ends between 525 and 700 MB/s/node (575 +/- ~20%)"),
    },
    ClaimSpec {
        id: "fig8.uniform.crossover",
        source: "Figure 8a",
        paper: "NoX overtakes Spec-Accurate from 750 MB/s/node (~27% of NoX saturation)",
        quant: Some("crossover between 20% and 34% of NoX saturation"),
    },
    ClaimSpec {
        id: "fig8.uniform.nox_throughput",
        source: "Figure 8a / §5.1",
        paper: "NoX's saturation throughput is the highest, up to +9.9% over all others",
        quant: Some("NoX gain over best other within +2% .. +25%"),
    },
    ClaimSpec {
        id: "fig8.low_path_variation",
        source: "Figure 8b,c / §5.1",
        paper: "on low-path-variation patterns NoX's gain is normally sufficient to compensate for its slower clock",
        quant: Some("transpose and bit-complement saturations within +/-2.5% of best other"),
    },
    ClaimSpec {
        id: "fig8.self_similar",
        source: "Figure 8d / §5.1",
        paper: "bursty self-similar traffic amplifies NoX's advantage; Spec-Fast collapses",
        quant: None,
    },
    ClaimSpec {
        id: "fig9.ed2_amplified",
        source: "Figure 9",
        paper: "the latency trends are amplified on an energy-delay^2 basis",
        quant: Some("ED^2 gaps at the comparison point within ~2x of the paper's Fig 11 averages"),
    },
    ClaimSpec {
        id: "fig10.nox_optimal",
        source: "Figure 10 / §5.2",
        paper: "NoX is the optimal network given the application workloads",
        quant: Some("lowest mean latency and best on at least 5 of 9 workloads"),
    },
    ClaimSpec {
        id: "fig10.spec_fast_overaggressive",
        source: "Figure 10 / §5.2",
        paper: "Spec-Fast is overly aggressive; even the non-speculative router can beat it",
        quant: None,
    },
    ClaimSpec {
        id: "fig11.ed2_ordering",
        source: "Figure 11 / §5.2",
        paper: "NoX beats all three on mean ED^2, with Spec-Accurate the closest competitor",
        quant: Some("each improvement within +/-10pp of the paper's +29.5/+34.4/+2.7%"),
    },
    ClaimSpec {
        id: "fig11.ed2_magnitude",
        source: "Figure 11 / §5.2",
        paper: "mean ED^2 improvements of +29.5% / +34.4% / +2.7%",
        quant: Some("each improvement within 3x of the paper's magnitude"),
    },
    ClaimSpec {
        id: "fig12.power_breakdown",
        source: "Figure 12 / §5.3",
        paper: "links ~74% of network power; Spec-Accurate +link/-switch/+total vs NoX; non-speculative lowest",
        quant: Some("link share 74 +/- 4pp; switch delta -2.4 +/- 2pp"),
    },
    ClaimSpec {
        id: "fig13.area_penalty",
        source: "Figure 13 / §6.2",
        paper: "NoX adds 28.2 um of horizontal length, a 17.2% router tile area penalty",
        quant: Some("penalty within 17.2 +/- 0.5pp, extra width exactly 28.2 um"),
    },
    // The two fault-study claims are about this reproduction's robustness
    // analysis (DESIGN.md §11), not numbers published in the paper: the
    // XOR chain's re-driven words make NoX measurably more exposed to
    // link faults, and the CRC + retransmission stack recovers it.
    ClaimSpec {
        id: "fault.nox_fragility",
        source: "Fault study / DESIGN.md §11",
        paper: "unprotected NoX suffers a strictly higher silent-corruption rate per injected bit flip than the non-speculative router — the XOR chain fans one flip into multiple corrupted deliveries",
        quant: Some("NoX delivers > 1 corrupted flit per flip, non-spec <= 1, amplification >= 1.05x"),
    },
    ClaimSpec {
        id: "fault.crc_retx_delivery",
        source: "Fault study / DESIGN.md §11",
        paper: "with CRC-8 sidebands and end-to-end retransmission every architecture recovers to 100% delivery with zero silent corruptions",
        quant: Some("all four architectures at 100% delivery; NoX worst-case recovery latency <= 20000 cycles"),
    },
    // The two statics claims are design-soundness properties the paper
    // relies on implicitly (DESIGN.md §13): XY dimension-order routing on
    // the 8x8 mesh is deadlock-free, and the paper's buffer depths cover
    // the credit round trip. Both are proved statically by `nox-statics`
    // rather than observed from simulation.
    ClaimSpec {
        id: "statics.mesh_xy_deadlock_free",
        source: "Static analysis / DESIGN.md §13",
        paper: "XY dimension-order routing on the paper's mesh admits no cyclic channel dependency, so the network cannot deadlock",
        quant: Some("every mesh/cmesh instance has an acyclic CDG (0 cyclic SCCs); the unrestricted ring counterexample is flagged with a concrete witness cycle"),
    },
    ClaimSpec {
        id: "statics.credit_sizing_sound",
        source: "Static analysis / DESIGN.md §13",
        paper: "the paper's 4-flit buffers cover the credit round trip, so flow control never throttles a link below full duty",
        quant: Some("round trip exactly 4 cycles vs depth 4 (duty 1.0) on every architecture; the undersized demo configuration is flagged"),
    },
];

/// Everything the registry needs, gathered once per evaluation so the
/// expensive sweeps are paid for exactly once (Figures 8 and 9 share the
/// synthetic study; Figures 10 and 11 share the application study).
pub struct ClaimInputs {
    /// Tier the inputs were gathered at.
    pub tier: Tier,
    /// Figures 2/3/7 golden traces.
    pub timing: figs237::TimingResult,
    /// Table 2 clock periods.
    pub table2: table2::Table2Result,
    /// The four-scenario synthetic study (Figures 8 and 9).
    pub synthetic: SyntheticStudy,
    /// The nine-workload application study (Figures 10 and 11).
    pub apps: AppStudy,
    /// Figure 12 power breakdown.
    pub power: fig12::PowerResult,
    /// Figure 13 area model.
    pub area: fig13::AreaResult,
    /// The fault-injection campaign study.
    pub faults: FaultStudy,
    /// The static design-analysis suite (deadlock CDGs, credit sizing).
    pub statics: nox_statics::StaticsReport,
}

impl ClaimInputs {
    /// Runs every harness the registry draws on, at `tier`, fanning the
    /// three heavy studies (synthetic, apps, faults) out over `exec`.
    /// The timing/clock/power/area harnesses are single closed-form or
    /// golden-trace evaluations and stay serial. Every study reduces in
    /// submission order, so the inputs — and every claim evaluated from
    /// them — are bit-identical at any thread count.
    pub fn gather_with(tier: Tier, exec: &nox_exec::Executor) -> ClaimInputs {
        ClaimInputs {
            tier,
            timing: figs237::run(tier),
            table2: table2::run(tier),
            synthetic: synthetic::study_with(tier, exec),
            apps: appstudy::study_with(tier, exec),
            power: fig12::run(tier),
            area: fig13::run(tier),
            faults: faults::run_with(tier, exec),
            statics: nox_statics::standard_report(exec),
        }
    }
}

/// One evaluated claim.
#[derive(Clone, Debug)]
pub struct ClaimOutcome {
    /// The claim's registry entry.
    pub spec: &'static ClaimSpec,
    /// Evaluated status.
    pub status: Status,
    /// Human-readable measured summary.
    pub measured: String,
    /// The measured numbers behind the verdict, for the JSON document
    /// and band calibration.
    pub values: Vec<(&'static str, f64)>,
}

/// The evaluated registry.
#[derive(Clone, Debug)]
pub struct ClaimsReport {
    /// Tier the evaluation ran at.
    pub tier: Tier,
    /// One outcome per registry entry, registry order.
    pub outcomes: Vec<ClaimOutcome>,
}

/// Folds the two predicate results into a status.
fn status_of(shape: bool, quant: Option<bool>) -> Status {
    match (shape, quant) {
        (false, _) => Status::Fail,
        (true, Some(true)) => Status::Quantitative,
        (true, Some(false)) | (true, None) => Status::Shape,
    }
}

/// Evaluates the full registry against gathered inputs.
pub fn evaluate(x: &ClaimInputs) -> ClaimsReport {
    let outcomes = REGISTRY.iter().map(|spec| eval_one(spec, x)).collect();
    ClaimsReport {
        tier: x.tier,
        outcomes,
    }
}

fn eval_one(spec: &'static ClaimSpec, x: &ClaimInputs) -> ClaimOutcome {
    let (status, measured, values) = match spec.id {
        "figs237.golden_traces" => {
            let passed = x.timing.checks.iter().filter(|c| c.pass()).count();
            let total = x.timing.checks.len();
            (
                status_of(x.timing.all_pass(), Some(x.timing.all_pass())),
                format!("{passed}/{total} traces identical"),
                vec![("traces_passed", passed as f64)],
            )
        }
        "table2.nox_clock" => {
            let period = |a: Arch| {
                x.table2
                    .rows
                    .iter()
                    .find(|r| r.arch == a)
                    .expect("all archs present")
                    .modeled_ps
            };
            let ordered = period(Arch::SpecFast) < period(Arch::SpecAccurate)
                && period(Arch::SpecAccurate) < period(Arch::Nox)
                && period(Arch::Nox) < period(Arch::NonSpec);
            (
                status_of(ordered, Some(x.table2.all_match())),
                format!(
                    "NoX {:.0} ps, all rows match: {}",
                    period(Arch::Nox),
                    x.table2.all_match()
                ),
                vec![("nox_period_ps", period(Arch::Nox))],
            )
        }
        "table2.decode_overhead" => {
            let ov = x.table2.decode_overhead_ps;
            (
                status_of(ov > 0.0, Some((ov - 40.0).abs() <= 10.0)),
                format!("{ov:.0} ps"),
                vec![("decode_overhead_ps", ov)],
            )
        }
        "fig8.uniform.spec_fast_low_load" => {
            let sc = x.synthetic.scenario("uniform");
            let edge = sc.best_region_edge(Arch::SpecFast);
            let shape = sc.best_at_lowest_rate() == Some(Arch::SpecFast) && edge.is_some();
            // The lead's true end sits near 1250 MB/s/node on the full
            // grid (EXPERIMENTS.md: roughly 2x the paper's 575), so the
            // quantitative band stays unmet by design until the model
            // moves; the coarse 500-step tiers land at a neighbouring
            // grid point and must not pass it by accident either.
            let quant = edge.is_some_and(|e| (525.0..=700.0).contains(&e));
            (
                status_of(shape, Some(quant)),
                match edge {
                    Some(e) => format!("best up to {e:.0} MB/s/node (paper: 575)"),
                    None => "Spec-Fast never leads".to_string(),
                },
                edge.map(|e| ("spec_fast_edge_mbps", e))
                    .into_iter()
                    .collect(),
            )
        }
        "fig8.uniform.crossover" => {
            let sc = x.synthetic.scenario("uniform");
            let frac = sc
                .crossover(Arch::Nox, Arch::SpecAccurate)
                .map(|c| c / sc.saturation(Arch::Nox));
            let shape = frac.is_some_and(|f| (0.10..=0.40).contains(&f));
            let quant = frac.is_some_and(|f| (0.20..=0.34).contains(&f));
            (
                status_of(shape, Some(quant)),
                match frac {
                    Some(f) => format!(
                        "crossover at {:.0}% of NoX saturation (paper: ~27%)",
                        f * 100.0
                    ),
                    None => "NoX never overtakes Spec-Accurate".to_string(),
                },
                frac.map(|f| ("crossover_frac_of_saturation", f))
                    .into_iter()
                    .collect(),
            )
        }
        "fig8.uniform.nox_throughput" => {
            let sc = x.synthetic.scenario("uniform");
            let gain = sc.nox_saturation_gain();
            let highest = [Arch::NonSpec, Arch::SpecFast, Arch::SpecAccurate]
                .into_iter()
                .all(|a| sc.saturation(Arch::Nox) > sc.saturation(a));
            (
                status_of(highest, Some((0.02..=0.25).contains(&gain))),
                format!(
                    "NoX saturates {:+.1}% above best other (paper: up to +9.9%)",
                    gain * 100.0
                ),
                vec![("nox_gain", gain)],
            )
        }
        "fig8.low_path_variation" => {
            let gains: Vec<f64> = ["transpose", "bit_complement"]
                .iter()
                .map(|k| x.synthetic.scenario(k).nox_saturation_gain())
                .collect();
            let shape = gains.iter().all(|g| g.abs() <= 0.10);
            let quant = gains.iter().all(|g| g.abs() <= 0.025);
            (
                status_of(shape, Some(quant)),
                format!(
                    "transpose {:+.1}%, bit-complement {:+.1}% vs best other (paper: ties)",
                    gains[0] * 100.0,
                    gains[1] * 100.0
                ),
                vec![
                    ("transpose_gain", gains[0]),
                    ("bit_complement_gain", gains[1]),
                ],
            )
        }
        "fig8.self_similar" => {
            let ss = x.synthetic.scenario("self_similar");
            let uni = x.synthetic.scenario("uniform");
            let gain_ss = ss.nox_saturation_gain();
            let gain_uni = uni.nox_saturation_gain();
            // "Collapse" = Spec-Fast saturates well short of the best
            // non-bursty-fragile router. The full grid measures the gap
            // at 0.63x; 0.80 leaves room for the coarse 500-step tiers,
            // whose saturation estimates snap to grid points (0.77x at
            // quick), without letting a genuine recovery sneak past.
            let sf_collapse = ss.saturation(Arch::SpecFast)
                <= 0.80
                    * [Arch::NonSpec, Arch::SpecAccurate]
                        .into_iter()
                        .map(|a| ss.saturation(a))
                        .fold(0.0, f64::max);
            let shape = gain_ss >= gain_uni - 0.01 && sf_collapse;
            (
                status_of(shape, None),
                format!(
                    "NoX gain {:+.1}% self-similar vs {:+.1}% uniform; Spec-Fast collapse: {sf_collapse}",
                    gain_ss * 100.0,
                    gain_uni * 100.0
                ),
                vec![("self_similar_gain", gain_ss), ("uniform_gain", gain_uni)],
            )
        }
        "fig9.ed2_amplified" => {
            let sc = x.synthetic.scenario("uniform");
            let others = [Arch::NonSpec, Arch::SpecFast, Arch::SpecAccurate];
            let pairs: Vec<(Option<f64>, Option<f64>)> = others
                .iter()
                .map(|&a| (sc.ed2_vs_nox(a), sc.latency_vs_nox(a)))
                .collect();
            let shape = pairs
                .iter()
                .all(|(e, l)| matches!((e, l), (Some(e), Some(l)) if *e > 0.0 && e >= l));
            // The paper's only ED^2 numbers are the Fig 11 averages; the
            // synthetic comparison point sits far past them (EXPERIMENTS.md
            // delta: +269% .. +4597% at the last common drained rate).
            let quant = pairs
                .iter()
                .zip(PAPER_IMPROVEMENTS_PCT)
                .all(|((e, _), (_, paper))| e.is_some_and(|e| e * 100.0 <= 2.0 * paper));
            let ed2 = |i: usize| pairs[i].0.unwrap_or(f64::NAN);
            (
                status_of(shape, Some(quant)),
                format!(
                    "ED^2 vs NoX at comparison point: Non-Spec {:+.0}%, Spec-Fast {:+.0}%, Spec-Acc {:+.0}%",
                    ed2(0) * 100.0,
                    ed2(1) * 100.0,
                    ed2(2) * 100.0
                ),
                vec![
                    ("nonspec_ed2_vs_nox", ed2(0)),
                    ("spec_fast_ed2_vs_nox", ed2(1)),
                    ("spec_accurate_ed2_vs_nox", ed2(2)),
                ],
            )
        }
        "fig10.nox_optimal" => {
            let mean_nox = x.apps.mean_latency_ns(Arch::Nox);
            let lowest_mean = [Arch::NonSpec, Arch::SpecFast, Arch::SpecAccurate]
                .into_iter()
                .all(|a| mean_nox <= x.apps.mean_latency_ns(a));
            let wins = x.apps.wins(Arch::Nox);
            (
                status_of(lowest_mean, Some(lowest_mean && wins >= 5)),
                format!("best mean ({mean_nox:.1} ns), best on {wins}/9 workloads"),
                vec![("nox_mean_latency_ns", mean_nox), ("nox_wins", wins as f64)],
            )
        }
        "fig10.spec_fast_overaggressive" => {
            let nonspec_beats = x.apps.beats_on(Arch::NonSpec, Arch::SpecFast);
            let acc_beats_tpcc = x
                .apps
                .beats_on(Arch::SpecAccurate, Arch::SpecFast)
                .contains(&"tpcc");
            // Either signal demonstrates the overaggression: a slower-
            // clocked router winning the contended workload. The short
            // smoke windows keep the Spec-Acc signal but can lose the
            // narrower non-spec one.
            (
                status_of(!nonspec_beats.is_empty() || acc_beats_tpcc, None),
                format!(
                    "non-spec beats Spec-Fast on {nonspec_beats:?}; Spec-Acc beats it on tpcc: {acc_beats_tpcc}"
                ),
                vec![("nonspec_beats_spec_fast", nonspec_beats.len() as f64)],
            )
        }
        "fig11.ed2_ordering" => {
            let imp: Vec<f64> = PAPER_IMPROVEMENTS_PCT
                .iter()
                .map(|&(a, _)| x.apps.nox_ed2_improvement_pct(a))
                .collect();
            let shape = imp.iter().all(|&i| i > 0.0) && imp[2] < imp[0] && imp[2] < imp[1];
            let quant = imp
                .iter()
                .zip(PAPER_IMPROVEMENTS_PCT)
                .all(|(&i, (_, paper))| (i - paper).abs() <= 10.0);
            (
                status_of(shape, Some(quant)),
                format!(
                    "+{:.1}% / +{:.1}% / +{:.1}% (paper: +29.5/+34.4/+2.7%)",
                    imp[0], imp[1], imp[2]
                ),
                vec![
                    ("vs_nonspec_pct", imp[0]),
                    ("vs_spec_fast_pct", imp[1]),
                    ("vs_spec_accurate_pct", imp[2]),
                ],
            )
        }
        "fig11.ed2_magnitude" => {
            let ratios: Vec<f64> = PAPER_IMPROVEMENTS_PCT
                .iter()
                .map(|&(a, paper)| x.apps.nox_ed2_improvement_pct(a) / paper)
                .collect();
            let shape = ratios.iter().all(|&r| (1.0 / 3.0..=3.0).contains(&r));
            let quant = PAPER_IMPROVEMENTS_PCT
                .iter()
                .all(|&(a, paper)| (x.apps.nox_ed2_improvement_pct(a) - paper).abs() <= 5.0);
            (
                status_of(shape, Some(quant)),
                format!(
                    "magnitudes at {:.1}x / {:.1}x / {:.1}x of the paper's",
                    ratios[0], ratios[1], ratios[2]
                ),
                vec![
                    ("vs_nonspec_ratio", ratios[0]),
                    ("vs_spec_fast_ratio", ratios[1]),
                    ("vs_spec_accurate_ratio", ratios[2]),
                ],
            )
        }
        "fig12.power_breakdown" => {
            let link_share = x.power.nox_link_share();
            let d_link = x.power.acc_vs_nox(|b| b.link_pj);
            let d_switch = x.power.acc_vs_nox(|b| b.xbar_pj);
            let d_total = x.power.acc_vs_nox(|b| b.total_pj());
            let nox_total = x.power.row(Arch::Nox).breakdown.total_pj();
            let nonspec_lowest =
                x.power.rows.iter().all(|r| {
                    x.power.row(Arch::NonSpec).breakdown.total_pj() <= r.breakdown.total_pj()
                });
            let nonspec_vs_nox = x.power.row(Arch::NonSpec).breakdown.total_pj() / nox_total - 1.0;
            let shape = link_share > 0.5
                && d_link > 0.0
                && d_switch < 0.0
                && d_total > 0.0
                && nonspec_lowest;
            let quant = (link_share - 0.74).abs() <= 0.04 && (d_switch + 0.024).abs() <= 0.02;
            (
                status_of(shape, Some(quant)),
                format!(
                    "link share {:.1}%; Spec-Acc vs NoX: link {:+.1}%, switch {:+.1}%, total {:+.1}%; non-spec {:+.1}%",
                    link_share * 100.0,
                    d_link * 100.0,
                    d_switch * 100.0,
                    d_total * 100.0,
                    nonspec_vs_nox * 100.0
                ),
                vec![
                    ("nox_link_share", link_share),
                    ("acc_vs_nox_link", d_link),
                    ("acc_vs_nox_switch", d_switch),
                    ("acc_vs_nox_total", d_total),
                ],
            )
        }
        "fig13.area_penalty" => {
            let pen = x.area.area_penalty;
            (
                status_of((0.10..=0.25).contains(&pen), Some(x.area.matches_paper())),
                format!(
                    "{:.1}% penalty, +{:.1} um width (paper: 17.2%, 28.2 um)",
                    pen * 100.0,
                    x.area.extra_width_um
                ),
                vec![
                    ("area_penalty", pen),
                    ("extra_width_um", x.area.extra_width_um),
                ],
            )
        }
        "fault.nox_fragility" => {
            let amp = x.faults.nox_silent_amplification();
            let nox = x.faults.silent_per_flip(Arch::Nox);
            let nonspec = x.faults.silent_per_flip(Arch::NonSpec);
            let shape = x.faults.nox_fragility_holds();
            let quant = shape && amp >= 1.05;
            (
                status_of(shape, Some(quant)),
                format!(
                    "corrupted deliveries per flip: NoX {nox:.3} vs non-spec {nonspec:.3} ({amp:.2}x)"
                ),
                vec![
                    ("nox_silent_per_flip", nox),
                    ("nonspec_silent_per_flip", nonspec),
                    ("amplification", amp),
                ],
            )
        }
        "fault.crc_retx_delivery" => {
            let recovered: Vec<bool> = Arch::ALL
                .iter()
                .map(|&a| x.faults.full_recovery(a))
                .collect();
            let nox_ok = x.faults.full_recovery(Arch::Nox);
            let all_ok = recovered.iter().all(|&r| r);
            let max_lat = x.faults.nox_max_recovery_latency();
            (
                status_of(nox_ok, Some(all_ok && max_lat <= 20_000)),
                format!(
                    "full recovery on {}/4 architectures; NoX recovery latency <= {max_lat} cycles",
                    recovered.iter().filter(|&&r| r).count()
                ),
                vec![
                    (
                        "archs_fully_recovered",
                        recovered.iter().filter(|&&r| r).count() as f64,
                    ),
                    ("nox_max_recovery_latency_cycles", max_lat as f64),
                ],
            )
        }
        "statics.mesh_xy_deadlock_free" => {
            let safe: Vec<_> = x
                .statics
                .analyses
                .iter()
                .filter(|a| a.expect_safe)
                .collect();
            let unsafe_: Vec<_> = x
                .statics
                .analyses
                .iter()
                .filter(|a| !a.expect_safe)
                .collect();
            let meshes_acyclic =
                !safe.is_empty() && safe.iter().all(|a| a.deadlock_free && a.cyclic_sccs == 0);
            let ring_witnessed = !unsafe_.is_empty()
                && unsafe_
                    .iter()
                    .all(|a| !a.deadlock_free && !a.witnesses.is_empty());
            let channels: usize = safe.iter().map(|a| a.channels).sum();
            let routes: usize = x.statics.analyses.iter().map(|a| a.routes_walked).sum();
            (
                status_of(meshes_acyclic, Some(meshes_acyclic && ring_witnessed)),
                format!(
                    "{} XY instances acyclic over {} channels; ring counterexample witnessed: {} ({} routes walked)",
                    safe.len(),
                    channels,
                    ring_witnessed,
                    routes
                ),
                vec![
                    ("safe_instances_acyclic", meshes_acyclic as u8 as f64),
                    ("xy_channels_proved", channels as f64),
                    ("routes_walked", routes as f64),
                ],
            )
        }
        "statics.credit_sizing_sound" => {
            let paper: Vec<_> = x
                .statics
                .credits
                .iter()
                .filter(|c| c.expect_sound)
                .collect();
            let demos: Vec<_> = x
                .statics
                .credits
                .iter()
                .filter(|c| !c.expect_sound)
                .collect();
            let all_sound = !paper.is_empty() && paper.iter().all(|c| c.sound);
            let full_duty = paper.iter().all(|c| c.max_link_duty >= 1.0);
            let exactly_four = paper
                .iter()
                .all(|c| c.round_trip == 4 && c.buffer_depth as u64 == c.round_trip);
            let demo_flagged = !demos.is_empty() && demos.iter().all(|c| !c.sound);
            let worst_duty = paper.iter().map(|c| c.max_link_duty).fold(1.0, f64::min);
            (
                status_of(
                    all_sound && full_duty,
                    Some(exactly_four && demo_flagged),
                ),
                format!(
                    "{} paper configurations sound at full duty (exactly depth == round trip: {}); undersized demo flagged: {}",
                    paper.len(),
                    exactly_four,
                    demo_flagged
                ),
                vec![
                    ("paper_configs_sound", paper.iter().filter(|c| c.sound).count() as f64),
                    ("worst_paper_duty", worst_duty),
                ],
            )
        }
        other => unreachable!("claim {other:?} has no evaluator"),
    };
    ClaimOutcome {
        spec,
        status,
        measured,
        values,
    }
}

impl ClaimsReport {
    /// Claims whose shape (at least) reproduces.
    pub fn shape_or_better(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status >= Status::Shape)
            .count()
    }

    /// Claims inside their quantitative band.
    pub fn quantitative(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == Status::Quantitative)
            .count()
    }

    /// The outcome of one claim.
    pub fn outcome(&self, id: &str) -> Option<&ClaimOutcome> {
        self.outcomes.iter().find(|o| o.spec.id == id)
    }

    /// The human-readable conformance table.
    pub fn render(&self) -> String {
        let mut t = crate::Table::new(
            format!("Conformance claims ({} tier)", self.tier.name()),
            &["claim", "source", "status", "measured"],
        );
        for o in &self.outcomes {
            t.row([
                o.spec.id.to_string(),
                o.spec.source.to_string(),
                o.status.name().to_string(),
                o.measured.clone(),
            ]);
        }
        let mut out = format!("{t}");
        let _ = writeln!(
            out,
            "\n{} of {} claims reproduce in shape; {} quantitatively.",
            self.shape_or_better(),
            self.outcomes.len(),
            self.quantitative()
        );
        out
    }

    /// The versioned `claims_report.json` document.
    pub fn to_json(&self) -> Json {
        let claims = self
            .outcomes
            .iter()
            .map(|o| {
                let mut values = Json::obj();
                for &(k, v) in &o.values {
                    values = values.field(k, v);
                }
                Json::obj()
                    .field("id", o.spec.id)
                    .field("source", o.spec.source)
                    .field("paper", o.spec.paper)
                    .field(
                        "quant_band",
                        o.spec.quant.map(Json::from).unwrap_or(Json::Null),
                    )
                    .field("status", o.status.name())
                    .field("measured", o.measured.clone())
                    .field("values", values)
            })
            .collect::<Vec<_>>();
        Json::obj()
            .field("schema", REPORT_SCHEMA)
            .field("tier", self.tier.name())
            .field("claims", Json::Arr(claims))
            .field(
                "summary",
                Json::obj()
                    .field("total", self.outcomes.len())
                    .field("shape_or_better", self.shape_or_better())
                    .field("quantitative", self.quantitative()),
            )
    }

    /// The baseline document pinning the current statuses.
    pub fn baseline_json(&self) -> Json {
        let claims = self
            .outcomes
            .iter()
            .map(|o| {
                Json::obj()
                    .field("id", o.spec.id)
                    .field("status", o.status.name())
            })
            .collect::<Vec<_>>();
        Json::obj()
            .field("schema", BASELINE_SCHEMA)
            .field("claims", Json::Arr(claims))
    }
}

/// The committed per-claim statuses (`CLAIMS_BASELINE.json`). Statuses
/// are tier-independent: the bands are calibrated so `quick` and `smoke`
/// agree (that agreement is itself exercised by the CI smoke leg).
#[derive(Clone, Debug, PartialEq)]
pub struct Baseline {
    /// `(claim id, pinned status)` in document order.
    pub entries: Vec<(String, Status)>,
}

/// One claim whose status moved below the baseline.
#[derive(Clone, Debug)]
pub struct Regression {
    /// The claim ID.
    pub id: String,
    /// Status the baseline pins.
    pub baseline: Status,
    /// Status measured now (`None` if the claim vanished from the
    /// registry).
    pub current: Option<Status>,
}

impl Baseline {
    /// Parses a `CLAIMS_BASELINE.json` document.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = Json::parse(text)?;
        let schema = doc.get("schema").and_then(Json::as_str);
        if schema != Some(BASELINE_SCHEMA) {
            return Err(format!(
                "unexpected baseline schema {schema:?} (want {BASELINE_SCHEMA:?})"
            ));
        }
        let claims = doc
            .get("claims")
            .and_then(Json::as_array)
            .ok_or("baseline has no claims array")?;
        let entries = claims
            .iter()
            .map(|c| {
                let id = c
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("claim without id")?;
                let status = c
                    .get("status")
                    .and_then(Json::as_str)
                    .and_then(Status::parse)
                    .ok_or_else(|| format!("claim {id} has no valid status"))?;
                Ok((id.to_string(), status))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Baseline { entries })
    }

    /// The pinned status of one claim.
    pub fn status(&self, id: &str) -> Option<Status> {
        self.entries.iter().find(|(i, _)| i == id).map(|&(_, s)| s)
    }

    /// Claims in `report` whose status fell below this baseline, plus
    /// pinned claims the report no longer evaluates.
    pub fn regressions(&self, report: &ClaimsReport) -> Vec<Regression> {
        self.entries
            .iter()
            .filter_map(|(id, pinned)| {
                let current = report.outcome(id).map(|o| o.status);
                match current {
                    Some(c) if c >= *pinned => None,
                    _ => Some(Regression {
                        id: id.clone(),
                        baseline: *pinned,
                        current,
                    }),
                }
            })
            .collect()
    }

    /// Claims in `report` whose status now exceeds the baseline
    /// (improvements worth re-pinning).
    pub fn improvements(&self, report: &ClaimsReport) -> Vec<(String, Status, Status)> {
        self.entries
            .iter()
            .filter_map(|(id, pinned)| {
                let current = report.outcome(id)?.status;
                (current > *pinned).then(|| (id.clone(), *pinned, current))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in &REGISTRY {
            assert!(seen.insert(spec.id), "duplicate claim id {}", spec.id);
            assert!(
                spec.id
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "claim id {} has invalid characters",
                spec.id
            );
        }
        assert_eq!(REGISTRY.len(), 19);
    }

    #[test]
    fn status_order_and_names() {
        assert!(Status::Fail < Status::Shape);
        assert!(Status::Shape < Status::Quantitative);
        for s in [Status::Fail, Status::Shape, Status::Quantitative] {
            assert_eq!(Status::parse(s.name()), Some(s));
        }
        assert_eq!(Status::parse("ok"), None);
    }

    #[test]
    fn baseline_round_trips_and_diffs() {
        let report = ClaimsReport {
            tier: Tier::Smoke,
            outcomes: vec![
                ClaimOutcome {
                    spec: &REGISTRY[0],
                    status: Status::Quantitative,
                    measured: "5/5".into(),
                    values: vec![("traces_passed", 5.0)],
                },
                ClaimOutcome {
                    spec: &REGISTRY[1],
                    status: Status::Shape,
                    measured: "drifted".into(),
                    values: vec![],
                },
            ],
        };
        let baseline = Baseline::parse(&report.baseline_json().to_string()).unwrap();
        assert_eq!(baseline.status(REGISTRY[0].id), Some(Status::Quantitative));
        assert!(baseline.regressions(&report).is_empty());

        // A claim dropping below its pin is a regression; one missing
        // from the report entirely is too.
        let mut worse = report.clone();
        worse.outcomes[0].status = Status::Shape;
        worse.outcomes.remove(1);
        let regs = baseline.regressions(&worse);
        assert_eq!(regs.len(), 2);
        assert_eq!(regs[0].id, REGISTRY[0].id);
        assert_eq!(regs[0].current, Some(Status::Shape));
        assert_eq!(regs[1].current, None);

        // And a claim rising above its pin is an improvement, not a
        // regression.
        let mut better = report.clone();
        better.outcomes[1].status = Status::Quantitative;
        assert!(baseline.regressions(&better).is_empty());
        assert_eq!(baseline.improvements(&better).len(), 1);
    }

    #[test]
    fn newly_added_claims_never_regress_an_older_baseline() {
        // Growing the registry must not fail `noxsim claims` against a
        // baseline written before the new claims existed: the diff walks
        // the baseline's entries, so report-only claims are invisible to
        // it (whatever their status) until the baseline is re-pinned.
        let report = ClaimsReport {
            tier: Tier::Smoke,
            outcomes: vec![
                ClaimOutcome {
                    spec: &REGISTRY[0],
                    status: Status::Quantitative,
                    measured: "5/5".into(),
                    values: vec![],
                },
                ClaimOutcome {
                    spec: &REGISTRY[1],
                    status: Status::Fail,
                    measured: "brand new, still failing".into(),
                    values: vec![],
                },
            ],
        };
        let old = Baseline {
            entries: vec![(REGISTRY[0].id.to_string(), Status::Quantitative)],
        };
        assert!(old.regressions(&report).is_empty());
        assert!(old.improvements(&report).is_empty());
    }

    #[test]
    fn report_json_round_trips() {
        let report = ClaimsReport {
            tier: Tier::Quick,
            outcomes: vec![ClaimOutcome {
                spec: &REGISTRY[5],
                status: Status::Quantitative,
                measured: "+9.0%".into(),
                values: vec![("nox_gain", 0.09)],
            }],
        };
        let doc = Json::parse(&report.to_json().to_string()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(REPORT_SCHEMA)
        );
        let claims = doc.get("claims").and_then(Json::as_array).unwrap();
        assert_eq!(
            claims[0].get("id").and_then(Json::as_str),
            Some(REGISTRY[5].id)
        );
        assert_eq!(
            claims[0]
                .get("values")
                .and_then(|v| v.get("nox_gain"))
                .and_then(Json::as_f64),
            Some(0.09)
        );
        let summary = doc.get("summary").unwrap();
        assert_eq!(summary.get("quantitative").and_then(Json::as_u64), Some(1));
    }
}
