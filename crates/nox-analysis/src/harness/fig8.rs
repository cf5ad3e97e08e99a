//! Figure 8 — synthetic traffic latency versus injection bandwidth —
//! rendered from a [`SyntheticStudy`].

use std::fmt::Write as _;

use crate::harness::synthetic::{Metric, SyntheticStudy, SATURATION_FACTOR};
use crate::harness::ARCH_COLUMNS;
use crate::json::Json;
use crate::sweep::ArchSeries;
use crate::Table;
use nox_sim::config::Arch;

/// Versioned schema of the `--json` document.
pub const SCHEMA: &str = "nox-bench/fig8/v1";

/// The Figure 8 result: the latency view of the synthetic study.
#[derive(Clone, Debug)]
pub struct Fig8Result {
    /// The underlying four-scenario study.
    pub study: SyntheticStudy,
}

impl Fig8Result {
    /// Builds the view over an existing study (shared with Figure 9 and
    /// the claims registry).
    pub fn from_study(study: SyntheticStudy) -> Fig8Result {
        Fig8Result { study }
    }

    /// The human-readable tables plus the saturation / crossover
    /// summary the paper reports in prose.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for sc in &self.study.scenarios {
            let mut t = Table::new(
                format!(
                    "Figure 8{}: mean latency (ns) vs offered load (MB/s/node)",
                    sc.label
                ),
                &[
                    "MB/s/node",
                    ARCH_COLUMNS[0],
                    ARCH_COLUMNS[1],
                    ARCH_COLUMNS[2],
                    ARCH_COLUMNS[3],
                ],
            );
            for (i, &rate) in self.study.rates.iter().enumerate() {
                let cell = |s: &ArchSeries| {
                    let p = &s.points[i];
                    if p.drained {
                        format!("{:.2}", p.latency_ns)
                    } else {
                        "sat".to_string()
                    }
                };
                t.row([
                    format!("{rate:.0}"),
                    cell(&sc.series[0]),
                    cell(&sc.series[1]),
                    cell(&sc.series[2]),
                    cell(&sc.series[3]),
                ]);
            }
            let _ = writeln!(out, "{t}");

            out.push_str("  saturation throughput (MB/s/node):");
            for s in &sc.series {
                let _ = write!(
                    out,
                    "  {} {:.0}",
                    s.arch.name(),
                    s.saturation_mbps(SATURATION_FACTOR)
                );
            }
            out.push('\n');
            let _ = writeln!(
                out,
                "  NoX throughput vs best other: {:+.1}%  (paper: up to +9.9% across patterns)",
                sc.nox_saturation_gain() * 100.0
            );
            if let Some(x) = sc.crossover(Arch::Nox, Arch::SpecAccurate) {
                let _ = writeln!(out, "  NoX overtakes Spec-Accurate from {x:.0} MB/s/node");
            }
            if let Some(x) = sc.crossover(Arch::SpecAccurate, Arch::SpecFast) {
                let _ = writeln!(
                    out,
                    "  Spec-Accurate overtakes Spec-Fast from {x:.0} MB/s/node"
                );
            }
            out.push('\n');
        }
        out.push_str(
            "Paper prose for Fig 8a: Spec-Fast best to 575 MB/s/node, Spec-Accurate to\n\
             750 MB/s/node, NoX best above that until saturation at 2775 MB/s/node;\n\
             Spec-Fast frequently saturates at less than half the others' bandwidth.\n",
        );
        out
    }

    /// The versioned machine-readable document.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("schema", SCHEMA)
            .field("tier", self.study.tier.name())
            .field("rates_mbps", self.study.rates.clone())
            .field("scenarios", self.study.scenarios_json(Metric::LatencyNs))
    }
}
