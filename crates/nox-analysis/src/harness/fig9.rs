//! Figure 9 — synthetic traffic energy-delay² versus injection
//! bandwidth — rendered from the same [`SyntheticStudy`] as Figure 8.
//! ED² is mean packet energy (pJ) times mean packet latency squared
//! (ns²); the paper notes the Figure 8 trends are amplified here because
//! the speculative routers also waste link energy on misspeculation.

use std::fmt::Write as _;

use crate::harness::synthetic::{Metric, SyntheticStudy};
use crate::harness::ARCH_COLUMNS;
use crate::json::Json;
use crate::sweep::ArchSeries;
use crate::Table;
use nox_sim::config::Arch;

/// Versioned schema of the `--json` document.
pub const SCHEMA: &str = "nox-bench/fig9/v1";

/// The Figure 9 result: the ED² view of the synthetic study.
#[derive(Clone, Debug)]
pub struct Fig9Result {
    /// The underlying four-scenario study.
    pub study: SyntheticStudy,
}

impl Fig9Result {
    /// Builds the view over an existing study (shared with Figure 8 and
    /// the claims registry).
    pub fn from_study(study: SyntheticStudy) -> Fig9Result {
        Fig9Result { study }
    }

    /// The human-readable tables plus the fair-comparison-point summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for sc in &self.study.scenarios {
            let mut t = Table::new(
                format!(
                    "Figure 9{}: energy-delay^2 (pJ*ns^2) vs offered load (MB/s/node)",
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
                        format!("{:.3e}", p.ed2)
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

            // The last rate at which everyone is still below saturation
            // gives a fair ED^2 comparison point.
            if let Some(i) = sc.last_common_drained() {
                let nox = sc.series_of(Arch::Nox).points[i].ed2;
                let _ = write!(
                    out,
                    "  at {:.0} MB/s/node, ED^2 vs NoX:",
                    self.study.rates[i]
                );
                for s in &sc.series[..3] {
                    let _ = write!(
                        out,
                        "  {} {:+.1}%",
                        s.arch.name(),
                        (s.points[i].ed2 / nox - 1.0) * 100.0
                    );
                }
                out.push_str("\n\n");
            }
        }
        out
    }

    /// The versioned machine-readable document.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("schema", SCHEMA)
            .field("tier", self.study.tier.name())
            .field("rates_mbps", self.study.rates.clone())
            .field("scenarios", self.study.scenarios_json(Metric::Ed2))
    }
}
