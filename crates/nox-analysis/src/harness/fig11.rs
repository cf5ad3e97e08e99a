//! Figure 11 — application energy-delay² — over the nine synthesized
//! CMP workloads, and the paper's headline summary: "On average the NoX
//! architecture outperforms the non-speculative, Spec-Fast, and
//! Spec-Accurate by 29.5%, 34.4%, and 2.7% respectively on an
//! energy-delay^2 basis."

use std::fmt::Write as _;

use crate::harness::appstudy::AppStudy;
use crate::harness::ARCH_COLUMNS;
use crate::json::Json;
use crate::Table;
use nox_sim::config::Arch;

/// Versioned schema of the `--json` document.
pub const SCHEMA: &str = "nox-bench/fig11/v1";

/// The paper's mean ED² improvements, paired with the competitor.
pub const PAPER_IMPROVEMENTS_PCT: [(Arch, f64); 3] = [
    (Arch::NonSpec, 29.5),
    (Arch::SpecFast, 34.4),
    (Arch::SpecAccurate, 2.7),
];

/// The Figure 11 result: the ED² view of the application study.
#[derive(Clone, Debug)]
pub struct Fig11Result {
    /// The underlying workloads-by-architectures study.
    pub study: AppStudy,
}

impl Fig11Result {
    /// Builds the view over an existing study (shared with Figure 10 and
    /// the claims registry).
    pub fn from_study(study: AppStudy) -> Fig11Result {
        Fig11Result { study }
    }

    /// The human-readable table plus the geometric-mean summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut t = Table::new(
            "Figure 11: application energy-delay^2 (pJ*ns^2)",
            &[
                "workload",
                ARCH_COLUMNS[0],
                ARCH_COLUMNS[1],
                ARCH_COLUMNS[2],
                ARCH_COLUMNS[3],
            ],
        );
        for row in &self.study.rows {
            t.row([
                row[0].workload.to_string(),
                format!("{:.3e}", row[0].ed2),
                format!("{:.3e}", row[1].ed2),
                format!("{:.3e}", row[2].ed2),
                format!("{:.3e}", row[3].ed2),
            ]);
        }
        let _ = writeln!(out, "{t}");
        out.push_str("Mean ED^2 improvement of NoX (geometric mean across workloads):\n");
        for (other, paper) in PAPER_IMPROVEMENTS_PCT {
            let _ = writeln!(
                out,
                "  vs {:<16} {:+.1}%   (paper: +{:.1}%)",
                other.name(),
                self.study.nox_ed2_improvement_pct(other),
                paper
            );
        }
        out
    }

    /// The versioned machine-readable document.
    pub fn to_json(&self) -> Json {
        let workloads = self
            .study
            .rows
            .iter()
            .map(|row| {
                let per_arch = row
                    .iter()
                    .map(|r| {
                        Json::obj()
                            .field("arch", r.arch.name())
                            .field("ed2_pj_ns2", r.ed2)
                            .field("energy_per_packet_pj", r.energy_per_packet_pj)
                            .field("drained", r.drained)
                    })
                    .collect::<Vec<_>>();
                Json::obj()
                    .field("workload", row[0].workload)
                    .field("results", Json::Arr(per_arch))
            })
            .collect::<Vec<_>>();
        let summary = Json::Arr(
            PAPER_IMPROVEMENTS_PCT
                .iter()
                .map(|&(other, paper)| {
                    Json::obj()
                        .field("vs", other.name())
                        .field(
                            "nox_improvement_pct",
                            self.study.nox_ed2_improvement_pct(other),
                        )
                        .field("paper_pct", paper)
                })
                .collect(),
        );
        Json::obj()
            .field("schema", SCHEMA)
            .field("tier", self.study.tier.name())
            .field("workloads", Json::Arr(workloads))
            .field("mean_improvement", summary)
    }
}
