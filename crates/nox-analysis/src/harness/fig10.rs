//! Figure 10 — application average packet latency — over the nine
//! synthesized CMP workloads (the substitution for the paper's SPLASH-2
//! / SPEC / TPC traces; see DESIGN.md), each replayed on two 64-bit
//! physical wormhole networks per Table 1.

use std::fmt::Write as _;

use crate::harness::appstudy::AppStudy;
use crate::harness::ARCH_COLUMNS;
use crate::json::Json;
use crate::Table;
use nox_sim::config::Arch;
use nox_traffic::WORKLOADS;

/// Versioned schema of the `--json` document.
pub const SCHEMA: &str = "nox-bench/fig10/v1";

/// The Figure 10 result: the latency view of the application study.
#[derive(Clone, Debug)]
pub struct Fig10Result {
    /// The underlying workloads-by-architectures study.
    pub study: AppStudy,
}

impl Fig10Result {
    /// Builds the view over an existing study (shared with Figure 11 and
    /// the claims registry).
    pub fn from_study(study: AppStudy) -> Fig10Result {
        Fig10Result { study }
    }

    /// The human-readable table plus the paper-prose summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut t = Table::new(
            "Figure 10: application average packet latency (ns)",
            &[
                "workload",
                ARCH_COLUMNS[0],
                ARCH_COLUMNS[1],
                ARCH_COLUMNS[2],
                ARCH_COLUMNS[3],
                "best",
            ],
        );
        let winners = self.study.winners();
        for (row, &best) in self.study.rows.iter().zip(&winners) {
            t.row([
                row[0].workload.to_string(),
                format!("{:.2}", row[0].latency_ns),
                format!("{:.2}", row[1].latency_ns),
                format!("{:.2}", row[2].latency_ns),
                format!("{:.2}", row[3].latency_ns),
                best.name().to_string(),
            ]);
        }
        let means: Vec<f64> = Arch::ALL
            .iter()
            .map(|&a| self.study.mean_latency_ns(a))
            .collect();
        let nox_best_mean = means[3] <= means[0].min(means[1]).min(means[2]);
        t.row([
            "MEAN".to_string(),
            format!("{:.2}", means[0]),
            format!("{:.2}", means[1]),
            format!("{:.2}", means[2]),
            format!("{:.2}", means[3]),
            if nox_best_mean { "NoX" } else { "-" }.to_string(),
        ]);
        let _ = writeln!(out, "{t}");
        let _ = writeln!(
            out,
            "NoX is the lowest-latency network on {} of {} workloads.\n\
             Paper prose: \"the NoX architecture [is] the optimal network given our\n\
             application workloads\"; Spec-Fast is overly aggressive and even the\n\
             non-speculative router can outperform it on contended workloads (tpcc).",
            self.study.wins(Arch::Nox),
            WORKLOADS.len()
        );
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
                            .field("latency_ns", r.latency_ns)
                            .field("request_latency_ns", r.request_latency_ns)
                            .field("reply_latency_ns", r.reply_latency_ns)
                            .field("drained", r.drained)
                    })
                    .collect::<Vec<_>>();
                Json::obj()
                    .field("workload", row[0].workload)
                    .field("results", Json::Arr(per_arch))
            })
            .collect::<Vec<_>>();
        let means = Json::Arr(
            Arch::ALL
                .iter()
                .map(|&a| {
                    Json::obj()
                        .field("arch", a.name())
                        .field("mean_latency_ns", self.study.mean_latency_ns(a))
                        .field("wins", self.study.wins(a))
                })
                .collect(),
        );
        Json::obj()
            .field("schema", SCHEMA)
            .field("tier", self.study.tier.name())
            .field("workloads", Json::Arr(workloads))
            .field("summary", means)
    }
}
