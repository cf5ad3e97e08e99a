//! Ablation study of the NoX design choices called out in DESIGN.md:
//! how much of the router's performance comes from the *Scheduled* mode
//! (the pre-scheduling half of §2.6) versus pure XOR-coded Recovery-mode
//! arbitration?
//!
//! With Scheduled mode disabled, collision losers still drain through
//! the chain correctly (the coding invariant is preserved), but nothing
//! is ever pre-scheduled: sustained contention keeps resolving through
//! fresh encoded collisions, and multi-flit streams hand off by
//! re-colliding.

use std::fmt::Write as _;

use crate::apps::workload_traces;
use crate::harness::{appstudy::APP_SEED, uniform_config, Tier};
use crate::json::Json;
use crate::sweep::{run_point, run_rates};
use crate::Table;
use nox_exec::Executor;
use nox_sim::config::{Arch, NetConfig};
use nox_sim::sim::run as sim_run;
use nox_traffic::cmp::workload;

/// Versioned schema of the `--json` document.
pub const SCHEMA: &str = "nox-bench/ablation/v1";

/// One paired measurement: full NoX versus NoX without Scheduled mode.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Operating point: MB/s/node for synthetic rows, workload name for
    /// application rows.
    pub label: String,
    /// Mean latency of the full NoX router, nanoseconds.
    pub full_ns: f64,
    /// Mean latency with Scheduled mode disabled, nanoseconds.
    pub ablated_ns: f64,
}

impl AblationRow {
    /// Latency penalty of the ablation as a fraction.
    pub fn penalty(&self) -> f64 {
        self.ablated_ns / self.full_ns - 1.0
    }
}

/// The ablation result.
#[derive(Clone, Debug)]
pub struct AblationResult {
    /// Tier the study ran at.
    pub tier: Tier,
    /// Uniform-random synthetic rows.
    pub synthetic: Vec<AblationRow>,
    /// Application reply-network rows.
    pub apps: Vec<AblationRow>,
}

/// Runs the ablation at `tier`, its synthetic rows fanned out over
/// `exec`: one trace per rate drives both variants.
pub fn run(tier: Tier, exec: &Executor) -> AblationResult {
    let rates = match tier {
        Tier::Smoke => vec![500.0, 2_500.0, 3_000.0],
        _ => vec![500.0, 1_500.0, 2_500.0, 3_000.0],
    };
    let cfg = uniform_config(tier, rates, 6_000.0);

    let full = NetConfig::paper(Arch::Nox);
    let ablated = NetConfig {
        nox_scheduled_mode: false,
        ..full
    };

    let synthetic = run_rates("ablation", exec, &cfg, &[full, ablated], run_point)
        .chunks(2)
        .map(|pair| AblationRow {
            label: format!("{:.0}", pair[0].rate_mbps),
            full_ns: pair[0].latency_ns,
            ablated_ns: pair[1].latency_ns,
        })
        .collect();

    let apps = ["ocean", "tpcc"]
        .into_iter()
        .map(|name| {
            let w = workload(name).expect("known workload");
            let traces = workload_traces(w, cfg.duration_ns, APP_SEED);
            let a = sim_run(full, &traces.reply, &cfg.run);
            let b = sim_run(ablated, &traces.reply, &cfg.run);
            AblationRow {
                label: name.to_string(),
                full_ns: a.avg_latency_ns(),
                ablated_ns: b.avg_latency_ns(),
            }
        })
        .collect();

    AblationResult {
        tier,
        synthetic,
        apps,
    }
}

fn rows_table(title: &str, first_col: &str, rows: &[AblationRow]) -> Table {
    let mut t = Table::new(
        title,
        &[first_col, "full NoX (ns)", "no Scheduled (ns)", "penalty"],
    );
    for r in rows {
        t.row([
            r.label.clone(),
            format!("{:.2}", r.full_ns),
            format!("{:.2}", r.ablated_ns),
            format!("{:+.1}%", r.penalty() * 100.0),
        ]);
    }
    t
}

impl AblationResult {
    /// The two tables plus the takeaway.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            rows_table(
                "Ablation: NoX with and without Scheduled mode (uniform random)",
                "MB/s/node",
                &self.synthetic,
            )
        );
        let _ = writeln!(
            out,
            "{}",
            rows_table(
                "Ablation on application reply networks (9-flit data packets)",
                "workload",
                &self.apps,
            )
        );
        out.push_str(
            "Takeaway: Recovery-mode coding alone keeps NoX correct and productive,\n\
             but Scheduled mode is what sustains full-rate output under continuous\n\
             contention and hands multi-flit streams off without re-colliding.\n",
        );
        out
    }

    /// The versioned machine-readable document.
    pub fn to_json(&self) -> Json {
        let rows = |v: &[AblationRow]| {
            Json::Arr(
                v.iter()
                    .map(|r| {
                        Json::obj()
                            .field("label", r.label.clone())
                            .field("full_ns", r.full_ns)
                            .field("ablated_ns", r.ablated_ns)
                            .field("penalty", r.penalty())
                    })
                    .collect(),
            )
        };
        Json::obj()
            .field("schema", SCHEMA)
            .field("tier", self.tier.name())
            .field("synthetic_uniform", rows(&self.synthetic))
            .field("app_reply_networks", rows(&self.apps))
    }
}
