//! The application-workload study shared by Figures 10 and 11.
//!
//! Runs all nine synthesized CMP workloads on every architecture's dual
//! physical networks once, each workload's traffic synthesized once for
//! all four architectures; Figure 10 renders the latency view and
//! Figure 11 the ED² view, and the claims registry evaluates both
//! figures' claims from the same study.

use crate::apps::{
    app_run_spec, mean_ed2_improvement_pct, measure_workload, AppResult, APP_TRACE_NS,
};
use crate::harness::Tier;
use nox_exec::Executor;
use nox_sim::config::Arch;
use nox_sim::sim::RunSpec;
use nox_traffic::WORKLOADS;

/// The trace seed every figure-10/11 run has always used.
pub const APP_SEED: u64 = 13;

/// The full workloads-by-architectures study.
#[derive(Clone, Debug)]
pub struct AppStudy {
    /// Tier the study ran at.
    pub tier: Tier,
    /// One row per workload: the four architectures' results in
    /// `Arch::ALL` order.
    pub rows: Vec<Vec<AppResult>>,
}

/// Measurement phases and trace length for a tier. Full and quick use
/// the historical figure-10/11 windows; smoke halves the measurement and
/// trace so the claims registry stays CI-fast.
pub fn app_tier_spec(tier: Tier) -> (RunSpec, f64) {
    match tier {
        Tier::Full | Tier::Quick => (app_run_spec(), APP_TRACE_NS),
        Tier::Smoke => (
            RunSpec {
                warmup_ns: 1_000.0,
                measure_ns: 3_000.0,
                drain_ns: 30_000.0,
            },
            20_000.0,
        ),
    }
}

/// Runs the study at `tier`, fanning the workloads out over `exec`. Each
/// workload's traffic is synthesized once and drives all four
/// architectures ([`measure_workload`]; same seed, same spec), and the
/// ordered reduction keeps the rows in `WORKLOADS` order, so the study is
/// bit-identical at any thread count.
pub fn study_with(tier: Tier, exec: &Executor) -> AppStudy {
    let (spec, trace_ns) = app_tier_spec(tier);
    let rows = exec.map_stage("apps.workloads", WORKLOADS.iter(), |_, w| {
        measure_workload(&Arch::ALL, w, APP_SEED, &spec, trace_ns)
    });
    AppStudy { tier, rows }
}

impl AppStudy {
    /// The results of one architecture across all workloads, paired in
    /// workload order.
    pub fn arch_results(&self, arch: Arch) -> Vec<AppResult> {
        let i = Arch::ALL
            .iter()
            .position(|&a| a == arch)
            .expect("known arch");
        self.rows.iter().map(|r| r[i].clone()).collect()
    }

    /// Mean latency of one architecture across all workloads.
    pub fn mean_latency_ns(&self, arch: Arch) -> f64 {
        let rs = self.arch_results(arch);
        rs.iter().map(|r| r.latency_ns).sum::<f64>() / rs.len() as f64
    }

    /// The architecture with the lowest latency on each workload.
    pub fn winners(&self) -> Vec<Arch> {
        self.rows
            .iter()
            .map(|r| {
                r.iter()
                    .min_by(|a, b| a.latency_ns.total_cmp(&b.latency_ns))
                    .expect("non-empty row")
                    .arch
            })
            .collect()
    }

    /// How many workloads `arch` wins on latency.
    pub fn wins(&self, arch: Arch) -> usize {
        self.winners().into_iter().filter(|&w| w == arch).count()
    }

    /// Workloads where `a` has lower latency than `b`.
    pub fn beats_on(&self, a: Arch, b: Arch) -> Vec<&'static str> {
        let (ra, rb) = (self.arch_results(a), self.arch_results(b));
        ra.iter()
            .zip(&rb)
            .filter(|(x, y)| x.latency_ns < y.latency_ns)
            .map(|(x, _)| x.workload)
            .collect()
    }

    /// Geometric-mean ED² improvement of NoX over `other`, in percent.
    pub fn nox_ed2_improvement_pct(&self, other: Arch) -> f64 {
        mean_ed2_improvement_pct(&self.arch_results(Arch::Nox), &self.arch_results(other))
    }
}
