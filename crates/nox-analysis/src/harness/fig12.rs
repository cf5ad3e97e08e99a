//! Figure 12 — total network dynamic power for 2 GB/s/node single-flit
//! uniform random traffic — split by component. Spec-Fast is omitted
//! exactly as in the paper ("not shown due to its low saturation
//! bandwidth": 2 GB/s/node is at/beyond its saturation point).

use std::fmt::Write as _;

use crate::harness::{uniform_config, Tier};
use crate::json::Json;
use crate::sweep::{measure_rate, SweepConfig, SweepPoint};
use crate::Table;
use nox_power::energy::EnergyModel;
use nox_power::EnergyBreakdown;
use nox_sim::config::{Arch, NetConfig};

/// Versioned schema of the `--json` document.
pub const SCHEMA: &str = "nox-bench/fig12/v1";

/// The offered load of the study, MB/s per node (2 GB/s/node).
pub const RATE_MBPS: f64 = 2_000.0;

/// One architecture's power breakdown at the study's operating point.
#[derive(Clone, Debug)]
pub struct PowerRow {
    /// Router architecture.
    pub arch: Arch,
    /// Event-energy breakdown over the measurement window.
    pub breakdown: EnergyBreakdown,
    /// Measurement window, nanoseconds.
    pub window_ns: f64,
}

/// The Figure 12 result.
#[derive(Clone, Debug)]
pub struct PowerResult {
    /// Tier the study ran at.
    pub tier: Tier,
    /// Non-Speculative, Spec-Accurate, and NoX rows (paper order).
    pub rows: Vec<PowerRow>,
}

/// The study's configuration at `tier`: uniform random at [`RATE_MBPS`]
/// with an 8 µs measurement window (4 µs at smoke).
pub fn sweep_config(tier: Tier) -> SweepConfig {
    uniform_config(tier, vec![RATE_MBPS], 8_000.0)
}

/// Runs the power study at `tier`: one trace drives all three networks.
pub fn run(tier: Tier) -> PowerResult {
    let archs = [Arch::NonSpec, Arch::SpecAccurate, Arch::Nox];
    let rows = measure_rate(&sweep_config(tier), RATE_MBPS, &archs.map(NetConfig::paper))
        .iter()
        .map(PowerRow::of)
        .collect();
    PowerResult { tier, rows }
}

impl PowerRow {
    /// The breakdown of one measured point, under its architecture's
    /// energy model.
    pub fn of(point: &SweepPoint) -> PowerRow {
        let arch = point.result.cfg.arch;
        PowerRow {
            arch,
            breakdown: EnergyModel::for_arch(arch).breakdown(&point.result.window_counters),
            window_ns: point.result.window_ns,
        }
    }

    /// The table row: architecture, the five components, the total (mW)
    /// and the link share (%).
    pub fn cells(&self) -> [String; 8] {
        let (b, w) = (&self.breakdown, self.window_ns);
        [
            self.arch.name().to_string(),
            format!("{:.1}", b.link_pj / w),
            format!("{:.1}", b.buffer_pj / w),
            format!("{:.1}", b.xbar_pj / w),
            format!("{:.1}", b.arb_pj / w),
            format!("{:.1}", b.decode_pj / w),
            format!("{:.1}", b.power_mw(w)),
            format!("{:.1}", b.link_share() * 100.0),
        ]
    }
}

impl PowerResult {
    /// The breakdown of one architecture.
    pub fn row(&self, arch: Arch) -> &PowerRow {
        self.rows
            .iter()
            .find(|r| r.arch == arch)
            .unwrap_or_else(|| panic!("{arch} not in the Figure 12 study"))
    }

    /// NoX's link share of total power (the paper's ~74%).
    pub fn nox_link_share(&self) -> f64 {
        self.row(Arch::Nox).breakdown.link_share()
    }

    /// Spec-Accurate versus NoX for one component, as a fraction.
    pub fn acc_vs_nox(&self, component: fn(&EnergyBreakdown) -> f64) -> f64 {
        component(&self.row(Arch::SpecAccurate).breakdown)
            / component(&self.row(Arch::Nox).breakdown)
            - 1.0
    }

    /// The human-readable table plus the §5.3 checks.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut t = Table::new(
            format!(
                "Figure 12: network dynamic power (mW) @ {:.0} MB/s/node uniform random",
                RATE_MBPS
            ),
            &[
                "architecture",
                "link",
                "buffer",
                "switch",
                "arb",
                "decode",
                "total",
                "link %",
            ],
        );
        for r in &self.rows {
            t.row(r.cells());
        }
        let _ = writeln!(out, "{t}");

        let nox = &self.row(Arch::Nox).breakdown;
        let nonspec = &self.row(Arch::NonSpec).breakdown;
        out.push_str("Checks against §5.3:\n");
        let _ = writeln!(
            out,
            "  link share of total power: {:.1}% (paper: ~74%)",
            self.nox_link_share() * 100.0
        );
        let _ = writeln!(
            out,
            "  Spec-Accurate vs NoX link energy:   {:+.1}%  (paper: +4.6%)",
            self.acc_vs_nox(|b| b.link_pj) * 100.0
        );
        let _ = writeln!(
            out,
            "  Spec-Accurate vs NoX switch energy: {:+.1}%  (paper: -2.4%)",
            self.acc_vs_nox(|b| b.xbar_pj) * 100.0
        );
        let _ = writeln!(
            out,
            "  Spec-Accurate vs NoX total power:   {:+.1}%  (paper: +2.5%)",
            self.acc_vs_nox(|b| b.total_pj()) * 100.0
        );
        let _ = writeln!(
            out,
            "  non-speculative vs NoX total power: {:+.1}%  (paper: lowest of all)",
            (nonspec.total_pj() / nox.total_pj() - 1.0) * 100.0
        );
        let _ = writeln!(
            out,
            "  NoX decode share of total:          {:.2}%  (paper: minimal)",
            nox.decode_pj / nox.total_pj() * 100.0
        );
        out
    }

    /// The versioned machine-readable document.
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let (b, w) = (&r.breakdown, r.window_ns);
                Json::obj()
                    .field("arch", r.arch.name())
                    .field("link_mw", b.link_pj / w)
                    .field("buffer_mw", b.buffer_pj / w)
                    .field("switch_mw", b.xbar_pj / w)
                    .field("arb_mw", b.arb_pj / w)
                    .field("decode_mw", b.decode_pj / w)
                    .field("total_mw", b.power_mw(w))
                    .field("link_share", b.link_share())
            })
            .collect::<Vec<_>>();
        Json::obj()
            .field("schema", SCHEMA)
            .field("tier", self.tier.name())
            .field("rate_mbps_per_node", RATE_MBPS)
            .field("architectures", Json::Arr(rows))
            .field("nox_link_share", self.nox_link_share())
            .field("acc_vs_nox_link", self.acc_vs_nox(|b| b.link_pj))
            .field("acc_vs_nox_switch", self.acc_vs_nox(|b| b.xbar_pj))
            .field("acc_vs_nox_total", self.acc_vs_nox(|b| b.total_pj()))
    }
}
