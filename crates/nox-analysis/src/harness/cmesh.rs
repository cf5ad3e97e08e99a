//! The paper's future-work study (§8): "evaluate the NoX architecture on
//! alternative, higher radix, topologies ... which may derive more
//! benefit given their higher arbitration latencies, their longer
//! channels, and the fixed cost of the NoX decoding hardware."
//!
//! Compares the 64-core 8x8 mesh of five-port routers against a 64-core
//! 4x4 *concentrated* mesh of radix-8 routers (4 cores per router, 4 mm
//! channels, clocks re-derived by the logical-effort model), sweeping
//! uniform random traffic on both. Each of the eight series ends at its
//! first undrained rate ([`sweep_series`]).

use std::fmt::Write as _;

use crate::harness::{uniform_config, Tier};
use crate::json::Json;
use crate::sweep::{sweep_series, ArchSeries};
use crate::Table;
use nox_exec::Executor;
use nox_power::timing::CriticalPath;
use nox_sim::config::{cmesh_clock_ps, Arch, NetConfig};

/// Versioned schema of the `--json` document.
pub const SCHEMA: &str = "nox-bench/cmesh/v2";

/// One topology's sweep.
#[derive(Clone, Debug)]
pub struct TopoSweep {
    /// Display label, e.g. `8x8 mesh (radix 5)`.
    pub label: &'static str,
    /// One series per architecture, in `Arch::ALL` order, each ending at
    /// its first undrained rate.
    pub series: Vec<ArchSeries>,
}

/// The §8 result.
#[derive(Clone, Debug)]
pub struct CmeshResult {
    /// Tier the study ran at.
    pub tier: Tier,
    /// The swept offered loads, MB/s per node.
    pub rates: Vec<f64>,
    /// Per-architecture mesh and cmesh clock periods, picoseconds.
    pub clocks_ps: Vec<(Arch, f64, f64)>,
    /// The mesh sweep followed by the cmesh sweep.
    pub sweeps: Vec<TopoSweep>,
    /// `true` when the cmesh clock model agrees with [`CriticalPath::cmesh`].
    pub clocks_consistent: bool,
}

/// Runs the topology comparison at `tier`, its waves fanned out over
/// `exec`.
pub fn run(tier: Tier, exec: &Executor) -> CmeshResult {
    let mut clocks_consistent = true;
    let clocks_ps = Arch::ALL
        .iter()
        .map(|&arch| {
            clocks_consistent &=
                CriticalPath::cmesh(arch).period_table2_ps() == cmesh_clock_ps(arch);
            (arch, arch.clock_ps() as f64, cmesh_clock_ps(arch) as f64)
        })
        .collect();

    let rates = match tier {
        Tier::Smoke => vec![500.0, 1_000.0, 2_000.0],
        _ => vec![500.0, 1_000.0, 1_500.0, 2_000.0, 2_500.0],
    };
    let cfg = uniform_config(tier, rates.clone(), 6_000.0);
    // One 64-core uniform trace per rate drives all eight networks: the
    // four architectures on the mesh, then the same four on the cmesh.
    let nets: Vec<NetConfig> = Arch::ALL
        .map(NetConfig::paper)
        .into_iter()
        .chain(Arch::ALL.map(NetConfig::cmesh_paper))
        .collect();
    let mut series = sweep_series("cmesh", &[cfg], &nets, exec)
        .pop()
        .expect("one configuration")
        .into_iter();
    let sweeps = ["8x8 mesh (radix 5)", "4x4 cmesh (radix 8)"]
        .into_iter()
        .map(|label| TopoSweep {
            label,
            series: series.by_ref().take(Arch::ALL.len()).collect(),
        })
        .collect();

    CmeshResult {
        tier,
        rates,
        clocks_ps,
        sweeps,
        clocks_consistent,
    }
}

impl CmeshResult {
    /// NoX's clock penalty versus Spec-Accurate on the mesh and cmesh,
    /// as fractions.
    pub fn nox_clock_penalties(&self) -> (f64, f64) {
        let of = |arch: Arch| {
            self.clocks_ps
                .iter()
                .find(|(a, _, _)| *a == arch)
                .expect("all archs present")
        };
        let (_, nox_mesh, nox_cmesh) = of(Arch::Nox);
        let (_, acc_mesh, acc_cmesh) = of(Arch::SpecAccurate);
        (nox_mesh / acc_mesh - 1.0, nox_cmesh / acc_cmesh - 1.0)
    }

    /// The clock table, both sweeps, and the hypothesis check.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Radix-8 concentrated-mesh clock periods (logical-effort model):\n\n");
        let mut t = Table::new(
            "",
            &[
                "architecture",
                "mesh clock (ns)",
                "cmesh clock (ns)",
                "NoX-relative penalty",
            ],
        );
        for &(arch, mesh_ps, cmesh_ps) in &self.clocks_ps {
            let pen_mesh = Arch::Nox.clock_ps() as f64 / mesh_ps;
            let pen_cmesh = cmesh_clock_ps(Arch::Nox) as f64 / cmesh_ps;
            t.row([
                arch.name().to_string(),
                format!("{:.2}", mesh_ps / 1000.0),
                format!("{:.2}", cmesh_ps / 1000.0),
                format!("{pen_mesh:.3} -> {pen_cmesh:.3}"),
            ]);
        }
        let _ = writeln!(out, "{t}");

        for sweep in &self.sweeps {
            let mut t = Table::new(
                format!(
                    "{}: mean latency (ns) vs offered load, uniform random",
                    sweep.label
                ),
                &[
                    "MB/s/node",
                    "Non-Spec",
                    "Spec-Fast",
                    "Spec-Acc",
                    "NoX",
                    "NoX vs Spec-Acc",
                ],
            );
            for (i, &rate) in self.rates.iter().enumerate() {
                // The drained latencies; a rate past a series' end is one
                // it did not drain.
                let latency: Vec<Option<f64>> = sweep
                    .series
                    .iter()
                    .map(|s| s.points.get(i).filter(|p| p.drained).map(|p| p.latency_ns))
                    .collect();
                let cell = |a: usize| match latency[a] {
                    Some(l) => format!("{l:.2}"),
                    None => "sat".into(),
                };
                t.row([
                    format!("{rate:.0}"),
                    cell(0),
                    cell(1),
                    cell(2),
                    cell(3),
                    match (latency[2], latency[3]) {
                        (Some(acc), Some(nox)) => format!("{:+.1}%", (nox / acc - 1.0) * 100.0),
                        _ => "-".into(),
                    },
                ]);
            }
            let _ = writeln!(out, "{t}");
        }
        let (pen_mesh, pen_cmesh) = self.nox_clock_penalties();
        let _ = writeln!(
            out,
            "Hypothesis check (§8): NoX's clock penalty vs Spec-Accurate shrinks from\n\
             {:.1}% on the mesh to {:.1}% on the cmesh, while per-hop contention rises\n\
             (fewer, wider routers) — both effects work in NoX's favour at higher radix.",
            pen_mesh * 100.0,
            pen_cmesh * 100.0,
        );
        out
    }

    /// The versioned machine-readable document: per topology one series
    /// per architecture, whose `points` end at its first undrained rate;
    /// `rates_mbps` lists the whole grid.
    pub fn to_json(&self) -> Json {
        let clocks = self
            .clocks_ps
            .iter()
            .map(|&(arch, mesh_ps, cmesh_ps)| {
                Json::obj()
                    .field("arch", arch.name())
                    .field("mesh_clock_ps", mesh_ps)
                    .field("cmesh_clock_ps", cmesh_ps)
            })
            .collect::<Vec<_>>();
        let sweeps = self
            .sweeps
            .iter()
            .map(|s| {
                let series = s
                    .series
                    .iter()
                    .map(|a| {
                        let points = a
                            .points
                            .iter()
                            .map(|p| {
                                Json::obj()
                                    .field("rate_mbps", p.rate_mbps)
                                    .field("latency_ns", p.latency_ns)
                                    .field("drained", p.drained)
                            })
                            .collect::<Vec<_>>();
                        Json::obj()
                            .field("arch", a.arch.name())
                            .field("points", Json::Arr(points))
                    })
                    .collect::<Vec<_>>();
                Json::obj()
                    .field("label", s.label)
                    .field("series", Json::Arr(series))
            })
            .collect::<Vec<_>>();
        let (pen_mesh, pen_cmesh) = self.nox_clock_penalties();
        Json::obj()
            .field("schema", SCHEMA)
            .field("tier", self.tier.name())
            .field("rates_mbps", self.rates.clone())
            .field("clocks", Json::Arr(clocks))
            .field("clocks_consistent", self.clocks_consistent)
            .field("sweeps", Json::Arr(sweeps))
            .field("nox_clock_penalty_mesh", pen_mesh)
            .field("nox_clock_penalty_cmesh", pen_cmesh)
    }
}
