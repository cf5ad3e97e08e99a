//! The paper's future-work study (§8): "evaluate the NoX architecture on
//! alternative, higher radix, topologies ... which may derive more
//! benefit given their higher arbitration latencies, their longer
//! channels, and the fixed cost of the NoX decoding hardware."
//!
//! Compares the 64-core 8x8 mesh of five-port routers against a 64-core
//! 4x4 *concentrated* mesh of radix-8 routers (4 cores per router, 4 mm
//! channels, clocks re-derived by the logical-effort model), sweeping
//! uniform random traffic on both.

use std::fmt::Write as _;

use crate::harness::{uniform_config, Tier};
use crate::json::Json;
use crate::sweep::measure_rate;
use crate::Table;
use nox_power::timing::CriticalPath;
use nox_sim::config::{cmesh_clock_ps, Arch, NetConfig};

/// Versioned schema of the `--json` document.
pub const SCHEMA: &str = "nox-bench/cmesh/v1";

/// One architecture's latency at one rate on one topology.
#[derive(Clone, Debug)]
pub struct TopoPoint {
    /// Offered load, MB/s per node.
    pub rate_mbps: f64,
    /// Mean latency per architecture (`Arch::ALL` order), ns.
    pub latency_ns: [f64; 4],
    /// Drained flags per architecture.
    pub drained: [bool; 4],
}

/// One topology's sweep.
#[derive(Clone, Debug)]
pub struct TopoSweep {
    /// Display label, e.g. `8x8 mesh (radix 5)`.
    pub label: &'static str,
    /// The swept points.
    pub points: Vec<TopoPoint>,
}

/// The §8 result.
#[derive(Clone, Debug)]
pub struct CmeshResult {
    /// Tier the study ran at.
    pub tier: Tier,
    /// Per-architecture mesh and cmesh clock periods, picoseconds.
    pub clocks_ps: Vec<(Arch, f64, f64)>,
    /// The mesh sweep followed by the cmesh sweep.
    pub sweeps: Vec<TopoSweep>,
    /// `true` when the cmesh clock model agrees with [`CriticalPath::cmesh`].
    pub clocks_consistent: bool,
}

/// Runs the topology comparison at `tier`.
pub fn run(tier: Tier) -> CmeshResult {
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
    let cfg = uniform_config(tier, rates, 6_000.0);
    // One 64-core uniform trace per rate drives all eight networks: the
    // four architectures on the mesh, then the same four on the cmesh.
    let nets: Vec<NetConfig> = Arch::ALL
        .map(NetConfig::paper)
        .into_iter()
        .chain(Arch::ALL.map(NetConfig::cmesh_paper))
        .collect();
    let measured: Vec<_> = cfg
        .rates_mbps
        .iter()
        .map(|&rate| measure_rate(&cfg, rate, &nets))
        .collect();
    let sweeps = ["8x8 mesh (radix 5)", "4x4 cmesh (radix 8)"]
        .into_iter()
        .zip([0, Arch::ALL.len()])
        .map(|(label, first)| TopoSweep {
            label,
            points: measured
                .iter()
                .zip(&cfg.rates_mbps)
                .map(|(points, &rate_mbps)| {
                    let topo = &points[first..first + Arch::ALL.len()];
                    TopoPoint {
                        rate_mbps,
                        latency_ns: std::array::from_fn(|i| topo[i].latency_ns),
                        drained: std::array::from_fn(|i| topo[i].drained),
                    }
                })
                .collect(),
        })
        .collect();

    CmeshResult {
        tier,
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
            for p in &sweep.points {
                let cell = |i: usize| {
                    if p.drained[i] {
                        format!("{:.2}", p.latency_ns[i])
                    } else {
                        "sat".into()
                    }
                };
                t.row([
                    format!("{:.0}", p.rate_mbps),
                    cell(0),
                    cell(1),
                    cell(2),
                    cell(3),
                    if p.drained[2] && p.drained[3] {
                        format!("{:+.1}%", (p.latency_ns[3] / p.latency_ns[2] - 1.0) * 100.0)
                    } else {
                        "-".into()
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

    /// The versioned machine-readable document.
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
                let points = s
                    .points
                    .iter()
                    .map(|p| {
                        let lat = p
                            .latency_ns
                            .iter()
                            .zip(p.drained)
                            .zip(Arch::ALL)
                            .map(|((&l, d), a)| {
                                Json::obj()
                                    .field("arch", a.name())
                                    .field("latency_ns", l)
                                    .field("drained", d)
                            })
                            .collect::<Vec<_>>();
                        Json::obj()
                            .field("rate_mbps", p.rate_mbps)
                            .field("results", Json::Arr(lat))
                    })
                    .collect::<Vec<_>>();
                Json::obj()
                    .field("label", s.label)
                    .field("points", Json::Arr(points))
            })
            .collect::<Vec<_>>();
        let (pen_mesh, pen_cmesh) = self.nox_clock_penalties();
        Json::obj()
            .field("schema", SCHEMA)
            .field("tier", self.tier.name())
            .field("clocks", Json::Arr(clocks))
            .field("clocks_consistent", self.clocks_consistent)
            .field("sweeps", Json::Arr(sweeps))
            .field("nox_clock_penalty_mesh", pen_mesh)
            .field("nox_clock_penalty_cmesh", pen_cmesh)
    }
}
