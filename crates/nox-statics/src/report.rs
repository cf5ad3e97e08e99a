//! The `nox-bench/statics/v1` artifact: the standard design-analysis
//! suite, its gating verdict, and the deterministic JSON rendering.
//!
//! The document is built from the workspace's one JSON value type
//! ([`nox_telemetry::json::Json`]): fields in fixed order,
//! shortest-roundtrip floats. Byte-identical output at any `--threads`
//! width is part of the contract and is tested.

use nox_exec::Executor;
use nox_sim::config::{Arch, NetConfig};
use nox_sim::topology::{Topology, TopologyKind};
use nox_telemetry::json::Json;

use crate::cdg;
use crate::credit::{check_credits, CreditCheck};

/// Schema identifier of the statics artifact.
pub const SCHEMA: &str = "nox-bench/statics/v1";

/// The deadlock analysis of one topology × routing function.
#[derive(Clone, Debug)]
pub struct DesignAnalysis {
    /// Suite entry label, e.g. `mesh8x8-xy`.
    pub name: String,
    /// Topology description, e.g. `mesh 8x8`.
    pub topology: String,
    /// Routing function description.
    pub routing: String,
    /// Whether the suite expects this instance to be deadlock-free.
    pub expect_safe: bool,
    /// Router count.
    pub routers: usize,
    /// CDG node count (directed inter-router channels in use).
    pub channels: usize,
    /// CDG edge count.
    pub edges: usize,
    /// Number of cyclic strongly connected components.
    pub cyclic_sccs: usize,
    /// The Dally-Seitz verdict: CDG acyclic.
    pub deadlock_free: bool,
    /// One concrete witness cycle per cyclic SCC (channel labels).
    pub witnesses: Vec<Vec<String>>,
    /// Routes walked during extraction.
    pub routes_walked: usize,
    /// Longest route observed, in hops.
    pub max_route_hops: u32,
}

/// Analyzes one topology and packages the result for the report.
pub fn analyze_topology(
    name: &str,
    topo: &Topology,
    expect_safe: bool,
    exec: &Executor,
) -> DesignAnalysis {
    let cdg = cdg::extract(topo, exec);
    let witnesses = cdg
        .witnesses()
        .iter()
        .map(|w| {
            cdg.validate_witness(topo, w)
                .expect("extractor produced an invalid witness");
            w.channels.iter().map(|c| c.label(topo)).collect()
        })
        .collect();
    DesignAnalysis {
        name: name.to_string(),
        topology: describe_topology(topo),
        routing: match topo.kind() {
            TopologyKind::Ring => "ring-shortest-path".to_string(),
            _ => "xy-dor".to_string(),
        },
        expect_safe,
        routers: topo.routers(),
        channels: cdg.channels.len(),
        edges: cdg.edges.len(),
        cyclic_sccs: cdg.cyclic_sccs().len(),
        deadlock_free: cdg.deadlock_free(),
        witnesses,
        routes_walked: cdg.routes_walked,
        max_route_hops: cdg.max_route_hops,
    }
}

fn describe_topology(topo: &Topology) -> String {
    let g = topo.grid();
    match topo.kind() {
        TopologyKind::Mesh => format!("mesh {}x{}", g.width(), g.height()),
        TopologyKind::CMesh { concentration } => {
            format!("cmesh {}x{}x{}", g.width(), g.height(), concentration)
        }
        TopologyKind::Ring => format!("ring {}", g.width()),
    }
}

/// The full statics report: design analyses plus credit-sizing checks.
#[derive(Clone, Debug)]
pub struct StaticsReport {
    /// Deadlock analyses, in suite order.
    pub analyses: Vec<DesignAnalysis>,
    /// Credit-sizing checks, in suite order.
    pub credits: Vec<CreditCheck>,
}

/// The standard suite: the paper's mesh (safe), the small test mesh
/// (safe), the concentrated mesh (safe), and the unrestricted ring
/// (unsafe, with witness); credit checks over every Table 1 architecture
/// plus one deliberately undersized configuration that must be flagged.
pub fn standard_report(exec: &Executor) -> StaticsReport {
    let analyses = vec![
        analyze_topology("mesh8x8-xy", &Topology::mesh(8, 8), true, exec),
        analyze_topology("mesh4x4-xy", &Topology::mesh(4, 4), true, exec),
        analyze_topology("cmesh4x4x4-xy", &Topology::cmesh(4, 4, 4), true, exec),
        analyze_topology("ring8-shortest", &Topology::ring(8), false, exec),
    ];
    let mut credits: Vec<CreditCheck> = Arch::ALL
        .iter()
        .map(|&a| {
            check_credits(
                &format!("paper-{}", a.name().to_ascii_lowercase()),
                &NetConfig::paper(a),
                true,
            )
        })
        .collect();
    credits.push(check_credits(
        "ring8-paper-buffers",
        &NetConfig::ring(Arch::Nox, 8),
        true,
    ));
    let mut undersized = NetConfig::paper(Arch::Nox);
    undersized.credit_delay = 6;
    credits.push(check_credits("undersized-demo", &undersized, false));
    StaticsReport { analyses, credits }
}

impl StaticsReport {
    /// The gating verdict: every analysis matches its expectation, every
    /// unsafe instance carries at least one witness cycle, and every
    /// credit check matches its expected soundness.
    pub fn verdict_ok(&self) -> bool {
        self.analyses.iter().all(|a| {
            a.deadlock_free == a.expect_safe && (a.deadlock_free || !a.witnesses.is_empty())
        }) && self.credits.iter().all(|c| c.sound == c.expect_sound)
    }

    /// Human-readable rendering for the CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("channel-dependency analysis (Dally-Seitz):\n");
        for a in &self.analyses {
            let verdict = if a.deadlock_free {
                "deadlock-free"
            } else {
                "DEADLOCK-PRONE"
            };
            let status = if a.deadlock_free == a.expect_safe {
                "ok"
            } else {
                "UNEXPECTED"
            };
            out.push_str(&format!(
                "  {:<16} {:<12} {:<18} {} [{}]: {} channels, {} edges, {} cyclic SCCs\n",
                a.name, a.topology, a.routing, verdict, status, a.channels, a.edges, a.cyclic_sccs
            ));
            for w in &a.witnesses {
                out.push_str(&format!("    witness cycle: {}\n", w.join(" -> ")));
            }
        }
        out.push_str("credit sizing (round trip = 2 + credit_delay cycles):\n");
        for c in &self.credits {
            out.push_str(&format!(
                "  {:<20} depth {} vs round-trip {}: {} (max link duty {:.2})\n",
                c.name,
                c.buffer_depth,
                c.round_trip,
                if c.sound { "sound" } else { "UNDERSIZED" },
                c.max_link_duty
            ));
        }
        out.push_str(&format!(
            "verdict: {}\n",
            if self.verdict_ok() { "PASS" } else { "FAIL" }
        ));
        out
    }

    /// The `nox-bench/statics/v1` JSON artifact. Deterministic: fixed
    /// field order, sorted content, no floats beyond shortest-roundtrip
    /// duty ratios, no timestamps.
    pub fn to_json(&self) -> Json {
        let analyses: Vec<Json> = self
            .analyses
            .iter()
            .map(|a| {
                Json::obj()
                    .field("name", &*a.name)
                    .field("topology", &*a.topology)
                    .field("routing", &*a.routing)
                    .field("expect_safe", a.expect_safe)
                    .field("routers", a.routers)
                    .field("channels", a.channels)
                    .field("edges", a.edges)
                    .field("cyclic_sccs", a.cyclic_sccs)
                    .field("deadlock_free", a.deadlock_free)
                    .field("routes_walked", a.routes_walked)
                    .field("max_route_hops", a.max_route_hops)
                    .field("witness_cycles", a.witnesses.clone())
            })
            .collect();
        let credits: Vec<Json> = self
            .credits
            .iter()
            .map(|c| {
                Json::obj()
                    .field("name", &*c.name)
                    .field("arch", &*c.arch)
                    .field("buffer_depth", c.buffer_depth)
                    .field("credit_delay", c.credit_delay)
                    .field("round_trip_cycles", c.round_trip)
                    .field("sound", c.sound)
                    .field("expect_sound", c.expect_sound)
                    .field("max_link_duty", c.max_link_duty)
            })
            .collect();
        Json::obj()
            .field("schema", SCHEMA)
            .field("analyses", analyses)
            .field("credit_checks", credits)
            .field("verdict_ok", self.verdict_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_suite_verdict_passes() {
        let r = standard_report(&Executor::sequential());
        assert!(r.verdict_ok(), "{}", r.render());
        // The mesh entries are provably safe with zero cycles...
        for a in &r.analyses[..3] {
            assert!(a.deadlock_free);
            assert_eq!(a.cyclic_sccs, 0);
            assert!(a.witnesses.is_empty());
        }
        // ...and the ring carries concrete witnesses.
        let ring = &r.analyses[3];
        assert!(!ring.deadlock_free);
        assert!(!ring.witnesses.is_empty());
        // The undersized demo is flagged, as expected.
        let demo = r.credits.last().unwrap();
        assert!(!demo.sound && !demo.expect_sound);
    }

    #[test]
    fn json_is_byte_identical_across_thread_counts() {
        let baseline = standard_report(&Executor::sequential()).to_json();
        for threads in [2, 8] {
            assert_eq!(
                standard_report(&Executor::new(threads)).to_json(),
                baseline,
                "statics artifact must not depend on --threads"
            );
        }
    }

    #[test]
    fn json_shape_is_sane() {
        let j = standard_report(&Executor::sequential())
            .to_json()
            .to_string();
        assert!(j.starts_with("{\"schema\":\"nox-bench/statics/v1\""));
        assert!(j.contains("\"witness_cycles\":[["));
        assert!(j.ends_with("\"verdict_ok\":true}"));
        // What the one serializer wrote, the one parser reads back.
        let doc = Json::parse(&j).expect("artifact parses");
        assert_eq!(
            doc.get("analyses").and_then(Json::as_array).map(<[_]>::len),
            Some(4)
        );
        // One credit row pinned byte for byte (field order, integer and
        // float formatting).
        assert!(
            j.contains(
                "{\"name\":\"undersized-demo\",\"arch\":\"NoX\",\"buffer_depth\":4,\
                 \"credit_delay\":6,\"round_trip_cycles\":8,\"sound\":false,\
                 \"expect_sound\":false,\"max_link_duty\":0.5}"
            ),
            "{j}"
        );
    }

    #[test]
    fn render_mentions_witness_and_verdict() {
        let r = standard_report(&Executor::sequential());
        let txt = r.render();
        assert!(txt.contains("witness cycle:"));
        assert!(txt.contains("verdict: PASS"));
        assert!(txt.contains("DEADLOCK-PRONE"));
        assert!(txt.contains("UNDERSIZED"));
    }
}
