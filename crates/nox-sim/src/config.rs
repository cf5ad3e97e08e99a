//! Simulation configuration: router architectures and system parameters.
//!
//! Defaults follow Table 1 of the paper (64-node 8x8 mesh, 64-bit flits,
//! four-entry input buffers, 2 mm channels) and Table 2 for the per
//! architecture clock periods. The clock periods here are the *published*
//! values; `nox-power`'s logical-effort timing model re-derives them and a
//! cross-check test keeps the two in agreement.

use std::fmt;

/// The four router architectures evaluated in the paper.
///
/// `Ord` follows declaration order — the paper's presentation order —
/// so the architectures key ordered containers deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Arch {
    /// Sequential baseline: switch arbitration then switch traversal (§3.1.1).
    NonSpec,
    /// Aggressive single-cycle speculative router (§3.1.2).
    SpecFast,
    /// Accurately-scheduled single-cycle speculative router (§3.1.2).
    SpecAccurate,
    /// The paper's contribution: XOR-coded crossbar arbitration (§2).
    Nox,
}

impl Arch {
    /// All architectures, in the paper's presentation order.
    pub const ALL: [Arch; 4] = [Arch::NonSpec, Arch::SpecFast, Arch::SpecAccurate, Arch::Nox];

    /// Clock period in picoseconds, from Table 2 of the paper.
    ///
    /// Includes the 248 ps SRAM access and the 98 ps link traversal of the
    /// 2 mm inter-tile channel.
    pub fn clock_ps(self) -> u32 {
        match self {
            Arch::NonSpec => 920,
            Arch::SpecFast => 690,
            Arch::SpecAccurate => 720,
            Arch::Nox => 760,
        }
    }

    /// Clock period in nanoseconds.
    pub fn clock_ns(self) -> f64 {
        self.clock_ps() as f64 / 1000.0
    }

    /// The display name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Arch::NonSpec => "Non-Speculative",
            Arch::SpecFast => "Spec-Fast",
            Arch::SpecAccurate => "Spec-Accurate",
            Arch::Nox => "NoX",
        }
    }

    /// The short lowercase key the CLI's `--arch` and the serve
    /// protocol's `"arch"` select an architecture by.
    pub fn key(self) -> &'static str {
        match self {
            Arch::NonSpec => "nonspec",
            Arch::SpecFast => "fast",
            Arch::SpecAccurate => "acc",
            Arch::Nox => "nox",
        }
    }

    /// Parses an architecture selector — one [`key`](Arch::key), or
    /// `all` — into the architectures it names, in [`Arch::ALL`] order.
    pub fn parse(selector: &str) -> Option<Vec<Arch>> {
        if selector == "all" {
            return Some(Arch::ALL.to_vec());
        }
        Arch::ALL
            .into_iter()
            .find(|a| a.key() == selector)
            .map(|a| vec![a])
    }
}

impl fmt::Display for Arch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Clock periods for the concentrated-mesh (radix-8) routers of the
/// future-work study, in picoseconds. Derived by `nox-power`'s timing
/// model (cross-checked by test): the 4 mm channels add ~98 ps everywhere,
/// the wider arbiter costs the sequential router one more stage, and the
/// NoX decode stage is a *fixed* cost — so NoX's relative clock penalty
/// shrinks at higher radix, as the paper's §8 anticipates.
pub fn cmesh_clock_ps(arch: Arch) -> u32 {
    match arch {
        Arch::NonSpec => 1080,
        Arch::SpecFast => 810,
        Arch::SpecAccurate => 840,
        Arch::Nox => 880,
    }
}

/// Static configuration of one simulated network.
///
/// # Example
///
/// ```
/// use nox_sim::config::{Arch, NetConfig};
///
/// let cfg = NetConfig::paper(Arch::Nox);
/// assert_eq!(cfg.width, 8);
/// assert_eq!(cfg.buffer_depth, 4);
/// assert_eq!(cfg.clock_ps, 760);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetConfig {
    /// Router-grid width (columns).
    pub width: u8,
    /// Router-grid height (rows).
    pub height: u8,
    /// Cores per router: 1 for the paper's mesh, 2..=4 for the
    /// concentrated-mesh future-work study.
    pub concentration: u8,
    /// Use the wraparound ring topology of `width` routers instead of a
    /// grid (requires `height == 1` and `concentration == 1`). The
    /// shortest-path ring routing is knowingly deadlock-prone; see
    /// [`crate::routing::route_ring`].
    pub ring: bool,
    /// Router architecture to instantiate.
    pub arch: Arch,
    /// Input buffer depth in flits per port (Table 1: 4).
    pub buffer_depth: usize,
    /// Flit width in bytes (Table 1: 64-bit links).
    pub flit_bytes: u32,
    /// Cycles between a buffer slot freeing and the credit becoming usable
    /// upstream. Together with the 1-cycle link this sizes the credit
    /// round-trip the 4-entry buffers must cover (Table 1).
    pub credit_delay: u64,
    /// Clock period in picoseconds (defaults to [`Arch::clock_ps`]).
    pub clock_ps: u32,
    /// Enable the NoX Scheduled mode (§2.6). Disabling it is an ablation
    /// that isolates the coding half of the design; it only affects
    /// [`Arch::Nox`] networks.
    pub nox_scheduled_mode: bool,
}

impl NetConfig {
    /// The paper's Table 1 configuration for a given architecture:
    /// 8x8 mesh, 4-deep 64-bit buffers, Table 2 clock.
    pub fn paper(arch: Arch) -> Self {
        NetConfig {
            width: 8,
            height: 8,
            concentration: 1,
            ring: false,
            arch,
            buffer_depth: 4,
            flit_bytes: 8,
            credit_delay: 2,
            clock_ps: arch.clock_ps(),
            nox_scheduled_mode: true,
        }
    }

    /// A small 4x4 configuration for fast tests.
    pub fn small(arch: Arch) -> Self {
        NetConfig {
            width: 4,
            height: 4,
            ..Self::paper(arch)
        }
    }

    /// The future-work configuration (§8): a 4x4 concentrated mesh with
    /// four cores per radix-8 router — still 64 cores — with 4 mm
    /// channels and the correspondingly longer clock periods.
    pub fn cmesh_paper(arch: Arch) -> Self {
        NetConfig {
            width: 4,
            height: 4,
            concentration: 4,
            clock_ps: cmesh_clock_ps(arch),
            ..Self::paper(arch)
        }
    }

    /// A wraparound ring of `n` routers, otherwise Table 1 parameters.
    /// The analyzer's (and simulator's) concrete deadlock-prone instance.
    pub fn ring(arch: Arch, n: u8) -> Self {
        NetConfig {
            width: n,
            height: 1,
            ring: true,
            ..Self::paper(arch)
        }
    }

    /// The topology this configuration describes.
    pub fn topology(&self) -> crate::topology::Topology {
        if self.ring {
            crate::topology::Topology::ring(self.width)
        } else if self.concentration <= 1 {
            crate::topology::Topology::mesh(self.width, self.height)
        } else {
            crate::topology::Topology::cmesh(self.width, self.height, self.concentration)
        }
    }

    /// Clock period in nanoseconds.
    pub fn clock_ns(&self) -> f64 {
        self.clock_ps as f64 / 1000.0
    }

    /// Number of cores (network endpoints).
    pub fn nodes(&self) -> usize {
        self.width as usize * self.height as usize * self.concentration.max(1) as usize
    }

    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.width == 0 || self.height == 0 {
            return Err("mesh dimensions must be non-zero".into());
        }
        if self.buffer_depth < 2 {
            return Err("buffer depth must cover at least head+latch".into());
        }
        if self.clock_ps == 0 {
            return Err("clock period must be non-zero".into());
        }
        if self.flit_bytes == 0 {
            return Err("flit width must be non-zero".into());
        }
        if self.concentration == 0 || self.concentration > 4 {
            return Err("concentration must be 1..=4".into());
        }
        if self.ring {
            if self.height != 1 || self.concentration != 1 {
                return Err("ring topology requires height 1 and concentration 1".into());
            }
            if self.width < 3 {
                return Err("ring topology needs at least 3 routers".into());
            }
        }
        Ok(())
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::paper(Arch::Nox)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_selectors_parse() {
        assert_eq!(Arch::parse("all"), Some(Arch::ALL.to_vec()));
        for a in Arch::ALL {
            assert_eq!(Arch::parse(a.key()), Some(vec![a]));
        }
        assert_eq!(Arch::parse("NoX"), None);
    }

    #[test]
    fn table2_clock_periods() {
        assert_eq!(Arch::NonSpec.clock_ps(), 920);
        assert_eq!(Arch::SpecFast.clock_ps(), 690);
        assert_eq!(Arch::SpecAccurate.clock_ps(), 720);
        assert_eq!(Arch::Nox.clock_ps(), 760);
    }

    #[test]
    fn relative_speedups_match_section_6_1() {
        // "Relative to the non-speculative architecture, the Spec-Fast,
        // Spec-Accurate, and NoX architectures are 33.3%, 27.8%, and 21.1%
        // faster on a clock period basis."
        let base = Arch::NonSpec.clock_ps() as f64;
        let faster = |a: Arch| (base - a.clock_ps() as f64) / base * 100.0;
        assert!((faster(Arch::SpecFast) - 25.0).abs() < 0.1); // 230/920
                                                              // The paper's percentages are relative to the *faster* clock:
                                                              // (920-690)/690 = 33.3%.
        let rel = |a: Arch| (base / a.clock_ps() as f64 - 1.0) * 100.0;
        assert!((rel(Arch::SpecFast) - 33.3).abs() < 0.1);
        assert!((rel(Arch::SpecAccurate) - 27.8).abs() < 0.1);
        assert!((rel(Arch::Nox) - 21.1).abs() < 0.1);
    }

    #[test]
    fn nox_decode_overhead_is_40ps() {
        assert_eq!(
            Arch::Nox.clock_ps() - Arch::SpecAccurate.clock_ps(),
            40,
            "§6.1: decoding logic incurs approximately 40 ps"
        );
    }

    #[test]
    fn paper_config_matches_table1() {
        let c = NetConfig::paper(Arch::NonSpec);
        assert_eq!(c.nodes(), 64);
        assert_eq!(c.flit_bytes, 8);
        assert_eq!(c.buffer_depth, 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn cmesh_preset_keeps_64_cores() {
        let c = NetConfig::cmesh_paper(Arch::Nox);
        assert_eq!(c.nodes(), 64);
        assert_eq!(c.topology().ports(), 8);
        assert_eq!(c.clock_ps, 880);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn cmesh_clocks_shrink_nox_relative_penalty() {
        // The fixed decode cost amortizes: NoX's clock penalty vs
        // Spec-Accurate is 5.6% on the mesh but only ~4.8% on the cmesh.
        let mesh_pen = Arch::Nox.clock_ps() as f64 / Arch::SpecAccurate.clock_ps() as f64;
        let cmesh_pen =
            cmesh_clock_ps(Arch::Nox) as f64 / cmesh_clock_ps(Arch::SpecAccurate) as f64;
        assert!(cmesh_pen < mesh_pen);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = NetConfig::paper(Arch::Nox);
        c.buffer_depth = 1;
        assert!(c.validate().is_err());
        let mut c = NetConfig::paper(Arch::Nox);
        c.width = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn ring_preset_builds_a_ring() {
        let c = NetConfig::ring(Arch::Nox, 8);
        assert!(c.validate().is_ok());
        assert_eq!(c.nodes(), 8);
        assert_eq!(c.topology().kind(), crate::topology::TopologyKind::Ring);
    }

    #[test]
    fn ring_validation_constraints() {
        let mut c = NetConfig::ring(Arch::Nox, 8);
        c.height = 2;
        assert!(c.validate().is_err());
        let mut c = NetConfig::ring(Arch::Nox, 8);
        c.concentration = 2;
        assert!(c.validate().is_err());
        assert!(NetConfig::ring(Arch::Nox, 2).validate().is_err());
    }
}
