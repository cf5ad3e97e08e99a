//! Standard synthetic traffic patterns.
//!
//! The paper evaluates "standard single-flit traffic patterns" (§5.1,
//! citing Dally & Towles). These are destination maps: given a source
//! node, a pattern yields the destination — deterministically for the
//! permutation patterns, via the RNG for the random ones.
//!
//! Patterns that map a node to itself (e.g. the transpose diagonal) simply
//! make that node silent, the usual convention.

use rand::Rng;

use nox_sim::topology::{Coord, Mesh, NodeId};

/// A synthetic traffic pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Each packet goes to a uniformly random node (excluding the source).
    UniformRandom,
    /// `(x, y)` sends to `(y, x)`.
    Transpose,
    /// Destination index is the bitwise complement of the source index.
    BitComplement,
    /// Destination index is the bit-reversed source index.
    BitReverse,
    /// Destination index is the source index rotated left by one bit.
    Shuffle,
    /// `x` sends to `(x + ceil(W/2) - 1) mod W` in its own row — the
    /// adversarial "tornado" pattern.
    Tornado,
    /// Each node sends to its right neighbour (wrapping), a best-case
    /// nearest-neighbour pattern.
    Neighbor,
    /// With probability 1/4 to the mesh-centre hotspot, else uniform.
    HotSpot,
}

impl Pattern {
    /// All patterns, for sweeps.
    pub const ALL: [Pattern; 8] = [
        Pattern::UniformRandom,
        Pattern::Transpose,
        Pattern::BitComplement,
        Pattern::BitReverse,
        Pattern::Shuffle,
        Pattern::Tornado,
        Pattern::Neighbor,
        Pattern::HotSpot,
    ];

    /// Short lowercase name for tables and file names.
    pub fn name(self) -> &'static str {
        match self {
            Pattern::UniformRandom => "uniform",
            Pattern::Transpose => "transpose",
            Pattern::BitComplement => "bitcomp",
            Pattern::BitReverse => "bitrev",
            Pattern::Shuffle => "shuffle",
            Pattern::Tornado => "tornado",
            Pattern::Neighbor => "neighbor",
            Pattern::HotSpot => "hotspot",
        }
    }

    /// Parses a pattern [`name`](Pattern::name).
    pub fn parse(name: &str) -> Option<Pattern> {
        Pattern::ALL.into_iter().find(|p| p.name() == name)
    }

    /// The destination for a packet injected at `src`, or `None` when the
    /// pattern maps the node to itself (the node stays silent).
    ///
    /// # Panics
    ///
    /// Panics for bit-permutation patterns if the node count is not a
    /// power of two (they permute index bits).
    pub fn dest<R: Rng + ?Sized>(self, mesh: Mesh, src: NodeId, rng: &mut R) -> Option<NodeId> {
        let n = mesh.nodes();
        let dst = match self {
            Pattern::UniformRandom => {
                if n == 1 {
                    return None;
                }
                let mut d = rng.gen_range(0..n - 1) as u16;
                if d >= src.0 {
                    d += 1;
                }
                NodeId(d)
            }
            Pattern::Transpose => {
                let c = mesh.coord(src);
                if c.x >= mesh.height() || c.y >= mesh.width() {
                    return None; // non-square meshes: out-of-range half stays silent
                }
                mesh.node(Coord { x: c.y, y: c.x })
            }
            Pattern::BitComplement => {
                let bits = index_bits(n);
                NodeId(!src.0 & ((1 << bits) - 1))
            }
            Pattern::BitReverse => {
                let bits = index_bits(n);
                let mut v = src.0;
                let mut r = 0u16;
                for _ in 0..bits {
                    r = (r << 1) | (v & 1);
                    v >>= 1;
                }
                NodeId(r)
            }
            Pattern::Shuffle => {
                let bits = index_bits(n);
                let top = (src.0 >> (bits - 1)) & 1;
                NodeId(((src.0 << 1) | top) & ((1 << bits) - 1))
            }
            Pattern::Tornado => {
                let c = mesh.coord(src);
                let w = mesh.width() as u16;
                let off = w.div_ceil(2) - 1;
                mesh.node(Coord {
                    x: ((c.x as u16 + off) % w) as u8,
                    y: c.y,
                })
            }
            Pattern::Neighbor => {
                let c = mesh.coord(src);
                mesh.node(Coord {
                    x: (c.x + 1) % mesh.width(),
                    y: c.y,
                })
            }
            Pattern::HotSpot => {
                if rng.gen_bool(0.25) {
                    let centre = Coord {
                        x: mesh.width() / 2,
                        y: mesh.height() / 2,
                    };
                    mesh.node(centre)
                } else {
                    let mut d = rng.gen_range(0..n - 1) as u16;
                    if d >= src.0 {
                        d += 1;
                    }
                    NodeId(d)
                }
            }
        };
        if dst == src {
            None
        } else {
            Some(dst)
        }
    }
}

fn index_bits(n: usize) -> u16 {
    assert!(n.is_power_of_two(), "bit patterns need power-of-two nodes");
    n.trailing_zeros() as u16
}

impl std::fmt::Display for Pattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mesh8() -> Mesh {
        Mesh::new(8, 8)
    }

    #[test]
    fn uniform_never_self_and_covers_mesh() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = mesh8();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..2000 {
            let d = Pattern::UniformRandom.dest(m, NodeId(5), &mut rng).unwrap();
            assert_ne!(d, NodeId(5));
            seen.insert(d.0);
        }
        assert_eq!(seen.len(), 63, "all other nodes should be reachable");
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let m = mesh8();
        let mut rng = StdRng::seed_from_u64(0);
        // (1, 2) = node 17 -> (2, 1) = node 10.
        assert_eq!(
            Pattern::Transpose.dest(m, NodeId(17), &mut rng),
            Some(NodeId(10))
        );
        // Diagonal stays silent.
        assert_eq!(Pattern::Transpose.dest(m, NodeId(9), &mut rng), None);
    }

    #[test]
    fn bit_complement_pairs_opposite_corners() {
        let m = mesh8();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            Pattern::BitComplement.dest(m, NodeId(0), &mut rng),
            Some(NodeId(63))
        );
        assert_eq!(
            Pattern::BitComplement.dest(m, NodeId(21), &mut rng),
            Some(NodeId(42))
        );
    }

    #[test]
    fn bit_reverse_is_an_involution() {
        let m = mesh8();
        let mut rng = StdRng::seed_from_u64(0);
        for s in 0..64u16 {
            if let Some(d) = Pattern::BitReverse.dest(m, NodeId(s), &mut rng) {
                assert_eq!(
                    Pattern::BitReverse.dest(m, d, &mut rng),
                    Some(NodeId(s)),
                    "bit-reverse must pair nodes"
                );
            }
        }
    }

    #[test]
    fn shuffle_rotates_bits() {
        let m = mesh8();
        let mut rng = StdRng::seed_from_u64(0);
        // 0b000101 (5) -> 0b001010 (10)
        assert_eq!(
            Pattern::Shuffle.dest(m, NodeId(5), &mut rng),
            Some(NodeId(10))
        );
        // 0b100000 (32) -> 0b000001 (1)
        assert_eq!(
            Pattern::Shuffle.dest(m, NodeId(32), &mut rng),
            Some(NodeId(1))
        );
    }

    #[test]
    fn tornado_offsets_within_row() {
        let m = mesh8();
        let mut rng = StdRng::seed_from_u64(0);
        // offset = ceil(8/2) - 1 = 3: (0,0) -> (3,0).
        assert_eq!(
            Pattern::Tornado.dest(m, NodeId(0), &mut rng),
            Some(NodeId(3))
        );
        // wraps: (6,1) -> (1,1) = node 9.
        assert_eq!(
            Pattern::Tornado.dest(m, NodeId(14), &mut rng),
            Some(NodeId(9))
        );
    }

    #[test]
    fn neighbor_is_one_hop_in_row() {
        let m = mesh8();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            Pattern::Neighbor.dest(m, NodeId(0), &mut rng),
            Some(NodeId(1))
        );
        assert_eq!(
            Pattern::Neighbor.dest(m, NodeId(7), &mut rng),
            Some(NodeId(0))
        );
    }

    #[test]
    fn hotspot_concentrates_on_centre() {
        let m = mesh8();
        let mut rng = StdRng::seed_from_u64(7);
        let centre = m.node(Coord { x: 4, y: 4 });
        let mut hits = 0;
        let trials = 4000;
        for _ in 0..trials {
            if Pattern::HotSpot.dest(m, NodeId(0), &mut rng) == Some(centre) {
                hits += 1;
            }
        }
        let frac = hits as f64 / trials as f64;
        assert!(frac > 0.2 && frac < 0.3, "hotspot fraction {frac}");
    }

    #[test]
    fn all_destinations_are_valid_nodes() {
        let m = mesh8();
        let mut rng = StdRng::seed_from_u64(3);
        for p in Pattern::ALL {
            for s in 0..64u16 {
                if let Some(d) = p.dest(m, NodeId(s), &mut rng) {
                    assert!(d.index() < m.nodes(), "{p} produced invalid node");
                    assert_ne!(d, NodeId(s), "{p} produced self-traffic");
                }
            }
        }
    }
}
