//! Mesh topology: nodes, coordinates, ports, and link wiring.
//!
//! The paper evaluates an 8x8 mesh of five-port routers (Table 1). Ports
//! are numbered Local, North, East, South, West; the same numbering is
//! used for input and output ports. Output port `P` of a node connects to
//! input port `opposite(P)` of the neighbouring node in direction `P`.

use std::fmt;

use nox_core::PortId;

/// Identifier of a mesh node, `y * width + x`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Returns the node index as a `usize` for array indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Grid coordinates of a node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column, `0..width`.
    pub x: u8,
    /// Row, `0..height`.
    pub y: u8,
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// The five router ports of a mesh router.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Port {
    /// Injection/ejection port to the local tile.
    Local,
    /// Toward decreasing `y`.
    North,
    /// Toward increasing `x`.
    East,
    /// Toward increasing `y`.
    South,
    /// Toward decreasing `x`.
    West,
}

/// Number of ports on a mesh router.
pub const PORTS: u8 = 5;

/// The most ports any router has: the radix of `cmesh(4,4,4)`, four
/// directions plus four cores, and so the largest [`Topology::ports`]
/// returns. A router's per-port state is arrays of this length.
pub const MAX_PORTS: usize = 8;

impl Port {
    /// All ports, in index order.
    pub const ALL: [Port; PORTS as usize] = [
        Port::Local,
        Port::North,
        Port::East,
        Port::South,
        Port::West,
    ];

    /// The dense index used for arrays and [`PortId`]s.
    pub fn id(self) -> PortId {
        PortId(match self {
            Port::Local => 0,
            Port::North => 1,
            Port::East => 2,
            Port::South => 3,
            Port::West => 4,
        })
    }

    /// Inverse of [`Port::id`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in `0..5`.
    pub fn from_id(id: PortId) -> Port {
        Port::ALL[id.index()]
    }

    /// The port a link from this direction arrives on at the neighbour.
    pub fn opposite(self) -> Port {
        match self {
            Port::Local => Port::Local,
            Port::North => Port::South,
            Port::East => Port::West,
            Port::South => Port::North,
            Port::West => Port::East,
        }
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Port::Local => "L",
            Port::North => "N",
            Port::East => "E",
            Port::South => "S",
            Port::West => "W",
        };
        f.write_str(s)
    }
}

/// A `width x height` mesh.
///
/// # Example
///
/// ```
/// use nox_sim::topology::{Mesh, NodeId, Port};
///
/// let mesh = Mesh::new(8, 8);
/// assert_eq!(mesh.nodes(), 64);
/// let c = mesh.coord(NodeId(9));
/// assert_eq!((c.x, c.y), (1, 1));
/// assert_eq!(mesh.neighbor(NodeId(9), Port::East), Some(NodeId(10)));
/// assert_eq!(mesh.neighbor(NodeId(7), Port::East), None); // mesh edge
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Mesh {
    width: u8,
    height: u8,
}

impl Mesh {
    /// Creates a mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u8, height: u8) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be non-zero");
        Mesh { width, height }
    }

    /// Mesh width (columns).
    pub fn width(self) -> u8 {
        self.width
    }

    /// Mesh height (rows).
    pub fn height(self) -> u8 {
        self.height
    }

    /// Total number of nodes.
    pub fn nodes(self) -> usize {
        self.width as usize * self.height as usize
    }

    /// The coordinates of a node.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn coord(self, n: NodeId) -> Coord {
        assert!(n.index() < self.nodes(), "node {n} outside mesh");
        Coord {
            x: (n.0 % self.width as u16) as u8,
            y: (n.0 / self.width as u16) as u8,
        }
    }

    /// The node at given coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the mesh.
    pub fn node(self, c: Coord) -> NodeId {
        assert!(c.x < self.width && c.y < self.height, "{c} outside mesh");
        NodeId(c.y as u16 * self.width as u16 + c.x as u16)
    }

    /// The neighbour of `n` in direction `dir`, or `None` at a mesh edge
    /// (or for [`Port::Local`]).
    pub fn neighbor(self, n: NodeId, dir: Port) -> Option<NodeId> {
        let c = self.coord(n);
        let (x, y) = match dir {
            Port::Local => return None,
            Port::North => (c.x as i16, c.y as i16 - 1),
            Port::East => (c.x as i16 + 1, c.y as i16),
            Port::South => (c.x as i16, c.y as i16 + 1),
            Port::West => (c.x as i16 - 1, c.y as i16),
        };
        if x < 0 || y < 0 || x >= self.width as i16 || y >= self.height as i16 {
            None
        } else {
            Some(self.node(Coord {
                x: x as u8,
                y: y as u8,
            }))
        }
    }

    /// Iterates over all node ids.
    pub fn iter(self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes() as u16).map(NodeId)
    }

    /// Manhattan hop distance between two nodes.
    pub fn hops(self, a: NodeId, b: NodeId) -> u32 {
        let (ca, cb) = (self.coord(a), self.coord(b));
        (ca.x.abs_diff(cb.x) + ca.y.abs_diff(cb.y)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_node_roundtrip() {
        let m = Mesh::new(8, 8);
        for n in m.iter() {
            assert_eq!(m.node(m.coord(n)), n);
        }
    }

    #[test]
    fn neighbors_are_symmetric() {
        let m = Mesh::new(5, 3);
        for n in m.iter() {
            for dir in [Port::North, Port::East, Port::South, Port::West] {
                if let Some(nb) = m.neighbor(n, dir) {
                    assert_eq!(m.neighbor(nb, dir.opposite()), Some(n));
                }
            }
        }
    }

    #[test]
    fn edges_have_no_neighbors() {
        let m = Mesh::new(4, 4);
        assert_eq!(m.neighbor(NodeId(0), Port::North), None);
        assert_eq!(m.neighbor(NodeId(0), Port::West), None);
        assert_eq!(m.neighbor(NodeId(15), Port::South), None);
        assert_eq!(m.neighbor(NodeId(15), Port::East), None);
    }

    #[test]
    fn local_has_no_neighbor() {
        let m = Mesh::new(2, 2);
        assert_eq!(m.neighbor(NodeId(0), Port::Local), None);
    }

    #[test]
    fn port_id_roundtrip() {
        for p in Port::ALL {
            assert_eq!(Port::from_id(p.id()), p);
        }
    }

    #[test]
    fn opposite_is_involution() {
        for p in Port::ALL {
            assert_eq!(p.opposite().opposite(), p);
        }
    }

    #[test]
    fn hop_distance() {
        let m = Mesh::new(8, 8);
        assert_eq!(m.hops(NodeId(0), NodeId(63)), 14);
        assert_eq!(m.hops(NodeId(10), NodeId(10)), 0);
        assert_eq!(m.hops(NodeId(0), NodeId(1)), 1);
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn out_of_range_node_rejected() {
        let m = Mesh::new(2, 2);
        let _ = m.coord(NodeId(4));
    }
}

/// The topology family of a network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// One core per router, five router ports (the paper's baseline).
    Mesh,
    /// Concentrated mesh: `concentration` cores share each router, giving
    /// higher-radix routers and longer channels — the paper's future-work
    /// direction (§8).
    CMesh {
        /// Cores per router (2..=4).
        concentration: u8,
    },
    /// Unidirectional-pair ring: `n` five-port routers in a cycle, with the
    /// East/West links wrapping around. Shortest-path routing on this
    /// topology is *not* deadlock-free (the wraparound closes a channel
    /// dependency cycle) — it exists as the concrete unsafe instance for
    /// the `nox-statics` channel-dependency analyzer and as the seed of the
    /// ROADMAP's torus/ring expansion.
    Ring,
}

/// A router-grid topology with per-core endpoints.
///
/// Routers form a `width x height` grid; each router serves
/// [`n_locals`](Topology::n_locals) cores on dedicated local ports (ports
/// `0..n_locals`) and four direction ports after them (N, E, S, W). For
/// [`TopologyKind::Mesh`] this reduces exactly to the paper's five-port
/// router; for a concentrated mesh the router radix grows and inter-tile
/// channels lengthen by `sqrt(concentration)` (same die, fewer routers).
///
/// Core `c` attaches to router `c / n_locals` on local port `c % n_locals`.
///
/// # Example
///
/// ```
/// use nox_sim::topology::{Topology, NodeId};
///
/// // 64 cores either way:
/// let mesh = Topology::mesh(8, 8);
/// assert_eq!((mesh.routers(), mesh.cores(), mesh.ports()), (64, 64, 5));
///
/// let cmesh = Topology::cmesh(4, 4, 4);
/// assert_eq!((cmesh.routers(), cmesh.cores(), cmesh.ports()), (16, 64, 8));
/// assert_eq!(cmesh.router_of(NodeId(63)), NodeId(15));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Topology {
    kind: TopologyKind,
    grid: Mesh,
}

impl Topology {
    /// The paper's topology: one core per five-port router.
    pub fn mesh(width: u8, height: u8) -> Self {
        Topology {
            kind: TopologyKind::Mesh,
            grid: Mesh::new(width, height),
        }
    }

    /// A concentrated mesh with `concentration` cores per router.
    ///
    /// # Panics
    ///
    /// Panics if `concentration` is not in `2..=4` (use
    /// [`Topology::mesh`] for 1): with the four directions, four cores
    /// make a router of [`MAX_PORTS`] ports.
    pub fn cmesh(width: u8, height: u8, concentration: u8) -> Self {
        let most = MAX_PORTS - 4;
        assert!(
            (2..=most).contains(&usize::from(concentration)),
            "concentration must be 2..={most}, got {concentration}: \
             a router has at most {MAX_PORTS} ports"
        );
        Topology {
            kind: TopologyKind::CMesh { concentration },
            grid: Mesh::new(width, height),
        }
    }

    /// A ring of `n` five-port routers, one core each, with wraparound
    /// East/West links (the North/South ports stay unwired).
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`: a 2-ring would wire two parallel links between
    /// the same router pair, which the port-indexed link model cannot
    /// represent.
    pub fn ring(n: u8) -> Self {
        assert!(n >= 3, "ring needs at least 3 routers, got {n}");
        Topology {
            kind: TopologyKind::Ring,
            grid: Mesh::new(n, 1),
        }
    }

    /// The topology family.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// The underlying router grid.
    pub fn grid(&self) -> Mesh {
        self.grid
    }

    /// Number of routers.
    pub fn routers(&self) -> usize {
        self.grid.nodes()
    }

    /// Cores per router (local ports).
    pub fn n_locals(&self) -> u8 {
        match self.kind {
            TopologyKind::Mesh | TopologyKind::Ring => 1,
            TopologyKind::CMesh { concentration } => concentration,
        }
    }

    /// Number of cores (network endpoints).
    pub fn cores(&self) -> usize {
        self.routers() * self.n_locals() as usize
    }

    /// Router radix: local ports plus the four directions.
    pub fn ports(&self) -> u8 {
        self.n_locals() + 4
    }

    /// `true` if `port` is a local (core-facing) port.
    pub fn is_local(&self, port: PortId) -> bool {
        port.0 < self.n_locals()
    }

    /// The router a core attaches to.
    pub fn router_of(&self, core: NodeId) -> NodeId {
        debug_assert!(core.index() < self.cores(), "core {core} out of range");
        NodeId(core.0 / self.n_locals() as u16)
    }

    /// The local port a core attaches to.
    pub fn local_port(&self, core: NodeId) -> PortId {
        PortId((core.0 % self.n_locals() as u16) as u8)
    }

    /// The core attached to a router's local port.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not a local port.
    pub fn core_at(&self, router: NodeId, port: PortId) -> NodeId {
        assert!(self.is_local(port), "{port} is not a local port");
        NodeId(router.0 * self.n_locals() as u16 + port.0 as u16)
    }

    /// The port index of a mesh direction.
    pub fn direction_port(&self, dir: Port) -> PortId {
        let off = match dir {
            Port::Local => panic!("use local_port for core-facing ports"),
            Port::North => 0,
            Port::East => 1,
            Port::South => 2,
            Port::West => 3,
        };
        PortId(self.n_locals() + off)
    }

    /// The direction of a non-local port.
    ///
    /// # Panics
    ///
    /// Panics if `port` is a local port or out of range.
    pub fn port_direction(&self, port: PortId) -> Port {
        assert!(!self.is_local(port), "{port} is a local port");
        match port.0 - self.n_locals() {
            0 => Port::North,
            1 => Port::East,
            2 => Port::South,
            3 => Port::West,
            _ => panic!("{port} out of range"),
        }
    }

    /// The neighbouring router in direction `dir`, or `None` where no link
    /// exists. Unlike [`Mesh::neighbor`] this is wraparound-aware: on a
    /// ring, East from the last router lands on router 0.
    pub fn neighbor(&self, router: NodeId, dir: Port) -> Option<NodeId> {
        match self.kind {
            TopologyKind::Ring => {
                let n = self.grid.width() as u16;
                debug_assert!(router.0 < n, "router {router} outside ring");
                match dir {
                    Port::East => Some(NodeId((router.0 + 1) % n)),
                    Port::West => Some(NodeId((router.0 + n - 1) % n)),
                    _ => None,
                }
            }
            TopologyKind::Mesh | TopologyKind::CMesh { .. } => self.grid.neighbor(router, dir),
        }
    }

    /// Where a router output port's link lands: `(router, input port)` of
    /// the neighbour, or `None` for local ports and unwired directions.
    pub fn link_dest(&self, router: NodeId, out: PortId) -> Option<(NodeId, PortId)> {
        if self.is_local(out) {
            return None;
        }
        let dir = self.port_direction(out);
        let nb = self.neighbor(router, dir)?;
        Some((nb, self.direction_port(dir.opposite())))
    }

    /// The deterministic route: the output port a flit at `router` takes
    /// toward `dest_core`. XY dimension order on grids, shortest path
    /// (ties broken East) on rings.
    pub fn route(&self, router: NodeId, dest_core: NodeId) -> PortId {
        let dest_router = self.router_of(dest_core);
        if dest_router == router {
            return self.local_port(dest_core);
        }
        let dir = match self.kind {
            TopologyKind::Ring => {
                crate::routing::route_ring(self.grid.width(), router, dest_router)
            }
            TopologyKind::Mesh | TopologyKind::CMesh { .. } => {
                crate::routing::route_xy(self.grid, router, dest_router)
            }
        };
        self.direction_port(dir)
    }

    /// Inter-router channel length in millimetres: the paper's 2 mm tiles,
    /// scaled by `sqrt(concentration)` for concentrated meshes (same die
    /// area, fewer and farther routers).
    pub fn channel_mm(&self) -> f64 {
        2.0 * (self.n_locals() as f64).sqrt()
    }

    /// Hop distance between two *routers* along the routing function's
    /// path: Manhattan on grids, shortest way around on rings.
    pub fn router_hops(&self, a: NodeId, b: NodeId) -> u32 {
        match self.kind {
            TopologyKind::Ring => {
                let n = self.grid.width() as u16;
                let east = (b.0 + n - a.0) % n;
                east.min(n - east) as u32
            }
            TopologyKind::Mesh | TopologyKind::CMesh { .. } => self.grid.hops(a, b),
        }
    }

    /// Router-to-router hop distance between two cores' routers.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        self.router_hops(self.router_of(a), self.router_of(b))
    }
}

/// The link wiring of a [`Topology`], tabulated once per network.
///
/// Every entry is computed by calling [`Topology::link_dest`], which stays
/// the definition of the wiring (and what `nox-statics` analyses); the
/// table only saves the per-word coordinate arithmetic behind it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Wiring {
    ports: usize,
    /// `(router, output port)` to the `(router, input port)` its link
    /// lands on.
    dest: Vec<Option<(NodeId, PortId)>>,
    /// `(router, input port)` to the `(router, output port)` feeding it:
    /// the inverse of `dest`, i.e. who owns a freed slot's credit.
    source: Vec<Option<(NodeId, PortId)>>,
    /// Core to the `(router, local port)` it attaches to.
    attach: Vec<(NodeId, PortId)>,
}

impl Wiring {
    /// Tabulates `topo`'s links.
    pub fn new(topo: &Topology) -> Self {
        let ports = topo.ports() as usize;
        let mut w = Wiring {
            ports,
            dest: vec![None; topo.routers() * ports],
            source: vec![None; topo.routers() * ports],
            attach: (0..topo.cores() as u16)
                .map(|core| (topo.router_of(NodeId(core)), topo.local_port(NodeId(core))))
                .collect(),
        };
        for router in topo.grid().iter() {
            for out in (0..topo.ports()).map(PortId) {
                let Some((nb, inp)) = topo.link_dest(router, out) else {
                    continue;
                };
                let (from, to) = (w.slot(router, out), w.slot(nb, inp));
                w.dest[from] = Some((nb, inp));
                let fed = w.source[to].replace((router, out));
                assert!(fed.is_none(), "two links land on {nb} port {inp}");
            }
        }
        w
    }

    fn slot(&self, router: NodeId, port: PortId) -> usize {
        router.index() * self.ports + port.index()
    }

    /// [`Topology::link_dest`], from the table.
    pub fn link_dest(&self, router: NodeId, out: PortId) -> Option<(NodeId, PortId)> {
        self.dest[self.slot(router, out)]
    }

    /// The `(router, local port)` a core attaches to:
    /// [`Topology::router_of`] and [`Topology::local_port`], from the table.
    pub fn attach(&self, core: NodeId) -> (NodeId, PortId) {
        self.attach[core.index()]
    }

    /// The `(router, output port)` whose link lands on `input` of
    /// `router`, or `None` for local ports and unwired directions.
    pub fn link_source(&self, router: NodeId, input: PortId) -> Option<(NodeId, PortId)> {
        self.source[self.slot(router, input)]
    }
}

#[cfg(test)]
mod topology_tests {
    use super::*;

    #[test]
    fn mesh_topology_matches_legacy_layout() {
        let t = Topology::mesh(8, 8);
        assert_eq!(t.ports(), PORTS);
        assert_eq!(t.n_locals(), 1);
        assert!(t.is_local(PortId(0)));
        assert_eq!(t.direction_port(Port::North), Port::North.id());
        assert_eq!(t.direction_port(Port::West), Port::West.id());
        assert_eq!(t.router_of(NodeId(17)), NodeId(17));
        assert_eq!(t.local_port(NodeId(17)), PortId(0));
    }

    #[test]
    fn cmesh_core_router_mapping_roundtrips() {
        let t = Topology::cmesh(4, 4, 4);
        for core in 0..t.cores() as u16 {
            let r = t.router_of(NodeId(core));
            let p = t.local_port(NodeId(core));
            assert_eq!(t.core_at(r, p), NodeId(core));
        }
    }

    #[test]
    fn cmesh_link_wiring_is_symmetric() {
        let t = Topology::cmesh(4, 4, 2);
        for r in t.grid().iter() {
            for port in 0..t.ports() {
                if let Some((nb, inp)) = t.link_dest(r, PortId(port)) {
                    // The neighbour's opposite output lands back here.
                    let dir_back = t.port_direction(inp);
                    let (back, back_in) = t.link_dest(nb, t.direction_port(dir_back)).unwrap();
                    assert_eq!(back, r);
                    assert_eq!(back_in, PortId(port));
                }
            }
        }
    }

    #[test]
    fn route_to_local_core_uses_its_port() {
        let t = Topology::cmesh(4, 4, 4);
        // Core 7 lives at router 1, local port 3.
        assert_eq!(t.route(NodeId(1), NodeId(7)), PortId(3));
        // From another router it heads toward router 1 first.
        let p = t.route(NodeId(3), NodeId(7));
        assert!(!t.is_local(p));
    }

    #[test]
    fn cmesh_routes_follow_xy() {
        let t = Topology::cmesh(4, 4, 4);
        // Core 0 (router 0) to core 63 (router 15 = (3,3)): East first.
        assert_eq!(t.port_direction(t.route(NodeId(0), NodeId(63))), Port::East);
    }

    #[test]
    fn channel_lengths_scale_with_concentration() {
        assert_eq!(Topology::mesh(8, 8).channel_mm(), 2.0);
        assert_eq!(Topology::cmesh(4, 4, 4).channel_mm(), 4.0);
    }

    #[test]
    fn local_ports_have_no_link() {
        let t = Topology::cmesh(4, 4, 3);
        for p in 0..3 {
            assert!(t.link_dest(NodeId(0), PortId(p)).is_none());
        }
    }

    #[test]
    #[should_panic(expected = "concentration must be")]
    fn oversized_concentration_rejected() {
        let _ = Topology::cmesh(4, 4, 9);
    }

    #[test]
    fn ring_wraps_east_and_west() {
        let t = Topology::ring(8);
        assert_eq!(t.neighbor(NodeId(7), Port::East), Some(NodeId(0)));
        assert_eq!(t.neighbor(NodeId(0), Port::West), Some(NodeId(7)));
        assert_eq!(t.neighbor(NodeId(3), Port::North), None);
        assert_eq!(t.neighbor(NodeId(3), Port::South), None);
    }

    #[test]
    fn ring_link_wiring_is_symmetric() {
        let t = Topology::ring(5);
        for r in t.grid().iter() {
            for port in 0..t.ports() {
                if let Some((nb, inp)) = t.link_dest(r, PortId(port)) {
                    let dir_back = t.port_direction(inp);
                    let (back, back_in) = t.link_dest(nb, t.direction_port(dir_back)).unwrap();
                    assert_eq!(back, r);
                    assert_eq!(back_in, PortId(port));
                }
            }
        }
    }

    #[test]
    fn ring_routes_shortest_way_around() {
        let t = Topology::ring(8);
        // 1 hop East beats 7 hops West.
        assert_eq!(t.port_direction(t.route(NodeId(7), NodeId(0))), Port::East);
        // 2 hops West beats 6 hops East.
        assert_eq!(t.port_direction(t.route(NodeId(1), NodeId(7))), Port::West);
        // Antipodal tie breaks East.
        assert_eq!(t.port_direction(t.route(NodeId(2), NodeId(6))), Port::East);
        assert_eq!(t.router_hops(NodeId(7), NodeId(1)), 2);
        assert_eq!(t.hops(NodeId(2), NodeId(6)), 4);
    }

    #[test]
    fn ring_routes_terminate_at_destination() {
        let t = Topology::ring(7);
        for s in 0..7u16 {
            for d in 0..7u16 {
                let mut cur = NodeId(s);
                let mut steps = 0;
                while cur != NodeId(d) {
                    let out = t.route(cur, NodeId(d));
                    cur = t.link_dest(cur, out).unwrap().0;
                    steps += 1;
                    assert!(steps <= 7, "route {s}->{d} did not terminate");
                }
                assert_eq!(steps, t.router_hops(NodeId(s), NodeId(d)));
                assert!(t.is_local(t.route(cur, NodeId(d))));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 3 routers")]
    fn tiny_ring_rejected() {
        let _ = Topology::ring(2);
    }
}
