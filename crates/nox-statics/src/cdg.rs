//! Channel-dependency-graph extraction and cycle detection.
//!
//! Dally & Seitz: a deterministic wormhole network is deadlock-free iff
//! its channel-dependency graph (CDG) is acyclic. Nodes of the CDG are
//! the directed inter-router channels; there is an edge `c1 -> c2`
//! whenever some route holds `c1` and then requests `c2` at the next
//! router. Ejection (local) ports always drain (sinks consume
//! unconditionally) and injection never holds a network channel, so only
//! router-to-router channels participate.
//!
//! The extraction walks the *actual* routing function of a
//! [`Topology`] — `Topology::route` plus `Topology::link_dest` — over
//! every (source router, destination core) pair, so the graph reflects
//! what the simulator executes, not a re-derivation of it. The per-source
//! walks fan out over a [`nox_exec::Executor`] and merge in submission
//! order, so the result (and everything derived from it) is identical at
//! any thread count.

use std::collections::{BTreeMap, BTreeSet};

use nox_core::PortId;
use nox_exec::Executor;
use nox_sim::topology::{NodeId, Topology};

/// A CDG node: one directed inter-router channel, identified by the
/// upstream router and the output port driving the link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Channel {
    /// The router driving the channel.
    pub router: NodeId,
    /// The output port at that router.
    pub out: PortId,
}

impl Channel {
    /// A stable human-readable label, e.g. `n5.E`.
    pub fn label(&self, topo: &Topology) -> String {
        format!("{}.{}", self.router, topo.port_direction(self.out))
    }
}

/// The channel-dependency graph of one topology × routing function.
#[derive(Clone, Debug)]
pub struct Cdg {
    /// All channels any route uses, sorted.
    pub channels: Vec<Channel>,
    /// Dependency edges `c1 -> c2`, deduplicated and sorted.
    pub edges: BTreeSet<(Channel, Channel)>,
    /// Number of (source router, destination core) routes walked.
    pub routes_walked: usize,
    /// Longest route observed, in channels.
    pub max_route_hops: u32,
}

/// One witness cycle: channels in dependency order; the last depends on
/// the first again.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleWitness {
    /// The channels of the cycle, in order.
    pub channels: Vec<Channel>,
}

/// Walks every route and collects the channel-dependency graph.
///
/// # Panics
///
/// Panics if the routing function uses an unwired port or fails to reach
/// its destination within `2 * routers + 2` hops (a livelock would
/// otherwise loop forever).
pub fn extract(topo: &Topology, exec: &Executor) -> Cdg {
    let routers = topo.routers();
    let hop_cap = 2 * routers as u32 + 2;
    let per_src = exec.map_stage("statics.cdg", 0..routers, |_, src| {
        let src = NodeId(src as u16);
        let mut channels: Vec<Channel> = Vec::new();
        let mut edges: Vec<(Channel, Channel)> = Vec::new();
        let mut walked = 0usize;
        let mut max_hops = 0u32;
        for dest in 0..topo.cores() as u16 {
            let dest = NodeId(dest);
            let mut cur = src;
            let mut prev: Option<Channel> = None;
            let mut hops = 0u32;
            loop {
                let out = topo.route(cur, dest);
                if topo.is_local(out) {
                    break;
                }
                let ch = Channel { router: cur, out };
                channels.push(ch);
                if let Some(p) = prev {
                    edges.push((p, ch));
                }
                let (next, _) = topo
                    .link_dest(cur, out)
                    .expect("routing function chose an unwired port");
                prev = Some(ch);
                cur = next;
                hops += 1;
                assert!(
                    hops <= hop_cap,
                    "route {src}->{dest} exceeded {hop_cap} hops: routing does not terminate"
                );
            }
            walked += 1;
            max_hops = max_hops.max(hops);
        }
        (channels, edges, walked, max_hops)
    });

    let mut channels: BTreeSet<Channel> = BTreeSet::new();
    let mut edges: BTreeSet<(Channel, Channel)> = BTreeSet::new();
    let mut routes_walked = 0;
    let mut max_route_hops = 0;
    for (cs, es, walked, hops) in per_src {
        channels.extend(cs);
        edges.extend(es);
        routes_walked += walked;
        max_route_hops = max_route_hops.max(hops);
    }
    Cdg {
        channels: channels.into_iter().collect(),
        edges,
        routes_walked,
        max_route_hops,
    }
}

impl Cdg {
    /// Adjacency lists over channel indices, sorted both ways.
    fn adjacency(&self) -> Vec<Vec<usize>> {
        let index: BTreeMap<Channel, usize> = self
            .channels
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i))
            .collect();
        let mut adj = vec![Vec::new(); self.channels.len()];
        for &(a, b) in &self.edges {
            adj[index[&a]].push(index[&b]);
        }
        adj
    }

    /// The strongly connected components that contain a cycle (size > 1,
    /// or a self-loop), each as a sorted list of channel indices, ordered
    /// by smallest member. Empty iff the graph is acyclic.
    pub fn cyclic_sccs(&self) -> Vec<Vec<usize>> {
        let adj = self.adjacency();
        let sccs = tarjan(&adj);
        let self_loops: BTreeSet<usize> = self
            .edges
            .iter()
            .filter(|(a, b)| a == b)
            .map(|(a, _)| self.channels.binary_search(a).unwrap())
            .collect();
        let mut cyclic: Vec<Vec<usize>> = sccs
            .into_iter()
            .map(|mut scc| {
                scc.sort_unstable();
                scc
            })
            .filter(|scc| scc.len() > 1 || self_loops.contains(&scc[0]))
            .collect();
        cyclic.sort();
        cyclic
    }

    /// One concrete witness cycle per cyclic SCC: the shortest dependency
    /// cycle through the SCC's smallest channel, found by BFS restricted
    /// to the SCC. Deterministic: ties resolve toward smaller indices.
    pub fn witnesses(&self) -> Vec<CycleWitness> {
        let adj = self.adjacency();
        self.cyclic_sccs()
            .into_iter()
            .map(|scc| {
                let inside: BTreeSet<usize> = scc.iter().copied().collect();
                let start = scc[0];
                // BFS from start back to start within the SCC.
                let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
                let mut queue = std::collections::VecDeque::from([start]);
                let mut closed_from = None;
                'bfs: while let Some(v) = queue.pop_front() {
                    for &w in &adj[v] {
                        if !inside.contains(&w) {
                            continue;
                        }
                        if w == start {
                            closed_from = Some(v);
                            break 'bfs;
                        }
                        if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(w) {
                            e.insert(v);
                            queue.push_back(w);
                        }
                    }
                }
                let mut rev = vec![closed_from.expect("cyclic SCC must close a cycle")];
                while *rev.last().unwrap() != start {
                    rev.push(parent[rev.last().unwrap()]);
                }
                rev.reverse();
                CycleWitness {
                    channels: rev.into_iter().map(|i| self.channels[i]).collect(),
                }
            })
            .collect()
    }

    /// `true` iff the CDG has no cycle — the Dally-Seitz deadlock-freedom
    /// condition for deterministic wormhole routing.
    pub fn deadlock_free(&self) -> bool {
        self.cyclic_sccs().is_empty()
    }

    /// Checks that a witness is a genuine dependency cycle of this graph:
    /// every consecutive pair (and last -> first) is an edge, and
    /// consecutive channels are physically connected by a link.
    pub fn validate_witness(&self, topo: &Topology, w: &CycleWitness) -> Result<(), String> {
        if w.channels.is_empty() {
            return Err("empty witness".into());
        }
        for (i, &c) in w.channels.iter().enumerate() {
            let n = w.channels[(i + 1) % w.channels.len()];
            if !self.edges.contains(&(c, n)) {
                return Err(format!(
                    "witness step {} -> {} is not a CDG edge",
                    c.label(topo),
                    n.label(topo)
                ));
            }
            let (down, _) = topo
                .link_dest(c.router, c.out)
                .ok_or_else(|| format!("witness channel {} is unwired", c.label(topo)))?;
            if down != n.router {
                return Err(format!(
                    "witness channels {} and {} are not physically adjacent",
                    c.label(topo),
                    n.label(topo)
                ));
            }
        }
        Ok(())
    }
}

/// Iterative Tarjan SCC over adjacency lists; returns components in
/// a deterministic order (reverse topological, as Tarjan emits them).
fn tarjan(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSET: usize = usize::MAX;
    let n = adj.len();
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS frames: (vertex, next child position).
    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(*child) {
                *child += 1;
                if index[w] == UNSET {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("Tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
                frames.pop();
                if let Some(&mut (p, _)) = frames.last_mut() {
                    low[p] = low[p].min(low[v]);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq() -> Executor {
        Executor::sequential()
    }

    #[test]
    fn xy_mesh_cdg_is_acyclic_at_many_sizes() {
        for (w, h) in [(2u8, 2u8), (3, 3), (4, 4), (8, 8), (5, 3)] {
            let topo = Topology::mesh(w, h);
            let cdg = extract(&topo, &seq());
            assert!(cdg.deadlock_free(), "{w}x{h} mesh must be deadlock-free");
            assert!(cdg.witnesses().is_empty());
        }
    }

    #[test]
    fn cmesh_cdg_is_acyclic() {
        let topo = Topology::cmesh(4, 4, 4);
        let cdg = extract(&topo, &seq());
        assert!(cdg.deadlock_free());
    }

    #[test]
    fn mesh_channel_and_edge_counts_match_closed_form() {
        // An 8x8 XY mesh uses every directed inter-router link:
        // 2 * (2 * 8 * 7) = 224 channels. Edges: straight-through X
        // (6 per row-direction), straight-through Y, and one E/W -> N/S
        // turn per (intermediate column, direction) — all deduplicated.
        let topo = Topology::mesh(8, 8);
        let cdg = extract(&topo, &seq());
        assert_eq!(cdg.channels.len(), 224);
        assert_eq!(cdg.routes_walked, 64 * 64);
        assert_eq!(cdg.max_route_hops, 14);
        // Every edge respects XY order: never N/S -> E/W.
        use nox_sim::topology::Port;
        for &(a, b) in &cdg.edges {
            let (da, db) = (topo.port_direction(a.out), topo.port_direction(b.out));
            let ya = matches!(da, Port::North | Port::South);
            let xb = matches!(db, Port::East | Port::West);
            assert!(!(ya && xb), "XY violated: {} -> {}", da, db);
        }
    }

    #[test]
    fn ring_cdg_has_witness_cycles() {
        let topo = Topology::ring(8);
        let cdg = extract(&topo, &seq());
        assert!(!cdg.deadlock_free(), "unrestricted ring must be unsafe");
        let ws = cdg.witnesses();
        assert!(!ws.is_empty());
        for w in &ws {
            cdg.validate_witness(&topo, w).unwrap();
        }
        // The East cycle wraps the whole ring: 8 channels.
        assert!(ws.iter().any(|w| w.channels.len() == 8));
    }

    #[test]
    fn ring_witness_is_deterministic() {
        let topo = Topology::ring(6);
        let a = extract(&topo, &seq()).witnesses();
        let b = extract(&topo, &Executor::new(4)).witnesses();
        assert_eq!(a, b);
    }

    #[test]
    fn three_ring_is_trivially_safe_but_four_ring_is_not() {
        // n=3: every shortest path is a single hop, so no route ever
        // holds one channel while requesting another — no CDG edges, no
        // deadlock. The analyzer gets this subtlety right for free
        // because it walks real routes instead of pattern-matching on
        // "has a wraparound link".
        let cdg3 = extract(&Topology::ring(3), &seq());
        assert!(cdg3.edges.is_empty());
        assert!(cdg3.deadlock_free());
        // n=4: two-hop East routes (antipodal ties break East) chain the
        // East channels into a full cycle.
        let cdg4 = extract(&Topology::ring(4), &seq());
        assert!(!cdg4.deadlock_free());
    }

    #[test]
    fn tarjan_handles_known_graph() {
        // 0->1->2->0 cycle plus a tail 2->3.
        let adj = vec![vec![1], vec![2], vec![0, 3], vec![]];
        let sccs = tarjan(&adj);
        let mut sizes: Vec<usize> = sccs.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 3]);
    }
}
