//! PoP-level topology graph and shortest paths.
//!
//! Nodes are the world's PoPs; edges model:
//!
//! 1. **Stub uplinks** — each stub PoP connects to up to 3 transit PoPs in
//!    its own city, falling back to the nearest transit PoP in the same
//!    country, then to the nearest global-transit PoP anywhere. Every stub
//!    has at least one uplink.
//! 2. **Metro peering** — transit PoPs in the same city form a full mesh
//!    (the IX), with small intra-metro distances.
//! 3. **Operator backbone** — each transit PoP connects to its operator's
//!    3 nearest other PoPs and to the operator's HQ PoP.
//! 4. **International uplinks** — each domestic-transit HQ PoP connects to
//!    the 2 nearest global-transit PoPs, guaranteeing every country an exit.
//!
//! Edge weights are great-circle distances between the PoP cities (plus a
//! small intra-metro constant), so Dijkstra yields geographically sensible
//! routes and, through the RTT model, physically consistent delays.

use routergeo_world::{AsId, CityId, OperatorKind, PopId, World};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::collections::HashMap;

/// Distance used for hops within one metro area, km.
const INTRA_METRO_KM: f32 = 5.0;
/// Maximum stub uplinks into the local metro mesh.
const STUB_UPLINKS: usize = 3;
/// Backbone neighbours per transit PoP.
const BACKBONE_NEIGHBOURS: usize = 3;
/// International uplinks per domestic HQ PoP.
const INTL_UPLINKS: usize = 2;

/// The PoP-level topology graph.
pub struct Topology {
    adj: Vec<Vec<(u32, f32)>>,
    edge_count: usize,
}

impl Topology {
    /// Build the graph from a world. Deterministic (no RNG involved).
    pub fn build(world: &World) -> Topology {
        let n = world.pops.len();
        let mut adj: Vec<Vec<(u32, f32)>> = vec![Vec::new(); n];
        let mut edge_count = 0usize;

        // Index transit PoPs by city and collect global transit PoPs.
        let mut transit_by_city: HashMap<CityId, Vec<PopId>> = HashMap::new();
        let mut transit_by_country: HashMap<_, Vec<PopId>> = HashMap::new();
        let mut global_pops: Vec<PopId> = Vec::new();
        let mut by_operator: HashMap<AsId, Vec<PopId>> = HashMap::new();
        for pop in &world.pops {
            let op = world.operator(pop.op);
            match op.kind {
                OperatorKind::GlobalTransit | OperatorKind::DomesticTransit => {
                    transit_by_city.entry(pop.city).or_default().push(pop.id);
                    let country = world.city(pop.city).country;
                    transit_by_country.entry(country).or_default().push(pop.id);
                    by_operator.entry(pop.op).or_default().push(pop.id);
                    if op.kind == OperatorKind::GlobalTransit {
                        global_pops.push(pop.id);
                    }
                }
                OperatorKind::Stub => {}
            }
        }

        let mut add_edge = |adj: &mut Vec<Vec<(u32, f32)>>, a: PopId, b: PopId, km: f32| {
            if a == b {
                return;
            }
            let (ai, bi) = (a.index(), b.index());
            if adj[ai].iter().any(|(n, _)| *n == b.0) {
                return;
            }
            adj[ai].push((b.0, km));
            adj[bi].push((a.0, km));
            edge_count += 1;
        };

        // 2. Metro peering mesh.
        for pops in transit_by_city.values() {
            for (i, a) in pops.iter().enumerate() {
                for b in &pops[i + 1..] {
                    add_edge(&mut adj, *a, *b, INTRA_METRO_KM);
                }
            }
        }

        // 3. Operator backbone.
        for pops in by_operator.values() {
            for a in pops {
                let a_city = world.pop(*a).city;
                let a_coord = world.city(a_city).coord;
                let mut others: Vec<(f32, PopId)> = pops
                    .iter()
                    .filter(|b| **b != *a)
                    .map(|b| {
                        let c = world.city(world.pop(*b).city).coord;
                        (a_coord.distance_km(&c) as f32, *b)
                    })
                    .collect();
                others.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(Ordering::Equal));
                for (km, b) in others.into_iter().take(BACKBONE_NEIGHBOURS) {
                    add_edge(&mut adj, *a, b, km.max(INTRA_METRO_KM));
                }
            }
            // HQ spoke: connect every PoP to the first PoP (the HQ city is
            // always first in the presence list).
            if let Some((hq, rest)) = pops.split_first() {
                let hq_coord = world.city(world.pop(*hq).city).coord;
                for b in rest {
                    let c = world.city(world.pop(*b).city).coord;
                    let km = (hq_coord.distance_km(&c) as f32).max(INTRA_METRO_KM);
                    add_edge(&mut adj, *hq, *b, km);
                }
            }
        }

        // 4. International uplinks for domestic transits' HQ PoPs.
        for pop in &world.pops {
            if world.operator(pop.op).kind != OperatorKind::DomesticTransit {
                continue;
            }
            // Only the operator's first PoP (HQ).
            if by_operator[&pop.op][0] != pop.id {
                continue;
            }
            let coord = world.city(pop.city).coord;
            let mut globals: Vec<(f32, PopId)> = global_pops
                .iter()
                .map(|g| {
                    let c = world.city(world.pop(*g).city).coord;
                    (coord.distance_km(&c) as f32, *g)
                })
                .collect();
            globals.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(Ordering::Equal));
            for (km, g) in globals.into_iter().take(INTL_UPLINKS) {
                add_edge(&mut adj, pop.id, g, km.max(INTRA_METRO_KM));
            }
        }

        // 1. Stub uplinks (after the meshes exist so fallbacks can search).
        for pop in &world.pops {
            if world.operator(pop.op).kind != OperatorKind::Stub {
                continue;
            }
            let city = pop.city;
            let country = world.city(city).country;
            let coord = world.city(city).coord;
            let locals = transit_by_city.get(&city);
            if let Some(locals) = locals.filter(|l| !l.is_empty()) {
                for t in locals.iter().take(STUB_UPLINKS) {
                    add_edge(&mut adj, pop.id, *t, INTRA_METRO_KM);
                }
                continue;
            }
            // Fallback: nearest transit PoP in country, then any global.
            let pool = transit_by_country
                .get(&country)
                .filter(|l| !l.is_empty())
                .unwrap_or(&global_pops);
            if let Some((km, best)) = pool
                .iter()
                .map(|t| {
                    let c = world.city(world.pop(*t).city).coord;
                    (coord.distance_km(&c) as f32, *t)
                })
                .min_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(Ordering::Equal))
            {
                add_edge(&mut adj, pop.id, best, km.max(INTRA_METRO_KM));
            }
        }

        Topology { adj, edge_count }
    }

    /// Number of nodes (== PoPs).
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Neighbours of a PoP.
    pub fn neighbours(&self, pop: PopId) -> &[(u32, f32)] {
        &self.adj[pop.index()]
    }

    /// Shortest paths (Dijkstra) from the nearest of `sources`.
    ///
    /// Every node keeps the smallest (distance, source rank) label, so on
    /// an exact distance tie the source listed first wins. A node's path
    /// leads back to the source that labelled it; with one source this is
    /// the plain shortest-path tree.
    pub fn shortest_paths(&self, sources: &[PopId]) -> PathTree {
        let mut label = vec![pack(f32::INFINITY, u32::MAX); self.adj.len()];
        let mut prev = vec![u32::MAX; self.adj.len()];
        let mut heap = BinaryHeap::new();
        for (rank, src) in (0u32..).zip(sources) {
            let root = pack(0.0, rank);
            if root < label[src.index()] {
                label[src.index()] = root;
                prev[src.index()] = src.0;
                heap.push(Reverse((root, src.0)));
            }
        }
        // Pops in (distance, rank, node) order; an entry is stale once
        // its node holds a smaller label.
        while let Some(Reverse((at, node))) = heap.pop() {
            if at > label[node as usize] {
                continue;
            }
            let (dist, rank) = unpack(at);
            for &(next, w) in &self.adj[node as usize] {
                let via = pack(dist + w, rank);
                if via < label[next as usize] {
                    label[next as usize] = via;
                    prev[next as usize] = node;
                    heap.push(Reverse((via, next)));
                }
            }
        }
        let dist = label.into_iter().map(|l| unpack(l).0).collect();
        PathTree { dist, prev }
    }
}

/// A Dijkstra label packed so that integer order is (distance, rank)
/// order: edge weights are positive, and non-negative `f32`s order like
/// their bit patterns.
fn pack(dist: f32, rank: u32) -> u64 {
    u64::from(dist.to_bits()) << 32 | u64::from(rank)
}

fn unpack(label: u64) -> (f32, u32) {
    (f32::from_bits((label >> 32) as u32), label as u32)
}

/// Shortest-path tree from one or more sources: each reached node's path
/// distance and its predecessor toward its root. A root is its own
/// predecessor.
pub struct PathTree {
    dist: Vec<f32>,
    prev: Vec<u32>,
}

impl PathTree {
    /// Path distance in km to `dst`, `None` if unreachable.
    pub fn distance_km(&self, dst: PopId) -> Option<f32> {
        let d = self.dist[dst.index()];
        d.is_finite().then_some(d)
    }

    /// The path from the root to `dst`, with the cumulative distance of
    /// every node from the root — used by the RTT model. `None` if
    /// unreachable.
    pub fn path_to(&self, dst: PopId) -> Option<Vec<(PopId, f32)>> {
        self.distance_km(dst)?;
        let mut path: Vec<_> = self.walk(dst).map(|p| (p, self.dist[p.index()])).collect();
        path.reverse();
        Some(path)
    }

    /// The path from `dst` back to its root, with cumulative distances
    /// measured from `dst`. The graph is undirected, so this is the
    /// shortest path from `dst` to its nearest source. `None` if
    /// unreachable.
    pub fn path_to_root(&self, dst: PopId) -> Option<Vec<(PopId, f32)>> {
        let total = self.distance_km(dst)?;
        Some(
            self.walk(dst)
                .map(|p| (p, total - self.dist[p.index()]))
                .collect(),
        )
    }

    /// `dst` and its predecessors up to the root.
    fn walk(&self, dst: PopId) -> impl Iterator<Item = PopId> + '_ {
        std::iter::successors(Some(dst), |cur| {
            let p = PopId(self.prev[cur.index()]);
            (p != *cur).then_some(p)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_world::{World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig::tiny(21))
    }

    #[test]
    fn graph_is_fully_connected_from_a_stub() {
        let w = world();
        let topo = Topology::build(&w);
        assert_eq!(topo.node_count(), w.pops.len());
        // From any stub PoP, the vast majority of PoPs must be reachable.
        let stub = w
            .pops
            .iter()
            .find(|p| w.operator(p.op).kind == OperatorKind::Stub)
            .expect("some stub");
        let tree = topo.shortest_paths(&[stub.id]);
        let reachable = (0..w.pops.len())
            .filter(|i| tree.distance_km(PopId(*i as u32)).is_some())
            .count();
        assert_eq!(reachable, w.pops.len(), "world must be connected");
    }

    #[test]
    fn every_stub_has_an_uplink() {
        let w = world();
        let topo = Topology::build(&w);
        for pop in &w.pops {
            if w.operator(pop.op).kind == OperatorKind::Stub {
                assert!(
                    !topo.neighbours(pop.id).is_empty(),
                    "stub PoP {} has no uplink",
                    pop.id
                );
            }
        }
    }

    #[test]
    fn paths_start_at_source_and_end_at_destination() {
        let w = world();
        let topo = Topology::build(&w);
        let src = w.pops[0].id;
        let tree = topo.shortest_paths(&[src]);
        let dst = w.pops[w.pops.len() - 1].id;
        let path = tree.path_to(dst).expect("reachable");
        assert_eq!(path.first().unwrap().0, src);
        assert_eq!(path.last().unwrap().0, dst);
        // Cumulative distances are nondecreasing.
        for pair in path.windows(2) {
            assert!(pair[0].1 <= pair[1].1 + 1e-3);
        }
    }

    #[test]
    fn distances_respect_triangle_vs_direct_geo() {
        // Path distance can never undercut the great-circle distance
        // between the endpoint cities.
        let w = world();
        let topo = Topology::build(&w);
        let src = w.pops[3].id;
        let tree = topo.shortest_paths(&[src]);
        let src_coord = w.city(w.pop(src).city).coord;
        for pop in w.pops.iter().step_by(17) {
            if let Some(d) = tree.distance_km(pop.id) {
                let geo = src_coord.distance_km(&w.city(pop.city).coord) as f32;
                assert!(
                    d + 60.0 >= geo,
                    "path {d} km shorter than geodesic {geo} km"
                );
            }
        }
    }

    #[test]
    fn path_to_self_is_single_node() {
        let w = world();
        let topo = Topology::build(&w);
        let src = w.pops[0].id;
        let tree = topo.shortest_paths(&[src]);
        let path = tree.path_to(src).unwrap();
        assert_eq!(path.len(), 1);
        assert_eq!(tree.distance_km(src), Some(0.0));
    }
}
