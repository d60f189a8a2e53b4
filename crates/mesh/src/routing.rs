//! Deterministic dimension-ordered routing (X-Y and Y-X).
//!
//! [`RouteIter`] computes the nodes a packet traverses one step at a time
//! from coordinates alone, without allocating. [`RouteTable`] keeps every
//! `(src, dst)` pair's X-Y and Y-X routes as dense link slots and applies the
//! cluster-containment selection rule to each pair once per cluster map: the
//! simulator charges every packet from it, so charging performs **zero heap
//! allocations** and no route stepping. Each choice is stamped with the
//! epoch of the map it was made under, so a new map forgets every choice in
//! O(1). [`Route`] (an ordered `Vec` of nodes) is kept as a test/debug
//! convenience and is itself built by collecting a [`RouteIter`].

use crate::cluster::{ClusterId, ClusterMap};
use crate::topology::{Coord, MeshTopology, NodeId, NodeSet};

/// The deterministic routing function used for a packet.
///
/// The paper's prototype uses X-Y routing by default; IRONHIDE additionally
/// requires Y-X routing ("bidirectional routing") so that clusters whose
/// boundary cuts through a mesh row can still contain their own traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingAlgorithm {
    /// Route fully along the X dimension first, then along Y.
    #[default]
    XY,
    /// Route fully along the Y dimension first, then along X.
    YX,
}

/// A lazily-stepped deterministic route: an iterator over the nodes a packet
/// traverses (source first, destination last), computed on the fly from
/// coordinates without allocating.
///
/// The struct is `Copy`; auditing a route and then traversing it costs two
/// passes over the same value, never a collection. [`RouteIter::links`]
/// adapts the node stream into the `(from, to)` link stream the latency
/// model consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteIter {
    topology: MeshTopology,
    src: Coord,
    cur: Coord,
    dst: Coord,
    algorithm: RoutingAlgorithm,
    started: bool,
}

impl RouteIter {
    /// Source node.
    pub fn source(&self) -> NodeId {
        self.topology.node_at(self.src)
    }

    /// Destination node.
    pub fn destination(&self) -> NodeId {
        self.topology.node_at(self.dst)
    }

    /// The routing function stepping this route.
    pub fn algorithm(&self) -> RoutingAlgorithm {
        self.algorithm
    }

    /// Number of links left to traverse. For a freshly created iterator this
    /// is the route's total hop count (the Manhattan distance; 0 for a route
    /// from a node to itself).
    pub fn hops(&self) -> usize {
        self.cur.manhattan(self.dst)
    }

    /// Adapts the node stream into the `(from, to)` links of the route, in
    /// traversal order.
    pub fn links(self) -> RouteLinks {
        RouteLinks { inner: self, prev: None }
    }

    /// Collects the route into a materialised [`Route`] (test/debug
    /// convenience; the hot path iterates instead).
    pub fn materialize(self) -> Route {
        let algorithm = self.algorithm;
        let mut nodes = Vec::with_capacity(self.len());
        nodes.extend(self);
        Route { nodes, algorithm }
    }
}

impl Iterator for RouteIter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if !self.started {
            self.started = true;
            return Some(self.topology.node_at(self.cur));
        }
        if self.cur == self.dst {
            return None;
        }
        match self.algorithm {
            RoutingAlgorithm::XY => {
                if self.cur.x != self.dst.x {
                    self.cur.x = step_toward(self.cur.x, self.dst.x);
                } else {
                    self.cur.y = step_toward(self.cur.y, self.dst.y);
                }
            }
            RoutingAlgorithm::YX => {
                if self.cur.y != self.dst.y {
                    self.cur.y = step_toward(self.cur.y, self.dst.y);
                } else {
                    self.cur.x = step_toward(self.cur.x, self.dst.x);
                }
            }
        }
        Some(self.topology.node_at(self.cur))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.hops() + usize::from(!self.started);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for RouteIter {}

fn step_toward(v: usize, target: usize) -> usize {
    if v < target {
        v + 1
    } else {
        v - 1
    }
}

/// Iterator over the `(from, to)` links of a route, in traversal order.
/// Produced by [`RouteIter::links`]; allocation-free like its parent.
#[derive(Debug, Clone, Copy)]
pub struct RouteLinks {
    inner: RouteIter,
    prev: Option<NodeId>,
}

impl Iterator for RouteLinks {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        loop {
            let node = self.inner.next()?;
            match self.prev.replace(node) {
                Some(prev) => return Some((prev, node)),
                None => continue,
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.inner.hops();
        (n, Some(n))
    }
}

impl ExactSizeIterator for RouteLinks {}

/// A fully materialised deterministic route: the ordered list of nodes a
/// packet traverses, including the source and the destination.
///
/// Kept for tests, debugging and external tooling; the simulator's hot path
/// uses [`RouteIter`] and never allocates one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    nodes: Vec<NodeId>,
    algorithm: RoutingAlgorithm,
}

impl Route {
    /// All nodes traversed, source first and destination last.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The routing function that produced this route.
    pub fn algorithm(&self) -> RoutingAlgorithm {
        self.algorithm
    }

    /// Number of links traversed (0 for a route from a node to itself).
    pub fn hops(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// Source node.
    pub fn source(&self) -> NodeId {
        *self.nodes.first().expect("route always has a source")
    }

    /// Destination node.
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("route always has a destination")
    }

    /// Iterates over the links `(from, to)` of the route in traversal order.
    pub fn links(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes.windows(2).map(|w| (w[0], w[1]))
    }
}

impl MeshTopology {
    /// Returns the lazily-stepped deterministic route from `src` to `dst`
    /// under `algorithm`. This is the allocation-free form the simulator's
    /// hot path uses.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn route_iter(&self, src: NodeId, dst: NodeId, algorithm: RoutingAlgorithm) -> RouteIter {
        let s = self.coord(src);
        let d = self.coord(dst);
        RouteIter { topology: *self, src: s, cur: s, dst: d, algorithm, started: false }
    }

    /// Computes the deterministic route from `src` to `dst` under
    /// `algorithm`, materialised as a [`Route`] (test/debug convenience;
    /// allocates).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn route(&self, src: NodeId, dst: NodeId, algorithm: RoutingAlgorithm) -> Route {
        self.route_iter(src, dst, algorithm).materialize()
    }
}

/// Every `(src, dst)` route of the mesh under one cluster map.
///
/// The selection rule:
///
/// * traffic entering or leaving the mesh at an *edge node* (a
///   memory-controller attachment point) routes X-Y — the controller is
///   shared infrastructure dedicated per cluster by the DRAM-region map, so
///   it is not counted against the cluster boundary;
/// * traffic within one cluster takes [`ClusterMap::contained_order`],
///   falling back to X-Y when neither order is contained;
/// * traffic across clusters routes X-Y (only IPC-class traffic is
///   expected to cross; the isolation auditor in `ironhide-core` flags
///   anything else), and so does everything when no cluster map is active.
///
/// Every rule picks one of a pair's two dimension-ordered routes, and
/// neither depends on the map. So [`RouteTable::new`] lays out both routes
/// of every pair once, as link slots ([`MeshTopology::link_slot`]) in two
/// arrays that share one offset table, and a pair's *choice* under the
/// current map — its order and its cluster pair — is all that is resolved,
/// on first use. The table owns the map, so replacing it
/// ([`RouteTable::set_cluster_map`]) is the one way to change a route, and
/// it forgets every choice by starting a new *epoch*: each choice carries
/// the epoch it was made in, and one from an earlier epoch is made again on
/// its pair's next use. After [`RouteTable::new`] the table never allocates
/// and never writes a link slot.
#[derive(Debug, Clone)]
pub struct RouteTable {
    topology: MeshTopology,
    edge: NodeSet,
    map: Option<ClusterMap>,
    /// `starts[src × nodes + dst]` is where the pair's link slots begin in
    /// `xy` and in `yx`; the next pair's start is where they end.
    starts: Vec<u32>,
    /// Every pair's X-Y route as link slots, in traversal order.
    xy: Vec<u16>,
    /// Every pair's Y-X route, laid out like `xy`.
    yx: Vec<u16>,
    /// Per pair: its latest choice, current only if made in `epoch`.
    chosen: Vec<Choice>,
    /// The current map's epoch, from 1: [`RouteTable::set_cluster_map`]
    /// starts a new one, so every choice made before is stale.
    epoch: u32,
}

/// A pair's route under one cluster map: which of its two routes packets
/// take, and the cluster pair they are recorded with.
#[derive(Debug, Clone, Copy)]
struct Choice {
    /// The epoch the choice was made in.
    epoch: u32,
    order: RoutingAlgorithm,
    clusters: Option<(ClusterId, ClusterId)>,
}

impl Choice {
    /// A choice stale in every epoch, which start at 1.
    const STALE: Choice = Choice { epoch: 0, order: RoutingAlgorithm::XY, clusters: None };
}

/// One resolved route of a [`RouteTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableRoute<'a> {
    /// The route's link slots in traversal order; their number is the hop
    /// count.
    pub links: &'a [u16],
    /// The `(source, destination)` clusters of cluster-isolated traffic that
    /// is not edge traffic; `None` otherwise.
    pub clusters: Option<(ClusterId, ClusterId)>,
}

impl RouteTable {
    /// Builds the table for `topology` with no cluster map, laying out both
    /// dimension-ordered routes of every pair. `edge` holds the nodes whose
    /// traffic is edge traffic.
    pub fn new(topology: MeshTopology, edge: NodeSet) -> Self {
        assert!(topology.link_slots() <= 1 << 16, "mesh exceeds the route table's u16 link slots");
        let n = topology.nodes();
        let mut starts = Vec::with_capacity(n * n + 1);
        let mut total = 0u32;
        for a in topology.iter_nodes() {
            for b in topology.iter_nodes() {
                starts.push(total);
                total = u32::try_from(topology.distance(a, b))
                    .ok()
                    .and_then(|hops| total.checked_add(hops))
                    .expect("mesh exceeds the route table's u32 offsets");
            }
        }
        starts.push(total);
        let slots = |order| {
            let mut links = Vec::with_capacity(total as usize);
            for a in topology.iter_nodes() {
                for b in topology.iter_nodes() {
                    links.extend(topology.route_iter(a, b, order).links().map(|(from, to)| {
                        topology.link_slot(from, to).expect("route links join mesh neighbours")
                            as u16
                    }));
                }
            }
            links
        };
        RouteTable {
            topology,
            edge,
            map: None,
            starts,
            xy: slots(RoutingAlgorithm::XY),
            yx: slots(RoutingAlgorithm::YX),
            chosen: vec![Choice::STALE; n * n],
            epoch: 1,
        }
    }

    /// The active cluster map, if any.
    pub fn cluster_map(&self) -> Option<&ClusterMap> {
        self.map.as_ref()
    }

    /// Activates (or clears) a cluster map and forgets every pair's choice,
    /// in O(1) by starting a new epoch. On the (practically unreachable) u32
    /// wrap it marks every choice stale instead, so no old stamp can alias
    /// a reused epoch.
    ///
    /// # Panics
    ///
    /// Panics if the map partitions a different topology.
    pub fn set_cluster_map(&mut self, map: Option<ClusterMap>) {
        if let Some(m) = &map {
            assert_eq!(
                m.topology().nodes(),
                self.topology.nodes(),
                "cluster map must cover the machine topology"
            );
        }
        self.map = map;
        if self.epoch == u32::MAX {
            self.chosen.fill(Choice::STALE);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// The route from `src` to `dst` under the current cluster map, chosen
    /// on its first use in the current epoch.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    #[inline]
    pub fn route(&mut self, src: NodeId, dst: NodeId) -> TableRoute<'_> {
        let n = self.topology.nodes();
        assert!(src.0 < n && dst.0 < n, "node out of route-table range");
        let pair = src.0 * n + dst.0;
        let mut choice = self.chosen[pair];
        if choice.epoch != self.epoch {
            choice = self.choose(src, dst);
            self.chosen[pair] = choice;
        }
        let slots = self.starts[pair] as usize..self.starts[pair + 1] as usize;
        let links = match choice.order {
            RoutingAlgorithm::XY => &self.xy[slots],
            RoutingAlgorithm::YX => &self.yx[slots],
        };
        TableRoute { links, clusters: choice.clusters }
    }

    /// Applies the selection rule to `(src, dst)` in the current epoch.
    fn choose(&self, src: NodeId, dst: NodeId) -> Choice {
        let edge_traffic = self.edge.contains(src) || self.edge.contains(dst);
        let (order, clusters) = match &self.map {
            Some(map) if !edge_traffic => {
                let (a, b) = (map.cluster_of(src), map.cluster_of(dst));
                let order = if a == b { map.contained_order(src, dst, a) } else { None };
                (order.unwrap_or(RoutingAlgorithm::XY), Some((a, b)))
            }
            _ => (RoutingAlgorithm::XY, None),
        };
        Choice { epoch: self.epoch, order, clusters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xy_route_goes_x_first() {
        let m = MeshTopology::new(8, 8);
        // From (0,0) to (2,2): XY visits (1,0),(2,0),(2,1),(2,2).
        let r = m.route(NodeId(0), NodeId(18), RoutingAlgorithm::XY);
        assert_eq!(r.nodes(), &[NodeId(0), NodeId(1), NodeId(2), NodeId(10), NodeId(18)]);
        assert_eq!(r.hops(), 4);
    }

    #[test]
    fn yx_route_goes_y_first() {
        let m = MeshTopology::new(8, 8);
        let r = m.route(NodeId(0), NodeId(18), RoutingAlgorithm::YX);
        assert_eq!(r.nodes(), &[NodeId(0), NodeId(8), NodeId(16), NodeId(17), NodeId(18)]);
    }

    #[test]
    fn route_to_self_has_no_hops() {
        let m = MeshTopology::new(4, 4);
        let r = m.route(NodeId(5), NodeId(5), RoutingAlgorithm::XY);
        assert_eq!(r.hops(), 0);
        assert_eq!(r.source(), r.destination());
        let it = m.route_iter(NodeId(5), NodeId(5), RoutingAlgorithm::XY);
        assert_eq!(it.hops(), 0);
        assert_eq!(it.collect::<Vec<_>>(), vec![NodeId(5)]);
    }

    #[test]
    fn hops_equal_manhattan_distance() {
        let m = MeshTopology::new(8, 8);
        for a in [0usize, 7, 21, 42, 63] {
            for b in [0usize, 9, 35, 63] {
                for alg in [RoutingAlgorithm::XY, RoutingAlgorithm::YX] {
                    let r = m.route(NodeId(a), NodeId(b), alg);
                    assert_eq!(r.hops(), m.distance(NodeId(a), NodeId(b)));
                    assert_eq!(r.source(), NodeId(a));
                    assert_eq!(r.destination(), NodeId(b));
                }
            }
        }
    }

    #[test]
    fn links_are_adjacent() {
        let m = MeshTopology::new(8, 8);
        let r = m.route(NodeId(3), NodeId(60), RoutingAlgorithm::YX);
        for (a, b) in r.links() {
            assert_eq!(m.distance(a, b), 1, "link {a}->{b} must join neighbours");
        }
    }

    #[test]
    fn same_row_routes_identical_under_both_orders() {
        let m = MeshTopology::new(8, 8);
        let xy = m.route(NodeId(8), NodeId(15), RoutingAlgorithm::XY);
        let yx = m.route(NodeId(8), NodeId(15), RoutingAlgorithm::YX);
        assert_eq!(xy.nodes(), yx.nodes());
    }

    #[test]
    fn iter_matches_materialised_route() {
        let m = MeshTopology::new(8, 8);
        for (a, b) in [(0usize, 63usize), (63, 0), (7, 56), (12, 12), (5, 40)] {
            for alg in [RoutingAlgorithm::XY, RoutingAlgorithm::YX] {
                let it = m.route_iter(NodeId(a), NodeId(b), alg);
                let route = m.route(NodeId(a), NodeId(b), alg);
                assert_eq!(it.hops(), route.hops());
                assert_eq!(it.len(), route.nodes().len());
                assert_eq!(it.source(), route.source());
                assert_eq!(it.destination(), route.destination());
                assert_eq!(it.algorithm(), route.algorithm());
                assert_eq!(it.collect::<Vec<_>>(), route.nodes());
                assert_eq!(it.links().collect::<Vec<_>>(), route.links().collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn iter_is_exact_size() {
        let m = MeshTopology::new(6, 9);
        let mut it = m.route_iter(NodeId(0), NodeId(53), RoutingAlgorithm::XY);
        let total = it.len();
        assert_eq!(total, m.distance(NodeId(0), NodeId(53)) + 1);
        let mut seen = 0;
        while it.next().is_some() {
            seen += 1;
            assert_eq!(it.len(), total - seen);
        }
        assert_eq!(seen, total);
    }

    #[test]
    fn route_table_hops_match_distances() {
        let m = MeshTopology::new(8, 8);
        let mut table = RouteTable::new(m, NodeSet::default());
        for a in m.iter_nodes() {
            for b in m.iter_nodes() {
                let route = table.route(a, b);
                assert_eq!(route.links.len(), m.distance(a, b));
                assert_eq!(route.clusters, None);
            }
        }
    }

    /// A new map at the last epoch wraps it back to the table's first
    /// epoch. Every pair was chosen in that first epoch, without a map, so
    /// only the wrap's clear stops those choices from reading as current:
    /// every pair must be chosen again under the new map.
    #[test]
    fn epoch_wrap_forgets_every_choice() {
        let m = MeshTopology::new(4, 4);
        let map = ClusterMap::new(m, [0, 1, 4, 5, 6, 9].map(NodeId));
        let mut table = RouteTable::new(m, NodeSet::default());
        for a in m.iter_nodes() {
            for b in m.iter_nodes() {
                assert_eq!(table.route(a, b).clusters, None);
            }
        }
        let first = table.epoch;
        table.epoch = u32::MAX;
        table.set_cluster_map(Some(map.clone()));
        assert_eq!(table.epoch, first);
        let mut fresh = RouteTable::new(m, NodeSet::default());
        fresh.set_cluster_map(Some(map));
        for a in m.iter_nodes() {
            for b in m.iter_nodes() {
                let route = table.route(a, b);
                assert!(route.clusters.is_some(), "{a} -> {b} kept its choice without a map");
                assert_eq!(route, fresh.route(a, b), "{a} -> {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "route-table range")]
    fn route_table_rejects_out_of_range() {
        let mut table = RouteTable::new(MeshTopology::new(2, 2), NodeSet::default());
        table.route(NodeId(0), NodeId(4));
    }
}
