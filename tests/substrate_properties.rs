//! Property-based tests of the substrate models (caches, TLBs, routing,
//! homing, re-allocation policies).

use proptest::prelude::*;

use ironhide::ironhide_cache::{
    CacheConfig, HomeMap, PageId, SetAssocCache, SliceId, Tlb, TlbConfig,
};
use ironhide::ironhide_core::realloc::ReallocPolicy;
use ironhide::ironhide_mesh::{
    ClusterId, ClusterMap, IsolationViolation, LatencyModel, MeshEdge, MeshTopology,
    NocLatencyConfig, NodeId, NodeSet, RouteIter, RouteTable, RoutingAlgorithm,
};

/// The containment rule by walking: the order that keeps `src → dst` inside
/// `cluster` is X-Y if every node of the X-Y route is in the cluster, else
/// Y-X if every node of that one is; otherwise the violation names the
/// first foreign node on the X-Y route.
fn walked_order(
    map: &ClusterMap,
    src: NodeId,
    dst: NodeId,
    cluster: ClusterId,
) -> Result<RoutingAlgorithm, IsolationViolation> {
    let foreign =
        |order| map.topology().route_iter(src, dst, order).find(|n| map.cluster_of(*n) != cluster);
    match (foreign(RoutingAlgorithm::XY), foreign(RoutingAlgorithm::YX)) {
        (None, _) => Ok(RoutingAlgorithm::XY),
        (Some(_), None) => Ok(RoutingAlgorithm::YX),
        (Some(foreign_node), Some(_)) => {
            Err(IsolationViolation { cluster, foreign_node, src, dst })
        }
    }
}

/// The admission check by walking: every ordered pair of each cluster,
/// secure cluster first, in ascending order; the first failing pair's
/// violation.
fn walked_verify(map: &ClusterMap) -> Result<(), IsolationViolation> {
    for cluster in [ClusterId::Secure, ClusterId::Insecure] {
        let nodes = map.nodes_of(cluster);
        for &a in &nodes {
            for &b in &nodes {
                walked_order(map, a, b, cluster)?;
            }
        }
    }
    Ok(())
}

/// A cluster map of `topology` drawn from three random words. `kind` picks
/// the secure set's shape: 0, the paper's row-major prefix (always
/// contained); 1, the union of two rectangles (dense, and non-convex when
/// they form an L, T or cross or lie apart); 2, sparse (each node with
/// probability 1/8); 3, scattered (probability 1/2). Either cluster may be
/// empty, and the insecure cluster is the complement of these shapes.
fn drawn_map(topology: MeshTopology, kind: usize, words: &[u64]) -> ClusterMap {
    let (width, height, nodes) = (topology.width(), topology.height(), topology.nodes());
    let in_rect = |r: u64, node: usize| {
        let (x, y) = (node % width, node / width);
        let (x0, y0) = (r as usize % width, (r >> 16) as usize % height);
        let (x1, y1) =
            (x0 + (r >> 8) as usize % (width - x0), y0 + (r >> 24) as usize % (height - y0));
        (x0..=x1).contains(&x) && (y0..=y1).contains(&y)
    };
    let secure = |node: usize| match kind {
        0 => node < words[0] as usize % (nodes + 1),
        1 => in_rect(words[0], node) || in_rect(words[1], node),
        2 => (words[0] & words[1] & words[2]) >> node & 1 == 1,
        _ => words[0] >> node & 1 == 1,
    };
    ClusterMap::new(topology, (0..nodes).filter(|&node| secure(node)).map(NodeId))
}

/// The route selection rule the route table memoises: edge traffic (to or
/// from a controller attachment node) routes X-Y; traffic within one
/// cluster takes the walked contained route, falling back to X-Y; traffic
/// across clusters routes X-Y, as does everything without a map.
fn selection_rule(
    topology: MeshTopology,
    edge: &NodeSet,
    map: Option<&ClusterMap>,
    src: NodeId,
    dst: NodeId,
) -> (RouteIter, Option<(ClusterId, ClusterId)>) {
    let xy = topology.route_iter(src, dst, RoutingAlgorithm::XY);
    match map {
        Some(map) if !edge.contains(src) && !edge.contains(dst) => {
            let (a, b) = (map.cluster_of(src), map.cluster_of(dst));
            let order = if a == b { walked_order(map, src, dst, a).ok() } else { None };
            let route = order.map_or(xy, |order| topology.route_iter(src, dst, order));
            (route, Some((a, b)))
        }
        _ => (xy, None),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Deterministic routes always have Manhattan-distance length and stay
    /// inside the mesh.
    #[test]
    fn routes_have_manhattan_length(src in 0usize..64, dst in 0usize..64, yx in any::<bool>()) {
        let mesh = MeshTopology::new(8, 8);
        let alg = if yx { RoutingAlgorithm::YX } else { RoutingAlgorithm::XY };
        let route = mesh.route(NodeId(src), NodeId(dst), alg);
        prop_assert_eq!(route.hops(), mesh.distance(NodeId(src), NodeId(dst)));
        for (a, b) in route.links() {
            prop_assert_eq!(mesh.distance(a, b), 1);
            prop_assert!(a.0 < 64 && b.0 < 64);
        }
    }

    /// The cache never holds more lines than its capacity, hit+miss always
    /// equals accesses, and a purge empties it completely.
    #[test]
    fn cache_occupancy_and_counters_are_consistent(addrs in prop::collection::vec(0u64..0x10_000, 1..300)) {
        let mut cache = SetAssocCache::new(CacheConfig::new(2048, 4, 64));
        for (i, a) in addrs.iter().enumerate() {
            cache.access(*a, i % 4 == 0);
            prop_assert!(cache.resident_lines() <= cache.config().lines());
        }
        let stats = *cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, stats.accesses);
        prop_assert_eq!(stats.accesses, addrs.len() as u64);
        cache.purge();
        prop_assert_eq!(cache.resident_lines(), 0);
        // Everything misses after a purge.
        for a in addrs.iter().take(8) {
            prop_assert!(cache.access(*a, false).is_miss() || cache.probe(*a));
        }
    }

    /// A line that was just accessed always hits immediately afterwards
    /// (temporal locality is never broken by the replacement policy).
    #[test]
    fn immediate_rereference_always_hits(addrs in prop::collection::vec(0u64..0x100_000, 1..200)) {
        let mut cache = SetAssocCache::new(CacheConfig::paper_l1());
        for a in addrs {
            cache.access(a, false);
            prop_assert!(cache.access(a, false).is_hit());
        }
    }

    /// The TLB never exceeds its configured capacity.
    #[test]
    fn tlb_respects_capacity(pages in prop::collection::vec(0u64..10_000, 1..500)) {
        let mut tlb = Tlb::new(TlbConfig::new(32, 4096));
        for p in pages {
            tlb.access(p * 4096);
            prop_assert!(tlb.resident() <= 32);
        }
    }

    /// Local homing keeps every page on an allowed slice, before and after a
    /// re-homing event.
    #[test]
    fn homing_never_leaves_the_allowed_set(pages in prop::collection::vec(0u64..4096, 1..80), shrink_to in 1usize..8) {
        let slices: Vec<SliceId> = (0..16).map(SliceId).collect();
        let mut map = HomeMap::local(slices.clone());
        for (i, p) in pages.iter().enumerate() {
            map.pin(PageId(*p), slices[i % slices.len()]).unwrap();
        }
        let new_allowed: Vec<SliceId> = (0..shrink_to).map(SliceId).collect();
        map.set_allowed(new_allowed.clone());
        map.rehome_all().unwrap();
        for p in &pages {
            prop_assert!(new_allowed.contains(&map.home_of(PageId(*p)).unwrap()));
        }
    }

    /// Every re-allocation policy returns a secure-cluster size that leaves
    /// both clusters non-empty, and Optimal is never worse than Heuristic on
    /// the surface it optimises.
    #[test]
    fn realloc_decisions_are_valid_and_optimal_is_best(opt in 1usize..64, offset in -30i32..30) {
        let surface = |n: usize| ((n as f64) - opt as f64).powi(2);
        for policy in [
            ReallocPolicy::Static,
            ReallocPolicy::Heuristic,
            ReallocPolicy::Optimal,
            ReallocPolicy::FixedOffset(offset),
        ] {
            let d = policy.decide(64, 32, surface);
            prop_assert!(d.secure_cores >= 1 && d.secure_cores <= 63);
        }
        let best = ReallocPolicy::Optimal.decide(64, 32, surface).secure_cores;
        let heuristic = ReallocPolicy::Heuristic.decide(64, 32, surface).secure_cores;
        prop_assert!(surface(best) <= surface(heuristic));
    }

    /// The route table agrees with the selection rule for every `(src,
    /// dst)` — links and cluster pair — across switches between two drawn
    /// cluster maps (and none) mid-stream, and charging packets through it
    /// matches `LatencyModel::traverse` over the rule's route on a
    /// reference model, packet by packet. Both access engines charge from
    /// this one table, so their differential cannot catch a wrong route;
    /// this property can. The rule walks routes, so this is also the
    /// differential check of the table's per-pair choice.
    #[test]
    fn route_table_matches_the_selection_rule(
        width in 1usize..=8,
        height in 1usize..=8,
        controllers in 1usize..=4,
        kind_a in 0usize..4,
        words_a in prop::collection::vec(any::<u64>(), 3..4),
        kind_b in 0usize..4,
        words_b in prop::collection::vec(any::<u64>(), 3..4),
        phases in prop::collection::vec(0usize..3, 1..6),
        packets in prop::collection::vec(any::<u64>(), 1..60),
    ) {
        let topology = MeshTopology::new(width, height);
        let nodes = topology.nodes();
        let edge: NodeSet = topology
            .place_controllers(controllers, &[MeshEdge::North, MeshEdge::South])
            .into_iter()
            .collect();
        let maps = [
            None,
            Some(drawn_map(topology, kind_a, &words_a)),
            Some(drawn_map(topology, kind_b, &words_b)),
        ];
        let mut table = RouteTable::new(topology, edge);
        let mut charged = LatencyModel::new(NocLatencyConfig::default(), topology);
        let mut reference = LatencyModel::new(NocLatencyConfig::default(), topology);
        for &phase in &phases {
            let map = maps[phase].as_ref();
            table.set_cluster_map(map.cloned());
            charged.reset_load();
            reference.reset_load();
            for &word in &packets {
                let (src, dst) = (NodeId(word as usize % nodes), NodeId((word >> 8) as usize % nodes));
                let flits = if word >> 16 & 1 == 1 { 5 } else { 1 };
                let (rule, _) = selection_rule(topology, &edge, map, src, dst);
                prop_assert_eq!(
                    charged.traverse_links(table.route(src, dst).links, flits),
                    reference.traverse(rule, flits),
                    "packet {:?} -> {:?} under map {}", src, dst, phase
                );
            }
            for src in topology.iter_nodes() {
                for dst in topology.iter_nodes() {
                    let (rule, clusters) = selection_rule(topology, &edge, map, src, dst);
                    let slots: Vec<u16> = rule
                        .links()
                        .map(|(a, b)| topology.link_slot(a, b).expect("a link") as u16)
                        .collect();
                    let route = table.route(src, dst);
                    prop_assert_eq!(route.links, &slots[..], "{:?} -> {:?} under map {}", src, dst, phase);
                    prop_assert_eq!(route.clusters, clusters, "{:?} -> {:?} under map {}", src, dst, phase);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The O(1) containment rule equals the walking reference on meshes from
    /// 1×1 to 8×8 and dense, sparse and scattered secure sets: the order
    /// `contained_order` and `contained_route` pick for every pair and
    /// either cluster, the route itself, and `verify_containment`'s verdict
    /// down to the exact violation. It checks each map twice: built by
    /// `ClusterMap::new`, and reached from a row-major split by `reassign`,
    /// which must keep the map's runs current.
    #[test]
    fn containment_rule_matches_the_walking_reference(
        width in 1usize..=8,
        height in 1usize..=8,
        kind in 0usize..4,
        words in prop::collection::vec(any::<u64>(), 3..4),
        start in 0usize..=64,
    ) {
        let topology = MeshTopology::new(width, height);
        let fresh = drawn_map(topology, kind, &words);
        let mut moved = ClusterMap::row_major_split(topology, start % (topology.nodes() + 1));
        for node in (0..topology.nodes()).rev().map(NodeId) {
            moved.reassign(node, fresh.cluster_of(node));
        }
        prop_assert_eq!(&moved, &fresh);
        for map in [&fresh, &moved] {
            prop_assert_eq!(map.verify_containment(), walked_verify(map));
            for src in topology.iter_nodes() {
                for dst in topology.iter_nodes() {
                    for cluster in [ClusterId::Secure, ClusterId::Insecure] {
                        let want = walked_order(map, src, dst, cluster);
                        prop_assert_eq!(map.contained_order(src, dst, cluster), want.clone().ok());
                        let want_route = want.map(|order| topology.route_iter(src, dst, order));
                        prop_assert_eq!(
                            map.contained_route(src, dst, cluster),
                            want_route,
                            "{:?} -> {:?} in {}", src, dst, cluster
                        );
                    }
                }
            }
        }
    }
}
