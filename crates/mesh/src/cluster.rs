//! Cluster maps and network-level strong isolation.
//!
//! IRONHIDE partitions the tiles of the mesh into a *secure* and an
//! *insecure* cluster. Strong isolation at the network level requires that a
//! packet whose source and destination both belong to one cluster never
//! traverses a router belonging to the other cluster. [`ClusterMap`] owns the
//! tile-to-cluster assignment, selects a routing order that keeps each packet
//! contained, and audits routes for violations.
//!
//! Containment is decided without walking routes. The map keeps, for every
//! node, the *run* of same-cluster nodes through it along its row and along
//! its column. A dimension-ordered route is two straight segments that meet
//! at a corner, so it stays in its cluster iff each segment lies inside one
//! run: the X-Y route from `a` to `b` is contained iff `a`'s row run covers
//! `b.x` and the column run of the corner `(b.x, a.y)` covers `b.y`, and the
//! Y-X route is the mirror image. [`ClusterMap::contained_order`] applies
//! this rule in O(1) per pair, and [`ClusterMap::contained_route`] and the
//! [`RouteTable`](crate::RouteTable) decide containment by it alone.
//!
//! The admission check ([`ClusterMap::verify_containment`]) decides a whole
//! cluster from the same runs, without visiting its pairs: every pair of a
//! cluster has a contained route iff the cluster's nodes form one run in
//! each row and one run in each column, and its runs in any two rows are
//! nested. Only a cluster this rule rejects is scanned pair by pair, to
//! name its first failing pair.

use std::fmt;

use crate::routing::{Route, RouteIter, RoutingAlgorithm};
use crate::topology::{Coord, MeshTopology, NodeId, NodeSet};

/// The two strongly isolated clusters formed by IRONHIDE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ClusterId {
    /// The cluster executing attested, mutually trusting secure processes.
    Secure,
    /// The cluster executing ordinary (untrusted) processes and the OS.
    Insecure,
}

impl ClusterId {
    /// The other cluster.
    pub fn other(self) -> Self {
        match self {
            ClusterId::Secure => ClusterId::Insecure,
            ClusterId::Insecure => ClusterId::Secure,
        }
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterId::Secure => write!(f, "secure"),
            ClusterId::Insecure => write!(f, "insecure"),
        }
    }
}

/// A network-level strong-isolation violation detected while auditing a route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsolationViolation {
    /// Cluster that owns the packet.
    pub cluster: ClusterId,
    /// The foreign node the route would traverse.
    pub foreign_node: NodeId,
    /// Source of the offending route.
    pub src: NodeId,
    /// Destination of the offending route.
    pub dst: NodeId,
}

impl fmt::Display for IsolationViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "route {} -> {} owned by {} cluster traverses foreign node {}",
            self.src, self.dst, self.cluster, self.foreign_node
        )
    }
}

impl std::error::Error for IsolationViolation {}

/// The first and last coordinate of a maximal run of same-cluster nodes
/// along one mesh row or column. A map spans at most [`NodeSet::MAX_NODES`]
/// nodes, so every coordinate fits a `u8`.
#[derive(Clone, Copy, Default)]
struct Run {
    lo: u8,
    hi: u8,
}

const _: () = assert!(NodeSet::MAX_NODES <= u8::MAX as usize + 1, "run coordinates are u8");

impl Run {
    /// Whether the run reaches coordinate `v`.
    #[inline]
    fn covers(self, v: usize) -> bool {
        usize::from(self.lo) <= v && v <= usize::from(self.hi)
    }

    /// Whether `self` and `other` are nested: one lies inside the other.
    fn nests_with(self, other: Run) -> bool {
        let inside = |a: Run, b: Run| b.lo <= a.lo && a.hi <= b.hi;
        inside(self, other) || inside(other, self)
    }
}

/// How one cluster's nodes lie along one mesh row or column.
enum Line {
    /// The cluster has no node on the line.
    Empty,
    /// The cluster's nodes form this one run.
    One(Run),
    /// The cluster's nodes form two or more runs.
    Split,
}

impl Line {
    /// Reads how a cluster lies along a line of `len` positions from the
    /// line's maximal runs: `run(i)` is the run through position `i`, and
    /// `inside(i)` whether that position is in the cluster. Adjacent runs
    /// belong to different clusters, so the cluster's first run is the
    /// first or the second run of the line, and it has another run iff a
    /// third run follows its first: at most three runs are read.
    fn read(len: usize, inside: impl Fn(usize) -> bool, run: impl Fn(usize) -> Run) -> Line {
        let after = |r: Run| usize::from(r.hi) + 1;
        let first = run(0);
        let own = if inside(0) {
            first
        } else if after(first) < len {
            run(after(first))
        } else {
            return Line::Empty;
        };
        if after(own) < len && after(run(after(own))) < len {
            Line::Split
        } else {
            Line::One(own)
        }
    }
}

/// A node's runs: along its row (a span of columns) and along its column (a
/// span of rows).
#[derive(Clone, Copy, Default)]
struct Runs {
    row: Run,
    col: Run,
}

/// Assignment of mesh tiles to the secure and insecure clusters.
///
/// The paper allocates whole rows of tiles to each cluster whenever possible
/// (so that plain X-Y routing already contains traffic) and falls back to
/// Y-X routing for the row that is split between the clusters.
#[derive(Clone)]
pub struct ClusterMap {
    topology: MeshTopology,
    /// Secure-cluster membership as a bitset: `cluster_of` sits on the
    /// per-packet audit path, so the test must be O(1).
    secure: NodeSet,
    /// Per node, in row-major order: its runs, derived from `secure` by
    /// [`ClusterMap::new`] and kept current by [`ClusterMap::reassign`].
    /// They decide a pair's order ([`ClusterMap::contained_order`]) and
    /// admit a whole cluster ([`ClusterMap::verify_containment`]). Inline,
    /// so cloning a map never allocates.
    runs: [Runs; NodeSet::MAX_NODES],
}

/// The runs are derived from the membership, so a map prints and compares
/// as its topology and secure set alone.
impl fmt::Debug for ClusterMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterMap")
            .field("topology", &self.topology)
            .field("secure", &self.secure)
            .finish()
    }
}

impl PartialEq for ClusterMap {
    fn eq(&self, other: &Self) -> bool {
        self.topology == other.topology && self.secure == other.secure
    }
}

impl Eq for ClusterMap {}

impl ClusterMap {
    /// Creates a cluster map with an explicit set of secure nodes; every other
    /// node belongs to the insecure cluster.
    pub fn new(topology: MeshTopology, secure: impl IntoIterator<Item = NodeId>) -> Self {
        let mut set = NodeSet::with_capacity(topology.nodes());
        for n in secure {
            assert!(n.0 < topology.nodes(), "secure node {n} out of range");
            set.insert(n);
        }
        let mut map =
            ClusterMap { topology, secure: set, runs: [Runs::default(); NodeSet::MAX_NODES] };
        for y in 0..topology.height() {
            map.measure_row(y);
        }
        for x in 0..topology.width() {
            map.measure_column(x);
        }
        map
    }

    /// Recomputes the row runs of every node in row `y`.
    fn measure_row(&mut self, y: usize) {
        let width = self.topology.width();
        self.measure_line(y * width, 1, width, |runs| &mut runs.row);
    }

    /// Recomputes the column runs of every node in column `x`.
    fn measure_column(&mut self, x: usize) {
        let (width, height) = (self.topology.width(), self.topology.height());
        self.measure_line(x, width, height, |runs| &mut runs.col);
    }

    /// Splits the `len` nodes `first, first + stride, …` of one mesh line
    /// into maximal same-cluster runs and stores each node's run (as
    /// positions along the line) through `field`.
    fn measure_line(
        &mut self,
        first: usize,
        stride: usize,
        len: usize,
        field: fn(&mut Runs) -> &mut Run,
    ) {
        let secure = |i: usize| self.secure.contains(NodeId(first + i * stride));
        let mut lo = 0;
        for i in 0..len {
            if i + 1 < len && secure(i) == secure(i + 1) {
                continue;
            }
            // Positions are below `NodeSet::MAX_NODES`, so they fit a `u8`.
            let run = Run { lo: lo as u8, hi: i as u8 };
            for k in lo..=i {
                *field(&mut self.runs[first + k * stride]) = run;
            }
            lo = i + 1;
        }
    }

    /// Creates the paper's row-major split: the first `secure_cores` tiles (in
    /// row-major order, starting at row 0 next to the secure memory
    /// controllers) form the secure cluster and the rest form the insecure
    /// cluster.
    ///
    /// # Panics
    ///
    /// Panics if `secure_cores` exceeds the number of tiles.
    pub fn row_major_split(topology: MeshTopology, secure_cores: usize) -> Self {
        assert!(
            secure_cores <= topology.nodes(),
            "secure cluster of {secure_cores} cores exceeds {} tiles",
            topology.nodes()
        );
        ClusterMap::new(topology, (0..secure_cores).map(NodeId))
    }

    /// The topology this map partitions.
    pub fn topology(&self) -> &MeshTopology {
        &self.topology
    }

    /// The cluster a node belongs to.
    #[inline]
    pub fn cluster_of(&self, node: NodeId) -> ClusterId {
        if self.secure.contains(node) {
            ClusterId::Secure
        } else {
            ClusterId::Insecure
        }
    }

    /// Nodes of the given cluster, in ascending order.
    pub fn nodes_of(&self, cluster: ClusterId) -> Vec<NodeId> {
        self.nodes_iter(cluster).collect()
    }

    /// Borrowing form of [`ClusterMap::nodes_of`]: iterates the cluster's
    /// nodes in the same ascending order without materialising a `Vec`, so
    /// per-interaction membership queries stay allocation-free.
    pub fn nodes_iter(&self, cluster: ClusterId) -> impl Iterator<Item = NodeId> + '_ {
        self.topology.iter_nodes().filter(move |n| self.cluster_of(*n) == cluster)
    }

    /// Number of tiles in the given cluster.
    pub fn size_of(&self, cluster: ClusterId) -> usize {
        match cluster {
            ClusterId::Secure => self.secure.len(),
            ClusterId::Insecure => self.topology.nodes() - self.secure.len(),
        }
    }

    /// Moves `node` into `cluster`, returning its previous cluster.
    pub fn reassign(&mut self, node: NodeId, cluster: ClusterId) -> ClusterId {
        assert!(node.0 < self.topology.nodes(), "node {node} out of range");
        let prev = self.cluster_of(node);
        if prev == cluster {
            return prev;
        }
        match cluster {
            ClusterId::Secure => {
                self.secure.insert(node);
            }
            ClusterId::Insecure => {
                self.secure.remove(node);
            }
        }
        let c = self.topology.coord(node);
        self.measure_row(c.y);
        self.measure_column(c.x);
        prev
    }

    /// Checks a materialised route for containment: a route owned by
    /// `cluster` must only traverse nodes of that cluster. Test/debug
    /// convenience; the hot path audits the iterator form via
    /// [`ClusterMap::audit_route_iter`].
    pub fn audit_route(&self, route: &Route, cluster: ClusterId) -> Result<(), IsolationViolation> {
        for n in route.nodes() {
            if self.cluster_of(*n) != cluster {
                return Err(IsolationViolation {
                    cluster,
                    foreign_node: *n,
                    src: route.source(),
                    dst: route.destination(),
                });
            }
        }
        Ok(())
    }

    /// Checks a lazily-stepped route for containment without materialising
    /// it. `RouteIter` is `Copy`, so auditing consumes a throwaway copy and
    /// the caller can still traverse the original.
    pub fn audit_route_iter(
        &self,
        route: RouteIter,
        cluster: ClusterId,
    ) -> Result<(), IsolationViolation> {
        let (src, dst) = (route.source(), route.destination());
        for n in route {
            if self.cluster_of(n) != cluster {
                return Err(IsolationViolation { cluster, foreign_node: n, src, dst });
            }
        }
        Ok(())
    }

    /// The routing order that keeps a packet from `src` to `dst` inside
    /// `cluster`: X-Y when that route is contained, else Y-X when that one
    /// is, else `None` (also when `src` lies outside `cluster`). O(1): the
    /// X-Y route is contained iff `src` is in `cluster`, `src`'s row run
    /// covers `dst`'s column and the column run of the corner `(dst.x,
    /// src.y)` covers `dst`'s row; Y-X swaps the dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    #[inline]
    pub fn contained_order(
        &self,
        src: NodeId,
        dst: NodeId,
        cluster: ClusterId,
    ) -> Option<RoutingAlgorithm> {
        let (s, d) = (self.topology.coord(src), self.topology.coord(dst));
        if self.cluster_of(src) != cluster {
            return None;
        }
        self.order_between(s, d)
    }

    /// [`ClusterMap::contained_order`] by coordinates, for a source that
    /// lies in the packet's cluster.
    #[inline]
    fn order_between(&self, s: Coord, d: Coord) -> Option<RoutingAlgorithm> {
        let runs = |c: Coord| self.runs[c.y * self.topology.width() + c.x];
        let home = runs(s);
        if home.row.covers(d.x) && runs(Coord::new(d.x, s.y)).col.covers(d.y) {
            Some(RoutingAlgorithm::XY)
        } else if home.col.covers(d.y) && runs(Coord::new(s.x, d.y)).row.covers(d.x) {
            Some(RoutingAlgorithm::YX)
        } else {
            None
        }
    }

    /// Selects a routing order for an intra-cluster packet from `src` to
    /// `dst` by [`ClusterMap::contained_order`] (X-Y preferred, Y-X as the
    /// fallback: bidirectional routing) and returns the contained route in
    /// lazily-stepped form (materialise it with [`RouteIter::materialize`]
    /// when a node list is wanted).
    ///
    /// # Errors
    ///
    /// Returns an [`IsolationViolation`] naming the first foreign node on the
    /// X-Y route if neither deterministic order keeps the packet inside its
    /// own cluster. The cluster manager treats this as a configuration error
    /// and refuses such a cluster shape.
    pub fn contained_route(
        &self,
        src: NodeId,
        dst: NodeId,
        cluster: ClusterId,
    ) -> Result<RouteIter, IsolationViolation> {
        match self.contained_order(src, dst, cluster) {
            Some(order) => Ok(self.topology.route_iter(src, dst, order)),
            None => Err(self.xy_violation(src, dst, cluster)),
        }
    }

    /// The violation an uncontainable pair reports: the first foreign node on
    /// its X-Y route. Only a refused pair walks its route.
    fn xy_violation(&self, src: NodeId, dst: NodeId, cluster: ClusterId) -> IsolationViolation {
        let xy = self.topology.route_iter(src, dst, RoutingAlgorithm::XY);
        self.audit_route_iter(xy, cluster)
            .expect_err("an uncontainable pair's X-Y route leaves its cluster")
    }

    /// Checks whether *every* pair of nodes inside each cluster can reach each
    /// other without leaving the cluster under bidirectional deterministic
    /// routing. This is the admission check the secure kernel runs before
    /// activating a cluster configuration. The first failing pair, taking
    /// the secure cluster first and each cluster's pairs in ascending
    /// `(src, dst)` order, is reported as [`ClusterMap::contained_route`]
    /// reports it.
    ///
    /// Each cluster is admitted by the run rule (`runs_admit`) in O(rows² +
    /// columns), from the runs the map keeps; only a cluster the rule
    /// rejects is scanned pair by pair, to find that pair.
    pub fn verify_containment(&self) -> Result<(), IsolationViolation> {
        for cluster in [ClusterId::Secure, ClusterId::Insecure] {
            if !self.runs_admit(cluster) {
                self.scan_pairs(cluster)?;
            }
        }
        Ok(())
    }

    /// Whether the run rule admits `cluster`. The rule: every pair of the
    /// cluster's nodes has a contained X-Y or Y-X route iff its nodes form
    /// one run in each column and one run in each row, and its runs in any
    /// two rows are nested.
    ///
    /// If the source's row run lies inside the destination's, the Y-X route
    /// is contained (the source's column reaches the destination's row,
    /// and both rows and the column are single runs); otherwise the
    /// destination's lies inside the source's and the X-Y route is. A gap
    /// in a row or column leaves two nodes on that line with no contained
    /// route, and two row runs that overlap without nesting, or lie apart,
    /// leave the pair of their outer ends with none.
    fn runs_admit(&self, cluster: ClusterId) -> bool {
        let (width, height) = (self.topology.width(), self.topology.height());
        let node = |x: usize, y: usize| y * width + x;
        let inside = |x: usize, y: usize| self.cluster_of(NodeId(node(x, y))) == cluster;
        let row = |y: usize| Line::read(width, |x| inside(x, y), |x| self.runs[node(x, y)].row);
        let column = |x: usize| Line::read(height, |y| inside(x, y), |y| self.runs[node(x, y)].col);
        if (0..width).any(|x| matches!(column(x), Line::Split)) {
            return false;
        }
        (0..height).all(|a| match row(a) {
            Line::Empty => true,
            Line::Split => false,
            Line::One(run) => (0..a).all(|b| match row(b) {
                Line::One(earlier) => run.nests_with(earlier),
                _ => true,
            }),
        })
    }

    /// The pairwise admission check of one cluster: its first pair, in
    /// ascending `(src, dst)` order, that has no contained route.
    fn scan_pairs(&self, cluster: ClusterId) -> Result<(), IsolationViolation> {
        // The X-Y route from `a` to `b` crosses the nodes of the Y-X route
        // from `b` to `a`, so a pair is containable iff its reverse is. The
        // first failing pair therefore has `a < b` (its reverse would come
        // first otherwise), and only those pairs are checked. Nodes are
        // stepped by coordinates in ascending node order, so the pair loop
        // derives no coordinate from a node id.
        let (width, height) = (self.topology.width(), self.topology.height());
        let node = |c: Coord| NodeId(c.y * width + c.x);
        let from = |start: Coord| {
            (start.y..height).flat_map(move |y| {
                let x0 = if y == start.y { start.x } else { 0 };
                (x0..width).map(move |x| Coord::new(x, y))
            })
        };
        let inside = |c: &Coord| self.cluster_of(node(*c)) == cluster;
        for s in from(Coord::new(0, 0)).filter(inside) {
            for d in from(s).skip(1).filter(inside) {
                if self.order_between(s, d).is_none() {
                    return Err(self.xy_violation(node(s), node(d), cluster));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> MeshTopology {
        MeshTopology::new(8, 8)
    }

    #[test]
    fn row_major_split_sizes() {
        let map = ClusterMap::row_major_split(mesh(), 32);
        assert_eq!(map.size_of(ClusterId::Secure), 32);
        assert_eq!(map.size_of(ClusterId::Insecure), 32);
        assert_eq!(map.cluster_of(NodeId(0)), ClusterId::Secure);
        assert_eq!(map.cluster_of(NodeId(31)), ClusterId::Secure);
        assert_eq!(map.cluster_of(NodeId(32)), ClusterId::Insecure);
    }

    #[test]
    fn whole_row_clusters_contained_under_xy() {
        let map = ClusterMap::row_major_split(mesh(), 32);
        // Both endpoints in the secure cluster's rows 0..4: XY must work.
        let r = map.contained_route(NodeId(0), NodeId(27), ClusterId::Secure).unwrap();
        assert_eq!(r.algorithm(), RoutingAlgorithm::XY);
        map.verify_containment().unwrap();
    }

    #[test]
    fn split_row_requires_yx() {
        // Secure cluster = 34 tiles: rows 0..4 plus tiles 32,33 of row 4.
        let map = ClusterMap::row_major_split(mesh(), 34);
        // A packet from tile 33 (row 4, col 1) to tile 1 (row 0, col 1) is fine
        // with either order. A packet from tile 24 (row 3, col 0) to tile 33
        // (row 4, col 1) under XY goes along row 3 then down: contained. The
        // interesting case: from tile 33 (4,1) to tile 24 (3,0): XY goes west
        // through (4,0)=32 secure then north: contained. Take one that is not:
        // from tile 39 (row 4, col 7, insecure) to tile 63 under XY stays in
        // insecure rows. The split-row secure pair that XY would leak: from
        // tile 2 (0,2) to tile 33 (4,1): XY goes along row 0 to col 1 then
        // south through rows 1..4 all secure: contained. Construct a leak by
        // picking secure tiles in different columns of the split row.
        let mut map2 = map.clone();
        map2.reassign(NodeId(38), ClusterId::Secure); // (4,6)
                                                      // Route 33 -> 38 along row 4 under XY crosses insecure tiles 34..=37.
        let xy = mesh().route(NodeId(33), NodeId(38), RoutingAlgorithm::XY);
        assert!(map2.audit_route(&xy, ClusterId::Secure).is_err());
        // But those two tiles cannot be contained by YX either (same row), so
        // contained_route reports a violation; the kernel must reject it.
        assert!(map2.contained_route(NodeId(33), NodeId(38), ClusterId::Secure).is_err());
    }

    #[test]
    fn yx_rescues_column_aligned_split() {
        // Secure cluster: rows 0..4 plus the whole of column 0 of row 4..8.
        let mut secure: Vec<NodeId> = (0..32).map(NodeId).collect();
        secure.extend([32, 40, 48, 56].map(NodeId));
        let map = ClusterMap::new(mesh(), secure);
        // From tile 56 (7,0) to tile 5 (0,5): XY would go east along row 7
        // through insecure tiles; YX goes north along column 0 (all secure)
        // then east along row 0 (all secure).
        let r = map.contained_route(NodeId(56), NodeId(5), ClusterId::Secure).unwrap();
        assert_eq!(r.algorithm(), RoutingAlgorithm::YX);
    }

    #[test]
    fn audit_reports_foreign_node() {
        let map = ClusterMap::row_major_split(mesh(), 8);
        let route = mesh().route(NodeId(0), NodeId(63), RoutingAlgorithm::XY);
        let err = map.audit_route(&route, ClusterId::Secure).unwrap_err();
        assert_eq!(err.cluster, ClusterId::Secure);
        assert_eq!(map.cluster_of(err.foreign_node), ClusterId::Insecure);
        assert!(err.to_string().contains("foreign node"));
    }

    #[test]
    fn reassign_moves_nodes() {
        let mut map = ClusterMap::row_major_split(mesh(), 4);
        assert_eq!(map.reassign(NodeId(10), ClusterId::Secure), ClusterId::Insecure);
        assert_eq!(map.cluster_of(NodeId(10)), ClusterId::Secure);
        assert_eq!(map.size_of(ClusterId::Secure), 5);
        assert_eq!(map.reassign(NodeId(10), ClusterId::Insecure), ClusterId::Secure);
        assert_eq!(map.size_of(ClusterId::Secure), 4);
    }

    #[test]
    fn empty_secure_cluster_is_valid() {
        let map = ClusterMap::row_major_split(mesh(), 0);
        assert_eq!(map.size_of(ClusterId::Secure), 0);
        assert_eq!(map.size_of(ClusterId::Insecure), 64);
        map.verify_containment().unwrap();
    }

    /// The run rule against the pairwise scan on every cluster map of
    /// eleven small meshes: the verdicts agree cluster by cluster, and a
    /// rejected map reports exactly the scan's first failing pair.
    #[test]
    fn run_rule_matches_the_pairwise_scan_on_every_small_map() {
        let meshes = [
            (1, 1),
            (1, 5),
            (5, 1),
            (2, 2),
            (3, 3),
            (3, 4),
            (4, 3),
            (4, 4),
            (2, 8),
            (8, 2),
            (5, 3),
        ];
        let (mut maps, mut contained) = (0, 0);
        for (width, height) in meshes {
            let topology = MeshTopology::new(width, height);
            let nodes = topology.nodes();
            for mask in 0u32..1 << nodes {
                let secure = (0..nodes).filter(|&n| mask >> n & 1 == 1).map(NodeId);
                let map = ClusterMap::new(topology, secure);
                let [secure_scan, insecure_scan] =
                    [ClusterId::Secure, ClusterId::Insecure].map(|cluster| {
                        let scan = map.scan_pairs(cluster);
                        assert_eq!(
                            map.runs_admit(cluster),
                            scan.is_ok(),
                            "{width}x{height} mesh, secure set {mask:#b}, {cluster} cluster"
                        );
                        scan
                    });
                let scanned = secure_scan.and(insecure_scan);
                assert_eq!(
                    map.verify_containment(),
                    scanned,
                    "{width}x{height} mesh, secure set {mask:#b}"
                );
                maps += 1;
                contained += usize::from(scanned.is_ok());
            }
        }
        assert_eq!((maps, contained), (238_162, 1_134));
    }

    #[test]
    fn cluster_other() {
        assert_eq!(ClusterId::Secure.other(), ClusterId::Insecure);
        assert_eq!(ClusterId::Insecure.other(), ClusterId::Secure);
    }
}
