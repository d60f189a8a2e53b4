//! Mesh topology: node identifiers, coordinates and neighbourhood structure.

use std::fmt;

/// Identifier of a mesh node (a tile: core + private caches + shared L2
/// slice + router). Nodes are numbered in row-major order: node
/// `y * width + x` sits at coordinate `(x, y)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v)
    }
}

/// A 2-D coordinate on the mesh. `x` grows to the east, `y` grows to the
/// south, with `(0, 0)` in the north-west corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Coord {
    /// Column (east-west position).
    pub x: usize,
    /// Row (north-south position).
    pub y: usize,
}

impl Coord {
    /// Creates a coordinate from a column and a row.
    pub fn new(x: usize, y: usize) -> Self {
        Coord { x, y }
    }

    /// Manhattan distance between two coordinates, i.e. the number of links a
    /// dimension-ordered route between them traverses.
    pub fn manhattan(self, other: Coord) -> usize {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// Which edge of the mesh a memory controller is attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeshEdge {
    /// Row `0`.
    North,
    /// Row `height - 1`.
    South,
    /// Column `0`.
    West,
    /// Column `width - 1`.
    East,
}

/// A rectangular 2-D mesh of tiles.
///
/// The default experimental machine in the paper uses 64 of the Tile-Gx72's
/// tiles arranged as an 8×8 mesh, with four memory controllers on the north
/// and south edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshTopology {
    width: usize,
    height: usize,
}

impl MeshTopology {
    /// Creates a `width × height` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be non-zero");
        MeshTopology { width, height }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of nodes (tiles) in the mesh.
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// Returns the coordinate of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn coord(&self, node: NodeId) -> Coord {
        assert!(node.0 < self.nodes(), "node {node} out of range");
        Coord::new(node.0 % self.width, node.0 / self.width)
    }

    /// Returns the node at coordinate `coord`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate lies outside the mesh.
    pub fn node_at(&self, coord: Coord) -> NodeId {
        assert!(coord.x < self.width && coord.y < self.height, "coordinate {coord} out of range");
        NodeId(coord.y * self.width + coord.x)
    }

    /// Iterates over all nodes in row-major order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes()).map(NodeId)
    }

    /// Returns the nodes of row `y`, west to east.
    pub fn row(&self, y: usize) -> Vec<NodeId> {
        assert!(y < self.height, "row {y} out of range");
        (0..self.width).map(|x| self.node_at(Coord::new(x, y))).collect()
    }

    /// Returns the nodes of column `x`, north to south.
    pub fn column(&self, x: usize) -> Vec<NodeId> {
        assert!(x < self.width, "column {x} out of range");
        (0..self.height).map(|y| self.node_at(Coord::new(x, y))).collect()
    }

    /// Manhattan distance (link count) between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        self.coord(a).manhattan(self.coord(b))
    }

    /// Number of directional link slots: four per node, one per direction,
    /// whether or not the mesh has a neighbour on that side.
    pub fn link_slots(&self) -> usize {
        self.nodes() * 4
    }

    /// The slot of the directional link `from → to`: `from × 4 +
    /// direction`, with directions 0 east, 1 west, 2 south and 3 north.
    /// `None` when the two nodes are not mesh neighbours (or either is out
    /// of range).
    pub fn link_slot(&self, from: NodeId, to: NodeId) -> Option<usize> {
        if from.0 >= self.nodes() || to.0 >= self.nodes() {
            return None;
        }
        let (a, b) = (self.coord(from), self.coord(to));
        let direction = match (b.x as isize - a.x as isize, b.y as isize - a.y as isize) {
            (1, 0) => 0,
            (-1, 0) => 1,
            (0, 1) => 2,
            (0, -1) => 3,
            _ => return None,
        };
        Some(from.0 * 4 + direction)
    }

    /// The (up to four) neighbours of `node`.
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let c = self.coord(node);
        let mut out = Vec::with_capacity(4);
        if c.x > 0 {
            out.push(self.node_at(Coord::new(c.x - 1, c.y)));
        }
        if c.x + 1 < self.width {
            out.push(self.node_at(Coord::new(c.x + 1, c.y)));
        }
        if c.y > 0 {
            out.push(self.node_at(Coord::new(c.x, c.y - 1)));
        }
        if c.y + 1 < self.height {
            out.push(self.node_at(Coord::new(c.x, c.y + 1)));
        }
        out
    }

    /// Returns the node a memory controller attached to `edge` at offset
    /// `index` along that edge is adjacent to. Memory traffic to that
    /// controller is injected/ejected at this node.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds the edge length.
    pub fn edge_node(&self, edge: MeshEdge, index: usize) -> NodeId {
        match edge {
            MeshEdge::North => {
                assert!(index < self.width);
                self.node_at(Coord::new(index, 0))
            }
            MeshEdge::South => {
                assert!(index < self.width);
                self.node_at(Coord::new(index, self.height - 1))
            }
            MeshEdge::West => {
                assert!(index < self.height);
                self.node_at(Coord::new(0, index))
            }
            MeshEdge::East => {
                assert!(index < self.height);
                self.node_at(Coord::new(self.width - 1, index))
            }
        }
    }

    /// Places `count` memory controllers evenly along the given edges,
    /// alternating between them (the Tile-Gx72 places its four controllers on
    /// the north and south edges). Returns the attachment node of each
    /// controller in order.
    pub fn place_controllers(&self, count: usize, edges: &[MeshEdge]) -> Vec<NodeId> {
        assert!(!edges.is_empty(), "at least one edge is required");
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let edge = edges[i % edges.len()];
            let along = i / edges.len();
            let edge_len = match edge {
                MeshEdge::North | MeshEdge::South => self.width,
                MeshEdge::West | MeshEdge::East => self.height,
            };
            let per_edge = count.div_ceil(edges.len()).max(1);
            let spacing = edge_len / (per_edge + 1);
            let index = ((along + 1) * spacing.max(1)).min(edge_len - 1);
            out.push(self.edge_node(edge, index));
        }
        out
    }
}

impl Default for MeshTopology {
    /// The paper's 8×8 experimental mesh.
    fn default() -> Self {
        MeshTopology::new(8, 8)
    }
}

/// A set of mesh nodes backed by an inline fixed-size bitmask, for O(1)
/// membership tests on the hot path (e.g. "is this node a memory-controller
/// attachment point?", "does this tile belong to the secure cluster?") where
/// a `Vec::contains` linear scan or an ordered-set lookup would be wasteful.
///
/// The storage is four inline words (up to [`NodeSet::MAX_NODES`] nodes — an
/// order of magnitude above the paper's 64-tile machine), so the set is
/// `Copy` and never touches the heap. That matters beyond convenience: the
/// coherence directory in `ironhide-cache` returns the sharers of its
/// entries as `NodeSet`s, built a word at a time from the entry's own word
/// and its side words ([`NodeSet::from_words`]), and directory transactions
/// sit on the L1-miss path, which must stay allocation-free (see
/// `tests/zero_alloc.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeSet {
    bits: [u64; Self::WORDS],
}

impl NodeSet {
    const WORDS: usize = 4;

    /// The largest node index (exclusive) an inline set can hold.
    pub const MAX_NODES: usize = Self::WORDS * 64;

    /// Creates an empty set sized for a mesh of `nodes` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` exceeds [`NodeSet::MAX_NODES`].
    pub fn with_capacity(nodes: usize) -> Self {
        assert!(nodes <= Self::MAX_NODES, "NodeSet supports up to {} nodes", Self::MAX_NODES);
        NodeSet::default()
    }

    /// The set whose members are the set bits of `words`: bit `b` of word
    /// `i` is node `64 i + b`. Builds the set a word at a time, with no loop
    /// over members.
    ///
    /// # Panics
    ///
    /// Panics if `words` yields more than `MAX_NODES / 64` words.
    #[inline]
    pub fn from_words(words: impl IntoIterator<Item = u64>) -> Self {
        let mut set = NodeSet::default();
        for (i, w) in words.into_iter().enumerate() {
            assert!(i < Self::WORDS, "NodeSet supports up to {} nodes", Self::MAX_NODES);
            set.bits[i] = w;
        }
        set
    }

    /// Word `i` of the membership mask: bit `b` is node `64 i + b`. Zero
    /// for words beyond [`NodeSet::MAX_NODES`].
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.bits.get(i).copied().unwrap_or(0)
    }

    /// Inserts `node`. Returns whether the node was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `node` is at or beyond [`NodeSet::MAX_NODES`].
    pub fn insert(&mut self, node: NodeId) -> bool {
        assert!(node.0 < Self::MAX_NODES, "NodeSet supports up to {} nodes", Self::MAX_NODES);
        let (word, bit) = (node.0 / 64, node.0 % 64);
        let newly = self.bits[word] & (1 << bit) == 0;
        self.bits[word] |= 1 << bit;
        newly
    }

    /// Removes `node`. Returns whether it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let (word, bit) = (node.0 / 64, node.0 % 64);
        match self.bits.get_mut(word) {
            Some(w) => {
                let present = *w & (1 << bit) != 0;
                *w &= !(1 << bit);
                present
            }
            None => false,
        }
    }

    /// Whether `node` is in the set (false for nodes beyond the mask).
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        let (word, bit) = (node.0 / 64, node.0 % 64);
        self.bits.get(word).is_some_and(|w| w & (1 << bit) != 0)
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|w| *w == 0)
    }

    /// Removes every node from the set.
    pub fn clear(&mut self) {
        self.bits = [0; Self::WORDS];
    }

    /// Adds every member of `other` to this set (the in-place union). Four
    /// word-ORs, so accumulating a sharer census over many directory entries
    /// stays O(1) per entry.
    pub fn union_with(&mut self, other: &NodeSet) {
        for (w, o) in self.bits.iter_mut().zip(other.bits.iter()) {
            *w |= *o;
        }
    }

    /// Iterates over the members in ascending node order. The order is part
    /// of the contract: the coherence layer sends invalidations in iteration
    /// order, and simulation results must not depend on set insertion
    /// history.
    pub fn iter(&self) -> NodeSetIter {
        NodeSetIter { bits: self.bits, word: 0 }
    }
}

/// Ascending-order iterator over a [`NodeSet`] (see [`NodeSet::iter`]).
#[derive(Debug, Clone)]
pub struct NodeSetIter {
    bits: [u64; NodeSet::WORDS],
    word: usize,
}

impl Iterator for NodeSetIter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.word < NodeSet::WORDS {
            let w = self.bits[self.word];
            if w == 0 {
                self.word += 1;
                continue;
            }
            let bit = w.trailing_zeros() as usize;
            self.bits[self.word] &= w - 1; // clear the lowest set bit
            return Some(NodeId(self.word * 64 + bit));
        }
        None
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut set = NodeSet::default();
        for n in iter {
            set.insert(n);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_numbering() {
        let m = MeshTopology::new(8, 8);
        assert_eq!(m.coord(NodeId(0)), Coord::new(0, 0));
        assert_eq!(m.coord(NodeId(7)), Coord::new(7, 0));
        assert_eq!(m.coord(NodeId(8)), Coord::new(0, 1));
        assert_eq!(m.coord(NodeId(63)), Coord::new(7, 7));
        assert_eq!(m.node_at(Coord::new(3, 4)), NodeId(35));
    }

    #[test]
    fn coord_roundtrip() {
        let m = MeshTopology::new(6, 9);
        for n in m.iter_nodes() {
            assert_eq!(m.node_at(m.coord(n)), n);
        }
    }

    #[test]
    fn manhattan_distance() {
        let m = MeshTopology::new(8, 8);
        assert_eq!(m.distance(NodeId(0), NodeId(63)), 14);
        assert_eq!(m.distance(NodeId(0), NodeId(0)), 0);
        assert_eq!(m.distance(NodeId(0), NodeId(7)), 7);
        assert_eq!(m.distance(NodeId(0), NodeId(56)), 7);
    }

    #[test]
    fn neighbors_corner_and_center() {
        let m = MeshTopology::new(8, 8);
        assert_eq!(m.neighbors(NodeId(0)).len(), 2);
        assert_eq!(m.neighbors(NodeId(7)).len(), 2);
        assert_eq!(m.neighbors(NodeId(9)).len(), 4);
        let center = m.node_at(Coord::new(4, 4));
        assert_eq!(m.neighbors(center).len(), 4);
    }

    #[test]
    fn rows_and_columns() {
        let m = MeshTopology::new(4, 3);
        assert_eq!(m.row(1), vec![NodeId(4), NodeId(5), NodeId(6), NodeId(7)]);
        assert_eq!(m.column(2), vec![NodeId(2), NodeId(6), NodeId(10)]);
    }

    #[test]
    fn edge_nodes() {
        let m = MeshTopology::new(8, 8);
        assert_eq!(m.edge_node(MeshEdge::North, 3), NodeId(3));
        assert_eq!(m.edge_node(MeshEdge::South, 3), NodeId(59));
        assert_eq!(m.edge_node(MeshEdge::West, 2), NodeId(16));
        assert_eq!(m.edge_node(MeshEdge::East, 2), NodeId(23));
    }

    #[test]
    fn controller_placement_on_north_south() {
        let m = MeshTopology::new(8, 8);
        let mcs = m.place_controllers(4, &[MeshEdge::North, MeshEdge::South]);
        assert_eq!(mcs.len(), 4);
        // Two on the north edge (row 0), two on the south edge (row 7).
        let north = mcs.iter().filter(|n| m.coord(**n).y == 0).count();
        let south = mcs.iter().filter(|n| m.coord(**n).y == 7).count();
        assert_eq!(north, 2);
        assert_eq!(south, 2);
    }

    #[test]
    fn link_slots_are_distinct_per_directional_link() {
        let m = MeshTopology::new(4, 3);
        let mut seen = vec![false; m.link_slots()];
        for a in m.iter_nodes() {
            for b in m.neighbors(a) {
                let slot = m.link_slot(a, b).expect("neighbours share a link");
                assert!(!seen[slot], "slot {slot} reused");
                seen[slot] = true;
            }
        }
        assert_eq!(m.link_slot(NodeId(0), NodeId(1)), Some(0));
        assert_eq!(m.link_slot(NodeId(5), NodeId(1)), Some(5 * 4 + 3));
        for (a, b) in [(0, 5), (3, 4), (2, 2), (0, 12)] {
            assert_eq!(m.link_slot(NodeId(a), NodeId(b)), None, "({a}, {b}) is not a link");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_panics() {
        let m = MeshTopology::new(2, 2);
        m.coord(NodeId(4));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        MeshTopology::new(0, 4);
    }

    #[test]
    fn node_set_words_round_trip() {
        let set: NodeSet = [NodeId(1), NodeId(64), NodeId(200)].into_iter().collect();
        let words: Vec<u64> = (0..4).map(|i| set.word(i)).collect();
        assert_eq!(words, [1 << 1, 1, 0, 1 << 8]);
        assert_eq!(NodeSet::from_words(words), set);
        assert_eq!(NodeSet::from_words([1 << 5]), [NodeId(5)].into_iter().collect());
        assert_eq!(set.word(4), 0, "words beyond the storage are empty");
    }

    #[test]
    #[should_panic(expected = "up to 256 nodes")]
    fn node_set_from_too_many_words_panics() {
        NodeSet::from_words([0; 5]);
    }

    #[test]
    fn node_set_membership() {
        let mut set = NodeSet::with_capacity(64);
        assert!(set.is_empty());
        assert!(set.insert(NodeId(3)));
        assert!(!set.insert(NodeId(3)), "re-insertion reports not-new");
        set.insert(NodeId(63));
        assert!(set.contains(NodeId(3)));
        assert!(set.contains(NodeId(63)));
        assert!(!set.contains(NodeId(4)));
        assert!(!set.contains(NodeId(1000)), "out-of-range nodes are absent, not a panic");
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }

    #[test]
    fn node_set_grows_and_collects() {
        let set: NodeSet = [NodeId(0), NodeId(130), NodeId(7)].into_iter().collect();
        assert!(set.contains(NodeId(130)));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn node_set_iterates_in_ascending_order() {
        let set: NodeSet = [NodeId(200), NodeId(3), NodeId(64), NodeId(0)].into_iter().collect();
        let order: Vec<usize> = set.iter().map(|n| n.0).collect();
        assert_eq!(order, vec![0, 3, 64, 200]);
        let mut cleared = set;
        cleared.clear();
        assert!(cleared.is_empty());
        assert_eq!(cleared.iter().count(), 0);
        // `set` is Copy: the original is untouched by mutating the copy.
        assert_eq!(set.len(), 4);
    }

    #[test]
    #[should_panic(expected = "up to 256 nodes")]
    fn node_set_rejects_out_of_range_insert() {
        NodeSet::default().insert(NodeId(256));
    }
}
