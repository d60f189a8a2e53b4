//! # ironhide-mesh
//!
//! A 2-D mesh on-chip network (NoC) model for the IRONHIDE reproduction.
//!
//! The paper's target machine (a Tilera Tile-Gx72-class tiled multicore) routes
//! all cache and memory traffic over a 2-D mesh with *deterministic* dimension
//! ordered routing. IRONHIDE's strong isolation depends on two properties of
//! this network:
//!
//! 1. **Determinism** — given a source, a destination and a routing function
//!    (X-Y or Y-X), the path is fully determined, so it can be *audited* at
//!    cluster-formation time.
//! 2. **Containment** — with rows of cores assigned to a cluster and that
//!    cluster's memory controllers on its outside edge, dimension-ordered
//!    routing never carries a packet through a router owned by the other
//!    cluster. When a cluster boundary cuts through a row, the complementary
//!    routing order (Y-X) restores containment, which is why the paper requires
//!    *bidirectional* deterministic routing.
//!
//! This crate provides the topology ([`MeshTopology`]), the routing functions
//! ([`Route`], [`RoutingAlgorithm`]), a cluster map with containment checking
//! and automatic routing-order selection ([`ClusterMap`]), the table of every
//! route one cluster map selects ([`RouteTable`]), a latency/contention model
//! ([`LatencyModel`], [`LinkLoad`]) and traffic statistics ([`NocStats`]).
//!
//! # Example
//!
//! ```
//! use ironhide_mesh::{MeshTopology, NodeId, RoutingAlgorithm};
//!
//! let mesh = MeshTopology::new(8, 8);
//! let route = mesh.route(NodeId(0), NodeId(63), RoutingAlgorithm::XY);
//! assert_eq!(route.hops(), 14); // 7 in X, then 7 in Y
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
pub mod latency;
pub mod packet;
pub mod routing;
pub mod stats;
pub mod topology;

/// The shared deterministic hasher, re-exported for downstream crates.
pub use ironhide_fx as fx;

pub use cluster::{ClusterId, ClusterMap, IsolationViolation};
pub use ironhide_fx::{FxHashMap, FxHashSet, FxHasher};
pub use latency::{round_half_up, LatencyModel, LinkLoad, NocLatencyConfig, NotALink};
pub use packet::PacketKind;
pub use routing::{Route, RouteIter, RouteLinks, RouteTable, RoutingAlgorithm, TableRoute};
pub use stats::NocStats;
pub use topology::{Coord, MeshEdge, MeshTopology, NodeId, NodeSet, NodeSetIter};
