//! Analytical NoC latency and contention model.
//!
//! The reproduction does not simulate individual flits. Instead each packet
//! traversal is charged `router_cycles + link_cycles` per hop plus a
//! serialisation term for multi-flit packets, and a contention term derived
//! from the running utilisation of the links the packet crosses. This keeps
//! the per-access cost of the simulator low while preserving the first-order
//! effects the paper relies on: longer routes cost more, and concentrating a
//! cluster's traffic on fewer tiles raises its queueing delay.
//!
//! Each link owns one dense slot ([`MeshTopology::link_slot`]), so charging
//! a packet over the link slots of a [`RouteTable`](crate::RouteTable) entry
//! is one array update per hop and allocates nothing.

use std::fmt;

use crate::routing::RouteIter;
use crate::topology::{MeshTopology, NodeId};

/// Latency parameters of the mesh network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocLatencyConfig {
    /// Cycles spent in each router (arbitration + crossbar).
    pub router_cycles: u64,
    /// Cycles spent on each link.
    pub link_cycles: u64,
    /// Additional serialisation cycles per flit beyond the first.
    pub serialization_cycles: u64,
    /// Maximum extra cycles per hop injected by contention at full load.
    pub max_contention_cycles: u64,
    /// Exponential-moving-average weight used by the link-load tracker
    /// (between 0 and 1; higher forgets faster).
    pub load_ema: f64,
}

impl Default for NocLatencyConfig {
    /// Parameters approximating a Tile-Gx-class single-cycle-per-hop mesh.
    fn default() -> Self {
        NocLatencyConfig {
            router_cycles: 1,
            link_cycles: 1,
            serialization_cycles: 1,
            max_contention_cycles: 4,
            load_ema: 0.05,
        }
    }
}

/// Rounds a cycle estimate to the nearest whole cycle, halves up: the value
/// `v.round() as u64` gives for every `f64`, but computed by truncating and
/// comparing the fractional part with 0.5 instead of calling `f64::round`,
/// which the baseline x86-64 target compiles to a software routine. The
/// fractional part is exact: truncation keeps an `f64`'s integer part
/// exactly, and subtracting it from the value is exact (Sterbenz). The NoC
/// contention term and the memory controllers' queue estimate both round
/// through here.
#[inline]
pub fn round_half_up(v: f64) -> u64 {
    let whole = v as u64;
    whole.saturating_add(u64::from(v - whole as f64 >= 0.5))
}

/// The error for a link fault on a node pair that is not a mesh link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotALink {
    /// The pair's first node.
    pub from: NodeId,
    /// The pair's second node.
    pub to: NodeId,
}

impl fmt::Display for NotALink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}) is not a mesh link", self.from, self.to)
    }
}

impl std::error::Error for NotALink {}

/// Tracks per-link utilisation with an exponential moving average, one
/// dense entry per link slot.
#[derive(Debug, Clone)]
pub struct LinkLoad {
    load: Vec<f64>,
}

impl LinkLoad {
    /// Creates a quiet tracker for `slots` link slots.
    pub fn new(slots: usize) -> Self {
        LinkLoad { load: vec![0.0; slots] }
    }

    /// Returns the utilisation of link `slot` *before* this packet, in flits
    /// per recorded packet, then records the packet's `flits`.
    #[inline]
    pub fn observe_and_record(&mut self, slot: usize, flits: usize, ema: f64) -> f64 {
        let entry = &mut self.load[slot];
        let before = *entry;
        *entry = (1.0 - ema) * before + ema * flits as f64;
        before
    }

    /// Clears all recorded load (used when the network is purged or
    /// reconfigured).
    pub fn reset(&mut self) {
        self.load.fill(0.0);
    }
}

/// Computes packet latencies over routes and maintains the link-load state.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    config: NocLatencyConfig,
    topology: MeshTopology,
    load: LinkLoad,
    /// Extra per-traversal cycles charged on each degraded directional link,
    /// by link slot (0 on a healthy link).
    link_faults: Vec<u64>,
}

impl LatencyModel {
    /// Creates a latency model with the given parameters for the links of
    /// `topology`.
    pub fn new(config: NocLatencyConfig, topology: MeshTopology) -> Self {
        let slots = topology.link_slots();
        LatencyModel { config, topology, load: LinkLoad::new(slots), link_faults: vec![0; slots] }
    }

    /// The configuration in use.
    pub fn config(&self) -> &NocLatencyConfig {
        &self.config
    }

    /// Marks the directional link `(from, to)` as degraded: every packet
    /// crossing it is charged `penalty_cycles` on top of the healthy-link
    /// cost. A penalty of zero removes the fault. Fault injection sets both
    /// directions when a physical link (rather than one channel of it) fails.
    ///
    /// # Errors
    ///
    /// Returns [`NotALink`] when `from` and `to` are not mesh neighbours: no
    /// packet ever crosses such a pair.
    pub fn set_link_fault(
        &mut self,
        from: NodeId,
        to: NodeId,
        penalty_cycles: u64,
    ) -> Result<(), NotALink> {
        let slot = self.topology.link_slot(from, to).ok_or(NotALink { from, to })?;
        self.link_faults[slot] = penalty_cycles;
        Ok(())
    }

    /// The degradation penalty currently charged on `(from, to)` (0 if the
    /// link is healthy or the pair is not a link).
    pub fn link_fault(&self, from: NodeId, to: NodeId) -> u64 {
        self.topology.link_slot(from, to).map_or(0, |slot| self.link_faults[slot])
    }

    /// Number of directional links currently marked degraded.
    pub fn faulted_links(&self) -> usize {
        self.link_faults.iter().filter(|&&penalty| penalty > 0).count()
    }

    /// Clears every link fault, restoring a healthy network. Unlike
    /// [`LatencyModel::reset_load`], this is *not* part of a network purge —
    /// purging queues does not repair hardware — so only machine-level resets
    /// call it.
    pub fn clear_link_faults(&mut self) {
        self.link_faults.fill(0);
    }

    /// Latency, in cycles, of sending a packet of `flits` flits along `route`,
    /// updating link load along the way.
    pub fn traverse(&mut self, route: RouteIter, flits: usize) -> u64 {
        let topology = self.topology;
        let hops = route.hops();
        let slots = route.links().map(move |(from, to)| {
            topology.link_slot(from, to).expect("route links join mesh neighbours")
        });
        self.charge(slots, hops, flits)
    }

    /// Latency of a packet of `flits` flits over the link slots of a
    /// resolved route, updating link load along the way. Byte-identical to
    /// [`LatencyModel::traverse`] over the route that produced `links`.
    #[inline]
    pub fn traverse_links(&mut self, links: &[u16], flits: usize) -> u64 {
        self.charge(links.iter().map(|&slot| slot as usize), links.len(), flits)
    }

    /// The one charging loop behind both entry points: per-hop router + link
    /// cycles, the serialisation term for multi-flit packets, a contention
    /// term from each link's load before this packet, and any fault
    /// penalties.
    #[inline]
    fn charge(&mut self, slots: impl Iterator<Item = usize>, hops: usize, flits: usize) -> u64 {
        if hops == 0 {
            return 0;
        }
        let mut contention = 0.0;
        let mut fault_penalty = 0u64;
        for slot in slots {
            let util = self.load.observe_and_record(slot, flits, self.config.load_ema);
            // Saturating logistic-ish penalty: util is in flits/packet, a link
            // carrying full data packets every cycle approaches the max.
            let norm = (util / 5.0).min(1.0);
            contention += norm * self.config.max_contention_cycles as f64;
            fault_penalty += self.link_faults[slot];
        }
        let per_hop = self.config.router_cycles + self.config.link_cycles;
        let serialization = self.config.serialization_cycles * flits.saturating_sub(1) as u64;
        per_hop * hops as u64 + serialization + round_half_up(contention) + fault_penalty
    }

    /// Clears the contention state (network purge / reconfiguration).
    pub fn reset_load(&mut self) {
        self.load.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingAlgorithm;

    fn model(m: MeshTopology) -> LatencyModel {
        LatencyModel::new(NocLatencyConfig::default(), m)
    }

    fn slots(m: MeshTopology, r: RouteIter) -> Vec<u16> {
        r.links().map(|(from, to)| m.link_slot(from, to).unwrap() as u16).collect()
    }

    #[test]
    fn round_half_up_matches_f64_round() {
        let edges = [
            0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            (1u64 << 52) as f64 - 0.5,
            (1u64 << 52) as f64 + 1.0,
            -0.5,
            -2.5,
            f64::NAN,
            f64::INFINITY,
            1e30,
        ];
        for v in edges {
            assert_eq!(round_half_up(v), v.round() as u64, "{v:?}");
        }
        // Values shaped like the two callers': a queue-occupancy EMA towards
        // changing targets, and per-hop contention sums of EMA link loads.
        let (mut queue, mut load) = (0.0f64, 0.0f64);
        for i in 0..20_000u64 {
            let target = ((i * 7919) % 17) as f64;
            queue = 0.9 * queue + 0.1 * target;
            load = 0.95 * load + 0.05 * if i % 3 == 0 { 5.0 } else { 1.0 };
            let contention = (1..=(i % 15)).map(|h| (load * h as f64 / 5.0).min(1.0) * 4.0).sum();
            for v in [queue, contention, load * 1e6] {
                assert_eq!(round_half_up(v), v.round() as u64, "{v:?}");
            }
        }
    }

    #[test]
    fn zero_hop_route_is_free() {
        let m = MeshTopology::new(4, 4);
        let r = m.route_iter(NodeId(3), NodeId(3), RoutingAlgorithm::XY);
        let mut model = model(m);
        assert_eq!(model.traverse(r, 5), 0);
        assert_eq!(model.traverse_links(&[], 5), 0);
    }

    #[test]
    fn latency_scales_with_distance() {
        let m = MeshTopology::new(8, 8);
        let near = m.route_iter(NodeId(0), NodeId(1), RoutingAlgorithm::XY);
        let far = m.route_iter(NodeId(0), NodeId(63), RoutingAlgorithm::XY);
        // On a cold network only the base cost is charged.
        assert_eq!(model(m).traverse(near, 1), 2);
        assert_eq!(model(m).traverse(far, 1), 28);
    }

    #[test]
    fn serialization_adds_for_data_packets() {
        let m = MeshTopology::new(8, 8);
        let r = m.route_iter(NodeId(0), NodeId(7), RoutingAlgorithm::XY);
        assert_eq!(model(m).traverse(r, 5) - model(m).traverse(r, 1), 4);
    }

    #[test]
    fn traverse_links_matches_traverse() {
        let m = MeshTopology::new(8, 8);
        let mut a = model(m);
        let mut b = model(m);
        let r = m.route_iter(NodeId(2), NodeId(45), RoutingAlgorithm::XY);
        let links = slots(m, r);
        // Repeated traffic builds identical load state through both entry
        // points, packet by packet.
        for i in 0..200 {
            let flits = if i % 3 == 0 { 5 } else { 1 };
            assert_eq!(a.traverse(r, flits), b.traverse_links(&links, flits), "packet {i}");
        }
    }

    #[test]
    fn contention_builds_up_under_load() {
        let m = MeshTopology::new(8, 8);
        let mut model = model(m);
        let r = m.route_iter(NodeId(0), NodeId(7), RoutingAlgorithm::XY);
        let cold = model.traverse(r, 5);
        for _ in 0..500 {
            model.traverse(r, 5);
        }
        let hot = model.traverse(r, 5);
        assert!(hot > cold, "repeated traffic on a link must raise latency ({hot} <= {cold})");
        model.reset_load();
        assert_eq!(model.traverse(r, 5), cold);
    }

    #[test]
    fn link_faults_charge_identically_through_both_entry_points() {
        let m = MeshTopology::new(8, 8);
        let mut a = model(m);
        let mut b = model(m);
        let r = m.route_iter(NodeId(2), NodeId(45), RoutingAlgorithm::XY);
        let (from, to) = r.links().nth(1).unwrap();
        a.set_link_fault(from, to, 37).unwrap();
        b.set_link_fault(from, to, 37).unwrap();
        let links = slots(m, r);
        for i in 0..100 {
            let flits = if i % 3 == 0 { 5 } else { 1 };
            assert_eq!(a.traverse(r, flits), b.traverse_links(&links, flits), "packet {i}");
        }
        // Off-route faults cost nothing; clearing restores the healthy cost.
        let mut healthy = model(m);
        let mut elsewhere = model(m);
        elsewhere.set_link_fault(NodeId(60), NodeId(61), 1_000).unwrap();
        assert_eq!(elsewhere.traverse(r, 5), healthy.traverse(r, 5));
        a.clear_link_faults();
        assert_eq!(a.faulted_links(), 0);
    }

    #[test]
    fn link_fault_raises_traversal_cost_by_its_penalty() {
        let m = MeshTopology::new(8, 8);
        let mut healthy = model(m);
        let r = m.route_iter(NodeId(0), NodeId(7), RoutingAlgorithm::XY);
        let mut faulted = model(m);
        faulted.set_link_fault(NodeId(0), NodeId(1), 50).unwrap();
        faulted.set_link_fault(NodeId(3), NodeId(4), 9).unwrap();
        assert_eq!(faulted.traverse(r, 5), healthy.traverse(r, 5) + 59);
        assert_eq!(faulted.link_fault(NodeId(0), NodeId(1)), 50);
        // A zero penalty removes the fault entirely.
        faulted.set_link_fault(NodeId(0), NodeId(1), 0).unwrap();
        assert_eq!(faulted.faulted_links(), 1);
        // reset_load (a network purge) must NOT repair the hardware.
        faulted.reset_load();
        assert_eq!(faulted.link_fault(NodeId(3), NodeId(4)), 9);
    }
}
