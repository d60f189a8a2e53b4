//! Differential tests for the allocation-free hot path.
//!
//! PR 2 flattened `SetAssocCache` storage (nested per-set vectors → one
//! contiguous way array with shift/mask indexing) and replaced materialised
//! `Route`s with the lazily-stepped `RouteIter`. These properties drive the
//! optimised implementations against naive reference models — a nested-vec
//! cache and a step-loop route materialiser transcribed from the seed code —
//! over random access/route sequences and require identical outcomes, stats,
//! hops and link sequences.

use proptest::prelude::*;

use ironhide::ironhide_cache::{AccessOutcome, CacheConfig, Evicted, SetAssocCache, SliceId};
use ironhide::ironhide_mesh::{
    ClusterId, ClusterMap, Coord, MeshTopology, NodeId, RoutingAlgorithm,
};
use ironhide::ironhide_sim::config::MachineConfig;
use ironhide::ironhide_sim::machine::Machine;
use ironhide::ironhide_sim::process::SecurityClass;
use ironhide::ironhide_sim::stream::{RefRun, RefStream};

// ---------------------------------------------------------------------------
// Reference cache: the seed's nested-vec implementation, div/mod indexing and
// a temporary stamp vector for LRU victim selection.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
struct RefWay {
    valid: bool,
    dirty: bool,
    tag: u64,
    last_use: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct RefStats {
    accesses: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    writebacks: u64,
    flushed_lines: u64,
    purges: u64,
}

struct RefCache {
    config: CacheConfig,
    sets: Vec<Vec<RefWay>>,
    tick: u64,
    stats: RefStats,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        RefCache {
            sets: vec![vec![RefWay::default(); config.ways]; config.sets()],
            config,
            tick: 0,
            stats: RefStats::default(),
        }
    }

    fn index_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.config.line_bytes as u64;
        let index = (line % self.config.sets() as u64) as usize;
        let tag = line / self.config.sets() as u64;
        (index, tag)
    }

    fn line_addr(&self, index: usize, tag: u64) -> u64 {
        (tag * self.config.sets() as u64 + index as u64) * self.config.line_bytes as u64
    }

    /// The seed's LRU victim selection: copy the stamps into a temporary,
    /// then take the first minimum.
    fn ref_victim(&self, set: &[RefWay]) -> usize {
        let last_use: Vec<u64> = set.iter().map(|w| w.last_use).collect();
        let mut best = 0;
        for (i, v) in last_use.iter().enumerate() {
            if *v < last_use[best] {
                best = i;
            }
        }
        best
    }

    fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        self.tick += 1;
        self.stats.accesses += 1;
        let (index, tag) = self.index_and_tag(addr);
        let set = &mut self.sets[index];
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.last_use = self.tick;
            way.dirty |= write;
            self.stats.hits += 1;
            return AccessOutcome::Hit;
        }
        self.stats.misses += 1;
        let victim_idx = match set.iter().position(|w| !w.valid) {
            Some(i) => i,
            None => self.ref_victim(&self.sets[index]),
        };
        let victim = self.sets[index][victim_idx];
        let evicted = if victim.valid {
            self.stats.evictions += 1;
            if victim.dirty {
                self.stats.writebacks += 1;
            }
            Some(Evicted { addr: self.line_addr(index, victim.tag), dirty: victim.dirty })
        } else {
            None
        };
        self.sets[index][victim_idx] =
            RefWay { valid: true, dirty: write, tag, last_use: self.tick };
        AccessOutcome::Miss { evicted }
    }

    fn invalidate(&mut self, addr: u64) -> Option<Evicted> {
        let (index, tag) = self.index_and_tag(addr);
        let line_addr = self.line_addr(index, tag);
        let way = self.sets[index].iter_mut().find(|w| w.valid && w.tag == tag)?;
        let dirty = way.dirty;
        way.valid = false;
        way.dirty = false;
        self.stats.flushed_lines += 1;
        if dirty {
            self.stats.writebacks += 1;
        }
        Some(Evicted { addr: line_addr, dirty })
    }

    fn purge(&mut self) -> u64 {
        let mut dirty = 0;
        let mut valid = 0;
        for set in &mut self.sets {
            for way in set.iter_mut() {
                if way.valid {
                    valid += 1;
                    if way.dirty {
                        dirty += 1;
                    }
                }
                *way = RefWay::default();
            }
        }
        self.stats.purges += 1;
        self.stats.flushed_lines += valid;
        self.stats.writebacks += dirty;
        dirty
    }

    fn probe(&self, addr: u64) -> bool {
        let (index, tag) = self.index_and_tag(addr);
        self.sets[index].iter().any(|w| w.valid && w.tag == tag)
    }

    fn resident_lines(&self) -> usize {
        self.sets.iter().flatten().filter(|w| w.valid).count()
    }

    fn dirty_lines(&self) -> usize {
        self.sets.iter().flatten().filter(|w| w.valid && w.dirty).count()
    }
}

fn geometry(idx: usize) -> CacheConfig {
    match idx % 4 {
        0 => CacheConfig::new(512, 2, 64),
        1 => CacheConfig::new(2048, 4, 64),
        2 => CacheConfig::new(1024, 1, 128), // direct-mapped, wide lines
        _ => CacheConfig::new(4096, 8, 32),
    }
}

// ---------------------------------------------------------------------------
// Reference route: the seed's step-loop materialiser.
// ---------------------------------------------------------------------------

fn ref_route(
    m: &MeshTopology,
    src: NodeId,
    dst: NodeId,
    algorithm: RoutingAlgorithm,
) -> Vec<NodeId> {
    let s = m.coord(src);
    let d = m.coord(dst);
    let mut nodes = vec![src];
    let mut cur = s;
    let step = |cur: &mut Coord, nodes: &mut Vec<NodeId>, dim_x: bool, target: usize| loop {
        let v = if dim_x { cur.x } else { cur.y };
        if v == target {
            break;
        }
        let next = if v < target { v + 1 } else { v - 1 };
        if dim_x {
            cur.x = next;
        } else {
            cur.y = next;
        }
        nodes.push(m.node_at(*cur));
    };
    match algorithm {
        RoutingAlgorithm::XY => {
            step(&mut cur, &mut nodes, true, d.x);
            step(&mut cur, &mut nodes, false, d.y);
        }
        RoutingAlgorithm::YX => {
            step(&mut cur, &mut nodes, false, d.y);
            step(&mut cur, &mut nodes, true, d.x);
        }
    }
    nodes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The flattened cache and the nested-vec reference agree on every
    /// outcome, statistic and state query over random access sequences with
    /// interleaved invalidates and purges, for every geometry.
    #[test]
    fn flat_cache_matches_nested_reference(
        geo in 0usize..4,
        addrs in prop::collection::vec(0u64..0x8000, 1..400),
        writes in prop::collection::vec(any::<bool>(), 1..400),
        ops in prop::collection::vec(0u8..32, 1..400),
    ) {
        let config = geometry(geo);
        let mut flat = SetAssocCache::new(config);
        let mut reference = RefCache::new(config);
        for (i, addr) in addrs.iter().enumerate() {
            let write = writes[i % writes.len()];
            match ops[i % ops.len()] {
                // Rare maintenance operations, interleaved with accesses.
                0 => prop_assert_eq!(flat.invalidate(*addr), reference.invalidate(*addr)),
                1 if i % 97 == 0 => prop_assert_eq!(flat.purge(), reference.purge()),
                _ => {
                    let a = flat.access(*addr, write);
                    let b = reference.access(*addr, write);
                    prop_assert_eq!(a, b, "access #{} addr {:#x}", i, addr);
                }
            }
            prop_assert_eq!(flat.probe(*addr), reference.probe(*addr));
        }
        let s = flat.stats();
        prop_assert_eq!(s.accesses, reference.stats.accesses);
        prop_assert_eq!(s.hits, reference.stats.hits);
        prop_assert_eq!(s.misses, reference.stats.misses);
        prop_assert_eq!(s.evictions, reference.stats.evictions);
        prop_assert_eq!(s.writebacks, reference.stats.writebacks);
        prop_assert_eq!(s.flushed_lines, reference.stats.flushed_lines);
        prop_assert_eq!(s.purges, reference.stats.purges);
        prop_assert_eq!(flat.resident_lines(), reference.resident_lines());
        prop_assert_eq!(flat.dirty_lines(), reference.dirty_lines());
    }

    /// `RouteIter` yields exactly the node and link sequences of the seed's
    /// materialising router, with matching hop counts, on random meshes.
    #[test]
    fn route_iter_matches_materialising_reference(
        w in 1usize..12,
        h in 1usize..12,
        src_raw in 0usize..144,
        dst_raw in 0usize..144,
        yx in any::<bool>(),
    ) {
        let m = MeshTopology::new(w, h);
        let src = NodeId(src_raw % m.nodes());
        let dst = NodeId(dst_raw % m.nodes());
        let alg = if yx { RoutingAlgorithm::YX } else { RoutingAlgorithm::XY };
        let expected = ref_route(&m, src, dst, alg);

        let iter = m.route_iter(src, dst, alg);
        prop_assert_eq!(iter.hops(), expected.len() - 1);
        prop_assert_eq!(iter.source(), src);
        prop_assert_eq!(iter.destination(), dst);
        prop_assert_eq!(iter.collect::<Vec<_>>(), expected.clone());
        let expected_links: Vec<(NodeId, NodeId)> =
            expected.windows(2).map(|p| (p[0], p[1])).collect();
        prop_assert_eq!(iter.links().collect::<Vec<_>>(), expected_links);

        // The materialised Route is itself built from the iterator; it must
        // agree with the reference too.
        let route = m.route(src, dst, alg);
        prop_assert_eq!(route.nodes(), &expected[..]);
        prop_assert_eq!(route.hops(), expected.len() - 1);
    }

    /// `contained_route` (now iterator-form) picks the same routing order the
    /// reference audit would: X-Y when the X-Y path stays inside the cluster,
    /// else Y-X when that one does, else an isolation error.
    #[test]
    fn contained_route_order_matches_reference_audit(
        secure_cores in 0usize..65,
        src_raw in 0usize..64,
        dst_raw in 0usize..64,
    ) {
        let m = MeshTopology::new(8, 8);
        let map = ClusterMap::row_major_split(m, secure_cores);
        let src = NodeId(src_raw);
        let dst = NodeId(dst_raw);
        let cluster = map.cluster_of(src);
        // Only intra-cluster pairs go through containment selection.
        if map.cluster_of(dst) == cluster {
            let contained = |alg| ref_route(&m, src, dst, alg)
                .iter()
                .all(|n| map.cluster_of(*n) == cluster);
            match map.contained_route(src, dst, cluster) {
                Ok(route) => {
                    if contained(RoutingAlgorithm::XY) {
                        prop_assert_eq!(route.algorithm(), RoutingAlgorithm::XY);
                    } else {
                        prop_assert!(contained(RoutingAlgorithm::YX));
                        prop_assert_eq!(route.algorithm(), RoutingAlgorithm::YX);
                    }
                    let nodes = ref_route(&m, src, dst, route.algorithm());
                    prop_assert_eq!(route.collect::<Vec<_>>(), nodes);
                }
                Err(violation) => {
                    prop_assert!(!contained(RoutingAlgorithm::XY));
                    prop_assert!(!contained(RoutingAlgorithm::YX));
                    prop_assert_eq!(violation.cluster, cluster);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Batched access engine vs the scalar reference path.
// ---------------------------------------------------------------------------

/// One step of the differential driver: either a run-encoded reference
/// burst on some core, or a maintenance operation interleaved between
/// bursts (the operations the execution architectures perform mid-stream).
/// A `Run` goes through the batched engine on one machine and through
/// scalar `Machine::access` on the other; a `Scalar` burst goes through
/// `Machine::access` on both, so the batched machine mixes both entry
/// points over one page memo and one set of directory hints.
#[derive(Debug, Clone)]
enum MachineOp {
    Run { core: usize, base: u64, stride: u64, len: u32, write: bool },
    Scalar { core: usize, base: u64, stride: u64, len: u32, write: bool },
    PurgeCore(usize),
    PurgeSlices(usize),
    PurgeAll,
    PurgeNetwork,
    IpcMarker(bool),
    RestrictSlices(usize),
}

/// Decodes one sampled word into a driver step (the vendored proptest shim
/// has no tuple/oneof combinators, so structure is derived from plain
/// `u64`s). Strides exercise every engine path: the same line (0, sub-line
/// 8/24), line sweeps (64), line-skipping (96/160), page-boundary straddles,
/// whole pages (4096), larger-than-page jumps, and descending
/// (wrapping-negative) sweeps. Two run flavours interleave: wide-window
/// runs (capacity pressure, directory conflicts) and narrow-window "shared"
/// runs, whose dense same-line collisions across the four cores drive the
/// MESI read-shared / write-upgrade / invalidation transitions the
/// coherence layer must replay byte-identically in both engines.
fn decode_op(word: u64) -> MachineOp {
    const STRIDES: [u64; 11] =
        [0, 8, 24, 64, 96, 160, 2048, 4096, 12288, 0u64.wrapping_sub(64), 0u64.wrapping_sub(4096)];
    // Low bits pick the op class; runs are ~8x as likely as each
    // maintenance op.
    match word % 16 {
        0 => MachineOp::PurgeCore((word >> 8) as usize % 4),
        1 => MachineOp::PurgeSlices((word >> 8) as usize % 4),
        2 => MachineOp::PurgeNetwork,
        3 => MachineOp::IpcMarker((word >> 8).is_multiple_of(2)),
        4 => {
            let s = (word >> 8) as usize % 4;
            MachineOp::RestrictSlices(s)
        }
        5 => MachineOp::PurgeAll,
        // Tight sharing: a two-page window all four cores keep re-touching.
        6 | 7 => MachineOp::Run {
            core: (word >> 4) as usize % 4,
            base: 0x20_0000 + ((word >> 8) % 0x2000),
            stride: STRIDES[(word >> 24) as usize % STRIDES.len()],
            len: 1 + ((word >> 32) % 48) as u32,
            write: (word >> 40).is_multiple_of(2),
        },
        // Scalar accesses into the same window, between batched runs.
        15 => MachineOp::Scalar {
            core: (word >> 4) as usize % 4,
            base: 0x20_0000 + ((word >> 8) % 0x2000),
            stride: STRIDES[(word >> 24) as usize % STRIDES.len()],
            len: 1 + ((word >> 32) % 48) as u32,
            write: (word >> 40).is_multiple_of(2),
        },
        _ => MachineOp::Run {
            core: (word >> 4) as usize % 4,
            // Park descending runs high enough that they never wrap below
            // address zero.
            base: 0x20_0000 + ((word >> 8) % 0x8000),
            stride: STRIDES[(word >> 24) as usize % STRIDES.len()],
            len: 1 + ((word >> 32) % 96) as u32,
            write: (word >> 40).is_multiple_of(2),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Machine::access_run`, alone or mixed with scalar calls on the same
    /// machine, is byte-identical to issuing the decoded references through
    /// scalar `Machine::access`: per-run latency sums, per-access
    /// latency-trace samples, every machine counter and every per-process
    /// counter, across random run-encoded streams with purge/invalidate
    /// interleavings (incl. page straddles, stride 0 and descending runs).
    #[test]
    fn batched_engine_matches_scalar_reference(words in prop::collection::vec(any::<u64>(), 1..60)) {
        let ops: Vec<MachineOp> = words.iter().map(|w| decode_op(*w)).collect();
        let mut batched = Machine::new(MachineConfig::small_test());
        let mut scalar = Machine::new(MachineConfig::small_test());
        let pid_b = batched.create_process("p", SecurityClass::Secure);
        let pid_s = scalar.create_process("p", SecurityClass::Secure);
        batched.enable_latency_trace(4096);
        scalar.enable_latency_trace(4096);
        for (i, op) in ops.iter().enumerate() {
            match op {
                MachineOp::Run { core, base, stride, len, write } => {
                    let run = RefRun::new(*base, *stride, *len, *write);
                    let got = batched.access_run(NodeId(*core), pid_b, run);
                    let mut want = 0u64;
                    for r in run.iter() {
                        want += scalar.access(NodeId(*core), pid_s, r.vaddr, r.write);
                    }
                    prop_assert_eq!(got, want, "op #{i}: {:?}", op);
                    prop_assert_eq!(batched.last_path(), scalar.last_path(), "op #{i}");
                }
                MachineOp::Scalar { core, base, stride, len, write } => {
                    for r in RefRun::new(*base, *stride, *len, *write).iter() {
                        prop_assert_eq!(
                            batched.access(NodeId(*core), pid_b, r.vaddr, r.write),
                            scalar.access(NodeId(*core), pid_s, r.vaddr, r.write),
                            "op #{i}: {:?}", op
                        );
                    }
                    prop_assert_eq!(batched.last_path(), scalar.last_path(), "op #{i}");
                }
                MachineOp::PurgeCore(c) => {
                    prop_assert_eq!(batched.purge_core(NodeId(*c)), scalar.purge_core(NodeId(*c)));
                }
                MachineOp::PurgeSlices(s) => {
                    prop_assert_eq!(
                        batched.purge_slices(&[SliceId(*s)]),
                        scalar.purge_slices(&[SliceId(*s)])
                    );
                }
                MachineOp::PurgeAll => {
                    prop_assert_eq!(batched.purge_all_private(), scalar.purge_all_private());
                }
                MachineOp::PurgeNetwork => {
                    prop_assert_eq!(batched.purge_network(), scalar.purge_network());
                }
                MachineOp::IpcMarker(on) => {
                    batched.set_ipc_marker(*on);
                    scalar.set_ipc_marker(*on);
                }
                MachineOp::RestrictSlices(s) => {
                    prop_assert_eq!(
                        batched.set_process_slices(pid_b, &[SliceId(*s), SliceId(3 - *s)]),
                        scalar.set_process_slices(pid_s, &[SliceId(*s), SliceId(3 - *s)])
                    );
                }
            }
        }
        let trace_b: Vec<u64> = batched.latency_trace().unwrap().iter().collect();
        let trace_s: Vec<u64> = scalar.latency_trace().unwrap().iter().collect();
        prop_assert_eq!(trace_b, trace_s);
        prop_assert_eq!(
            format!("{:?}", batched.stats()),
            format!("{:?}", scalar.stats())
        );
        prop_assert_eq!(
            format!("{:?}", batched.process_stats(pid_b)),
            format!("{:?}", scalar.process_stats(pid_s))
        );
    }

    /// A `RefStream` round-trips: greedy RLE encoding of an arbitrary
    /// reference sequence decodes back to exactly that sequence, and its
    /// one-pass lane split hands lane `k` exactly the references
    /// `[k·chunk, min((k+1)·chunk, n))`, in order, for every lane count a
    /// work unit can use.
    #[test]
    fn ref_stream_roundtrip_and_slicing(
        words in prop::collection::vec(any::<u64>(), 1..200),
    ) {
        let refs: Vec<ironhide::ironhide_sim::stream::MemRef> = words
            .iter()
            .map(|w| ironhide::ironhide_sim::stream::MemRef {
                vaddr: (w % 0x4000) * 8,
                write: (w >> 20) % 2 == 0,
            })
            .collect();
        let stream = RefStream::from_refs(refs.iter().copied());
        prop_assert_eq!(stream.len(), refs.len());
        prop_assert_eq!(stream.iter().collect::<Vec<_>>(), refs.clone());
        let n = refs.len();
        for lanes in 1..=64usize {
            let chunk = n.div_ceil(lanes);
            let mut decoded = vec![Vec::new(); lanes];
            let mut last_lane = 0;
            for (lane, piece) in stream.lanes(lanes) {
                prop_assert!(lane >= last_lane, "{} lanes: lane {} after {}", lanes, lane, last_lane);
                last_lane = lane;
                decoded[lane].extend(piece.iter());
            }
            for (k, got) in decoded.iter().enumerate() {
                let (lo, hi) = ((k * chunk).min(n), ((k + 1) * chunk).min(n));
                prop_assert_eq!(&got[..], &refs[lo..hi], "{} lanes, lane {}", lanes, k);
            }
        }
    }
}

/// The private-page directory fast path must actually fire on a
/// sole-sharer revisit workload — one page (64 lines) re-swept through a
/// 16-line L1, so every sweep after the first re-misses lines the
/// directory still tracks as privately held — and stay byte-identical to
/// the scalar reference path, which never consumes slot hints.
#[test]
fn private_page_fast_path_fires_and_stays_byte_identical() {
    let mut batched = Machine::new(MachineConfig::small_test());
    let mut scalar = Machine::new(MachineConfig::small_test());
    let pid_b = batched.create_process("p", SecurityClass::Secure);
    let pid_s = scalar.create_process("p", SecurityClass::Secure);
    for round in 0..4u32 {
        // Alternate read and write sweeps: the fast path must replay both
        // the Modified (write) and the Shared→Exclusive re-grant (read)
        // transitions identically.
        let run = RefRun::new(0x40_0000, 64, 64, round % 2 == 0);
        let got = batched.access_run(NodeId(0), pid_b, run);
        let mut want = 0u64;
        for r in run.iter() {
            want += scalar.access(NodeId(0), pid_s, r.vaddr, r.write);
        }
        assert_eq!(got, want, "round {round} diverged");
    }
    let fast: u64 = (0..4).map(|s| batched.directory(SliceId(s)).fast_hits()).sum();
    assert!(fast > 0, "the private-page fast path never fired");
    let slow: u64 = (0..4).map(|s| scalar.directory(SliceId(s)).fast_hits()).sum();
    assert_eq!(slow, 0, "the scalar reference must stay unmemoised");
    assert_eq!(format!("{:?}", batched.stats()), format!("{:?}", scalar.stats()));
}

/// A scalar access between two batched runs on one page must neither read
/// nor write the batched engine's page memo: core 0 reads half of one page
/// through `access_run`, misses on a page of another home through
/// `Machine::access`, then writes the page's other half through
/// `access_run` again, which keeps the memo bound to the first page. The
/// machine must match one that issues every reference through
/// `Machine::access`.
#[test]
fn scalar_calls_leave_the_batched_page_memo_alone() {
    let mut mixed = Machine::new(MachineConfig::small_test());
    let mut scalar = Machine::new(MachineConfig::small_test());
    let pid_m = mixed.create_process("p", SecurityClass::Secure);
    let pid_s = scalar.create_process("p", SecurityClass::Secure);
    let runs = [
        RefRun::new(0x40_0000, 64, 32, false),
        RefRun::new(0x40_1000, 64, 1, false),
        RefRun::new(0x40_0800, 64, 32, true),
    ];
    for (i, run) in runs.into_iter().enumerate() {
        let got = if i == 1 {
            mixed.access(NodeId(0), pid_m, run.base, run.write)
        } else {
            mixed.access_run(NodeId(0), pid_m, run)
        };
        let want: u64 = run.iter().map(|r| scalar.access(NodeId(0), pid_s, r.vaddr, r.write)).sum();
        assert_eq!(got, want, "run #{i} diverged");
        // The path names the home slice, which latencies alone may not show
        // on a 2×2 mesh.
        assert_eq!(mixed.last_path(), scalar.last_path(), "run #{i} diverged");
    }
    assert_eq!(format!("{:?}", mixed.stats()), format!("{:?}", scalar.stats()));
}

/// Stale resolved routes, memoised page homes and directory slot hints
/// must never survive `reset_pristine` or any route-affecting mutation: a
/// machine that ran a full prelude — cluster isolation, IPC-marked traffic,
/// restricted homes, traffic from every core — and was then reset must
/// behave byte-identically to a never-used machine over an op sequence
/// that itself reconfigures routing mid-stream. This pins three
/// invariants: the route table forgets its routes whenever the cluster map
/// is replaced (including the reset's return to no map); the page memo is
/// keyed by `route_epoch`, which the reset bumps; and `dir_hints` is never
/// cleared at all, because every hint is revalidated before use.
#[test]
fn stale_caches_never_survive_pristine_reset() {
    let topo = MeshTopology::new(2, 2);
    let mut warm = Machine::new(MachineConfig::small_test());
    let pid = warm.create_process("prelude", SecurityClass::Secure);
    warm.set_cluster_map(Some(ClusterMap::row_major_split(topo, 2)));
    warm.set_ipc_marker(true);
    warm.set_process_slices(pid, &[SliceId(1), SliceId(2)]);
    for core in 0..4 {
        warm.access_run(NodeId(core), pid, RefRun::new(0x30_0000, 64, 64, core % 2 == 0));
    }
    warm.reset_pristine();

    let mut fresh = Machine::new(MachineConfig::small_test());
    let pid_w = warm.create_process("p", SecurityClass::Secure);
    let pid_f = fresh.create_process("p", SecurityClass::Secure);
    warm.enable_latency_trace(4096);
    fresh.enable_latency_trace(4096);
    let sweep = |m: &mut Machine, pid| {
        let mut total = 0u64;
        for core in 0..4 {
            total += m.access_run(NodeId(core), pid, RefRun::new(0x30_0000, 64, 96, core >= 2));
        }
        total
    };
    assert_eq!(sweep(&mut warm, pid_w), sweep(&mut fresh, pid_f), "plain traffic");
    warm.set_cluster_map(Some(ClusterMap::row_major_split(topo, 2)));
    fresh.set_cluster_map(Some(ClusterMap::row_major_split(topo, 2)));
    assert_eq!(sweep(&mut warm, pid_w), sweep(&mut fresh, pid_f), "clustered traffic");
    warm.set_ipc_marker(true);
    fresh.set_ipc_marker(true);
    assert_eq!(sweep(&mut warm, pid_w), sweep(&mut fresh, pid_f), "IPC-marked traffic");
    warm.set_ipc_marker(false);
    fresh.set_ipc_marker(false);
    assert_eq!(
        warm.set_process_slices(pid_w, &[SliceId(0), SliceId(3)]),
        fresh.set_process_slices(pid_f, &[SliceId(0), SliceId(3)])
    );
    assert_eq!(sweep(&mut warm, pid_w), sweep(&mut fresh, pid_f), "rehomed traffic");
    warm.set_cluster_map(None);
    fresh.set_cluster_map(None);
    assert_eq!(sweep(&mut warm, pid_w), sweep(&mut fresh, pid_f), "de-clustered traffic");
    let trace_w: Vec<u64> = warm.latency_trace().unwrap().iter().collect();
    let trace_f: Vec<u64> = fresh.latency_trace().unwrap().iter().collect();
    assert_eq!(trace_w, trace_f);
    assert_eq!(format!("{:?}", warm.stats()), format!("{:?}", fresh.stats()));
}

/// The audit path never sees a cluster value disagree between the iterator
/// and materialised forms (plain test: a fixed interesting shape).
#[test]
fn split_row_cluster_still_rejected() {
    let m = MeshTopology::new(8, 8);
    let mut map = ClusterMap::row_major_split(m, 34);
    map.reassign(NodeId(38), ClusterId::Secure);
    // Same-row secure tiles separated by insecure tiles cannot be contained
    // by either deterministic order (see the seed's cluster tests).
    assert!(map.contained_route(NodeId(33), NodeId(38), ClusterId::Secure).is_err());
}

// ---------------------------------------------------------------------------
// Bulk recorder cycles: `write_cycle`/`rw_cycle` vs the scalar touch loop.
// Mirrors `read_cycle_matches_scalar_reads` in the recorder's unit tests,
// but from the package boundary and over the write-carrying variants the
// fast-path work added — the kept references (addresses AND write bits),
// the touch counts, and the surviving sampling phase must all match.
// ---------------------------------------------------------------------------

#[test]
fn write_cycle_matches_scalar_writes() {
    use ironhide::ironhide_workloads::{AccessRecorder, Region};

    let region = Region::new(0x9000, 8, 256);
    let indices = [5u64, 17, 250, 0, 63, 17];
    for (rate, cap, reps, pre) in
        [(1u64, usize::MAX, 37u64, 0u64), (4, usize::MAX, 53, 3), (2, 25, 90, 1), (9, 4, 11, 8)]
    {
        let mut bulk = AccessRecorder::new(rate, cap);
        let mut scalar = AccessRecorder::new(rate, cap);
        // Desynchronise the sampling phase with a few ordinary touches.
        for i in 0..pre {
            bulk.read(&region, i);
            scalar.read(&region, i);
        }
        bulk.write_cycle(&region, &indices, reps);
        for _ in 0..reps {
            for idx in indices {
                scalar.write(&region, idx);
            }
        }
        // Trailing touches prove the sampling phase survived the bulk call.
        for i in 0..7 {
            bulk.write(&region, 100 + i);
            scalar.write(&region, 100 + i);
        }
        assert_eq!(bulk.total_touches(), scalar.total_touches(), "rate {rate} cap {cap}");
        assert_eq!(
            bulk.take().iter().collect::<Vec<_>>(),
            scalar.take().iter().collect::<Vec<_>>(),
            "rate {rate} cap {cap} reps {reps}"
        );
    }
}

#[test]
fn rw_cycle_matches_interleaved_scalar_touches() {
    use ironhide::ironhide_workloads::{AccessRecorder, Region};

    let region = Region::new(0xA000, 4, 128);
    // A read-modify-write sweep: load, load, store per element triple.
    let pattern =
        [(2u64, false), (9, false), (9, true), (40, false), (40, true), (127, false), (0, true)];
    for (rate, cap, reps, pre) in
        [(1u64, usize::MAX, 29u64, 0u64), (3, usize::MAX, 44, 2), (5, 18, 77, 4), (7, 3, 10, 6)]
    {
        let mut bulk = AccessRecorder::new(rate, cap);
        let mut scalar = AccessRecorder::new(rate, cap);
        for i in 0..pre {
            bulk.write(&region, i);
            scalar.write(&region, i);
        }
        bulk.rw_cycle(&region, &pattern, reps);
        for _ in 0..reps {
            for (idx, write) in pattern {
                if write {
                    scalar.write(&region, idx);
                } else {
                    scalar.read(&region, idx);
                }
            }
        }
        for i in 0..5 {
            bulk.read(&region, 60 + i);
            scalar.read(&region, 60 + i);
        }
        assert_eq!(bulk.total_touches(), scalar.total_touches(), "rate {rate} cap {cap}");
        assert_eq!(
            bulk.take().iter().collect::<Vec<_>>(),
            scalar.take().iter().collect::<Vec<_>>(),
            "rate {rate} cap {cap} reps {reps}"
        );
    }
}
