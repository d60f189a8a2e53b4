//! The simulated multicore machine.
//!
//! [`Machine`] owns every hardware structure of the target multicore — the
//! per-tile private L1 caches and TLBs, the distributed shared L2 slices, the
//! mesh NoC, the memory controllers and the DRAM region map — and exposes the
//! *mechanisms* the secure execution architectures drive:
//!
//! * [`Machine::access`] — charge one memory access the latency of its path
//!   through the hierarchy, updating all functional state along the way;
//! * [`Machine::purge_private`] / [`Machine::purge_controllers`] — the
//!   flush-and-invalidate operations MI6 performs at every enclave boundary;
//! * [`Machine::set_process_slices`] — restrict a process's pages to a set of
//!   L2 slices (static partitioning, local homing) and re-home pages when the
//!   allocation changes (IRONHIDE's dynamic hardware isolation);
//! * [`Machine::set_cluster_map`] — activate network-level cluster isolation.
//!
//! Private L1s are kept coherent by a directory-based MESI protocol: every
//! home slice owns a bounded [`Directory`] that the machine consults on each
//! L1 fill and on each write-upgrade of a Shared line, charging the
//! resulting cross-core invalidation/downgrade messages over the real mesh
//! routes (see the `ironhide_cache::directory` module docs for the
//! protocol).
//!
//! Two entry points step references through the hierarchy:
//! [`Machine::access`], the unmemoised scalar reference, one reference at a
//! time, and [`Machine::access_run`], the batched engine, which does the
//! per-page work once per page segment and collapses same-line references.
//! Past the L1 lookup both run the same steps from one per-page context:
//! one L1-miss path, one write-upgrade and one coherence transaction, so
//! every L2, DRAM, directory and NoC charge has a single site.

use ironhide_cache::{ArrayError, Directory, Evicted, PageId, SetAssocCache, SliceId, Tlb};
use ironhide_mem::{ControllerMask, MemoryController, RegionMap, RegionOwner};
use ironhide_mesh::{
    ClusterMap, LatencyModel, MeshEdge, MeshTopology, NocStats, NodeId, NodeSet, NotALink,
    PacketKind, RouteTable,
};

use crate::config::{ConfigError, LatencyConfig, MachineConfig};
use crate::fence::{FlushResource, FlushSet};
use crate::process::{ProcessId, ProcessState, SecurityClass};
use crate::stats::{MachineStats, ProcessStats};
use crate::stream::{RefRun, RefStream};
use crate::time::Clock;
use crate::trace::LatencyTrace;

/// The levels of the hierarchy that serviced an access, returned for
/// diagnostics and assertions in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Serviced by the private L1.
    L1,
    /// Missed L1, serviced by the home L2 slice.
    L2 {
        /// The tile whose slice homed the line.
        home: NodeId,
    },
    /// Missed L1 and L2, serviced by off-chip memory.
    Dram {
        /// The tile whose slice homed the line.
        home: NodeId,
        /// The memory controller that serviced the request.
        controller: usize,
    },
}

/// Per-core cache of the most recent address translation. Interactive
/// workloads re-touch the same page in bursts, so remembering one `(process,
/// virtual page) -> physical page` pair per core short-circuits the page-table
/// hash lookup on the hot path. Mappings are insert-only (a virtual page is
/// never re-mapped once allocated), so entries never need invalidation.
#[derive(Debug, Clone, Copy, Default)]
struct XlateMru {
    valid: bool,
    pid: usize,
    vpn: u64,
    ppn: u64,
}

/// The mesh every packet crosses: the route table (which owns the cluster
/// map), the link-load model, the traffic statistics and the IPC marker that
/// classifies packets. [`Network::charge`] is the one charging path of both
/// engines: requests and responses, write-backs and coherence messages.
#[derive(Debug)]
struct Network {
    routes: RouteTable,
    model: LatencyModel,
    stats: NocStats,
    ipc_marker: bool,
}

impl Network {
    /// Charges one packet `src → dst` over the table's route: the per-link
    /// load observations, the latency and the statistics record.
    /// IPC-marked traffic travels as IPC-class packets, except write-backs
    /// (evictions are not part of the logical IPC transfer).
    #[inline]
    fn charge(&mut self, src: NodeId, dst: NodeId, kind: PacketKind) -> u64 {
        let kind =
            if self.ipc_marker && kind != PacketKind::WriteBack { PacketKind::Ipc } else { kind };
        let route = self.routes.route(src, dst);
        let flits = kind.flits();
        let latency = self.model.traverse_links(route.links, flits);
        self.stats.record(kind, flits, route.links.len(), latency, route.clusters);
        latency
    }
}

/// The batched access engine's page memo. Allocated lazily, grown once,
/// reused forever — steady-state accesses stay allocation-free.
#[derive(Debug, Default)]
struct BatchScratch {
    /// The `(route_epoch, core, pid, ppn)` the memo below belongs to.
    /// Workload streams re-touch the same page across many short runs, so
    /// the memo survives *across* `access_run` calls until the machine
    /// re-homes pages (which bumps the epoch) or the stream moves to another
    /// page/core/process.
    key: Option<(u64, usize, usize, u64)>,
    /// Home slice of the memoised page, resolved on first L1 miss.
    home: Option<NodeId>,
    /// Owning memory controller of the memoised page, resolved on first L2
    /// miss.
    mc: Option<usize>,
    /// Per-line directory slot hints, indexed by line offset within the
    /// memoised page. *Not* reset on rebind: a hint names the line it was
    /// stored for, so one left by a different page is rejected here without
    /// touching the directory, and a hint for the accessed line is only
    /// acted on after [`Directory::access_private_fast`] revalidates the
    /// slot (live entry, same line, sole sharer = this core). Scalar
    /// accesses neither read nor refresh them, which is sound for the same
    /// reason.
    dir_hints: Vec<Option<DirHint>>,
}

/// A directory slot hint: the entry index a full transaction located for
/// `line`, kept while the line ended privately held.
#[derive(Debug, Clone, Copy)]
struct DirHint {
    line: u64,
    slot: u32,
}

impl BatchScratch {
    /// Rebinds the memo to `key`, forgetting the page's home and controller
    /// if it changed.
    fn rebind(&mut self, key: (u64, usize, usize, u64)) {
        if self.key == Some(key) {
            return;
        }
        self.key = Some(key);
        self.home = None;
        self.mc = None;
    }
}

/// The home slice of an *evicted* line, shared by the scalar and batched
/// write-back paths. An eviction carries a physical address with no
/// issuing-process context, and a line's home is a property of the physical
/// page, not of whoever triggered the eviction: resolving it through the
/// evicting process's map would mis-home — and mis-route, possibly across
/// the cluster boundary — dirty lines another process left in the cache
/// (e.g. the victim's Modified lines displaced while it services the shared
/// IPC buffer in the attacker's address space). The owning process is
/// recovered from the page's DRAM-region security class (the allocator
/// hands each class pages from its own regions); with several processes of
/// one class the first one's map decides, matching the allocator's aliased
/// physical layout.
fn home_of_line(
    processes: &[ProcessState],
    regions: &RegionMap,
    page_bytes: u64,
    paddr: u64,
) -> NodeId {
    let owner_class = match regions.owner_of(paddr) {
        Ok(RegionOwner::Secure) => SecurityClass::Secure,
        _ => SecurityClass::Insecure,
    };
    let owner = processes.iter().find(|p| p.class == owner_class).or_else(|| processes.first());
    let ppn = paddr / page_bytes;
    owner.and_then(|p| p.home.home_of(PageId(ppn)).ok()).map(|s| NodeId(s.0)).unwrap_or(NodeId(0))
}

/// The network half of a coherence transaction: the mesh and the DRAM
/// region map needed to classify invalidation/downgrade messages, split out
/// of [`SegCtx`] so [`coherence_transaction`] can be handed disjoint borrows.
struct CohNet<'a> {
    net: &'a mut Network,
    regions: &'a RegionMap,
}

impl CohNet<'_> {
    /// Charges one coherence packet `src → dst` on behalf of the line at
    /// `paddr`. Coherence traffic is maintenance-class (1 flit); when it
    /// must cross the cluster boundary *and* the line lives in an
    /// insecure-class DRAM region — where the legitimately shared IPC
    /// buffer lives by construction, the only data cached in both clusters
    /// — it travels as IPC-class traffic, the coherence half of the IPC
    /// transfer. The region gate is what keeps the isolation audit's "only
    /// IPC crosses the boundary" invariant *falsifiable*: coherence
    /// messages for a secure-region line that somehow cross the boundary
    /// (a mis-homed page, a missed scrub) stay maintenance-class and trip
    /// the auditor instead of being blessed by the crossing itself.
    fn charge(&mut self, src: NodeId, dst: NodeId, kind: PacketKind, paddr: u64) -> u64 {
        let kind = match self.net.routes.cluster_map() {
            Some(map)
                if map.cluster_of(src) != map.cluster_of(dst)
                    && matches!(self.regions.owner_of(paddr), Ok(RegionOwner::Insecure)) =>
            {
                PacketKind::Ipc
            }
            _ => kind,
        };
        self.net.charge(src, dst, kind)
    }
}

/// Applies one directory transaction at `home` for `core`'s access to the
/// line containing `paddr`, and charges its coherence traffic. Returns the
/// cycles added to the access's critical path.
///
/// The charging discipline is fixed (and therefore byte-identical between
/// the scalar and batched engines):
///
/// * an `upgrade` (write hit on a Shared line) brackets the transaction
///   with a requester→home request and a home→requester acknowledgement;
/// * every foreign invalidation/downgrade costs a home→sharer maintenance
///   message plus the sharer's acknowledgement, **all still charged on the
///   mesh per packet in ascending core order** (traffic, link-load EMA and
///   statistics see every message) — but the requester's critical path
///   waits only for the **slowest** sharer's home→sharer→home round trip,
///   not their sum: the home issues the messages concurrently and collects
///   acknowledgements in parallel, as directory hardware does. A
///   transaction's invalidation and downgrade sets are mutually exclusive
///   (writes invalidate, reads downgrade at most one owner), so the per-set
///   maxima never hide each other;
/// * dirty copies surrendered by a downgrade or invalidation emit a
///   write-back packet off the critical path, like ordinary victim
///   write-backs;
/// * a capacity eviction back-invalidates every copy the displaced entry
///   tracked, entirely off the critical path (the requester does not wait
///   for it — but the traffic, and the victims' lost lines, are real).
///
/// `hint` is the private-page fast path: the caller's hint slot for this
/// line offset, holding the directory entry index a previous transaction
/// stored with its line (or nothing). When the hint is for this line and
/// the hinted entry revalidates as still privately held by `core` — the
/// case where the full transaction provably produces an empty outcome and
/// charges nothing — [`Directory::access_private_fast`] applies the
/// transaction without the set walk or the `DirOutcome` bookkeeping. A
/// hint for another line is skipped without touching the directory: the
/// full transaction then makes the same mutations the fast path would. The
/// hint is refreshed from the full transaction's located slot whenever the
/// line ends privately held. The scalar reference's context carries no
/// hints, so it passes `None` and always executes the full transaction,
/// which is what makes the batched-vs-scalar differential in
/// `tests/hot_path_equivalence.rs` a real check of the fast path's
/// byte-identity.
#[allow(clippy::too_many_arguments)]
fn coherence_transaction(
    dir: &mut Directory,
    l1s: &mut [SetAssocCache],
    core: NodeId,
    home: NodeId,
    paddr: u64,
    line_bytes: u64,
    write: bool,
    upgrade: bool,
    net: &mut CohNet<'_>,
    hint: Option<&mut Option<DirHint>>,
) -> u64 {
    let line = paddr / line_bytes;
    // An upgrade still takes the full path: its request/ack bracket is
    // charged even when no other sharer exists.
    if let Some(Some(h)) = hint.as_deref() {
        if !upgrade && h.line == line && dir.access_private_fast(line, core, write, h.slot) {
            return 0;
        }
    }
    let (out, slot) = dir.access_locate(line, core, write);
    if let Some(hint) = hint {
        // After a write the requester is the sole sharer by construction;
        // after a read it is unless the line ended Shared. Only a privately
        // held line is worth hinting.
        *hint = (write || !out.shared).then_some(DirHint { line, slot });
    }
    let mut cycles = 0u64;
    if upgrade {
        cycles += net.charge(core, home, PacketKind::Maintenance, paddr);
    }
    let mut slowest_ack = 0u64;
    for t in out.downgrade.iter() {
        let mut round_trip = net.charge(home, t, PacketKind::Maintenance, paddr);
        if l1s[t.0].downgrade_line(paddr) == Some(true) {
            net.charge(t, home, PacketKind::WriteBack, paddr);
        }
        round_trip += net.charge(t, home, PacketKind::Maintenance, paddr);
        slowest_ack = slowest_ack.max(round_trip);
    }
    for t in out.invalidate.iter() {
        let mut round_trip = net.charge(home, t, PacketKind::Maintenance, paddr);
        if l1s[t.0].invalidate(paddr).map(|ev| ev.dirty) == Some(true) {
            net.charge(t, home, PacketKind::WriteBack, paddr);
        }
        round_trip += net.charge(t, home, PacketKind::Maintenance, paddr);
        slowest_ack = slowest_ack.max(round_trip);
    }
    cycles += slowest_ack;
    if upgrade {
        cycles += net.charge(home, core, PacketKind::Maintenance, paddr);
    }
    if let Some(ev) = out.evicted {
        let ev_addr = ev.line * line_bytes;
        for t in ev.sharers.iter() {
            net.charge(home, t, PacketKind::Maintenance, ev_addr);
            if l1s[t.0].invalidate(ev_addr).map(|e| e.dirty) == Some(true) {
                net.charge(t, home, PacketKind::WriteBack, ev_addr);
            }
            net.charge(t, home, PacketKind::Maintenance, ev_addr);
        }
    }
    // The requester's own line adopts the state the sharer census decided:
    // Shared when other copies remain, exclusive-side after an upgrade.
    if out.shared {
        l1s[core.0].set_line_shared(paddr, true);
    } else if upgrade {
        l1s[core.0].set_line_shared(paddr, false);
    }
    cycles
}

/// The state an access executes against past its L1 lookup — one scalar
/// reference, or one page segment of a batched run: the split borrows of
/// the machine the miss and upgrade paths need, the page's lazily resolved
/// home slice and owning controller, and the statistics the caller flushes.
///
/// [`Machine::seg_ctx`], which makes it, its two steps and [`run_miss_path`]
/// are forced inline, so that each engine keeps the context in registers
/// instead of building it in memory: plain `#[inline]` left the scalar miss
/// path about 8% slower on a 2-vCPU Xeon host.
struct SegCtx<'a> {
    l2_hit: u64,
    core: NodeId,
    pid: ProcessId,
    /// Physical page number every reference of the context falls in.
    ppn: u64,
    page_bytes: u64,
    line_bytes: u64,
    /// The page's home slice and owning controller, each resolved on first
    /// need: seeded from (and written back to) the batched engine's page
    /// memo, unresolved on every scalar access.
    home: Option<NodeId>,
    mc: Option<usize>,
    /// The page's directory slot hints (see [`BatchScratch`]); empty for the
    /// scalar reference, which therefore never takes the fast path.
    dir_hints: &'a mut [Option<DirHint>],
    l1s: &'a mut [SetAssocCache],
    directories: &'a mut [Directory],
    l2s: &'a mut [SetAssocCache],
    net: &'a mut Network,
    controllers: &'a mut [MemoryController],
    mc_nodes: &'a [NodeId],
    processes: &'a [ProcessState],
    regions: &'a RegionMap,
    load_hint: u64,
    /// L2 accesses so far: one per L1 miss.
    l2_accesses: u64,
    dram_accesses: u64,
}

impl SegCtx<'_> {
    /// The home slice of the context's page, falling back to the issuing
    /// core's own slice when the page has none (no pin, no allowed slice).
    #[inline(always)]
    fn home(&mut self) -> NodeId {
        *self.home.get_or_insert_with(|| {
            let home = self.processes[self.pid.0].home.home_of(PageId(self.ppn));
            home.map_or(self.core, |s| NodeId(s.0))
        })
    }

    /// Runs [`coherence_transaction`] at the page's home slice, with the
    /// line's directory hint when the context carries hints.
    #[inline(always)]
    fn coherence(&mut self, paddr: u64, write: bool, upgrade: bool) -> u64 {
        let home = self.home();
        let SegCtx { core, page_bytes, line_bytes, l1s, directories, net, regions, .. } = self;
        // The scalar reference carries no hints and skips the slot arithmetic.
        let hint = if self.dir_hints.is_empty() {
            None
        } else {
            self.dir_hints.get_mut(((paddr % *page_bytes) / *line_bytes) as usize)
        };
        coherence_transaction(
            &mut directories[home.0],
            l1s,
            *core,
            home,
            paddr,
            *line_bytes,
            write,
            upgrade,
            &mut CohNet { net, regions },
            hint,
        )
    }
}

/// The L1-miss path of one reference, shared by both engines: write-back
/// of the victim, request to the home slice, the L2 access, the DRAM round
/// trip on an L2 miss, the response and the home directory's transaction.
/// Returns the added cycles and the level that serviced the access.
#[inline(always)]
fn run_miss_path(
    ctx: &mut SegCtx<'_>,
    paddr: u64,
    evicted: Option<Evicted>,
    write: bool,
) -> (u64, AccessPath) {
    let mut cycles = 0u64;
    // Write back the victim off the critical path but account for it.
    if let Some(ev) = evicted {
        if ev.dirty {
            let ev_home = home_of_line(ctx.processes, ctx.regions, ctx.page_bytes, ev.addr);
            ctx.net.charge(ctx.core, ev_home, PacketKind::WriteBack);
        }
    }
    let home = ctx.home();
    cycles += ctx.net.charge(ctx.core, home, PacketKind::Request);
    let l2_outcome = ctx.l2s[home.0].access(paddr, write);
    cycles += ctx.l2_hit;
    ctx.l2_accesses += 1;
    let path = if l2_outcome.is_miss() {
        if let Some(ev) = l2_outcome.evicted() {
            if ev.dirty {
                if let Ok(mc_ev) = ctx.regions.controller_of(ev.addr) {
                    let mc_ev_node = ctx.mc_nodes[mc_ev];
                    ctx.net.charge(home, mc_ev_node, PacketKind::WriteBack);
                }
            }
        }
        // Off-chip access through the page's owning controller.
        let mc = *ctx.mc.get_or_insert_with(|| ctx.regions.controller_of(paddr).unwrap_or(0));
        let mc_node = ctx.mc_nodes[mc];
        cycles += ctx.net.charge(home, mc_node, PacketKind::Request);
        cycles += ctx.controllers[mc].access(paddr, write, ctx.load_hint);
        cycles += ctx.net.charge(mc_node, home, PacketKind::Response);
        ctx.dram_accesses += 1;
        AccessPath::Dram { home, controller: mc }
    } else {
        AccessPath::L2 { home }
    };
    cycles += ctx.net.charge(home, ctx.core, PacketKind::Response);
    // The home directory serialises the fill: foreign copies transition
    // (and are charged) before the access is architecturally complete.
    cycles += ctx.coherence(paddr, write, false);
    (cycles, path)
}

/// The simulated multicore machine.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    topology: MeshTopology,
    clock: Clock,
    l1s: Vec<SetAssocCache>,
    tlbs: Vec<Tlb>,
    l2s: Vec<SetAssocCache>,
    /// Per-home-slice MESI directories (one per tile, like the L2 slices).
    directories: Vec<Directory>,
    net: Network,
    controllers: Vec<MemoryController>,
    mc_nodes: Vec<NodeId>,
    xlate_mru: Vec<XlateMru>,
    regions: RegionMap,
    processes: Vec<ProcessState>,
    proc_stats: Vec<ProcessStats>,
    load_hint: u64,
    core_purges: u64,
    pages_rehomed: u64,
    last_path: Option<AccessPath>,
    latency_trace: Option<LatencyTrace>,
    batch: BatchScratch,
    /// Bumped by every mutation that can change page homing (slice
    /// restrictions, pristine resets); invalidates the batched engine's page
    /// memo (home slice and controller). Routes need no epoch: the route
    /// table lives inside `net` with the cluster map it was resolved under.
    route_epoch: u64,
    /// When set, [`Machine::set_process_slices`] runs the pre-batching
    /// scalar reconfiguration path (per-pin rehome scan, per-line scrub, an
    /// unconditional `route_epoch` bump). The two paths are byte-identical
    /// in every architectural effect; the flag exists so the equivalence
    /// suite and the churn harness can run the reference implementation
    /// against the batched one on live machines. Deliberately *not* cleared
    /// by [`Machine::reset_pristine`] — it is a harness mode, not machine
    /// state, and a differential run recycles its reference machine through
    /// many pristine resets.
    reference_reconfig: bool,
    /// Reusable moved-page log for [`Machine::set_process_slices`], so a
    /// reconfiguration storm allocates once instead of per call.
    rehome_log: Vec<(PageId, SliceId)>,
    /// When set, pages re-homed by [`Machine::set_process_slices`] are *not*
    /// scrubbed immediately; their (page, old-home) pairs accumulate in
    /// `deferred_scrub_log` until [`Machine::flush_deferred_scrub`] runs.
    /// This is the injectable protocol mis-ordering (re-home before scrub)
    /// the reconfiguration-window attack exploits — the shipped protocol
    /// never defers. Cleared by [`Machine::reset_pristine`].
    scrub_deferred: bool,
    /// Moved pages whose scrub has been deferred (see `scrub_deferred`).
    deferred_scrub_log: Vec<(PageId, SliceId)>,
    /// Reusable sorted page-base-line scratch for [`Machine::scrub_pages`].
    scrub_lines: Vec<u64>,
    /// Cache/directory probes issued while scrubbing re-homed pages. A pure
    /// diagnostic (the churn harness reports it) — deliberately *not* part
    /// of [`MachineStats`], because how many probes the scrub needed is an
    /// implementation detail the scalar/batched byte-identity contract must
    /// not observe.
    scrub_probes: u64,
    /// Injected partial-completion fault: while set, each page scrub is
    /// silently dropped with probability `rate_per_mille`/1000, decided as a
    /// pure function of `(seed, ppn)` so the scalar and batched scrub paths
    /// drop the identical page set regardless of processing order. Dropped
    /// pages are logged for the scrub audit; `None` (the healthy machine)
    /// costs nothing. Cleared by [`Machine::reset_pristine`].
    scrub_drop: Option<ScrubDropFault>,
}

/// State of an injected dropped-scrub fault (see [`Machine::set_scrub_drop_fault`]).
#[derive(Debug, Default)]
struct ScrubDropFault {
    seed: u64,
    rate_per_mille: u32,
    dropped: Vec<(PageId, SliceId)>,
    dropped_purges: Vec<SliceId>,
}

/// Decorrelates the per-slice purge-drop predicate from the per-page scrub
/// predicate drawn from the same fault seed.
const PURGE_DROP_SALT: u64 = 0x51AB_C0DE_0DD5_EED5;

/// Whether the injected fault eats the scrub of physical page `ppn`: a
/// SplitMix64 finalisation over the `(seed, ppn)` pair, reduced per-mille.
/// Pure in its inputs — no draw counter — so the decision is identical no
/// matter which scrub path reaches the page, or in what order.
fn scrub_drop_hits(seed: u64, ppn: u64, rate_per_mille: u32) -> bool {
    let mut z = seed ^ ppn.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z % 1000 < rate_per_mille as u64
}

/// Builds one `T` per tile, naming the config field `structure` when the
/// host refuses one of its arrays.
fn per_tile<T>(
    cores: usize,
    structure: &'static str,
    build: impl Fn() -> Result<T, ArrayError>,
) -> Result<Vec<T>, ConfigError> {
    (0..cores)
        .map(|_| build())
        .collect::<Result<_, _>>()
        .map_err(|array| ConfigError::Unallocatable { structure, array })
}

impl Machine {
    /// Builds a machine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent; campaign harnesses that
    /// must survive bad geometry use [`Machine::try_new`] instead.
    pub fn new(config: MachineConfig) -> Self {
        Machine::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a machine from a configuration, reporting an inconsistent
    /// configuration, or arrays the host cannot provide, as a typed
    /// [`ConfigError`] instead of panicking.
    pub fn try_new(config: MachineConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let topology = MeshTopology::new(config.mesh_width, config.mesh_height);
        let cores = config.cores();
        let l1s = per_tile(cores, "l1", || SetAssocCache::try_new(config.l1))?;
        let tlbs = per_tile(cores, "tlb", || Tlb::try_new(config.tlb))?;
        let l2s = per_tile(cores, "l2_slice", || SetAssocCache::try_new(config.l2_slice))?;
        let directories =
            per_tile(cores, "directory", || Directory::try_new(config.directory, cores))?;
        let controllers =
            (0..config.controllers).map(|i| MemoryController::new(i, config.dram)).collect();
        let mc_nodes =
            topology.place_controllers(config.controllers, &[MeshEdge::North, MeshEdge::South]);
        let mc_node_set: NodeSet = mc_nodes.iter().copied().collect();
        let regions = RegionMap::paper_layout(config.controllers, config.dram_region_bytes);
        let clock = Clock::new(config.clock_ghz);
        Ok(Machine {
            net: Network {
                routes: RouteTable::new(topology, mc_node_set),
                model: LatencyModel::new(config.noc, topology),
                stats: NocStats::new(),
                ipc_marker: false,
            },
            xlate_mru: vec![XlateMru::default(); cores],
            config,
            topology,
            clock,
            l1s,
            tlbs,
            l2s,
            directories,
            controllers,
            mc_nodes,
            regions,
            processes: Vec::new(),
            proc_stats: Vec::new(),
            load_hint: 0,
            core_purges: 0,
            pages_rehomed: 0,
            last_path: None,
            latency_trace: None,
            batch: BatchScratch::default(),
            route_epoch: 0,
            reference_reconfig: false,
            rehome_log: Vec::new(),
            scrub_deferred: false,
            deferred_scrub_log: Vec::new(),
            scrub_lines: Vec::new(),
            scrub_probes: 0,
            scrub_drop: None,
        })
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Resets the machine to the state [`Machine::new`] would produce for the
    /// same configuration — no processes, empty caches/TLBs, quiet NoC and
    /// controllers, zeroed statistics — while keeping every allocation (the
    /// 15.47 MB of way and directory-entry arrays per paper-scale machine
    /// chiefly). The re-allocation predictor recycles one scratch machine
    /// through all of its candidate probes instead of paying construction
    /// and teardown per probe; behavioural identity with a fresh machine is
    /// covered by the golden-stats and sweep byte-identity suites plus the
    /// recycling test below.
    pub fn reset_pristine(&mut self) {
        for c in &mut self.l1s {
            c.reset_pristine();
        }
        for c in &mut self.l2s {
            c.reset_pristine();
        }
        for d in &mut self.directories {
            d.reset_pristine();
        }
        for t in &mut self.tlbs {
            t.reset_pristine();
        }
        for mc in &mut self.controllers {
            mc.reset_pristine();
        }
        for mru in &mut self.xlate_mru {
            *mru = XlateMru::default();
        }
        self.net.model.reset_load();
        self.net.stats.reset();
        self.net.routes.set_cluster_map(None);
        self.net.ipc_marker = false;
        self.processes.clear();
        self.proc_stats.clear();
        self.load_hint = 0;
        self.core_purges = 0;
        self.pages_rehomed = 0;
        self.last_path = None;
        self.latency_trace = None;
        self.batch.key = None;
        self.route_epoch += 1;
        self.scrub_deferred = false;
        self.deferred_scrub_log.clear();
        self.scrub_probes = 0;
        self.scrub_drop = None;
        self.net.model.clear_link_faults();
    }

    /// The mesh topology.
    pub fn topology(&self) -> &MeshTopology {
        &self.topology
    }

    /// The clock used for cycle/time conversion.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// The DRAM region map.
    pub fn regions(&self) -> &RegionMap {
        &self.regions
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.config.tlb.page_bytes as u64
    }

    /// The hierarchy level that serviced the most recent access.
    pub fn last_path(&self) -> Option<AccessPath> {
        self.last_path
    }

    // ----- latency observability -------------------------------------------

    /// Attaches a [`LatencyTrace`] of `capacity` samples: every subsequent
    /// [`Machine::access`] records its returned latency into the ring. The
    /// buffer is allocated here, once; recording on the hot path is
    /// allocation-free (see `tests/zero_alloc.rs`). Replaces any trace that
    /// was already attached.
    pub fn enable_latency_trace(&mut self, capacity: usize) {
        self.latency_trace = Some(LatencyTrace::new(capacity));
    }

    /// The attached latency trace, if any.
    pub fn latency_trace(&self) -> Option<&LatencyTrace> {
        self.latency_trace.as_ref()
    }

    /// Mutable access to the attached latency trace (to clear it between
    /// observation windows), if any.
    pub fn latency_trace_mut(&mut self) -> Option<&mut LatencyTrace> {
        self.latency_trace.as_mut()
    }

    /// Hints how many cores are concurrently issuing memory traffic; the
    /// memory controllers use it to scale their queueing delay.
    pub fn set_load_hint(&mut self, active_cores: u64) {
        self.load_hint = active_cores;
    }

    /// Marks subsequent accesses as shared-IPC-buffer traffic. IPC traffic is
    /// the only traffic allowed to cross the cluster boundary, so the NoC
    /// accounts for it separately (the isolation auditor checks that every
    /// boundary-crossing packet is IPC-class).
    pub fn set_ipc_marker(&mut self, ipc: bool) {
        self.net.ipc_marker = ipc;
    }

    /// Activates (or clears) network-level cluster isolation. Every route is
    /// resolved afresh under the new map.
    ///
    /// # Panics
    ///
    /// Panics if the map partitions a topology of a different size.
    pub fn set_cluster_map(&mut self, map: Option<ClusterMap>) {
        self.net.routes.set_cluster_map(map);
        self.net.model.reset_load();
    }

    /// The active cluster map, if any.
    pub fn cluster_map(&self) -> Option<&ClusterMap> {
        self.net.routes.cluster_map()
    }

    // ----- processes -------------------------------------------------------

    /// Creates a process of the given security class. The process initially
    /// owns every DRAM region of its class and may home pages on every L2
    /// slice; the execution architectures restrict both before running.
    pub fn create_process(&mut self, name: impl Into<String>, class: SecurityClass) -> ProcessId {
        let mut p = ProcessState::new(name, class);
        let owner = match class {
            SecurityClass::Secure => RegionOwner::Secure,
            SecurityClass::Insecure => RegionOwner::Insecure,
        };
        p.regions = self.regions.regions_of(owner).iter().map(|r| r.id).collect();
        p.home = ironhide_cache::HomeMap::local((0..self.config.cores()).map(SliceId));
        self.processes.push(p);
        self.proc_stats.push(ProcessStats::new());
        ProcessId(self.processes.len() - 1)
    }

    /// Number of processes created.
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// The security class of `pid`.
    pub fn process_class(&self, pid: ProcessId) -> SecurityClass {
        self.processes[pid.0].class
    }

    /// The name of `pid`.
    pub fn process_name(&self, pid: ProcessId) -> &str {
        &self.processes[pid.0].name
    }

    /// Per-process statistics.
    pub fn process_stats(&self, pid: ProcessId) -> &ProcessStats {
        &self.proc_stats[pid.0]
    }

    /// Number of distinct virtual pages `pid` has touched.
    pub fn process_footprint_pages(&self, pid: ProcessId) -> usize {
        self.processes[pid.0].footprint_pages()
    }

    /// The physical pages `pid` currently owns (used by the isolation
    /// auditor to verify DRAM-region ownership).
    pub fn process_physical_pages(&self, pid: ProcessId) -> Vec<PageId> {
        self.processes[pid.0].physical_pages()
    }

    /// Restricts the L2 slices `pid` may home pages on, re-homing any pages
    /// that now live outside the allowed set. Returns `(pages_moved, cycles)`
    /// where `cycles` is the cost of the unmap/set-home/remap sequence.
    ///
    /// Re-homing is the prototype's unmap/set-home/remap: while a page is
    /// unmapped its lines are flushed from every cache, so each moved page's
    /// lines are scrubbed from all private L1s and its coherence-directory
    /// entries are dropped at the old home. Without the scrub a core could
    /// keep a Shared copy that the *new* home's directory has never heard
    /// of — and read it stale after a remote write.
    /// When the call would change nothing — the allowed set is already
    /// exactly `slices` (same order: the round-robin spread of future pins
    /// depends on it) and no pinned page lives outside it — the call
    /// returns `(0, 0)` without bumping `route_epoch`, so a reconfiguration
    /// that re-applies a process's current restriction does not invalidate
    /// the batched engine's page memo. The memoised home and controller are
    /// still valid by construction (nothing they depend on changed), so the
    /// no-op rule is unobservable in simulated cycles.
    ///
    /// Under [`Machine::set_reconfig_reference`] the call runs the scalar
    /// reference instead: an unconditional `route_epoch` bump, the O(pins)
    /// rehome scan and the per-line, per-page scrub.
    pub fn set_process_slices(&mut self, pid: ProcessId, slices: &[SliceId]) -> (u64, u64) {
        let reference = self.reference_reconfig;
        let home = &self.processes[pid.0].home;
        if !reference && home.allowed_slices() == slices && !home.has_disallowed_pins() {
            return (0, 0);
        }
        self.route_epoch += 1;
        let mut log = std::mem::take(&mut self.rehome_log);
        log.clear();
        let home = &mut self.processes[pid.0].home;
        home.set_allowed(slices.iter().copied());
        let moved = if reference {
            home.rehome_all_logged_reference(&mut log)
        } else {
            home.rehome_all_logged(&mut log)
        };
        let moved = moved.unwrap_or(0);
        self.pages_rehomed += moved;
        if self.scrub_deferred {
            self.deferred_scrub_log.extend_from_slice(&log);
        } else {
            self.scrub_moved(&log);
        }
        self.rehome_log = log;
        (moved, moved * self.config.latency.rehome_page)
    }

    /// Selects the scalar reference reconfiguration path (see the field
    /// docs); `false` restores the default batched path.
    pub fn set_reconfig_reference(&mut self, reference: bool) {
        self.reference_reconfig = reference;
    }

    /// Cache/directory probes issued by page scrubbing so far (a diagnostic
    /// counter outside [`MachineStats`]; see the field docs).
    pub fn scrub_probes(&self) -> u64 {
        self.scrub_probes
    }

    /// The current route epoch — bumped by every mutation that can change
    /// page homing. A diagnostic: reconfiguration and quarantine tests
    /// assert the bump that invalidates the memoised page homes.
    pub fn route_epoch(&self) -> u64 {
        self.route_epoch
    }

    /// Defers (or restores) page scrubbing at re-home time. While deferred,
    /// [`Machine::set_process_slices`] re-homes pages but leaves their stale
    /// cached copies in place, logging them until
    /// [`Machine::flush_deferred_scrub`] — the injectable protocol
    /// mis-ordering the reconfiguration-window attack exploits. The shipped
    /// reconfiguration protocol never sets this.
    pub fn set_scrub_deferred(&mut self, deferred: bool) {
        self.scrub_deferred = deferred;
    }

    /// Scrubs every page whose scrub was deferred (see
    /// [`Machine::set_scrub_deferred`]) and returns how many pages were
    /// flushed. Uses the same batched/scalar scrub the immediate path would
    /// have used, so deferring and flushing with an empty window in between
    /// is architecturally identical to not deferring at all.
    pub fn flush_deferred_scrub(&mut self) -> u64 {
        let mut log = std::mem::take(&mut self.deferred_scrub_log);
        let pages = log.len() as u64;
        self.scrub_moved(&log);
        log.clear();
        self.deferred_scrub_log = log;
        pages
    }

    // ----- fault injection -------------------------------------------------

    /// Installs a partial-completion fault: until cleared, each page scrub is
    /// silently dropped with probability `rate_per_mille`/1000, the drop
    /// decided purely by `(seed, ppn)` — no draw counter — so the scalar and
    /// batched scrub paths drop the identical page set. Whole slice-purge
    /// commands drop the same way (pure in `(seed, slice)`). Dropped work
    /// accumulates in audit logs; the affected state keeps its stale cached
    /// copies until [`Machine::recover_dropped_scrubs`] replays it.
    pub fn set_scrub_drop_fault(&mut self, seed: u64, rate_per_mille: u32) {
        self.scrub_drop = Some(ScrubDropFault {
            seed,
            rate_per_mille,
            dropped: Vec::new(),
            dropped_purges: Vec::new(),
        });
    }

    /// Removes the dropped-scrub fault, returning how many dropped packets
    /// (page scrubs plus slice purges) were still unrecovered — a non-zero
    /// return from a teardown path means stale state survived, the failure
    /// the scrub audit exists to catch.
    pub fn clear_scrub_drop_fault(&mut self) -> usize {
        self.scrub_drop.take().map_or(0, |f| f.dropped.len() + f.dropped_purges.len())
    }

    /// The scrub audit: pages whose scrub the injected fault dropped and that
    /// have not been recovered yet. Empty on a healthy machine *and* on a
    /// faulted machine whose drops have all been replayed — a clean audit is
    /// exactly the recovery obligation being discharged.
    pub fn dropped_scrub_log(&self) -> &[(PageId, SliceId)] {
        self.scrub_drop.as_ref().map_or(&[], |f| &f.dropped)
    }

    /// The purge half of the scrub audit: slices whose wholesale purge the
    /// injected fault dropped and that have not been recovered yet (same
    /// clean-audit contract as [`Machine::dropped_scrub_log`]).
    pub fn dropped_purge_log(&self) -> &[SliceId] {
        self.scrub_drop.as_ref().map_or(&[], |f| &f.dropped_purges)
    }

    /// Detection-then-recovery for dropped scrubs: replays every audited
    /// drop — dropped slice purges first, then dropped page scrubs — through
    /// the ordinary purge/scrub machinery (batched or scalar per the
    /// reference flag) and clears the audit logs. Returns the number of
    /// packets (slices + pages) recovered. The fault stays installed —
    /// recovery repairs state, not hardware — but a replayed packet cannot
    /// be re-dropped: the replay runs with the fault lifted, modelling a
    /// firmware-audited retry that is verified to completion.
    pub fn recover_dropped_scrubs(&mut self) -> u64 {
        let Some(mut fault) = self.scrub_drop.take() else {
            return 0;
        };
        let purges = std::mem::take(&mut fault.dropped_purges);
        let log = std::mem::take(&mut fault.dropped);
        let packets = purges.len() as u64 + log.len() as u64;
        self.purge_slices(&purges);
        self.scrub_moved(&log);
        self.scrub_drop = Some(fault);
        packets
    }

    /// Degrades the directional NoC link `(from, to)` by `penalty_cycles`
    /// per traversal (0 repairs it); see [`LatencyModel::set_link_fault`].
    ///
    /// # Errors
    ///
    /// Returns [`NotALink`] when `from` and `to` are not mesh neighbours.
    pub fn set_link_fault(
        &mut self,
        from: NodeId,
        to: NodeId,
        penalty_cycles: u64,
    ) -> Result<(), NotALink> {
        self.net.model.set_link_fault(from, to, penalty_cycles)
    }

    /// Repairs every degraded NoC link.
    pub fn clear_link_faults(&mut self) {
        self.net.model.clear_link_faults();
    }

    /// Degrades (or, with 0, repairs) memory controller `mc`: every request
    /// it services is charged `cycles` extra.
    ///
    /// # Panics
    ///
    /// Panics if `mc` is out of range.
    pub fn set_controller_fault_stall(&mut self, mc: usize, cycles: u64) {
        self.controllers[mc].set_fault_stall(cycles);
    }

    /// Scrubs re-homed pages through the reconfiguration mode's path: one
    /// [`Machine::scrub_page`] per page under the scalar reference, one
    /// [`Machine::scrub_pages`] batch otherwise.
    fn scrub_moved(&mut self, moved_log: &[(PageId, SliceId)]) {
        if self.reference_reconfig {
            for &(page, old_home) in moved_log {
                self.scrub_page(page.0, old_home);
            }
        } else {
            self.scrub_pages(moved_log);
        }
    }

    /// Scrubs one re-homed physical page — the full unmap/flush/remap of the
    /// prototype: the page's cached copies are invalidated out of the
    /// private L1s, its lines are flushed from the *old* home's L2 slice
    /// (they are unreachable at the new home, and would otherwise sit as
    /// stale occupancy — or worse, be re-hit if a later re-pin cycles the
    /// page's home back), and its entries are dropped from the old home's
    /// directory. Cold path — only runs when a page's home actually moves,
    /// during a stalled reconfiguration or an aliasing re-pin. Like the
    /// purge operations, the flush routes no per-line NoC packets (dirty
    /// lines bump their caches' write-back counters); the migration's
    /// latency is the caller's `rehome_page` charge per page.
    ///
    /// While the old home's directory entry is still live, its sharer set is
    /// a superset of every core holding the line (the inclusivity
    /// invariant), so only those cores' L1s need probing. When the entry is
    /// already gone — the reconfiguration protocol purges the moved slices'
    /// directories *before* re-homing — the sharer census is lost and every
    /// L1 is scanned instead. Invalidating a non-holder is a stat-free
    /// no-op, so the two paths are observably identical whenever both are
    /// possible.
    fn scrub_page(&mut self, ppn: u64, old_home: SliceId) {
        if let Some(fault) = &mut self.scrub_drop {
            if scrub_drop_hits(fault.seed, ppn, fault.rate_per_mille) {
                fault.dropped.push((PageId(ppn), old_home));
                return;
            }
        }
        let line_bytes = self.config.l1.line_bytes as u64;
        let lines_per_page = (self.page_bytes() / line_bytes).max(1);
        let base_line = ppn * lines_per_page;
        for i in 0..lines_per_page {
            let line = base_line + i;
            let addr = line * line_bytes;
            let sharers = self.directories.get(old_home.0).and_then(|d| d.probe(line));
            self.scrub_probes += 1;
            match sharers {
                Some((_, sharers, _)) => {
                    for t in sharers.iter() {
                        self.l1s[t.0].invalidate(addr);
                        self.scrub_probes += 1;
                    }
                    self.directories[old_home.0].drop_line(line);
                }
                None => {
                    for l1 in &mut self.l1s {
                        if l1.resident_lines() > 0 {
                            l1.invalidate(addr);
                            self.scrub_probes += 1;
                        }
                    }
                }
            }
            // Same cheap residency guard the L1 scan uses: a recycled
            // machine whose slices are empty must pay zero probes here
            // (invalidating an absent line is a stat-free no-op either way).
            if let Some(l2) = self.l2s.get_mut(old_home.0) {
                if l2.resident_lines() > 0 {
                    l2.invalidate(addr);
                    self.scrub_probes += 1;
                }
            }
        }
    }

    /// Scrubs a whole batch of re-homed pages — the bulk twin of
    /// [`Machine::scrub_page`], byte-identical in every architectural
    /// effect (cache/directory contents and statistics) but
    /// O(state that actually moves) instead of O(cores × lines × pages):
    ///
    /// * each old home's directory drops a page's entries in one
    ///   [`Directory::drop_page_lines`] pass (short-circuiting when the
    ///   directory is empty) instead of a probe-then-drop per line,
    ///   returning the union sharer census;
    /// * each old home's L2 flushes a page's lines in one
    ///   [`SetAssocCache::invalidate_page_run`] pass, guarded by the same
    ///   residency check as the scalar path;
    /// * the private L1s are swept **once** over the whole moved-page set
    ///   ([`SetAssocCache::invalidate_page_set`]) instead of once per line
    ///   per page, and only the L1s that can hold a copy are visited: when
    ///   every scrubbed line had a live directory entry, the inclusivity
    ///   invariant bounds the holders by the union census, so non-members
    ///   are skipped. When any census was lost (the reconfiguration
    ///   protocol purges moved slices' directories *before* re-homing, so
    ///   under a reconfiguration this is the common case) every resident
    ///   L1 is swept, exactly like the scalar fallback.
    ///
    /// The sweep may probe a superset of the (line, L1) pairs the scalar
    /// path touches; the extras are absent lines or non-holders, and
    /// invalidating those is a stat-free no-op — which is why the two paths
    /// are observably identical (proven by `tests/reconfig_equivalence.rs`).
    fn scrub_pages(&mut self, moved_log: &[(PageId, SliceId)]) {
        // The fault filter allocates, but only on the (cold) faulted path;
        // a healthy machine takes the borrow below untouched.
        let kept_scratch: Vec<(PageId, SliceId)>;
        let moved_log: &[(PageId, SliceId)] = if let Some(fault) = &mut self.scrub_drop {
            let mut kept = Vec::with_capacity(moved_log.len());
            for &(page, old_home) in moved_log {
                if scrub_drop_hits(fault.seed, page.0, fault.rate_per_mille) {
                    fault.dropped.push((page, old_home));
                } else {
                    kept.push((page, old_home));
                }
            }
            kept_scratch = kept;
            &kept_scratch
        } else {
            moved_log
        };
        if moved_log.is_empty() {
            return;
        }
        let line_bytes = self.config.l1.line_bytes as u64;
        let lines_per_page = (self.page_bytes() / line_bytes).max(1);
        let mut base_lines = std::mem::take(&mut self.scrub_lines);
        base_lines.clear();
        let mut census = NodeSet::default();
        let mut census_lost = false;
        for (page, old_home) in moved_log {
            let base_line = page.0 * lines_per_page;
            base_lines.push(base_line);
            match self.directories.get_mut(old_home.0) {
                Some(d) if d.resident_entries() > 0 => {
                    let (sharers, dropped) = d.drop_page_lines(base_line, lines_per_page);
                    self.scrub_probes += lines_per_page;
                    census.union_with(&sharers);
                    if dropped < lines_per_page {
                        // Some line had no entry: its holders (if any) are
                        // unknown, so the census no longer bounds the sweep.
                        census_lost = true;
                    }
                }
                _ => census_lost = true,
            }
            if let Some(l2) = self.l2s.get_mut(old_home.0) {
                if l2.resident_lines() > 0 {
                    l2.invalidate_page_run(base_line * line_bytes, lines_per_page);
                    self.scrub_probes += lines_per_page;
                }
            }
        }
        base_lines.sort_unstable();
        base_lines.dedup();
        for (core, l1) in self.l1s.iter_mut().enumerate() {
            if l1.resident_lines() == 0 || !(census_lost || census.contains(NodeId(core))) {
                continue;
            }
            self.scrub_probes += l1.resident_lines() as u64;
            l1.invalidate_page_set(&base_lines, lines_per_page);
        }
        self.scrub_lines = base_lines;
    }

    /// The L2 slices `pid` may currently home pages on.
    pub fn process_slices(&self, pid: ProcessId) -> Vec<SliceId> {
        self.processes[pid.0].home.allowed_slices().to_vec()
    }

    /// Borrowing variant of [`Machine::process_slices`] for per-interaction
    /// queries that must not allocate (see `tests/zero_alloc.rs`).
    pub fn process_slices_ref(&self, pid: ProcessId) -> &[SliceId] {
        self.processes[pid.0].home.allowed_slices()
    }

    /// Restricts the memory controllers (and therefore DRAM regions) `pid`
    /// allocates from. Only regions of the process's own security class served
    /// by a controller in `mask` remain eligible; pages that were already
    /// allocated elsewhere keep their mapping (as on the prototype, where the
    /// interleaving mask only affects future allocations). Returns the number
    /// of regions that remain.
    ///
    /// # Panics
    ///
    /// Panics if the mask would leave the process with no regions at all.
    pub fn set_process_controllers(&mut self, pid: ProcessId, mask: ControllerMask) -> usize {
        let owner = match self.processes[pid.0].class {
            SecurityClass::Secure => RegionOwner::Secure,
            SecurityClass::Insecure => RegionOwner::Insecure,
        };
        let regions: Vec<_> = self
            .regions
            .regions_of(owner)
            .iter()
            .filter(|r| mask.contains(r.controller))
            .map(|r| r.id)
            .collect();
        assert!(
            !regions.is_empty(),
            "controller mask {mask:?} leaves process {pid} with no DRAM regions"
        );
        let count = regions.len();
        self.processes[pid.0].regions = regions;
        count
    }

    // ----- address translation --------------------------------------------

    /// Translates a run of `count` accesses to the page containing `vaddr`
    /// issued by the thread of `pid` on `core`, returning `(paddr, tlb_hit)`
    /// for the run's first reference. This is the **single source of truth**
    /// for the TLB/translation timing model: the scalar path calls it with
    /// `count == 1`, the batched engine with the page-run length, and both
    /// charge `page_walk` exactly when `tlb_hit` is `false`.
    ///
    /// Two deliberately distinct structures cooperate here, with a seam that
    /// looks like double bookkeeping but is intended:
    ///
    /// * the [`Tlb`] is an **architectural timing model** — its hit/miss
    ///   outcome alone decides whether the page-walk latency is charged;
    /// * the per-core [`XlateMru`] is a **simulator-internal memoisation** of
    ///   the functional `virtual page → physical page` mapping, which exists
    ///   only to skip the page-table hash lookup on the hot path.
    ///
    /// A TLB miss therefore charges `page_walk` *even when the MRU cache
    /// short-circuits the functional walk* (e.g. re-touching a page right
    /// after a purge: the purge empties the TLB, so the access pays the walk
    /// latency, while the MRU — pure memoisation of an insert-only mapping —
    /// still remembers the translation). The MRU must never influence
    /// timing, or simulated latencies would depend on an implementation
    /// cache the modelled hardware does not have. Covered by
    /// `purged_tlb_charges_walk_even_when_mru_remembers` below.
    fn translate_page_run(
        &mut self,
        core: NodeId,
        pid: ProcessId,
        vaddr: u64,
        count: u64,
    ) -> (u64, bool) {
        let tlb_hit = self.tlbs[core.0].access_page_run(vaddr, count);
        let page_bytes = self.page_bytes();
        let vpn = vaddr / page_bytes;
        let offset = vaddr % page_bytes;
        let mru = self.xlate_mru[core.0];
        if mru.valid && mru.pid == pid.0 && mru.vpn == vpn {
            return (mru.ppn * page_bytes + offset, tlb_hit);
        }
        let ppn = self.walk_page_table(pid, vpn, page_bytes);
        self.xlate_mru[core.0] = XlateMru { valid: true, pid: pid.0, vpn, ppn };
        (ppn * page_bytes + offset, tlb_hit)
    }

    /// Looks `vpn` up in the process page table, allocating a fresh physical
    /// page from the process's regions on first touch.
    fn walk_page_table(&mut self, pid: ProcessId, vpn: u64, page_bytes: u64) -> u64 {
        let p = &mut self.processes[pid.0];
        if let Some(ppn) = p.page_table.get(&vpn) {
            return *ppn;
        }
        // Allocate a new physical page from the process's regions,
        // round-robin across regions, wrapping within each region.
        let region_idx = (p.allocated_pages as usize) % p.regions.len().max(1);
        let region_id = p.regions[region_idx];
        let region = self
            .regions
            .regions()
            .iter()
            .find(|r| r.id == region_id)
            .expect("process region must exist");
        let pages_per_region = (region.size / page_bytes).max(1);
        let index_in_region =
            (p.allocated_pages / p.regions.len().max(1) as u64) % pages_per_region;
        let ppn = region.base / page_bytes + index_in_region;
        p.page_table.insert(vpn, ppn);
        // Pin the page's home slice round-robin over the allowed slices.
        let slice = {
            let allowed = p.home.allowed_slices();
            if allowed.is_empty() {
                None
            } else {
                Some(allowed[(p.allocated_pages as usize) % allowed.len()])
            }
        };
        let mut scrub_from: Option<SliceId> = None;
        if let Some(slice) = slice {
            // A first touch normally pins a *fresh* physical page, but after
            // a reconfiguration shrinks the process's region list the
            // round-robin allocator can hand a second virtual page an
            // already-used ppn — and this pin then *moves* that ppn's home.
            let prev_pin = p.home.pinned_home(PageId(ppn));
            let _ = p.home.pin(PageId(ppn), slice);
            if let Some(old) = prev_pin {
                if old != slice {
                    // The home moved: the old home's directory entries and
                    // any cached copies are scrubbed below, exactly as a
                    // re-homing unmap/flush/remap would.
                    scrub_from = Some(old);
                }
            }
            // If the batched engine's page memo is bound to exactly
            // that (pid, ppn), drop it so the next miss re-reads the home
            // map like the scalar path does.
            if let Some((_, _, kpid, kppn)) = self.batch.key {
                if kpid == pid.0 && kppn == ppn {
                    self.batch.key = None;
                }
            }
        }
        p.allocated_pages += 1;
        if let Some(old) = scrub_from {
            // Routed through the reconfiguration mode so the differential
            // suite also covers the census-present aliasing path batched
            // against scalar.
            self.scrub_moved(&[(PageId(ppn), old)]);
        }
        ppn
    }

    /// Returns the physical address `vaddr` currently maps to for `pid`, or
    /// `None` if the page has not been touched yet. Unlike
    /// [`Machine::access`] this never allocates and has no timing effect; it
    /// exists so the speculative-access hardware check can screen physical
    /// addresses.
    pub fn peek_paddr(&self, pid: ProcessId, vaddr: u64) -> Option<u64> {
        let page_bytes = self.page_bytes();
        let vpn = vaddr / page_bytes;
        self.processes[pid.0]
            .page_table
            .get(&vpn)
            .map(|ppn| ppn * page_bytes + (vaddr % page_bytes))
    }

    // ----- the access path -------------------------------------------------

    /// Performs one memory access by the thread of `pid` running on `core`,
    /// returning the latency in cycles.
    ///
    /// This is the unmemoised reference the batched engine
    /// ([`Machine::access_run`]) is differentially tested against: it
    /// translates one reference at a time, collapses no same-line
    /// references, and consults neither the page memo nor the directory
    /// hints. An L1 miss or write-upgrade runs the batched engine's own miss
    /// and coherence steps, from a context whose home slice and controller
    /// start unresolved.
    ///
    /// # Panics
    ///
    /// Panics if `core` or `pid` is out of range.
    pub fn access(&mut self, core: NodeId, pid: ProcessId, vaddr: u64, write: bool) -> u64 {
        assert!(core.0 < self.config.cores(), "core {core} out of range");
        assert!(pid.0 < self.processes.len(), "unknown process {pid}");
        let (paddr, tlb_hit) = self.translate_page_run(core, pid, vaddr, 1);
        let lat = &self.config.latency;
        let mut cycles = lat.l1_hit + if tlb_hit { 0 } else { lat.page_walk };
        let (outcome, was_shared) = self.l1s[core.0].access_coherent(paddr, write);
        let mut path = AccessPath::L1;
        if outcome.is_miss() || (write && was_shared) {
            let ppn = paddr / self.page_bytes();
            let (mut ctx, _) = self.seg_ctx(core, pid, ppn, false);
            if outcome.is_miss() {
                let (extra, miss_path) = run_miss_path(&mut ctx, paddr, outcome.evicted(), write);
                cycles += extra;
                path = miss_path;
            } else {
                // Write hit on a Shared line: the directory write-upgrade
                // must invalidate every other sharer first.
                cycles += ctx.coherence(paddr, true, true);
            }
        }
        let dram = matches!(path, AccessPath::Dram { .. }) as u64;
        self.proc_stats[pid.0].record_refs(1, tlb_hit, outcome.is_miss() as u64, dram, cycles);
        self.last_path = Some(path);
        if let Some(trace) = &mut self.latency_trace {
            trace.record(cycles);
        }
        cycles
    }

    /// Splits the machine into the [`SegCtx`] of `core`'s accesses to page
    /// `ppn` of `pid`, plus the latency trace. With `memo` — the batched
    /// engine — the context starts from the page memo's home, controller and
    /// directory hints; without it — the scalar reference — it starts
    /// unresolved and without hints.
    #[inline(always)]
    fn seg_ctx(
        &mut self,
        core: NodeId,
        pid: ProcessId,
        ppn: u64,
        memo: bool,
    ) -> (SegCtx<'_>, Option<&mut LatencyTrace>) {
        let Machine {
            config,
            l1s,
            l2s,
            directories,
            net,
            controllers,
            mc_nodes,
            processes,
            regions,
            latency_trace,
            batch,
            load_hint,
            ..
        } = self;
        let (page_bytes, line_bytes) = (config.tlb.page_bytes as u64, config.l1.line_bytes as u64);
        let (home, mc, dir_hints) = if memo {
            // One-time lazy allocation (pages have one size per machine).
            batch.dir_hints.resize((page_bytes / line_bytes) as usize, None);
            (batch.home, batch.mc, &mut batch.dir_hints[..])
        } else {
            (None, None, &mut [][..])
        };
        let ctx = SegCtx {
            l2_hit: config.latency.l2_hit,
            core,
            pid,
            ppn,
            page_bytes,
            line_bytes,
            home,
            mc,
            dir_hints,
            l1s,
            directories,
            l2s,
            net,
            controllers,
            mc_nodes,
            processes,
            regions,
            load_hint: *load_hint,
            l2_accesses: 0,
            dram_accesses: 0,
        };
        (ctx, latency_trace.as_mut())
    }

    // ----- coherence observability (tests, invariant checks) ---------------

    /// Read-only view of the coherence directory at home slice `slice`.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is out of range.
    pub fn directory(&self, slice: SliceId) -> &Directory {
        &self.directories[slice.0]
    }

    /// Read-only view of `core`'s private L1 (for coherence invariant checks
    /// and tests: residency via [`SetAssocCache::probe`], MESI flags via
    /// [`SetAssocCache::line_flags`]).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn l1(&self, core: NodeId) -> &SetAssocCache {
        &self.l1s[core.0]
    }

    // ----- the batched access engine ----------------------------------------

    /// Performs every access of a run-length-encoded reference stream, in
    /// stream order, returning the summed latency in cycles. Equivalent to
    /// decoding the stream and calling [`Machine::access`] per reference —
    /// byte-identically so, in every observable effect (per-access latencies,
    /// cache/TLB/NoC/DRAM state and statistics, the latency trace) — but
    /// exploits the run structure to do per-page work once per run instead
    /// of once per reference. `tests/hot_path_equivalence.rs`
    /// drives the two paths differentially.
    pub fn access_stream(&mut self, core: NodeId, pid: ProcessId, stream: &RefStream) -> u64 {
        let mut total = 0;
        for run in stream.runs() {
            total += self.access_run(core, pid, *run);
        }
        total
    }

    /// Performs every access of one reference run (see
    /// [`Machine::access_stream`]), returning the summed latency in cycles.
    ///
    /// The run is split at page boundaries; each page segment then pays one
    /// bounds assertion, one batched TLB update, one translation and at most
    /// one home-slice and one controller lookup, instead of each per
    /// reference:
    ///
    /// * references in the same page share the TLB outcome of the first (a
    ///   page-run can only miss on its first reference) and its translation;
    /// * references in the same L1 line beyond the first are guaranteed hits
    ///   and collapse into one bulk recency/statistics update;
    /// * all L1 misses of a page segment go to the same home slice and — if
    ///   they reach DRAM — the same controller, memoised until the page,
    ///   core or process changes or pages are re-homed.
    ///
    /// Past the L1 lookup a reference runs exactly the steps of
    /// [`Machine::access`]: the same miss path and write-upgrade, charging
    /// every packet from the one route table.
    ///
    /// # Panics
    ///
    /// Panics if `core` or `pid` is out of range (like [`Machine::access`]).
    pub fn access_run(&mut self, core: NodeId, pid: ProcessId, run: RefRun) -> u64 {
        if run.len == 0 {
            return 0;
        }
        assert!(core.0 < self.config.cores(), "core {core} out of range");
        assert!(pid.0 < self.processes.len(), "unknown process {pid}");
        if run.len == 1 {
            // Irregular reference: still worth the segment path — the page
            // memo usually still holds this page's home and controller.
            return self.access_page_segment(core, pid, run);
        }
        let page_bytes = self.page_bytes();
        let mut total = 0u64;
        for seg in run.segments(page_bytes) {
            total += self.access_page_segment(core, pid, seg);
        }
        total
    }

    /// Executes one page segment of a run (every reference in one page).
    fn access_page_segment(&mut self, core: NodeId, pid: ProcessId, seg: RefRun) -> u64 {
        let (paddr0, tlb_hit) = self.translate_page_run(core, pid, seg.base, seg.len as u64);
        let ppn = paddr0 / self.page_bytes();
        self.batch.rebind((self.route_epoch, core.0, pid.0, ppn));
        let LatencyConfig { l1_hit, page_walk, .. } = self.config.latency;
        let mut walk = if tlb_hit { 0 } else { page_walk };
        let (mut ctx, mut trace) = self.seg_ctx(core, pid, ppn, true);
        let mut total = 0u64;
        let mut last_path = AccessPath::L1;
        // One group per L1 line the segment touches. Only a group's first
        // reference can miss or owe a write-upgrade; the rest collapse into
        // one bulk hit update, since after the first reference the core owns
        // the line or holds it Shared read-only. A stride of a line or more
        // makes every group a single reference, so the directory can act on
        // any L1, this core's own included, between references.
        for group in seg.segments(ctx.line_bytes) {
            let paddr = paddr0.wrapping_add(group.base.wrapping_sub(seg.base));
            let (outcome, was_shared) =
                ctx.l1s[core.0].access_line_run(paddr, group.len as u64, seg.write);
            let mut cycles = l1_hit + std::mem::take(&mut walk);
            last_path = AccessPath::L1;
            if outcome.is_miss() {
                let (extra, path) = run_miss_path(&mut ctx, paddr, outcome.evicted(), seg.write);
                cycles += extra;
                last_path = path;
            } else if seg.write && was_shared {
                cycles += ctx.coherence(paddr, true, true);
            }
            let extra_refs = group.len as u64 - 1;
            total += cycles + extra_refs * l1_hit;
            if let Some(t) = trace.as_deref_mut() {
                t.record(cycles);
                for _ in 0..extra_refs {
                    t.record(l1_hit);
                }
            }
            if extra_refs > 0 {
                last_path = AccessPath::L1;
            }
        }
        let SegCtx { home, mc, l2_accesses, dram_accesses, .. } = ctx;
        (self.batch.home, self.batch.mc) = (home, mc);
        self.proc_stats[pid.0].record_refs(
            seg.len as u64,
            tlb_hit,
            l2_accesses,
            dram_accesses,
            total,
        );
        self.last_path = Some(last_path);
        total
    }

    // ----- purges and reconfiguration --------------------------------------

    /// Flushes-and-invalidates the private L1 and TLB of one core, returning
    /// the cycles the operation takes on that core.
    pub fn purge_core(&mut self, core: NodeId) -> u64 {
        assert!(core.0 < self.config.cores(), "core {core} out of range");
        let lat = self.config.latency;
        let l1 = &mut self.l1s[core.0];
        let resident = l1.resident_lines() as u64;
        l1.purge();
        let tlb = &mut self.tlbs[core.0];
        let entries = tlb.resident() as u64;
        tlb.purge();
        self.core_purges += 1;
        resident * lat.purge_line + entries * lat.purge_tlb_entry
    }

    /// Purges the private state of all `cores` in parallel (as the prototype
    /// does), followed by a machine-wide memory fence. Returns the wall-clock
    /// cycles of the whole operation: the slowest core plus the fence.
    pub fn purge_private(&mut self, cores: &[NodeId]) -> u64 {
        let mut worst = 0;
        for c in cores {
            worst = worst.max(self.purge_core(*c));
        }
        if cores.is_empty() {
            0
        } else {
            worst + self.config.latency.purge_fence
        }
    }

    /// Purges the private state of **every** core in parallel followed by the
    /// machine-wide fence — the all-cores form of [`Machine::purge_private`]
    /// an MI6 enclave boundary performs, without the caller materialising a
    /// core list.
    ///
    /// The boundary also wipes every home slice's coherence directory (an
    /// O(1) generation bump per slice, covered by the fence cost): directory
    /// entries are microarchitectural state a later process could probe —
    /// residual owner/sharer metadata turns into observable
    /// invalidation/downgrade latencies, the coherence-state channel. With
    /// every private L1 emptied in the same stalled operation, dropping the
    /// directories whole keeps the protocol coherent (no cache holds a line
    /// the directories no longer track).
    pub fn purge_all_private(&mut self) -> u64 {
        let mut worst = 0;
        for c in 0..self.config.cores() {
            worst = worst.max(self.purge_core(NodeId(c)));
        }
        for d in &mut self.directories {
            d.purge();
        }
        worst + self.config.latency.purge_fence
    }

    /// Purges the queues and open-row state of the controllers selected by
    /// `mask`, returning the cycles of the slowest drain.
    pub fn purge_controllers(&mut self, mask: ControllerMask) -> u64 {
        let mut worst = 0;
        for id in mask.iter() {
            if id < self.controllers.len() {
                worst = worst.max(self.controllers[id].purge());
            }
        }
        worst
    }

    /// Drains the NoC: clears the per-link congestion state the analytical
    /// latency model accumulates. On the prototype the memory fence that ends
    /// a purge (`tmc_mem_fence`) only completes once every in-flight packet
    /// has drained, so no queue occupancy survives an enclave boundary; this
    /// is the network half of that fence. Returns the fence cycles charged.
    pub fn purge_network(&mut self) -> u64 {
        self.net.model.reset_load();
        self.config.latency.purge_fence
    }

    /// Flushes every shared L2 slice in `slices` (used when a slice changes
    /// cluster during reconfiguration), returning the cycles of the slowest
    /// flush.
    ///
    /// Each flushed slice's coherence directory is purged with it (O(1)
    /// generation bump): a slice that changes cluster must not carry the old
    /// owner's sharer/owner metadata to the new one. The reconfiguration
    /// protocol makes this coherent — moved tiles' private state is purged
    /// and the re-homed pages' lines are scrubbed from every L1 in the same
    /// stalled sequence (see `ClusterManager::reconfigure` in
    /// `ironhide-core`); a *bare* `purge_slices` outside that protocol can
    /// leave L1 copies the directories no longer track.
    pub fn purge_slices(&mut self, slices: &[SliceId]) -> u64 {
        let lat = self.config.latency;
        let mut worst = 0;
        for s in slices {
            if s.0 < self.l2s.len() {
                // An injected partial-completion fault can eat the purge
                // command itself: the slice keeps its contents (and charges
                // nothing — the packet never arrived) until the audit
                // replays it. Pure in (seed, slice), like the page scrubs.
                if let Some(fault) = &mut self.scrub_drop {
                    if scrub_drop_hits(
                        fault.seed ^ PURGE_DROP_SALT,
                        s.0 as u64,
                        fault.rate_per_mille,
                    ) {
                        fault.dropped_purges.push(*s);
                        continue;
                    }
                }
                let resident = self.l2s[s.0].resident_lines() as u64;
                self.l2s[s.0].purge();
                self.directories[s.0].purge();
                worst = worst.max(resident * lat.purge_line / 4);
            }
        }
        worst
    }

    /// Erases the machine state selected by a temporal-fence flush `set` —
    /// the functional half of a `TemporalFence` domain switch. The cycle
    /// charge is *not* computed here: the fence bills the state-independent
    /// worst case via `TemporalFenceConfig::switch_cost` (a flush whose
    /// duration tracked residual state would itself be a timing channel), so
    /// this method only performs the erasure.
    ///
    /// Per resource class:
    /// * `L1` — every core's private L1 is flush-invalidated;
    /// * `Tlb` — every core's TLB is invalidated;
    /// * `Directory` — every shared-L2 slice is flushed and its coherence
    ///   directory dropped (the machine-wide form of [`Machine::purge_slices`]
    ///   and with the same caveat: alone it can leave L1 copies the
    ///   directories no longer track, which the access paths tolerate via
    ///   their missing-entry fallbacks — under a full SIMF flush the L1s
    ///   empty in the same switch and the protocol stays exactly coherent);
    /// * `NocLoad` — the per-link congestion estimators reset
    ///   (the network half of the fence, as in [`Machine::purge_network`]);
    /// * `Controller` — every memory controller's request queue drains and
    ///   its open rows close;
    /// * `Predictor` — no functional effect: the simulator models no
    ///   predictor latency state, the class exists for its flush cost.
    ///
    /// A cache-class flush (`L1` or `Directory`) additionally scrubs the
    /// transient downstream state — the NoC link-load estimators and the
    /// memory controllers — as a side effect: the flush walk's
    /// writeback/invalidate storm traverses every link and controller and
    /// deterministically overwrites whatever load averages, queue residue
    /// and open rows the previous domain left behind. Without this, adding a
    /// cache flush could *reopen* a channel (cold attacker probes fall
    /// through to residue the warm cache used to absorb), breaking the
    /// ablation's monotonicity guarantee; the explicit `NocLoad` and
    /// `Controller` classes remain the only way to scrub those resources
    /// when no cache class is flushed, and carry the drain cost either way.
    ///
    /// Unlike the MI6 purge path this does not count toward `core_purges`
    /// (fence flushes are a different defence's bookkeeping) and is never
    /// intercepted by injected scrub-drop faults — the fence is modelled as
    /// a single atomic instruction, not a sequence of droppable packets.
    pub fn temporal_flush(&mut self, set: FlushSet) {
        if set.contains(FlushResource::L1) {
            for l1 in &mut self.l1s {
                l1.purge();
            }
        }
        if set.contains(FlushResource::Tlb) {
            for tlb in &mut self.tlbs {
                tlb.purge();
            }
        }
        if set.contains(FlushResource::Directory) {
            for l2 in &mut self.l2s {
                l2.purge();
            }
            for d in &mut self.directories {
                d.purge();
            }
        }
        let cache_flush_traffic =
            set.contains(FlushResource::L1) || set.contains(FlushResource::Directory);
        if set.contains(FlushResource::NocLoad) || cache_flush_traffic {
            self.net.model.reset_load();
        }
        if set.contains(FlushResource::Controller) || cache_flush_traffic {
            for mc in &mut self.controllers {
                mc.purge();
            }
        }
    }

    // ----- statistics -------------------------------------------------------

    /// Aggregated machine statistics.
    pub fn stats(&self) -> MachineStats {
        let mut out = MachineStats::new();
        for c in &self.l1s {
            out.l1.merge(c.stats());
        }
        for t in &self.tlbs {
            out.tlb.merge(t.stats());
        }
        for c in &self.l2s {
            out.l2.merge(c.stats());
        }
        for mc in &self.controllers {
            out.mem.merge(mc.stats());
        }
        for d in &self.directories {
            out.directory.merge(d.stats());
        }
        out.noc = self.net.stats.clone();
        out.core_purges = self.core_purges;
        out.pages_rehomed = self.pages_rehomed;
        out
    }

    /// Resets all statistics (cache contents are preserved). Used after the
    /// warm-up phase of each experiment.
    pub fn reset_stats(&mut self) {
        for c in &mut self.l1s {
            c.reset_stats();
        }
        for t in &mut self.tlbs {
            t.reset_stats();
        }
        for c in &mut self.l2s {
            c.reset_stats();
        }
        for d in &mut self.directories {
            d.reset_stats();
        }
        for mc in &mut self.controllers {
            mc.reset_stats();
        }
        self.net.stats.reset();
        for s in &mut self.proc_stats {
            s.reset();
        }
        self.core_purges = 0;
        self.pages_rehomed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::small_test())
    }

    #[test]
    fn l1_hit_after_miss() {
        let mut m = machine();
        let pid = m.create_process("p", SecurityClass::Insecure);
        let cold = m.access(NodeId(0), pid, 0x1000, false);
        assert!(matches!(m.last_path(), Some(AccessPath::Dram { .. })));
        let warm = m.access(NodeId(0), pid, 0x1000, false);
        assert!(matches!(m.last_path(), Some(AccessPath::L1)));
        assert!(warm < cold);
        assert_eq!(warm, m.config().latency.l1_hit);
    }

    #[test]
    fn l2_services_other_cores_misses() {
        let mut m = machine();
        let pid = m.create_process("p", SecurityClass::Insecure);
        m.access(NodeId(0), pid, 0x2000, false);
        // A different core misses its own L1 but hits the shared slice.
        m.access(NodeId(1), pid, 0x2000, false);
        assert!(matches!(m.last_path(), Some(AccessPath::L2 { .. })));
    }

    #[test]
    fn secure_and_insecure_pages_live_in_their_regions() {
        let mut m = machine();
        let sec = m.create_process("enclave", SecurityClass::Secure);
        let ins = m.create_process("os", SecurityClass::Insecure);
        m.access(NodeId(0), sec, 0x0, true);
        m.access(NodeId(1), ins, 0x0, true);
        let sstats = m.process_stats(sec);
        let istats = m.process_stats(ins);
        assert_eq!(sstats.l1.accesses, 1);
        assert_eq!(istats.l1.accesses, 1);
        // Different processes with the same virtual address must not alias.
        assert_eq!(m.process_footprint_pages(sec), 1);
        assert_eq!(m.process_footprint_pages(ins), 1);
    }

    #[test]
    fn purge_core_causes_cold_misses() {
        let mut m = machine();
        let pid = m.create_process("p", SecurityClass::Insecure);
        for i in 0..8u64 {
            m.access(NodeId(0), pid, i * 64, false);
        }
        // Warm: all hits.
        let warm: u64 = (0..8u64).map(|i| m.access(NodeId(0), pid, i * 64, false)).sum();
        let purge_cost = m.purge_core(NodeId(0));
        assert!(purge_cost > 0);
        let cold: u64 = (0..8u64).map(|i| m.access(NodeId(0), pid, i * 64, false)).sum();
        assert!(cold > warm, "post-purge accesses must be slower ({cold} <= {warm})");
    }

    #[test]
    fn purge_private_parallel_cost_is_max_plus_fence() {
        let mut m = machine();
        let pid = m.create_process("p", SecurityClass::Insecure);
        for i in 0..16u64 {
            m.access(NodeId(0), pid, i * 64, false);
        }
        let fence = m.config().latency.purge_fence;
        let cost = m.purge_private(&[NodeId(0), NodeId(1)]);
        assert!(cost > fence);
        assert_eq!(m.stats().core_purges, 2);
        assert_eq!(m.purge_private(&[]), 0);
    }

    #[test]
    fn set_process_slices_rehomes_pages() {
        let mut m = machine();
        let pid = m.create_process("p", SecurityClass::Insecure);
        for p in 0..6u64 {
            m.access(NodeId(0), pid, p * 4096, false);
        }
        let (moved, cycles) = m.set_process_slices(pid, &[SliceId(3)]);
        assert!(moved > 0, "restricting slices must re-home pages");
        assert_eq!(cycles, moved * m.config().latency.rehome_page);
        assert_eq!(m.process_slices(pid), vec![SliceId(3)]);
        // All subsequent L1 misses for this process now travel to slice 3.
        m.purge_core(NodeId(0));
        m.access(NodeId(0), pid, 0, false);
        match m.last_path() {
            Some(AccessPath::L2 { home }) | Some(AccessPath::Dram { home, .. }) => {
                assert_eq!(home, NodeId(3));
            }
            other => panic!("expected an L2/DRAM path, got {other:?}"),
        }
    }

    #[test]
    fn cluster_map_keeps_intra_cluster_traffic_contained() {
        let mut m = machine();
        let pid = m.create_process("p", SecurityClass::Secure);
        let map = ClusterMap::row_major_split(MeshTopology::new(2, 2), 2);
        // Dedicate to the secure cluster the north controller beside its row,
        // as IRONHIDE does, so off-chip traffic also stays contained.
        m.set_process_controllers(pid, ControllerMask::first(1));
        m.set_cluster_map(Some(map));
        m.set_process_slices(pid, &[SliceId(0), SliceId(1)]);
        for p in 0..4u64 {
            m.access(NodeId(0), pid, p * 4096, false);
        }
        assert_eq!(m.stats().noc.cross_cluster_packets, 0);
    }

    #[test]
    fn controller_purge_counts() {
        let mut m = machine();
        let pid = m.create_process("p", SecurityClass::Insecure);
        m.access(NodeId(0), pid, 0x10_000, false);
        let cycles = m.purge_controllers(ControllerMask::first(2));
        assert!(cycles > 0);
        assert_eq!(m.stats().mem.purges, 2);
    }

    #[test]
    fn dropped_scrub_fault_is_detected_then_recovery_restores_the_clean_state() {
        // Twin machines run the identical workload; one suffers a
        // drop-everything scrub fault during its reconfiguration, audits it,
        // and recovers. After recovery every architectural observation must
        // match the healthy twin cycle for cycle.
        let mut healthy = machine();
        let mut faulted = machine();
        faulted.set_scrub_drop_fault(0xFA_017, 1000);
        for m in [&mut healthy, &mut faulted] {
            let pid = m.create_process("p", SecurityClass::Insecure);
            for p in 0..6u64 {
                m.access(NodeId(0), pid, p * 4096, false);
            }
        }
        let pid = ProcessId(0);
        let (moved_h, _) = healthy.set_process_slices(pid, &[SliceId(3)]);
        let (moved_f, _) = faulted.set_process_slices(pid, &[SliceId(3)]);
        assert_eq!(moved_h, moved_f);
        assert!(moved_f > 0);
        // Detection: the audit names every page whose flush the fault ate.
        assert_eq!(faulted.dropped_scrub_log().len(), moved_f as usize);
        assert_eq!(healthy.dropped_scrub_log().len(), 0);
        // Recovery replays the drops; the audit comes back clean.
        assert_eq!(faulted.recover_dropped_scrubs(), moved_f);
        assert!(faulted.dropped_scrub_log().is_empty());
        assert_eq!(faulted.recover_dropped_scrubs(), 0);
        for p in 0..6u64 {
            for core in [NodeId(0), NodeId(2)] {
                let h = healthy.access(core, pid, p * 4096, false);
                let f = faulted.access(core, pid, p * 4096, false);
                assert_eq!(h, f, "page {p} core {core:?} diverged after recovery");
            }
        }
        assert_eq!(faulted.clear_scrub_drop_fault(), 0);
    }

    #[test]
    fn scalar_and_batched_scrub_paths_drop_the_identical_page_set() {
        let mut batched = machine();
        let mut scalar = machine();
        scalar.set_reconfig_reference(true);
        for m in [&mut batched, &mut scalar] {
            m.set_scrub_drop_fault(99, 500);
            let pid = m.create_process("p", SecurityClass::Insecure);
            for p in 0..32u64 {
                m.access(NodeId(1), pid, p * 4096, true);
            }
            m.set_process_slices(pid, &[SliceId(2)]);
        }
        assert_eq!(batched.dropped_scrub_log(), scalar.dropped_scrub_log());
        assert!(
            !batched.dropped_scrub_log().is_empty(),
            "a 50% drop rate over 32 pages must eat something"
        );
    }

    #[test]
    fn pristine_reset_repairs_every_injected_fault() {
        let mut m = machine();
        m.set_scrub_drop_fault(7, 1000);
        m.set_link_fault(NodeId(0), NodeId(1), 77).unwrap();
        m.set_controller_fault_stall(0, 55);
        let pid = m.create_process("p", SecurityClass::Insecure);
        for p in 0..4u64 {
            m.access(NodeId(0), pid, p * 4096, false);
        }
        m.set_process_slices(pid, &[SliceId(1)]);
        assert!(!m.dropped_scrub_log().is_empty());
        m.reset_pristine();
        assert!(m.dropped_scrub_log().is_empty());
        assert_eq!(m.net.model.faulted_links(), 0);
        assert_eq!(m.controllers[0].fault_stall(), 0);
    }

    #[test]
    fn link_faults_are_refused_off_the_mesh_and_charged_on_it() {
        let drive = |m: &mut Machine| -> u64 {
            let pid = m.create_process("p", SecurityClass::Insecure);
            (0..256u64).map(|i| m.access(NodeId(1), pid, (i % 64) * 4096, i % 3 == 0)).sum()
        };
        let healthy = drive(&mut machine());
        let mut m = machine();
        // On the 2×2 mesh: a diagonal pair, a self-pair and an absent node.
        for (from, to) in [(0, 3), (1, 1), (0, 4)] {
            let (from, to) = (NodeId(from), NodeId(to));
            assert_eq!(m.set_link_fault(from, to, 1_000), Err(NotALink { from, to }));
        }
        assert_eq!(m.net.model.faulted_links(), 0, "a refused pair leaves no dead entry");
        m.set_link_fault(NodeId(1), NodeId(0), 1_000).unwrap();
        assert!(drive(&mut m) > healthy, "a fault on a used link must cost cycles");
    }

    #[test]
    fn stats_reset_preserves_cache_contents() {
        let mut m = machine();
        let pid = m.create_process("p", SecurityClass::Insecure);
        m.access(NodeId(0), pid, 0x40, false);
        m.reset_stats();
        assert_eq!(m.stats().l1.accesses, 0);
        assert_eq!(m.process_stats(pid).l1.accesses, 0);
        // Contents survived the reset: this access still hits.
        m.access(NodeId(0), pid, 0x40, false);
        assert_eq!(m.process_stats(pid).l1.hits, 1);
    }

    #[test]
    fn footprint_tracks_distinct_pages() {
        let mut m = machine();
        let pid = m.create_process("p", SecurityClass::Insecure);
        for p in 0..5u64 {
            m.access(NodeId(0), pid, p * 4096 + 8, false);
            m.access(NodeId(0), pid, p * 4096 + 16, false);
        }
        assert_eq!(m.process_footprint_pages(pid), 5);
    }

    #[test]
    fn latency_trace_observes_access_latencies() {
        let mut m = machine();
        let pid = m.create_process("p", SecurityClass::Insecure);
        assert!(m.latency_trace().is_none());
        m.enable_latency_trace(8);
        let a = m.access(NodeId(0), pid, 0x1000, false);
        let b = m.access(NodeId(0), pid, 0x1000, false);
        let trace = m.latency_trace().expect("trace attached");
        assert_eq!(trace.iter().collect::<Vec<_>>(), vec![a, b]);
        m.latency_trace_mut().unwrap().clear();
        let c = m.access(NodeId(0), pid, 0x2000, false);
        let trace = m.latency_trace().unwrap();
        assert_eq!(trace.iter().collect::<Vec<_>>(), vec![c]);
        assert_eq!(trace.recorded(), 3, "lifetime count survives the window clear");
    }

    #[test]
    fn purge_network_clears_link_congestion() {
        let mut m = machine();
        let pid = m.create_process("p", SecurityClass::Insecure);
        // Congest the core-1 → slice-0 route: stream one slice-sized page
        // (homed on slice 0) from core 1 until the link-load estimators
        // saturate. Each measurement purges core 1's private state first so
        // the reference access always takes the remote-L2 path.
        let probe = |m: &mut Machine| {
            m.purge_core(NodeId(1));
            m.access(NodeId(1), pid, 0x40, false)
        };
        for _ in 0..16 {
            for line in 0..64u64 {
                m.access(NodeId(1), pid, line * 64, false);
            }
        }
        let congested = probe(&mut m);
        let fence = m.purge_network();
        assert_eq!(fence, m.config().latency.purge_fence);
        let drained = probe(&mut m);
        assert!(
            drained < congested,
            "draining the network must drop the route back to its uncongested \
             latency ({drained} >= {congested})"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_core_rejected() {
        let mut m = machine();
        let pid = m.create_process("p", SecurityClass::Insecure);
        m.access(NodeId(99), pid, 0, false);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_core_rejected_by_batched_path() {
        let mut m = machine();
        let pid = m.create_process("p", SecurityClass::Insecure);
        m.access_run(NodeId(99), pid, crate::stream::RefRun::new(0, 64, 8, false));
    }

    /// The TLB/translation seam: a TLB miss charges the page-walk latency
    /// even when the simulator's per-core MRU translation memo still holds
    /// the mapping (here: right after a purge, which empties the TLB but not
    /// the MRU — the MRU memoises an insert-only functional mapping and must
    /// never influence timing). See `Machine::translate_page_run`.
    #[test]
    fn purged_tlb_charges_walk_even_when_mru_remembers() {
        let mut m = machine();
        let pid = m.create_process("p", SecurityClass::Insecure);
        m.access(NodeId(0), pid, 0x1000, false);
        let warm = m.access(NodeId(0), pid, 0x1000, false);
        assert_eq!(warm, m.config().latency.l1_hit);
        m.purge_core(NodeId(0));
        // Post-purge, the TLB is cold (the MRU is not) and the L1 is cold:
        // the access must pay the architectural walk on top of its miss path.
        let after = m.access(NodeId(0), pid, 0x1000, false);
        assert_eq!(m.process_stats(pid).tlb.misses, 2, "purge must cost a real TLB miss");
        assert!(
            after >= m.config().latency.page_walk,
            "TLB miss must charge the walk even on an MRU hit ({after})"
        );
    }

    /// A recycled machine replays a workload byte-identically to a fresh one.
    #[test]
    fn reset_pristine_machine_replays_identically() {
        let drive = |m: &mut Machine| -> (Vec<u64>, String) {
            let pid = m.create_process("p", SecurityClass::Secure);
            let mut lat = Vec::new();
            for i in 0..600u64 {
                lat.push(m.access(NodeId(i as usize % 4), pid, (i % 96) * 64, i % 5 == 0));
            }
            m.purge_core(NodeId(0));
            for i in 0..64u64 {
                lat.push(m.access(NodeId(0), pid, i * 4096, false));
            }
            (lat, format!("{:?}|{:?}", m.stats(), m.process_stats(pid)))
        };
        let mut fresh = machine();
        let (lat_fresh, stats_fresh) = drive(&mut fresh);
        // Dirty a machine thoroughly, then recycle it.
        let mut recycled = machine();
        let pid = recycled.create_process("dirt", SecurityClass::Insecure);
        for i in 0..2000u64 {
            recycled.access(NodeId(i as usize % 4), pid, i * 64, true);
        }
        recycled.enable_latency_trace(16);
        recycled.set_load_hint(9);
        recycled.reset_pristine();
        let (lat_rec, stats_rec) = drive(&mut recycled);
        assert_eq!(lat_fresh, lat_rec);
        assert_eq!(stats_fresh, stats_rec);
    }

    /// Quick in-crate differential: the batched engine and the scalar path
    /// agree on latencies, stats and state for a mixed stream (the full
    /// property-based differential lives in tests/hot_path_equivalence.rs).
    #[test]
    fn access_stream_matches_scalar_path() {
        use crate::stream::{MemRef, RefStream};
        let mut batched = machine();
        let mut scalar = machine();
        let pid_b = batched.create_process("p", SecurityClass::Insecure);
        let pid_s = scalar.create_process("p", SecurityClass::Insecure);

        let mut stream = RefStream::new();
        // Page-straddling line sweep, a stride-0 hot spot, a sub-line walk,
        // a descending sweep and a page-stride sprint.
        for i in 0..96u64 {
            stream.push(MemRef::write(0xf00 + i * 64));
        }
        for _ in 0..10 {
            stream.push(MemRef::read(0x2040));
        }
        for i in 0..48u64 {
            stream.push(MemRef::read(0x3000 + i * 24));
        }
        for i in 0..32u64 {
            stream.push(MemRef::read(0x9000 - i * 64));
        }
        for i in 0..8u64 {
            stream.push(MemRef::read(0x20_000 + i * 4096));
        }

        batched.enable_latency_trace(512);
        scalar.enable_latency_trace(512);
        let total_b = batched.access_stream(NodeId(1), pid_b, &stream);
        let total_s: u64 =
            stream.iter().map(|r| scalar.access(NodeId(1), pid_s, r.vaddr, r.write)).sum();
        assert_eq!(total_b, total_s);
        assert_eq!(batched.last_path(), scalar.last_path());
        let tb = batched.latency_trace().unwrap();
        let ts = scalar.latency_trace().unwrap();
        assert_eq!(tb.iter().collect::<Vec<_>>(), ts.iter().collect::<Vec<_>>());
        assert_eq!(format!("{:?}", batched.stats()), format!("{:?}", scalar.stats()));
        assert_eq!(
            format!("{:?}", batched.process_stats(pid_b)),
            format!("{:?}", scalar.process_stats(pid_s))
        );
    }
}
