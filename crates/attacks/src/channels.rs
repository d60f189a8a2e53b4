//! The covert-channel workload library.
//!
//! Each [`ChannelKind`] builds a [`StreamChannel`] — a concrete
//! [`CovertChannel`] made of four fixed reference streams (prime, protocol,
//! secret, probe) sized from the attacked machine's geometry. The victim
//! encodes a 1 by executing its secret burst and a 0 by staying idle; the
//! attacker decodes from the latency of its probe stream.
//!
//! All five channels share one design rule: the *protocol* traffic (the
//! interaction both parties legitimately perform, e.g. reading the shared
//! IPC buffer) is identical in every slot, so any decodable signal must come
//! from secret-dependent microarchitectural residue — exactly the leakage
//! IRONHIDE's spatial isolation claims to remove.
//!
//! The base virtual addresses of every stream are shifted by a seed-derived
//! page-aligned offset, so the attacks do not depend on one lucky address
//! layout; sizes derive from the machine configuration. The supported
//! testbench is [`MachineConfig::attack_testbench`], whose one-page-fills-
//! one-slice L2 geometry makes page-granular occupancy eviction exact.

use ironhide_core::app::{MemRef, RefRun, RefStream};
use ironhide_core::attack::{ChannelPlacement, CovertChannel};
use ironhide_core::ipc::SharedIpcBuffer;
use ironhide_sim::config::MachineConfig;

/// The five stream channels of the suite, each targeting a different piece
/// of shared microarchitecture state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// Prime+probe on the distributed shared L2: the attacker fills half the
    /// slices with its own lines; the victim's secret burst sweeps a working
    /// set large enough to evict them, turning the attacker's re-probe from
    /// L2 hits into DRAM round trips.
    L2SliceOccupancy,
    /// NoC link-contention timing: the attacker streams requests over a row
    /// of mesh links; the victim's secret burst is write-back-heavy (5-flit
    /// packets) traffic that raises those links' congestion estimate, which
    /// the analytical NoC model converts into extra per-hop cycles.
    NocLinkContention,
    /// TLB occupancy: attacker and victim time-share a core (where the
    /// architecture allows it); the victim's secret burst touches enough
    /// pages to evict the attacker's TLB entries, so the re-probe pays page
    /// walks.
    TlbOccupancy,
    /// Timing probe on the shared IPC buffer: the buffer itself is the one
    /// legitimately shared region, and the attacker times re-reads of it.
    /// The victim's *fixed* buffer read carries no information; its secret
    /// burst (private-data processing) evicts the buffer's lines from the
    /// shared L2 only when L2 slices are shared.
    IpcBufferTiming,
    /// Coherence-state channel through directory conflicts ("attack
    /// directories, not caches"): the attacker primes a small working set
    /// that *fits its own L1* — so an undisturbed probe is pure L1 hits —
    /// and whose directory entries live at one home slice. The victim's
    /// secret burst writes a sweep wide enough to claim that slice's
    /// bounded directory with Modified entries; the displaced entries'
    /// copies are **back-invalidated** out of the attacker's L1, and the
    /// attacker reads the bit from the invalidation-induced misses of its
    /// re-probe. No cache the attacker owns was ever evicted — only the
    /// coherence metadata moved.
    CoherenceState,
}

impl ChannelKind {
    /// All channels, in presentation order.
    pub const ALL: [ChannelKind; 5] = [
        ChannelKind::L2SliceOccupancy,
        ChannelKind::NocLinkContention,
        ChannelKind::TlbOccupancy,
        ChannelKind::IpcBufferTiming,
        ChannelKind::CoherenceState,
    ];

    /// The channel's display label (also its attack-matrix axis label).
    pub fn label(self) -> &'static str {
        match self {
            ChannelKind::L2SliceOccupancy => "l2-slice-occupancy",
            ChannelKind::NocLinkContention => "noc-link-contention",
            ChannelKind::TlbOccupancy => "tlb-occupancy",
            ChannelKind::IpcBufferTiming => "ipc-buffer-timing",
            ChannelKind::CoherenceState => "coherence-state",
        }
    }

    /// Builds the channel's reference streams for a machine of `config`'s
    /// geometry, with all stream bases shifted by a `seed`-derived offset.
    pub fn build(self, config: &MachineConfig, seed: u64) -> StreamChannel {
        let g = Geometry::of(config, seed);
        match self {
            ChannelKind::L2SliceOccupancy => g.l2_slice_occupancy(),
            ChannelKind::NocLinkContention => g.noc_link_contention(),
            ChannelKind::TlbOccupancy => g.tlb_occupancy(),
            ChannelKind::IpcBufferTiming => g.ipc_buffer_timing(),
            ChannelKind::CoherenceState => g.coherence_state(),
        }
    }
}

/// A covert channel described by four fixed, run-encoded reference streams.
#[derive(Debug, Clone)]
pub struct StreamChannel {
    name: &'static str,
    placement: ChannelPlacement,
    prime: RefStream,
    protocol: RefStream,
    secret: RefStream,
    probe: RefStream,
}

impl CovertChannel for StreamChannel {
    fn name(&self) -> &str {
        self.name
    }
    fn placement(&self) -> ChannelPlacement {
        self.placement
    }
    fn prime(&self) -> &RefStream {
        &self.prime
    }
    fn victim_protocol(&self) -> &RefStream {
        &self.protocol
    }
    fn victim_secret(&self) -> &RefStream {
        &self.secret
    }
    fn probe(&self) -> &RefStream {
        &self.probe
    }
}

/// Geometry-derived stream sizes plus the seed-shifted address bases.
struct Geometry {
    line: u64,
    page: u64,
    cores: usize,
    tlb_entries: usize,
    l1_lines: usize,
    /// Entries one home slice's coherence directory can hold.
    dir_entries: usize,
    /// Seed-derived page-aligned shift applied to every stream base.
    shift: u64,
}

/// Virtual base of the attacker's private streams (pre-shift).
const ATTACKER_BASE: u64 = 0x1000_0000;
/// Virtual base of the victim's private streams (pre-shift).
const VICTIM_BASE: u64 = 0x2000_0000;
/// Virtual base of the shared region (the IPC buffer's address range).
const SHARED_BASE: u64 = 0x4000_0000;

impl Geometry {
    fn of(config: &MachineConfig, seed: u64) -> Self {
        Geometry {
            line: config.l1.line_bytes as u64,
            page: config.tlb.page_bytes as u64,
            cores: config.cores(),
            tlb_entries: config.tlb.entries,
            l1_lines: config.l1.lines(),
            dir_entries: config.directory.entries(),
            shift: (splitmix(seed) % 64) * config.tlb.page_bytes as u64,
        }
    }

    /// `pages` pages of back-to-back line touches starting at `base` — one
    /// line-stride run.
    fn page_stream(&self, base: u64, pages: usize, write: bool) -> RefStream {
        let lines_per_page = self.page / self.line;
        let mut s = RefStream::new();
        s.push_run(RefRun::new(
            base + self.shift,
            self.line,
            (pages as u64 * lines_per_page) as u32,
            write,
        ));
        s
    }

    /// One line touched on each of `pages` consecutive pages at `base` — one
    /// page-stride run.
    fn page_heads(&self, base: u64, pages: usize) -> RefStream {
        let mut s = RefStream::new();
        s.push_run(RefRun::new(base + self.shift, self.page, pages as u32, false));
        s
    }

    /// The fixed interaction: the victim streams a shared region of twice
    /// its L1's capacity every slot, whatever it transmits.
    ///
    /// The stream being larger than the L1 makes the protocol *data
    /// oblivious*: it misses the victim's private cache on every pass, so
    /// its downstream footprint in the (shared-region) L2 slices is the
    /// same whether or not the preceding secret burst wiped the victim's
    /// L1. A smaller protocol would hit or miss depending on the secret and
    /// re-export the bit into attacker-visible L2 state one slot later —
    /// the "Shield Bash" effect of a defence's own interaction mechanism
    /// carrying the leak, which showed up as a one-slot-delayed echo in an
    /// earlier version of this suite.
    fn oblivious_protocol(&self) -> RefStream {
        let mut s = RefStream::new();
        s.push_run(RefRun::new(
            SHARED_BASE + self.shift,
            self.line,
            2 * self.l1_lines as u32,
            false,
        ));
        s
    }

    /// Pages the oblivious protocol stream spans.
    fn protocol_pages(&self) -> usize {
        (2 * self.l1_lines as u64 * self.line).div_ceil(self.page) as usize
    }

    fn l2_slice_occupancy(&self) -> StreamChannel {
        // Half the machine's slices worth of pages: under spatial isolation
        // this fits the attacker's own slice allocation exactly (one page
        // per slice), while on a shared machine the victim's double-coverage
        // sweep evicts every primed line.
        let prime = self.page_stream(ATTACKER_BASE, self.cores / 2, false);
        StreamChannel {
            name: ChannelKind::L2SliceOccupancy.label(),
            placement: ChannelPlacement::DistinctCores,
            probe: prime.clone(),
            prime,
            protocol: self.oblivious_protocol(),
            secret: self.page_stream(VICTIM_BASE, self.cores * 2, false),
        }
    }

    fn noc_link_contention(&self) -> StreamChannel {
        // The attacker's stream spans enough pages to reach remote slices,
        // thrashing its own L1 so every probe access becomes a NoC round
        // trip. The victim's burst is a *write* sweep: dirty evictions emit
        // 5-flit write-back packets that drag the shared links' flit-mix
        // estimate (and with it the per-hop contention penalty) upward.
        let prime = self.page_stream(ATTACKER_BASE, self.cores / 2, false);
        StreamChannel {
            name: ChannelKind::NocLinkContention.label(),
            placement: ChannelPlacement::SharedCore,
            probe: prime.clone(),
            prime,
            protocol: self.oblivious_protocol(),
            secret: self.page_stream(VICTIM_BASE, self.cores * 2, true),
        }
    }

    fn tlb_occupancy(&self) -> StreamChannel {
        // One line per page: the prime fills the shared core's TLB — minus
        // the entries the protocol stream occupies every slot, so the
        // protocol never starts an LRU eviction cascade through the primed
        // entries — the victim's page-spray evicts it, and every re-probe
        // then pays a page walk.
        let pages = self.tlb_entries.saturating_sub(self.protocol_pages()).max(1);
        let prime = self.page_heads(ATTACKER_BASE, pages);
        StreamChannel {
            name: ChannelKind::TlbOccupancy.label(),
            placement: ChannelPlacement::SharedCore,
            probe: prime.clone(),
            prime,
            protocol: self.oblivious_protocol(),
            secret: self.page_heads(VICTIM_BASE, self.tlb_entries * 4),
        }
    }

    fn coherence_state(&self) -> StreamChannel {
        // The prime reads consecutive lines sized to fit BOTH the
        // attacker's private L1 (a clean re-probe costs l1_hit × lines,
        // with no L2 or NoC trip to add noise) AND one page, so it homes on
        // a single slice and its directory entries sit in one bounded
        // directory. The victim's secret is a *write* sweep sized from the
        // machine's directory geometry — per slice it streams twice the
        // directory's entry capacity, so its Modified-entry claims flood
        // every directory set of every slice its pages home on, and the
        // LRU displacement of the attacker's entries back-invalidates the
        // primed lines out of the attacker's L1. Under IRONHIDE the
        // victim's pages — and therefore its directory claims — are
        // confined to its own cluster's slices, so the attacker's entries
        // are never displaced and the probe stays flat at L1-hit latency.
        let lines_per_page = (self.page / self.line).max(1) as usize;
        let prime_lines = self.l1_lines.min(lines_per_page);
        let prime = {
            let mut s = RefStream::new();
            s.push_run(RefRun::new(
                ATTACKER_BASE + self.shift,
                self.line,
                prime_lines as u32,
                false,
            ));
            s
        };
        // Pages whose lines double-cover one slice's directory; the
        // round-robin page pinning spreads `cores` times that over all
        // (allowed) slices.
        let pages_per_slice = (2 * self.dir_entries).div_ceil(lines_per_page).max(1);
        StreamChannel {
            name: ChannelKind::CoherenceState.label(),
            placement: ChannelPlacement::DistinctCores,
            probe: prime.clone(),
            prime,
            protocol: self.oblivious_protocol(),
            secret: self.page_stream(VICTIM_BASE, self.cores * pages_per_slice, true),
        }
    }

    fn ipc_buffer_timing(&self) -> StreamChannel {
        // The monitored structure is the shared IPC buffer itself, built
        // through the same ring-buffer descriptor the performance runner
        // uses. The attacker produces (writes) the whole buffer as its
        // prime and times a full re-read as its probe; the victim's fixed
        // protocol consumes one page of it every slot.
        let buffer_bytes = (self.cores as u64 / 2) * self.page;
        let mut buffer = SharedIpcBuffer::new(SHARED_BASE + self.shift, buffer_bytes, self.line);
        let prime = buffer.produce(buffer_bytes);
        let probe = RefStream::from_refs(prime.iter().map(|r| MemRef::read(r.vaddr)));
        StreamChannel {
            name: ChannelKind::IpcBufferTiming.label(),
            placement: ChannelPlacement::DistinctCores,
            protocol: buffer.consume(self.page),
            secret: self.page_stream(VICTIM_BASE, self.cores * 2, false),
            prime,
            probe,
        }
    }
}

/// The SplitMix64 stream increment ("golden gamma").
pub(crate) const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64: one crate-wide scrambler for seed-derived decisions (stream
/// base shifts here, payload shuffling in [`crate::oracle`]).
pub(crate) fn splitmix(state: u64) -> u64 {
    let mut z = state.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn testbench() -> MachineConfig {
        MachineConfig::attack_testbench()
    }

    #[test]
    fn channels_are_seed_deterministic() {
        for kind in ChannelKind::ALL {
            let a = kind.build(&testbench(), 42);
            let b = kind.build(&testbench(), 42);
            assert_eq!(a.prime, b.prime, "{}", kind.label());
            assert_eq!(a.probe, b.probe);
            assert_eq!(a.secret, b.secret);
            assert_eq!(a.protocol, b.protocol);
        }
    }

    #[test]
    fn seed_shifts_stream_bases_page_aligned() {
        let page = testbench().tlb.page_bytes as u64;
        let mut distinct = std::collections::BTreeSet::new();
        for seed in 0..16u64 {
            let c = ChannelKind::L2SliceOccupancy.build(&testbench(), seed);
            let base = c.prime.iter().next().unwrap().vaddr;
            assert_eq!(base % page, 0, "stream base must stay page aligned");
            distinct.insert(base);
        }
        assert!(distinct.len() > 1, "different seeds must shift the layout");
    }

    #[test]
    fn stream_shapes_match_geometry() {
        let config = testbench();
        let lines_per_page = (config.tlb.page_bytes / config.l1.line_bytes) as u64;

        let l2 = ChannelKind::L2SliceOccupancy.build(&config, 0);
        assert_eq!(l2.prime.len() as u64, (config.cores() as u64 / 2) * lines_per_page);
        assert_eq!(l2.prime.len(), l2.probe.len());
        assert_eq!(l2.secret.len() as u64, config.cores() as u64 * 2 * lines_per_page);
        assert_eq!(l2.placement, ChannelPlacement::DistinctCores);
        // The protocol is data-oblivious: it streams twice the L1's capacity.
        assert_eq!(l2.protocol.len(), 2 * config.l1.lines());

        let tlb = ChannelKind::TlbOccupancy.build(&config, 0);
        // The prime leaves TLB room for the protocol's pages so the fixed
        // interaction cannot start an eviction cascade through it.
        assert_eq!(tlb.prime.len(), config.tlb.entries - 1);
        assert_eq!(tlb.secret.len(), config.tlb.entries * 4);
        assert_eq!(tlb.placement, ChannelPlacement::SharedCore);

        let noc = ChannelKind::NocLinkContention.build(&config, 0);
        assert!(noc.secret.iter().all(|r| r.write), "NoC burst must be write-back heavy");
        assert!(noc.probe.iter().all(|r| !r.write));

        let coh = ChannelKind::CoherenceState.build(&config, 0);
        assert_eq!(
            coh.prime.len() as u64,
            (config.l1.lines() as u64).min(lines_per_page),
            "prime must fit both the L1 and one page"
        );
        assert_eq!(coh.prime.len(), coh.probe.len());
        assert!(coh.secret.iter().all(|r| r.write), "the secret claims Modified dir entries");
        // Per slice the sweep double-covers the directory's entry capacity
        // (on the testbench: 2 pages/slice × 8 slices = 16 pages).
        let pages_per_slice =
            (2 * config.directory.entries() as u64).div_ceil(lines_per_page).max(1);
        assert_eq!(
            coh.secret.len() as u64,
            config.cores() as u64 * pages_per_slice * lines_per_page
        );
        // One page ⇒ one home slice ⇒ one bounded directory holds the prime.
        let base = coh.prime.iter().map(|r| r.vaddr).min().unwrap();
        let top = coh.prime.iter().map(|r| r.vaddr).max().unwrap();
        assert!(top - base < config.tlb.page_bytes as u64, "prime must stay inside one page");
        assert_eq!(coh.placement, ChannelPlacement::DistinctCores);

        // The sizing premises must hold for *any* machine configuration,
        // not just the testbench: check the paper machine too.
        let paper = MachineConfig::paper_default();
        let coh_paper = ChannelKind::CoherenceState.build(&paper, 0);
        let paper_lpp = paper.tlb.page_bytes as u64 / paper.l1.line_bytes as u64;
        let span = coh_paper.prime.iter().map(|r| r.vaddr).max().unwrap()
            - coh_paper.prime.iter().map(|r| r.vaddr).min().unwrap();
        assert!(span < paper.tlb.page_bytes as u64, "paper-scale prime must fit one page");
        assert!(coh_paper.prime.len() <= paper.l1.lines(), "paper-scale prime must fit the L1");
        let paper_pps = (2 * paper.directory.entries() as u64).div_ceil(paper_lpp);
        assert_eq!(coh_paper.secret.len() as u64, paper.cores() as u64 * paper_pps * paper_lpp);

        let ipc = ChannelKind::IpcBufferTiming.build(&config, 0);
        assert!(ipc.prime.iter().all(|r| r.write), "IPC prime produces the buffer");
        assert!(ipc.probe.iter().all(|r| !r.write), "IPC probe re-reads the buffer");
        assert_eq!(ipc.prime.len(), ipc.probe.len());
        // The fixed protocol consumes one page of the buffer.
        assert_eq!(ipc.protocol.len() as u64, lines_per_page);
    }

    #[test]
    fn streams_keep_address_spaces_disjoint() {
        for kind in ChannelKind::ALL {
            let c = kind.build(&testbench(), 7);
            let secret_min = c.secret.iter().map(|r| r.vaddr).min().unwrap();
            let secret_max = c.secret.iter().map(|r| r.vaddr).max().unwrap();
            // The victim's secret range sits strictly between the attacker's
            // private window and the shared region (distinct vaddr windows
            // keep the shared-core TLB from aliasing streams into each
            // other). The IPC channel's attacker streams legitimately live
            // in the shared region instead.
            if kind == ChannelKind::IpcBufferTiming {
                assert!(c.prime.iter().chain(c.probe.iter()).all(|r| r.vaddr >= SHARED_BASE));
            } else {
                let attacker_max =
                    c.prime.iter().chain(c.probe.iter()).map(|r| r.vaddr).max().unwrap();
                assert!(attacker_max < secret_min, "{}", kind.label());
            }
            assert!(secret_max < SHARED_BASE, "{}", kind.label());
            assert!(c.protocol.iter().all(|r| r.vaddr >= SHARED_BASE));
        }
    }
}
