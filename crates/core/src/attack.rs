//! Adversarial covert-channel execution.
//!
//! Everything else in this crate measures IRONHIDE's *performance*; this
//! module measures its *security claim* from the attacker's point of view. A
//! [`CovertChannel`] is a paired attacker/victim workload that tries to
//! transmit bits through shared microarchitecture state: the victim (an
//! attested secure process) modulates some shared structure — L2 slice
//! occupancy, NoC link congestion, TLB residency, the shared IPC buffer's
//! cache footprint — and the attacker (an ordinary insecure process) decodes
//! the bits from the latencies of its own probe accesses.
//!
//! [`AttackRunner`] is the one covert-channel driver. It co-schedules such a
//! pair on one simulated machine under any of the execution architectures,
//! reusing the exact machinery the performance experiments use: the
//! [`SecureKernel`] attests the victim before it may run, and
//! [`crate::boundary`] places the pair (distrusting clusters under IRONHIDE)
//! and prices every boundary crossing (MI6 purges private state, controller
//! queues and the network). A channel supplies only its per-slot
//! [`Transmission`] and the cores its pair issues from: the stream channels
//! through [`StreamSlot`], the reconfiguration-window attack in the
//! `ironhide-attacks` crate through its own slot. Stream probe latencies are
//! observed through the machine's
//! [`LatencyTrace`](ironhide_sim::trace::LatencyTrace) hook — the attacker
//! sees nothing a real attacker could not time.
//!
//! The decoding side (bit recovery, bit-error rate, channel capacity) lives
//! in the `ironhide-attacks` crate's `LeakageOracle`; its result is the
//! [`AttackOutcome`] serialised by the attack matrix in [`crate::sweep`].

use std::fmt;

use ironhide_mesh::{ClusterId, NodeId};
use ironhide_sim::config::MachineConfig;
use ironhide_sim::machine::Machine;
use ironhide_sim::process::{ProcessId, SecurityClass};

use crate::app::RefStream;
use crate::arch::{ArchParams, Architecture};
use crate::boundary::{boundary_cost, place};
use crate::cluster::ClusterManager;
use crate::isolation::{IsolationAuditor, IsolationSummary};
use crate::kernel::{AppDomain, SecureKernel};
use crate::runner::{issue_run, RunError};
use crate::speccheck::SpeculativeAccessCheck;

/// How the attacker and victim are co-scheduled under the temporally shared
/// architectures (Insecure, SGX, MI6). Under IRONHIDE placement is always
/// dictated by the clusters, whatever the channel prefers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelPlacement {
    /// Victim and attacker time-share one core — required by channels that
    /// target per-core private state (TLB, L1).
    SharedCore,
    /// Victim and attacker run on different cores — channels that target the
    /// shared fabric (L2 slices, NoC, DRAM) leak across cores.
    DistinctCores,
}

/// A paired attacker/victim covert-channel workload.
///
/// The four reference streams are fixed per channel; every transmission slot
/// replays them in the same order, so a run is fully deterministic:
///
/// 1. [`CovertChannel::prime`] — the attacker prepares the shared structure
///    (fills the monitored cache sets / TLB entries / link state);
/// 2. [`CovertChannel::victim_protocol`] — the *fixed* interaction the victim
///    performs every slot regardless of the secret (reading the shared IPC
///    buffer, issued against insecure memory and marked as IPC traffic);
/// 3. [`CovertChannel::victim_secret`] — the secret-dependent burst the
///    victim issues in its own address space **only when transmitting a 1**;
/// 4. [`CovertChannel::probe`] — the accesses the attacker times to decode
///    the slot.
pub trait CovertChannel: fmt::Debug {
    /// The channel's display name (also the attack-matrix axis label).
    fn name(&self) -> &str;

    /// Preferred co-scheduling under temporally shared architectures.
    fn placement(&self) -> ChannelPlacement;

    /// Attacker references issued (untimed) at the start of every slot.
    fn prime(&self) -> &RefStream;

    /// Victim references issued every slot against the shared (insecure)
    /// address space, modelling the legitimate interaction protocol.
    fn victim_protocol(&self) -> &RefStream;

    /// Victim references issued in its own secure address space when the
    /// transmitted bit is 1 (idle when 0).
    fn victim_secret(&self) -> &RefStream;

    /// Attacker references whose latencies are the channel's observable.
    fn probe(&self) -> &RefStream;
}

/// The attacker-visible record of one attack run: per-slot probe latencies
/// plus the isolation audit of the machine the attack ran on.
#[derive(Debug, Clone)]
pub struct AttackTrace {
    /// Summed probe latency of each payload slot, in cycles (one entry per
    /// transmitted bit, in transmission order).
    pub probe_cycles: Vec<u64>,
    /// Total cycles of all payload slots (prime + victim + boundary + probe),
    /// for converting channel capacity to bits per second.
    pub payload_cycles: u64,
    /// Clock frequency of the machine, in GHz.
    pub clock_ghz: f64,
    /// Core the attacker issued from.
    pub attacker_core: NodeId,
    /// Core the victim issued from.
    pub victim_core: NodeId,
    /// Cores of the secure cluster (the machine size under temporal sharing).
    pub secure_cores: usize,
    /// Strong-isolation audit of the attacked machine.
    pub isolation: IsolationSummary,
}

/// Verdict on one channel under one architecture, derived from the measured
/// bit-error rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelVerdict {
    /// The attacker decodes well above chance: the channel works.
    Open,
    /// The attacker decodes above chance but unreliably.
    Degraded,
    /// The attacker does no better than guessing: the channel is closed.
    Closed,
}

impl ChannelVerdict {
    /// Effective BER at or below which a channel is declared
    /// [`ChannelVerdict::Open`].
    pub const OPEN_BER: f64 = 0.25;
    /// Half-width of the BER band around 0.5 declared
    /// [`ChannelVerdict::Closed`] (guessing).
    pub const CLOSED_BAND: f64 = 0.05;

    /// Classifies a measured bit-error rate. Classification is
    /// polarity-blind: a BER near 1.0 means the decoder's threshold polarity
    /// was inverted, and a real attacker just flips it — such a channel is
    /// as open as one near 0.0, so the *effective* BER `min(p, 1 − p)` is
    /// what gets judged.
    pub fn from_ber(ber: f64) -> Self {
        let effective = ber.min(1.0 - ber);
        if effective <= Self::OPEN_BER {
            ChannelVerdict::Open
        } else if (ber - 0.5).abs() <= Self::CLOSED_BAND {
            ChannelVerdict::Closed
        } else {
            ChannelVerdict::Degraded
        }
    }
}

impl fmt::Display for ChannelVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelVerdict::Open => write!(f, "OPEN"),
            ChannelVerdict::Degraded => write!(f, "DEGRADED"),
            ChannelVerdict::Closed => write!(f, "CLOSED"),
        }
    }
}

/// The decoded result of one attack run, as produced by the leakage oracle
/// and serialised into the attack matrix.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Channel name.
    pub channel: String,
    /// Architecture attacked.
    pub arch: Architecture,
    /// Number of payload bits transmitted.
    pub payload_bits: u64,
    /// Decoded bits that did not match the transmitted ones.
    pub bit_errors: u64,
    /// Bit-error rate (`bit_errors / payload_bits`; 0.5 ≈ guessing).
    pub ber: f64,
    /// The latency threshold the decoder separated 0s from 1s with.
    pub threshold_cycles: f64,
    /// Fastest per-slot probe observed, in cycles.
    pub min_probe_cycles: u64,
    /// Slowest per-slot probe observed, in cycles.
    pub max_probe_cycles: u64,
    /// Binary-symmetric-channel capacity, in bits per transmission slot.
    pub capacity_bits_per_slot: f64,
    /// Capacity scaled by the measured slot rate, in bits per second.
    pub capacity_bits_per_second: f64,
    /// Total simulated cycles of the payload slots.
    pub payload_cycles: u64,
    /// Cores of the secure cluster the victim ran in.
    pub secure_cores: usize,
    /// Per-channel verdict derived from the BER.
    pub verdict: ChannelVerdict,
    /// Strong-isolation audit of the attacked machine (the attack must not
    /// have tripped any architectural invariant even when it leaks).
    pub isolation: IsolationSummary,
}

impl AttackOutcome {
    /// Whether the attacker demonstrably decoded the transmission.
    pub fn is_open(&self) -> bool {
        self.verdict == ChannelVerdict::Open
    }

    /// Whether the attacker did no better than guessing.
    pub fn is_closed(&self) -> bool {
        self.verdict == ChannelVerdict::Closed
    }
}

/// One covert channel as [`AttackRunner`] drives it: the cores its attacker
/// and victim issue from, and what one transmission slot does. The stream
/// channels' six-step slot is one implementation ([`StreamSlot`]); the
/// attacks crate's reconfiguration-window attack is the other.
pub trait Transmission {
    /// The channel's display name; the victim attests under it.
    fn name(&self) -> &str;

    /// The cores the attacker and the victim issue from, in that order, on a
    /// machine of `cores` cores. `clusters` is IRONHIDE's cluster manager;
    /// the temporally shared architectures have none.
    fn cores(&self, clusters: Option<&ClusterManager>, cores: usize) -> (NodeId, NodeId);

    /// Prepares the machine once the pair is placed, before the first
    /// warm-up slot.
    fn begin(&mut self, _machine: &mut Machine) {}

    /// Transmits `bit` in one slot and returns `(probe_cycles,
    /// slot_cycles)`: what the attacker timed, and everything the slot cost.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if the slot cannot run (a failed
    /// reconfiguration).
    fn slot(&mut self, run: &mut AttackRun<'_>, bit: bool) -> Result<(u64, u64), RunError>;

    /// Settles the machine after the last payload slot, before the isolation
    /// audit.
    fn end(&mut self, _machine: &mut Machine) {}
}

/// One attack run as its slots see it: the machine, the placed pair and the
/// cores each side issues from.
#[derive(Debug)]
pub struct AttackRun<'a> {
    /// The attacked machine.
    pub machine: &'a mut Machine,
    /// IRONHIDE's cluster manager (`None` under the temporally shared
    /// architectures).
    pub clusters: Option<ClusterManager>,
    /// The architecture under attack.
    pub arch: Architecture,
    /// The insecure attacker process.
    pub attacker: ProcessId,
    /// The attested secure victim process.
    pub victim: ProcessId,
    /// Core the attacker issues from.
    pub attacker_core: NodeId,
    /// Core the victim issues from.
    pub victim_core: NodeId,
    config: &'a MachineConfig,
    spec: SpeculativeAccessCheck,
}

impl AttackRun<'_> {
    /// One secure/insecure boundary crossing under the run's architecture,
    /// priced by [`boundary_cost`] from the runner's configuration (never
    /// the recycled machine's stored copy).
    pub fn cross_boundary(&mut self) -> u64 {
        boundary_cost(self.machine, self.arch, self.config, &ArchParams::default())
    }

    /// Issues one reference stream on `core` against `pid`'s address space
    /// through the batched access engine, screening insecure-issued
    /// references through the speculative-access check when the architecture
    /// mandates it (the same shared [`issue_run`] the performance runner
    /// uses).
    fn issue(&mut self, pid: ProcessId, core: NodeId, refs: &RefStream, insecure: bool) -> u64 {
        let screened = self.arch.speculative_check() && insecure;
        let mut cycles = 0;
        for r in refs.runs() {
            cycles += issue_run(self.machine, &mut self.spec, pid, core, *r, screened);
        }
        cycles
    }
}

/// The one covert-channel driver: co-schedules a channel's attacker and
/// victim on one machine under one architecture.
#[derive(Debug, Clone)]
pub struct AttackRunner {
    config: MachineConfig,
}

impl AttackRunner {
    /// Unmeasured warm-up slots, alternating both symbols, before the
    /// payload: the analytical congestion estimators converge geometrically
    /// and need a few slots of each.
    pub const WARMUP_SLOTS: usize = 8;

    /// Creates a runner attacking machines built from `config`.
    pub fn new(config: MachineConfig) -> Self {
        AttackRunner { config }
    }

    /// Transmits `bits` through `channel` under `arch` and returns the
    /// attacker's observations.
    ///
    /// The run uses the machine in `slot`, the cell's pooled machine as
    /// `SweepRunner` hands it out: a recycled machine is reset with
    /// [`Machine::reset_pristine`], an empty slot gets a fresh one, and the
    /// machine stays in the slot for the next run. Results are
    /// byte-identical either way: the reset also clears every home slice's
    /// coherence directory, so no sharer or owner metadata from the previous
    /// cell's victim survives into the next attack (covered by
    /// `recycled_machine_attack_is_byte_identical` below).
    ///
    /// The run creates the attacker and the victim, attests the victim,
    /// places the pair through [`place`] (IRONHIDE gives the victim half the
    /// machine), runs [`AttackRunner::WARMUP_SLOTS`] slots, transmits the
    /// payload and audits isolation.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if the victim cannot be attested, cluster
    /// formation fails or a slot fails.
    pub fn run(
        &self,
        arch: Architecture,
        channel: &mut dyn Transmission,
        bits: &[bool],
        slot: &mut Option<Machine>,
    ) -> Result<AttackTrace, RunError> {
        if let Some(machine) = slot.as_mut() {
            machine.reset_pristine();
        }
        let machine = slot.get_or_insert_with(|| Machine::new(self.config.clone()));
        let attacker = machine.create_process("attacker", SecurityClass::Insecure);
        let victim = machine.create_process("victim", SecurityClass::Secure);

        // The victim is a secure process: it must attest before the secure
        // kernel lets it execute. The attacker is unattested insecure code in
        // a foreign trust domain — by construction mutually distrusting.
        let image = format!("victim:{}", channel.name());
        SecureKernel::new().attest(victim, image.as_bytes(), AppDomain(1))?;

        let total = self.config.cores();
        let half = (total / 2).max(1);
        let clusters = place(machine, arch, victim, attacker, half)?;
        let secure_cores = if clusters.is_some() { half } else { total };
        let (attacker_core, victim_core) = channel.cores(clusters.as_ref(), total);
        channel.begin(machine);
        let mut run = AttackRun {
            machine,
            clusters,
            arch,
            attacker,
            victim,
            attacker_core,
            victim_core,
            config: &self.config,
            spec: SpeculativeAccessCheck::new(),
        };

        // Warm up with alternating symbols so caches, TLBs and the NoC's
        // congestion estimators settle into the steady state for both.
        for i in 0..Self::WARMUP_SLOTS {
            channel.slot(&mut run, i % 2 == 0)?;
        }

        let mut probe_cycles = Vec::with_capacity(bits.len());
        let mut payload_cycles = 0u64;
        for &bit in bits {
            let (probe, slot_cycles) = channel.slot(&mut run, bit)?;
            probe_cycles.push(probe);
            payload_cycles += slot_cycles;
        }

        channel.end(run.machine);
        let isolation = IsolationAuditor::new().audit(run.machine, arch, &run.spec);
        Ok(AttackTrace {
            probe_cycles,
            payload_cycles,
            clock_ghz: self.config.clock_ghz,
            attacker_core,
            victim_core,
            secure_cores,
            isolation,
        })
    }
}

/// A stream [`CovertChannel`] as a [`Transmission`]: its six-step slot.
#[derive(Debug)]
pub struct StreamSlot<'a>(pub &'a dyn CovertChannel);

impl Transmission for StreamSlot<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    /// Under IRONHIDE each side issues from the first core of its own
    /// cluster; otherwise they time-share the machine as the channel
    /// prefers.
    fn cores(&self, clusters: Option<&ClusterManager>, cores: usize) -> (NodeId, NodeId) {
        match clusters {
            Some(manager) => {
                let first = |cluster| manager.cores_iter(cluster).next().expect("non-empty");
                (first(ClusterId::Insecure), first(ClusterId::Secure))
            }
            None => match self.0.placement() {
                ChannelPlacement::SharedCore => (NodeId(0), NodeId(0)),
                ChannelPlacement::DistinctCores => (NodeId(0), NodeId(cores - 1)),
            },
        }
    }

    fn begin(&mut self, machine: &mut Machine) {
        machine.enable_latency_trace(self.0.probe().len().max(1));
    }

    fn slot(&mut self, run: &mut AttackRun<'_>, bit: bool) -> Result<(u64, u64), RunError> {
        let channel = self.0;
        let mut total = 0u64;

        // 1. The attacker primes the monitored structure.
        total += run.issue(run.attacker, run.attacker_core, channel.prime(), true);

        // 2. The victim enters its secure phase, crossing the same boundary
        //    the performance runner prices: MI6 purges, the fence flushes,
        //    the others cross for free or for a constant crypto cost.
        total += run.cross_boundary();

        // 3. The fixed interaction protocol: the victim touches the shared
        //    IPC region (insecure memory) identically every slot, so the
        //    protocol itself carries no information.
        run.machine.set_ipc_marker(true);
        total += run.issue(run.attacker, run.victim_core, channel.victim_protocol(), false);
        run.machine.set_ipc_marker(false);

        // 4. The secret-dependent burst in the victim's own address space.
        if bit {
            total += run.issue(run.victim, run.victim_core, channel.victim_secret(), false);
        }

        // 5. The victim leaves its secure phase.
        total += run.cross_boundary();

        // 6. The attacker probes, observing only its own access latencies
        //    through the machine's latency-trace hook.
        if let Some(trace) = run.machine.latency_trace_mut() {
            trace.clear();
        }
        let issued = run.issue(run.attacker, run.attacker_core, channel.probe(), true);
        let probe = run.machine.latency_trace().map(|trace| trace.total_cycles()).unwrap_or(issued);
        debug_assert_eq!(probe, issued, "latency trace must observe exactly the probe stream");
        total += probe;
        Ok((probe, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal channel: the victim's secret burst sweeps the attacker's
    /// probe working set out of the shared L2.
    #[derive(Debug)]
    struct TinyChannel {
        prime: RefStream,
        protocol: RefStream,
        secret: RefStream,
        probe: RefStream,
    }

    impl TinyChannel {
        fn new() -> Self {
            use crate::app::MemRef;
            let page = 4096u64;
            let prime = RefStream::from_refs((0..128).map(|i| MemRef::read(i * 64)));
            let secret =
                RefStream::from_refs((0..512u64).map(|i| MemRef::read(0x10_0000 + i * 64)));
            TinyChannel {
                probe: prime.clone(),
                prime,
                protocol: RefStream::from_refs([
                    MemRef::read(0x4000_0000),
                    MemRef::read(0x4000_0000 + page),
                ]),
                secret,
            }
        }
    }

    impl CovertChannel for TinyChannel {
        fn name(&self) -> &str {
            "tiny"
        }
        fn placement(&self) -> ChannelPlacement {
            ChannelPlacement::DistinctCores
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

    #[test]
    fn verdict_classification() {
        assert_eq!(ChannelVerdict::from_ber(0.0), ChannelVerdict::Open);
        assert_eq!(ChannelVerdict::from_ber(0.25), ChannelVerdict::Open);
        assert_eq!(ChannelVerdict::from_ber(0.35), ChannelVerdict::Degraded);
        assert_eq!(ChannelVerdict::from_ber(0.5), ChannelVerdict::Closed);
        assert_eq!(ChannelVerdict::from_ber(0.46), ChannelVerdict::Closed);
        assert_eq!(ChannelVerdict::from_ber(0.6), ChannelVerdict::Degraded);
        // Polarity-blind: an anti-correlated decode is still a working
        // channel (the attacker inverts the threshold).
        assert_eq!(ChannelVerdict::from_ber(0.95), ChannelVerdict::Open);
        assert_eq!(ChannelVerdict::from_ber(1.0), ChannelVerdict::Open);
        assert_eq!(ChannelVerdict::Open.to_string(), "OPEN");
    }

    #[test]
    fn insecure_run_separates_symbols_and_ironhide_does_not() {
        let runner = AttackRunner::new(MachineConfig::attack_testbench());
        let channel = TinyChannel::new();
        let bits = [true, false, true, false, false, true];
        let open = runner
            .run(Architecture::Insecure, &mut StreamSlot(&channel), &bits, &mut None)
            .unwrap();
        assert_eq!(open.probe_cycles.len(), bits.len());
        let ones: Vec<u64> =
            bits.iter().zip(&open.probe_cycles).filter(|(b, _)| **b).map(|(_, c)| *c).collect();
        let zeros: Vec<u64> =
            bits.iter().zip(&open.probe_cycles).filter(|(b, _)| !**b).map(|(_, c)| *c).collect();
        assert!(
            ones.iter().min() > zeros.iter().max(),
            "victim activity must slow the attacker's probes ({ones:?} vs {zeros:?})"
        );

        let closed = runner
            .run(Architecture::Ironhide, &mut StreamSlot(&channel), &bits, &mut None)
            .unwrap();
        assert!(closed.isolation.is_clean(), "violations: {:?}", closed.isolation.violations);
        let spread =
            closed.probe_cycles.iter().max().unwrap() - closed.probe_cycles.iter().min().unwrap();
        assert!(spread <= 2, "IRONHIDE probes must be bit-independent (spread {spread})");
        assert_ne!(closed.attacker_core, closed.victim_core);
    }

    /// Machine recycling across attack cells: a machine saturated with one
    /// run's caches, NoC load and coherence-directory state must replay the
    /// next run byte-identically to a fresh machine — directory residue in
    /// particular is exactly what the coherence-state channel would read.
    #[test]
    fn recycled_machine_attack_is_byte_identical() {
        let runner = AttackRunner::new(MachineConfig::attack_testbench());
        let channel = TinyChannel::new();
        let bits = [true, false, false, true, true, false];
        let mut pool = None;
        let mut run = |arch| runner.run(arch, &mut StreamSlot(&channel), &bits, &mut pool).unwrap();
        let fresh = run(Architecture::Insecure);
        // Recycle through a *different* architecture first, so cluster maps,
        // slice restrictions and purge state all get exercised in between.
        run(Architecture::Ironhide);
        let recycled = run(Architecture::Insecure);
        assert_eq!(fresh.probe_cycles, recycled.probe_cycles);
        assert_eq!(fresh.payload_cycles, recycled.payload_cycles);
        assert_eq!(fresh.isolation.violations, recycled.isolation.violations);
    }

    #[test]
    fn mi6_boundary_purges_between_phases() {
        let runner = AttackRunner::new(MachineConfig::attack_testbench());
        let channel = TinyChannel::new();
        let trace = runner
            .run(Architecture::Mi6, &mut StreamSlot(&channel), &[true, false], &mut None)
            .unwrap();
        let spread =
            trace.probe_cycles.iter().max().unwrap() - trace.probe_cycles.iter().min().unwrap();
        assert!(spread <= 2, "MI6 purge must flatten the channel (spread {spread})");
    }

    /// What the runner asked of a [`Recorder`], in call order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Call {
        Begin,
        Slot(bool),
        End,
    }

    /// A transmission that sends nothing: it records every call, reports
    /// slot `i`'s probe as `i` cycles and its cost as `2^i` cycles, so a sum
    /// of slot costs names exactly the slots in it.
    #[derive(Debug, Default)]
    struct Recorder {
        calls: Vec<Call>,
        slots: u32,
    }

    impl Transmission for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }
        fn cores(&self, _: Option<&ClusterManager>, cores: usize) -> (NodeId, NodeId) {
            (NodeId(0), NodeId(cores - 1))
        }
        fn begin(&mut self, _: &mut Machine) {
            self.calls.push(Call::Begin);
        }
        fn slot(&mut self, _: &mut AttackRun<'_>, bit: bool) -> Result<(u64, u64), RunError> {
            self.calls.push(Call::Slot(bit));
            let i = self.slots;
            self.slots += 1;
            Ok((u64::from(i), 1 << i))
        }
        fn end(&mut self, _: &mut Machine) {
            self.calls.push(Call::End);
        }
    }

    #[test]
    fn runner_warms_up_alternating_then_measures_only_the_payload() {
        let payload = [true, true, false, true, false, false];
        let mut recorder = Recorder::default();
        let trace = AttackRunner::new(MachineConfig::attack_testbench())
            .run(Architecture::Insecure, &mut recorder, &payload, &mut None)
            .unwrap();

        let warmup = AttackRunner::WARMUP_SLOTS;
        assert_eq!(warmup, 8);
        let mut expected = vec![Call::Begin];
        expected.extend((0..warmup).map(|i| Call::Slot(i % 2 == 0)));
        expected.extend(payload.iter().map(|&bit| Call::Slot(bit)));
        expected.push(Call::End);
        assert_eq!(recorder.calls, expected);

        let payload_slots = warmup as u32..(warmup + payload.len()) as u32;
        let probes: Vec<u64> = payload_slots.clone().map(u64::from).collect();
        assert_eq!(trace.probe_cycles, probes);
        assert_eq!(trace.payload_cycles, payload_slots.map(|i| 1u64 << i).sum::<u64>());
    }
}
