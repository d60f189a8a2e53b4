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
//! [`AttackRunner`] co-schedules such a pair on one simulated machine under
//! any of the execution architectures, reusing the exact machinery the
//! performance experiments use: the [`SecureKernel`] attests the victim
//! before it may run, and [`crate::boundary`] places the pair (distrusting
//! clusters under IRONHIDE) and prices every boundary crossing (MI6 purges
//! private state, controller queues and the network). Probe latencies are
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

/// Co-schedules a covert-channel pair on one machine under one architecture.
#[derive(Debug, Clone)]
pub struct AttackRunner {
    config: MachineConfig,
    params: ArchParams,
    warmup_slots: usize,
}

impl AttackRunner {
    /// Creates a runner attacking machines built from `config`, with four
    /// warm-up slots (alternating both symbols) before measurement starts.
    pub fn new(config: MachineConfig) -> Self {
        AttackRunner { config, params: ArchParams::default(), warmup_slots: 4 }
    }

    /// Overrides the architecture parameters (SGX boundary cost).
    pub fn with_params(mut self, params: ArchParams) -> Self {
        self.params = params;
        self
    }

    /// Overrides the number of unmeasured warm-up slots.
    pub fn with_warmup(mut self, slots: usize) -> Self {
        self.warmup_slots = slots;
        self
    }

    /// The machine configuration attacked by each run.
    pub fn machine_config(&self) -> &MachineConfig {
        &self.config
    }

    /// Transmits `bits` through `channel` under `arch` and returns the
    /// attacker's observations.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if cluster formation fails or the victim cannot
    /// be attested.
    pub fn run(
        &self,
        arch: Architecture,
        channel: &dyn CovertChannel,
        bits: &[bool],
    ) -> Result<AttackTrace, RunError> {
        self.run_recycled(arch, channel, bits, None).map(|(trace, _)| trace)
    }

    /// Like [`AttackRunner::run`], but recycles `machine` (from a prior run
    /// on the **same configuration**) instead of allocating a fresh one, and
    /// hands the run's machine back for the next caller — the same
    /// cell-pool recycling the performance sweep uses. Results are
    /// byte-identical to a fresh-machine run: [`Machine::reset_pristine`]
    /// also resets every home slice's coherence directory, so no sharer /
    /// owner metadata from the previous cell's victim survives into the
    /// next attack (covered by `recycled_machine_attack_is_byte_identical`
    /// below).
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if cluster formation fails or the victim
    /// cannot be attested (the recycled machine is lost in that case).
    pub fn run_recycled(
        &self,
        arch: Architecture,
        channel: &dyn CovertChannel,
        bits: &[bool],
        recycled: Option<Machine>,
    ) -> Result<(AttackTrace, Machine), RunError> {
        let mut machine = match recycled {
            Some(mut m) => {
                m.reset_pristine();
                m
            }
            None => Machine::new(self.config.clone()),
        };
        let attacker = machine.create_process("attacker", SecurityClass::Insecure);
        let victim = machine.create_process("victim", SecurityClass::Secure);

        // The victim is a secure process: it must attest before the secure
        // kernel lets it execute. The attacker is unattested insecure code in
        // a foreign trust domain — by construction mutually distrusting.
        let image = format!("victim:{}", channel.name());
        SecureKernel::new().attest(victim, image.as_bytes(), AppDomain(1))?;

        // Under IRONHIDE each side issues from the first core of its own
        // cluster; otherwise they time-share the machine as the channel
        // prefers.
        let total = self.config.cores();
        let half = (total / 2).max(1);
        let (attacker_core, victim_core, secure_cores) =
            match place(&mut machine, arch, victim, attacker, half)? {
                Some(manager) => {
                    let first = |cluster| manager.cores_iter(cluster).next().expect("non-empty");
                    (first(ClusterId::Insecure), first(ClusterId::Secure), half)
                }
                None => match channel.placement() {
                    ChannelPlacement::SharedCore => (NodeId(0), NodeId(0), total),
                    ChannelPlacement::DistinctCores => (NodeId(0), NodeId(total - 1), total),
                },
            };

        machine.enable_latency_trace(channel.probe().len().max(1));
        let mut spec = SpeculativeAccessCheck::new();
        let mut state = SlotState { machine, spec: &mut spec, attacker, victim };

        // Warm up with alternating symbols so caches, TLBs and the NoC's
        // congestion estimators settle into the steady state for both.
        for i in 0..self.warmup_slots {
            self.slot(&mut state, arch, channel, attacker_core, victim_core, i % 2 == 0);
        }

        let mut probe_cycles = Vec::with_capacity(bits.len());
        let mut payload_cycles = 0u64;
        for &bit in bits {
            let (probe, slot_total) =
                self.slot(&mut state, arch, channel, attacker_core, victim_core, bit);
            probe_cycles.push(probe);
            payload_cycles += slot_total;
        }

        let isolation = IsolationAuditor::new().audit(&state.machine, arch, state.spec);
        Ok((
            AttackTrace {
                probe_cycles,
                payload_cycles,
                clock_ghz: self.config.clock_ghz,
                attacker_core,
                victim_core,
                secure_cores,
                isolation,
            },
            state.machine,
        ))
    }

    /// Runs one transmission slot and returns `(probe_cycles, slot_cycles)`.
    fn slot(
        &self,
        state: &mut SlotState<'_>,
        arch: Architecture,
        channel: &dyn CovertChannel,
        attacker_core: NodeId,
        victim_core: NodeId,
        bit: bool,
    ) -> (u64, u64) {
        let mut total = 0u64;

        // 1. The attacker primes the monitored structure.
        total += state.issue(state.attacker, attacker_core, channel.prime(), arch, true);

        // 2. The victim enters its secure phase, crossing the same boundary
        //    the performance runner prices: MI6 purges, the fence flushes,
        //    the others cross for free or for a constant crypto cost.
        total += boundary_cost(&mut state.machine, arch, &self.config, &self.params);

        // 3. The fixed interaction protocol: the victim touches the shared
        //    IPC region (insecure memory) identically every slot, so the
        //    protocol itself carries no information.
        state.machine.set_ipc_marker(true);
        total += state.issue(state.attacker, victim_core, channel.victim_protocol(), arch, false);
        state.machine.set_ipc_marker(false);

        // 4. The secret-dependent burst in the victim's own address space.
        if bit {
            total += state.issue(state.victim, victim_core, channel.victim_secret(), arch, false);
        }

        // 5. The victim leaves its secure phase.
        total += boundary_cost(&mut state.machine, arch, &self.config, &self.params);

        // 6. The attacker probes, observing only its own access latencies
        //    through the machine's latency-trace hook.
        if let Some(trace) = state.machine.latency_trace_mut() {
            trace.clear();
        }
        let issued = state.issue(state.attacker, attacker_core, channel.probe(), arch, true);
        let probe =
            state.machine.latency_trace().map(|trace| trace.total_cycles()).unwrap_or(issued);
        debug_assert_eq!(probe, issued, "latency trace must observe exactly the probe stream");
        total += probe;
        (probe, total)
    }
}

/// Mutable per-run state bundled so the slot helper stays readable.
#[derive(Debug)]
struct SlotState<'a> {
    machine: Machine,
    spec: &'a mut SpeculativeAccessCheck,
    attacker: ProcessId,
    victim: ProcessId,
}

impl SlotState<'_> {
    /// Issues one reference stream on `core` against `pid`'s address space
    /// through the batched access engine, screening insecure-issued
    /// references through the speculative-access check when the architecture
    /// mandates it (the same shared [`issue_run`] the performance runner
    /// uses).
    fn issue(
        &mut self,
        pid: ProcessId,
        core: NodeId,
        refs: &RefStream,
        arch: Architecture,
        issuer_is_insecure: bool,
    ) -> u64 {
        let screened = arch.speculative_check() && issuer_is_insecure;
        let mut cycles = 0;
        for r in refs.runs() {
            cycles += issue_run(&mut self.machine, self.spec, pid, core, *r, screened);
        }
        cycles
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
        let open = runner.run(Architecture::Insecure, &channel, &bits).unwrap();
        assert_eq!(open.probe_cycles.len(), bits.len());
        let ones: Vec<u64> =
            bits.iter().zip(&open.probe_cycles).filter(|(b, _)| **b).map(|(_, c)| *c).collect();
        let zeros: Vec<u64> =
            bits.iter().zip(&open.probe_cycles).filter(|(b, _)| !**b).map(|(_, c)| *c).collect();
        assert!(
            ones.iter().min() > zeros.iter().max(),
            "victim activity must slow the attacker's probes ({ones:?} vs {zeros:?})"
        );

        let closed = runner.run(Architecture::Ironhide, &channel, &bits).unwrap();
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
        let runner = AttackRunner::new(MachineConfig::attack_testbench()).with_warmup(2);
        let channel = TinyChannel::new();
        let bits = [true, false, false, true, true, false];
        let (fresh, machine) =
            runner.run_recycled(Architecture::Insecure, &channel, &bits, None).unwrap();
        // Recycle through a *different* architecture first, so cluster maps,
        // slice restrictions and purge state all get exercised in between.
        let (_, machine) =
            runner.run_recycled(Architecture::Ironhide, &channel, &bits, Some(machine)).unwrap();
        let (recycled, _) =
            runner.run_recycled(Architecture::Insecure, &channel, &bits, Some(machine)).unwrap();
        assert_eq!(fresh.probe_cycles, recycled.probe_cycles);
        assert_eq!(fresh.payload_cycles, recycled.payload_cycles);
        assert_eq!(fresh.isolation.violations, recycled.isolation.violations);
    }

    #[test]
    fn mi6_boundary_purges_between_phases() {
        let runner = AttackRunner::new(MachineConfig::attack_testbench()).with_warmup(1);
        let channel = TinyChannel::new();
        let trace = runner.run(Architecture::Mi6, &channel, &[true, false]).unwrap();
        let spread =
            trace.probe_cycles.iter().max().unwrap() - trace.probe_cycles.iter().min().unwrap();
        assert!(spread <= 2, "MI6 purge must flatten the channel (spread {spread})");
    }
}
