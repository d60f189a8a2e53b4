//! The reconfiguration-window covert channel.
//!
//! The [`crate::channels`] stream channels attack the *steady state* of an
//! architecture; this one attacks the **stall sequence of a dynamic
//! reconfiguration** — the only moment IRONHIDE's resources change hands.
//! The victim dirty-writes a secret-dependent buffer spread over its secure
//! L2 slices; the cluster then shrinks, moving some of those slices (and the
//! victim's pages homed on them) to the insecure side; the attacker runs a
//! timed evict-and-sweep over the moved slices at the first instant the
//! reconfiguration lets insecure traffic flow.
//!
//! Under the shipped [`PurgeOrder::PurgeThenRehome`] every moved slice has
//! been flushed and every re-homed page scrubbed *before* that instant, so
//! the sweep finds nothing: its latency is bit-independent and the channel
//! decodes at chance. Under the injected [`PurgeOrder::RehomeThenPurge`]
//! the victim's stale dirty lines are still sitting in the moved slices;
//! evicting them emits write-back packets whose link traffic the analytical
//! NoC model turns into congestion the attacker's own sweep can time — the
//! window is open exactly when the purge ordering is violated.
//!
//! Like every covert channel, it runs through the
//! [`AttackRunner`], which recycles the machine, attests the victim, places
//! the pair, warms up and audits isolation. The window supplies only its
//! slot, whose transmission medium *is* the reconfiguration itself, driven
//! through [`ClusterManager::reconfigure_windowed`], plus the arming and the
//! wrap-up of an injected dropped-scrub fault. Under the temporally shared
//! architectures no reconfiguration exists; the same victim-burst /
//! attacker-sweep pair runs across the enclave boundary instead, giving the
//! usual differential: open on the insecure baseline, closed under MI6's
//! boundary purges.

use ironhide_core::arch::Architecture;
use ironhide_core::attack::{AttackOutcome, AttackRun, AttackRunner, Transmission};
use ironhide_core::cluster::{ClusterManager, PurgeOrder};
use ironhide_core::runner::RunError;
use ironhide_core::sweep::AttackSpec;
use ironhide_mesh::{ClusterId, NodeId};
use ironhide_sim::config::MachineConfig;
use ironhide_sim::machine::Machine;
use ironhide_sim::process::ProcessId;

use crate::oracle::{balanced_bits, checked_payload, judge, LeakageOracle};

/// Channel label under the shipped purge ordering.
pub const SHIPPED_LABEL: &str = "reconfig-window";
/// Channel label under the injected mis-ordering.
pub const MISORDERED_LABEL: &str = "reconfig-window-misordered";
/// Channel label with dropped purge packets caught by the scrub audit.
pub const AUDITED_DROP_LABEL: &str = "reconfig-window-dropped-purge-audited";
/// Channel label with dropped purge packets and no audit (negative control).
pub const UNAUDITED_DROP_LABEL: &str = "reconfig-window-dropped-purge";

/// Base virtual address of the victim's secret-dependent buffers.
const VICTIM_BASE: u64 = 0x2000_0000;
/// Base virtual address of the attacker's sweep buffers.
const SWEEP_BASE: u64 = 0x1000_0000;

/// How a run interacts with an injected dropped-scrub (partial purge
/// completion) fault — the differential axis of the fault campaign's
/// security gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultMode {
    /// No fault injected (the original channel).
    #[default]
    None,
    /// Purge packets drop, and the scrub audit detects and replays them at
    /// the start of every reconfiguration window — recovery must keep the
    /// channel closed.
    DroppedPurgeAudited,
    /// Purge packets drop and nobody audits: stale dirty lines survive into
    /// the window, which must pin the channel open.
    DroppedPurgeUnaudited,
}

/// What the scrub audit saw across one faulted assessment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultAudit {
    /// Dropped scrub packets the audit detected and replayed back to a
    /// clean state.
    pub dropped_recovered: u64,
    /// Dropped scrub packets still unrecovered when the run ended.
    pub dropped_unrecovered: u64,
}

impl FaultAudit {
    /// A clean audit: nothing was left behind — the recovery obligation is
    /// fully discharged.
    pub fn is_clean(&self) -> bool {
        self.dropped_unrecovered == 0
    }

    /// Runs the scrub audit on `machine`, counting every dropped packet it
    /// replays.
    fn recover(&mut self, machine: &mut Machine) {
        self.dropped_recovered += machine.recover_dropped_scrubs();
    }
}

/// The reconfiguration-window attack: victim, attacker and the per-slot
/// shrink/grow reconfiguration cycle, decoded with the same unsupervised
/// midpoint threshold as the stream channels.
#[derive(Debug, Clone)]
pub struct WindowAttack {
    config: MachineConfig,
    order: PurgeOrder,
    fault: FaultMode,
    drop_rate_per_mille: u32,
    payload_bits: usize,
}

impl WindowAttack {
    /// Creates the attack for machines built from `config` under the given
    /// purge ordering, with the smoke-scale payload (32 bits).
    pub fn new(config: MachineConfig, order: PurgeOrder) -> Self {
        WindowAttack {
            config,
            order,
            fault: FaultMode::None,
            drop_rate_per_mille: 0,
            payload_bits: 32,
        }
    }

    /// Injects a dropped-scrub fault: every scrub packet a reconfiguration
    /// emits drops with probability `rate_per_mille`/1000 (seed-pure per
    /// page), handled per `mode`.
    pub fn with_fault(mut self, mode: FaultMode, rate_per_mille: u32) -> Self {
        self.fault = mode;
        self.drop_rate_per_mille = rate_per_mille;
        self
    }

    /// Overrides the payload length.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or odd — the payload must be balanceable so
    /// a signal-free channel decodes at exactly 50% BER.
    pub fn with_payload_bits(mut self, bits: usize) -> Self {
        self.payload_bits = checked_payload(bits);
        self
    }

    /// The channel label: the mis-ordered and faulted variants report under
    /// their own names so every verdict row can sit in one matrix.
    pub fn name(&self) -> &'static str {
        match (self.fault, self.order) {
            (FaultMode::DroppedPurgeAudited, _) => AUDITED_DROP_LABEL,
            (FaultMode::DroppedPurgeUnaudited, _) => UNAUDITED_DROP_LABEL,
            (FaultMode::None, PurgeOrder::PurgeThenRehome) => SHIPPED_LABEL,
            (FaultMode::None, PurgeOrder::RehomeThenPurge) => MISORDERED_LABEL,
        }
    }

    /// Runs the full attack under `arch` and decodes the transmission.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if cluster formation or a reconfiguration
    /// fails, or if the victim cannot be attested.
    pub fn assess(&self, arch: Architecture, seed: u64) -> Result<AttackOutcome, RunError> {
        self.assess_recycled(arch, seed, &mut None)
    }

    /// Like [`WindowAttack::assess`], but recycles the machine in `slot`
    /// (via `Machine::reset_pristine`) and leaves the run's machine behind
    /// for the next assessment, exactly as the attack matrix's cell pools
    /// expect. Byte-identical to a fresh-machine assessment.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if cluster formation or a reconfiguration
    /// fails, or if the victim cannot be attested.
    pub fn assess_recycled(
        &self,
        arch: Architecture,
        seed: u64,
        slot: &mut Option<Machine>,
    ) -> Result<AttackOutcome, RunError> {
        self.assess_faulted(arch, seed, slot).map(|(outcome, _)| outcome)
    }

    /// Like [`WindowAttack::assess_recycled`], but also returns the scrub
    /// audit's tally — the campaign's differential gate reads it to check
    /// that audited recovery was complete (and that the unaudited negative
    /// control really left residue behind).
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if cluster formation or a reconfiguration
    /// fails, or if the victim cannot be attested.
    pub fn assess_faulted(
        &self,
        arch: Architecture,
        seed: u64,
        slot: &mut Option<Machine>,
    ) -> Result<(AttackOutcome, FaultAudit), RunError> {
        let bits = balanced_bits(seed, self.payload_bits);
        let mut window = WindowSlot::new(self, seed);
        let trace = AttackRunner::new(self.config.clone()).run(arch, &mut window, &bits, slot)?;
        Ok((judge(self.name(), arch, &bits, trace), window.audit))
    }
}

/// One window assessment as the [`AttackRunner`] drives it, with the
/// bookkeeping threaded through its slots.
struct WindowSlot<'a> {
    attack: &'a WindowAttack,
    seed: u64,
    cores: usize,
    /// Secure-cluster cores between slots: the shape the runner places the
    /// victim at, and the shape each slot grows back to.
    wide: usize,
    /// Secure-cluster cores during the measured window.
    narrow: usize,
    page_bytes: u64,
    line_bytes: u64,
    /// Sweeps issued so far — each slot sweeps fresh pages so every access
    /// misses and must evict whatever the moved slices still hold.
    sweeps: u64,
    /// Secret bursts issued so far — each burst dirties fresh pages so the
    /// round-robin allocator homes them across the *current* secure slices,
    /// including the ones the next shrink moves.
    bursts: u64,
    /// What the scrub audit saw across all slots.
    audit: FaultAudit,
}

impl<'a> WindowSlot<'a> {
    fn new(attack: &'a WindowAttack, seed: u64) -> Self {
        let cores = attack.config.cores();
        let wide = (cores / 2).max(1);
        WindowSlot {
            attack,
            seed,
            cores,
            wide,
            narrow: (wide / 2).max(1),
            page_bytes: attack.config.tlb.page_bytes as u64,
            line_bytes: attack.config.l2_slice.line_bytes as u64,
            sweeps: 0,
            bursts: 0,
            audit: FaultAudit::default(),
        }
    }
}

impl Transmission for WindowSlot<'_> {
    fn name(&self) -> &str {
        self.attack.name()
    }

    fn cores(&self, clusters: Option<&ClusterManager>, cores: usize) -> (NodeId, NodeId) {
        match clusters {
            // The last core stays insecure at both the wide and the narrow
            // shape, so the attacker never has to migrate.
            Some(m) => (
                m.cores_iter(ClusterId::Insecure).last().expect("non-empty cluster"),
                m.cores_iter(ClusterId::Secure).next().expect("non-empty cluster"),
            ),
            None => (NodeId(0), NodeId(cores - 1)),
        }
    }

    /// The fault arms only after formation: drops model packets lost during
    /// live reconfigurations, not during machine bring-up. The drop
    /// predicate is pure in (seed, page), so the faulted page set is
    /// replayable regardless of scrub batching.
    fn begin(&mut self, machine: &mut Machine) {
        if self.attack.fault != FaultMode::None {
            machine.set_scrub_drop_fault(self.seed ^ 0xFA17_5EED, self.attack.drop_rate_per_mille);
        }
    }

    /// One transmission slot. The probe is the attacker's timed sweep of the
    /// moved (or, under the temporal architectures, shared) slices.
    fn slot(&mut self, run: &mut AttackRun<'_>, bit: bool) -> Result<(u64, u64), RunError> {
        let (page_bytes, line_bytes) = (self.page_bytes, self.line_bytes);
        let mut total = 0u64;

        // The secret-dependent burst: dirty-write a fresh buffer spread over
        // the victim's current slices, one page per wide secure slice. A 0
        // transmits by staying idle.
        if bit {
            let pages = self.wide as u64;
            let base = VICTIM_BASE + self.bursts * pages * page_bytes;
            self.bursts += 1;
            total += touch_pages(
                run.machine,
                run.victim_core,
                run.victim,
                base,
                pages,
                page_bytes,
                line_bytes,
                true,
            );
        }

        // The sweep covers every slice the insecure cluster owns at the
        // narrow shape, or, on shared cores, every slice the victim's
        // buffers can home on.
        let sweep_pages =
            if run.clusters.is_some() { self.cores - self.narrow } else { self.cores } as u64;
        let sweep_base = SWEEP_BASE + self.sweeps * sweep_pages * page_bytes;
        self.sweeps += 1;
        let (attacker, attacker_core) = (run.attacker, run.attacker_core);
        let sweep = |machine: &mut Machine| {
            touch_pages(
                machine,
                attacker_core,
                attacker,
                sweep_base,
                sweep_pages,
                page_bytes,
                line_bytes,
                false,
            )
        };

        let probe = if let Some(clusters) = run.clusters.as_mut() {
            // IRONHIDE: shrink the secure cluster under the configured purge
            // ordering. The window callback is the first point insecure
            // traffic can flow; the attacker's timed sweep runs there,
            // evicting whatever the moved slices still hold.
            let audited = self.attack.fault == FaultMode::DroppedPurgeAudited;
            let audit = &mut self.audit;
            let mut probe = 0u64;
            total += clusters.reconfigure_windowed(
                run.machine,
                run.victim,
                attacker,
                self.narrow,
                self.attack.order,
                |machine| {
                    // The audited discipline runs the scrub audit at the top
                    // of every window — dropped purge packets are detected
                    // and replayed *before* any insecure access can time the
                    // residue they left behind.
                    if audited {
                        audit.recover(machine);
                    }
                    probe = sweep(machine);
                },
            )?;
            // Grow back for the next slot — always under the shipped order;
            // only the measured shrink carries the injected fault.
            total += clusters.reconfigure(run.machine, run.victim, attacker, self.wide)?;
            probe
        } else {
            // Temporally shared architectures: no reconfiguration exists, so
            // the sweep simply runs after the victim's secure phase ends.
            total += run.cross_boundary();
            sweep(run.machine)
        };
        total += probe;
        Ok((probe, total))
    }

    /// Wraps up the fault: a final audit pass (the grow after the last
    /// measured window can still drop packets), then lifts the fault so the
    /// machine goes back into the pool clean.
    fn end(&mut self, machine: &mut Machine) {
        if self.attack.fault == FaultMode::DroppedPurgeAudited {
            self.audit.recover(machine);
        }
        if self.attack.fault != FaultMode::None {
            self.audit.dropped_unrecovered = machine.clear_scrub_drop_fault() as u64;
        }
    }
}

/// Touches every line of `pages` consecutive pages from `base`, returning
/// the summed access latencies (the attacker sees nothing a real attacker
/// could not time on its own loads).
#[allow(clippy::too_many_arguments)]
fn touch_pages(
    machine: &mut Machine,
    core: NodeId,
    pid: ProcessId,
    base: u64,
    pages: u64,
    page_bytes: u64,
    line_bytes: u64,
    write: bool,
) -> u64 {
    let mut cycles = 0u64;
    for p in 0..pages {
        let page = base + p * page_bytes;
        for l in 0..(page_bytes / line_bytes) {
            cycles += machine.access(core, pid, page + l * line_bytes, write);
        }
    }
    cycles
}

/// Wraps the window attack as an attack-matrix channel spec under the given
/// purge ordering, with the payload length following the scale label.
pub fn window_attack_spec(order: PurgeOrder) -> AttackSpec {
    let label = match order {
        PurgeOrder::PurgeThenRehome => SHIPPED_LABEL,
        PurgeOrder::RehomeThenPurge => MISORDERED_LABEL,
    };
    AttackSpec::new(label, move |config: &MachineConfig, arch, scale, seed, machine| {
        WindowAttack::new(config.clone(), order)
            .with_payload_bits(LeakageOracle::payload_for_scale(scale.label()))
            .assess_recycled(arch, seed, machine)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn testbench() -> MachineConfig {
        MachineConfig::attack_testbench()
    }

    #[test]
    fn shipped_ordering_closes_the_window_on_ironhide() {
        let attack = WindowAttack::new(testbench(), PurgeOrder::PurgeThenRehome);
        let outcome = attack.assess(Architecture::Ironhide, 7).unwrap();
        assert!(
            outcome.is_closed(),
            "shipped purge order must close the window: BER {} (probes {}..{})",
            outcome.ber,
            outcome.min_probe_cycles,
            outcome.max_probe_cycles
        );
        assert!((outcome.ber - 0.5).abs() <= 0.05, "BER {}", outcome.ber);
        assert!(outcome.isolation.is_clean(), "violations: {:?}", outcome.isolation.violations);
        assert_eq!(outcome.secure_cores, testbench().cores() / 2);
    }

    #[test]
    fn injected_misordering_opens_the_window_on_ironhide() {
        let attack = WindowAttack::new(testbench(), PurgeOrder::RehomeThenPurge);
        let outcome = attack.assess(Architecture::Ironhide, 7).unwrap();
        assert!(
            outcome.is_open(),
            "rehome-before-purge must leak through the window: BER {} (probes {}..{})",
            outcome.ber,
            outcome.min_probe_cycles,
            outcome.max_probe_cycles
        );
        assert_eq!(outcome.channel, MISORDERED_LABEL);
    }

    #[test]
    fn audited_dropped_purge_recovery_keeps_the_window_closed() {
        let attack = WindowAttack::new(testbench(), PurgeOrder::PurgeThenRehome)
            .with_fault(FaultMode::DroppedPurgeAudited, 800);
        let (outcome, audit) = attack.assess_faulted(Architecture::Ironhide, 7, &mut None).unwrap();
        assert!(
            outcome.is_closed(),
            "audited recovery must keep the window closed: BER {} (probes {}..{})",
            outcome.ber,
            outcome.min_probe_cycles,
            outcome.max_probe_cycles
        );
        assert!((outcome.ber - 0.5).abs() <= 0.05, "BER {}", outcome.ber);
        assert_eq!(outcome.channel, AUDITED_DROP_LABEL);
        assert!(audit.dropped_recovered > 0, "the fault must actually drop packets");
        assert!(audit.is_clean(), "recovery must be complete: {audit:?}");
    }

    #[test]
    fn unaudited_dropped_purge_pins_the_window_open() {
        let attack = WindowAttack::new(testbench(), PurgeOrder::PurgeThenRehome)
            .with_fault(FaultMode::DroppedPurgeUnaudited, 800);
        let (outcome, audit) = attack.assess_faulted(Architecture::Ironhide, 7, &mut None).unwrap();
        assert!(
            outcome.is_open(),
            "unaudited drops must leak through the window: BER {} (probes {}..{})",
            outcome.ber,
            outcome.min_probe_cycles,
            outcome.max_probe_cycles
        );
        assert_eq!(outcome.channel, UNAUDITED_DROP_LABEL);
        assert_eq!(audit.dropped_recovered, 0, "nobody audited");
        assert!(audit.dropped_unrecovered > 0, "residue must remain: {audit:?}");
    }

    #[test]
    fn window_is_open_on_the_insecure_baseline() {
        // No clusters, no purges: the same evict-and-sweep decodes the
        // victim's dirty footprint directly from the shared L2.
        let attack = WindowAttack::new(testbench(), PurgeOrder::PurgeThenRehome);
        let outcome = attack.assess(Architecture::Insecure, 7).unwrap();
        assert!(outcome.is_open(), "insecure baseline must leak: BER {}", outcome.ber);
    }

    #[test]
    fn mi6_boundary_purges_close_the_window() {
        let attack = WindowAttack::new(testbench(), PurgeOrder::PurgeThenRehome);
        let outcome = attack.assess(Architecture::Mi6, 7).unwrap();
        assert!(outcome.is_closed(), "MI6 static partition must not leak: BER {}", outcome.ber);
        assert!(outcome.isolation.is_clean(), "violations: {:?}", outcome.isolation.violations);
    }

    #[test]
    fn recycled_assessment_is_byte_identical() {
        let attack = WindowAttack::new(testbench(), PurgeOrder::RehomeThenPurge);
        let fresh = attack.assess(Architecture::Ironhide, 11).unwrap();
        let mut pool = None;
        // Dirty the pool with a different-seed run first, then re-assess.
        attack.assess_recycled(Architecture::Ironhide, 5, &mut pool).unwrap();
        let recycled = attack.assess_recycled(Architecture::Ironhide, 11, &mut pool).unwrap();
        assert_eq!(fresh.ber, recycled.ber);
        assert_eq!(fresh.min_probe_cycles, recycled.min_probe_cycles);
        assert_eq!(fresh.max_probe_cycles, recycled.max_probe_cycles);
        assert_eq!(fresh.payload_cycles, recycled.payload_cycles);
    }

    #[test]
    fn spec_labels_follow_the_order() {
        assert_eq!(window_attack_spec(PurgeOrder::PurgeThenRehome).label(), SHIPPED_LABEL);
        assert_eq!(window_attack_spec(PurgeOrder::RehomeThenPurge).label(), MISORDERED_LABEL);
    }
}
