//! Deterministic fault injection with quarantine-and-remap degradation.
//!
//! A security architecture that only holds on a healthy machine is not a
//! security architecture — real deployments lose tiles, links, and memory
//! controllers, and the purge traffic IRONHIDE's isolation leans on can
//! itself be dropped by a failing NoC. This module makes failure a
//! first-class, *replayable* input:
//!
//! * [`FaultSchedule`] draws a fault event stream from the vendored `rand`
//!   ([`StdRng`]): which arrival index each fault fires at and which tile it
//!   hits are pure functions of the schedule seed, so every campaign cell is
//!   byte-replayable across thread counts and processes.
//! * [`FaultKind`] covers the taxonomy: whole-tile failures (quarantined and
//!   re-pinned around via
//!   [`ClusterManager::quarantine`](crate::cluster::ClusterManager::quarantine)),
//!   NoC link degradation (per-link penalty cycles), memory-controller stalls,
//!   and *partial-completion* faults that drop a seed-chosen fraction of
//!   scrub/purge packets mid-reconfiguration.
//! * [`FaultArch`] is the differential axis: the audited discipline detects
//!   dropped scrubs and replays them (channels stay CLOSED), the unaudited
//!   one fails open and is pinned OPEN as the negative control.
//! * [`FaultGrid`] / [`FaultMatrix`] sweep {kind × rate × arch} through
//!   [`SweepRunner`] under the same determinism contract as every other
//!   matrix in the tree.

use std::fmt;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use ironhide_sim::machine::Machine;

use crate::cluster::ClusterError;
use crate::fnv1a;
use crate::sweep::{
    derive_seed, json_fields, json_string, CellError, Matrix, MatrixRow, SweepRunner,
};
use crate::tenancy::{AdmissionPolicy, StormConfig, StormReport, TenancyStorm};

// ---------------------------------------------------------------------------
// Fault taxonomy
// ---------------------------------------------------------------------------

/// The kinds of injected failure the campaign sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A tile dies: its slice is quarantined, scrubbed and routed around.
    TileFailure,
    /// A NoC link degrades: every flit crossing it pays a penalty.
    LinkDegradation,
    /// A memory controller develops a fixed per-request stall.
    ControllerStall,
    /// Partial completion: a fraction of scrub/purge packets is dropped
    /// mid-reconfiguration (the fault the scrub audit exists to catch).
    DroppedScrub,
}

impl FaultKind {
    /// Every kind, in canonical sweep order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::TileFailure,
        FaultKind::LinkDegradation,
        FaultKind::ControllerStall,
        FaultKind::DroppedScrub,
    ];

    /// Stable label — feeds cell-seed derivation and JSON, so it must never
    /// change once a checksum is pinned.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::TileFailure => "tile-failure",
            FaultKind::LinkDegradation => "link-degradation",
            FaultKind::ControllerStall => "controller-stall",
            FaultKind::DroppedScrub => "dropped-scrub",
        }
    }

    /// The fault's magnitude: link penalty cycles per flit, or controller
    /// stall cycles per request (0 for tile failures and dropped scrubs).
    pub(crate) fn magnitude(self) -> u64 {
        match self {
            FaultKind::TileFailure | FaultKind::DroppedScrub => 0,
            FaultKind::LinkDegradation => 48,
            FaultKind::ControllerStall => 250,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The degradation discipline under test — the differential axis of the
/// campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultArch {
    /// IRONHIDE's discipline: quarantine failed tiles, audit the scrub log
    /// after every reconfiguration, replay dropped packets, re-admit evicted
    /// tenants after a fixed backoff.
    Ironhide,
    /// The fail-open baseline: no scrub audit, no recovery — evicted tenants
    /// vanish and dropped purge traffic leaves attacker-observable residue.
    Insecure,
}

impl FaultArch {
    /// Both disciplines, in canonical sweep order.
    pub const ALL: [FaultArch; 2] = [FaultArch::Ironhide, FaultArch::Insecure];

    /// Stable label (same contract as [`FaultKind::label`]).
    pub fn label(self) -> &'static str {
        match self {
            FaultArch::Ironhide => "IRONHIDE",
            FaultArch::Insecure => "Insecure",
        }
    }

    /// Whether this discipline audits and recovers dropped scrub traffic.
    pub fn audited(self) -> bool {
        matches!(self, FaultArch::Ironhide)
    }
}

impl fmt::Display for FaultArch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

// ---------------------------------------------------------------------------
// Schedule
// ---------------------------------------------------------------------------

/// Parameters one [`FaultSchedule`] is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// What breaks.
    pub kind: FaultKind,
    /// Fault intensity in per-mille: per-arrival firing probability for
    /// discrete kinds, per-page drop probability for
    /// [`FaultKind::DroppedScrub`].
    pub rate_per_mille: u32,
}

impl FaultConfig {
    /// The parameters for `kind` at `rate_per_mille`.
    pub fn for_kind(kind: FaultKind, rate_per_mille: u32) -> Self {
        FaultConfig { kind, rate_per_mille }
    }
}

/// One drawn fault: it fires when the storm consumes arrival `at_event`, on
/// tile `target` (reduced modulo whatever population the consumer targets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Arrival index the fault is pinned to.
    pub at_event: u64,
    /// Raw tile draw.
    pub target: usize,
}

/// The empty schedule a fault-free storm replays.
pub(crate) static NO_FAULTS: FaultSchedule = FaultSchedule {
    config: FaultConfig { kind: FaultKind::TileFailure, rate_per_mille: 0 },
    seed: 0,
    events: Vec::new(),
};

/// A seed-pure, replayable fault event stream.
///
/// Two schedules drawn with equal `(config, seed, horizon, targets)` are
/// byte-identical; there is no hidden draw counter, so replaying a schedule
/// never depends on who consumed it first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    config: FaultConfig,
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Draws the schedule: for each of `horizon_events` arrival indices, one
    /// firing draw against `rate_per_mille` and one target draw over
    /// `targets` tiles (both always consumed, so the stream shape is
    /// independent of the rate). [`FaultKind::DroppedScrub`] is a continuous
    /// fault — it draws identically but schedules no discrete events; its
    /// rate applies per scrubbed page inside the machine instead.
    pub fn draw(config: FaultConfig, seed: u64, horizon_events: u64, targets: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for at_event in 0..horizon_events {
            let fire = (rng.next_u64() % 1000) as u32;
            let target = (rng.next_u64() % targets.max(1) as u64) as usize;
            if config.kind != FaultKind::DroppedScrub && fire < config.rate_per_mille {
                events.push(FaultEvent { at_event, target });
            }
        }
        FaultSchedule { config, seed, events }
    }

    /// The parameters the schedule was drawn from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The seed the schedule was drawn with (also seeds the machine's
    /// per-page scrub-drop predicate for dropped-scrub campaigns).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The drawn events, ascending by arrival index.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// FNV-1a over the config and every drawn event — the number the
    /// seed-purity property test compares across replays.
    pub fn checksum(&self) -> u64 {
        let header =
            [u64::from(self.config.rate_per_mille), self.config.kind.magnitude(), self.seed];
        let events = self.events.iter().flat_map(|ev| [ev.at_event, ev.target as u64]);
        fnv1a(header.into_iter().chain(events).flat_map(u64::to_le_bytes))
    }
}

// ---------------------------------------------------------------------------
// Fault grid and matrix
// ---------------------------------------------------------------------------

/// The {kind × rate × arch} fault campaign grid swept by
/// [`SweepRunner::run_faults`], over a single storm load and admission
/// policy.
#[derive(Debug, Clone)]
pub struct FaultGrid {
    /// Fault kinds to sweep.
    pub kinds: Vec<FaultKind>,
    /// Fault rates (per-mille) to sweep; include 0 for the healthy baseline
    /// cell each degradation gate compares against.
    pub rates_per_mille: Vec<u32>,
    /// Degradation disciplines to sweep.
    pub arches: Vec<FaultArch>,
    /// The tenant load every cell replays.
    pub storm: StormConfig,
    /// The admission policy every cell runs under.
    pub policy: AdmissionPolicy,
}

impl FaultGrid {
    /// Creates an empty grid over one (load, policy) combination.
    pub fn new(storm: StormConfig, policy: AdmissionPolicy) -> Self {
        FaultGrid {
            kinds: Vec::new(),
            rates_per_mille: Vec::new(),
            arches: Vec::new(),
            storm,
            policy,
        }
    }

    /// Adds a fault kind.
    pub fn with_kind(mut self, kind: FaultKind) -> Self {
        self.kinds.push(kind);
        self
    }

    /// Adds a fault rate (per-mille).
    pub fn with_rate(mut self, rate_per_mille: u32) -> Self {
        self.rates_per_mille.push(rate_per_mille);
        self
    }

    /// Adds a degradation discipline.
    pub fn with_arch(mut self, arch: FaultArch) -> Self {
        self.arches.push(arch);
        self
    }

    /// Number of cells the grid expands to.
    pub fn len(&self) -> usize {
        self.kinds.len() * self.rates_per_mille.len() * self.arches.len()
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonical cell expansion: kind-major, then rate, then arch.
    pub fn keys(&self) -> Vec<FaultCellKey> {
        let mut keys = Vec::with_capacity(self.len());
        for kind in &self.kinds {
            for rate in &self.rates_per_mille {
                for arch in &self.arches {
                    keys.push(FaultCellKey { kind: *kind, rate_per_mille: *rate, arch: *arch });
                }
            }
        }
        keys
    }
}

/// Identity of one fault-campaign cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCellKey {
    /// What breaks.
    pub kind: FaultKind,
    /// How often (per-mille).
    pub rate_per_mille: u32,
    /// Which discipline responds.
    pub arch: FaultArch,
}

impl fmt::Display for FaultCellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The "faults" prefix namespaces fault-cell seeds away from every
        // other grid's.
        write!(f, "faults | {} | {} | {}", self.kind, self.rate_per_mille, self.arch)
    }
}

/// A fault-sweep failure.
pub type FaultSweepError = CellError<FaultCellKey, ClusterError>;

/// One completed fault cell.
#[derive(Debug, Clone)]
pub struct FaultCell {
    /// The cell's identity.
    pub key: FaultCellKey,
    /// The seed the storm ran with.
    pub seed: u64,
    /// Discrete fault events the schedule drew for this cell.
    pub scheduled_events: u64,
    /// The storm's outcome under injected faults.
    pub report: StormReport,
}

/// The completed fault campaign, in canonical order (kind-major, then rate,
/// then arch).
pub type FaultMatrix = Matrix<FaultCell>;

impl FaultMatrix {
    /// Looks up one cell.
    pub fn get(&self, kind: FaultKind, rate_per_mille: u32, arch: FaultArch) -> Option<&FaultCell> {
        self.cells.iter().find(|c| {
            c.key.kind == kind && c.key.rate_per_mille == rate_per_mille && c.key.arch == arch
        })
    }

    /// FNV-1a over the serialised matrix — the single number `tests/pins.rs`
    /// pins for the whole campaign.
    pub fn checksum(&self) -> u64 {
        fnv1a(self.to_json().into_bytes())
    }
}

impl MatrixRow for FaultCell {
    fn write_json(&self, out: &mut String) {
        let r = &self.report;
        // The audit replays every dropped scrub it detects, so both dropped
        // keys carry the one recovered tally.
        json_fields!(out, {
            "kind": json_string(out, self.key.kind.label()),
            "rate_per_mille": out.push_str(&self.key.rate_per_mille.to_string()),
            "arch": json_string(out, self.key.arch.label()),
            "seed": out.push_str(&self.seed.to_string()),
            "scheduled_events": out.push_str(&self.scheduled_events.to_string()),
            "arrived": out.push_str(&r.arrived.to_string()),
            "admitted": out.push_str(&r.admitted.to_string()),
            "denied": out.push_str(&r.denied.to_string()),
            "queued": out.push_str(&r.queued.to_string()),
            "failed_recovered": out.push_str(&r.failed_recovered.to_string()),
            "conserved": out.push_str(if r.conserves_tenants() { "true" } else { "false" }),
            "faults_injected": out.push_str(&r.faults_injected.to_string()),
            "quarantined_tiles": out.push_str(&r.quarantined_tiles.to_string()),
            "backoff_retries": out.push_str(&r.backoff_retries.to_string()),
            "dropped_scrubs_detected": out.push_str(&r.dropped_scrubs_recovered.to_string()),
            "dropped_scrubs_recovered": out.push_str(&r.dropped_scrubs_recovered.to_string()),
            "dropped_scrubs_unrecovered": out.push_str(&r.dropped_scrubs_unrecovered.to_string()),
            "completion_p50_cycles": out.push_str(&r.slo.completion_percentile(1, 2).to_string()),
            "completion_p99_cycles": out.push_str(&r.slo.completion_percentile(99, 100).to_string()),
            "stall_p99_cycles": out.push_str(&r.slo.stall_percentile(99, 100).to_string()),
            "total_stall_cycles": out.push_str(&r.slo.total_stall_cycles().to_string()),
            "reconfigurations": out.push_str(&r.reconfigurations.to_string()),
            "pages_rehomed": out.push_str(&r.pages_rehomed.to_string()),
            "final_cycle": out.push_str(&r.final_cycle.to_string()),
            "slo_checksum": out.push_str(&r.slo.checksum().to_string()),
        });
    }
}

impl SweepRunner {
    /// Runs every cell of the fault `grid` in parallel and collects the
    /// reports in grid order, under the same determinism contract as every
    /// other sweep: the serialised [`FaultMatrix`] is byte-identical at any
    /// thread count because each cell's schedule and storm depend only on the
    /// cell's derived seed.
    ///
    /// # Errors
    ///
    /// Returns the first (in grid order) [`FaultSweepError`] if any cell
    /// fails; partial results are discarded.
    pub fn run_faults(&self, grid: &FaultGrid) -> Result<FaultMatrix, FaultSweepError> {
        let horizon = grid.storm.tenants as u64;
        let targets = self.machine_config().cores();
        let cells = grid.keys().into_iter().map(|key| (key, ())).collect();
        self.run_grid(cells, |key, _, seed, slot| {
            let config = FaultConfig::for_kind(key.kind, key.rate_per_mille);
            // The schedule gets its own derived seed so fault draws never
            // alias the arrival stream's.
            let schedule =
                FaultSchedule::draw(config, derive_seed(seed, "fault-schedule"), horizon, targets);
            let machine = slot.get_or_insert_with(|| Machine::new(self.machine_config().clone()));
            let storm = TenancyStorm::with_faults(&grid.storm, grid.policy, &schedule, key.arch);
            let report = storm.run(machine, seed)?;
            let scheduled_events = schedule.events().len() as u64;
            Ok(FaultCell { key: key.clone(), seed, scheduled_events, report })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenancy::TenantProfile;
    use ironhide_sim::config::MachineConfig;

    fn test_storm() -> StormConfig {
        StormConfig {
            tenants: 40,
            mean_interarrival_cycles: 30_000,
            mean_service_scale: 1,
            host_reserve_cores: 8,
            profiles: vec![
                TenantProfile::new("small", 4, 40_000),
                TenantProfile::new("medium", 12, 120_000),
                TenantProfile::new("large", 24, 250_000),
            ],
        }
    }

    fn test_grid() -> FaultGrid {
        FaultGrid::new(test_storm(), AdmissionPolicy::Queue)
            .with_kind(FaultKind::TileFailure)
            .with_kind(FaultKind::DroppedScrub)
            .with_rate(0)
            .with_rate(120)
            .with_arch(FaultArch::Ironhide)
            .with_arch(FaultArch::Insecure)
    }

    #[test]
    fn fault_schedules_are_seed_pure() {
        let config = FaultConfig::for_kind(FaultKind::TileFailure, 500);
        let a = FaultSchedule::draw(config, 42, 64, 64);
        let b = FaultSchedule::draw(config, 42, 64, 64);
        assert_eq!(a, b);
        assert_eq!(a.checksum(), b.checksum());
        assert!(!a.events().is_empty(), "a 50% rate over 64 draws must fire");
        let c = FaultSchedule::draw(config, 43, 64, 64);
        assert_ne!(a.events(), c.events(), "different seeds must draw different streams");
    }

    #[test]
    fn zero_rate_schedules_are_inert() {
        // The crucial golden-preservation property: a storm carrying an empty
        // schedule is byte-identical to a storm with no schedule at all.
        let storm_config = test_storm();
        let mut machine = Machine::new(MachineConfig::paper_default());
        let baseline = TenancyStorm::new(&storm_config, AdmissionPolicy::Queue)
            .run(&mut machine, 11)
            .expect("baseline storm");
        for kind in FaultKind::ALL {
            let config = FaultConfig::for_kind(kind, 0);
            let schedule = FaultSchedule::draw(config, 7, 40, 64);
            assert!(schedule.events().is_empty());
            let faulted = TenancyStorm::with_faults(
                &storm_config,
                AdmissionPolicy::Queue,
                &schedule,
                FaultArch::Ironhide,
            )
            .run(&mut machine, 11)
            .expect("zero-rate storm");
            assert_eq!(baseline.slo.checksum(), faulted.slo.checksum(), "{kind}");
            assert_eq!(baseline.admitted, faulted.admitted, "{kind}");
            assert_eq!(faulted.faults_injected, 0, "{kind}");
            assert_eq!(faulted.failed_recovered, 0, "{kind}");
        }
    }

    #[test]
    fn tile_failures_quarantine_and_still_conserve_tenants() {
        let storm_config = test_storm();
        let config = FaultConfig::for_kind(FaultKind::TileFailure, 200);
        let schedule = FaultSchedule::draw(config, 1234, 40, 64);
        assert!(!schedule.events().is_empty());
        let mut machine = Machine::new(MachineConfig::paper_default());
        for policy in AdmissionPolicy::ALL {
            let report =
                TenancyStorm::with_faults(&storm_config, policy, &schedule, FaultArch::Ironhide)
                    .run(&mut machine, 11)
                    .expect("faulted storm");
            assert!(report.conserves_tenants(), "{policy}: conservation violated under faults");
            assert!(report.faults_injected > 0, "{policy}: no fault fired");
            assert!(report.quarantined_tiles > 0, "{policy}: no tile quarantined");
        }
    }

    #[test]
    fn audited_drops_recover_while_unaudited_leave_residue() {
        let storm_config = test_storm();
        let config = FaultConfig::for_kind(FaultKind::DroppedScrub, 500);
        let schedule = FaultSchedule::draw(config, 99, 40, 64);
        let mut machine = Machine::new(MachineConfig::paper_default());
        let audited = TenancyStorm::with_faults(
            &storm_config,
            AdmissionPolicy::Queue,
            &schedule,
            FaultArch::Ironhide,
        )
        .run(&mut machine, 11)
        .expect("audited storm");
        assert!(audited.dropped_scrubs_recovered > 0, "the audit must see drops");
        assert_eq!(audited.dropped_scrubs_unrecovered, 0, "audited recovery must be complete");
        assert!(audited.conserves_tenants());

        let unaudited = TenancyStorm::with_faults(
            &storm_config,
            AdmissionPolicy::Queue,
            &schedule,
            FaultArch::Insecure,
        )
        .run(&mut machine, 11)
        .expect("unaudited storm");
        assert_eq!(unaudited.dropped_scrubs_recovered, 0);
        assert!(
            unaudited.dropped_scrubs_unrecovered > 0,
            "failing open must leave attacker-observable residue"
        );
        assert!(unaudited.conserves_tenants());
    }

    #[test]
    fn fault_matrix_is_byte_identical_across_thread_counts() {
        let grid = test_grid();
        let baseline = SweepRunner::new(MachineConfig::paper_default())
            .with_seed(7)
            .with_threads(1)
            .run_faults(&grid)
            .expect("fault sweep")
            .to_json();
        for threads in [2usize, 4] {
            let json = SweepRunner::new(MachineConfig::paper_default())
                .with_seed(7)
                .with_threads(threads)
                .run_faults(&grid)
                .expect("fault sweep")
                .to_json();
            assert_eq!(baseline, json, "thread count {threads} changed the fault matrix");
        }
    }

    #[test]
    fn fault_seeds_are_namespaced_per_cell() {
        let runner = SweepRunner::new(MachineConfig::paper_default()).with_seed(7);
        let keys = test_grid().keys();
        let seeds: Vec<u64> = keys.iter().map(|k| runner.cell_seed(k)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "cell seeds must be distinct");
    }
}
