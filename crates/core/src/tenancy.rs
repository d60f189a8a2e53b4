//! Multi-tenant churn: open-loop tenant arrivals, per-tenant SLO accounting
//! and pluggable admission control over the secure cluster.
//!
//! The paper pitches IRONHIDE as a substrate for *interactive* secure
//! applications, which in a cloud setting means tenants arriving and leaving
//! continuously — every admission and departure is a potential cluster
//! reconfiguration, so the stall sequence PR 7 made O(moved state) becomes
//! the common case rather than a corner. This module turns that churn into a
//! deterministic production-style workload:
//!
//! * [`ArrivalGenerator`] draws an open-loop, Poisson-style arrival stream
//!   (exponential inter-arrival and service draws through the vendored
//!   `rand`) — one tenant is one attested secure-cluster allocation, attested
//!   through the [`SecureKernel`] before any
//!   cores are granted.
//! * [`TenancyStorm`] replays the stream against one simulated machine under
//!   an [`AdmissionPolicy`], resizing the secure cluster through
//!   [`ClusterManager::reconfigure`] as tenants come and go and charging
//!   every stall to the tenants frozen behind it.
//! * [`SloAccount`] keeps **exact sorted samples** (not approximate
//!   histograms) so the reported p50/p99/p999 completion latencies and
//!   reconfiguration-stall tails are byte-identical across thread counts and
//!   processes.
//! * [`TenancyGrid`] / [`TenancyMatrix`] sweep {policy × load} through
//!   [`SweepRunner`] under the same determinism contract as the performance
//!   and attack grids.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use ironhide_mesh::NodeId;
use ironhide_sim::machine::Machine;
use ironhide_sim::process::SecurityClass;

use crate::cluster::{ClusterError, ClusterManager, ReconfigError};
use crate::faults::{BackoffPolicy, FaultArch, FaultKind, FaultSchedule};
use crate::fnv1a;
use crate::kernel::{AppDomain, SecureKernel};
use crate::sweep::{json_fields, json_string, CellError, Matrix, MatrixRow, SweepRunner};

/// The resource shape of one tenant class: how many secure cores it asks for
/// and how much service (in core·cycles) a mean-sized instance needs before
/// it departs. The workloads crate maps each paper application to a profile,
/// so a storm mixes heterogeneous tenant shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantProfile {
    /// Display label (shows up in nothing checksummed; purely diagnostic).
    pub label: String,
    /// Secure cores the tenant requests.
    pub demand_cores: usize,
    /// Mean service requirement, in core·cycles.
    pub service_units: u64,
}

impl TenantProfile {
    /// Creates a profile.
    pub fn new(label: impl Into<String>, demand_cores: usize, service_units: u64) -> Self {
        TenantProfile { label: label.into(), demand_cores: demand_cores.max(1), service_units }
    }
}

/// What the admission controller does when a tenant's demand does not fit
/// the free secure capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdmissionPolicy {
    /// Reject the tenant outright.
    Deny,
    /// Park the tenant in a FIFO queue; it is admitted when departures free
    /// enough cores.
    Queue,
    /// Shrink the grants of already-admitted tenants (proportionally, floor
    /// one core each) to make room; deny only if even that cannot fit the
    /// newcomer. Shrunk tenants are **not** re-expanded later — the paper's
    /// security argument budgets one reconfiguration per interaction, so the
    /// controller avoids speculative regrowth.
    ShrinkNeighbours,
}

impl AdmissionPolicy {
    /// All policies, in the order the tenancy grid sweeps them.
    pub const ALL: [AdmissionPolicy; 3] =
        [AdmissionPolicy::Deny, AdmissionPolicy::Queue, AdmissionPolicy::ShrinkNeighbours];

    /// Stable display label (feeds seed derivation — never change).
    pub fn label(self) -> &'static str {
        match self {
            AdmissionPolicy::Deny => "deny",
            AdmissionPolicy::Queue => "queue",
            AdmissionPolicy::ShrinkNeighbours => "shrink-neighbours",
        }
    }
}

impl fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One pre-drawn tenant arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Tenant index in arrival order (also its attestation identity).
    pub tenant: u64,
    /// Absolute arrival cycle.
    pub at_cycle: u64,
    /// Index into the storm's profile list.
    pub profile: usize,
    /// Secure cores requested (the profile's demand, possibly clamped to
    /// capacity by the storm).
    pub demand_cores: usize,
    /// Exact service requirement drawn for this instance, in core·cycles.
    pub service_units: u64,
}

/// Seed-deterministic open-loop arrival generator: exponential inter-arrival
/// gaps and service requirements (the standard Poisson-process construction)
/// drawn from the vendored [`StdRng`], with the tenant's profile picked
/// uniformly per arrival. The stream depends only on the seed and the
/// parameters — never on thread count or wall clock.
#[derive(Debug, Clone)]
pub struct ArrivalGenerator {
    mean_interarrival_cycles: u64,
    mean_service_scale: u64,
    profiles: Vec<TenantProfile>,
}

impl ArrivalGenerator {
    /// Creates a generator with the given mean inter-arrival gap and a
    /// service-scale multiplier applied to every profile's mean service.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    pub fn new(
        mean_interarrival_cycles: u64,
        mean_service_scale: u64,
        profiles: Vec<TenantProfile>,
    ) -> Self {
        assert!(!profiles.is_empty(), "arrival generator needs at least one tenant profile");
        ArrivalGenerator {
            mean_interarrival_cycles: mean_interarrival_cycles.max(1),
            mean_service_scale: mean_service_scale.max(1),
            profiles,
        }
    }

    /// The profiles arrivals draw from.
    pub fn profiles(&self) -> &[TenantProfile] {
        &self.profiles
    }

    /// Draws `count` arrivals from `seed`.
    pub fn draw(&self, seed: u64, count: usize) -> Vec<Arrival> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut now = 0u64;
        let mut out = Vec::with_capacity(count);
        for tenant in 0..count as u64 {
            now = now.saturating_add(exponential(&mut rng, self.mean_interarrival_cycles));
            let profile = (rng.next_u64() % self.profiles.len() as u64) as usize;
            let p = &self.profiles[profile];
            let mean_service = p.service_units.saturating_mul(self.mean_service_scale).max(1);
            let service_units = exponential(&mut rng, mean_service);
            out.push(Arrival {
                tenant,
                at_cycle: now,
                profile,
                demand_cores: p.demand_cores,
                service_units,
            });
        }
        out
    }
}

/// One exponential draw with the given mean, rounded to at least one cycle.
/// Inverse-CDF over the vendored generator's 53-bit uniform: deterministic
/// for a given seed.
fn exponential(rng: &mut StdRng, mean: u64) -> u64 {
    let u: f64 = rng.gen();
    let draw = -(mean as f64) * f64::ln(1.0 - u);
    (draw.round() as u64).max(1)
}

/// Exact-sample SLO accounting: every completion latency and every
/// reconfiguration stall is kept verbatim and percentiles are read from the
/// sorted samples by the nearest-rank rule — no histogram buckets, so two
/// runs that simulate the same events report byte-identical tails.
#[derive(Debug, Clone, Default)]
pub struct SloAccount {
    completion_cycles: Vec<u64>,
    stall_cycles: Vec<u64>,
}

impl SloAccount {
    /// Creates an empty account.
    pub fn new() -> Self {
        SloAccount::default()
    }

    /// Records one tenant's completion latency (admission-to-departure,
    /// stalls included).
    pub fn record_completion(&mut self, cycles: u64) {
        self.completion_cycles.push(cycles);
    }

    /// Records one reconfiguration stall.
    pub fn record_stall(&mut self, cycles: u64) {
        self.stall_cycles.push(cycles);
    }

    /// Number of completions recorded.
    pub fn completions(&self) -> usize {
        self.completion_cycles.len()
    }

    /// Number of stalls recorded.
    pub fn stalls(&self) -> usize {
        self.stall_cycles.len()
    }

    /// The completion-latency percentile `num/den` (e.g. 999/1000 for p999)
    /// by the nearest-rank rule, or 0 with no samples.
    pub fn completion_percentile(&self, num: u64, den: u64) -> u64 {
        percentile(&self.completion_cycles, num, den)
    }

    /// The stall percentile `num/den` by the nearest-rank rule, or 0 with no
    /// samples.
    pub fn stall_percentile(&self, num: u64, den: u64) -> u64 {
        percentile(&self.stall_cycles, num, den)
    }

    /// The largest stall observed, or 0.
    pub fn stall_max(&self) -> u64 {
        self.stall_cycles.iter().copied().max().unwrap_or(0)
    }

    /// Sum of all stall cycles.
    ///
    /// # Panics
    ///
    /// Panics if the total would overflow `u64` — a wrapped stall total would
    /// silently corrupt the checksummed SLO report, so the overflow is loud
    /// (same discipline as the `Region` address arithmetic).
    pub fn total_stall_cycles(&self) -> u64 {
        self.stall_cycles.iter().fold(0u64, |a, s| {
            a.checked_add(*s)
                .unwrap_or_else(|| panic!("SLO stall total overflowed u64 ({a} + {s})"))
        })
    }

    /// FNV-1a over the completion samples then the stall samples (in
    /// recording order) — the byte-stable checksum `tests/pins.rs` pins.
    pub fn checksum(&self) -> u64 {
        fnv1a(self.completion_cycles.iter().chain(&self.stall_cycles).flat_map(|s| s.to_le_bytes()))
    }
}

/// Nearest-rank percentile over a copy of `samples` sorted ascending:
/// rank ⌈n·num/den⌉, clamped to the sample count. Exact integer arithmetic
/// throughout.
fn percentile(samples: &[u64], num: u64, den: u64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as u64;
    let rank = n.saturating_mul(num).div_ceil(den).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// Storm parameters: how many tenants arrive, how fast, how much service
/// they need, and how much of the machine the insecure host keeps.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Number of tenant arrivals to generate.
    pub tenants: usize,
    /// Mean inter-arrival gap, in cycles.
    pub mean_interarrival_cycles: u64,
    /// Multiplier on every profile's mean service requirement.
    pub mean_service_scale: u64,
    /// Cores reserved for the insecure host cluster (the secure cluster can
    /// never grow into these).
    pub host_reserve_cores: usize,
    /// Tenant classes arrivals draw from.
    pub profiles: Vec<TenantProfile>,
}

/// One admitted tenant's live state inside the storm.
#[derive(Debug, Clone)]
struct ActiveTenant {
    tenant: u64,
    /// Arrival cycle — completion latency is measured from here, so queueing
    /// delay and reconfiguration stalls both surface in the SLO tails.
    arrived_at: u64,
    granted: usize,
    remaining_units: u64,
}

/// The outcome of one tenancy storm: conservation counts, SLO tails and the
/// reconfiguration bill.
#[derive(Debug, Clone)]
pub struct StormReport {
    /// Tenants that arrived.
    pub arrived: u64,
    /// Tenants ever admitted (directly, from the queue, or after shrinking
    /// neighbours).
    pub admitted: u64,
    /// Tenants rejected.
    pub denied: u64,
    /// Tenants still waiting in the queue when the storm ended (always 0
    /// after a full drain; kept for the conservation identity).
    pub queued: u64,
    /// Tenants attested by the secure kernel (always equals `arrived`:
    /// attestation precedes admission control).
    pub attested: u64,
    /// Exact-sample SLO account (completion latencies + stalls).
    pub slo: SloAccount,
    /// Cluster reconfigurations performed.
    pub reconfigurations: u64,
    /// Pages re-homed across all reconfigurations.
    pub pages_rehomed: u64,
    /// The cycle the last event completed at.
    pub final_cycle: u64,
    /// Tenants that lost their tile to an injected fault and were re-admitted
    /// through the admission machinery (0 on every fault-free run).
    pub failed_recovered: u64,
    /// Injected fault events that fired during the storm.
    pub faults_injected: u64,
    /// Tiles quarantined in response to tile failures.
    pub quarantined_tiles: u64,
    /// Bounded-exponential-backoff retries charged against degraded capacity.
    pub backoff_retries: u64,
    /// Dropped scrub packets the audit detected and replayed back to a
    /// clean state (audited discipline only).
    pub dropped_scrubs_recovered: u64,
    /// Dropped scrub packets never recovered (unaudited discipline: the storm
    /// fails open and this count is the attack surface it leaves behind).
    pub dropped_scrubs_unrecovered: u64,
}

impl StormReport {
    /// The conservation identity every policy must satisfy, extended for
    /// fault injection: admitted + denied + queued + failed-recovered ==
    /// arrived. On fault-free runs `failed_recovered` is zero and this is the
    /// original three-bucket identity.
    pub fn conserves_tenants(&self) -> bool {
        self.admitted + self.denied + self.queued + self.failed_recovered == self.arrived
    }
}

/// Replays an arrival stream against one machine: admission control, cluster
/// resizing, exact service accounting and SLO collection. Purely
/// single-threaded per storm — all parallelism lives in the grid above it.
#[derive(Debug)]
pub struct TenancyStorm<'a> {
    config: &'a StormConfig,
    policy: AdmissionPolicy,
    faults: Option<(&'a FaultSchedule, FaultArch)>,
}

impl<'a> TenancyStorm<'a> {
    /// Creates a storm for one (policy, config) combination.
    pub fn new(config: &'a StormConfig, policy: AdmissionPolicy) -> Self {
        TenancyStorm { config, policy, faults: None }
    }

    /// Creates a storm that replays `schedule` against the tenant stream,
    /// responding with `arch`'s degradation discipline. An empty schedule is
    /// inert: the storm is byte-identical to a fault-free [`TenancyStorm::new`]
    /// run with the same seed.
    pub fn with_faults(
        config: &'a StormConfig,
        policy: AdmissionPolicy,
        schedule: &'a FaultSchedule,
        arch: FaultArch,
    ) -> Self {
        TenancyStorm { config, policy, faults: Some((schedule, arch)) }
    }

    /// Runs the storm on `machine` (recycled to pristine first) with the
    /// given seed. Every event — arrival order, admission decisions, service
    /// completion, reconfiguration stalls — is a pure function of the seed
    /// and parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`ClusterError`] if a cluster shape is rejected (cannot
    /// happen for row-quantised shapes on the shipped geometries).
    ///
    /// # Panics
    ///
    /// Panics if the machine is too small to host one secure row plus the
    /// host reserve.
    pub fn run(&self, machine: &mut Machine, seed: u64) -> Result<StormReport, ClusterError> {
        machine.reset_pristine();
        let total = machine.config().cores();
        let width = machine.config().mesh_width;
        let reserve = self.config.host_reserve_cores.max(width);
        assert!(
            total > reserve + width,
            "machine of {total} cores cannot host a secure row plus a {reserve}-core reserve"
        );
        // The secure cluster is quantised to whole mesh rows so every shape
        // keeps its memory-controller attachment points inside the cluster
        // (the containment rule `ClusterMap` verifies).
        let capacity = total - reserve;
        let min_shape = width;
        let max_shape = capacity - capacity % width;

        let secure = machine.create_process("tenants", SecurityClass::Secure);
        let host = machine.create_process("host", SecurityClass::Insecure);
        let mut kernel = SecureKernel::new();
        let (mut manager, _) = ClusterManager::form(machine, secure, host, min_shape)?;
        let mut shape = min_shape;

        let generator = ArrivalGenerator::new(
            self.config.mean_interarrival_cycles,
            self.config.mean_service_scale,
            self.config.profiles.clone(),
        );
        let arrivals = generator.draw(seed, self.config.tenants);

        let mut now = 0u64;
        let mut next_arrival = 0usize;
        let mut active: Vec<ActiveTenant> = Vec::new();
        let mut fifo: Vec<Arrival> = Vec::new();
        let mut slo = SloAccount::new();
        let mut admitted = 0u64;
        let mut denied = 0u64;
        let mut attested = 0u64;

        // Fault-injection state. All of it is inert (and costs nothing on the
        // hot path) when the storm runs without a schedule or the schedule is
        // empty, which is what keeps fault-free storms byte-identical to the
        // pinned golden checksums.
        let audited = self.faults.is_none_or(|(_, arch)| arch.audited());
        let mut fault_cursor = 0usize;
        let mut effective_capacity = capacity;
        let mut failed_recovered = 0u64;
        let mut faults_injected = 0u64;
        let mut quarantined_tiles = 0u64;
        let mut backoff_retries = 0u64;
        let mut dropped_recovered = 0u64;
        // Tenants evicted by a tile failure and parked in the FIFO: their
        // eventual admission counts as a recovery, not a fresh admission.
        let mut evicted_ids: Vec<u64> = Vec::new();
        let drop_fault_installed = match self.faults {
            Some((schedule, _))
                if schedule.config().kind == FaultKind::DroppedScrub
                    && schedule.config().rate_per_mille > 0 =>
            {
                machine.set_scrub_drop_fault(schedule.seed(), schedule.config().rate_per_mille);
                true
            }
            _ => false,
        };

        loop {
            // Earliest completion among active tenants; ties broken by
            // arrival order for determinism.
            let completion = active
                .iter()
                .enumerate()
                .map(|(i, t)| (now + t.remaining_units.div_ceil(t.granted as u64), t.tenant, i))
                .min();
            let arrival_cycle = arrivals.get(next_arrival).map(|a| a.at_cycle.max(now));
            let (event_cycle, is_completion) = match (&completion, arrival_cycle) {
                (Some((finish, _, _)), Some(at)) => {
                    // A completion at the same cycle as an arrival settles
                    // first, so the departing tenant's cores are free for
                    // the admission decision.
                    if *finish <= at {
                        (*finish, true)
                    } else {
                        (at, false)
                    }
                }
                (Some((finish, _, _)), None) => (*finish, true),
                (None, Some(at)) => (at, false),
                (None, None) => break,
            };

            // Advance exact service accounting to the event cycle.
            let dt = event_cycle - now;
            if dt > 0 {
                for t in &mut active {
                    let progress = (t.granted as u64).saturating_mul(dt);
                    t.remaining_units = t.remaining_units.saturating_sub(progress);
                }
                now = event_cycle;
            }

            if is_completion {
                let idx = completion.expect("completion event has a tenant").2;
                let done = active.remove(idx);
                slo.record_completion(now.saturating_sub(done.arrived_at));
                // Departures admit queued tenants strictly FIFO.
                while let Some(front) = fifo.first() {
                    let used: usize = active.iter().map(|t| t.granted).sum();
                    if used + front.demand_cores > effective_capacity {
                        break;
                    }
                    let a = fifo.remove(0);
                    if let Some(pos) = evicted_ids.iter().position(|t| *t == a.tenant) {
                        evicted_ids.swap_remove(pos);
                        failed_recovered += 1;
                    } else {
                        admitted += 1;
                    }
                    self.admit(machine, secure, &a, &mut active);
                }
            } else {
                let a = arrivals[next_arrival].clone();
                next_arrival += 1;

                // Fire every scheduled fault pinned to this arrival index.
                // All fault handling is a pure function of the cell seed, so
                // the storm stays replayable at any thread count.
                if let Some((schedule, arch)) = self.faults {
                    let events = schedule.events();
                    while fault_cursor < events.len()
                        && events[fault_cursor].at_event < next_arrival as u64
                    {
                        let ev = events[fault_cursor];
                        fault_cursor += 1;
                        match schedule.config().kind {
                            FaultKind::TileFailure => {
                                faults_injected += 1;
                                let node = NodeId(ev.target % total);
                                // A quarantine that would exhaust a cluster is
                                // refused and the tile limps on in service.
                                if let Ok(stall) = manager.quarantine(machine, secure, host, node) {
                                    if stall > 0 {
                                        quarantined_tiles += 1;
                                        effective_capacity = effective_capacity.saturating_sub(1);
                                        slo.record_stall(stall);
                                        now = now.saturating_add(stall);
                                        // The repair window this failure
                                        // opens; re-admission retries back
                                        // off until it closes.
                                        let degraded_until =
                                            now.saturating_add(schedule.config().repair_cycles);
                                        if !active.is_empty() {
                                            let idx = ev.target % active.len();
                                            let victim = active.remove(idx);
                                            admitted -= 1;
                                            if arch.audited() {
                                                // Retry against degraded
                                                // capacity with bounded
                                                // exponential backoff, charged
                                                // as simulated stall cycles.
                                                let backoff = schedule.config().backoff;
                                                let mut attempt = 0u32;
                                                while now < degraded_until
                                                    && attempt < backoff.max_attempts
                                                {
                                                    let delay = backoff.delay(attempt);
                                                    attempt += 1;
                                                    backoff_retries += 1;
                                                    slo.record_stall(delay);
                                                    now = now.saturating_add(delay);
                                                }
                                                let used: usize =
                                                    active.iter().map(|t| t.granted).sum();
                                                if now >= degraded_until
                                                    && used + victim.granted <= effective_capacity
                                                {
                                                    failed_recovered += 1;
                                                    active.push(victim);
                                                } else {
                                                    match self.policy {
                                                        AdmissionPolicy::Deny => denied += 1,
                                                        AdmissionPolicy::Queue => {
                                                            evicted_ids.push(victim.tenant);
                                                            fifo.push(Arrival {
                                                                tenant: victim.tenant,
                                                                at_cycle: victim.arrived_at,
                                                                profile: 0,
                                                                demand_cores: victim.granted,
                                                                service_units: victim
                                                                    .remaining_units
                                                                    .max(1),
                                                            });
                                                        }
                                                        AdmissionPolicy::ShrinkNeighbours => {
                                                            if shrink_neighbours(
                                                                &mut active,
                                                                victim.granted,
                                                                effective_capacity,
                                                            ) {
                                                                failed_recovered += 1;
                                                                active.push(victim);
                                                            } else {
                                                                denied += 1;
                                                            }
                                                        }
                                                    }
                                                }
                                            } else {
                                                // Unaudited discipline fails
                                                // open: the tenant vanishes
                                                // and is billed as denied so
                                                // conservation still holds.
                                                denied += 1;
                                            }
                                        }
                                    }
                                }
                            }
                            FaultKind::LinkDegradation => {
                                faults_injected += 1;
                                let from = ev.target % total;
                                let to = if from % width + 1 < width {
                                    from + 1
                                } else {
                                    from.saturating_sub(1)
                                };
                                if from != to {
                                    let penalty = schedule.config().magnitude;
                                    for (a, b) in [(from, to), (to, from)] {
                                        machine
                                            .set_link_fault(NodeId(a), NodeId(b), penalty)
                                            .expect("neighbouring tiles share a link");
                                    }
                                }
                            }
                            FaultKind::ControllerStall => {
                                faults_injected += 1;
                                let controllers = machine.config().controllers;
                                machine.set_controller_fault_stall(
                                    ev.target % controllers.max(1),
                                    schedule.config().magnitude,
                                );
                            }
                            // Continuous fault: installed before the loop,
                            // audited after every reconfiguration below.
                            FaultKind::DroppedScrub => {}
                        }
                    }
                }

                // One tenant = one attested allocation: measurement-based
                // attestation happens before any admission decision.
                let image =
                    format!("tenant:{}:{}", a.tenant, self.config.profiles[a.profile].label);
                let pid = ironhide_sim::process::ProcessId(1000 + a.tenant as usize);
                kernel.attest(pid, image.as_bytes(), AppDomain(a.tenant)).expect("tenant attests");
                attested += 1;

                let demand = a.demand_cores.min(effective_capacity);
                let used: usize = active.iter().map(|t| t.granted).sum();
                if used + demand <= effective_capacity {
                    admitted += 1;
                    self.admit(machine, secure, &a, &mut active);
                } else {
                    match self.policy {
                        AdmissionPolicy::Deny => denied += 1,
                        AdmissionPolicy::Queue => fifo.push(a),
                        AdmissionPolicy::ShrinkNeighbours => {
                            if shrink_neighbours(&mut active, demand, effective_capacity) {
                                admitted += 1;
                                self.admit(machine, secure, &a, &mut active);
                            } else {
                                denied += 1;
                            }
                        }
                    }
                }
            }

            // Resize the secure cluster to the new row-quantised shape; the
            // stall freezes every tenant (their service clocks do not
            // advance while the machine is stalled, so stalls surface in the
            // completion tails).
            let used: usize = active.iter().map(|t| t.granted).sum();
            let new_shape = (used.max(1).div_ceil(width) * width).clamp(min_shape, max_shape);
            if new_shape != shape {
                // Degraded-capacity reconfiguration: shrink the request
                // toward what the healthy tiles can host, with bounded
                // exponential backoff between attempts. Exhausting the
                // attempts keeps the previous shape. With no tile
                // quarantined every storm shape fits, so the first attempt
                // succeeds.
                let backoff = self
                    .faults
                    .map_or_else(BackoffPolicy::default, |(schedule, _)| schedule.config().backoff);
                let mut attempt = 0u32;
                let mut request = new_shape;
                loop {
                    match manager.reconfigure_degraded(machine, secure, host, request) {
                        Ok(stall) => {
                            shape = request;
                            slo.record_stall(stall);
                            now = now.saturating_add(stall);
                            break;
                        }
                        Err(ReconfigError::Cluster(error)) => return Err(error),
                        Err(_) if attempt < backoff.max_attempts => {
                            let delay = backoff.delay(attempt);
                            attempt += 1;
                            backoff_retries += 1;
                            slo.record_stall(delay);
                            now = now.saturating_add(delay);
                            let healthy = total - manager.quarantined().len();
                            let healthy_shape =
                                (healthy.saturating_sub(1) / width * width).max(min_shape);
                            request = request.min(healthy_shape);
                        }
                        Err(_) => break,
                    }
                }
            }

            // Scrub audit: detect dropped purge traffic and replay it to a
            // clean state before any tenant can observe the residue. The
            // unaudited discipline skips this — that is exactly the negative
            // control the fault-window attack pins OPEN.
            if drop_fault_installed && audited {
                let recovered = machine.recover_dropped_scrubs();
                dropped_recovered += recovered;
                if recovered > 0 {
                    let cost = recovered.saturating_mul(machine.config().latency.rehome_page);
                    slo.record_stall(cost);
                    now = now.saturating_add(cost);
                }
            }
        }

        let mut dropped_unrecovered = 0u64;
        if drop_fault_installed {
            if audited {
                dropped_recovered += machine.recover_dropped_scrubs();
            }
            dropped_unrecovered = machine.clear_scrub_drop_fault() as u64;
        }

        Ok(StormReport {
            arrived: arrivals.len() as u64,
            admitted,
            denied,
            queued: fifo.len() as u64,
            attested,
            slo,
            reconfigurations: manager.reconfigurations(),
            pages_rehomed: machine.stats().pages_rehomed,
            final_cycle: now,
            failed_recovered,
            faults_injected,
            quarantined_tiles,
            backoff_retries,
            dropped_scrubs_recovered: dropped_recovered,
            dropped_scrubs_unrecovered: dropped_unrecovered,
        })
    }

    /// Grants the arrival its cores and touches its working set through the
    /// shared secure process (four pages per granted core, at a
    /// tenant-unique base), so reconfigurations have real pages to re-home.
    fn admit(
        &self,
        machine: &mut Machine,
        secure: ironhide_sim::process::ProcessId,
        arrival: &Arrival,
        active: &mut Vec<ActiveTenant>,
    ) {
        let granted = arrival.demand_cores;
        let base = (arrival.tenant + 1) << 26;
        let page = machine.page_bytes();
        for p in 0..(granted as u64 * 4) {
            machine.access(NodeId(0), secure, base + p * page, p % 2 == 0);
        }
        active.push(ActiveTenant {
            tenant: arrival.tenant,
            arrived_at: arrival.at_cycle,
            granted,
            remaining_units: arrival.service_units,
        });
    }
}

/// Shrinks active tenants' grants (proportionally over their shrinkable
/// surplus, floor one core each, deterministic remainder in list order) so a
/// newcomer demanding `demand` cores fits into `capacity`. Returns whether
/// the shrink succeeded; on failure nothing is modified.
fn shrink_neighbours(active: &mut [ActiveTenant], demand: usize, capacity: usize) -> bool {
    let used: usize = active.iter().map(|t| t.granted).sum();
    let free = capacity.saturating_sub(used);
    let need = demand.saturating_sub(free);
    if need == 0 {
        return true;
    }
    let shrinkable: usize = active.iter().map(|t| t.granted - 1).sum();
    if shrinkable < need {
        return false;
    }
    // Proportional floor share of the need, then hand out the remainder one
    // core at a time in list (admission) order.
    let mut taken = 0usize;
    for t in active.iter_mut() {
        let cut = need * (t.granted - 1) / shrinkable;
        t.granted -= cut;
        taken += cut;
    }
    let mut i = 0usize;
    while taken < need {
        if active[i].granted > 1 {
            active[i].granted -= 1;
            taken += 1;
        }
        i = (i + 1) % active.len();
    }
    true
}

// ---------------------------------------------------------------------------
// Tenancy grid and matrix
// ---------------------------------------------------------------------------

/// One load point of the tenancy grid: a label (feeds seed derivation) plus
/// the storm parameters it runs with.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    label: String,
    /// Storm parameters for this load.
    pub config: StormConfig,
}

impl LoadPoint {
    /// Creates a load point.
    pub fn new(label: impl Into<String>, config: StormConfig) -> Self {
        LoadPoint { label: label.into(), config }
    }

    /// The load's display label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// The {policy × load} tenancy grid swept by [`SweepRunner::run_tenancy`].
#[derive(Debug, Clone, Default)]
pub struct TenancyGrid {
    /// Admission policies to sweep.
    pub policies: Vec<AdmissionPolicy>,
    /// Load points to sweep.
    pub loads: Vec<LoadPoint>,
}

impl TenancyGrid {
    /// Creates an empty grid.
    pub fn new() -> Self {
        TenancyGrid::default()
    }

    /// Adds an admission policy.
    pub fn with_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.policies.push(policy);
        self
    }

    /// Adds a load point.
    pub fn with_load(mut self, load: LoadPoint) -> Self {
        self.loads.push(load);
        self
    }

    /// Number of cells the grid expands to.
    pub fn len(&self) -> usize {
        self.policies.len() * self.loads.len()
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonical cell expansion: load-major, then policy (mirrors the
    /// other grids' single source of truth for ordering).
    fn expanded(&self) -> Vec<(TenancyCellKey, &LoadPoint)> {
        let mut cells = Vec::with_capacity(self.len());
        for load in &self.loads {
            for policy in &self.policies {
                let key = TenancyCellKey { policy: *policy, load: load.label.clone() };
                cells.push((key, load));
            }
        }
        cells
    }

    /// The cell keys in canonical order.
    pub fn keys(&self) -> Vec<TenancyCellKey> {
        self.expanded().into_iter().map(|(k, _)| k).collect()
    }
}

/// Identity of one tenancy cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenancyCellKey {
    /// Admission policy.
    pub policy: AdmissionPolicy,
    /// Load-point label.
    pub load: String,
}

impl fmt::Display for TenancyCellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The "tenancy" prefix namespaces tenancy-cell seeds away from the
        // performance and attack grids'.
        write!(f, "tenancy | {} | {}", self.policy, self.load)
    }
}

/// A tenancy-sweep failure.
pub type TenancySweepError = CellError<TenancyCellKey, ClusterError>;

/// One completed tenancy cell.
#[derive(Debug, Clone)]
pub struct TenancyCell {
    /// The cell's identity.
    pub key: TenancyCellKey,
    /// The seed the storm ran with.
    pub seed: u64,
    /// The storm's outcome.
    pub report: StormReport,
}

/// The completed tenancy grid, in canonical order (load-major, then policy).
pub type TenancyMatrix = Matrix<TenancyCell>;

impl TenancyMatrix {
    /// Looks up one cell.
    pub fn get(&self, policy: AdmissionPolicy, load: &str) -> Option<&TenancyCell> {
        self.cells.iter().find(|c| c.key.policy == policy && c.key.load == load)
    }

    /// FNV-1a over every cell's SLO checksum, in grid order — the single
    /// number `tests/pins.rs` pins for the whole matrix.
    pub fn checksum(&self) -> u64 {
        fnv1a(self.cells.iter().flat_map(|cell| cell.report.slo.checksum().to_le_bytes()))
    }
}

impl MatrixRow for TenancyCell {
    fn write_json(&self, out: &mut String) {
        let r = &self.report;
        json_fields!(out, {
            "policy": json_string(out, self.key.policy.label()),
            "load": json_string(out, &self.key.load),
            "seed": out.push_str(&self.seed.to_string()),
            "arrived": out.push_str(&r.arrived.to_string()),
            "admitted": out.push_str(&r.admitted.to_string()),
            "denied": out.push_str(&r.denied.to_string()),
            "queued": out.push_str(&r.queued.to_string()),
            "attested": out.push_str(&r.attested.to_string()),
            "completions": out.push_str(&r.slo.completions().to_string()),
            "completion_p50_cycles": out.push_str(&r.slo.completion_percentile(1, 2).to_string()),
            "completion_p99_cycles": out.push_str(&r.slo.completion_percentile(99, 100).to_string()),
            "completion_p999_cycles": out.push_str(&r.slo.completion_percentile(999, 1000).to_string()),
            "stall_p50_cycles": out.push_str(&r.slo.stall_percentile(1, 2).to_string()),
            "stall_p99_cycles": out.push_str(&r.slo.stall_percentile(99, 100).to_string()),
            "stall_p999_cycles": out.push_str(&r.slo.stall_percentile(999, 1000).to_string()),
            "stall_max_cycles": out.push_str(&r.slo.stall_max().to_string()),
            "total_stall_cycles": out.push_str(&r.slo.total_stall_cycles().to_string()),
            "reconfigurations": out.push_str(&r.reconfigurations.to_string()),
            "pages_rehomed": out.push_str(&r.pages_rehomed.to_string()),
            "final_cycle": out.push_str(&r.final_cycle.to_string()),
            "slo_checksum": out.push_str(&r.slo.checksum().to_string()),
        });
    }
}

impl SweepRunner {
    /// Runs every cell of the tenancy `grid` in parallel and collects the
    /// reports in grid order, under the same determinism contract as the
    /// performance and attack sweeps: the serialised [`TenancyMatrix`] is
    /// byte-identical at any thread count because each cell's storm depends
    /// only on its derived seed.
    ///
    /// # Errors
    ///
    /// Returns the first (in grid order) [`TenancySweepError`] if any cell
    /// fails; partial results are discarded.
    pub fn run_tenancy(&self, grid: &TenancyGrid) -> Result<TenancyMatrix, TenancySweepError> {
        self.run_grid(grid.expanded(), |key, load, seed, slot| {
            let machine = slot.get_or_insert_with(|| Machine::new(self.machine_config().clone()));
            let report = TenancyStorm::new(&load.config, key.policy).run(machine, seed)?;
            Ok(TenancyCell { key: key.clone(), seed, report })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironhide_sim::config::MachineConfig;

    fn test_profiles() -> Vec<TenantProfile> {
        vec![
            TenantProfile::new("small", 4, 40_000),
            TenantProfile::new("medium", 12, 120_000),
            TenantProfile::new("large", 24, 250_000),
        ]
    }

    fn test_config() -> StormConfig {
        StormConfig {
            tenants: 40,
            mean_interarrival_cycles: 30_000,
            mean_service_scale: 1,
            host_reserve_cores: 8,
            profiles: test_profiles(),
        }
    }

    fn test_grid() -> TenancyGrid {
        let mut grid = TenancyGrid::new().with_load(LoadPoint::new("Smoke", test_config()));
        for policy in AdmissionPolicy::ALL {
            grid = grid.with_policy(policy);
        }
        grid
    }

    #[test]
    fn arrival_stream_is_seed_deterministic_and_monotonic() {
        let generator = ArrivalGenerator::new(10_000, 1, test_profiles());
        let a = generator.draw(7, 100);
        let b = generator.draw(7, 100);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at_cycle <= w[1].at_cycle));
        assert!(a.iter().all(|x| x.service_units >= 1));
        let c = generator.draw(8, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn percentiles_follow_the_nearest_rank_rule() {
        let mut slo = SloAccount::new();
        for v in [50u64, 10, 40, 30, 20] {
            slo.record_completion(v);
        }
        assert_eq!(slo.completion_percentile(1, 2), 30);
        assert_eq!(slo.completion_percentile(99, 100), 50);
        assert_eq!(slo.completion_percentile(999, 1000), 50);
        assert_eq!(SloAccount::new().completion_percentile(1, 2), 0);
    }

    #[test]
    fn shrink_takes_proportionally_and_respects_the_floor() {
        let mut active = vec![
            ActiveTenant { tenant: 0, arrived_at: 0, granted: 9, remaining_units: 1 },
            ActiveTenant { tenant: 1, arrived_at: 0, granted: 5, remaining_units: 1 },
            ActiveTenant { tenant: 2, arrived_at: 0, granted: 2, remaining_units: 1 },
        ];
        assert!(shrink_neighbours(&mut active, 6, 16));
        let granted: Vec<usize> = active.iter().map(|t| t.granted).collect();
        assert_eq!(granted.iter().sum::<usize>(), 10);
        assert!(granted.iter().all(|g| *g >= 1));

        // Impossible shrink leaves the grants untouched.
        let before: Vec<usize> = active.iter().map(|t| t.granted).collect();
        assert!(!shrink_neighbours(&mut active, 16, 16));
        let after: Vec<usize> = active.iter().map(|t| t.granted).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn stall_totals_near_the_boundary_still_sum() {
        let mut slo = SloAccount::new();
        slo.record_stall(u64::MAX - 5);
        slo.record_stall(5);
        assert_eq!(slo.total_stall_cycles(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "SLO stall total overflowed u64")]
    fn stall_total_overflow_is_loud_not_wrapped() {
        let mut slo = SloAccount::new();
        slo.record_stall(u64::MAX);
        slo.record_stall(1);
        let _ = slo.total_stall_cycles();
    }

    #[test]
    fn storms_conserve_tenants_under_every_policy() {
        let config = test_config();
        let mut machine = Machine::new(MachineConfig::paper_default());
        for policy in AdmissionPolicy::ALL {
            let report =
                TenancyStorm::new(&config, policy).run(&mut machine, 11).expect("storm runs");
            assert!(report.conserves_tenants(), "{policy}: conservation violated");
            assert_eq!(report.arrived, config.tenants as u64);
            assert_eq!(report.attested, report.arrived);
            assert_eq!(report.queued, 0, "{policy}: the drain must empty the queue");
            assert_eq!(report.slo.completions() as u64, report.admitted);
            assert!(report.reconfigurations > 0, "{policy}: storm never reconfigured");
        }
    }

    #[test]
    fn deny_never_queues_and_queue_never_denies() {
        let config = test_config();
        let mut machine = Machine::new(MachineConfig::paper_default());
        let deny = TenancyStorm::new(&config, AdmissionPolicy::Deny)
            .run(&mut machine, 11)
            .expect("deny storm");
        assert!(deny.denied > 0, "test load must overflow capacity");
        let queue = TenancyStorm::new(&config, AdmissionPolicy::Queue)
            .run(&mut machine, 11)
            .expect("queue storm");
        assert_eq!(queue.denied, 0);
        assert_eq!(queue.admitted, queue.arrived);
        // Queueing serves every tenant; denying serves strictly fewer.
        assert!(deny.admitted < deny.arrived);
        assert_eq!(queue.slo.completions() as u64, queue.arrived);
    }

    #[test]
    fn tenancy_matrix_is_byte_identical_across_thread_counts() {
        let grid = test_grid();
        let baseline = SweepRunner::new(MachineConfig::paper_default())
            .with_seed(7)
            .with_threads(1)
            .run_tenancy(&grid)
            .expect("tenancy sweep")
            .to_json();
        for threads in [2usize, 4] {
            let json = SweepRunner::new(MachineConfig::paper_default())
                .with_seed(7)
                .with_threads(threads)
                .run_tenancy(&grid)
                .expect("tenancy sweep")
                .to_json();
            assert_eq!(baseline, json, "thread count {threads} changed the tenancy matrix");
        }
    }

    #[test]
    fn tenancy_seeds_are_namespaced_per_cell() {
        let runner = SweepRunner::new(MachineConfig::paper_default()).with_seed(7);
        let keys = test_grid().keys();
        let seeds: Vec<u64> = keys.iter().map(|k| runner.cell_seed(k)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "cell seeds must be distinct");
    }
}
