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

use std::collections::VecDeque;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use ironhide_mesh::NodeId;
use ironhide_sim::machine::Machine;
use ironhide_sim::process::{ProcessId, SecurityClass};

use crate::cluster::{ClusterError, ClusterManager, ReconfigError};
use crate::faults::{FaultArch, FaultKind, FaultSchedule, NO_FAULTS};
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
    /// Secure cores requested (the profile's demand).
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

/// One tenant's record inside the storm: its live state while admitted, its
/// request while it waits in the queue.
#[derive(Debug, Clone)]
struct Tenant {
    tenant: u64,
    /// Arrival cycle — completion latency is measured from here, so queueing
    /// delay and reconfiguration stalls both surface in the SLO tails.
    arrived_at: u64,
    /// Cores granted while admitted, cores demanded while queued.
    granted: usize,
    remaining_units: u64,
    /// Whether a tile failure has evicted the tenant: its next admission is
    /// a recovery, and while admitted it is counted in
    /// [`StormReport::failed_recovered`], not [`StormReport::admitted`].
    evicted: bool,
}

/// The outcome of one tenancy storm: conservation counts, SLO tails and the
/// reconfiguration bill.
///
/// Every tenant is counted in exactly one of `admitted`, `denied`, `queued`
/// and `failed_recovered`: the bucket it entered last.
#[derive(Debug, Clone, Default)]
pub struct StormReport {
    /// Tenants that arrived.
    pub arrived: u64,
    /// Tenants admitted (directly, from the queue, or after shrinking
    /// neighbours) that no tile failure has evicted since. An eviction moves
    /// the tenant out of this count, into the bucket its re-admission
    /// attempt ends in.
    pub admitted: u64,
    /// Tenants rejected.
    pub denied: u64,
    /// Tenants still waiting in the queue when the storm ended. The queue
    /// drains unless its head demands more cores than the capacity holds:
    /// the drain compares the head's full demand with the capacity, so after
    /// tile failures shrink it a large tenant at the head blocks every tenant
    /// behind it.
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
    /// through the admission machinery (0 on every fault-free run). A tenant
    /// that a later failure evicts again leaves this count.
    pub failed_recovered: u64,
    /// Injected fault events that fired during the storm.
    pub faults_injected: u64,
    /// Tiles quarantined in response to tile failures.
    pub quarantined_tiles: u64,
    /// Backoff retries charged against degraded capacity: six per evicted
    /// tenant, and up to six per refused reconfiguration.
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
    schedule: &'a FaultSchedule,
    arch: FaultArch,
}

impl<'a> TenancyStorm<'a> {
    /// Creates a fault-free storm for one (policy, config) combination: a
    /// storm over an empty fault schedule.
    pub fn new(config: &'a StormConfig, policy: AdmissionPolicy) -> Self {
        TenancyStorm::with_faults(config, policy, &NO_FAULTS, FaultArch::Ironhide)
    }

    /// Creates a storm that replays `schedule` against the tenant stream,
    /// responding with `arch`'s degradation discipline. A schedule drawn at
    /// rate 0 is inert, whatever its kind: the storm is byte-identical to
    /// the fault-free [`TenancyStorm::new`] run with the same seed.
    pub fn with_faults(
        config: &'a StormConfig,
        policy: AdmissionPolicy,
        schedule: &'a FaultSchedule,
        arch: FaultArch,
    ) -> Self {
        TenancyStorm { config, policy, schedule, arch }
    }

    /// Runs the storm on `machine` (recycled to pristine first) with the
    /// given seed. Every event — arrival order, admission decisions, service
    /// completion, reconfiguration stalls — is a pure function of the seed
    /// and parameters.
    ///
    /// # Errors
    ///
    /// [`ClusterError::EmptyCluster`] if the machine is too small to host one
    /// secure row plus the host reserve; any other [`ClusterError`] if a
    /// cluster shape is rejected (cannot happen for row-quantised shapes on
    /// the shipped geometries).
    pub fn run(&self, machine: &mut Machine, seed: u64) -> Result<StormReport, ClusterError> {
        let mut run = StormRun::start(self, machine)?;
        let arrivals = ArrivalGenerator::new(
            self.config.mean_interarrival_cycles,
            self.config.mean_service_scale,
            self.config.profiles.clone(),
        )
        .draw(seed, self.config.tenants);
        let mut next = 0;
        loop {
            let arrival_at = arrivals.get(next).map(|a| a.at_cycle.max(run.now));
            match (run.next_departure(), arrival_at) {
                // A departure at the same cycle as an arrival settles first,
                // so the departing tenant's cores are free for the admission
                // decision.
                (Some((at, index)), arrival) if arrival.is_none_or(|arrival| at <= arrival) => {
                    run.depart(at, index);
                }
                (_, Some(at)) => {
                    run.arrive(at, &arrivals[next], next as u64);
                    next += 1;
                }
                (_, None) => break,
            }
            run.resize()?;
            run.scrub_audit();
        }
        Ok(run.finish(arrivals.len()))
    }
}

/// Retry `n` (0-based) against degraded capacity waits
/// `BACKOFF_BASE_CYCLES << n` cycles.
const BACKOFF_BASE_CYCLES: u64 = 2_000;
/// Retries before a request against degraded capacity gives up.
const BACKOFF_ATTEMPTS: u32 = 6;
/// How long a tile failure leaves capacity degraded.
const REPAIR_CYCLES: u64 = 150_000;
// An evicted tenant's retries all end inside the repair window, so its
// re-admission always goes through the admission policy.
const _: () = assert!(BACKOFF_BASE_CYCLES * ((1 << BACKOFF_ATTEMPTS) - 1) < REPAIR_CYCLES);

/// One storm's state while it runs: the clock, the machine and its secure
/// cluster, the admitted tenants, the waiting queue and the report tallies.
struct StormRun<'r> {
    storm: &'r TenancyStorm<'r>,
    machine: &'r mut Machine,
    manager: ClusterManager,
    kernel: SecureKernel,
    secure: ProcessId,
    host: ProcessId,
    /// The current secure-cluster shape, in cores: always whole mesh rows,
    /// so every shape keeps its memory-controller attachment points inside
    /// the cluster (the containment rule `ClusterMap` verifies).
    shape: usize,
    /// The largest shape the host reserve leaves room for.
    max_shape: usize,
    /// Secure cores tenants may hold: the cores outside the host reserve,
    /// less one per quarantined tile.
    capacity: usize,
    now: u64,
    active: Vec<Tenant>,
    queue: VecDeque<Tenant>,
    /// The next schedule event to fire.
    fault_cursor: usize,
    /// Whether the schedule drops scrub packets (a continuous fault,
    /// installed at set-up).
    drop_fault: bool,
    report: StormReport,
}

impl<'r> StormRun<'r> {
    /// Recycles the machine and forms the smallest secure cluster, one mesh
    /// row.
    fn start(storm: &'r TenancyStorm<'r>, machine: &'r mut Machine) -> Result<Self, ClusterError> {
        let total = machine.config().cores();
        let width = machine.config().mesh_width;
        let reserve = storm.config.host_reserve_cores.max(width);
        if total <= reserve + width {
            return Err(ClusterError::EmptyCluster { requested: reserve + width, total });
        }
        machine.reset_pristine();
        let secure = machine.create_process("tenants", SecurityClass::Secure);
        let host = machine.create_process("host", SecurityClass::Insecure);
        let (manager, _) = ClusterManager::form(machine, secure, host, width)?;
        let faults = storm.schedule.config();
        let drop_fault = faults.kind == FaultKind::DroppedScrub && faults.rate_per_mille > 0;
        if drop_fault {
            machine.set_scrub_drop_fault(storm.schedule.seed(), faults.rate_per_mille);
        }
        let capacity = total - reserve;
        Ok(StormRun {
            storm,
            machine,
            manager,
            kernel: SecureKernel::new(),
            secure,
            host,
            shape: width,
            max_shape: capacity - capacity % width,
            capacity,
            now: 0,
            active: Vec::new(),
            queue: VecDeque::new(),
            fault_cursor: 0,
            drop_fault,
            report: StormReport::default(),
        })
    }

    /// Secure cores granted to admitted tenants.
    fn used(&self) -> usize {
        self.active.iter().map(|t| t.granted).sum()
    }

    /// Charges a stall: it freezes every tenant (their service clocks do not
    /// advance while the machine is stalled), so stalls surface in the
    /// completion tails.
    fn stall(&mut self, cycles: u64) {
        self.report.slo.record_stall(cycles);
        self.now = self.now.saturating_add(cycles);
    }

    /// Retry number `attempt` against degraded capacity, charged as a stall.
    fn retry(&mut self, attempt: u32) {
        self.report.backoff_retries += 1;
        self.stall(BACKOFF_BASE_CYCLES << attempt);
    }

    /// The earliest departure, as (cycle, index into the admitted tenants);
    /// ties go to the earliest arrival.
    fn next_departure(&self) -> Option<(u64, usize)> {
        self.active
            .iter()
            .enumerate()
            .map(|(i, t)| (self.now + t.remaining_units.div_ceil(t.granted as u64), t.tenant, i))
            .min()
            .map(|(at, _, i)| (at, i))
    }

    /// Advances the clock to `at`, serving every admitted tenant on its
    /// granted cores.
    fn advance(&mut self, at: u64) {
        let dt = at - self.now;
        for t in &mut self.active {
            t.remaining_units =
                t.remaining_units.saturating_sub((t.granted as u64).saturating_mul(dt));
        }
        self.now = at;
    }

    /// A tenant completes its service and leaves; the cores it frees admit
    /// queued tenants strictly FIFO.
    fn depart(&mut self, at: u64, index: usize) {
        self.advance(at);
        let done = self.active.remove(index);
        self.report.slo.record_completion(self.now.saturating_sub(done.arrived_at));
        while self.queue.front().is_some_and(|t| self.used() + t.granted <= self.capacity) {
            let tenant = self.queue.pop_front().expect("the queue has a head");
            self.admit(tenant, true);
        }
    }

    /// A tenant arrives: the faults pinned to its arrival index fire first,
    /// then the secure kernel attests it, then admission control decides.
    fn arrive(&mut self, at: u64, arrival: &Arrival, index: u64) {
        self.advance(at);
        let schedule = self.storm.schedule;
        while let Some(event) =
            schedule.events().get(self.fault_cursor).filter(|e| e.at_event <= index)
        {
            self.fault_cursor += 1;
            self.fault(event.target);
        }
        // One tenant = one attested allocation: measurement-based
        // attestation happens before any admission decision.
        let label = &self.storm.config.profiles[arrival.profile].label;
        let image = format!("tenant:{}:{label}", arrival.tenant);
        let pid = ProcessId(1000 + arrival.tenant as usize);
        self.kernel
            .attest(pid, image.as_bytes(), AppDomain(arrival.tenant))
            .expect("tenant attests");
        self.report.attested += 1;
        self.request(Tenant {
            tenant: arrival.tenant,
            arrived_at: arrival.at_cycle,
            granted: arrival.demand_cores,
            remaining_units: arrival.service_units,
            evicted: false,
        });
    }

    /// One scheduled fault fires on the tile draw `target`. All fault
    /// handling is a pure function of the cell seed, so the storm stays
    /// replayable at any thread count.
    fn fault(&mut self, target: usize) {
        self.report.faults_injected += 1;
        let config = self.machine.config();
        let (total, width, controllers) = (config.cores(), config.mesh_width, config.controllers);
        let kind = self.storm.schedule.config().kind;
        match kind {
            FaultKind::TileFailure => self.tile_failure(NodeId(target % total), target),
            FaultKind::LinkDegradation => {
                let from = target % total;
                let to = if from % width + 1 < width { from + 1 } else { from.saturating_sub(1) };
                if from != to {
                    for (a, b) in [(from, to), (to, from)] {
                        self.machine
                            .set_link_fault(NodeId(a), NodeId(b), kind.magnitude())
                            .expect("neighbouring tiles share a link");
                    }
                }
            }
            FaultKind::ControllerStall => self
                .machine
                .set_controller_fault_stall(target % controllers.max(1), kind.magnitude()),
            // A continuous fault schedules no events: it is installed at
            // set-up and audited after every reconfiguration.
            FaultKind::DroppedScrub => {}
        }
    }

    /// A tile dies: it is quarantined, capacity shrinks by one core, and the
    /// tenant the fault's draw picks is evicted. The audited discipline
    /// retries against the degraded capacity and then hands the evictee to
    /// the admission policy; the unaudited one fails open, and the tenant
    /// vanishes, billed as denied so conservation still holds.
    fn tile_failure(&mut self, node: NodeId, target: usize) {
        // A quarantine that would exhaust a cluster is refused and the tile
        // limps on in service; a tile already in quarantine costs nothing.
        let stall = match self.manager.quarantine(self.machine, self.secure, self.host, node) {
            Ok(stall) if stall > 0 => stall,
            _ => return,
        };
        self.report.quarantined_tiles += 1;
        self.capacity = self.capacity.saturating_sub(1);
        self.stall(stall);
        if self.active.is_empty() {
            return;
        }
        let mut victim = self.active.remove(target % self.active.len());
        if victim.evicted {
            self.report.failed_recovered -= 1;
        } else {
            self.report.admitted -= 1;
        }
        victim.evicted = true;
        if self.storm.arch.audited() {
            for attempt in 0..BACKOFF_ATTEMPTS {
                self.retry(attempt);
            }
            self.request(victim);
        } else {
            self.report.denied += 1;
        }
    }

    /// Admission control for a tenant that is not running: an arrival, or an
    /// evictee. An arrival is tested at no more than the whole capacity but
    /// granted (or queued at) its full demand; an evictee skips the direct
    /// fit test and goes straight to the policy.
    fn request(&mut self, tenant: Tenant) {
        let demand = if tenant.evicted {
            tenant.granted
        } else {
            let demand = tenant.granted.min(self.capacity);
            if self.used() + demand <= self.capacity {
                return self.admit(tenant, true);
            }
            demand
        };
        match self.storm.policy {
            AdmissionPolicy::Deny => self.report.denied += 1,
            AdmissionPolicy::Queue => self.queue.push_back(tenant),
            AdmissionPolicy::ShrinkNeighbours => {
                if shrink_neighbours(&mut self.active, demand, self.capacity) {
                    // An evictee keeps the pages it already touched.
                    let touch = !tenant.evicted;
                    self.admit(tenant, touch);
                } else {
                    self.report.denied += 1;
                }
            }
        }
    }

    /// Grants the tenant its cores, counting it in the bucket it enters. With
    /// `touch`, the tenant touches its working set through the shared secure
    /// process (four pages per granted core, at a tenant-unique base), so
    /// reconfigurations have real pages to re-home.
    fn admit(&mut self, tenant: Tenant, touch: bool) {
        if tenant.evicted {
            self.report.failed_recovered += 1;
        } else {
            self.report.admitted += 1;
        }
        if touch {
            let base = (tenant.tenant + 1) << 26;
            let page = self.machine.page_bytes();
            for p in 0..(tenant.granted as u64 * 4) {
                self.machine.access(NodeId(0), self.secure, base + p * page, p % 2 == 0);
            }
        }
        self.active.push(tenant);
    }

    /// Resizes the secure cluster to the row-quantised shape the admitted
    /// tenants need. A request that degraded capacity refuses is retried,
    /// shrunk toward what the healthy tiles can host; once the retries run
    /// out the previous shape stays. With no tile quarantined every storm
    /// shape fits, so the first attempt succeeds.
    fn resize(&mut self) -> Result<(), ClusterError> {
        let (total, width) = (self.machine.config().cores(), self.machine.config().mesh_width);
        let mut request = (self.used().max(1).div_ceil(width) * width).clamp(width, self.max_shape);
        if request == self.shape {
            return Ok(());
        }
        for attempt in 0..=BACKOFF_ATTEMPTS {
            match self.manager.reconfigure_degraded(self.machine, self.secure, self.host, request) {
                Ok(stall) => {
                    self.shape = request;
                    self.stall(stall);
                    break;
                }
                Err(ReconfigError::Cluster(error)) => return Err(error),
                Err(_) if attempt < BACKOFF_ATTEMPTS => {
                    self.retry(attempt);
                    let healthy = total - self.manager.quarantined().len();
                    request = request.min((healthy.saturating_sub(1) / width * width).max(width));
                }
                Err(_) => {}
            }
        }
        Ok(())
    }

    /// The scrub audit: detects dropped purge traffic and replays it to a
    /// clean state before any tenant can observe the residue, charging the
    /// replay as a stall. The unaudited discipline skips it — exactly the
    /// negative control the fault-window attack pins OPEN.
    fn scrub_audit(&mut self) {
        if !self.drop_fault || !self.storm.arch.audited() {
            return;
        }
        let recovered = self.machine.recover_dropped_scrubs();
        self.report.dropped_scrubs_recovered += recovered;
        if recovered > 0 {
            self.stall(recovered.saturating_mul(self.machine.config().latency.rehome_page));
        }
    }

    /// Lifts the scrub-drop fault, counting what it left unrecovered, and
    /// closes the report.
    fn finish(self, arrived: usize) -> StormReport {
        let unrecovered = if self.drop_fault { self.machine.clear_scrub_drop_fault() } else { 0 };
        StormReport {
            arrived: arrived as u64,
            queued: self.queue.len() as u64,
            reconfigurations: self.manager.reconfigurations(),
            pages_rehomed: self.machine.stats().pages_rehomed,
            final_cycle: self.now,
            dropped_scrubs_unrecovered: unrecovered as u64,
            ..self.report
        }
    }
}

/// Shrinks active tenants' grants (proportionally over their shrinkable
/// surplus, floor one core each, deterministic remainder in list order) so a
/// newcomer demanding `demand` cores fits into `capacity`. Returns whether
/// the shrink succeeded; on failure nothing is modified.
fn shrink_neighbours(active: &mut [Tenant], demand: usize, capacity: usize) -> bool {
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
            Tenant { tenant: 0, arrived_at: 0, granted: 9, remaining_units: 1, evicted: false },
            Tenant { tenant: 1, arrived_at: 0, granted: 5, remaining_units: 1, evicted: false },
            Tenant { tenant: 2, arrived_at: 0, granted: 2, remaining_units: 1, evicted: false },
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
    fn evictions_wait_out_six_doubling_retries() {
        let config = test_config();
        let mut machine = Machine::new(MachineConfig::paper_default());
        let storm = TenancyStorm::new(&config, AdmissionPolicy::Queue);
        let mut run = StormRun::start(&storm, &mut machine).expect("storm starts");
        for attempt in 0..BACKOFF_ATTEMPTS {
            run.retry(attempt);
        }
        let slo = &run.report.slo;
        assert_eq!((run.now, run.report.backoff_retries), (126_000, 6));
        assert_eq!((slo.stall_percentile(1, 6), slo.stall_max()), (2_000, 64_000));
        assert!(run.now < REPAIR_CYCLES);

        // A tile failure evicts the one admitted tenant, charges the six
        // retries after the quarantine's stall and hands the tenant to the
        // policy, out of the `admitted` bucket.
        for policy in AdmissionPolicy::ALL {
            let storm = TenancyStorm::new(&config, policy);
            let mut run = StormRun::start(&storm, &mut machine).expect("storm starts");
            let tenant = Tenant {
                tenant: 0,
                arrived_at: 0,
                granted: 4,
                remaining_units: 100,
                evicted: false,
            };
            run.admit(tenant, true);
            run.tile_failure(NodeId(63), 0);
            let r = &run.report;
            assert_eq!((r.quarantined_tiles, r.backoff_retries, r.slo.stalls()), (1, 6, 7));
            assert_eq!(run.now, r.slo.total_stall_cycles());
            assert!(run.now > 126_000, "{policy}: the quarantine stalled");
            assert_eq!(r.admitted, 0, "{policy}");
            let evictee = match policy {
                AdmissionPolicy::Deny => {
                    assert_eq!(r.denied, 1);
                    None
                }
                AdmissionPolicy::Queue => run.queue.front(),
                AdmissionPolicy::ShrinkNeighbours => {
                    assert_eq!(r.failed_recovered, 1);
                    run.active.first()
                }
            };
            assert!(evictee.is_none_or(|t| t.evicted), "{policy}: the evictee is marked");
        }
    }

    #[test]
    fn machines_without_room_for_a_secure_row_are_refused() {
        let config = test_config();
        for machine_config in [MachineConfig::small_test(), MachineConfig::attack_testbench()] {
            let total = machine_config.cores();
            let requested = config.host_reserve_cores + machine_config.mesh_width;
            let mut machine = Machine::new(machine_config);
            for policy in AdmissionPolicy::ALL {
                let error = TenancyStorm::new(&config, policy)
                    .run(&mut machine, 11)
                    .expect_err("the machine is too small");
                assert_eq!(error, ClusterError::EmptyCluster { requested, total });
            }
        }
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
