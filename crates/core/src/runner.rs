//! The experiment driver.
//!
//! [`ExperimentRunner`] executes one interactive application on a freshly
//! built machine under a chosen [`Architecture`] and produces the
//! [`CompletionReport`] the figure benches consume: the completion-time
//! breakdown of Figure 6 (compute vs. enclave/purge overhead, plus the number
//! of secure-cluster cores), the cache miss rates of Figure 7 and the
//! isolation summary used to argue that no run violated strong isolation.

use std::fmt;

use ironhide_mesh::{ClusterId, NodeId};
use ironhide_sim::config::MachineConfig;
use ironhide_sim::machine::Machine;
use ironhide_sim::process::{ProcessId, SecurityClass};

use crate::app::{Interaction, InteractiveApp, ProcessProfile, RefRun, RefStream, WorkUnit};
use crate::arch::{ArchParams, Architecture};
use crate::boundary::{boundary_cost, place};
use crate::cluster::{ClusterError, ClusterManager};
use crate::ipc::SharedIpcBuffer;
use crate::isolation::{IsolationAuditor, IsolationSummary};
use crate::kernel::{AppDomain, AttestationError, SecureKernel};
use crate::realloc::ReallocPolicy;
use crate::speccheck::SpeculativeAccessCheck;

/// Errors produced while running an experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Cluster formation or reconfiguration failed.
    Cluster(ClusterError),
    /// The secure process failed attestation.
    Attestation(AttestationError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Cluster(e) => write!(f, "cluster error: {e}"),
            RunError::Attestation(e) => write!(f, "attestation error: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ClusterError> for RunError {
    fn from(e: ClusterError) -> Self {
        RunError::Cluster(e)
    }
}

impl From<AttestationError> for RunError {
    fn from(e: AttestationError) -> Self {
        RunError::Attestation(e)
    }
}

/// The outcome of running one interactive application under one architecture.
#[derive(Debug, Clone)]
pub struct CompletionReport {
    /// Application name.
    pub app: String,
    /// Architecture the application ran under.
    pub arch: Architecture,
    /// Total completion cycles (compute + overhead + reconfiguration).
    pub total_cycles: u64,
    /// Cycles spent executing the processes (including their memory time and
    /// the IPC transfers).
    pub compute_cycles: u64,
    /// Cycles spent on enclave entry/exit costs and microarchitecture state
    /// purging.
    pub overhead_cycles: u64,
    /// One-time cluster formation / reconfiguration cycles (IRONHIDE only).
    pub reconfig_cycles: u64,
    /// Interaction events executed in the measured phase.
    pub interactions: u64,
    /// Cores allocated to the secure cluster (equals the machine size for the
    /// temporally shared architectures).
    pub secure_cores: usize,
    /// Private L1 miss rate over both processes (Figure 7a).
    pub l1_miss_rate: f64,
    /// Shared L2 miss rate over both processes (Figure 7b).
    pub l2_miss_rate: f64,
    /// Strong-isolation audit results.
    pub isolation: IsolationSummary,
    /// Clock frequency used for time conversion, in GHz.
    pub clock_ghz: f64,
    /// Total simulated memory accesses across *every* phase of the run —
    /// predictor probes, warm-up/reconfiguration and the measured phase —
    /// not just the measured phase the `machine` snapshot covers (whose
    /// counters are reset at the measured-phase boundary). Every one of
    /// these accesses is a full simulation through the same hot path, so
    /// this is the honest denominator for simulator-throughput metrics.
    /// Deliberately absent from the serialised report: the JSON schema is
    /// pinned by the golden-stats tests, and this is a harness metric, not
    /// a simulated result.
    pub sim_accesses_total: u64,
    /// Machine-wide counter snapshot at the end of the measured phase
    /// (aggregate L1/TLB/L2, memory-controller and NoC counters plus purge /
    /// re-homing event counts). Consumed by the golden-stats regression tests
    /// and the serialised sweep matrix.
    pub machine: ironhide_sim::stats::MachineStats,
}

impl CompletionReport {
    /// Total completion time in milliseconds.
    pub fn total_time_ms(&self) -> f64 {
        self.cycles_to_ms(self.total_cycles)
    }

    /// Compute component in milliseconds.
    pub fn compute_time_ms(&self) -> f64 {
        self.cycles_to_ms(self.compute_cycles)
    }

    /// Enclave entry/exit and purge overhead in milliseconds.
    pub fn overhead_time_ms(&self) -> f64 {
        self.cycles_to_ms(self.overhead_cycles)
    }

    /// One-time reconfiguration overhead in milliseconds.
    pub fn reconfig_time_ms(&self) -> f64 {
        self.cycles_to_ms(self.reconfig_cycles)
    }

    /// Overhead per interaction in milliseconds, the form of the paper's MI6
    /// purge cost (see [`crate::sweep::PAPER_VALUES`]).
    pub fn overhead_per_interaction_ms(&self) -> f64 {
        if self.interactions == 0 {
            0.0
        } else {
            self.overhead_time_ms() / self.interactions as f64
        }
    }

    /// Speedup of this run relative to `other` (>1 means this run is faster).
    pub fn speedup_over(&self, other: &CompletionReport) -> f64 {
        other.total_cycles as f64 / self.total_cycles.max(1) as f64
    }

    fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1_000_000.0)
    }
}

/// Per-run mutable state bundled together so the helper methods stay readable.
#[derive(Debug)]
struct RunState {
    machine: Machine,
    spec: SpeculativeAccessCheck,
    ipc: SharedIpcBuffer,
    insecure: ProcessId,
    secure: ProcessId,
    insecure_cores: Vec<NodeId>,
    secure_cores: Vec<NodeId>,
    insecure_profile: ProcessProfile,
    secure_profile: ProcessProfile,
    cluster: Option<ClusterManager>,
    compute_cycles: u64,
    overhead_cycles: u64,
    /// Reusable per-lane memory-time accumulator; cleared by every work unit
    /// so the interaction loop never re-allocates it.
    lane_cycles: Vec<u64>,
}

/// Which of a run's two pinned processes issues a work unit. The helper
/// methods select the matching cores/profile/pid from [`RunState`] internally
/// so callers never have to clone those fields to satisfy borrows.
#[derive(Debug, Clone, Copy)]
enum Issuer {
    /// The untrusted producer process.
    Insecure,
    /// The attested secure process.
    Secure,
}

/// Runs interactive applications on simulated machines.
#[derive(Debug, Clone)]
pub struct ExperimentRunner {
    config: MachineConfig,
    params: ArchParams,
    realloc: ReallocPolicy,
}

impl ExperimentRunner {
    /// Creates a runner for machines built from `config`, using the default
    /// architecture parameters and the paper's gradient heuristic for
    /// IRONHIDE's core re-allocation.
    pub fn new(config: MachineConfig) -> Self {
        ExperimentRunner {
            config,
            params: ArchParams::default(),
            realloc: ReallocPolicy::Heuristic,
        }
    }

    /// Overrides the architecture parameters.
    pub fn with_params(mut self, params: ArchParams) -> Self {
        self.params = params;
        self
    }

    /// Overrides the core re-allocation policy (used by the Figure 8 bench).
    pub fn with_realloc(mut self, realloc: ReallocPolicy) -> Self {
        self.realloc = realloc;
        self
    }

    /// The machine configuration used for each run.
    pub fn machine_config(&self) -> &MachineConfig {
        &self.config
    }

    /// The re-allocation policy in use.
    pub fn realloc_policy(&self) -> ReallocPolicy {
        self.realloc
    }

    /// Runs `app` under `arch` and reports the completion-time breakdown.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if cluster formation fails (as it does for MI6
    /// and IRONHIDE on a one-tile machine) or the secure process cannot be
    /// attested.
    pub fn run(
        &self,
        arch: Architecture,
        app: &mut dyn InteractiveApp,
    ) -> Result<CompletionReport, RunError> {
        self.run_recycled(arch, app, None).map(|(report, _)| report)
    }

    /// Like [`ExperimentRunner::run`], but recycles `machine` (from a prior
    /// run on the **same configuration**) instead of allocating a fresh one,
    /// and hands the run's machine back for the next caller. Results are
    /// byte-identical to a fresh-machine run ([`Machine::reset_pristine`]);
    /// the sweep runner threads its cells through a pool of these.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if cluster formation fails or the secure
    /// process cannot be attested (the recycled machine is lost in that
    /// case).
    pub fn run_recycled(
        &self,
        arch: Architecture,
        app: &mut dyn InteractiveApp,
        machine: Option<Machine>,
    ) -> Result<(CompletionReport, Machine), RunError> {
        // Decide the secure-cluster size first (IRONHIDE only): the predictor
        // probes candidate allocations on scratch machines so the main run's
        // state is untouched.
        let total_cores = self.config.cores();
        // MI6 and IRONHIDE split the machine in two; one tile has no second
        // half to give the insecure process.
        if arch.strong_isolation() && total_cores < 2 {
            return Err(ClusterError::EmptyCluster { requested: 1, total: total_cores }.into());
        }
        let initial_secure = ((total_cores as f64 * self.params.initial_secure_fraction).round()
            as usize)
            .clamp(1, total_cores.max(2) - 1);
        let mut decision_secure = initial_secure;
        let mut charge_reconfig = true;
        // One scratch machine is recycled through every predictor probe and
        // then the measured run itself (Machine::reset_pristine), instead of
        // paying ~0.5 ms of way-array allocation per probe.
        let mut scratch: Option<Machine> = machine;
        // Simulated accesses performed outside the measured phase (predictor
        // probes, then warm-up); the stats resets at each phase boundary
        // would otherwise erase them from the completion report.
        let mut unmeasured_accesses = 0u64;
        if arch.spatial_clusters() {
            // Every candidate probe replays the same post-reset interaction
            // prefix, so the sample is generated once and shared: the
            // predictor's cost is the probe simulations, not re-running the
            // workload kernels per candidate (the exhaustive Optimal policy
            // previously regenerated the sample up to cores-1 times).
            app.reset();
            let sample_len = self.params.predictor_sample.min(app.interactions()).max(1);
            let sample: Vec<Interaction> = (0..sample_len).map(|i| app.interaction(i)).collect();
            let decision = self.realloc.decide(total_cores, initial_secure, |candidate| {
                self.predict(&*app, &sample, &mut scratch, &mut unmeasured_accesses, candidate)
            });
            decision_secure = decision.secure_cores;
            charge_reconfig = decision.charge_overhead;
        }
        app.reset();
        let mut run = self.prepare(arch, app, initial_secure, scratch.take())?;

        // Warm up (not measured), as the paper does before timing each setup.
        let warmup = self.params.warmup_interactions.min(app.interactions());
        for idx in 0..warmup {
            let interaction = app.interaction(idx);
            self.run_interaction(&mut run, arch, &interaction);
        }

        // IRONHIDE reconfigures once per application invocation, after the
        // warm-up/profiling phase, when real data is resident and must be
        // re-homed. The stall is charged unless the policy is the idealised
        // Optimal.
        let mut reconfig_cycles = 0u64;
        if arch.spatial_clusters() && decision_secure != initial_secure {
            let manager =
                run.cluster.as_mut().expect("IRONHIDE runs always have a cluster manager");
            let cycles =
                manager.reconfigure(&mut run.machine, run.secure, run.insecure, decision_secure)?;
            run.secure_cores.clear();
            run.secure_cores.extend(manager.cores_iter(ClusterId::Secure));
            run.insecure_cores.clear();
            run.insecure_cores.extend(manager.cores_iter(ClusterId::Insecure));
            if charge_reconfig {
                reconfig_cycles = cycles;
            }
        }

        // Warm-up (and cluster formation) accesses since prepare's pristine
        // reset, banked before the measured-phase counter reset clears them.
        unmeasured_accesses += run.machine.stats().l1.accesses;
        run.machine.reset_stats();
        run.compute_cycles = 0;
        run.overhead_cycles = 0;

        // Measured phase.
        let measured = app.interactions();
        for idx in 0..measured {
            let interaction = app.interaction(idx);
            self.run_interaction(&mut run, arch, &interaction);
        }

        // Gather the report.
        let sec_stats = run.machine.process_stats(run.secure).clone();
        let ins_stats = run.machine.process_stats(run.insecure).clone();
        let l1_accesses = sec_stats.l1.accesses + ins_stats.l1.accesses;
        let l1_misses = sec_stats.l1.misses + ins_stats.l1.misses;
        let l2_accesses = sec_stats.l2.accesses + ins_stats.l2.accesses;
        let l2_misses = sec_stats.l2.misses + ins_stats.l2.misses;
        let isolation = IsolationAuditor::new().audit(&run.machine, arch, &run.spec);
        let secure_cores = if arch.spatial_clusters() { decision_secure } else { total_cores };
        let machine_stats = run.machine.stats();
        let sim_accesses_total = unmeasured_accesses + machine_stats.l1.accesses;
        let report = CompletionReport {
            app: app.name().to_string(),
            arch,
            total_cycles: run.compute_cycles + run.overhead_cycles + reconfig_cycles,
            compute_cycles: run.compute_cycles,
            overhead_cycles: run.overhead_cycles,
            reconfig_cycles,
            interactions: measured as u64,
            secure_cores,
            l1_miss_rate: ratio(l1_misses, l1_accesses),
            l2_miss_rate: ratio(l2_misses, l2_accesses),
            isolation,
            clock_ghz: self.config.clock_ghz,
            sim_accesses_total,
            machine: machine_stats,
        };
        Ok((report, run.machine))
    }

    /// Predicts the completion cycles of a short pre-generated `sample` of
    /// the application's interactions when the secure cluster has
    /// `secure_cores` cores. Used by the re-allocation policies; runs on a
    /// scratch machine.
    fn predict(
        &self,
        app: &dyn InteractiveApp,
        sample: &[Interaction],
        scratch: &mut Option<Machine>,
        accesses: &mut u64,
        secure_cores: usize,
    ) -> f64 {
        let mut run = match self.prepare(Architecture::Ironhide, app, secure_cores, scratch.take())
        {
            Ok(run) => run,
            Err(_) => return f64::INFINITY,
        };
        for interaction in sample {
            self.run_interaction(&mut run, Architecture::Ironhide, interaction);
        }
        // The secure kernel's objective is load balance: when two candidate
        // bindings predict (nearly) the same completion time, it prefers to
        // leave the spare cores with the insecure cluster rather than parking
        // them idle in the secure cluster. A 1 % bias encodes that tie-break
        // without overriding real performance gradients.
        let bias = 1.0 + 0.01 * secure_cores as f64 / self.config.cores() as f64;
        let score = (run.compute_cycles + run.overhead_cycles) as f64 * bias;
        // Bank this probe's simulated accesses before the machine is
        // recycled (the next prepare's pristine reset clears its counters).
        *accesses += run.machine.stats().l1.accesses;
        *scratch = Some(run.machine);
        score
    }

    fn prepare(
        &self,
        arch: Architecture,
        app: &dyn InteractiveApp,
        secure_cores: usize,
        recycled: Option<Machine>,
    ) -> Result<RunState, RunError> {
        let mut machine = match recycled {
            Some(mut m) => {
                m.reset_pristine();
                m
            }
            None => Machine::new(self.config.clone()),
        };
        let insecure_profile = app.insecure_profile().clone();
        let secure_profile = app.secure_profile().clone();
        let insecure =
            machine.create_process(insecure_profile.name.clone(), SecurityClass::Insecure);
        let secure = machine.create_process(secure_profile.name.clone(), SecurityClass::Secure);

        // Attest the secure process before it is allowed to execute under any
        // enclave-capable architecture.
        SecureKernel::new().attest(secure, secure_profile.name.as_bytes(), AppDomain(1))?;

        // Each process issues from its own cluster, or from every core when
        // the architecture time-shares them.
        let cluster = place(&mut machine, arch, secure, insecure, secure_cores)?;
        let (secure_cores_vec, insecure_cores_vec) = match &cluster {
            Some(manager) => {
                (manager.cores_of(ClusterId::Secure), manager.cores_of(ClusterId::Insecure))
            }
            None => {
                let all_cores: Vec<NodeId> = (0..self.config.cores()).map(NodeId).collect();
                (all_cores.clone(), all_cores)
            }
        };

        Ok(RunState {
            machine,
            spec: SpeculativeAccessCheck::new(),
            ipc: SharedIpcBuffer::paper_default(),
            insecure,
            secure,
            insecure_cores: insecure_cores_vec,
            secure_cores: secure_cores_vec,
            insecure_profile,
            secure_profile,
            cluster,
            compute_cycles: 0,
            overhead_cycles: 0,
            lane_cycles: Vec::new(),
        })
    }

    fn run_interaction(&self, run: &mut RunState, arch: Architecture, interaction: &Interaction) {
        // 1. The insecure process produces the next input.
        let t_produce = self.exec_unit(run, Issuer::Insecure, &interaction.insecure, arch);

        // 2. It publishes the input through the shared IPC buffer.
        let produce_refs = run.ipc.produce(interaction.ipc_bytes);
        let insecure = run.insecure;
        let ipc_core_ins = run.insecure_cores[0];
        run.machine.set_ipc_marker(true);
        let t_ipc_write = self.issue_refs(run, insecure, ipc_core_ins, &produce_refs, arch, true);
        run.machine.set_ipc_marker(false);

        // 3. Enclave entry.
        let t_entry = boundary_cost(&mut run.machine, arch, &self.config, &self.params);

        // 4. The secure process reads the input from the shared buffer. The
        //    buffer is insecure data, so the accesses are issued against the
        //    insecure process's address space from a secure-cluster core.
        let consume_refs = run.ipc.consume(interaction.ipc_bytes);
        let ipc_core_sec = run.secure_cores[0];
        run.machine.set_ipc_marker(true);
        let t_ipc_read = self.issue_refs(run, insecure, ipc_core_sec, &consume_refs, arch, false);
        run.machine.set_ipc_marker(false);

        // 5. The secure process consumes the input.
        let t_consume = self.exec_unit(run, Issuer::Secure, &interaction.secure, arch);

        // 6. Enclave exit.
        let t_exit = boundary_cost(&mut run.machine, arch, &self.config, &self.params);

        run.compute_cycles += t_produce + t_ipc_write + t_ipc_read + t_consume;
        run.overhead_cycles += t_entry + t_exit;
    }

    fn exec_unit(
        &self,
        run: &mut RunState,
        issuer: Issuer,
        unit: &WorkUnit,
        arch: Architecture,
    ) -> u64 {
        // Borrow the run state field-by-field so the cores/profile of the
        // issuing process can be read while the machine is driven mutably —
        // no per-interaction clones.
        let RunState {
            machine,
            spec,
            insecure,
            secure,
            insecure_cores,
            secure_cores,
            insecure_profile,
            secure_profile,
            lane_cycles,
            ..
        } = run;
        let (pid, cores, profile, issuer_is_insecure): (_, &[NodeId], &ProcessProfile, bool) =
            match issuer {
                Issuer::Insecure => (*insecure, insecure_cores, insecure_profile, true),
                Issuer::Secure => (*secure, secure_cores, secure_profile, false),
            };
        // The process picks its own thread count, as real applications do: it
        // never spawns more threads than profitable under its Amdahl +
        // synchronisation profile, and never more than the cores its cluster
        // (or the whole machine, for the temporally shared architectures)
        // provides.
        let limit = cores.len().min(profile.max_useful_cores).max(1);
        let parallel_part = unit.compute_cycles as f64 * profile.parallel_fraction;
        let sync = profile.sync_cycles_per_core.max(1) as f64;
        let preferred = (parallel_part / sync).sqrt().round().max(1.0) as usize;
        let n_eff = preferred.min(limit);
        let active = &cores[..n_eff];
        // Memory-controller pressure scales with the concurrently issuing
        // cores divided over the controllers they can reach.
        machine.set_load_hint((n_eff as u64 / self.config.controllers.max(1) as u64).max(1));
        lane_cycles.clear();
        lane_cycles.resize(n_eff, 0);
        if !unit.accesses.is_empty() {
            // Carve the stream into per-lane chunks by reference index (the
            // same chunking the materialised path used), then feed each
            // chunk's sub-runs to the batched access engine.
            let total = unit.accesses.len() as u64;
            let chunk = total.div_ceil(n_eff as u64);
            let screened = arch.speculative_check() && issuer_is_insecure;
            let mut start = 0u64;
            let mut lane = 0usize;
            while start < total {
                let end = (start + chunk).min(total);
                let core = active[lane % n_eff];
                let mut cycles = 0u64;
                for run in unit.accesses.ref_range(start, end) {
                    cycles += issue_run(machine, spec, pid, core, run, screened);
                }
                lane_cycles[lane % n_eff] += cycles;
                lane += 1;
                start = end;
            }
        }
        let mem_time = lane_cycles.iter().copied().max().unwrap_or(0);
        let serial =
            (unit.compute_cycles as f64 * (1.0 - profile.parallel_fraction)).round() as u64;
        let parallel =
            (unit.compute_cycles as f64 * profile.parallel_fraction / n_eff as f64).round() as u64;
        let sync = profile.sync_cycles_per_core * n_eff as u64;
        serial + parallel + mem_time + sync
    }

    fn issue_refs(
        &self,
        run: &mut RunState,
        pid: ProcessId,
        core: NodeId,
        refs: &RefStream,
        arch: Architecture,
        issuer_is_insecure: bool,
    ) -> u64 {
        let RunState { machine, spec, .. } = run;
        let screened = arch.speculative_check() && issuer_is_insecure;
        let mut cycles = 0;
        for r in refs.runs() {
            cycles += issue_run(machine, spec, pid, core, *r, screened);
        }
        cycles
    }
}

/// Issues one reference run on `core` against `pid`'s address space through
/// the batched access engine, screening insecure-issued references through
/// the hardware speculative-access check when `screened`.
///
/// The check consumes *physical* addresses, so it splits the run at page
/// boundaries like the engine does: the first reference of a page segment is
/// screened against the pre-access page table (an untouched page yields no
/// physical address and therefore no check, as on the scalar path), and the
/// remaining references — whose page the first access is guaranteed to have
/// mapped, onto a single region — are screened as one bulk counter update.
/// Shared by the performance and attack runners.
pub(crate) fn issue_run(
    machine: &mut Machine,
    spec: &mut SpeculativeAccessCheck,
    pid: ProcessId,
    core: NodeId,
    run: RefRun,
    screened: bool,
) -> u64 {
    if !screened {
        return machine.access_run(core, pid, run);
    }
    let page_bytes = machine.page_bytes();
    let mut cycles = 0;
    for seg in run.segments(page_bytes) {
        if let Some(paddr) = machine.peek_paddr(pid, seg.base) {
            spec.check(machine.regions(), SecurityClass::Insecure, paddr);
        }
        cycles += machine.access_run(core, pid, seg);
        if seg.len > 1 {
            let paddr = machine
                .peek_paddr(pid, seg.addr(1))
                .expect("page mapped by the segment's first access");
            spec.check_run(machine.regions(), SecurityClass::Insecure, paddr, seg.len as u64 - 1);
        }
    }
    cycles
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny synthetic interactive application: the insecure process streams
    /// over a buffer, the secure process re-reads a hot table every
    /// interaction (so MI6's purges hurt it and IRONHIDE's pinning helps).
    #[derive(Debug)]
    struct ToyApp {
        insecure: ProcessProfile,
        secure: ProcessProfile,
        interactions: usize,
    }

    impl ToyApp {
        fn new(interactions: usize) -> Self {
            ToyApp {
                insecure: ProcessProfile::new("toy-producer", SecurityClass::Insecure, 0.9, 50, 64),
                secure: ProcessProfile::new("toy-enclave", SecurityClass::Secure, 0.8, 100, 32),
                interactions,
            }
        }
    }

    impl InteractiveApp for ToyApp {
        fn name(&self) -> &str {
            "<TOY, GEN>"
        }
        fn insecure_profile(&self) -> &ProcessProfile {
            &self.insecure
        }
        fn secure_profile(&self) -> &ProcessProfile {
            &self.secure
        }
        fn interactions(&self) -> usize {
            self.interactions
        }
        fn interactivity_per_second(&self) -> f64 {
            400.0
        }
        fn interaction(&mut self, idx: usize) -> Interaction {
            use crate::app::MemRef;
            let insecure =
                RefStream::from_refs((0..64u64).map(|i| MemRef::write((idx as u64 * 64 + i) * 64)));
            // A hot table re-read every interaction.
            let secure =
                RefStream::from_refs((0..128u64).map(|i| MemRef::read(0x10_0000 + (i % 64) * 64)));
            Interaction {
                insecure: WorkUnit::new(2_000, insecure),
                secure: WorkUnit::new(4_000, secure),
                ipc_bytes: 256,
            }
        }
        fn reset(&mut self) {}
    }

    fn runner() -> ExperimentRunner {
        let params =
            ArchParams { warmup_interactions: 2, predictor_sample: 2, ..ArchParams::default() };
        ExperimentRunner::new(MachineConfig::small_test()).with_params(params)
    }

    #[test]
    fn all_architectures_complete() {
        let r = runner();
        for arch in Architecture::ALL {
            let mut app = ToyApp::new(6);
            let report = r.run(arch, &mut app).unwrap();
            assert_eq!(report.arch, arch);
            assert_eq!(report.interactions, 6);
            assert!(report.total_cycles > 0);
            assert!(report.total_time_ms() > 0.0);
            assert!(report.isolation.is_clean(), "{arch}: {:?}", report.isolation.violations);
        }
    }

    #[test]
    fn security_costs_are_ordered() {
        let r = runner();
        let insecure = r.run(Architecture::Insecure, &mut ToyApp::new(8)).unwrap();
        let sgx = r.run(Architecture::SgxLike, &mut ToyApp::new(8)).unwrap();
        let mi6 = r.run(Architecture::Mi6, &mut ToyApp::new(8)).unwrap();
        assert!(
            sgx.total_cycles > insecure.total_cycles,
            "SGX must pay enclave entry/exit costs over the insecure baseline"
        );
        assert!(
            mi6.total_cycles > sgx.total_cycles,
            "MI6 must pay purge costs on top of the SGX costs"
        );
        assert!(mi6.overhead_cycles > sgx.overhead_cycles);
    }

    #[test]
    fn ironhide_avoids_per_interaction_overheads() {
        let r = runner();
        let mi6 = r.run(Architecture::Mi6, &mut ToyApp::new(8)).unwrap();
        let ih = r.run(Architecture::Ironhide, &mut ToyApp::new(8)).unwrap();
        assert_eq!(ih.overhead_cycles, 0, "IRONHIDE has no per-interaction purge/crypto cost");
        assert!(ih.total_cycles < mi6.total_cycles, "IRONHIDE must beat MI6 on this workload");
        assert!(ih.l1_miss_rate <= mi6.l1_miss_rate);
    }

    #[test]
    fn mi6_overhead_scales_with_interactions() {
        let r = runner();
        let short = r.run(Architecture::Mi6, &mut ToyApp::new(4)).unwrap();
        let long = r.run(Architecture::Mi6, &mut ToyApp::new(12)).unwrap();
        assert!(long.overhead_cycles > short.overhead_cycles);
        assert!(long.overhead_per_interaction_ms() > 0.0);
    }

    #[test]
    fn report_time_conversions_consistent() {
        let r = runner();
        let rep = r.run(Architecture::SgxLike, &mut ToyApp::new(4)).unwrap();
        let sum = rep.compute_time_ms() + rep.overhead_time_ms() + rep.reconfig_time_ms();
        assert!((sum - rep.total_time_ms()).abs() < 1e-9);
        assert!((rep.speedup_over(&rep) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn realloc_policy_is_respected() {
        let r = runner().with_realloc(ReallocPolicy::Static);
        let rep = r.run(Architecture::Ironhide, &mut ToyApp::new(4)).unwrap();
        // Static keeps the initial half-and-half split on the 4-core test
        // machine (2 secure cores).
        assert_eq!(rep.secure_cores, 2);
        assert_eq!(rep.reconfig_cycles, 0);
    }
}
