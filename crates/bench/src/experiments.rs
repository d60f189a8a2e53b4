//! The experiments the `BENCH_*.json` binaries and the `paper_figures`
//! bench run, each defined once.
//!
//! An experiment is a machine, a master seed and a grid. `smoke` selects the
//! small grid CI runs; otherwise the full grid the committed `BENCH_*.json`
//! records. The binaries run these definitions to write and gate their
//! reports, and `tests/pins.rs` runs the same definitions to pin their
//! checksums, so the two can never drift apart. The master seeds are fixed
//! forever: changing one makes its checksum incomparable across builds.
//! Likewise `paper_figures` and `tests/fidelity.rs` run the one [`paper`]
//! sweep.

use std::time::{Duration, Instant};

use ironhide_attacks::{ablation_grid, ablation_subsets, smoke_subsets};
use ironhide_core::arch::Architecture;
use ironhide_core::cluster::ClusterManager;
use ironhide_core::faults::{FaultArch, FaultGrid, FaultKind, FaultMatrix, FaultSweepError};
use ironhide_core::realloc::ReallocPolicy;
use ironhide_core::sweep::{
    AblationMatrix, AblationSweepError, ScalePoint, SweepError, SweepMatrix, SweepRunner,
};
use ironhide_core::tenancy::{
    AdmissionPolicy, LoadPoint, StormConfig, TenancyGrid, TenancyMatrix, TenancySweepError,
};
use ironhide_mesh::{ClusterId, NodeId};
use ironhide_sim::config::MachineConfig;
use ironhide_sim::machine::Machine;
use ironhide_sim::process::{ProcessId, SecurityClass};
use ironhide_workloads::app::{sweep_grid, tenant_profiles, AppId, ScaleFactor};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Master seed of the baseline sweep.
const BASELINE_SEED: u64 = 2;

/// Master seed of the reconfiguration storm.
pub const STORM_SEED: u64 = 7;

/// Master seed of the tenancy sweep.
const TENANCY_SEED: u64 = 11;

/// Master seed of the fault campaign.
const FAULTS_SEED: u64 = 11;

/// Master seed of the temporal-fence ablation.
const ABLATION_SEED: u64 = 0xAB1A_7104;

/// The performance grid at `threads` workers: the Smoke-scale sweep of every
/// application under every architecture (the smoke grid: QUERY/AES and PR
/// under MI6 and IRONHIDE), heuristic re-allocation.
///
/// # Errors
///
/// The first cell that failed, in grid order.
pub fn baseline(smoke: bool, threads: usize) -> Result<SweepMatrix, SweepError> {
    let (apps, archs) = if smoke {
        (vec![AppId::QueryAes, AppId::PrGraph], vec![Architecture::Mi6, Architecture::Ironhide])
    } else {
        (AppId::ALL.to_vec(), Architecture::ALL.to_vec())
    };
    let grid = sweep_grid(&apps, &archs, &[ReallocPolicy::Heuristic], &[ScaleFactor::Smoke]);
    SweepRunner::new(MachineConfig::paper_default())
        .with_threads(threads)
        .with_seed(BASELINE_SEED)
        .run(&grid)
}

/// The baseline's semantics checksum: the summed simulated completion
/// cycles of every cell.
pub fn simulated_cycles_total(matrix: &SweepMatrix) -> u64 {
    matrix.cells.iter().map(|c| c.report.total_cycles).sum()
}

/// The paper's figures at Paper scale on the paper's machine, at `threads`
/// workers. The heuristic grid, every application under every architecture
/// (36 cells), holds Figures 1, 6 and 7. With `policies`, IRONHIDE under
/// Static and Figure 8's other decisions follows it in the same matrix (72
/// cells) for Figure 8 and the static-isolation ablation. The paper's
/// applications ignore the cell seed, so the default master seed stands.
///
/// # Errors
///
/// The first cell that failed, in grid order.
pub fn paper(policies: bool, threads: usize) -> Result<SweepMatrix, SweepError> {
    let runner = SweepRunner::new(MachineConfig::paper_default()).with_threads(threads);
    let run = |archs: &[Architecture], decisions: &[ReallocPolicy]| {
        runner.run(&sweep_grid(&AppId::ALL, archs, decisions, &[ScaleFactor::Paper]))
    };
    let mut matrix = run(&Architecture::ALL, &[ReallocPolicy::Heuristic])?;
    if policies {
        let mut others = ReallocPolicy::figure8_set();
        others.retain(|p| *p != ReallocPolicy::Heuristic);
        others.push(ReallocPolicy::Static);
        matrix.cells.extend(run(&[Architecture::Ironhide], &others)?.cells);
    }
    Ok(matrix)
}

/// A tenant storm over the paper's nine applications with eight cores
/// reserved for the host.
fn storm_config(tenants: usize, mean_interarrival_cycles: u64) -> StormConfig {
    StormConfig {
        tenants,
        mean_interarrival_cycles,
        mean_service_scale: 1,
        host_reserve_cores: 8,
        profiles: tenant_profiles(&AppId::ALL),
    }
}

/// The {admission policy × load} tenancy grid: every policy against one
/// smoke load, or against a calm load (arrivals mostly drain before the
/// next tenant lands) and a storm load (heavy overlap, where admission
/// control decides the tails).
pub fn tenancy_grid(smoke: bool) -> TenancyGrid {
    let mut grid = TenancyGrid::new();
    for policy in AdmissionPolicy::ALL {
        grid = grid.with_policy(policy);
    }
    if smoke {
        grid.with_load(LoadPoint::new("Smoke", storm_config(40, 30_000)))
    } else {
        grid.with_load(LoadPoint::new("Calm", storm_config(120, 60_000)))
            .with_load(LoadPoint::new("Storm", storm_config(240, 12_000)))
    }
}

/// The tenancy grid at `threads` workers.
///
/// # Errors
///
/// The first cell that failed, in grid order.
pub fn tenancy(smoke: bool, threads: usize) -> Result<TenancyMatrix, TenancySweepError> {
    SweepRunner::new(MachineConfig::paper_default())
        .with_threads(threads)
        .with_seed(TENANCY_SEED)
        .run_tenancy(&tenancy_grid(smoke))
}

/// The {fault kind × rate × discipline} campaign at `threads` workers, every
/// cell one queued tenant storm.
///
/// # Errors
///
/// The first cell that failed, in grid order.
pub fn faults(smoke: bool, threads: usize) -> Result<FaultMatrix, FaultSweepError> {
    let (tenants, rates): (usize, &[u32]) =
        if smoke { (40, &[0, 200]) } else { (120, &[0, 120, 500]) };
    let mut grid = FaultGrid::new(storm_config(tenants, 30_000), AdmissionPolicy::Queue);
    for kind in FaultKind::ALL {
        grid = grid.with_kind(kind);
    }
    for rate in rates {
        grid = grid.with_rate(*rate);
    }
    for arch in FaultArch::ALL {
        grid = grid.with_arch(arch);
    }
    SweepRunner::new(MachineConfig::paper_default())
        .with_threads(threads)
        .with_seed(FAULTS_SEED)
        .run_faults(&grid)
}

/// The {flush subset × channel} ablation on the covert-channel testbench at
/// `threads` workers: the smoke subsets, or the full ladder.
///
/// # Errors
///
/// The first cell that failed, in grid order.
pub fn ablation(smoke: bool, threads: usize) -> Result<AblationMatrix, AblationSweepError> {
    let subsets = if smoke { smoke_subsets() } else { ablation_subsets() };
    SweepRunner::new(MachineConfig::attack_testbench())
        .with_threads(threads)
        .with_seed(ABLATION_SEED)
        .run_ablation(&ablation_grid(subsets, &[ScalePoint::new("Smoke")]))
}

/// Secure-cluster shapes the storm alternates between. Row-major splits on
/// the paper's 8×8 mesh; every consecutive pair differs, so every
/// reconfiguration moves tiles, purges slices and re-homes pages.
const SHAPES: [usize; 6] = [8, 16, 24, 32, 40, 56];

/// The size of a reconfiguration storm.
#[derive(Debug, Clone, Copy)]
pub struct StormParams {
    /// Reconfigurations the storm performs.
    pub reconfigs: u64,
    /// Pages each process touches between reconfigurations.
    pub warm_pages: u64,
}

/// One storm pass's measurement.
#[derive(Debug, Clone, Copy)]
pub struct StormResult {
    /// Wall-clock seconds spent inside `reconfigure` calls.
    pub wall_s: f64,
    /// Reconfigurations per wall-clock second.
    pub rate: u64,
    /// Wrapping sum of the simulated stall cycles every reconfiguration
    /// charged: the storm's semantics checksum.
    pub stall_checksum: u64,
    /// Pages the storm re-homed.
    pub pages_rehomed: u64,
    /// Directory scrub probes the storm issued (a diagnostic work counter).
    pub scrub_probes: u64,
}

impl StormParams {
    /// The smoke storm (40 reconfigurations) or the full one (200).
    pub fn new(smoke: bool) -> Self {
        if smoke {
            StormParams { reconfigs: 40, warm_pages: 64 }
        } else {
            StormParams { reconfigs: 200, warm_pages: 128 }
        }
    }

    /// Runs one seed-deterministic storm on a warmed two-process
    /// paper-default machine, through the scalar reference reconfiguration
    /// path when `reference` is set and the batched one otherwise, timing
    /// only the `reconfigure` calls.
    pub fn run(&self, reference: bool) -> StormResult {
        let mut machine = Machine::new(MachineConfig::paper_default());
        let secure = machine.create_process("tenant-secure", SecurityClass::Secure);
        let insecure = machine.create_process("tenant-insecure", SecurityClass::Insecure);
        let (mut manager, _) = ClusterManager::form(&mut machine, secure, insecure, SHAPES[3])
            .expect("the initial shape is valid");
        warm(&mut machine, &manager, secure, insecure, 0, self.warm_pages);
        machine.set_reconfig_reference(reference);
        let mut rng = StdRng::seed_from_u64(STORM_SEED);
        let mut current = SHAPES[3];
        let mut stall_checksum = 0u64;
        let mut stalled = Duration::ZERO;
        for i in 0..self.reconfigs {
            let idx = (rng.next_u64() % SHAPES.len() as u64) as usize;
            let mut target = SHAPES[idx];
            if target == current {
                target = SHAPES[(idx + 1) % SHAPES.len()];
            }
            let start = Instant::now();
            let cycles = manager
                .reconfigure(&mut machine, secure, insecure, target)
                .expect("every storm shape is valid");
            stalled += start.elapsed();
            stall_checksum = stall_checksum.wrapping_add(cycles);
            current = target;
            // Open-loop tenant activity between reconfigurations (untimed):
            // the window slides a quarter of its width per iteration, so
            // caches and directories are resident *and* fresh pages keep
            // pinning onto the current cluster shape, as real churn would.
            let base = (i + 1) * self.warm_pages / 4;
            warm(&mut machine, &manager, secure, insecure, base, self.warm_pages);
        }
        let wall_s = stalled.as_secs_f64();
        let rate = if wall_s > 0.0 { (self.reconfigs as f64 / wall_s).round() as u64 } else { 0 };
        StormResult {
            wall_s,
            rate,
            stall_checksum,
            pages_rehomed: machine.stats().pages_rehomed,
            scrub_probes: machine.scrub_probes(),
        }
    }
}

/// Touches pages `base..base + pages` per process from cores spread over the
/// process's cluster, so pins, L1/L2 lines and directory entries are all
/// resident when a reconfiguration hits. The storm advances `base` between
/// iterations — a sliding window, like real tenants continuously allocating:
/// re-touched pages repopulate the caches, fresh pages allocate and pin
/// round-robin over the *current* allowed slices, so every later shrink has
/// real pages to move (a fixed working set converges to pins inside the
/// always-allowed slice range and the storm degenerates to pure purges).
pub fn warm(
    machine: &mut Machine,
    manager: &ClusterManager,
    secure: ProcessId,
    insecure: ProcessId,
    base: u64,
    pages: u64,
) {
    let secure_cores: Vec<NodeId> = manager.cores_iter(ClusterId::Secure).collect();
    let insecure_cores: Vec<NodeId> = manager.cores_iter(ClusterId::Insecure).collect();
    for p in base..base + pages {
        let vaddr = p * 4096;
        let sc = secure_cores[p as usize % secure_cores.len()];
        let ic = insecure_cores[p as usize % insecure_cores.len()];
        machine.access(sc, secure, vaddr, p % 3 == 0);
        machine.access(ic, insecure, vaddr, p % 3 == 1);
        // A second reader per page gives the directories Shared entries, so
        // the scrub's sharer census has real work.
        machine.access(secure_cores[(p as usize + 1) % secure_cores.len()], secure, vaddr, false);
    }
}
