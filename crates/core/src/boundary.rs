//! The architecture model: where the secure and insecure processes run
//! ([`place`]) and what one boundary crossing costs ([`boundary_cost`]).
//!
//! The five architectures differ in exactly these two decisions, so each is
//! defined once here and both runners call it: the performance
//! [`ExperimentRunner`](crate::runner::ExperimentRunner) and the
//! [`AttackRunner`](crate::attack::AttackRunner) that every covert channel
//! runs through, the reconfiguration-window attack included. The machine the
//! attacks run against is therefore the machine the figures price by
//! construction.
//!
//! MI6 pays for strong isolation at every enclave entry and exit: the
//! SGX-style constant transition cost (pipeline flush, enclave data crypto
//! and integrity checks) plus a purge of all time-shared
//! microarchitecture state — private L1s and TLBs on every core, the
//! memory-controller queues and open rows, and the in-flight network state
//! (on the prototype, the `tmc_mem_fence` that ends a purge only completes
//! once every packet has drained, so no queue occupancy survives a
//! boundary).

use ironhide_cache::SliceId;
use ironhide_mem::ControllerMask;
use ironhide_sim::config::MachineConfig;
use ironhide_sim::machine::Machine;
use ironhide_sim::process::ProcessId;

use crate::arch::{ArchParams, Architecture};
use crate::cluster::{ClusterError, ClusterManager};

/// Places the `secure` and `insecure` processes on `machine` under `arch`.
///
/// MI6 homes the secure process's pages on the low half of the L2 slices
/// and the insecure one's on the high half, cores still time-shared.
/// IRONHIDE forms a secure cluster of `secure_cores` cores (the only
/// architecture that reads it) and returns its manager. The others share
/// everything. Each runner picks its cores from the returned manager, or
/// from the whole machine when there is none.
///
/// # Errors
///
/// Returns a [`ClusterError`] if IRONHIDE's cluster formation fails.
pub fn place(
    machine: &mut Machine,
    arch: Architecture,
    secure: ProcessId,
    insecure: ProcessId,
    secure_cores: usize,
) -> Result<Option<ClusterManager>, ClusterError> {
    match arch {
        Architecture::Insecure | Architecture::SgxLike | Architecture::TemporalFence => Ok(None),
        Architecture::Mi6 => {
            let total = machine.config().cores();
            let half = (total / 2).max(1);
            let low: Vec<SliceId> = (0..half).map(SliceId).collect();
            let high: Vec<SliceId> = (half..total).map(SliceId).collect();
            machine.set_process_slices(secure, &low);
            machine.set_process_slices(insecure, &high);
            Ok(None)
        }
        Architecture::Ironhide => {
            let (manager, _setup) = ClusterManager::form(machine, secure, insecure, secure_cores)?;
            Ok(Some(manager))
        }
    }
}

/// The cost, in cycles, of one secure/insecure boundary crossing (entry or
/// exit) under `arch`, functionally applying whatever the crossing erases.
///
/// The temporal fence's flush set and cost table come from `config` — the
/// caller's configuration, never the possibly-recycled machine's stored
/// copy, so one machine pool can serve every flush subset of an ablation.
pub fn boundary_cost(
    machine: &mut Machine,
    arch: Architecture,
    config: &MachineConfig,
    params: &ArchParams,
) -> u64 {
    match arch {
        // Producer and consumer are already resident (Insecure) or pinned to
        // their own clusters (IRONHIDE): nothing is crossed or flushed.
        Architecture::Insecure | Architecture::Ironhide => 0,
        // The HotCalls-measured enclave transition, a constant ~5 us.
        Architecture::SgxLike => machine.clock().us_to_cycles(params.sgx_entry_exit_us),
        Architecture::Mi6 => mi6_boundary_cost(machine, params),
        // Erase the configured flush set and charge its state-independent
        // worst-case cost (the flush pads to capacity so its duration
        // cannot itself leak — see ironhide_sim::fence).
        Architecture::TemporalFence => {
            let fence = config.temporal_fence;
            machine.temporal_flush(fence.set);
            fence.switch_cost(config)
        }
    }
}

/// The cost, in cycles, of one MI6 enclave boundary crossing (entry or
/// exit) on `machine`: the SGX transition constant plus the full purge of
/// private state, controller queues and the network. Functionally purges
/// the machine as a side effect, exactly as the boundary does.
pub fn mi6_boundary_cost(machine: &mut Machine, params: &ArchParams) -> u64 {
    let clock = machine.clock();
    let controllers = machine.config().controllers;
    let purge = machine.purge_all_private();
    let mc = machine.purge_controllers(ControllerMask::first(controllers));
    let net = machine.purge_network();
    clock.us_to_cycles(params.sgx_entry_exit_us) + purge + mc + net
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironhide_mesh::{ClusterId, NodeId};
    use ironhide_sim::process::SecurityClass;
    use ironhide_sim::TemporalFenceConfig;

    /// A `small_test` machine under `fence` with private state on every
    /// core for a boundary to erase.
    fn driven(fence: TemporalFenceConfig) -> Machine {
        let mut m =
            Machine::new(MachineConfig { temporal_fence: fence, ..MachineConfig::small_test() });
        let pid = m.create_process("p", SecurityClass::Insecure);
        for core in 0..m.config().cores() {
            for line in 0..16u64 {
                m.access(NodeId(core), pid, (core as u64 * 64 + line) * 64, true);
            }
        }
        m
    }

    #[test]
    fn boundary_cost_prices_every_architecture() {
        let params = ArchParams::default();
        let config = MachineConfig::small_test();
        // (cycles, core purges) of one crossing on a freshly driven machine
        // built under `built`, priced with `config`.
        let cross = |arch, built, config: &MachineConfig| {
            let mut m = driven(built);
            (boundary_cost(&mut m, arch, config, &params), m.stats().core_purges)
        };
        let off = TemporalFenceConfig::off();
        assert_eq!(cross(Architecture::Insecure, off, &config), (0, 0));
        assert_eq!(cross(Architecture::Ironhide, off, &config), (0, 0));
        let sgx = driven(off).clock().us_to_cycles(params.sgx_entry_exit_us);
        assert_eq!(cross(Architecture::SgxLike, off, &config), (sgx, 0));
        let mi6 = mi6_boundary_cost(&mut driven(off), &params);
        assert_eq!(cross(Architecture::Mi6, off, &config), (mi6, config.cores() as u64));

        // The fence's policy is the config passed in, whatever fence the
        // (possibly recycled) machine was built with.
        let simf = TemporalFenceConfig::simf();
        let fenced = |fence| MachineConfig { temporal_fence: fence, ..config.clone() };
        assert_eq!(cross(Architecture::TemporalFence, simf, &fenced(off)).0, 0);
        let simf_cost = simf.switch_cost(&config);
        assert!(simf_cost > 0);
        assert_eq!(cross(Architecture::TemporalFence, off, &fenced(simf)).0, simf_cost);
    }

    #[test]
    fn place_partitions_only_under_mi6_and_ironhide() {
        let total = MachineConfig::small_test().cores();
        let slices = |range: std::ops::Range<usize>| range.map(SliceId).collect::<Vec<_>>();
        let placed = |arch, secure_cores| {
            let mut m = Machine::new(MachineConfig::small_test());
            let insecure = m.create_process("insecure", SecurityClass::Insecure);
            let secure = m.create_process("secure", SecurityClass::Secure);
            let manager = place(&mut m, arch, secure, insecure, secure_cores);
            (manager, m, secure, insecure)
        };

        // MI6 splits the slices half/half and ignores the requested size.
        for size in [0, 1, total] {
            let (manager, m, secure, insecure) = placed(Architecture::Mi6, size);
            assert!(manager.unwrap().is_none());
            assert_eq!(m.process_slices_ref(secure), slices(0..total / 2));
            assert_eq!(m.process_slices_ref(insecure), slices(total / 2..total));
        }

        let (manager, m, _, _) = placed(Architecture::Ironhide, 2);
        let manager = manager.unwrap().expect("IRONHIDE forms clusters");
        assert_eq!(manager.cores_of(ClusterId::Secure).len(), 2);
        assert!(m.cluster_map().is_some());
        for size in [0, total] {
            let (manager, ..) = placed(Architecture::Ironhide, size);
            assert!(matches!(manager, Err(ClusterError::EmptyCluster { .. })), "{size}");
        }

        for arch in [Architecture::Insecure, Architecture::SgxLike, Architecture::TemporalFence] {
            let (manager, m, secure, insecure) = placed(arch, 2);
            assert!(manager.unwrap().is_none());
            assert!(m.cluster_map().is_none());
            assert_eq!(m.process_slices_ref(secure), slices(0..total));
            assert_eq!(m.process_slices_ref(insecure), slices(0..total));
        }
    }

    #[test]
    fn boundary_purges_all_private_state_and_charges_the_fence() {
        let mut m = Machine::new(MachineConfig::small_test());
        let pid = m.create_process("p", SecurityClass::Insecure);
        for i in 0..32u64 {
            m.access(NodeId(0), pid, i * 64, true);
            m.access(NodeId(1), pid, i * 64 + 4096 * 64, false);
        }
        let params = ArchParams::default();
        let cost = mi6_boundary_cost(&mut m, &params);
        let clock = m.clock();
        assert!(
            cost > clock.us_to_cycles(params.sgx_entry_exit_us),
            "boundary must cost more than the bare SGX transition"
        );
        let stats = m.stats();
        assert_eq!(stats.core_purges as usize, m.config().cores());
        assert_eq!(stats.mem.purges as usize, m.config().controllers);
        // Both cores' private state is gone: the next accesses are cold.
        let hits_before = m.process_stats(pid).l1.hits;
        m.access(NodeId(0), pid, 0, false);
        assert_eq!(m.process_stats(pid).l1.hits, hits_before, "post-boundary access must miss");
    }

    #[test]
    fn boundary_drains_the_network() {
        let mut m = Machine::new(MachineConfig::small_test());
        let pid = m.create_process("p", SecurityClass::Insecure);
        // Congest a route, then verify the boundary resets the link loads.
        for _ in 0..16 {
            for line in 0..64u64 {
                m.access(NodeId(1), pid, line * 64, false);
            }
        }
        let probe = |m: &mut Machine| {
            m.purge_core(NodeId(1));
            m.access(NodeId(1), pid, 0x40, false)
        };
        let congested = probe(&mut m);
        mi6_boundary_cost(&mut m, &ArchParams::default());
        let drained = probe(&mut m);
        assert!(
            drained < congested,
            "the boundary fence must drain link congestion ({drained} >= {congested})"
        );
    }
}
