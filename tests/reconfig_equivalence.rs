//! Differential tests for the O(moved-state) reconfiguration path.
//!
//! PR 7 rebuilt cluster reconfiguration around batched primitives — the
//! slice→pages reverse index behind `rehome_all_logged`, the one-pass
//! `invalidate_page_run`/`invalidate_page_set` cache sweeps, the directory's
//! `drop_page_lines` sharer census, and the `route_epoch` no-op rule. The
//! scalar pre-batching implementation is kept on `Machine` behind
//! `set_reconfig_reference(true)` as the byte-identity oracle; these
//! properties drive both paths through identical histories and require
//! identical observable outcomes: per-call `(moved, cycles)` returns, access
//! latencies, every machine counter, and the post-scrub latency of probing
//! the moved pages again (which would expose any line a batched scrub left
//! behind, or any it flushed too eagerly).

use proptest::prelude::*;

use ironhide::ironhide_cache::SliceId;
use ironhide::ironhide_core::arch::ArchParams;
use ironhide::ironhide_core::arch::Architecture;
use ironhide::ironhide_core::realloc::ReallocPolicy;
use ironhide::ironhide_core::sweep::SweepRunner;
use ironhide::ironhide_core::ClusterManager;
use ironhide::ironhide_mesh::{ClusterId, NodeId};
use ironhide::ironhide_sim::config::MachineConfig;
use ironhide::ironhide_sim::machine::Machine;
use ironhide::ironhide_sim::process::{ProcessId, SecurityClass};
use ironhide::ironhide_workloads::app::{sweep_grid, AppId, ScaleFactor};
use ironhide_bench::experiments::warm;

// ---------------------------------------------------------------------------
// Machine-level differential: random pin tables, slice restrictions and
// purge interleavings on the small 2×2 machine (4 cores, 4 slices).
// ---------------------------------------------------------------------------

/// One step of the differential driver.
#[derive(Debug, Clone)]
enum Op {
    /// Touch a page (allocating and pinning it on first touch).
    Access { core: usize, pid: usize, page: u64, write: bool },
    /// Restrict a process's pages to the slices in `mask` (non-empty),
    /// re-homing and scrubbing everything pinned outside it.
    Restrict { pid: usize, mask: u8 },
    /// Re-apply the process's current restriction verbatim: the batched
    /// path's `route_epoch` no-op rule must be unobservable against the
    /// reference, which always bumps the epoch and rescans every pin.
    Reapply { pid: usize },
    /// Generational slice purge between reconfigurations.
    PurgeSlices { slice: usize },
    /// Private-state purge of one tile.
    PurgeCore { core: usize },
}

/// Decodes one sampled word into a driver step (the vendored proptest shim
/// has no tuple/oneof combinators, so structure is derived from plain
/// `u64`s). Accesses dominate so real pin tables build up between the
/// rarer reconfiguration and purge steps.
fn decode_op(word: u64) -> Op {
    match word % 12 {
        0 | 1 => {
            Op::Restrict { pid: (word >> 8) as usize % 2, mask: (1 + (word >> 16) % 15) as u8 }
        }
        2 => Op::Reapply { pid: (word >> 8) as usize % 2 },
        3 => Op::PurgeSlices { slice: (word >> 8) as usize % 4 },
        4 => Op::PurgeCore { core: (word >> 8) as usize % 4 },
        _ => Op::Access {
            core: (word >> 4) as usize % 4,
            pid: (word >> 6) as usize % 2,
            page: (word >> 8) % 48,
            write: (word >> 16).is_multiple_of(2),
        },
    }
}

/// The slice set a restriction mask denotes, in ascending order (the order
/// is part of the contract: round-robin re-homing spreads by position).
fn slices_of(mask: u8) -> Vec<SliceId> {
    (0..4usize).filter(|s| mask & (1 << s) != 0).map(SliceId).collect()
}

/// Builds one of the twin machines: two processes of opposite security
/// classes on the small test geometry.
fn twin() -> (Machine, [ProcessId; 2]) {
    let mut machine = Machine::new(MachineConfig::small_test());
    let secure = machine.create_process("twin-secure", SecurityClass::Secure);
    let insecure = machine.create_process("twin-insecure", SecurityClass::Insecure);
    (machine, [secure, insecure])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The batched reconfiguration path (indexed rehome + page-run scrub) is
    /// byte-identical to the scalar reference over random access/restrict/
    /// purge histories: every return value, every latency, every statistic,
    /// and the post-scrub probe latencies of the whole page range.
    #[test]
    fn reconfiguration_matches_scalar_reference(
        words in prop::collection::vec(any::<u64>(), 1..120),
    ) {
        let ops: Vec<Op> = words.iter().map(|w| decode_op(*w)).collect();
        let (mut batched, pids) = twin();
        let (mut reference, ref_pids) = twin();
        prop_assert_eq!(pids, ref_pids, "twin machines must number processes alike");
        reference.set_reconfig_reference(true);

        // The restriction each process currently lives under, for Reapply.
        let mut current: [Vec<SliceId>; 2] =
            [batched.process_slices(pids[0]), batched.process_slices(pids[1])];

        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Access { core, pid, page, write } => {
                    let vaddr = page * 4096 + (i as u64 % 64) * 64;
                    let a = batched.access(NodeId(*core), pids[*pid], vaddr, *write);
                    let b = reference.access(NodeId(*core), pids[*pid], vaddr, *write);
                    prop_assert_eq!(a, b, "access #{} page {} diverged", i, page);
                }
                Op::Restrict { pid, mask } => {
                    let slices = slices_of(*mask);
                    let a = batched.set_process_slices(pids[*pid], &slices);
                    let b = reference.set_process_slices(pids[*pid], &slices);
                    prop_assert_eq!(a, b, "restrict #{} mask {:#x} diverged", i, mask);
                    current[*pid] = slices;
                }
                Op::Reapply { pid } => {
                    let slices = current[*pid].clone();
                    let a = batched.set_process_slices(pids[*pid], &slices);
                    let b = reference.set_process_slices(pids[*pid], &slices);
                    prop_assert_eq!(a, b, "reapply #{} diverged", i);
                    prop_assert_eq!(a, (0, 0), "re-applying a restriction must move nothing");
                }
                Op::PurgeSlices { slice } => {
                    let s = [SliceId(*slice)];
                    prop_assert_eq!(batched.purge_slices(&s), reference.purge_slices(&s));
                }
                Op::PurgeCore { core } => {
                    let c = NodeId(*core);
                    prop_assert_eq!(batched.purge_core(c), reference.purge_core(c));
                }
            }
        }

        // Post-scrub probes: re-touch every page in the driver's range from
        // every core. A line the batched scrub failed to invalidate hits
        // where the reference misses (and vice versa), so latency equality
        // here pins the final cache/directory state, not just the counters.
        for page in 0..48u64 {
            for core in 0..4usize {
                for pid in pids {
                    let vaddr = page * 4096 + 32;
                    let a = batched.access(NodeId(core), pid, vaddr, false);
                    let b = reference.access(NodeId(core), pid, vaddr, false);
                    prop_assert_eq!(a, b, "post-scrub probe page {} core {} diverged", page, core);
                }
            }
        }

        let a = format!("{:?}", batched.stats());
        let b = format!("{:?}", reference.stats());
        prop_assert_eq!(a, b, "machine statistics diverged");
        for pid in pids {
            prop_assert_eq!(
                format!("{:?}", batched.process_stats(pid)),
                format!("{:?}", reference.process_stats(pid)),
                "process statistics diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// ClusterManager-level differential: the full purge → rehome → scrub
// protocol on the paper-scale machine, under a directed storm.
// ---------------------------------------------------------------------------

/// Runs the directed reconfiguration storm through one protocol path and
/// returns every observable: per-reconfiguration stall cycles, the final
/// machine statistics, and post-storm foreign-probe latencies over the last
/// warm window from both clusters. Between reconfigurations the churn
/// harness's sliding-window warm-up keeps pins, cache lines and directory
/// entries resident and keeps fresh pages pinning onto the current shape.
fn run_storm(reference: bool) -> (Vec<u64>, String, Vec<u64>) {
    const TARGETS: [usize; 6] = [8, 40, 16, 56, 24, 32];
    const RECONFIGS: usize = 8;
    const WARM_PAGES: u64 = 32;

    let mut machine = Machine::new(MachineConfig::paper_default());
    let secure = machine.create_process("storm-secure", SecurityClass::Secure);
    let insecure = machine.create_process("storm-insecure", SecurityClass::Insecure);
    let (mut manager, _) =
        ClusterManager::form(&mut machine, secure, insecure, 32).expect("initial clusters");
    warm(&mut machine, &manager, secure, insecure, 0, WARM_PAGES);
    machine.set_reconfig_reference(reference);

    let mut stalls = Vec::with_capacity(RECONFIGS);
    let mut last_base = 0;
    for (i, &target) in TARGETS.iter().cycle().take(RECONFIGS).enumerate() {
        let cycles =
            manager.reconfigure(&mut machine, secure, insecure, target).expect("valid storm shape");
        stalls.push(cycles);
        last_base = (i as u64 + 1) * WARM_PAGES / 4;
        warm(&mut machine, &manager, secure, insecure, last_base, WARM_PAGES);
    }

    let mut probes = Vec::new();
    let sc = manager.cores_iter(ClusterId::Secure).next().expect("non-empty secure cluster");
    let ic = manager.cores_iter(ClusterId::Insecure).next().expect("non-empty insecure cluster");
    for p in last_base..last_base + WARM_PAGES {
        probes.push(machine.access(sc, secure, p * 4096 + 16, false));
        probes.push(machine.access(ic, insecure, p * 4096 + 16, false));
    }
    (stalls, format!("{:?}", machine.stats()), probes)
}

/// The full `ClusterManager::reconfigure` protocol — tile purges, slice
/// purges, indexed re-home, batched scrub — charges exactly the reference's
/// stall cycles on every storm step and leaves a byte-identical machine.
#[test]
fn cluster_storm_matches_scalar_reference() {
    let (ref_stalls, ref_stats, ref_probes) = run_storm(true);
    let (bat_stalls, bat_stats, bat_probes) = run_storm(false);
    assert_eq!(bat_stalls, ref_stalls, "per-reconfiguration stall cycles diverged");
    assert_eq!(bat_stats, ref_stats, "post-storm machine statistics diverged");
    assert_eq!(bat_probes, ref_probes, "post-storm probe latencies diverged");
}

// ---------------------------------------------------------------------------
// Sweep-level determinism: the heuristic grid reconfigures continuously, so
// it exercises the batched path end to end; its matrix must not depend on
// the worker-thread count.
// ---------------------------------------------------------------------------

/// A reconfiguration-heavy sweep (heuristic re-allocation over every
/// architecture) serialises byte-identically on 1, 2 and 8 worker threads.
#[test]
fn heuristic_storm_matrix_is_thread_invariant() {
    let grid = sweep_grid(
        &[AppId::QueryAes, AppId::PrGraph],
        &Architecture::ALL,
        &[ReallocPolicy::Heuristic],
        &[ScaleFactor::Smoke],
    );
    let params =
        ArchParams { warmup_interactions: 2, predictor_sample: 2, ..ArchParams::default() };
    let run = |threads: usize| {
        SweepRunner::new(MachineConfig::paper_default())
            .with_params(params)
            .with_seed(7)
            .with_threads(threads)
            .run(&grid)
            .expect("heuristic smoke sweep runs")
            .to_json()
    };
    let baseline = run(1);
    for threads in [2usize, 8] {
        assert_eq!(
            run(threads),
            baseline,
            "thread count {threads} changed the heuristic storm matrix"
        );
    }
}
