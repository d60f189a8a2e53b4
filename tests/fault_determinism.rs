//! Determinism, conservation and recovery properties of the fault-injection
//! campaign, on the `faults` bench binary's own smoke grid.

use ironhide::prelude::*;
use ironhide_bench::experiments::faults;
use proptest::prelude::*;

fn run(threads: usize) -> FaultMatrix {
    faults(true, threads).expect("fault sweep runs")
}

/// The serialised campaign must be byte-identical at 1, 2 and 8 worker
/// threads — the same contract the performance, attack and tenancy sweeps
/// carry, now under injected failure.
#[test]
fn fault_matrix_is_byte_identical_across_thread_counts() {
    let baseline = run(1).to_json();
    for threads in [2usize, 8] {
        let json = run(threads).to_json();
        assert_eq!(baseline, json, "thread count {threads} changed the fault matrix");
    }
}

/// Every cell of the pinned campaign conserves tenants and, when audited,
/// discharges its recovery obligation completely.
#[test]
fn pinned_campaign_conserves_and_recovers() {
    let matrix = run(4);
    for cell in &matrix.cells {
        let r = &cell.report;
        assert!(r.conserves_tenants(), "cell [{}] lost tenants", cell.key);
        if cell.key.arch.audited() {
            assert_eq!(
                r.dropped_scrubs_unrecovered, 0,
                "audited cell [{}] left packets unrecovered",
                cell.key
            );
            assert_eq!(
                r.dropped_scrubs_recovered, r.dropped_scrubs_detected,
                "audited cell [{}] detected more than it replayed",
                cell.key
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A fault schedule is a pure function of its (config, seed, horizon,
    /// targets) inputs: redrawing is byte-identical for any seed, rate and
    /// kind — there is no hidden draw counter to desynchronise a replay.
    #[test]
    fn fault_schedules_are_seed_pure_for_any_seed(
        seed in any::<u64>(),
        rate in 0u32..=1000,
        kind_idx in 0usize..FaultKind::ALL.len(),
    ) {
        let config = FaultConfig::for_kind(FaultKind::ALL[kind_idx], rate);
        let a = FaultSchedule::draw(config, seed, 64, 64);
        let b = FaultSchedule::draw(config, seed, 64, 64);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.checksum(), b.checksum());
        prop_assert!(a.events().iter().all(|e| e.at_event < 64 && e.target < 64));
        prop_assert!(a.events().windows(2).all(|w| w[0].at_event < w[1].at_event));
    }
}

proptest! {
    // Each case runs two full (small) campaigns; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The campaign JSON is byte-identical across thread counts for
    /// arbitrary master seeds, not just the pinned one: per-cell seeds are
    /// derived from the cell key, so scheduling order can never leak in.
    #[test]
    fn fault_campaigns_are_thread_invariant_for_any_seed(seed in 0u64..1_000_000) {
        let storm = StormConfig {
            tenants: 16,
            mean_interarrival_cycles: 30_000,
            mean_service_scale: 1,
            host_reserve_cores: 8,
            profiles: tenant_profiles(&AppId::ALL),
        };
        let grid = FaultGrid::new(storm, AdmissionPolicy::Queue)
            .with_kind(FaultKind::TileFailure)
            .with_kind(FaultKind::DroppedScrub)
            .with_rate(250)
            .with_arch(FaultArch::Ironhide)
            .with_arch(FaultArch::Insecure);
        let sweep = |threads: usize| {
            SweepRunner::new(MachineConfig::paper_default())
                .with_seed(seed)
                .with_threads(threads)
                .run_faults(&grid)
                .expect("fault sweep runs")
                .to_json()
        };
        prop_assert_eq!(sweep(1), sweep(4));
    }
}
