//! Determinism and conservation properties of the multi-tenant churn
//! subsystem, on the `tenancy` bench binary's own smoke grid.

use ironhide::prelude::*;
use ironhide_bench::experiments::{tenancy, tenancy_grid};
use proptest::prelude::*;

fn run(threads: usize) -> TenancyMatrix {
    tenancy(true, threads).expect("tenancy sweep runs")
}

/// The serialised matrix must be byte-identical at 1, 2 and 8 worker
/// threads — the same contract the performance and attack sweeps carry.
#[test]
fn tenancy_matrix_is_byte_identical_across_thread_counts() {
    let baseline = run(1).to_json();
    for threads in [2usize, 8] {
        let json = run(threads).to_json();
        assert_eq!(baseline, json, "thread count {threads} changed the tenancy matrix");
    }
}

/// SLO percentile fields come from exact sorted samples, so they must be
/// identical cell-for-cell across independent sweeps (fresh machines, fresh
/// thread pools), not merely across thread counts.
#[test]
fn slo_percentiles_are_reproducible_across_independent_sweeps() {
    let a = run(4);
    let b = run(4);
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        assert_eq!(ca.key, cb.key);
        assert_eq!(ca.report.slo.checksum(), cb.report.slo.checksum(), "cell {}", ca.key);
        for (num, den) in [(1u64, 2u64), (99, 100), (999, 1000)] {
            assert_eq!(
                ca.report.slo.completion_percentile(num, den),
                cb.report.slo.completion_percentile(num, den),
                "cell {} completion p{num}/{den}",
                ca.key
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The arrival stream is a pure function of its seed: redrawing is
    /// byte-identical, reseeding moves it, and arrival cycles never go
    /// backwards.
    #[test]
    fn arrival_streams_are_seed_pure(seed in 0u64..1_000_000) {
        let generator = ArrivalGenerator::new(20_000, 1, tenant_profiles(&AppId::ALL));
        let a = generator.draw(seed, 64);
        let b = generator.draw(seed, 64);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.windows(2).all(|w| w[0].at_cycle <= w[1].at_cycle));
        let c = generator.draw(seed.wrapping_add(1), 64);
        prop_assert_ne!(&a, &c);
    }

    /// Every admission policy conserves tenants (admitted + denied + queued
    /// == arrived), attests every arrival, and fully drains its queue, for
    /// arbitrary seeds — not just the pinned one.
    #[test]
    fn policies_conserve_tenants(seed in 0u64..1_000_000) {
        let config = tenancy_grid(true).loads.remove(0).config;
        let mut machine = ironhide::ironhide_sim::machine::Machine::new(
            MachineConfig::paper_default(),
        );
        for policy in AdmissionPolicy::ALL {
            let report = TenancyStorm::new(&config, policy)
                .run(&mut machine, seed)
                .expect("storm runs");
            prop_assert!(report.conserves_tenants(), "{policy}: conservation violated");
            prop_assert_eq!(report.attested, report.arrived);
            prop_assert_eq!(report.queued, 0, "{}: queue must drain", policy);
            prop_assert_eq!(report.slo.completions() as u64, report.admitted);
        }
    }
}

/// The reconfiguration-window golden rows, end to end through the facade:
/// shipped purge ordering closes the channel on IRONHIDE with a clean audit;
/// the injected rehome-before-purge mis-ordering opens it.
#[test]
fn window_channel_verdicts_are_golden() {
    let config = MachineConfig::attack_testbench();
    let shipped = WindowAttack::new(config.clone(), PurgeOrder::PurgeThenRehome)
        .assess(Architecture::Ironhide, 7)
        .expect("shipped-order assessment runs");
    assert_eq!(shipped.verdict, ChannelVerdict::Closed, "shipped order: BER {}", shipped.ber);
    assert!(shipped.isolation.is_clean(), "violations: {:?}", shipped.isolation.violations);

    let misordered = WindowAttack::new(config, PurgeOrder::RehomeThenPurge)
        .assess(Architecture::Ironhide, 7)
        .expect("misordered assessment runs");
    assert_eq!(misordered.verdict, ChannelVerdict::Open, "misordered: BER {}", misordered.ber);
}
