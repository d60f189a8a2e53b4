//! Property tests of the sweep harness's determinism contract and of the
//! paper's Figure 6 completion-time orderings on the Smoke scale.

use ironhide::prelude::*;
use proptest::prelude::*;

/// Cheap-but-representative parameters: a short warm-up and predictor sample
/// keep the grid fast without changing any determinism property.
fn fast_params() -> ArchParams {
    ArchParams { warmup_interactions: 2, predictor_sample: 2, ..ArchParams::default() }
}

fn runner(seed: u64, threads: usize) -> SweepRunner {
    SweepRunner::new(MachineConfig::paper_default())
        .with_params(fast_params())
        .with_seed(seed)
        .with_threads(threads)
}

fn small_grid() -> SweepGrid {
    sweep_grid(
        &[AppId::QueryAes, AppId::SsspGraph, AppId::MemcachedOs],
        &Architecture::ALL,
        &[ReallocPolicy::Static],
        &[ScaleFactor::Smoke],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The same master seed yields a byte-identical serialised matrix whether
    /// the sweep runs on 1, 2 or 8 worker threads.
    #[test]
    fn matrix_is_byte_identical_across_thread_counts(seed in 0u64..1_000_000) {
        let grid = small_grid();
        let baseline = runner(seed, 1).run(&grid).unwrap().to_json();
        for threads in [2usize, 8] {
            let json = runner(seed, threads).run(&grid).unwrap().to_json();
            prop_assert_eq!(
                &json,
                &baseline,
                "thread count {} changed the matrix under seed {}",
                threads,
                seed
            );
        }
    }

    /// Cell seeds are pure functions of (master seed, cell key): different
    /// master seeds re-seed every cell, and — because the paper's workloads
    /// are deterministic by design — the reports themselves do not move.
    #[test]
    fn reseeding_moves_seeds_but_not_paper_reports(a in 0u64..1_000_000, b in 1_000_000u64..2_000_000) {
        let grid = sweep_grid(
            &[AppId::QueryAes],
            &[Architecture::Ironhide],
            &[ReallocPolicy::Static],
            &[ScaleFactor::Smoke],
        );
        let ma = runner(a, 2).run(&grid).unwrap();
        let mb = runner(b, 2).run(&grid).unwrap();
        prop_assert_ne!(ma.cells[0].seed, mb.cells[0].seed);
        prop_assert_eq!(ma.cells[0].report.total_cycles, mb.cells[0].report.total_cycles);
        prop_assert_eq!(ma.cells[0].report.secure_cores, mb.cells[0].report.secure_cores);
    }
}

/// Figure 6's qualitative result on the Smoke scale, over all nine
/// applications: the insecure baseline is never slower than IRONHIDE, and
/// IRONHIDE is never slower than MI6.
#[test]
fn fig6_orderings_hold_on_smoke_scale() {
    let grid = sweep_grid(
        &AppId::ALL,
        &Architecture::ALL,
        &[ReallocPolicy::Static],
        &[ScaleFactor::Smoke],
    );
    let matrix = runner(0, 0).run(&grid).expect("full smoke sweep runs");
    assert_eq!(matrix.cells.len(), AppId::ALL.len() * Architecture::ALL.len());

    let violations = matrix.fig6_ordering_violations(ReallocPolicy::Static);
    assert!(violations.is_empty(), "Figure 6 orderings violated:\n{}", violations.join("\n"));

    // The aggregate view the paper leads with: geometric-mean completion
    // times order the same way.
    let rows = matrix.fig6(ReallocPolicy::Static);
    assert_eq!(rows.len(), AppId::ALL.len());
    let geo = |f: fn(&Fig6Row) -> f64| {
        ironhide::ironhide_core::sweep::geometric_mean(&rows.iter().map(f).collect::<Vec<_>>())
    };
    let insecure = geo(|r| r.insecure_ms);
    let ironhide = geo(|r| r.ironhide_ms);
    let mi6 = geo(|r| r.mi6_ms);
    let sgx = geo(|r| r.sgx_ms);
    assert!(insecure <= ironhide, "geomean: insecure {insecure} > ironhide {ironhide}");
    assert!(ironhide <= mi6, "geomean: ironhide {ironhide} > mi6 {mi6}");
    assert!(insecure <= sgx, "geomean: insecure {insecure} > sgx {sgx}");

    // Every run upheld strong isolation where the architecture promises it.
    for cell in &matrix.cells {
        assert!(
            cell.report.isolation.is_clean(),
            "{}: {:?}",
            cell.key,
            cell.report.isolation.violations
        );
    }
}

/// Figure 7's qualitative result: MI6's per-interaction purges inflate the
/// private L1 miss rate relative to IRONHIDE on the purge-sensitive
/// workloads; the rates the matrix reports agree with the raw reports.
#[test]
fn fig7_miss_rate_deltas_are_queryable() {
    let grid = sweep_grid(
        &[AppId::QueryAes, AppId::MemcachedOs],
        &[Architecture::Mi6, Architecture::Ironhide],
        &[ReallocPolicy::Static],
        &[ScaleFactor::Smoke],
    );
    let matrix = runner(0, 0).run(&grid).unwrap();
    let rows = matrix.fig7(ReallocPolicy::Static);
    assert_eq!(rows.len(), 2);
    for row in &rows {
        assert!(
            row.l1_gain() >= 1.0,
            "{}: MI6 purging should not *reduce* the L1 miss rate (MI6 {} vs IRONHIDE {})",
            row.app,
            row.mi6_l1,
            row.ironhide_l1
        );
        let mi6 = matrix.get(&row.app, Architecture::Mi6, ReallocPolicy::Static, "Smoke").unwrap();
        assert!((row.mi6_l1 - mi6.report.l1_miss_rate).abs() < 1e-15);
    }
}

/// Figure 8's comparison is queryable: heuristic re-allocation is available
/// per app, and the heuristic-vs-static geometric means come from the same
/// cells fig8() exposes.
#[test]
fn fig8_heuristic_vs_static_is_queryable() {
    let grid = sweep_grid(
        &[AppId::QueryAes],
        &[Architecture::Ironhide],
        &[ReallocPolicy::Static, ReallocPolicy::Heuristic],
        &[ScaleFactor::Smoke],
    );
    let matrix = runner(0, 0).run(&grid).unwrap();
    let fig8 = matrix.fig8();
    assert_eq!(fig8.len(), 2, "one row per policy");
    assert!(fig8.iter().all(|r| r.total_ms > 0.0 && r.secure_cores >= 1));
    let (heuristic, static_) = matrix
        .policy_geomeans(ReallocPolicy::Heuristic, ReallocPolicy::Static)
        .expect("both policies present");
    assert!(heuristic > 0.0 && static_ > 0.0);
}
