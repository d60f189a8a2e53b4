//! The paper's evaluation from one Paper-scale sweep
//! ([`ironhide_bench::experiments::paper`], 108 cells): the scorecard of the
//! paper's reference values, then Figures 1(a), 6, 7 and 8 and the
//! static-isolation ablation, each printed from the matrix's figure queries.

use ironhide_bench::{experiments, print_header, print_row};
use ironhide_core::arch::Architecture;
use ironhide_core::realloc::ReallocPolicy;
use ironhide_core::runner::CompletionReport;
use ironhide_core::sweep::{geometric_mean, Fig6Row, Fig7Row, SweepMatrix};
use ironhide_workloads::app::AppId;

fn main() {
    let matrix = experiments::paper(true, 0).expect("the paper sweep runs");
    assert!(
        matrix.cells.iter().all(|c| c.report.isolation.is_clean()),
        "every cell's isolation audit is clean"
    );
    let fig6 = matrix.fig6(ReallocPolicy::Heuristic);
    scorecard(&matrix);
    figure1(&fig6);
    figure6(&matrix, &fig6);
    figure7(&matrix);
    figure8(&matrix, &fig6);
    ablation(&matrix, &fig6);
}

/// The report of `row`'s application under `arch` and `policy`.
fn report<'a>(
    matrix: &'a SweepMatrix,
    row: &Fig6Row,
    arch: Architecture,
    policy: ReallocPolicy,
) -> &'a CompletionReport {
    &matrix.get(&row.app, arch, policy, &row.scale).expect("the paper sweep holds the cell").report
}

/// The geometric mean of `f` over `rows`.
fn geomean<R>(rows: &[R], f: impl Fn(&R) -> f64) -> f64 {
    geometric_mean(&rows.iter().map(f).collect::<Vec<_>>())
}

fn ms(value: f64) -> String {
    format!("{value:.2}")
}

fn times(value: f64) -> String {
    format!("{value:.2}x")
}

fn scorecard(matrix: &SweepMatrix) {
    println!("# Scorecard: the paper's reference values beside their reproduction\n");
    print_header(&["Figure", "Quantity", "Paper", "Reproduced", "Error"]);
    for row in matrix.scorecard() {
        print_row(&[
            row.value.figure.to_string(),
            row.value.quantity.to_string(),
            row.value.paper.to_string(),
            format!("{:.3}", row.reproduced),
            format!("{:+.1}%", row.relative_error * 100.0),
        ]);
    }
}

fn figure1(rows: &[Fig6Row]) {
    println!("\n# Figure 1(a): normalized geometric-mean completion time (vs. insecure)\n");
    print_header(&["Architecture", "Normalized completion time (geomean)"]);
    let normalized = |time: fn(&Fig6Row) -> f64| times(geomean(rows, |r| time(r) / r.insecure_ms));
    print_row(&[Architecture::SgxLike.to_string(), normalized(|r| r.sgx_ms)]);
    print_row(&[Architecture::Mi6.to_string(), normalized(|r| r.mi6_ms)]);
    print_row(&[Architecture::Ironhide.to_string(), normalized(|r| r.ironhide_ms)]);
}

fn figure6(matrix: &SweepMatrix, rows: &[Fig6Row]) {
    println!("\n# Figure 6: completion time per interactive application (ms)\n");
    print_header(&[
        "Application",
        "SGX compute",
        "SGX overhead",
        "MI6 compute",
        "MI6 overhead",
        "IRONHIDE compute",
        "IRONHIDE overhead+reconfig",
        "IRONHIDE secure cores",
        "MI6/IRONHIDE speedup",
    ]);
    for row in rows {
        let heuristic = |arch| report(matrix, row, arch, ReallocPolicy::Heuristic);
        let sgx = heuristic(Architecture::SgxLike);
        let mi6 = heuristic(Architecture::Mi6);
        let ironhide = heuristic(Architecture::Ironhide);
        print_row(&[
            row.app.clone(),
            ms(sgx.compute_time_ms()),
            ms(sgx.overhead_time_ms()),
            ms(mi6.compute_time_ms()),
            ms(mi6.overhead_time_ms()),
            ms(ironhide.compute_time_ms()),
            ms(ironhide.overhead_time_ms() + ironhide.reconfig_time_ms()),
            row.ironhide_secure_cores.to_string(),
            times(row.mi6_over_ironhide),
        ]);
    }

    println!("\n## Geometric means (completion time, ms)\n");
    print_header(&["Group", "SGX", "MI6", "IRONHIDE", "MI6/IRONHIDE", "SGX/IRONHIDE"]);
    for (group, apps) in [
        ("User-level", AppId::user_level()),
        ("OS-level", AppId::os_level()),
        ("All", AppId::ALL.to_vec()),
    ] {
        let members: Vec<&Fig6Row> =
            rows.iter().filter(|r| apps.iter().any(|a| a.label() == r.app)).collect();
        let sgx = geomean(&members, |r| r.sgx_ms);
        let mi6 = geomean(&members, |r| r.mi6_ms);
        let ironhide = geomean(&members, |r| r.ironhide_ms);
        print_row(&[
            group.to_string(),
            ms(sgx),
            ms(mi6),
            ms(ironhide),
            times(mi6 / ironhide),
            times(sgx / ironhide),
        ]);
    }
}

fn figure7(matrix: &SweepMatrix) {
    println!("\n# Figure 7: cache miss rates (%) under MI6 and IRONHIDE\n");
    print_header(&[
        "Application",
        "MI6 L1 miss %",
        "IRONHIDE L1 miss %",
        "L1 improvement",
        "MI6 L2 miss %",
        "IRONHIDE L2 miss %",
        "L2 improvement",
    ]);
    let rows = matrix.fig7(ReallocPolicy::Heuristic);
    let percent = |rate: f64| format!("{:.1}", rate * 100.0);
    for row in &rows {
        print_row(&[
            row.app.clone(),
            percent(row.mi6_l1),
            percent(row.ironhide_l1),
            format!("{:.1}x", row.l1_gain()),
            percent(row.mi6_l2),
            percent(row.ironhide_l2),
            format!("{:.1}x", row.l2_gain()),
        ]);
    }

    println!("\n## Geometric means\n");
    print_header(&["Metric", "MI6", "IRONHIDE"]);
    let mean = |rate: fn(&Fig7Row) -> f64| format!("{:.1}", geomean(&rows, |r| rate(r) * 100.0));
    print_row(&["L1 miss rate (%)".to_string(), mean(|r| r.mi6_l1), mean(|r| r.ironhide_l1)]);
    print_row(&["L2 miss rate (%)".to_string(), mean(|r| r.mi6_l2), mean(|r| r.ironhide_l2)]);
}

fn figure8(matrix: &SweepMatrix, rows: &[Fig6Row]) {
    println!("\n# Figure 8: sensitivity to the core re-allocation decision\n");
    print_header(&[
        "Predictor decision",
        "Geomean completion time (ms)",
        "Normalized to MI6 (%)",
        "Improvement over MI6",
    ]);
    let mi6 = geomean(rows, |r| r.mi6_ms);
    print_row(&["MI6 baseline".to_string(), ms(mi6), "100.0".to_string(), times(1.0)]);
    let fig8 = matrix.fig8();
    for policy in ReallocPolicy::figure8_set() {
        let decided: Vec<f64> =
            fig8.iter().filter(|r| r.policy == policy).map(|r| r.total_ms).collect();
        let time = geometric_mean(&decided);
        print_row(&[
            policy.to_string(),
            ms(time),
            format!("{:.1}", time / mi6 * 100.0),
            times(mi6 / time),
        ]);
    }
}

fn ablation(matrix: &SweepMatrix, rows: &[Fig6Row]) {
    println!("\n# Ablation: dynamic hardware isolation and partitioning cost\n");
    print_header(&[
        "Application",
        "IRONHIDE static 32/32 (ms)",
        "IRONHIDE dynamic (ms)",
        "Dynamic speedup",
        "SGX-like (ms)",
        "Partitioning cost vs SGX (%)",
    ]);
    for row in rows {
        let fixed = report(matrix, row, Architecture::Ironhide, ReallocPolicy::Static);
        let dynamic = report(matrix, row, Architecture::Ironhide, ReallocPolicy::Heuristic);
        let sgx = report(matrix, row, Architecture::SgxLike, ReallocPolicy::Heuristic);
        print_row(&[
            row.app.clone(),
            ms(fixed.total_time_ms()),
            ms(dynamic.total_time_ms()),
            times(dynamic.speedup_over(fixed)),
            ms(sgx.total_time_ms()),
            format!("{:+.1}", (dynamic.total_time_ms() / sgx.total_time_ms() - 1.0) * 100.0),
        ]);
    }
    let (fixed, dynamic) = matrix
        .policy_geomeans(ReallocPolicy::Static, ReallocPolicy::Heuristic)
        .expect("the paper sweep holds both policies");
    println!("\nGeomean benefit of dynamic hardware isolation: {}", times(fixed / dynamic));
}
