//! The reproduction's distance from the paper, pinned: every scorecard row
//! the Paper-scale heuristic sweep reproduces, at three decimals, beside the
//! paper's value.
//!
//! The pins hold the model, not a tolerance band. A value that moves means
//! the model changed: update its pin here and say so in the changelog. Known
//! gaps stay pinned as gaps — SGX / IRONHIDE below 1 where the paper has
//! IRONHIDE 20% faster, the purge-component gain, Figure 7's miss-rate
//! gains — and no tolerance is ever widened to hide one. Figure 8's Optimal
//! row needs the exhaustive-policy cells, which only the `paper_figures`
//! bench runs. The grid's summed simulated cycles are pinned too: they are
//! perfbench's fig-paper identity checksum.

use std::sync::OnceLock;

use ironhide::prelude::SweepMatrix;
use ironhide_bench::experiments;

/// The 36-cell Paper-scale heuristic sweep, run once for every test here.
fn paper_matrix() -> &'static SweepMatrix {
    static MATRIX: OnceLock<SweepMatrix> = OnceLock::new();
    MATRIX.get_or_init(|| experiments::paper(false, 2).expect("the paper sweep runs"))
}

/// (figure, quantity, paper value, reproduced value at three decimals), in
/// scorecard order.
const PINNED: [(&str, &str, f64, &str); 8] = [
    ("Fig 1", "SGX / Insecure completion time", 1.33, "1.126"),
    ("Fig 1", "MI6 / Insecure completion time", 2.25, "2.393"),
    ("Fig 1", "MI6 / IRONHIDE completion time", 2.1, "2.057"),
    ("Fig 1", "SGX / IRONHIDE completion time", 1.2, "0.968"),
    ("Fig 6", "MI6 purge per interaction (ms)", 0.19, "0.183"),
    ("Fig 6", "purge-component gain over MI6", 706.0, "125.189"),
    ("Fig 7", "largest L1 miss-rate gain over MI6", 5.9, "2.692"),
    ("Fig 7", "largest L2 miss-rate gain over MI6", 2.0, "0.952"),
];

#[test]
fn every_reproduced_paper_value_matches_its_pin() {
    let rows: Vec<(&str, &str, f64, String)> = paper_matrix()
        .scorecard()
        .iter()
        .map(|r| (r.value.figure, r.value.quantity, r.value.paper, format!("{:.3}", r.reproduced)))
        .collect();
    let pinned: Vec<(&str, &str, f64, String)> = PINNED
        .iter()
        .map(|&(figure, quantity, paper, value)| (figure, quantity, paper, value.into()))
        .collect();
    assert_eq!(rows, pinned, "a reproduced paper value moved: the model changed");
}

/// The same grid is perfbench's fig-paper workload, whose identity checksum
/// is the sum of every cell's `total_cycles`: pinned here so tier 1 checks it.
#[test]
fn paper_grid_cycles_match_the_perfbench_identity() {
    let cells = &paper_matrix().cells;
    assert_eq!(cells.len(), 36);
    let total: u64 = cells.iter().map(|c| c.report.total_cycles).sum();
    assert_eq!(total, 1_499_884_198, "the paper grid's simulated cycles moved: the model changed");
}
