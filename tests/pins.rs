//! The pin table: the exact checksums of the deterministic experiments the
//! `BENCH_*.json` binaries run, each recomputed from the same
//! `ironhide_bench::experiments` definition the binary uses.
//!
//! A checksum covers every byte of its experiment's output, so a pin that
//! moves means the simulated semantics changed. Each test runs its sweep at
//! 2 worker threads, in a different process from the binaries' 1/2/8-thread
//! gates, which proves the results are a pure function of (seed, grid): not
//! of process layout, ASLR, linkage order or thread scheduling. This file
//! is the one place the values are enforced; an intentional model change
//! updates them here, regenerates the goldens and the `BENCH_*.json` files,
//! and says so in the changelog.

use ironhide_bench::experiments::{self, simulated_cycles_total, StormParams};

/// `baseline` full grid (36 cells): summed simulated completion cycles.
const FULL_GRID_CYCLES: u64 = 102451907;

/// `baseline --smoke` grid (4 cells): summed simulated completion cycles.
const SMOKE_GRID_CYCLES: u64 = 9755096;

/// `churn --smoke` batched storm: summed stall cycles of 40 reconfigurations.
const SMOKE_STORM_STALL_CYCLES: u64 = 2778250;

/// `tenancy --smoke`: FNV-1a over every cell's SLO checksum.
const TENANCY_SMOKE_CHECKSUM: u64 = 17845519074244044958;

/// `faults --smoke`: FNV-1a over the serialised campaign matrix.
const FAULTS_SMOKE_CHECKSUM: u64 = 12360661825985589235;

/// `ablation --smoke`: FNV-1a over the serialised ablation matrix.
const ABLATION_SMOKE_CHECKSUM: u64 = 1172886106034387684;

#[test]
fn full_grid_checksum_matches_the_bench_binary_pin() {
    let matrix = experiments::baseline(false, 2).expect("baseline sweep runs");
    assert_eq!(matrix.cells.len(), 36);
    assert_eq!(simulated_cycles_total(&matrix), FULL_GRID_CYCLES, "full-grid checksum moved");
}

#[test]
fn baseline_checksum_matches_the_bench_binary_pin() {
    let matrix = experiments::baseline(true, 2).expect("baseline sweep runs");
    assert_eq!(simulated_cycles_total(&matrix), SMOKE_GRID_CYCLES, "smoke-grid checksum moved");
}

#[test]
fn storm_checksum_matches_the_bench_binary_pin() {
    let batched = StormParams::new(true).run(false);
    assert_eq!(batched.stall_checksum, SMOKE_STORM_STALL_CYCLES, "storm stall checksum moved");
}

/// Recomputes the `tenancy --smoke` checksum from this test process. If this
/// moves, either the storm semantics changed (update the pin above, with a
/// changelog entry) or the matrix silently depends on ambient process state
/// (a determinism bug).
#[test]
fn tenancy_checksum_matches_the_bench_binary_pin() {
    let matrix = experiments::tenancy(true, 2).expect("tenancy sweep runs");
    assert_eq!(
        matrix.checksum(),
        TENANCY_SMOKE_CHECKSUM,
        "tenancy smoke checksum moved — bench/CI pins must move with it"
    );
}

/// Recomputes the `faults --smoke` campaign checksum from this test process.
/// If this moves, either the fault/storm semantics changed (update the pin
/// above, with a changelog entry) or the matrix silently depends on ambient
/// process state (a determinism bug).
#[test]
fn fault_checksum_matches_the_bench_binary_pin() {
    let matrix = experiments::faults(true, 2).expect("fault sweep runs");
    assert_eq!(
        matrix.checksum(),
        FAULTS_SMOKE_CHECKSUM,
        "fault smoke campaign checksum moved — bench/CI pins must move with it"
    );
}

/// Recomputes the `ablation --smoke` checksum from this test process. If
/// this moves, either the fence/flush semantics changed (update the pin
/// above, with a changelog entry) or the matrix silently depends on ambient
/// process state (a determinism bug). The smoke matrix's closing
/// structure is checked too, so a moved pin names what moved: every
/// channel's cheapest closing subset is `l1+tlb+dir`, the everything-but-
/// predictor row closes, and the zero-flush row is free.
#[test]
fn ablation_checksum_matches_the_bench_binary_pin() {
    let matrix = experiments::ablation(true, 2).expect("ablation sweep runs");
    assert_eq!(
        matrix.checksum(),
        ABLATION_SMOKE_CHECKSUM,
        "smoke ablation checksum moved — bench/CI pins must move with it"
    );
    for cell in &matrix.cells {
        match cell.key.subset.as_str() {
            "none" => assert_eq!(cell.switch_cost, 0, "[{}] charged a zero flush", cell.key),
            "l1+tlb+dir+noc+dram" => assert!(cell.outcome.is_closed(), "[{}] leaks", cell.key),
            _ => {}
        }
        let best = matrix.cheapest_closed(&cell.key.channel, &cell.key.scale);
        assert_eq!(
            best.map(|b| b.key.subset.as_str()),
            Some("l1+tlb+dir"),
            "{}: cheapest closing subset moved",
            cell.key.channel
        );
    }
}
