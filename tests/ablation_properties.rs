//! Property tests of the temporal-fence defence ablation: flush-subset
//! monotonicity (in both charged cost and channel verdict) and thread-count
//! byte-identity of the `ablation` bench binary's smoke matrix.

use ironhide::prelude::*;
use ironhide_bench::experiments::ablation;
use proptest::prelude::*;

/// Builds a flush subset from the low 6 bits of `bits`, one per resource in
/// canonical order — the whole 64-element subset lattice is reachable.
fn subset_from_bits(bits: u8) -> FlushSet {
    FlushResource::ALL
        .into_iter()
        .enumerate()
        .filter(|(i, _)| bits & (1 << i) != 0)
        .fold(FlushSet::EMPTY, |set, (_, r)| set.with(r))
}

/// Runs the given subsets against the given channels on the covert-channel
/// testbench, in one deterministic sweep.
fn run_subsets(
    subsets: Vec<AblationSpec>,
    channels: Vec<AttackSpec>,
    seed: u64,
    threads: usize,
) -> AblationMatrix {
    let mut grid = AblationGrid::new().with_scale(ScalePoint::new("Smoke"));
    for s in subsets {
        grid = grid.with_subset(s);
    }
    for c in channels {
        grid = grid.with_channel(c);
    }
    SweepRunner::new(MachineConfig::attack_testbench())
        .with_seed(seed)
        .with_threads(threads)
        .run_ablation(&grid)
        .expect("ablation sweep runs")
}

/// Recovers the flush set a matrix row ran with from its subset label (the
/// inverse of [`FlushSet::label`], with the "simf" preset row mapped to the
/// full set it flushes).
fn set_from_label(label: &str) -> FlushSet {
    match label {
        "none" => FlushSet::EMPTY,
        "simf" => FlushSet::FULL,
        _ => label.split('+').fold(FlushSet::EMPTY, |set, part| {
            let resource = FlushResource::ALL
                .into_iter()
                .find(|r| r.label() == part)
                .unwrap_or_else(|| panic!("unknown resource label {part:?} in {label:?}"));
            set.with(resource)
        }),
    }
}

/// Asserts the monotonicity contract over every ⊆-ordered pair of subset
/// rows in `matrix`, for every (channel, scale): growing the flush set never
/// flips a verdict from CLOSED back to OPEN, and never lowers the charged
/// switch cost.
fn assert_matrix_is_monotone(matrix: &AblationMatrix) {
    for a in &matrix.cells {
        for b in &matrix.cells {
            if a.key.channel != b.key.channel || a.key.scale != b.key.scale {
                continue;
            }
            let (sa, sb) = (set_from_label(&a.key.subset), set_from_label(&b.key.subset));
            if !(sa.is_subset_of(sb) && sa != sb) {
                continue;
            }
            assert!(
                a.switch_cost <= b.switch_cost,
                "[{}] charges {} but its superset [{}] only {}",
                a.key,
                a.switch_cost,
                b.key,
                b.switch_cost
            );
            assert!(
                !(a.outcome.is_closed() && b.outcome.is_open()),
                "[{}] is CLOSED (BER {:.3}) but its superset [{}] reopened (BER {:.3})",
                a.key,
                a.outcome.ber,
                b.key,
                b.outcome.ber
            );
        }
    }
}

/// The shipped full ladder (13 subsets × all six channels) is monotone in
/// both verdict and cost over every ⊆-ordered pair of its rows, the
/// zero-flush row leaves every channel OPEN, and the SIMF row closes every
/// channel at the maximum cost of any row.
#[test]
fn shipped_ladder_is_monotone_and_bracketed() {
    let matrix = run_subsets(ablation_subsets(), ablation_channels(), 0xF00D, 4);
    assert_matrix_is_monotone(&matrix);
    let simf_cost = TemporalFenceConfig::simf().switch_cost(&MachineConfig::attack_testbench());
    for cell in &matrix.cells {
        match cell.key.subset.as_str() {
            "none" => {
                assert!(cell.outcome.is_open(), "[{}] closed with nothing flushed", cell.key);
                assert_eq!(cell.switch_cost, 0, "[{}] charged a zero flush", cell.key);
            }
            "simf" => {
                assert!(cell.outcome.is_closed(), "[{}] leaks under SIMF", cell.key);
                assert_eq!(cell.switch_cost, simf_cost);
            }
            _ => assert!(cell.switch_cost < simf_cost, "[{}] out-charges SIMF", cell.key),
        }
    }
}

/// Exhaustive variant of the ladder check: all 64 subsets of the flush
/// lattice against all six channels (384 cells). Too heavy for the default
/// debug-mode test run; `cargo test --release -- --include-ignored` covers
/// it on demand, and the sampled proptest below patrols the same property
/// continuously.
#[test]
#[ignore = "384-cell sweep; run with --include-ignored in release mode"]
fn full_subset_lattice_is_monotone() {
    let subsets = (0u8..64).map(|bits| AblationSpec::subset(subset_from_bits(bits))).collect();
    let matrix = run_subsets(subsets, ablation_channels(), 0xF00D, 8);
    assert_eq!(matrix.cells.len(), 64 * ablation_channels().len());
    assert_matrix_is_monotone(&matrix);
}

/// The serialised smoke ablation must be byte-identical at 1, 2 and 8 worker
/// threads — the same contract the performance, attack, tenancy and fault
/// sweeps carry.
#[test]
fn ablation_matrix_is_byte_identical_across_thread_counts() {
    let baseline = ablation(true, 1).expect("ablation sweep runs").to_json();
    for threads in [2usize, 8] {
        let json = ablation(true, threads).expect("ablation sweep runs").to_json();
        assert_eq!(baseline, json, "thread count {threads} changed the ablation matrix");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The charged switch cost is monotone under subset inclusion for *any*
    /// pair of flush sets and any of the shipped machine geometries — a pure
    /// function of (set, costs, geometry), checked without simulation.
    #[test]
    fn switch_cost_is_monotone_under_inclusion(a in 0u8..64, extra in 0u8..64) {
        let small = subset_from_bits(a);
        let big = subset_from_bits(a | extra);
        for config in [
            MachineConfig::paper_default(),
            MachineConfig::small_test(),
            MachineConfig::attack_testbench(),
        ] {
            let lo = TemporalFenceConfig::selective(small).switch_cost(&config);
            let hi = TemporalFenceConfig::selective(big).switch_cost(&config);
            prop_assert!(lo <= hi, "{} charges {lo} > its superset {} at {hi}",
                small.label(), big.label());
            prop_assert!(hi <= TemporalFenceConfig::simf().switch_cost(&config));
        }
    }
}

proptest! {
    // Each case runs two live attack cells; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sampled verdict monotonicity across the whole subset lattice: for a
    /// random base subset, a random enlargement and a random channel,
    /// enlarging the flush set never flips the verdict from CLOSED to OPEN
    /// and never lowers the charged cost. (The exhaustive 384-cell variant
    /// is the ignored test above.)
    #[test]
    fn enlarging_a_flush_set_never_reopens_a_channel(
        base in 0u8..64,
        extra in 1u8..64,
        channel_idx in 0usize..6,
        seed in 0u64..1_000_000,
    ) {
        if base | extra == base {
            // The enlargement added nothing; the pair is degenerate.
            return;
        }
        let small = subset_from_bits(base);
        let big = subset_from_bits(base | extra);
        let mut channels = ablation_channels();
        prop_assert_eq!(channels.len(), 6);
        let channel = channels.swap_remove(channel_idx);
        let matrix = run_subsets(
            vec![AblationSpec::subset(small), AblationSpec::subset(big)],
            vec![channel],
            seed,
            2,
        );
        prop_assert_eq!(matrix.cells.len(), 2);
        assert_matrix_is_monotone(&matrix);
    }
}
