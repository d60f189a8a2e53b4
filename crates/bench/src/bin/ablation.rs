//! The temporal-fence defence-ablation harness (BENCH_10).
//!
//! Sweeps the `TemporalFence` architecture's {flush subset × channel} grid
//! on the covert-channel testbench and reports, per channel, which flush
//! subset closes it at what switch cost — the experiment the fence.t.s paper
//! runs in silicon, reproduced across all six shipped channels (including
//! the directory, mesh-contention and reconfiguration-window channels no
//! hardware paper can reach). The output JSON (`BENCH_10.json` in the repo
//! root) embeds the full deterministic matrix, a per-channel
//! cheapest-closing-subset summary, and the FNV checksum `tests/pins.rs`
//! pins.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ironhide-bench --bin ablation            # full grid
//! cargo run --release -p ironhide-bench --bin ablation -- --smoke # CI smoke
//! cargo run --release -p ironhide-bench --bin ablation -- --out path.json
//! ```
//!
//! The grid runs at 1, 2 and 8 workers and the harness exits non-zero
//! unless all three serialised matrices are **byte-identical** (the sweep
//! runner's determinism contract). The harness also enforces the
//! ablation's differential claim: every channel must decode under the
//! zero-flush fence (it is the insecure baseline), SIMF must close every
//! channel, and some selective subset must close each channel at a strictly
//! lower switch cost than SIMF.

use ironhide_bench::experiments::ablation;
use ironhide_bench::{identical_across_threads, BenchCli, THREAD_COUNTS};
use ironhide_core::sweep::AblationMatrix;
use ironhide_sim::config::MachineConfig;
use ironhide_sim::fence::TemporalFenceConfig;

/// The subset row every channel must stay open under.
const NONE_LABEL: &str = "none";

/// The flush-everything preset row.
const SIMF_LABEL: &str = "simf";

fn main() {
    let cli = BenchCli::parse("ablation", "BENCH_10.json");
    let (smoke, label) = (cli.smoke, cli.label());

    // Byte-identity gate: every thread count must serialise the exact same
    // matrix.
    let runs = identical_across_threads(&THREAD_COUNTS, |threads| {
        eprintln!("ablation: running {label} grid at {threads} thread(s)...");
        ablation(smoke, threads)
    })
    .unwrap_or_else(|e| {
        eprintln!("ablation: {e}");
        std::process::exit(1);
    });
    let (matrix, matrix_json, wall) = (runs.matrix, runs.json, runs.walls[0].1);

    // The differential gate: open under zero flush, closed under SIMF, and
    // closed strictly cheaper than SIMF by some selective subset.
    let violations = matrix.differential_violations(NONE_LABEL, SIMF_LABEL);
    if !violations.is_empty() {
        eprintln!("ablation: the differential claim FAILED:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }

    let report = render_report(&matrix, &matrix_json, label, wall);
    cli.publish(&report);
}

/// Renders the measurement as deterministic-layout JSON (only
/// `wall_seconds` varies run to run; every other byte, including the
/// embedded matrix and its checksum, must not).
fn render_report(
    matrix: &AblationMatrix,
    matrix_json: &str,
    grid_label: &str,
    wall_s: f64,
) -> String {
    let simf_cost = TemporalFenceConfig::simf().switch_cost(&MachineConfig::attack_testbench());
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"temporal_fence_ablation\",\n");
    out.push_str(&format!("  \"grid\": \"{grid_label}\",\n"));
    out.push_str(&format!("  \"cells\": {},\n", matrix.cells.len()));
    out.push_str(&format!("  \"master_seed\": {},\n", matrix.master_seed));
    out.push_str(&format!("  \"wall_seconds\": {wall_s:.3},\n"));
    out.push_str(&format!("  \"thread_counts_identical\": {THREAD_COUNTS:?},\n"));
    out.push_str(&format!("  \"ablation_checksum\": {},\n", matrix.checksum()));
    out.push_str(&format!("  \"simf_switch_cost\": {simf_cost},\n"));

    // Per-channel closure summary: what the channel costs to close, and how
    // far below flushing everything that sits.
    let mut channels: Vec<(String, String)> = Vec::new();
    for cell in &matrix.cells {
        let pair = (cell.key.channel.clone(), cell.key.scale.clone());
        if !channels.contains(&pair) {
            channels.push(pair);
        }
    }
    out.push_str("  \"channels\": [\n");
    for (i, (channel, scale)) in channels.iter().enumerate() {
        let open = matrix.get(NONE_LABEL, channel, scale).expect("the none row ran");
        let simf = matrix.get(SIMF_LABEL, channel, scale).expect("the simf row ran");
        let best = matrix.cheapest_closed(channel, scale).expect("the differential gate passed");
        let sep = if i + 1 == channels.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"channel\": \"{channel}\", \"scale\": \"{scale}\", \
             \"none_ber\": {:.3}, \"simf_ber\": {:.3}, \"simf_switch_cost\": {}, \
             \"cheapest_closed_subset\": \"{}\", \"cheapest_closed_cost\": {}, \
             \"saved_vs_simf\": {}}}{sep}\n",
            open.outcome.ber,
            simf.outcome.ber,
            simf.switch_cost,
            best.key.subset,
            best.switch_cost,
            simf.switch_cost - best.switch_cost,
        ));
    }
    out.push_str("  ],\n");

    // The full matrix, embedded verbatim: BENCH_10 is self-contained
    // evidence, not a pointer to a run that no longer exists.
    out.push_str("  \"matrix\": ");
    out.push_str(&matrix_json.trim_end().replace('\n', "\n  "));
    out.push_str("\n}\n");
    out
}
