//! Reconfiguration-storm benchmark: the cost of `ClusterManager::reconfigure`
//! under churn.
//!
//! The ROADMAP's multi-tenant scenario drives thousands of cluster
//! reconfigurations per simulated second, each a stalled purge → rehome →
//! scrub sequence. This harness measures that path in isolation: it warms a
//! paper-default machine (two processes, real pinned pages, resident caches
//! and directories), then runs a seed-deterministic open-loop storm of
//! alternating cluster shapes and times **only** the `reconfigure` calls.
//!
//! Every storm runs twice from identical initial states: once through the
//! scalar reference reconfiguration path (`Machine::set_reconfig_reference`,
//! the pre-batching per-pin/per-line implementation kept as the byte-identity
//! oracle) and once through the default batched path. The harness asserts the
//! two passes agree on the stall-cycle checksum and the pages-rehomed count —
//! an in-process differential gate on every benchmark run — and reports both
//! throughputs plus their ratio, so the committed `BENCH_7.json` carries the
//! speedup claim *and* the evidence the optimisation is observably inert.
//! It also gates that the storm re-homed pages and that the batched pass
//! clears a reconfigs-per-second floor.
//!
//! The full grid also re-runs the BENCH_6 baseline sweeps (full + smoke) and
//! embeds their simulated-cycle checksums, pinning the storm measurement to a
//! simulator whose end-to-end semantics are byte-unchanged.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ironhide-bench --bin churn            # full storm
//! cargo run --release -p ironhide-bench --bin churn -- --smoke # CI smoke
//! cargo run --release -p ironhide-bench --bin churn -- --out path.json
//! ```

use ironhide_bench::experiments::{
    baseline, simulated_cycles_total, StormParams, StormResult, STORM_SEED,
};
use ironhide_bench::{available_parallelism, peak_rss_bytes, BenchCli};

/// The batched pass's `reconfigs_per_sec` floor, chosen with generous slack
/// for host noise: it only catches a catastrophic reconfiguration-path
/// regression.
const RATE_FLOOR: u64 = 1_000;

fn main() {
    let cli = BenchCli::parse("churn", "BENCH_7.json");
    let (smoke, label) = (cli.smoke, cli.label());
    let params = StormParams::new(smoke);

    eprintln!("churn: running {label} storm ({} reconfigs, reference pass)...", params.reconfigs);
    let reference = params.run(true);
    eprintln!("churn: running {label} storm ({} reconfigs, batched pass)...", params.reconfigs);
    let batched = params.run(false);

    // The in-harness differential gate: the batched protocol must be
    // observably identical to the scalar reference, stall cycle for stall
    // cycle, before its throughput may be reported.
    if reference.stall_checksum != batched.stall_checksum {
        eprintln!(
            "churn: DIVERGENCE — batched stall checksum {} != reference {}",
            batched.stall_checksum, reference.stall_checksum
        );
        std::process::exit(1);
    }
    if reference.pages_rehomed != batched.pages_rehomed {
        eprintln!(
            "churn: DIVERGENCE — batched pages_rehomed {} != reference {}",
            batched.pages_rehomed, reference.pages_rehomed
        );
        std::process::exit(1);
    }
    if batched.pages_rehomed == 0 {
        eprintln!("churn: GATE FAILURE — the storm re-homed no pages");
        std::process::exit(1);
    }
    if batched.rate < RATE_FLOOR {
        eprintln!(
            "churn: GATE FAILURE — batched reconfigs_per_sec {} fell below the floor {RATE_FLOOR}",
            batched.rate
        );
        std::process::exit(1);
    }

    // Pin the storm to an end-to-end-unchanged simulator by re-deriving the
    // BENCH_6 baseline checksums (full mode also re-runs the full grid).
    let grids: &[(&str, bool)] =
        if smoke { &[("smoke", true)] } else { &[("full_grid", false), ("smoke", true)] };
    let baseline_checksums: Vec<(&str, u64)> = grids
        .iter()
        .map(|&(name, smoke)| {
            let matrix = baseline(smoke, 1).unwrap_or_else(|e| {
                eprintln!("churn: embedded baseline sweep failed: {e}");
                std::process::exit(1);
            });
            (name, simulated_cycles_total(&matrix))
        })
        .collect();

    let speedup =
        if reference.rate > 0 { batched.rate as f64 / reference.rate as f64 } else { 0.0 };
    let report = render_report(label, &params, &reference, &batched, speedup, &baseline_checksums);
    cli.publish(&report);
}

/// Renders the measurement as deterministic-layout JSON (timing fields vary
/// run to run; everything else, including both checksums, must not).
fn render_report(
    grid_label: &str,
    params: &StormParams,
    reference: &StormResult,
    batched: &StormResult,
    speedup: f64,
    baseline_checksums: &[(&str, u64)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"reconfiguration_storm\",\n");
    out.push_str(&format!("  \"grid\": \"{grid_label}\",\n"));
    out.push_str(&format!("  \"master_seed\": {STORM_SEED},\n"));
    out.push_str(&format!("  \"reconfigs\": {},\n", params.reconfigs));
    out.push_str(&format!("  \"warm_pages_per_process\": {},\n", params.warm_pages));
    for (name, r) in [("reference", reference), ("batched", batched)] {
        out.push_str(&format!("  \"{name}\": {{\n"));
        out.push_str(&format!("    \"wall_seconds\": {:.6},\n", r.wall_s));
        out.push_str(&format!("    \"reconfigs_per_sec\": {},\n", r.rate));
        out.push_str(&format!("    \"stall_cycle_checksum\": {},\n", r.stall_checksum));
        out.push_str(&format!("    \"pages_rehomed\": {},\n", r.pages_rehomed));
        out.push_str(&format!("    \"scrub_probes\": {}\n", r.scrub_probes));
        out.push_str("  },\n");
    }
    out.push_str(&format!("  \"speedup\": {speedup:.2},\n"));
    out.push_str("  \"baseline_checksums\": {\n");
    for (i, (name, sum)) in baseline_checksums.iter().enumerate() {
        let sep = if i + 1 == baseline_checksums.len() { "" } else { "," };
        out.push_str(&format!("    \"{name}\": {sum}{sep}\n"));
    }
    out.push_str("  },\n");
    out.push_str(&format!("  \"peak_rss_bytes\": {},\n", peak_rss_bytes()));
    out.push_str(&format!("  \"available_parallelism\": {}\n", available_parallelism()));
    out.push_str("}\n");
    out
}
