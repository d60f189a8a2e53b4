//! Throughput baseline for the simulator's memory-access hot path.
//!
//! Runs a fixed, fully deterministic Smoke-scale sweep (every interactive
//! application under every execution architecture, heuristic re-allocation)
//! and reports how fast the *simulator itself* executed it: simulated memory
//! accesses per wall-clock second, wall time, and peak RSS. The output JSON
//! (`BENCH_<n>.json` in the repo root) is the recorded perf trajectory: every
//! PR that touches the hot path re-runs this harness and commits the new
//! figure next to the old ones.
//!
//! The headline `accesses_per_sec` is measured on **one** worker thread
//! (sequential hot-path cost); a `scaling` section then re-runs the same
//! grid at 1, 2 and 8 workers, recording how wall time scales, and the
//! harness exits non-zero unless every run serialises the byte-identical
//! matrix — the determinism the sweep runner guarantees.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ironhide-bench --bin baseline            # full grid
//! cargo run --release -p ironhide-bench --bin baseline -- --smoke # CI smoke
//! cargo run --release -p ironhide-bench --bin baseline -- --out path.json
//! ```
//!
//! The access count is the number of simulated memory accesses across
//! **every** phase of every cell — predictor probes, warm-up and the
//! measured phase (`CompletionReport::sim_accesses_total`). All of those
//! accesses run through the same simulation hot path and dominate the wall
//! time the rate divides by, so this is the honest throughput denominator;
//! BENCH_2 through BENCH_5 counted the measured phase only (~26 % of the
//! work, documented then as a conservative lower bound), so their
//! `accesses_per_sec` values are comparable with each other but not with
//! BENCH_6 onward. The measured-phase count is still reported as
//! `measured_accesses`. The simulated results themselves are
//! byte-deterministic, so `total_cycles` doubles as a semantics checksum:
//! two builds of the same simulator must agree on it exactly. (The checksum
//! moved 93304015 → 102277232 between BENCH_2 and BENCH_4 when the MI6
//! boundary model was unified with the attack runner's, 102277232 →
//! 102599801 when the MESI directory landed, and 102599801 → 102451907 when
//! the parallel-ack invalidation model replaced summed sharer round trips —
//! all intentional, documented model changes.)
//!
//! The scaling section records `std::thread::available_parallelism` and
//! flags every point where `threads > cores`: on a 1-CPU container an
//! "8-thread" run measures scheduling overhead, not parallel speedup, and
//! BENCH_5's flat-to-negative scaling read as a parallelism bug until that
//! distinction was recorded.
//!
//! Besides thread identity, the harness gates that the grid simulated
//! accesses, that the all-phase count covers the measured phase, and that
//! the headline rate clears a floor chosen with generous slack for host
//! noise: it only catches a catastrophic hot-path regression.

use ironhide_bench::experiments::{baseline, simulated_cycles_total};
use ironhide_bench::{
    available_parallelism, identical_across_threads, peak_rss_bytes, BenchCli, THREAD_COUNTS,
};
use ironhide_core::sweep::SweepMatrix;

/// The headline `accesses_per_sec` floor.
const RATE_FLOOR: u64 = 400_000;

fn main() {
    let cli = BenchCli::parse("baseline", "BENCH_6.json");
    let (smoke, label) = (cli.smoke, cli.label());
    let runs = identical_across_threads(&THREAD_COUNTS, |threads| {
        eprintln!("baseline: running {label} grid at {threads} thread(s)...");
        baseline(smoke, threads)
    })
    .unwrap_or_else(|e| {
        eprintln!("baseline: {e}");
        std::process::exit(1);
    });

    let accesses: u64 = runs.matrix.cells.iter().map(|c| c.report.sim_accesses_total).sum();
    let measured: u64 = runs.matrix.cells.iter().map(|c| c.report.machine.l1.accesses).sum();
    // The headline figures come from the first (single-threaded) run.
    let rate = per_sec(accesses, runs.walls[0].1);
    let failures = [
        (accesses == 0, format!("the {label} grid simulated no accesses")),
        (
            accesses < measured,
            format!("all-phase accesses {accesses} undercut the measured phase's {measured}"),
        ),
        (rate < RATE_FLOOR, format!("accesses_per_sec {rate} fell below the floor {RATE_FLOOR}")),
    ];
    for (failed, why) in failures {
        if failed {
            eprintln!("baseline: GATE FAILURE — {why}");
            std::process::exit(1);
        }
    }

    let report = render_report(&runs.matrix, label, accesses, measured, &runs.walls);
    cli.publish(&report);
}

/// `count` per wall-clock second, rounded.
fn per_sec(count: u64, wall_s: f64) -> u64 {
    if wall_s > 0.0 {
        (count as f64 / wall_s).round() as u64
    } else {
        0
    }
}

/// Renders the measurement as deterministic-layout JSON (the values of the
/// timing fields naturally vary run to run; the layout does not).
fn render_report(
    matrix: &SweepMatrix,
    grid_label: &str,
    accesses: u64,
    measured: u64,
    walls: &[(usize, f64)],
) -> String {
    let sim_cycles = simulated_cycles_total(matrix);
    let wall_s = walls[0].1;
    let cores = available_parallelism();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"access_hot_path_baseline\",\n");
    out.push_str(&format!("  \"grid\": \"{grid_label}\",\n"));
    out.push_str(&format!("  \"cells\": {},\n", matrix.cells.len()));
    out.push_str(&format!("  \"master_seed\": {},\n", matrix.master_seed));
    out.push_str(&format!("  \"accesses\": {accesses},\n"));
    out.push_str(&format!("  \"measured_accesses\": {measured},\n"));
    out.push_str(&format!("  \"wall_seconds\": {wall_s:.3},\n"));
    out.push_str(&format!("  \"accesses_per_sec\": {},\n", per_sec(accesses, wall_s)));
    out.push_str(&format!("  \"simulated_cycles_total\": {sim_cycles},\n"));
    out.push_str(&format!("  \"peak_rss_bytes\": {},\n", peak_rss_bytes()));
    out.push_str(&format!("  \"available_parallelism\": {cores},\n"));
    // Coherence traffic of the measured phase, summed over every cell's
    // directory counters and the NoC's maintenance-class packets (see the
    // README's BENCH field documentation): how much MESI work the grid's
    // sharing actually generated, and therefore how much of the simulated
    // latency movement is protocol traffic rather than cache behaviour.
    let dir = |f: fn(&ironhide_cache::DirectoryStats) -> u64| -> u64 {
        matrix.cells.iter().map(|c| f(&c.report.machine.directory)).sum()
    };
    let maintenance: u64 = matrix.cells.iter().map(|c| c.report.machine.noc.maintenance).sum();
    out.push_str("  \"coherence\": {\n");
    out.push_str(&format!("    \"directory_lookups\": {},\n", dir(|d| d.lookups)));
    out.push_str(&format!("    \"invalidations\": {},\n", dir(|d| d.invalidations)));
    out.push_str(&format!("    \"downgrades\": {},\n", dir(|d| d.downgrades)));
    out.push_str(&format!("    \"back_invalidations\": {},\n", dir(|d| d.back_invalidations)));
    out.push_str(&format!("    \"maintenance_packets\": {maintenance}\n"));
    out.push_str("  },\n");
    out.push_str("  \"scaling\": [\n");
    for (i, &(threads, wall)) in walls.iter().enumerate() {
        // threads > cores points measure oversubscription (scheduler churn),
        // not parallel speedup; the flag keeps container artifacts (a 1-CPU
        // CI host) distinguishable from genuine scaling regressions.
        let oversubscribed = cores != 0 && threads > cores;
        out.push_str(&format!(
            "    {{\"threads\": {threads}, \"wall_seconds\": {wall:.3}, \"accesses_per_sec\": {}, \
             \"simulated_cycles_total\": {sim_cycles}, \"threads_exceed_cores\": {oversubscribed}}}{}\n",
            per_sec(accesses, wall),
            if i + 1 == walls.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}
