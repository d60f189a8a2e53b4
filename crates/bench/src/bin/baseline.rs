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
//! grid at 1, 2 and 8 workers and checks that every configuration produces
//! the same simulated-cycle checksum — the determinism the sweep runner
//! guarantees — while recording how wall time scales.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ironhide-bench --bin baseline            # full grid
//! cargo run --release -p ironhide-bench --bin baseline -- --smoke # CI smoke
//! cargo run --release -p ironhide-bench --bin baseline -- --out path.json
//! cargo run --release -p ironhide-bench --bin baseline -- --threads 2
//! ```
//!
//! `--threads <n>` replaces the 1/2/8 scaling set with a single `n`-worker
//! run (which then also provides the headline figures). CI uses it to
//! re-derive the smoke checksum in a separate 2-thread process and assert it
//! equals the default run's — cross-thread determinism checked across
//! processes, not just inside one harness invocation.
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

use std::time::Instant;

use ironhide_bench::{available_parallelism, peak_rss_bytes};
use ironhide_core::arch::Architecture;
use ironhide_core::realloc::ReallocPolicy;
use ironhide_core::sweep::{SweepMatrix, SweepRunner};
use ironhide_sim::config::MachineConfig;
use ironhide_workloads::app::{sweep_grid, AppId, ScaleFactor};

/// Master seed of the baseline sweep (arbitrary but fixed forever: changing
/// it would make the `total_cycles` checksum incomparable across PRs).
const MASTER_SEED: u64 = 2;

/// Thread counts of the scaling section.
const SCALING_THREADS: [usize; 3] = [1, 2, 8];

/// One scaling-section measurement.
struct ScalePoint {
    threads: usize,
    wall_s: f64,
    rate: u64,
    sim_cycles: u64,
}

fn main() {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_6.json");
    let mut threads_override: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                });
            }
            "--threads" => {
                threads_override = Some(
                    args.next().and_then(|n| n.parse().ok()).filter(|&n| n > 0).unwrap_or_else(
                        || {
                            eprintln!("--threads requires a positive worker count");
                            std::process::exit(2);
                        },
                    ),
                );
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: baseline [--smoke] [--threads <n>] [--out <path>]");
                std::process::exit(2);
            }
        }
    }

    let apps: Vec<AppId> =
        if smoke { vec![AppId::QueryAes, AppId::PrGraph] } else { AppId::ALL.to_vec() };
    let archs = if smoke {
        vec![Architecture::Mi6, Architecture::Ironhide]
    } else {
        Architecture::ALL.to_vec()
    };
    let grid = sweep_grid(&apps, &archs, &[ReallocPolicy::Heuristic], &[ScaleFactor::Smoke]);
    let label = if smoke { "smoke" } else { "full" };

    let scaling_threads: Vec<usize> =
        threads_override.map_or_else(|| SCALING_THREADS.to_vec(), |n| vec![n]);
    let headline_threads = scaling_threads[0];
    let mut scaling: Vec<ScalePoint> = Vec::new();
    let mut headline: Option<(SweepMatrix, f64)> = None;
    for threads in scaling_threads {
        let runner = SweepRunner::new(MachineConfig::paper_default())
            .with_threads(threads)
            .with_seed(MASTER_SEED);
        eprintln!(
            "baseline: running {label} grid ({} cells, {threads} thread{})...",
            grid.len(),
            if threads == 1 { "" } else { "s" }
        );
        let start = Instant::now();
        let matrix = runner.run(&grid).unwrap_or_else(|e| {
            eprintln!("baseline sweep failed: {e}");
            std::process::exit(1);
        });
        let wall = start.elapsed().as_secs_f64();
        let accesses: u64 = matrix.cells.iter().map(|c| c.report.sim_accesses_total).sum();
        let sim_cycles: u64 = matrix.cells.iter().map(|c| c.report.total_cycles).sum();
        let rate = if wall > 0.0 { (accesses as f64 / wall).round() as u64 } else { 0 };
        // Determinism gate: every thread count must agree on the checksum.
        if let Some(first) = scaling.first() {
            if sim_cycles != first.sim_cycles {
                eprintln!(
                    "baseline: NONDETERMINISM — {threads}-thread checksum {sim_cycles} != \
                     1-thread checksum {}",
                    first.sim_cycles
                );
                std::process::exit(1);
            }
        }
        scaling.push(ScalePoint { threads, wall_s: wall, rate, sim_cycles });
        if threads == headline_threads && headline.is_none() {
            // The headline figures come from the scaling set's first run
            // (sequential by default, the overridden count under --threads).
            headline = Some((matrix, wall));
        }
    }

    let (matrix, wall) = headline.expect("the scaling set includes the headline run");
    let report = render_report(&matrix, label, wall, peak_rss_bytes(), &scaling);
    std::fs::write(&out_path, &report).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!("baseline: wrote {out_path}");
    // A human-readable one-liner for logs; the JSON is the durable record.
    println!("{report}");
}

/// Renders the measurement as deterministic-layout JSON (the values of the
/// timing fields naturally vary run to run; the layout does not).
fn render_report(
    matrix: &SweepMatrix,
    grid_label: &str,
    wall_s: f64,
    peak_rss: u64,
    scaling: &[ScalePoint],
) -> String {
    let accesses: u64 = matrix.cells.iter().map(|c| c.report.sim_accesses_total).sum();
    let measured: u64 = matrix.cells.iter().map(|c| c.report.machine.l1.accesses).sum();
    let sim_cycles: u64 = matrix.cells.iter().map(|c| c.report.total_cycles).sum();
    let rate = if wall_s > 0.0 { accesses as f64 / wall_s } else { 0.0 };
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
    out.push_str(&format!("  \"accesses_per_sec\": {},\n", rate.round() as u64));
    out.push_str(&format!("  \"simulated_cycles_total\": {sim_cycles},\n"));
    out.push_str(&format!("  \"peak_rss_bytes\": {peak_rss},\n"));
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
    for (i, p) in scaling.iter().enumerate() {
        // threads > cores points measure oversubscription (scheduler churn),
        // not parallel speedup; the flag keeps container artifacts (a 1-CPU
        // CI host) distinguishable from genuine scaling regressions.
        let oversubscribed = cores != 0 && p.threads > cores;
        out.push_str(&format!(
            "    {{\"threads\": {}, \"wall_seconds\": {:.3}, \"accesses_per_sec\": {}, \
             \"simulated_cycles_total\": {}, \"threads_exceed_cores\": {}}}{}\n",
            p.threads,
            p.wall_s,
            p.rate,
            p.sim_cycles,
            oversubscribed,
            if i + 1 == scaling.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}
