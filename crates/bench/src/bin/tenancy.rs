//! Multi-tenant churn benchmark: per-tenant SLOs under admission control,
//! plus the reconfiguration-window verdict rows.
//!
//! The ROADMAP's multi-tenant scenario is a stream of tenants arriving at an
//! IRONHIDE machine, each wanting its own attested secure-cluster
//! allocation. This harness sweeps the {admission policy × load} tenancy
//! grid through `SweepRunner::run_tenancy` — a seed-deterministic open-loop
//! arrival process replayed under Deny / Queue / ShrinkNeighbours — and
//! reports each cell's conservation counts and exact-sample SLO tails
//! (p50/p99/p999 completion latency, reconfiguration-stall percentiles).
//!
//! Three in-process gates run before the report is written:
//!
//! 1. **Thread identity** — the tenancy matrix is serialised at 1, 2 and 8
//!    worker threads and must be byte-identical (the determinism contract
//!    every sweep in this workspace carries).
//! 2. **Conservation** — every cell must satisfy `admitted + denied +
//!    queued == arrived` and drain its queue: admission control may deny or
//!    delay a tenant but never loses or strands one.
//! 3. **Window verdicts** — the reconfiguration-window covert channel must
//!    judge CLOSED (clean isolation audit) under the shipped purge ordering
//!    on MI6 and IRONHIDE, OPEN on the insecure baseline, and OPEN under the
//!    injected rehome-before-purge mis-ordering — the golden rows proving
//!    the stall sequence's purge ordering is what closes the window.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ironhide-bench --bin tenancy            # full grid
//! cargo run --release -p ironhide-bench --bin tenancy -- --smoke # CI smoke
//! cargo run --release -p ironhide-bench --bin tenancy -- --out path.json
//! ```

use ironhide_attacks::window::WindowAttack;
use ironhide_bench::experiments::tenancy;
use ironhide_bench::{
    available_parallelism, identical_across_threads, peak_rss_bytes, BenchCli, THREAD_COUNTS,
};
use ironhide_core::arch::Architecture;
use ironhide_core::attack::{AttackOutcome, ChannelVerdict};
use ironhide_core::cluster::PurgeOrder;
use ironhide_core::tenancy::TenancyMatrix;
use ironhide_sim::config::MachineConfig;

/// Seed of the window-channel verdict rows (matches the module tests).
const WINDOW_SEED: u64 = 7;

fn main() {
    let cli = BenchCli::parse("tenancy", "BENCH_8.json");
    let (smoke, label) = (cli.smoke, cli.label());

    // Gate 1: the matrix must serialise byte-identically at every thread
    // count. The single-threaded pass is the canonical one reported.
    eprintln!("tenancy: running {label} grid at {THREAD_COUNTS:?} threads...");
    let runs = identical_across_threads(&THREAD_COUNTS, |threads| tenancy(smoke, threads))
        .unwrap_or_else(|e| {
            eprintln!("tenancy: {e}");
            std::process::exit(1);
        });
    let (matrix, sweep_walls) = (runs.matrix, runs.walls);

    // Gate 2: conservation — every arrival is admitted, denied or still
    // queued, and the queue drains by the end of the storm.
    for cell in &matrix.cells {
        let r = &cell.report;
        if !r.conserves_tenants() || r.queued != 0 {
            eprintln!(
                "tenancy: CONSERVATION FAILURE in [{}]: {} admitted + {} denied + {} queued, {} arrived",
                cell.key, r.admitted, r.denied, r.queued, r.arrived
            );
            std::process::exit(1);
        }
    }

    // Gate 3: the reconfiguration-window verdict rows.
    eprintln!("tenancy: judging the reconfiguration-window channel...");
    let verdicts = window_verdicts();
    for (expected, outcome) in &verdicts {
        if outcome.verdict != *expected {
            eprintln!(
                "tenancy: WINDOW VERDICT FAILURE — {} under {} judged {} (BER {}), expected {expected}",
                outcome.channel, outcome.arch, outcome.verdict, outcome.ber
            );
            std::process::exit(1);
        }
        if outcome.verdict == ChannelVerdict::Closed && !outcome.isolation.is_clean() {
            eprintln!(
                "tenancy: WINDOW AUDIT FAILURE — {} under {} closed but dirty: {:?}",
                outcome.channel, outcome.arch, outcome.isolation.violations
            );
            std::process::exit(1);
        }
    }

    let report = render_report(label, &matrix, &sweep_walls, &verdicts);
    cli.publish(&report);
}

/// The golden verdict rows: expected verdict paired with the measured
/// outcome for every (ordering, architecture) the claim covers.
fn window_verdicts() -> Vec<(ChannelVerdict, AttackOutcome)> {
    let config = MachineConfig::attack_testbench();
    let shipped = WindowAttack::new(config.clone(), PurgeOrder::PurgeThenRehome);
    let misordered = WindowAttack::new(config, PurgeOrder::RehomeThenPurge);
    let run = |attack: &WindowAttack, arch| {
        attack.assess(arch, WINDOW_SEED).unwrap_or_else(|e| {
            eprintln!("tenancy: window attack failed: {e}");
            std::process::exit(1);
        })
    };
    vec![
        (ChannelVerdict::Open, run(&shipped, Architecture::Insecure)),
        (ChannelVerdict::Closed, run(&shipped, Architecture::Mi6)),
        (ChannelVerdict::Closed, run(&shipped, Architecture::Ironhide)),
        (ChannelVerdict::Open, run(&misordered, Architecture::Ironhide)),
    ]
}

/// Renders the measurement as deterministic-layout JSON (timing fields vary
/// run to run; everything else, including every checksum, must not).
fn render_report(
    grid_label: &str,
    matrix: &TenancyMatrix,
    sweep_walls: &[(usize, f64)],
    verdicts: &[(ChannelVerdict, AttackOutcome)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"tenant_churn\",\n");
    out.push_str(&format!("  \"grid\": \"{grid_label}\",\n"));
    out.push_str(&format!("  \"master_seed\": {},\n", matrix.master_seed));
    out.push_str(&format!("  \"tenancy_checksum\": {},\n", matrix.checksum()));
    out.push_str(&format!("  \"thread_counts_identical\": {THREAD_COUNTS:?},\n"));

    out.push_str("  \"cells\": [\n");
    for (i, cell) in matrix.cells.iter().enumerate() {
        let r = &cell.report;
        let sep = if i + 1 == matrix.cells.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"policy\": \"{}\", \"load\": \"{}\", \"arrived\": {}, \"admitted\": {}, \
             \"denied\": {}, \"queued\": {}, \"completion_p50_cycles\": {}, \
             \"completion_p99_cycles\": {}, \"completion_p999_cycles\": {}, \
             \"stall_p99_cycles\": {}, \"stall_max_cycles\": {}, \"reconfigurations\": {}, \
             \"slo_checksum\": {}}}{sep}\n",
            cell.key.policy.label(),
            cell.key.load,
            r.arrived,
            r.admitted,
            r.denied,
            r.queued,
            r.slo.completion_percentile(1, 2),
            r.slo.completion_percentile(99, 100),
            r.slo.completion_percentile(999, 1000),
            r.slo.stall_percentile(99, 100),
            r.slo.stall_max(),
            r.reconfigurations,
            r.slo.checksum(),
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"window_channel\": [\n");
    for (i, (expected, o)) in verdicts.iter().enumerate() {
        let sep = if i + 1 == verdicts.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"channel\": \"{}\", \"arch\": \"{}\", \"payload_bits\": {}, \
             \"bit_errors\": {}, \"ber\": {:.4}, \"verdict\": \"{}\", \"expected\": \"{expected}\", \
             \"isolation_clean\": {}}}{sep}\n",
            o.channel,
            o.arch,
            o.payload_bits,
            o.bit_errors,
            o.ber,
            o.verdict,
            o.isolation.is_clean(),
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"sweep_wall_seconds\": {\n");
    for (i, (threads, wall)) in sweep_walls.iter().enumerate() {
        let sep = if i + 1 == sweep_walls.len() { "" } else { "," };
        out.push_str(&format!("    \"{threads}\": {wall:.6}{sep}\n"));
    }
    out.push_str("  },\n");
    out.push_str(&format!("  \"peak_rss_bytes\": {},\n", peak_rss_bytes()));
    out.push_str(&format!("  \"available_parallelism\": {}\n", available_parallelism()));
    out.push_str("}\n");
    out
}
