//! Fault-injection campaign: graceful degradation and security invariants
//! that survive failure (BENCH_9).
//!
//! The ROADMAP's robustness scenario: tiles die, NoC links degrade, memory
//! controllers stall, and the purge traffic IRONHIDE's isolation leans on is
//! itself dropped mid-reconfiguration. This harness sweeps the
//! {fault kind × rate × degradation discipline} grid through
//! `SweepRunner::run_faults` — every cell a seed-deterministic tenant storm
//! replayed under an injected `FaultSchedule` — and reports conservation
//! counts, quarantine/backoff/recovery tallies and exact-sample SLO tails.
//!
//! Four in-process gates run before the report is written:
//!
//! 1. **Thread identity** — the fault matrix is serialised at 1, 2 and 8
//!    worker threads and must be byte-identical (the determinism contract
//!    every sweep in this workspace carries).
//! 2. **Conservation** — every cell, however hard it was faulted, must
//!    satisfy `admitted + denied + queued + failed_recovered == arrived`:
//!    degradation may slow tenants down but never loses one. Audited cells
//!    must recover every dropped packet, and the grid as a whole must
//!    actually have fired faults.
//! 3. **Bounded degradation** — each faulted cell's p99 completion latency
//!    must stay within a fixed factor of its same-kind, same-discipline
//!    healthy baseline (the rate-0 cell), so "graceful" is a measured claim.
//! 4. **Fault-channel verdicts** — the reconfiguration-window attack is
//!    re-run with dropped-purge faults injected: the audited discipline must
//!    judge CLOSED with a clean scrub audit (detection-then-recovery works
//!    under fire), and the unaudited fail-open variant must judge OPEN (the
//!    negative control proving the audit is load-bearing, not decorative).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ironhide-bench --bin faults            # full grid
//! cargo run --release -p ironhide-bench --bin faults -- --smoke # CI smoke
//! cargo run --release -p ironhide-bench --bin faults -- --out path.json
//! ```

use ironhide_attacks::window::{FaultMode, WindowAttack};
use ironhide_bench::experiments::faults;
use ironhide_bench::{
    available_parallelism, identical_across_threads, peak_rss_bytes, BenchCli, THREAD_COUNTS,
};
use ironhide_core::arch::Architecture;
use ironhide_core::attack::ChannelVerdict;
use ironhide_core::cluster::PurgeOrder;
use ironhide_core::faults::FaultMatrix;
use ironhide_sim::config::MachineConfig;

/// Seed of the fault-channel verdict rows (matches the window-attack tests).
const WINDOW_SEED: u64 = 7;

/// Drop rate of the fault-channel rows, per-mille. High enough that the
/// unaudited variant reliably decodes OPEN — the negative control needs a
/// strong signal to be meaningful (matches the window-attack tests).
const WINDOW_DROP_RATE: u32 = 800;

/// Gate 3's bound: a faulted cell's p99 completion latency must stay within
/// this factor of its healthy (rate-0) same-kind, same-discipline baseline.
const SLO_DEGRADATION_FACTOR: u64 = 10;

fn main() {
    let cli = BenchCli::parse("faults", "BENCH_9.json");
    let (smoke, label) = (cli.smoke, cli.label());

    // Gate 1: the matrix must serialise byte-identically at every thread
    // count. The single-threaded pass is the canonical one reported.
    eprintln!("faults: running {label} campaign at {THREAD_COUNTS:?} threads...");
    let runs = identical_across_threads(&THREAD_COUNTS, |threads| faults(smoke, threads))
        .unwrap_or_else(|e| {
            eprintln!("faults: {e}");
            std::process::exit(1);
        });
    let (matrix, sweep_walls) = (runs.matrix, runs.walls);

    // Gate 2: conservation — no tenant is ever lost, only delayed or
    // re-routed, whatever broke underneath — under faults that really fired.
    let mut fired = 0;
    for cell in &matrix.cells {
        let r = &cell.report;
        if !r.conserves_tenants() {
            eprintln!(
                "faults: CONSERVATION FAILURE in [{}]: {} + {} + {} + {} != {}",
                cell.key, r.admitted, r.denied, r.queued, r.failed_recovered, r.arrived
            );
            std::process::exit(1);
        }
        if cell.key.arch.audited() && r.dropped_scrubs_unrecovered != 0 {
            eprintln!(
                "faults: AUDIT FAILURE in [{}]: {} dropped packets left unrecovered",
                cell.key, r.dropped_scrubs_unrecovered
            );
            std::process::exit(1);
        }
        fired += r.faults_injected + r.dropped_scrubs_recovered + r.dropped_scrubs_unrecovered;
    }
    if fired == 0 {
        eprintln!("faults: GATE FAILURE — no fault fired anywhere in the {label} campaign");
        std::process::exit(1);
    }

    // Gate 3: bounded degradation against each (kind, arch)'s rate-0 cell.
    for cell in &matrix.cells {
        if cell.key.rate_per_mille == 0 {
            continue;
        }
        let baseline = matrix.get(cell.key.kind, 0, cell.key.arch).unwrap_or_else(|| {
            eprintln!("faults: grid has no healthy baseline for [{}]", cell.key);
            std::process::exit(1);
        });
        let base_p99 = baseline.report.slo.completion_percentile(99, 100).max(1);
        let faulted_p99 = cell.report.slo.completion_percentile(99, 100);
        if faulted_p99 > base_p99.saturating_mul(SLO_DEGRADATION_FACTOR) {
            eprintln!(
                "faults: DEGRADATION FAILURE in [{}]: p99 {faulted_p99} > {SLO_DEGRADATION_FACTOR}x healthy {base_p99}",
                cell.key
            );
            std::process::exit(1);
        }
    }

    // Gate 4: the fault-channel verdict rows — isolation must survive the
    // fault when audited, and demonstrably not survive it when not.
    eprintln!("faults: judging the faulted reconfiguration-window channel...");
    let channel_rows = fault_channel_rows();
    for row in &channel_rows {
        if row.outcome.verdict != row.expected {
            eprintln!(
                "faults: CHANNEL VERDICT FAILURE — {} judged {} (BER {}), expected {}",
                row.outcome.channel, row.outcome.verdict, row.outcome.ber, row.expected
            );
            std::process::exit(1);
        }
    }

    let report = render_report(label, &matrix, &channel_rows, &sweep_walls);
    cli.publish(&report);
}

/// One fault-channel verdict row: the expected verdict, the measured attack
/// outcome and the scrub audit's tally.
struct ChannelRow {
    expected: ChannelVerdict,
    outcome: ironhide_core::attack::AttackOutcome,
    audit: ironhide_attacks::FaultAudit,
}

/// The differential rows of gate 4: audited dropped-purge recovery must keep
/// the window CLOSED with a clean audit; the unaudited fail-open variant is
/// the negative control and must be pinned OPEN.
fn fault_channel_rows() -> Vec<ChannelRow> {
    let config = MachineConfig::attack_testbench();
    let run = |mode: FaultMode, expected: ChannelVerdict| {
        let attack = WindowAttack::new(config.clone(), PurgeOrder::PurgeThenRehome)
            .with_fault(mode, WINDOW_DROP_RATE);
        let (outcome, audit) = attack
            .assess_faulted(Architecture::Ironhide, WINDOW_SEED, &mut None)
            .unwrap_or_else(|e| {
                eprintln!("faults: window attack failed: {e}");
                std::process::exit(1);
            });
        if expected == ChannelVerdict::Closed {
            if !audit.is_clean() {
                eprintln!("faults: CHANNEL AUDIT FAILURE — closed row has dirty audit: {audit:?}");
                std::process::exit(1);
            }
            if audit.dropped_recovered == 0 {
                eprintln!("faults: CHANNEL FAULT FAILURE — closed row dropped nothing");
                std::process::exit(1);
            }
        } else if audit.dropped_unrecovered == 0 {
            eprintln!("faults: NEGATIVE CONTROL FAILURE — open row left no residue");
            std::process::exit(1);
        }
        ChannelRow { expected, outcome, audit }
    };
    vec![
        run(FaultMode::DroppedPurgeAudited, ChannelVerdict::Closed),
        run(FaultMode::DroppedPurgeUnaudited, ChannelVerdict::Open),
    ]
}

/// Renders the measurement as deterministic-layout JSON (timing fields vary
/// run to run; everything else, including every checksum, must not).
fn render_report(
    grid_label: &str,
    matrix: &FaultMatrix,
    channel_rows: &[ChannelRow],
    sweep_walls: &[(usize, f64)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"fault_campaign\",\n");
    out.push_str(&format!("  \"grid\": \"{grid_label}\",\n"));
    out.push_str(&format!("  \"master_seed\": {},\n", matrix.master_seed));
    out.push_str(&format!("  \"campaign_checksum\": {},\n", matrix.checksum()));
    out.push_str(&format!("  \"thread_counts_identical\": {THREAD_COUNTS:?},\n"));
    out.push_str(&format!("  \"slo_degradation_factor_bound\": {SLO_DEGRADATION_FACTOR},\n"));

    out.push_str("  \"cells\": [\n");
    for (i, cell) in matrix.cells.iter().enumerate() {
        let r = &cell.report;
        let sep = if i + 1 == matrix.cells.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"kind\": \"{}\", \"rate_per_mille\": {}, \"arch\": \"{}\", \
             \"arrived\": {}, \"admitted\": {}, \"denied\": {}, \"queued\": {}, \
             \"failed_recovered\": {}, \"conserved\": {}, \"faults_injected\": {}, \
             \"quarantined_tiles\": {}, \"backoff_retries\": {}, \
             \"dropped_scrubs_detected\": {}, \"dropped_scrubs_recovered\": {}, \
             \"dropped_scrubs_unrecovered\": {}, \"completion_p50_cycles\": {}, \
             \"completion_p99_cycles\": {}, \"stall_p99_cycles\": {}, \
             \"reconfigurations\": {}, \"slo_checksum\": {}}}{sep}\n",
            cell.key.kind.label(),
            cell.key.rate_per_mille,
            cell.key.arch.label(),
            r.arrived,
            r.admitted,
            r.denied,
            r.queued,
            r.failed_recovered,
            r.conserves_tenants(),
            r.faults_injected,
            r.quarantined_tiles,
            r.backoff_retries,
            // Detected and recovered: the audit replays every drop it detects.
            r.dropped_scrubs_recovered,
            r.dropped_scrubs_recovered,
            r.dropped_scrubs_unrecovered,
            r.slo.completion_percentile(1, 2),
            r.slo.completion_percentile(99, 100),
            r.slo.stall_percentile(99, 100),
            r.reconfigurations,
            r.slo.checksum(),
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"fault_channel\": [\n");
    for (i, row) in channel_rows.iter().enumerate() {
        let o = &row.outcome;
        let sep = if i + 1 == channel_rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"channel\": \"{}\", \"arch\": \"{}\", \"drop_rate_per_mille\": {WINDOW_DROP_RATE}, \
             \"payload_bits\": {}, \"bit_errors\": {}, \"ber\": {:.4}, \"verdict\": \"{}\", \
             \"expected\": \"{}\", \"dropped_detected\": {}, \"dropped_recovered\": {}, \
             \"dropped_unrecovered\": {}, \"audit_clean\": {}, \"isolation_clean\": {}}}{sep}\n",
            o.channel,
            o.arch,
            o.payload_bits,
            o.bit_errors,
            o.ber,
            o.verdict,
            row.expected,
            // Detected and recovered, as above.
            row.audit.dropped_recovered,
            row.audit.dropped_recovered,
            row.audit.dropped_unrecovered,
            row.audit.is_clean(),
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
