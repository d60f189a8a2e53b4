//! Metric definitions and the printed report.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{median, Percentile};
use crate::trace::{self_time_by_name, Span};
use crate::{layer_metrics, Run, Work, WorkloadKind};

/// End-to-end metrics of the untraced run, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("cell_p50_ms", "ms"),
    ("cell_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, with units. Host times are per pass
/// (per block of ten storms on `churn`); model counts are the warm-up pass's.
/// A layer a workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.interaction_ms", "ms"),
    ("workloads.instantiate_ms", "ms"),
    ("runner.self_ms.insecure", "ms"),
    ("runner.self_ms.sgx", "ms"),
    ("runner.self_ms.mi6", "ms"),
    ("runner.self_ms.ironhide", "ms"),
    ("sim.accesses", "count"),
    ("sim.measured_share", "ratio"),
    ("sim.ns_per_access", "ns"),
    ("attacks.build_ms", "ms"),
    ("attacks.assess_ms", "ms"),
    ("attacks.us_per_payload_bit", "us"),
    ("sweep.overhead_ms", "ms"),
    ("tenancy.storm_ms", "ms"),
    ("tenancy.us_per_reconfig", "us"),
    ("tenancy.us_per_arrival", "us"),
    ("faults.schedule_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("cache.l1_miss_rate", "ratio"),
    ("cache.l2_miss_rate", "ratio"),
    ("cache.tlb_miss_rate", "ratio"),
    ("cache.dir_lookups", "count"),
    ("cache.dir_invalidations", "count"),
    ("cache.dir_back_invalidations", "count"),
    ("mesh.packets", "count"),
    ("mesh.hops", "count"),
    ("mesh.maintenance_packets", "count"),
    ("mem.requests", "count"),
    ("mem.row_hit_rate", "ratio"),
    ("sim.core_purges", "count"),
    ("sim.pages_rehomed", "count"),
    ("sim.cycles", "cycles"),
    ("fence.switch_cost_cycles", "cycles"),
    ("attacks.payload_cycles", "cycles"),
    ("attacks.closed_cells", "count"),
    ("tenancy.arrivals", "count"),
    ("tenancy.reconfigurations", "count"),
    ("tenancy.pages_rehomed", "count"),
    ("faults.quarantined_tiles", "count"),
    ("faults.backoff_retries", "count"),
    ("faults.dropped_scrubs_recovered", "count"),
    ("tenancy.completion_p99_cycles", "cycles"),
];

/// The unit of a metric named in either table.
fn unit(name: &str) -> &'static str {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map_or("", |(_, u)| u)
}

/// The architecture classes whose cells go through `ExperimentRunner`.
const ARCHES: [(&str, &str); 4] = [
    ("insecure", "runner.self_ms.insecure"),
    ("sgx", "runner.self_ms.sgx"),
    ("mi6", "runner.self_ms.mi6"),
    ("ironhide", "runner.self_ms.ironhide"),
];

/// The host-time per-layer values of one traced pass, from its spans
/// (`offset` is the index of the first one in the trace) and its work.
pub fn layer_values(spans: &[Span], offset: usize, work: &Work) -> BTreeMap<&'static str, f64> {
    let own = self_time_by_name(spans, offset);
    let ms = |name: &'static str, class: &'static str| {
        own.get(&(name, class)).copied().unwrap_or(0) as f64 / 1e6
    };
    let per = |numerator: f64, denominator: u64| {
        if denominator == 0 {
            0.0
        } else {
            numerator / denominator as f64
        }
    };
    let mut out = BTreeMap::new();
    out.insert("workloads.interaction_ms", ms("interaction", "") + ms("reset", ""));
    out.insert("workloads.instantiate_ms", ms("instantiate", ""));
    let mut runner_ms = 0.0;
    for (class, name) in ARCHES {
        runner_ms += ms("cell", class);
        out.insert(name, ms("cell", class));
    }
    out.insert("sim.accesses", work.sim_accesses as f64);
    out.insert("sim.measured_share", per(work.measured_accesses as f64, work.sim_accesses));
    out.insert("sim.ns_per_access", per(runner_ms * 1e6, work.sim_accesses));
    out.insert("attacks.build_ms", ms("build", ""));
    out.insert("attacks.assess_ms", ms("assess", ""));
    out.insert("attacks.us_per_payload_bit", per(ms("assess", "") * 1e3, work.payload_bits));
    out.insert("sweep.overhead_ms", ms("pass", ""));
    out.insert("tenancy.storm_ms", ms("storm", ""));
    out.insert("tenancy.us_per_reconfig", per(ms("storm", "") * 1e3, work.reconfigurations));
    out.insert("tenancy.us_per_arrival", per(ms("storm", "") * 1e3, work.arrivals));
    out.insert("faults.schedule_ms", ms("draw", ""));
    out
}

/// The end-to-end metrics of an untraced run, given the set-up median.
pub fn end_to_end(run: &Run, setup_s: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("setup_s", setup_s),
        ("cells_per_s", run.untraced.cells_per_s()),
        ("cell_p50_ms", run.untraced.p50().value),
        ("cell_p90_ms", run.untraced.p90().value),
        ("peak_rss_mb", run.peak_rss_bytes.unwrap_or(0) as f64 / 1e6),
    ]
}

/// The last line of the output: the result object the benchmark contract
/// fixes.
pub fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}", number(*value), unit(name))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite JSON number with all its digits.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// One set-up sample, from this process or a fresh child process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupSample {
    /// Set-up seconds.
    pub seconds: f64,
    /// The benchmark's own `Machine::new` calls.
    pub machine_new_calls: u32,
    /// Their total time, in milliseconds.
    pub machine_new_ms: f64,
}

fn percentile_line(out: &mut String, name: &str, p: Percentile) {
    let _ = writeln!(
        out,
        "  {name:<12} {:>10.3} ms    Harrell-Davis over n={} cells; nearest rank {:.3} ms with {} beyond, \
         neighbours {:.3} / {:.3} ms (gap {:.1}%)",
        p.value,
        p.n,
        p.nearest,
        p.beyond,
        p.below,
        p.above,
        p.neighbour_gap() * 100.0
    );
}

/// The human-readable report of an untraced run.
pub fn untraced_text(kind: WorkloadKind, seed: u64, run: &Run, setups: &[SetupSample]) -> String {
    let mut out = String::new();
    let setup_s = median(&setups.iter().map(|s| s.seconds).collect::<Vec<_>>());
    let _ = writeln!(
        out,
        "perfbench: workload {}, seed {seed}, 1 sweep worker, trace off",
        kind.name()
    );
    for (i, s) in setups.iter().enumerate() {
        let _ = writeln!(
            out,
            "set-up {}: {:.4} CPU s in a fresh process; the benchmark's Machine::new: {} call(s), \
             {:.3} ms",
            i + 1,
            s.seconds,
            s.machine_new_calls,
            s.machine_new_ms
        );
    }
    let phase = &run.untraced;
    let _ = writeln!(
        out,
        "timed phase: {} passes, {} cells in {:.3} CPU s over {} processes; peak RSS mark {}",
        phase.passes.len(),
        phase.cell_ms.len(),
        phase.seconds(),
        setups.len(),
        if run.peak_rss_reset { "reset before it" } else { "NOT reset (kernel refused)" }
    );
    let _ = writeln!(out, "end-to-end metrics (times are the benchmark thread's CPU time):");
    let _ = writeln!(
        out,
        "  {:<12} {setup_s:>10.4} s     median of {} set-ups",
        "setup_s",
        setups.len()
    );
    let rates = phase.passes.iter().map(|&(cells, s)| cells as f64 / s);
    let (low, high) = rates.fold((f64::MAX, 0.0f64), |(lo, hi), r| (lo.min(r), hi.max(r)));
    let _ = writeln!(
        out,
        "  {:<12} {:>10.3} cells/s median over {} passes (range {low:.2}-{high:.2})",
        "cells_per_s",
        phase.cells_per_s(),
        phase.passes.len(),
    );
    percentile_line(&mut out, "cell_p50_ms", phase.p50());
    percentile_line(&mut out, "cell_p90_ms", phase.p90());
    let _ = writeln!(
        out,
        "  {:<12} {:>10.3} MB    median over the processes of each one's timed-phase peak \
         resident set",
        "peak_rss_mb",
        run.peak_rss_bytes.unwrap_or(0) as f64 / 1e6
    );
    cells_and_sim(&mut out, run);
    out
}

/// The human-readable report of a traced run.
pub fn traced_text(kind: WorkloadKind, seed: u64, run: &Run, trace_file: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench: workload {}, seed {seed}, 1 sweep worker, trace on (alternating passes)",
        kind.name()
    );
    let (plain, traced) = (&run.untraced, &run.traced);
    let _ = writeln!(
        out,
        "untraced: {} passes, {} cells, {:.3} cells/s; traced: {} passes, {} cells, {:.3} cells/s",
        plain.passes.len(),
        plain.cell_ms.len(),
        plain.cells_per_s(),
        traced.passes.len(),
        traced.cell_ms.len(),
        traced.cells_per_s()
    );
    let _ = writeln!(
        out,
        "per-layer metrics (host times: median over {} traced passes, per pass; counts: warm-up pass):",
        run.layer_passes.len()
    );
    let metrics = layer_metrics(run);
    let bases: BTreeMap<&str, &str> =
        run.setup.warmup.counts.iter().map(|c| (c.name, c.base.as_str())).collect();
    for (name, unit) in PER_LAYER {
        let base = bases.get(name).copied().unwrap_or(match *name {
            "sim.accesses" => "simulated accesses per pass, every phase",
            "sim.measured_share" => "of sim.accesses",
            "sim.ns_per_access" => "runner self time / sim.accesses",
            "attacks.us_per_payload_bit" => "assess time / payload bits",
            "tenancy.us_per_reconfig" => "storm time / reconfigurations",
            "tenancy.us_per_arrival" => "storm time / arrivals",
            "trace.overhead_pct" => "of untraced cells/s",
            _ if *unit == "ms" => "",
            _ => "not reached by this workload",
        });
        let _ = writeln!(out, "  {name:<32} {:>18.6} {unit:<6} {base}", metrics[name]);
    }
    let _ = writeln!(out, "spans: {} written to {trace_file}", run.spans.len());
    cells_and_sim(&mut out, run);
    out
}

fn cells_and_sim(out: &mut String, run: &Run) {
    let _ = writeln!(
        out,
        "cells attempted: {} (set-ups included); cells failed: {}",
        run.attempted,
        run.failures.len()
    );
    for failure in run.failures.iter().take(20) {
        let _ = writeln!(out, "  FAILED {failure}");
    }
    let _ = writeln!(out, "simulated results (not gated):");
    for line in &run.setup.warmup.summary {
        let _ = writeln!(out, "  {line}");
    }
}
