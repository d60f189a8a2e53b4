//! The IRONHIDE simulator's benchmark: end-to-end host-time metrics per
//! workload, and per-layer metrics from a separate traced run.
//!
//! Each workload runs passes of cells through the repository's public API on
//! one sweep worker thread. Set-up builds configs, grids, machines and
//! inputs and runs one discarded warm-up; the timed phase then runs whole
//! passes until `--seconds` of wall time have gone by. The benchmark times
//! each layer from outside, around calls into its public functions (see
//! [`trace`]), on the thread's CPU clock.

pub mod attack_ablation;
pub mod churn;
pub mod fig_paper;
pub mod report;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use stats::{median, percentile, thread_cpu_ns, Percentile};
use trace::{Recorder, Span};

/// The timed phase runs until it has this many cells, however short
/// `--seconds` is, so that p90 has at least ten cells beyond it.
const MIN_CELLS: usize = 100;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The paper's Figure 6 grid.
    FigPaper,
    /// The attack grid plus the TemporalFence ablation.
    AttackAblation,
    /// A seed-drawn mix of tenancy storms.
    Churn,
}

impl WorkloadKind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [WorkloadKind; 3] =
        [WorkloadKind::FigPaper, WorkloadKind::AttackAblation, WorkloadKind::Churn];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::FigPaper => "fig-paper",
            WorkloadKind::AttackAblation => "attack-ablation",
            WorkloadKind::Churn => "churn",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Discarded passes in set-up: enough that the warm-up takes over a
    /// second, since a shorter set-up does not repeat within a tenth.
    pub fn warmup_passes(self) -> u64 {
        match self {
            WorkloadKind::FigPaper | WorkloadKind::AttackAblation => 1,
            WorkloadKind::Churn => 6,
        }
    }
}

/// Work a pass did, the denominators of the per-layer ratios.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Simulated memory accesses in every phase of every cell.
    pub sim_accesses: u64,
    /// Simulated accesses in the cells' measured phases.
    pub measured_accesses: u64,
    /// Covert-channel payload bits sent.
    pub payload_bits: u64,
    /// Cluster reconfigurations performed by tenancy storms.
    pub reconfigurations: u64,
    /// Tenant arrivals replayed by tenancy storms.
    pub arrivals: u64,
}

/// A simulated (model) count, printed with its base.
#[derive(Debug, Clone, PartialEq)]
pub struct Count {
    /// Metric name.
    pub name: &'static str,
    /// The count or rate.
    pub value: f64,
    /// What the value is a count of, or a rate over.
    pub base: String,
}

impl Count {
    /// A count with its base.
    pub fn new(name: &'static str, value: f64, base: String) -> Self {
        Count { name, value, base }
    }
}

/// The checked outcome of one pass.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Cells attempted.
    pub cells: usize,
    /// One line per failed cell: an error or a failed check.
    pub failures: Vec<String>,
    /// The pass's simulated results, serialised.
    pub json: String,
    /// Work done, for per-layer ratios.
    pub work: Work,
    /// Model counts.
    pub counts: Vec<Count>,
    /// The simulated-results block.
    pub summary: Vec<String>,
}

impl Pass {
    /// A pass whose sweep returned an error: every cell counts as failed.
    pub fn error(cells: usize, error: String) -> Self {
        Pass { cells, failures: vec![error; cells.max(1)], ..Pass::default() }
    }
}

/// A workload the benchmark drives.
pub trait Workload {
    /// Runs pass number `pass` (warm-up passes first), timing each cell
    /// through `rec`.
    fn run_pass(&mut self, pass: u64, rec: &Arc<Recorder>) -> Pass;

    /// Whether every pass runs the same cells, so that every pass must
    /// reproduce the warm-up's simulated results byte for byte.
    fn passes_repeat(&self) -> bool;
}

/// Builds a workload: configs, grids, machines and inputs. Returns it with
/// the time and count of the benchmark's own `Machine::new` calls.
fn build(kind: WorkloadKind, seed: u64, rec: &Arc<Recorder>) -> (Box<dyn Workload>, u32, f64) {
    match kind {
        WorkloadKind::FigPaper => (Box::new(fig_paper::FigPaper::new(seed, rec)), 0, 0.0),
        WorkloadKind::AttackAblation => {
            (Box::new(attack_ablation::AttackAblation::new(seed, rec)), 0, 0.0)
        }
        WorkloadKind::Churn => {
            let churn = churn::Churn::new(seed);
            let ms = churn.machine_new_ms;
            (Box::new(churn), 1, ms)
        }
    }
}

/// What set-up did and how long it took.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Seconds of the thread's CPU time from workload start to the end of
    /// the warm-up.
    pub seconds: f64,
    /// The benchmark's own `Machine::new` calls in set-up.
    pub machine_new_calls: u32,
    /// Their total time, in milliseconds.
    pub machine_new_ms: f64,
    /// The first warm-up pass.
    pub warmup: Pass,
    /// Cells the warm-up attempted.
    pub attempted: usize,
    /// Warm-up cells that failed.
    pub failures: Vec<String>,
}

/// Set-up: builds the workload and runs the discarded warm-up passes, traced
/// when `rec` is tracing so that a traced run's simulated results come from
/// traced calls.
pub fn setup(kind: WorkloadKind, seed: u64, rec: &Arc<Recorder>) -> (Box<dyn Workload>, Setup) {
    let start = thread_cpu_ns();
    let (mut workload, machine_new_calls, machine_new_ms) = build(kind, seed, rec);
    let mut passes: Vec<Pass> =
        (0..kind.warmup_passes()).map(|p| workload.run_pass(p, rec)).collect();
    let seconds = (thread_cpu_ns() - start) as f64 / 1e9;
    rec.take_cells();
    rec.take_spans();
    let attempted = passes.iter().map(|p| p.cells).sum();
    let failures = passes.iter().flat_map(|p| p.failures.clone()).collect();
    let warmup = passes.swap_remove(0);
    (workload, Setup { seconds, machine_new_calls, machine_new_ms, warmup, attempted, failures })
}

/// Cells of one tracing mode in the timed phase.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Cell durations, in milliseconds.
    pub cell_ms: Vec<f64>,
    /// Each pass's (cells, seconds of the thread's CPU time).
    pub passes: Vec<(usize, f64)>,
}

impl Phase {
    /// CPU time of the phase's passes, in seconds.
    pub fn seconds(&self) -> f64 {
        self.passes.iter().map(|p| p.1).sum()
    }

    /// Cells completed per second: the median over passes of each pass's
    /// cells per CPU second, so a burst of contention from outside the
    /// process that slows a few passes does not move it.
    pub fn cells_per_s(&self) -> f64 {
        median(&self.passes.iter().map(|&(cells, s)| cells as f64 / s).collect::<Vec<_>>())
    }

    /// The median cell time.
    pub fn p50(&self) -> Percentile {
        percentile(&self.cell_ms, 0.5)
    }

    /// The 90th-percentile cell time.
    pub fn p90(&self) -> Percentile {
        percentile(&self.cell_ms, 0.9)
    }
}

/// The result of a workload run in one process.
#[derive(Debug)]
pub struct Run {
    /// Set-up.
    pub setup: Setup,
    /// Untraced passes.
    pub untraced: Phase,
    /// Traced passes (none when tracing is off).
    pub traced: Phase,
    /// Peak resident set of the timed phase, in bytes, if the kernel reports
    /// it.
    pub peak_rss_bytes: Option<u64>,
    /// Whether the peak-resident-set mark was reset before the timed phase.
    pub peak_rss_reset: bool,
    /// Cells attempted, set-up included.
    pub attempted: usize,
    /// One line per failed cell, set-up included.
    pub failures: Vec<String>,
    /// Per-layer values of each traced pass.
    pub layer_passes: Vec<BTreeMap<&'static str, f64>>,
    /// Every span of the traced passes; `parent` indexes this list.
    pub spans: Vec<Span>,
}

/// Timed passes of part `k` of a run are numbered from `k * PART_STRIDE`, so
/// the parts of one run draw different inputs from the same seed.
const PART_STRIDE: u64 = 1 << 32;

/// Runs part `part` of a workload run: set-up, then whole passes for at least
/// `seconds` of wall time and 100 cells. With `trace`, passes alternate
/// between untraced and traced, so that both see the same machine
/// conditions.
pub fn run(kind: WorkloadKind, seed: u64, part: u64, seconds: f64, trace: bool) -> Run {
    let rec = Recorder::new();
    rec.set_tracing(trace);
    let (mut workload, setup) = setup(kind, seed, &rec);
    let mut attempted = setup.attempted;
    let mut failures = setup.failures.clone();
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    let mut layer_passes = Vec::new();
    let peak_rss_reset = stats::reset_peak_rss();
    let start = Instant::now();
    let mut pass = kind.warmup_passes() + part * PART_STRIDE;
    loop {
        let tracing = trace && untraced.passes.len() > traced.passes.len();
        rec.set_tracing(tracing);
        let from = rec.span_count();
        let pass_start = thread_cpu_ns();
        let outcome = {
            let _root = rec.span("pass");
            workload.run_pass(pass, &rec)
        };
        let cpu_seconds = (thread_cpu_ns() - pass_start) as f64 / 1e9;
        let phase = if tracing { &mut traced } else { &mut untraced };
        phase.cell_ms.extend(rec.take_cells().into_iter().map(|ns| ns as f64 / 1e6));
        phase.passes.push((outcome.cells, cpu_seconds));
        attempted += outcome.cells;
        failures.extend(outcome.failures.iter().cloned());
        if workload.passes_repeat() && outcome.json != setup.warmup.json {
            failures.push(format!("pass {pass}: simulated results differ from the warm-up's"));
        }
        if tracing {
            layer_passes.push(report::layer_values(&rec.spans_from(from), from, &outcome.work));
        }
        pass += 1;
        let enough = |p: &Phase| p.cell_ms.len() >= MIN_CELLS;
        if start.elapsed().as_secs_f64() >= seconds
            && enough(&untraced)
            && (!trace || enough(&traced))
        {
            break;
        }
    }
    rec.set_tracing(false);
    Run {
        setup,
        untraced,
        traced,
        peak_rss_bytes: stats::peak_rss_bytes(),
        peak_rss_reset,
        attempted,
        failures,
        layer_passes,
        spans: rec.take_spans(),
    }
}

/// The per-layer metrics of a traced run: the median over traced passes of
/// each per-pass value, the warm-up's model counts, and the tracing
/// overhead.
pub fn layer_metrics(run: &Run) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (name, _) in report::PER_LAYER {
        out.insert(*name, 0.0);
    }
    if let Some(first) = run.layer_passes.first() {
        for name in first.keys() {
            let values: Vec<f64> = run.layer_passes.iter().map(|p| p[name]).collect();
            out.insert(*name, median(&values));
        }
    }
    for count in &run.setup.warmup.counts {
        out.insert(count.name, count.value);
    }
    let (plain, traced) = (run.untraced.cells_per_s(), run.traced.cells_per_s());
    out.insert("trace.overhead_pct", (plain - traced) / plain * 100.0);
    out
}
