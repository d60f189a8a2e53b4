//! # ironhide-bench
//!
//! The benchmark harness that regenerates the paper's figures. Each figure
//! has its own `harness = false` bench target that runs the relevant
//! experiment sweep and prints the same rows/series the paper reports:
//!
//! * `fig1_overview` — Figure 1(a): normalised geometric-mean completion time
//!   of SGX, MI6 and IRONHIDE relative to an insecure baseline.
//! * `fig6_completion_time` — Figure 6: per-application completion time broken
//!   into compute and enclave/purge overhead, plus the secure-cluster core
//!   counts and the user/OS/overall geometric means.
//! * `fig7_miss_rates` — Figure 7: private L1 and shared L2 miss rates under
//!   MI6 and IRONHIDE.
//! * `fig8_heuristic` — Figure 8: sensitivity of IRONHIDE to the core
//!   re-allocation decision (Heuristic, Optimal, fixed ±x% variations).
//! * `ablation_isolation` — ablations of IRONHIDE's design choices (static vs.
//!   dynamic hardware isolation).
//! * `micro_primitives` — Criterion microbenchmarks of the purge and IPC
//!   primitives backing the per-event costs quoted in Section V.
//!
//! This library crate holds the shared sweep/reporting helpers, and the
//! harness pieces the `BENCH_*.json` binaries share: the N-thread
//! byte-identity gate, peak RSS and the host's core count.

use std::fmt::Display;
use std::time::Instant;

use ironhide_core::arch::{ArchParams, Architecture};
use ironhide_core::realloc::ReallocPolicy;
use ironhide_core::runner::{CompletionReport, ExperimentRunner};
use ironhide_core::sweep::{Matrix, MatrixRow};
use ironhide_sim::config::MachineConfig;
use ironhide_workloads::app::{AppId, ScaleFactor};

// The single definition lives in the sweep harness; re-exported here so the
// figure benches keep their historical `ironhide_bench::geometric_mean` path.
pub use ironhide_core::sweep::geometric_mean;

/// The experiment sweep configuration shared by the figure benches.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Machine to simulate.
    pub machine: MachineConfig,
    /// Architecture parameters.
    pub params: ArchParams,
    /// Application scale.
    pub scale: ScaleFactor,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep {
            machine: MachineConfig::paper_default(),
            params: ArchParams::default(),
            scale: ScaleFactor::Paper,
        }
    }
}

impl Sweep {
    /// A fast sweep for smoke-testing the harness.
    pub fn smoke() -> Self {
        Sweep { scale: ScaleFactor::Smoke, ..Sweep::default() }
    }

    /// Runs one application under one architecture with the given
    /// re-allocation policy.
    pub fn run_one(
        &self,
        app: AppId,
        arch: Architecture,
        policy: ReallocPolicy,
    ) -> CompletionReport {
        let runner = ExperimentRunner::new(self.machine.clone())
            .with_params(self.params)
            .with_realloc(policy);
        let mut instance = app.instantiate(&self.scale);
        runner
            .run(arch, instance.as_mut())
            .unwrap_or_else(|e| panic!("{} under {arch} failed: {e}", app.label()))
    }

    /// Runs every application under `arch`, returning reports in
    /// [`AppId::ALL`] order.
    pub fn run_all(&self, arch: Architecture, policy: ReallocPolicy) -> Vec<CompletionReport> {
        AppId::ALL.iter().map(|app| self.run_one(*app, arch, policy)).collect()
    }
}

/// Prints a markdown-style table row.
pub fn print_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style table header with a separator line.
pub fn print_header(cells: &[&str]) {
    print_row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    println!("|{}|", cells.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

/// A sweep that serialised byte-identically at every worker count it ran at.
#[derive(Debug)]
pub struct IdenticalRuns<C> {
    /// The first run's matrix.
    pub matrix: Matrix<C>,
    /// The first run's JSON serialisation (every run's, by the gate).
    pub json: String,
    /// Each run's worker count and wall-clock seconds, in run order.
    pub walls: Vec<(usize, f64)>,
}

/// The N-thread byte-identity gate: runs `sweep` once per worker count in
/// `threads`, in order, and checks every run's JSON against the first's.
///
/// # Errors
///
/// Describes the first sweep that failed or serialised differently.
pub fn identical_across_threads<C: MatrixRow, E: Display>(
    threads: &[usize],
    sweep: impl Fn(usize) -> Result<Matrix<C>, E>,
) -> Result<IdenticalRuns<C>, String> {
    let mut first: Option<(Matrix<C>, String)> = None;
    let mut walls = Vec::with_capacity(threads.len());
    for &n in threads {
        let start = Instant::now();
        let matrix = sweep(n).map_err(|e| format!("sweep failed at {n} threads: {e}"))?;
        walls.push((n, start.elapsed().as_secs_f64()));
        let json = matrix.to_json();
        match &first {
            None => first = Some((matrix, json)),
            Some((_, reference)) if *reference != json => {
                return Err(format!(
                    "NONDETERMINISM — the {n}-thread matrix differs from the {}-thread matrix",
                    threads[0]
                ));
            }
            Some(_) => {}
        }
    }
    let (matrix, json) = first.ok_or("no worker count to run")?;
    Ok(IdenticalRuns { matrix, json, walls })
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); 0 where procfs is unavailable.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Cores the host actually offers (0 when the platform cannot say).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn smoke_sweep_runs_one_app() {
        let sweep = Sweep::smoke();
        let report =
            sweep.run_one(AppId::QueryAes, Architecture::SgxLike, ReallocPolicy::Heuristic);
        assert!(report.total_cycles > 0);
        assert!(report.isolation.is_clean());
    }
}
