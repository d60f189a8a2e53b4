//! # ironhide-bench
//!
//! The benchmark harness that regenerates the paper's figures. Its bench
//! targets (`harness = false`):
//!
//! * `paper_figures` — Figures 1(a), 6, 7 and 8 and the static-isolation
//!   ablation from one Paper-scale sweep ([`experiments::paper`]), printed
//!   after the scorecard that sets each of the paper's reference values
//!   beside its reproduction.
//! * `micro_primitives` — Criterion microbenchmarks of the purge and IPC
//!   primitives backing the per-event costs quoted in Section V.
//! * `attack_channels` — Criterion microbenchmarks of the covert channels.
//!
//! This library crate holds the table printers, the [`experiments`] the
//! `paper_figures` bench and the `BENCH_*.json` binaries run, and the
//! harness pieces those binaries share: the command line ([`BenchCli`]),
//! the N-thread byte-identity gate, peak RSS and the host's core count.

use std::fmt::Display;
use std::time::Instant;

use ironhide_core::sweep::{Matrix, MatrixRow};

pub mod experiments;

/// Prints a markdown-style table row.
pub fn print_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style table header with a separator line.
pub fn print_header(cells: &[&str]) {
    print_row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    println!("|{}|", cells.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

/// The command line every `BENCH_*.json` binary takes:
/// `[--smoke] [--out <path>]`.
#[derive(Debug)]
pub struct BenchCli {
    name: &'static str,
    /// Run the CI smoke grid instead of the full one.
    pub smoke: bool,
    out: String,
}

impl BenchCli {
    /// Parses this process's arguments for the binary `name`, whose report
    /// goes to `default_out` unless `--out` names another path. A bad
    /// argument prints the usage and exits with status 2.
    pub fn parse(name: &'static str, default_out: &str) -> Self {
        Self::from_args(name, default_out, std::env::args().skip(1)).unwrap_or_else(|error| {
            eprintln!("{error}");
            std::process::exit(2);
        })
    }

    fn from_args(
        name: &'static str,
        default_out: &str,
        mut args: impl Iterator<Item = String>,
    ) -> Result<Self, String> {
        let mut cli = BenchCli { name, smoke: false, out: default_out.to_string() };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => cli.smoke = true,
                "--out" => cli.out = args.next().ok_or("--out requires a path")?,
                other => {
                    return Err(format!(
                        "unknown argument: {other}\nusage: {name} [--smoke] [--out <path>]"
                    ))
                }
            }
        }
        Ok(cli)
    }

    /// The grid label a report carries: `"smoke"` or `"full"`.
    pub fn label(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }

    /// Writes `report` to the output path, then prints it for the logs (the
    /// file is the durable record). Exits with status 1 if the write fails.
    pub fn publish(&self, report: &str) {
        std::fs::write(&self.out, report).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", self.out);
            std::process::exit(1);
        });
        eprintln!("{}: wrote {}", self.name, self.out);
        println!("{report}");
    }
}

/// The worker counts every binary's byte-identity gate runs its sweep at.
pub const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

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

    /// A one-cell matrix row rendering just its value.
    #[derive(Debug)]
    struct Row(usize);

    impl MatrixRow for Row {
        fn write_json(&self, out: &mut String) {
            out.push_str(&self.0.to_string());
        }
    }

    fn cli(args: &[&str]) -> Result<BenchCli, String> {
        BenchCli::from_args("bench", "BENCH.json", args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn cli_reads_smoke_and_out_and_rejects_anything_else() {
        let default = cli(&[]).unwrap();
        assert_eq!(
            (default.smoke, default.out.as_str(), default.label()),
            (false, "BENCH.json", "full")
        );
        let set = cli(&["--out", "x.json", "--smoke"]).unwrap();
        assert_eq!((set.smoke, set.out.as_str(), set.label()), (true, "x.json", "smoke"));
        assert_eq!(cli(&["--out"]).unwrap_err(), "--out requires a path");
        assert_eq!(
            cli(&["--fast"]).unwrap_err(),
            "unknown argument: --fast\nusage: bench [--smoke] [--out <path>]"
        );
    }

    #[test]
    fn identity_gate_names_both_counts_when_a_run_serialises_differently() {
        let err = identical_across_threads(&[1, 2, 8], |n| {
            Ok::<_, String>(Matrix { master_seed: 0, cells: vec![Row(n)] })
        })
        .unwrap_err();
        assert!(err.starts_with("NONDETERMINISM"), "{err}");
        assert!(err.contains("the 2-thread matrix differs from the 1-thread matrix"), "{err}");
    }

    #[test]
    fn identity_gate_names_the_thread_count_of_a_failed_sweep() {
        let err = identical_across_threads(&[1, 2, 8], |n| {
            if n == 2 {
                Err("cell exploded")
            } else {
                Ok(Matrix { master_seed: 0, cells: vec![Row(0)] })
            }
        })
        .unwrap_err();
        assert_eq!(err, "sweep failed at 2 threads: cell exploded");
    }
}
