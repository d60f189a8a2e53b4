//! The benchmark's command line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig-paper|attack-ablation|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Exits
//! non-zero when any cell fails its check.

use std::process::{exit, Command};

use ironhide_perfbench::report::{self, SetupSample};
use ironhide_perfbench::stats::median;
use ironhide_perfbench::{layer_metrics, run, trace, Run, WorkloadKind};

/// An untraced run is split over this many fresh processes, one after
/// another: each sets up and measures its share of `--seconds`, and the
/// run pools their cells. Within one process the allocator reuses one
/// memory layout, and a cell class keeps its speed for the process's life
/// (⟨ABC, VISION⟩ under IRONHIDE ran at 106 ms in one process and 123–130 ms
/// in others); pooling processes averages that out, and gives `setup_s`
/// its median of three.
const PROCESSES: u64 = 3;

struct Options {
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
    part: Option<u64>,
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <fig-paper|attack-ablation|churn> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        workload: WorkloadKind::FigPaper,
        seed: 0,
        seconds: 10.0,
        trace: false,
        part: None,
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |flag: &str| args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload");
                workload = Some(
                    WorkloadKind::parse(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name}"))),
                );
            }
            "--seed" => {
                opts.seed = value("--seed").parse().unwrap_or_else(|_| usage("--seed takes a u64"))
            }
            "--seconds" => {
                opts.seconds = value("--seconds")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a non-negative number"))
            }
            "--trace" => {
                opts.trace = match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--part" => {
                opts.part = Some(
                    value("--part")
                        .parse()
                        .ok()
                        .filter(|k| (1..PROCESSES).contains(k))
                        .unwrap_or_else(|| usage("--part is internal")),
                )
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    opts.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    opts
}

/// Prints a part's measurements for the process that started it: failed
/// cells on standard error, the rest as three lines on standard output.
fn print_part(result: &Run) {
    for failure in &result.failures {
        eprintln!("FAILED {failure}");
    }
    let setup = &result.setup;
    println!(
        "setup_s={} machine_new_calls={} machine_new_ms={} attempted={} peak_rss_bytes={}",
        setup.seconds,
        setup.machine_new_calls,
        setup.machine_new_ms,
        result.attempted,
        result.peak_rss_bytes.unwrap_or(0)
    );
    let passes: Vec<String> =
        result.untraced.passes.iter().map(|(cells, s)| format!("{cells}:{s}")).collect();
    println!("passes {}", passes.join(" "));
    let cells: Vec<String> = result.untraced.cell_ms.iter().map(f64::to_string).collect();
    println!("cells {}", cells.join(" "));
}

/// One part's measurements, as its process reports them.
struct Part {
    setup: SetupSample,
    peak_rss_bytes: f64,
    attempted: usize,
    failures: Vec<String>,
    passes: Vec<(usize, f64)>,
    cell_ms: Vec<f64>,
}

/// Runs part `part` in a fresh copy of this program and reads what it
/// printed.
fn part_in_child(opts: &Options, part: u64, seconds: f64) -> Part {
    let exe = std::env::current_exe().expect("the running program has a path");
    let output = Command::new(exe)
        .args(["--workload", opts.workload.name(), "--seed", &opts.seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--part", &part.to_string()])
        .output()
        .expect("the child process starts");
    let (stdout, stderr) =
        (String::from_utf8_lossy(&output.stdout), String::from_utf8_lossy(&output.stderr));
    let line = |tag: &str| stdout.lines().find_map(|l| l.strip_prefix(tag));
    let key_values = stdout.lines().next().unwrap_or("");
    let field = |key: &str| -> Option<f64> {
        key_values
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
    };
    let passes = line("passes ").and_then(|l| {
        l.split_whitespace()
            .map(|p| {
                let (cells, s) = p.split_once(':')?;
                Some((cells.parse().ok()?, s.parse().ok()?))
            })
            .collect::<Option<Vec<_>>>()
    });
    let cell_ms = line("cells ")
        .and_then(|l| l.split_whitespace().map(|c| c.parse().ok()).collect::<Option<Vec<_>>>());
    let fields = ["setup_s", "machine_new_calls", "machine_new_ms", "attempted", "peak_rss_bytes"]
        .map(field);
    let (
        [Some(seconds), Some(calls), Some(ms), Some(attempted), Some(rss)],
        Some(passes),
        Some(cell_ms),
    ) = (fields, passes, cell_ms)
    else {
        eprintln!("perfbench: part {part} failed: {stderr}");
        exit(1);
    };
    Part {
        setup: SetupSample { seconds, machine_new_calls: calls as u32, machine_new_ms: ms },
        peak_rss_bytes: rss,
        attempted: attempted as usize,
        failures: stderr
            .lines()
            .filter_map(|l| l.strip_prefix("FAILED "))
            .map(|f| format!("part {part}: {f}"))
            .collect(),
        passes,
        cell_ms,
    }
}

/// A traced run: one process, per-layer metrics, spans written to a file.
fn traced(opts: &Options) -> (Run, Vec<(&'static str, f64)>) {
    let result = run(opts.workload, opts.seed, 0, opts.seconds, true);
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/trace");
    let path = format!("{dir}/{}-seed{}.jsonl", opts.workload.name(), opts.seed);
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::to_json_lines(&result.spans)));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {path}: {e}");
        exit(1);
    }
    print!("{}", report::traced_text(opts.workload, opts.seed, &result, &path));
    let values = layer_metrics(&result);
    let metrics = report::PER_LAYER.iter().map(|(name, _)| (*name, values[name])).collect();
    (result, metrics)
}

/// An untraced run: [`PROCESSES`] parts pooled, end-to-end metrics.
fn untraced(opts: &Options) -> (Run, Vec<(&'static str, f64)>) {
    // The children measure first, while this process has done no work that
    // could shape its own set-up.
    let share = opts.seconds / PROCESSES as f64;
    let parts: Vec<Part> = (1..PROCESSES).map(|k| part_in_child(opts, k, share)).collect();
    let mut result = run(opts.workload, opts.seed, 0, share, false);
    let mut setups = Vec::new();
    let mut rss = Vec::new();
    for part in parts {
        setups.push(part.setup);
        rss.push(part.peak_rss_bytes);
        result.attempted += part.attempted;
        result.failures.extend(part.failures);
        result.untraced.passes.extend(part.passes);
        result.untraced.cell_ms.extend(part.cell_ms);
    }
    setups.push(SetupSample {
        seconds: result.setup.seconds,
        machine_new_calls: result.setup.machine_new_calls,
        machine_new_ms: result.setup.machine_new_ms,
    });
    rss.push(result.peak_rss_bytes.unwrap_or(0) as f64);
    result.peak_rss_bytes = Some(median(&rss) as u64);
    print!("{}", report::untraced_text(opts.workload, opts.seed, &result, &setups));
    let setup_s = median(&setups.iter().map(|s| s.seconds).collect::<Vec<_>>());
    let metrics = report::end_to_end(&result, setup_s);
    (result, metrics)
}

fn main() {
    let opts = parse_args();
    if let Some(part) = opts.part {
        print_part(&run(opts.workload, opts.seed, part, opts.seconds, false));
        return;
    }
    let (result, metrics) = if opts.trace { traced(&opts) } else { untraced(&opts) };
    let failed = result.failures.len();
    println!("{}", report::json_line(failed == 0, result.attempted, failed, &metrics));
    exit(if failed == 0 { 0 } else { 1 });
}
