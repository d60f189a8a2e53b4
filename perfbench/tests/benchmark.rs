//! The benchmark's own tests.
//!
//! Tests that run Paper-scale passes are ignored in debug builds, where one
//! pass takes minutes; run them with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;
use std::sync::{Mutex, MutexGuard};

use ironhide_perfbench::attack_ablation::{self, AttackAblation};
use ironhide_perfbench::churn::Churn;
use ironhide_perfbench::fig_paper::{self, FigPaper};
use ironhide_perfbench::report::{END_TO_END, PER_LAYER};
use ironhide_perfbench::trace::Recorder;
use ironhide_perfbench::{run, Workload, WorkloadKind};

const SEED: u64 = 5;

/// Tests that time or run Paper-scale passes take this lock, so they do not
/// share the machine's cores with each other.
static HEAVY: Mutex<()> = Mutex::new(());

fn heavy() -> MutexGuard<'static, ()> {
    HEAVY.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The metric entries of one section of BENCHMARK.json, as (name, unit).
fn section(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').expect("name closes")].to_string();
            let unit = entry.split("\"unit\": \"").nth(1).expect("unit present");
            (name, unit[..unit.find('"').expect("unit closes")].to_string())
        })
        .collect()
}

/// The number after `"<key>": ` in `text`.
fn number_after(text: &str, key: &str) -> f64 {
    let value = text.split(&format!("\"{key}\": ")).nth(1).expect("key present");
    let end = value.find([',', '}']).expect("value ends");
    value[..end].trim().parse().expect("value is a number")
}

/// A metric's regression bound in BENCHMARK.json.
fn bound(name: &str) -> f64 {
    let json = benchmark_json();
    number_after(
        json.split(&format!("\"name\": \"{name}\"")).nth(1).expect("metric present"),
        "bound",
    )
}

fn pairs(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let json = benchmark_json();
    assert_eq!(section(&json, "end_to_end"), pairs(END_TO_END));
    assert_eq!(section(&json, "per_layer"), pairs(PER_LAYER));
    for kind in WorkloadKind::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", kind.name())));
    }
}

/// Runs one pass untraced and one traced through a workload's wrappers.
fn wrapped_and_traced(workload: &mut dyn Workload, rec: &std::sync::Arc<Recorder>) -> [String; 2] {
    let plain = workload.run_pass(1, rec).json;
    rec.set_tracing(true);
    let traced = workload.run_pass(1, rec).json;
    rec.set_tracing(false);
    assert!(!rec.take_spans().is_empty(), "the traced pass recorded spans");
    [plain, traced]
}

#[test]
#[cfg_attr(debug_assertions, ignore = "Paper-scale passes; run with --release")]
fn fig_paper_wrapped_and_traced_passes_match_the_plain_sweep() {
    let _heavy = heavy();
    let plain =
        fig_paper::runner(SEED).run(&fig_paper::plain_grid()).expect("sweep runs").to_json();
    let rec = Recorder::new();
    for json in wrapped_and_traced(&mut FigPaper::new(SEED, &rec), &rec) {
        assert!(json == plain, "wrapped or traced matrix differs from the plain sweep");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "Paper-scale passes; run with --release")]
fn attack_ablation_wrapped_and_traced_passes_match_the_plain_sweeps() {
    let _heavy = heavy();
    // wrapped_and_traced runs pass 1, whose master seed the workload draws.
    let runner = attack_ablation::runner(attack_ablation::master_seed(SEED, 1));
    let plain = format!(
        "{}{}",
        runner.run_attacks(&attack_ablation::plain_attack_grid()).expect("attacks run").to_json(),
        runner
            .run_ablation(&attack_ablation::plain_ablation_grid())
            .expect("ablation runs")
            .to_json()
    );
    let rec = Recorder::new();
    for json in wrapped_and_traced(&mut AttackAblation::new(SEED, &rec), &rec) {
        assert!(json == plain, "wrapped or traced matrices differ from the plain sweeps");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full tenancy storms; run with --release")]
fn churn_traced_blocks_match_untraced_blocks() {
    let _heavy = heavy();
    let rec = Recorder::new();
    let [plain, traced] = wrapped_and_traced(&mut Churn::new(SEED), &rec);
    assert!(plain == traced, "tracing changed a storm's results");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timed Paper-scale passes; run with --release")]
fn percentile_neighbours_stay_within_bounds() {
    let _heavy = heavy();
    let seconds = number_after(&benchmark_json(), "run_seconds");
    for kind in WorkloadKind::ALL {
        let result = run(kind, SEED, 0, seconds, false);
        assert!(result.failures.is_empty(), "{}: {:?}", kind.name(), result.failures);
        for (name, p) in
            [("cell_p50_ms", result.untraced.p50()), ("cell_p90_ms", result.untraced.p90())]
        {
            assert!(
                p.neighbour_gap() < bound(name),
                "{} {name}: neighbours {} and {} differ by {:.1}%, bound {}",
                kind.name(),
                p.below,
                p.above,
                p.neighbour_gap() * 100.0,
                bound(name)
            );
            assert!(
                p.beyond >= 10 || name == "cell_p50_ms",
                "{}: p90 has {} beyond",
                kind.name(),
                p.beyond
            );
        }
    }
}

fn perfbench(workload: &str, trace: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace])
        .output()
        .expect("the benchmark starts");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    String::from_utf8(output.stdout).expect("output is UTF-8")
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the benchmark binary; run with --release")]
fn every_metric_is_printed_with_its_unit_and_every_ratio_with_its_base() {
    let _heavy = heavy();
    for (trace, table) in [("0", END_TO_END), ("1", PER_LAYER)] {
        let out = perfbench("churn", trace);
        let last = out.lines().last().expect("output has a result line");
        assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
        for (name, unit) in table {
            let json = format!("\"{name}\": {{\"value\": ");
            assert!(last.contains(&json), "result line lacks {name}");
            assert!(
                last.contains(&format!("\"unit\": \"{unit}\"")),
                "result line lacks unit {unit}"
            );
            let line = out
                .lines()
                .find(|l| l.trim_start().starts_with(&format!("{name} ")))
                .unwrap_or_else(|| panic!("{name} is not printed"));
            assert!(
                line.contains(&format!(" {unit} ")),
                "{name} is printed without {unit}: {line}"
            );
            // Host times are per pass, as the header says; everything else
            // names what it counts or divides by.
            if trace == "1" && *unit != "ms" {
                let base = line.split(&format!(" {unit} ")).nth(1).unwrap_or("").trim();
                assert!(!base.is_empty(), "{name} is printed without its base: {line}");
            }
        }
        assert!(out.contains("cells attempted: ") && out.contains("cells failed: 0"));
        assert!(out.contains("simulated results (not gated):"));
    }
}
