//! `fig-paper`: the paper's Figure 6 grid through `SweepRunner::run`.
//!
//! Nine apps × {Insecure, SGX, MI6, IRONHIDE} × Heuristic at
//! `ScaleFactor::Paper` on `MachineConfig::paper_default()`: 36 cells and
//! 4.85 M simulated accesses per pass. The batched access engine and the
//! re-allocation predictor do most of the work. The paper apps ignore the
//! cell seed by design, so the pass is the same at every workload seed.

use std::collections::HashMap;
use std::sync::Arc;

use ironhide::ironhide_core::sweep::geometric_mean;
use ironhide::ironhide_sim::stats::MachineStats;
use ironhide::prelude::*;

use crate::trace::{CellGuard, Recorder};
use crate::{Count, Pass, Work, Workload};

/// The paper's Figure 1(a) reference points (`fig1_overview`): each ratio
/// of geometric-mean completion times, as (label, numerator, denominator,
/// paper value).
const PAPER_RATIOS: [(&str, Architecture, Architecture, f64); 4] = [
    ("SGX / Insecure", Architecture::SgxLike, Architecture::Insecure, 1.33),
    ("MI6 / Insecure", Architecture::Mi6, Architecture::Insecure, 2.25),
    ("MI6 / IRONHIDE", Architecture::Mi6, Architecture::Ironhide, 2.1),
    ("SGX / IRONHIDE", Architecture::SgxLike, Architecture::Ironhide, 1.2),
];

/// The class label a cell of `arch` is timed under.
fn arch_class(arch: Architecture) -> &'static str {
    match arch {
        Architecture::Insecure => "insecure",
        Architecture::SgxLike => "sgx",
        Architecture::Mi6 => "mi6",
        Architecture::Ironhide => "ironhide",
        Architecture::TemporalFence => "fence",
    }
}

/// The plain Figure 6 grid, as the repository's own benches build it.
pub fn plain_grid() -> SweepGrid {
    sweep_grid(&AppId::ALL, &Architecture::ALL, &[ReallocPolicy::Heuristic], &[ScaleFactor::Paper])
}

/// The runner every pass uses: one sweep worker, the workload seed as the
/// master seed.
pub fn runner(seed: u64) -> SweepRunner {
    SweepRunner::new(MachineConfig::paper_default()).with_threads(1).with_seed(seed)
}

/// The Figure 6 workload.
#[derive(Debug)]
pub struct FigPaper {
    runner: SweepRunner,
    grid: SweepGrid,
}

impl FigPaper {
    /// Builds the runner and the grid, each app wrapped so that its cell is
    /// timed and, while tracing, its `instantiate`, `interaction` and
    /// `reset` calls are spans.
    pub fn new(seed: u64, rec: &Arc<Recorder>) -> Self {
        let runner = runner(seed);
        let plain = plain_grid();
        // The app factory sees only the scale and the cell seed; the seed is
        // a pure function of the cell key, so it names the architecture.
        let classes: HashMap<u64, &'static str> =
            plain.keys().iter().map(|k| (runner.cell_seed(k), arch_class(k.arch))).collect();
        assert_eq!(classes.len(), plain.len(), "cell seeds are distinct");
        let classes = Arc::new(classes);
        let mut grid = plain.clone();
        grid.apps = plain.apps.iter().map(|app| timed_app(app, rec, &classes)).collect();
        FigPaper { runner, grid }
    }
}

fn timed_app(
    inner: &AppSpec,
    rec: &Arc<Recorder>,
    classes: &Arc<HashMap<u64, &'static str>>,
) -> AppSpec {
    let (inner, rec, classes) = (inner.clone(), Arc::clone(rec), Arc::clone(classes));
    AppSpec::new(inner.label().to_string(), move |scale, seed| {
        let cell = rec.cell(classes.get(&seed).copied().unwrap_or("unknown"));
        let app = rec.within("instantiate", || inner.instantiate(scale, seed));
        Box::new(TimedApp { inner: app, rec: Arc::clone(&rec), _cell: cell })
    })
}

/// An app whose interaction and reset calls are spans while tracing. The
/// runner drops the app when its cell ends, which ends the cell's timing.
struct TimedApp {
    inner: Box<dyn InteractiveApp>,
    rec: Arc<Recorder>,
    _cell: CellGuard,
}

impl InteractiveApp for TimedApp {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn insecure_profile(&self) -> &ProcessProfile {
        self.inner.insecure_profile()
    }
    fn secure_profile(&self) -> &ProcessProfile {
        self.inner.secure_profile()
    }
    fn interactions(&self) -> usize {
        self.inner.interactions()
    }
    fn interactivity_per_second(&self) -> f64 {
        self.inner.interactivity_per_second()
    }
    fn interaction(&mut self, idx: usize) -> Interaction {
        let _span = self.rec.span("interaction");
        self.inner.interaction(idx)
    }
    fn reset(&mut self) {
        let _span = self.rec.span("reset");
        self.inner.reset()
    }
}

impl Workload for FigPaper {
    fn passes_repeat(&self) -> bool {
        true
    }

    fn run_pass(&mut self, _pass: u64, _rec: &Arc<Recorder>) -> Pass {
        let matrix = match self.runner.run(&self.grid) {
            Ok(matrix) => matrix,
            Err(e) => return Pass::error(self.grid.len(), e.to_string()),
        };
        let mut failures = Vec::new();
        let violations = matrix.fig6_ordering_violations(ReallocPolicy::Heuristic);
        for cell in &matrix.cells {
            let row = format!("{} @{}:", cell.key.app, cell.key.scale);
            let secure = matches!(cell.key.arch, Architecture::Mi6 | Architecture::Ironhide);
            if let Some(v) = violations.iter().find(|v| v.starts_with(&row)) {
                failures.push(format!("{}: {v}", cell.key));
            } else if secure && !cell.report.isolation.is_clean() {
                failures.push(format!(
                    "{}: isolation audit {:?}",
                    cell.key, cell.report.isolation.violations
                ));
            }
        }
        let json = matrix.to_json();
        Pass {
            cells: matrix.cells.len(),
            failures,
            work: Work {
                sim_accesses: matrix.cells.iter().map(|c| c.report.sim_accesses_total).sum(),
                measured_accesses: matrix.cells.iter().map(|c| c.report.machine.l1.accesses).sum(),
                ..Work::default()
            },
            counts: model_counts(&matrix),
            summary: summary(&matrix),
            json,
        }
    }
}

fn model_counts(matrix: &SweepMatrix) -> Vec<Count> {
    let sum = |f: fn(&MachineStats) -> u64| -> u64 {
        matrix.cells.iter().map(|c| f(&c.report.machine)).sum()
    };
    let base = format!("sum over the {} cells' measured phases", matrix.cells.len());
    let count = |name, f| Count::new(name, sum(f) as f64, base.clone());
    let rate = |name, hits: u64, of: u64, what: &str| {
        Count::new(name, hits as f64 / of.max(1) as f64, format!("of {of} {what}"))
    };
    let cycles: u64 = matrix.cells.iter().map(|c| c.report.total_cycles).sum();
    vec![
        rate("cache.l1_miss_rate", sum(|m| m.l1.misses), sum(|m| m.l1.accesses), "L1 accesses"),
        rate("cache.l2_miss_rate", sum(|m| m.l2.misses), sum(|m| m.l2.accesses), "L2 accesses"),
        rate("cache.tlb_miss_rate", sum(|m| m.tlb.misses), sum(|m| m.tlb.accesses), "TLB lookups"),
        count("cache.dir_lookups", |m| m.directory.lookups),
        count("cache.dir_invalidations", |m| m.directory.invalidations),
        count("cache.dir_back_invalidations", |m| m.directory.back_invalidations),
        count("mesh.packets", |m| m.noc.packets),
        count("mesh.hops", |m| m.noc.hops),
        count("mesh.maintenance_packets", |m| m.noc.maintenance),
        count("mem.requests", |m| m.mem.requests),
        rate(
            "mem.row_hit_rate",
            sum(|m| m.mem.row_hits),
            sum(|m| m.mem.row_hits + m.mem.row_misses),
            "DRAM row lookups",
        ),
        count("sim.core_purges", |m| m.core_purges),
        count("sim.pages_rehomed", |m| m.pages_rehomed),
        Count::new("sim.cycles", cycles as f64, base.clone()),
    ]
}

fn summary(matrix: &SweepMatrix) -> Vec<String> {
    let total: u64 = matrix.cells.iter().map(|c| c.report.total_cycles).sum();
    let mut lines = vec![format!(
        "identity checksum: sum of total_cycles over the {} cells = {total} (1499884198 at any seed \
         when the model is unchanged)",
        matrix.cells.len()
    )];
    lines.push(
        "geometric-mean completion-time ratios over the 9 apps (Heuristic), beside the paper's \
         Figure 1(a) reference points:"
            .to_string(),
    );
    let rows = matrix.fig6(ReallocPolicy::Heuristic);
    let ms = |row: &Fig6Row, arch| match arch {
        Architecture::Insecure => row.insecure_ms,
        Architecture::SgxLike => row.sgx_ms,
        Architecture::Mi6 => row.mi6_ms,
        _ => row.ironhide_ms,
    };
    for (label, num, den, paper) in PAPER_RATIOS {
        let ratios: Vec<f64> = rows.iter().map(|r| ms(r, num) / ms(r, den)).collect();
        let simulated = geometric_mean(&ratios);
        lines.push(format!(
            "  {label:<15} simulated {simulated:.2}x  paper ~{paper:.2}x  error {:+.1}%",
            (simulated / paper - 1.0) * 100.0
        ));
    }
    lines.push(
        "  the model is unvalidated beyond these four reference points; no other number here \
         has a reference"
            .to_string(),
    );
    lines
}
