//! `attack-ablation`: the covert-channel attack grid plus the TemporalFence
//! flush ablation, both with the 96-bit `Paper` payload on
//! `MachineConfig::attack_testbench()`, the machine the channels are sized
//! for.
//!
//! A pass is `attack_grid` over the four architectures (5 channels × 4 = 20
//! cells) and the 13-subset × 6-channel ablation (78 cells). Channel
//! building, the oracle, boundary purges, `temporal_flush` and the sweep
//! engine do the work, over many short cells.

use std::sync::Arc;

use ironhide::ironhide_core::runner::RunError;
use ironhide::ironhide_sim::machine::Machine;
use ironhide::prelude::*;

use crate::stats::{fnv1a, fnv1a_str};
use crate::trace::Recorder;
use crate::{Count, Pass, Work, Workload};

/// The scale point whose payload the channels carry (96 bits).
const SCALE: &str = "Paper";
/// The zero-flush row of the ablation, under which every channel must decode.
const NONE_LABEL: &str = "none";
/// The flush-everything row, under which every channel must close.
const SIMF_LABEL: &str = "simf";

/// The master seed of the warm-up pass: BENCH_10's, so the warm-up's
/// ablation checksum has a fixed reference value at every workload seed.
const WARMUP_MASTER_SEED: u64 = 0xAB1A_7104;
/// The warm-up's ablation checksum while the model is unchanged.
const WARMUP_ABLATION_CHECKSUM: u64 = 5696164904107017282;

/// The runner both grids use: one sweep worker and the given master seed.
pub fn runner(master_seed: u64) -> SweepRunner {
    SweepRunner::new(MachineConfig::attack_testbench()).with_threads(1).with_seed(master_seed)
}

/// The master seed of pass `pass` at workload seed `seed`. Each timed pass
/// draws its own, so that a run averages over the seed's effect on the
/// channels' work instead of repeating one draw.
pub fn master_seed(seed: u64, pass: u64) -> u64 {
    if pass == 0 {
        WARMUP_MASTER_SEED
    } else {
        fnv1a([seed, pass])
    }
}

/// The plain attack grid, as the repository builds it.
pub fn plain_attack_grid() -> AttackGrid {
    attack_grid(&Architecture::ALL, &[ScalePoint::new(SCALE)])
}

/// The plain ablation grid, as the repository builds it.
pub fn plain_ablation_grid() -> AblationGrid {
    ablation_grid(ablation_subsets(), &[ScalePoint::new(SCALE)])
}

/// How a traced cell reaches the layers it times.
#[derive(Debug, Clone, Copy)]
enum Channel {
    Stream(ChannelKind),
    Window(PurgeOrder),
}

impl Channel {
    fn of(label: &str) -> Channel {
        ChannelKind::ALL
            .into_iter()
            .find(|k| k.label() == label)
            .map_or(Channel::Window(PurgeOrder::PurgeThenRehome), Channel::Stream)
    }

    /// The same calls `attack_spec` and `window_attack_spec` make, with the
    /// channel build and the oracle's assessment as spans.
    fn execute_traced(
        self,
        rec: &Arc<Recorder>,
        config: &MachineConfig,
        arch: Architecture,
        scale: &ScalePoint,
        seed: u64,
        slot: &mut Option<Machine>,
    ) -> Result<AttackOutcome, RunError> {
        let bits = LeakageOracle::payload_for_scale(scale.label());
        match self {
            Channel::Stream(kind) => {
                let channel = rec.within("build", || kind.build(config, seed));
                rec.within("assess", || {
                    LeakageOracle::new(config.clone())
                        .with_payload_bits(bits)
                        .assess_recycled(arch, &channel, seed, slot)
                })
            }
            Channel::Window(order) => rec.within("assess", || {
                WindowAttack::new(config.clone(), order)
                    .with_payload_bits(bits)
                    .assess_recycled(arch, seed, slot)
            }),
        }
    }
}

/// Wraps a channel spec so its cell is timed; while tracing, the cell runs
/// through [`Channel::execute_traced`] instead of the spec itself.
fn timed_channel(spec: AttackSpec, class: &'static str, rec: &Arc<Recorder>) -> AttackSpec {
    let rec = Arc::clone(rec);
    let channel = Channel::of(spec.label());
    AttackSpec::new(spec.label().to_string(), move |config, arch, scale, seed, slot| {
        let _cell = rec.cell(class);
        if rec.tracing() {
            channel.execute_traced(&rec, config, arch, scale, seed, slot)
        } else {
            spec.execute(config, arch, scale, seed, slot)
        }
    })
}

/// The attack-and-ablation workload.
#[derive(Debug)]
pub struct AttackAblation {
    seed: u64,
    attacks: AttackGrid,
    ablation: AblationGrid,
}

impl AttackAblation {
    /// Builds the runner and both grids with every channel timed.
    pub fn new(seed: u64, rec: &Arc<Recorder>) -> Self {
        let mut attacks = plain_attack_grid();
        attacks.channels =
            attacks.channels.into_iter().map(|c| timed_channel(c, "attack", rec)).collect();
        let mut ablation = plain_ablation_grid();
        ablation.channels =
            ablation.channels.into_iter().map(|c| timed_channel(c, "ablation", rec)).collect();
        AttackAblation { seed, attacks, ablation }
    }
}

impl Workload for AttackAblation {
    fn passes_repeat(&self) -> bool {
        false
    }

    fn run_pass(&mut self, pass: u64, _rec: &Arc<Recorder>) -> Pass {
        let cells = self.attacks.len() + self.ablation.len();
        let runner = runner(master_seed(self.seed, pass));
        let attacks = match runner.run_attacks(&self.attacks) {
            Ok(m) => m,
            Err(e) => return Pass::error(cells, e.to_string()),
        };
        let ablation = match runner.run_ablation(&self.ablation) {
            Ok(m) => m,
            Err(e) => return Pass::error(cells, e.to_string()),
        };
        // Each differential violation names one cell that decoded when it
        // must not have, or did not decode when it must.
        let mut failures = attacks.differential_violations();
        failures.extend(ablation.differential_violations(NONE_LABEL, SIMF_LABEL));
        let outcomes = attacks
            .cells
            .iter()
            .map(|c| (c.key.to_string(), &c.outcome))
            .chain(ablation.cells.iter().map(|c| (c.key.to_string(), &c.outcome)));
        for (key, outcome) in outcomes.clone() {
            if outcome.is_closed() && !outcome.isolation.is_clean() {
                failures.push(format!("{key}: CLOSED with isolation violations"));
            }
        }
        let json = format!("{}{}", attacks.to_json(), ablation.to_json());
        let payload_bits = outcomes.clone().map(|(_, o)| o.payload_bits).sum();
        let payload_cycles: u64 = outcomes.clone().map(|(_, o)| o.payload_cycles).sum();
        let closed = outcomes.filter(|(_, o)| o.is_closed()).count();
        let switch_cost: u64 = ablation.cells.iter().map(|c| c.switch_cost).sum();
        let base = format!("sum over the {cells} cells");
        Pass {
            cells,
            failures,
            work: Work { payload_bits, ..Work::default() },
            counts: vec![
                Count::new(
                    "fence.switch_cost_cycles",
                    switch_cost as f64,
                    format!("sum over the {} ablation cells", ablation.cells.len()),
                ),
                Count::new("attacks.payload_cycles", payload_cycles as f64, base),
                Count::new("attacks.closed_cells", closed as f64, format!("of {cells} cells")),
            ],
            summary: vec![
                format!(
                    "identity checksum: ablation matrix checksum at master seed {:#x} = {} \
                     ({WARMUP_ABLATION_CHECKSUM} at 0xab1a7104 when the model is unchanged)",
                    ablation.master_seed,
                    ablation.checksum()
                ),
                format!("attack matrix FNV-1a over to_json = {}", fnv1a_str(&attacks.to_json())),
                format!(
                    "verdicts: {closed} of {cells} cells CLOSED; the model is unvalidated \
                         against measured channels"
                ),
            ],
            json,
        }
    }
}
