//! Criterion microbenchmarks of the covert-channel suite: what one full
//! leakage assessment costs in *simulator* time, per channel, on the open
//! (insecure) and closed (IRONHIDE) sides of the differential claim.
//!
//! These guard the security suite's CI budget the same way `micro_primitives`
//! guards the purge/access models: the attack matrix runs on every push, so
//! an accidental 10x in a channel's stream sizes or the runner's slot loop
//! should show up here first.

use criterion::{criterion_group, criterion_main, Criterion};

use ironhide_attacks::{ChannelKind, LeakageOracle};
use ironhide_core::arch::Architecture;
use ironhide_core::attack::{AttackRunner, StreamSlot};
use ironhide_sim::config::MachineConfig;

fn bench_assessments(c: &mut Criterion) {
    let config = MachineConfig::attack_testbench();
    for kind in ChannelKind::ALL {
        for arch in [Architecture::Insecure, Architecture::Ironhide] {
            let name = format!("assess_{}_{arch}", kind.label());
            c.bench_function(&name, |b| {
                let oracle = LeakageOracle::new(config.clone());
                let channel = kind.build(&config, 1);
                b.iter(|| oracle.assess(arch, &channel, 1).expect("assessment runs"))
            });
        }
    }
}

fn bench_single_run(c: &mut Criterion) {
    // The undecoded attack run alone (no oracle arithmetic), to separate
    // transmission cost from decoding cost if the two ever drift.
    let config = MachineConfig::attack_testbench();
    c.bench_function("attack_run_l2_occupancy_ironhide", |b| {
        let runner = AttackRunner::new(config.clone());
        let channel = ChannelKind::L2SliceOccupancy.build(&config, 1);
        let bits: Vec<bool> = (0..32).map(|i| i % 2 == 0).collect();
        b.iter(|| {
            runner
                .run(Architecture::Ironhide, &mut StreamSlot(&channel), &bits, &mut None)
                .expect("run completes")
        })
    });
}

criterion_group!(attacks, bench_assessments, bench_single_run);
criterion_main!(attacks);
