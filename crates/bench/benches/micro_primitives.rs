//! Criterion microbenchmarks of the security primitives whose per-event costs
//! the paper quotes: the MI6 purge of private state and memory-controller
//! queues (the paper's per-interaction cost is the "MI6 purge per
//! interaction" entry of `ironhide_core::sweep::PAPER_VALUES`), the IRONHIDE
//! page re-homing step behind the ~15 ms one-time reconfiguration, and the
//! shared-IPC-buffer round trip.
//!
//! These measure *simulator* time per operation (how expensive the models are
//! to run), while the figure benches report *simulated* time; both are useful
//! when extending the models.

use criterion::{criterion_group, criterion_main, Criterion};

use ironhide_core::ipc::SharedIpcBuffer;
use ironhide_mem::ControllerMask;
use ironhide_mesh::NodeId;
use ironhide_sim::config::MachineConfig;
use ironhide_sim::machine::Machine;
use ironhide_sim::process::SecurityClass;

fn warmed_machine() -> (Machine, ironhide_sim::process::ProcessId) {
    let mut m = Machine::new(MachineConfig::paper_default());
    let pid = m.create_process("bench", SecurityClass::Secure);
    for core in 0..8usize {
        for line in 0..256u64 {
            m.access(NodeId(core), pid, ((core as u64) << 20) | (line * 64), line % 3 == 0);
        }
    }
    (m, pid)
}

fn bench_purge(c: &mut Criterion) {
    c.bench_function("purge_private_64_cores", |b| {
        b.iter_batched(
            || warmed_machine().0,
            |mut m| {
                let cores: Vec<NodeId> = (0..64).map(NodeId).collect();
                m.purge_private(&cores)
            },
            criterion::BatchSize::SmallInput,
        )
    });
    c.bench_function("purge_memory_controllers", |b| {
        b.iter_batched(
            || warmed_machine().0,
            |mut m| m.purge_controllers(ControllerMask::first(4)),
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_access_path(c: &mut Criterion) {
    c.bench_function("l1_hit_access", |b| {
        let (mut m, pid) = warmed_machine();
        m.access(NodeId(0), pid, 0x40, false);
        b.iter(|| m.access(NodeId(0), pid, 0x40, false))
    });
    c.bench_function("l2_remote_access", |b| {
        let (mut m, pid) = warmed_machine();
        b.iter_batched(
            || (),
            |_| {
                m.purge_core(NodeId(0));
                m.access(NodeId(0), pid, 0x100_000, false)
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_ipc(c: &mut Criterion) {
    c.bench_function("ipc_produce_consume_4kb", |b| {
        let mut buf = SharedIpcBuffer::paper_default();
        b.iter(|| {
            let w = buf.produce(4096);
            let r = buf.consume(4096);
            (w.len(), r.len())
        })
    });
}

criterion_group! {
    name = benches;
    // Each batched iteration builds a full 64-tile machine, so keep the
    // sample counts small; the primitives are deterministic anyway.
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_purge, bench_access_path, bench_ipc
}
criterion_main!(benches);
