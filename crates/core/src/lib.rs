//! # ironhide-core
//!
//! The paper's contribution: secure multicore execution architectures and the
//! machinery IRONHIDE adds on top of the multicore substrate.
//!
//! * [`arch`] — the four execution architectures compared in the paper:
//!   an insecure baseline, an SGX-like enclave model (constant entry/exit
//!   cost, no strong isolation), the multicore MI6 baseline (strong isolation
//!   through static partitioning plus purging at every enclave boundary) and
//!   IRONHIDE (strong isolation through spatially isolated clusters) — plus a
//!   fifth, configurable defence family, the temporal-isolation
//!   [`arch::Architecture::TemporalFence`] (fence.t / SIMF / time
//!   protection), which flushes a chosen subset of shared state at every
//!   domain switch and is swept by its own {flush subset × channel}
//!   [`sweep::AblationGrid`].
//! * [`boundary`] — the architecture model every runner calls: where the
//!   secure and insecure processes run ([`boundary::place`]) and what one
//!   boundary crossing costs ([`boundary::boundary_cost`]).
//! * [`kernel`] — the light-weight secure kernel: measurement-based
//!   attestation and the mutually-trusting / mutually-distrusting process
//!   rules of Section III.
//! * [`cluster`] — the cluster manager: forms the secure and insecure
//!   clusters, dedicates L2 slices and memory controllers to each, and
//!   performs the stall-purge-rehome sequence of a dynamic reconfiguration.
//! * [`realloc`] — the core re-allocation predictor: the gradient-based
//!   heuristic, the exhaustive "Optimal" search and the fixed ±x% decision
//!   variations evaluated in Figure 8.
//! * [`ipc`] — the shared inter-process-communication buffer through which
//!   secure and insecure processes interact (always homed in insecure memory).
//! * [`speccheck`] — the hardware address-range check that stalls insecure
//!   accesses destined for secure DRAM regions (the Spectre-class defence
//!   adopted from MI6).
//! * [`isolation`] — the strong-isolation auditor used by tests and the
//!   experiment harness to demonstrate that no run violated isolation.
//! * [`attack`] — the adversarial side of the security claim: the
//!   [`attack::CovertChannel`] contract for paired attacker/victim workloads
//!   and the [`attack::AttackRunner`] that co-schedules them in mutually
//!   distrusting domains (channels and the decoding `LeakageOracle` live in
//!   `ironhide-attacks`).
//! * [`app`] — the interactive-application abstraction the workloads crate
//!   implements (two processes, a stream of interactions, per-process
//!   parallelism profiles).
//! * [`runner`] — the experiment driver that executes an interactive
//!   application on a simulated machine under a chosen architecture and
//!   reports the completion-time breakdown, cache miss rates and isolation
//!   summary used to regenerate the paper's figures.
//! * [`sweep`] — the deterministic, rayon-parallel sweep harness that runs
//!   whole {app × architecture × re-allocation policy × scale} grids,
//!   collects the reports into a serialisable [`sweep::SweepMatrix`] and
//!   exposes the paper's Figure 6/7/8 orderings as queryable summaries.
//! * [`tenancy`] — the multi-tenant churn subsystem: a seed-deterministic
//!   open-loop arrival generator (one tenant = one attested secure-cluster
//!   allocation), exact-sample per-tenant SLO accounting and pluggable
//!   admission control (Deny / Queue / ShrinkNeighbours), swept as its own
//!   {policy × load} grid through the [`sweep::SweepRunner`].
//! * [`faults`] — deterministic fault injection with quarantine-and-remap
//!   degradation: seed-pure [`faults::FaultSchedule`]s (tile failures, link
//!   degradation, controller stalls, dropped scrub packets) replayed through
//!   the tenancy storm, with bounded-backoff recovery and a
//!   {kind × rate × arch} campaign grid whose differential verdicts show the
//!   scrub audit keeping channels closed *through* failure.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app;
pub mod arch;
pub mod attack;
pub mod boundary;
pub mod cluster;
pub mod faults;
pub mod ipc;
pub mod isolation;
pub mod kernel;
pub mod realloc;
pub mod runner;
pub mod speccheck;
pub mod sweep;
pub mod tenancy;

pub use app::{Interaction, InteractiveApp, MemRef, ProcessProfile, RefRun, RefStream, WorkUnit};
pub use arch::{ArchParams, Architecture};
pub use attack::{
    AttackOutcome, AttackRunner, AttackTrace, ChannelPlacement, ChannelVerdict, CovertChannel,
};
pub use boundary::mi6_boundary_cost;
pub use cluster::{ClusterConfig, ClusterManager, PurgeOrder, ReconfigError};
pub use faults::{
    BackoffPolicy, FaultArch, FaultCell, FaultCellKey, FaultConfig, FaultEvent, FaultGrid,
    FaultKind, FaultMatrix, FaultSchedule, FaultSweepError,
};
pub use ipc::SharedIpcBuffer;
pub use isolation::{IsolationAuditor, IsolationSummary};
pub use kernel::{AttestationError, Measurement, SecureKernel, TrustRelation};
pub use realloc::{ReallocDecision, ReallocPolicy};
pub use runner::{CompletionReport, ExperimentRunner, RunError};
pub use speccheck::{SpecCheckOutcome, SpeculativeAccessCheck};
pub use sweep::{
    AblationCell, AblationCellKey, AblationGrid, AblationMatrix, AblationSpec, AblationSweepError,
    AppSpec, AttackCell, AttackCellKey, AttackGrid, AttackMatrix, AttackSpec, AttackSweepError,
    CellError, CellKey, Fig6Row, Fig7Row, Fig8Row, Matrix, MatrixRow, PaperValue, ScalePoint,
    ScorecardRow, SweepCell, SweepError, SweepGrid, SweepMatrix, SweepRunner, PAPER_VALUES,
};
pub use tenancy::{
    AdmissionPolicy, Arrival, ArrivalGenerator, LoadPoint, SloAccount, StormConfig, StormReport,
    TenancyCell, TenancyCellKey, TenancyGrid, TenancyMatrix, TenancyStorm, TenancySweepError,
    TenantProfile,
};

/// 64-bit FNV-1a over `bytes`: the one hash behind cell-seed derivation,
/// attestation measurements and the matrix, SLO and fault-schedule
/// checksums.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}
