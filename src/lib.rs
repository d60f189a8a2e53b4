//! # ironhide
//!
//! Facade crate for the IRONHIDE reproduction (Omar & Khan, HPCA 2020):
//! *"IRONHIDE: A Secure Multicore that Efficiently Mitigates Microarchitecture
//! State Attacks for Interactive Applications"*.
//!
//! The workspace is split into substrate crates (mesh NoC, caches/TLBs,
//! memory system, multicore simulator), the paper's contribution
//! ([`ironhide_core`]: execution architectures, secure kernel, dynamic
//! hardware isolation, core re-allocation predictor) and the interactive
//! application models ([`ironhide_workloads`]). This crate re-exports all of
//! them under one roof so that examples and downstream users can depend on a
//! single crate.
//!
//! # Quickstart
//!
//! ```
//! use ironhide::prelude::*;
//!
//! // Build the paper's 64-core machine and run one interactive application
//! // (AES encryption fed by an insecure query generator) under IRONHIDE.
//! let machine = MachineConfig::paper_default();
//! let mut app = AppId::QueryAes.instantiate(&ScaleFactor::Smoke);
//! let report = ExperimentRunner::new(machine)
//!     .with_realloc(ReallocPolicy::Static)
//!     .run(Architecture::Ironhide, app.as_mut())
//!     .expect("experiment runs");
//! assert!(report.total_time_ms() > 0.0);
//! assert!(report.isolation.is_clean());
//! ```

#![warn(missing_docs)]

pub use ironhide_attacks;
pub use ironhide_cache;
pub use ironhide_core;
pub use ironhide_mem;
pub use ironhide_mesh;
pub use ironhide_sim;
pub use ironhide_workloads;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use ironhide_attacks::{
        ablation_channels, ablation_grid, ablation_subsets, all_but_predictor, attack_grid,
        attack_spec, smoke_subsets, window_attack_spec, ChannelKind, FaultAudit, FaultMode,
        LeakageOracle, WindowAttack,
    };
    pub use ironhide_core::app::{
        Interaction, InteractiveApp, MemRef, ProcessProfile, RefRun, RefStream, WorkUnit,
    };
    pub use ironhide_core::arch::{ArchParams, Architecture};
    pub use ironhide_core::attack::{
        AttackOutcome, AttackRunner, AttackTrace, ChannelPlacement, ChannelVerdict, CovertChannel,
        StreamSlot, Transmission,
    };
    pub use ironhide_core::cluster::{ClusterManager, PurgeOrder};
    pub use ironhide_core::faults::{
        FaultArch, FaultCell, FaultCellKey, FaultConfig, FaultEvent, FaultGrid, FaultKind,
        FaultMatrix, FaultSchedule, FaultSweepError,
    };
    pub use ironhide_core::realloc::ReallocPolicy;
    pub use ironhide_core::runner::{CompletionReport, ExperimentRunner};
    pub use ironhide_core::sweep::{
        AblationCell, AblationCellKey, AblationGrid, AblationMatrix, AblationSpec, AppSpec,
        AttackCell, AttackCellKey, AttackGrid, AttackMatrix, AttackSpec, CellKey, Fig6Row, Fig7Row,
        Fig8Row, ScalePoint, SweepCell, SweepGrid, SweepMatrix, SweepRunner,
    };
    pub use ironhide_core::tenancy::{
        AdmissionPolicy, Arrival, ArrivalGenerator, LoadPoint, SloAccount, StormConfig,
        StormReport, TenancyCell, TenancyCellKey, TenancyGrid, TenancyMatrix, TenancyStorm,
        TenantProfile,
    };
    pub use ironhide_mesh::{ClusterId, MeshTopology, NodeId, RoutingAlgorithm};
    pub use ironhide_sim::config::MachineConfig;
    pub use ironhide_sim::fence::{FlushCosts, FlushResource, FlushSet, TemporalFenceConfig};
    pub use ironhide_sim::process::SecurityClass;
    pub use ironhide_workloads::app::{sweep_grid, tenant_profiles, AppId, ScaleFactor};
}
