//! # ironhide-cache
//!
//! Functional cache, TLB and page-homing models for the IRONHIDE reproduction.
//!
//! The paper's machine has, per tile, a private L1 data cache and a private
//! TLB, plus a slice of the logically shared, physically distributed L2 cache.
//! Three properties of this hierarchy carry the paper's results:
//!
//! * **Purging** — MI6 flushes-and-invalidates every private L1 and TLB on
//!   every enclave entry/exit, so the re-entering process pays cold misses
//!   ("L1 thrashing"). The caches here are functional (they track real tags),
//!   so that inflation emerges from the model instead of being a constant.
//! * **Local homing** — strong isolation maps each page (data structure) to a
//!   single L2 slice owned by the accessing process, and disables replication,
//!   so a process can never probe another process's slices. [`HomeMap`]
//!   implements both the default hash-for-home policy and the local-homing
//!   override, including the page re-homing used by IRONHIDE's dynamic
//!   hardware isolation.
//! * **Capacity partitioning** — statically splitting the L2 slices between
//!   the secure and insecure processes (MI6) versus re-balancing them once per
//!   application invocation (IRONHIDE) changes each process's effective L2
//!   capacity, which is what Figure 7(b) measures.
//! * **Coherence** — every home slice carries a bounded MESI [`Directory`]
//!   tracking which cores hold each line, so cross-core invalidations,
//!   downgrades and directory-conflict back-invalidations are functional
//!   state the machine charges on real mesh routes (and that the
//!   `coherence-state` covert channel attacks). Directory purges are O(1)
//!   generation bumps, wired into the MI6 boundary and IRONHIDE's
//!   reconfiguration.
//!
//! # Example
//!
//! ```
//! use ironhide_cache::{CacheConfig, SetAssocCache};
//!
//! let mut l1 = SetAssocCache::new(CacheConfig::paper_l1());
//! let miss = l1.access(0x1000, false);
//! assert!(miss.is_miss());
//! let hit = l1.access(0x1000, false);
//! assert!(hit.is_hit());
//! assert_eq!(l1.stats().misses, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod directory;
pub mod homing;
mod replacement;
pub mod set_assoc;
pub mod stats;
pub mod tlb;
mod zeroed;

pub use config::{CacheConfig, TlbConfig};
pub use directory::{
    DirOutcome, Directory, DirectoryConfig, DirectoryConfigError, DirectoryStats, EvictedEntry,
    MesiState,
};
pub use homing::{HomeMap, HomePolicy, PageId, SliceId};
pub use set_assoc::{AccessOutcome, Evicted, SetAssocCache, Way};
pub use stats::CacheStats;
pub use tlb::Tlb;
pub use zeroed::ArrayError;
