//! Machine configuration.

use crate::fence::TemporalFenceConfig;
use ironhide_cache::{ArrayError, CacheConfig, DirectoryConfig, DirectoryConfigError, TlbConfig};
use ironhide_mem::{ControllerMask, DramConfig};
use ironhide_mesh::NocLatencyConfig;

/// An inconsistency in a [`MachineConfig`], reported as a value so campaign
/// harnesses can log the bad geometry and move on instead of aborting
/// mid-sweep. `expect`/`panic!` on it only at bin entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The mesh has zero tiles (`mesh_width * mesh_height == 0`).
    ZeroCores,
    /// More tiles than the directory sharer sets can track.
    TooManyCores {
        /// Requested tile count.
        cores: usize,
        /// Maximum trackable tile count.
        max: usize,
    },
    /// No memory controllers.
    ZeroControllers,
    /// A zero or negative clock frequency.
    NonPositiveClock,
    /// A zero-byte DRAM region.
    EmptyDramRegion,
    /// More memory controllers than a `ControllerMask` can select.
    TooManyControllers {
        /// Requested controller count.
        controllers: usize,
        /// Maximum selectable controller count.
        max: usize,
    },
    /// A cache (`"l1"` or `"l2_slice"`, as the config fields are named) with
    /// zero ways, a zero-byte line or too little capacity for one set.
    EmptyCache {
        /// The config field naming the cache.
        cache: &'static str,
    },
    /// A TLB with no entries or zero-byte pages.
    EmptyTlb,
    /// A page size that is not a whole number of a cache's lines.
    PageSplitsLines {
        /// Page size in bytes.
        page_bytes: usize,
        /// The line size the page does not divide into.
        line_bytes: usize,
    },
    /// A directory geometry with a zero dimension or an entry count beyond
    /// `usize`.
    Directory(DirectoryConfigError),
    /// A structure whose array the host would not provide: the geometry
    /// asks for more memory than can be allocated or mapped.
    Unallocatable {
        /// The config field naming the structure (`"l1"`, `"tlb"`,
        /// `"l2_slice"` or `"directory"`).
        structure: &'static str,
        /// The refused array.
        array: ArrayError,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroCores => write!(f, "machine must have at least one core"),
            ConfigError::TooManyCores { cores, max } => {
                write!(f, "directory sharer sets support up to {max} cores, got {cores}")
            }
            ConfigError::ZeroControllers => {
                write!(f, "machine must have at least one memory controller")
            }
            ConfigError::NonPositiveClock => write!(f, "clock frequency must be positive"),
            ConfigError::EmptyDramRegion => write!(f, "DRAM regions must be non-empty"),
            ConfigError::TooManyControllers { controllers, max } => {
                write!(f, "controller masks select up to {max} controllers, got {controllers}")
            }
            ConfigError::EmptyCache { cache } => {
                write!(f, "{cache} cache must have ways, a non-zero line size and room for one set")
            }
            ConfigError::EmptyTlb => write!(f, "TLB must have entries and non-zero pages"),
            ConfigError::PageSplitsLines { page_bytes, line_bytes } => {
                write!(f, "{page_bytes}-byte pages do not hold whole {line_bytes}-byte lines")
            }
            ConfigError::Directory(e) => write!(f, "{e}"),
            ConfigError::Unallocatable { structure, array } => {
                write!(f, "{structure}: {array}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Fixed latencies of the machine, in core cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyConfig {
    /// Private L1 hit latency.
    pub l1_hit: u64,
    /// Shared L2 slice access latency (tag + data array, excluding the NoC).
    pub l2_hit: u64,
    /// Page-table walk latency charged on a TLB miss.
    pub page_walk: u64,
    /// Cycles to flush-and-invalidate one private cache line during a purge
    /// (the prototype reads a dummy buffer through the L1, so every line costs
    /// roughly an L2 round trip).
    pub purge_line: u64,
    /// Cycles for the memory-fence portion of a purge
    /// (`tmc_mem_fence`/`tmc_mem_fence_node`: wait until all dirty data has
    /// drained to the L2 slices and DRAM).
    pub purge_fence: u64,
    /// Cycles to invalidate one TLB entry during a purge.
    pub purge_tlb_entry: u64,
    /// Cycles to re-home one page of shared-L2 data during an IRONHIDE
    /// cluster reconfiguration (unmap, set-home, remap).
    pub rehome_page: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            l1_hit: 2,
            l2_hit: 11,
            page_walk: 60,
            purge_line: 260,
            purge_tlb_entry: 40,
            purge_fence: 45_000,
            rehome_page: 900,
        }
    }
}

/// Full description of the simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Mesh width (columns of tiles).
    pub mesh_width: usize,
    /// Mesh height (rows of tiles).
    pub mesh_height: usize,
    /// Private L1 data cache geometry (per tile).
    pub l1: CacheConfig,
    /// Shared L2 slice geometry (per tile).
    pub l2_slice: CacheConfig,
    /// Coherence-directory geometry of each home slice (see
    /// [`ironhide_cache::Directory`]). Bounded like the real SRAM structure,
    /// so directory conflicts — and the conflict covert channel — exist.
    pub directory: DirectoryConfig,
    /// Private data TLB geometry (per tile).
    pub tlb: TlbConfig,
    /// DRAM device parameters (per controller).
    pub dram: DramConfig,
    /// Number of memory controllers.
    pub controllers: usize,
    /// Size of each DRAM region in bytes (each controller maps one secure and
    /// one insecure region).
    pub dram_region_bytes: u64,
    /// Core clock frequency in GHz, used to convert cycles to wall-clock time.
    pub clock_ghz: f64,
    /// Fixed-latency parameters.
    pub latency: LatencyConfig,
    /// NoC latency parameters.
    pub noc: NocLatencyConfig,
    /// Temporal-fence flush policy applied at domain switches when the
    /// machine runs under the `TemporalFence` architecture (ignored by every
    /// other architecture). Defaults to [`TemporalFenceConfig::off`], which
    /// flushes nothing and charges nothing.
    pub temporal_fence: TemporalFenceConfig,
}

impl MachineConfig {
    /// The paper's experimental machine: 64 tiles (8×8 mesh), 32 KB 4-way L1,
    /// 256 KB 8-way L2 slice and a 32-entry TLB per tile, four memory
    /// controllers, 1.2 GHz clock (Tile-Gx72 class).
    pub fn paper_default() -> Self {
        MachineConfig {
            mesh_width: 8,
            mesh_height: 8,
            l1: CacheConfig::paper_l1(),
            l2_slice: CacheConfig::paper_l2_slice(),
            directory: DirectoryConfig::for_l2_slice(&CacheConfig::paper_l2_slice()),
            tlb: TlbConfig::paper_dtlb(),
            dram: DramConfig::default(),
            controllers: 4,
            dram_region_bytes: 1 << 30,
            clock_ghz: 1.2,
            latency: LatencyConfig::default(),
            noc: NocLatencyConfig::default(),
            temporal_fence: TemporalFenceConfig::off(),
        }
    }

    /// A deliberately tiny machine (4 tiles, small caches) for fast unit and
    /// property tests.
    pub fn small_test() -> Self {
        MachineConfig {
            mesh_width: 2,
            mesh_height: 2,
            l1: CacheConfig::new(1024, 2, 64),
            l2_slice: CacheConfig::new(4096, 4, 64),
            directory: DirectoryConfig::for_l2_slice(&CacheConfig::new(4096, 4, 64)),
            tlb: TlbConfig::new(4, 4096),
            dram: DramConfig::default(),
            controllers: 2,
            dram_region_bytes: 1 << 22,
            clock_ghz: 1.0,
            latency: LatencyConfig::default(),
            noc: NocLatencyConfig::default(),
            temporal_fence: TemporalFenceConfig::off(),
        }
    }

    /// The covert-channel testbench: an 8-tile (4×2) mesh with the tiny cache
    /// geometries of [`MachineConfig::small_test`]. Sized so that one 4 KB
    /// page exactly fills one L2 slice (64 lines = 16 sets × 4 ways), which
    /// makes page-granular occupancy attacks land deterministically, while
    /// the 4-wide rows give the NoC contention channel multi-hop routes to
    /// congest. Used by `ironhide-attacks` and the security regression suite.
    pub fn attack_testbench() -> Self {
        MachineConfig {
            mesh_width: 4,
            mesh_height: 2,
            l1: CacheConfig::new(1024, 2, 64),
            l2_slice: CacheConfig::new(4096, 4, 64),
            directory: DirectoryConfig::for_l2_slice(&CacheConfig::new(4096, 4, 64)),
            tlb: TlbConfig::new(4, 4096),
            dram: DramConfig::default(),
            controllers: 2,
            dram_region_bytes: 1 << 22,
            clock_ghz: 1.0,
            latency: LatencyConfig::default(),
            noc: NocLatencyConfig::default(),
            temporal_fence: TemporalFenceConfig::off(),
        }
    }

    /// Number of tiles (cores) in the machine.
    pub fn cores(&self) -> usize {
        self.mesh_width * self.mesh_height
    }

    /// Validates internal consistency, reporting the first inconsistency
    /// found (zero cores, zero controllers, a non-positive clock, an empty
    /// cache, TLB or directory, pages that split cache lines, …) as a typed
    /// [`ConfigError`]. Whether the host can hold the machine's arrays is
    /// known only once they are built: [`crate::Machine::try_new`] reports
    /// that.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores() == 0 {
            return Err(ConfigError::ZeroCores);
        }
        if self.cores() > ironhide_mesh::NodeSet::MAX_NODES {
            return Err(ConfigError::TooManyCores {
                cores: self.cores(),
                max: ironhide_mesh::NodeSet::MAX_NODES,
            });
        }
        if self.controllers == 0 {
            return Err(ConfigError::ZeroControllers);
        }
        if self.controllers > ControllerMask::CAPACITY {
            return Err(ConfigError::TooManyControllers {
                controllers: self.controllers,
                max: ControllerMask::CAPACITY,
            });
        }
        if self.clock_ghz <= 0.0 {
            return Err(ConfigError::NonPositiveClock);
        }
        if self.dram_region_bytes == 0 {
            return Err(ConfigError::EmptyDramRegion);
        }
        for (cache, config) in [("l1", &self.l1), ("l2_slice", &self.l2_slice)] {
            let set_bytes = config.ways.saturating_mul(config.line_bytes);
            if set_bytes == 0 || config.size_bytes < set_bytes {
                return Err(ConfigError::EmptyCache { cache });
            }
        }
        self.directory.validate().map_err(ConfigError::Directory)?;
        if self.tlb.entries == 0 || self.tlb.page_bytes == 0 {
            return Err(ConfigError::EmptyTlb);
        }
        for line_bytes in [self.l1.line_bytes, self.l2_slice.line_bytes] {
            if !self.tlb.page_bytes.is_multiple_of(line_bytes) {
                return Err(ConfigError::PageSplitsLines {
                    page_bytes: self.tlb.page_bytes,
                    line_bytes,
                });
            }
        }
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_shape() {
        let c = MachineConfig::paper_default();
        c.validate().unwrap();
        assert_eq!(c.cores(), 64);
        assert_eq!(c.controllers, 4);
        assert!(c.clock_ghz > 1.0);
    }

    #[test]
    fn small_machine_is_valid() {
        let c = MachineConfig::small_test();
        c.validate().unwrap();
        assert_eq!(c.cores(), 4);
    }

    #[test]
    fn attack_testbench_geometry() {
        let c = MachineConfig::attack_testbench();
        c.validate().unwrap();
        assert_eq!(c.cores(), 8);
        assert_eq!(c.controllers, 2);
        // One page fills one slice exactly: the occupancy-channel contract.
        let lines_per_page = c.tlb.page_bytes as u64 / c.l2_slice.line_bytes as u64;
        let lines_per_slice = (c.l2_slice.size_bytes / c.l2_slice.line_bytes) as u64;
        assert_eq!(lines_per_page, lines_per_slice);
    }

    #[test]
    fn bad_geometry_reported_as_typed_errors() {
        let mut c = MachineConfig::small_test();
        c.mesh_width = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroCores));
        assert!(format!("{}", ConfigError::ZeroCores).contains("at least one core"));

        let mut c = MachineConfig::small_test();
        c.controllers = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroControllers));

        let mut c = MachineConfig::small_test();
        c.clock_ghz = 0.0;
        assert_eq!(c.validate(), Err(ConfigError::NonPositiveClock));

        let mut c = MachineConfig::small_test();
        c.dram_region_bytes = 0;
        assert_eq!(c.validate(), Err(ConfigError::EmptyDramRegion));

        let mut c = MachineConfig::small_test();
        c.mesh_width = 1_000;
        c.mesh_height = 1_000;
        assert!(matches!(c.validate(), Err(ConfigError::TooManyCores { .. })));
    }

    #[test]
    fn cache_tlb_and_controller_geometry_reported_as_typed_errors() {
        let broken = |edit: fn(&mut MachineConfig)| {
            let mut c = MachineConfig::small_test();
            edit(&mut c);
            c
        };
        let bad = [
            (broken(|c| c.l1.ways = 0), ConfigError::EmptyCache { cache: "l1" }),
            (broken(|c| c.l2_slice.ways = 0), ConfigError::EmptyCache { cache: "l2_slice" }),
            (broken(|c| c.l1.size_bytes = 0), ConfigError::EmptyCache { cache: "l1" }),
            (broken(|c| c.tlb.entries = 0), ConfigError::EmptyTlb),
            (
                broken(|c| c.l1.line_bytes = 48),
                ConfigError::PageSplitsLines { page_bytes: 4096, line_bytes: 48 },
            ),
            (
                broken(|c| c.tlb.page_bytes = 3000),
                ConfigError::PageSplitsLines { page_bytes: 3000, line_bytes: 64 },
            ),
            (
                broken(|c| c.controllers = 40),
                ConfigError::TooManyControllers { controllers: 40, max: 32 },
            ),
        ];
        for (i, (config, want)) in bad.into_iter().enumerate() {
            assert_eq!(config.validate(), Err(want), "input {i}");
            assert_eq!(crate::Machine::try_new(config).err(), Some(want), "input {i}");
            assert!(!want.to_string().is_empty());
        }
        broken(|c| c.controllers = 32).validate().expect("a full controller mask is valid");
    }

    #[test]
    fn directory_and_array_geometry_reported_as_typed_errors() {
        let with_directory = |sets, ways| {
            let mut c = MachineConfig::small_test();
            c.directory = DirectoryConfig { sets, ways };
            c
        };
        for (sets, ways) in [(0, 4), (4, 0), (1 << 63, 4)] {
            let want = ConfigError::Directory(DirectoryConfigError { sets, ways });
            assert_eq!(with_directory(sets, ways).validate(), Err(want), "{sets} x {ways}");
            let got = crate::Machine::try_new(with_directory(sets, ways)).err();
            assert_eq!(got, Some(want), "{sets} x {ways}");
        }

        // Valid on paper, but 2^56 lines per slice is no array any host
        // holds: the machine reports it instead of aborting.
        let mut c = MachineConfig::small_test();
        c.l2_slice.size_bytes = 1 << 62;
        c.validate().expect("the geometry itself is consistent");
        let err = crate::Machine::try_new(c).map(|_| ()).expect_err("no host holds the slices");
        let want = ArrayError { len: 1 << 56, elem_bytes: 24 };
        assert_eq!(err, ConfigError::Unallocatable { structure: "l2_slice", array: want });
        assert!(err.to_string().starts_with("l2_slice: cannot allocate"), "{err}");

        // Likewise 2^58 TLB entries (4 EiB), which aborted the process.
        let mut c = MachineConfig::small_test();
        c.tlb.entries = 1 << 58;
        let err = crate::Machine::try_new(c).map(|_| ()).expect_err("no host holds the TLBs");
        let want = ArrayError { len: 1 << 58, elem_bytes: 16 };
        assert_eq!(err, ConfigError::Unallocatable { structure: "tlb", array: want });
    }

    #[test]
    fn default_latencies_ordered() {
        let l = LatencyConfig::default();
        assert!(l.l1_hit < l.l2_hit);
        assert!(l.l2_hit < l.page_walk);
        assert!(l.purge_fence > l.purge_line);
    }
}
