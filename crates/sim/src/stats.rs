//! Machine-level and per-process statistics.

use ironhide_cache::{CacheStats, DirectoryStats};
use ironhide_mem::MemStats;
use ironhide_mesh::NocStats;

/// Statistics attributed to a single process (summed over every core it ran
/// on). Figure 7 of the paper reports the L1 and L2 miss rates per
/// interactive application, which are derived from these counters.
#[derive(Debug, Clone, Default)]
pub struct ProcessStats {
    /// Private L1 behaviour of the process's accesses.
    pub l1: CacheStats,
    /// Private TLB behaviour of the process's accesses.
    pub tlb: CacheStats,
    /// Shared L2 behaviour of the process's accesses.
    pub l2: CacheStats,
    /// Off-chip accesses made on behalf of the process.
    pub dram_accesses: u64,
    /// Total memory-access latency charged to the process, in cycles.
    pub memory_cycles: u64,
}

impl ProcessStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges another block into this one.
    pub fn merge(&mut self, other: &ProcessStats) {
        self.l1.merge(&other.l1);
        self.tlb.merge(&other.tlb);
        self.l2.merge(&other.l2);
        self.dram_accesses += other.dram_accesses;
        self.memory_cycles += other.memory_cycles;
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = ProcessStats::default();
    }

    /// Attributes `refs` references to one page, `cycles` in total: only the
    /// first can miss the TLB, each L1 miss is one L2 access, and `dram` of
    /// those missed the L2 too.
    pub(crate) fn record_refs(
        &mut self,
        refs: u64,
        tlb_hit: bool,
        l1_misses: u64,
        dram: u64,
        cycles: u64,
    ) {
        let tlb_misses = u64::from(!tlb_hit);
        self.tlb.accesses += refs;
        self.tlb.hits += refs - tlb_misses;
        self.tlb.misses += tlb_misses;
        self.l1.accesses += refs;
        self.l1.hits += refs - l1_misses;
        self.memory_cycles += cycles;
        // Every scalar L1 hit lands here: it skips the five miss counters.
        if l1_misses > 0 {
            self.l1.misses += l1_misses;
            self.l2.accesses += l1_misses;
            self.l2.hits += l1_misses - dram;
            self.l2.misses += dram;
            self.dram_accesses += dram;
        }
    }
}

/// Machine-wide statistics snapshot.
#[derive(Debug, Clone, Default)]
pub struct MachineStats {
    /// Aggregate over all private L1s.
    pub l1: CacheStats,
    /// Aggregate over all private TLBs.
    pub tlb: CacheStats,
    /// Aggregate over all shared L2 slices.
    pub l2: CacheStats,
    /// Aggregate over all memory controllers.
    pub mem: MemStats,
    /// NoC traffic counters.
    pub noc: NocStats,
    /// Aggregate over all home-slice coherence directories (the
    /// coherence-traffic counters the README documents for `BENCH_*.json`).
    pub directory: DirectoryStats,
    /// Number of whole-core purge operations performed.
    pub core_purges: u64,
    /// Number of pages re-homed by reconfigurations.
    pub pages_rehomed: u64,
}

impl MachineStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_stats_merge() {
        let mut a = ProcessStats::new();
        a.l1.accesses = 10;
        a.l1.misses = 2;
        a.dram_accesses = 1;
        let mut b = ProcessStats::new();
        b.l1.accesses = 5;
        b.l1.hits = 5;
        b.memory_cycles = 100;
        a.merge(&b);
        assert_eq!(a.l1.accesses, 15);
        assert_eq!(a.memory_cycles, 100);
        assert_eq!(a.dram_accesses, 1);
        a.reset();
        assert_eq!(a.l1.accesses, 0);
    }

    #[test]
    fn machine_stats_default_is_zero() {
        let m = MachineStats::new();
        assert_eq!(m.l1.accesses, 0);
        assert_eq!(m.core_purges, 0);
        assert_eq!(m.noc.packets, 0);
    }
}
