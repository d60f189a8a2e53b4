//! Variable-latency memory controllers with purgeable queues.

use ironhide_mesh::round_half_up;

use crate::dram::DramConfig;
use crate::stats::MemStats;

/// A bit-mask selecting a subset of the machine's memory controllers, mirroring
/// the `pos` argument of `tmc_alloc_set_nodes_interleaved` on the prototype
/// (e.g. `0b0011` dedicates MC0 and MC1 to the secure cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ControllerMask(pub u32);

impl ControllerMask {
    /// The number of controllers a mask can select.
    pub const CAPACITY: usize = u32::BITS as usize;

    /// A mask selecting controllers `[0, count)`.
    pub fn first(count: usize) -> Self {
        assert!(count <= Self::CAPACITY, "at most 32 controllers are supported");
        if count == Self::CAPACITY {
            ControllerMask(u32::MAX)
        } else {
            ControllerMask((1u32 << count) - 1)
        }
    }

    /// A mask selecting controllers `[start, start + count)`.
    ///
    /// # Panics
    ///
    /// Panics if `start + count > 32` — the range would silently shift
    /// selected bits off the top of the mask otherwise.
    pub fn range(start: usize, count: usize) -> Self {
        assert!(
            start.checked_add(count).is_some_and(|end| end <= Self::CAPACITY),
            "controller range [{start}, {start} + {count}) exceeds the 32-controller mask"
        );
        ControllerMask(ControllerMask::first(count).0 << start)
    }

    /// Whether controller `id` is selected.
    pub fn contains(self, id: usize) -> bool {
        id < Self::CAPACITY && (self.0 >> id) & 1 == 1
    }

    /// Number of selected controllers.
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates over the selected controller ids in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        (0..Self::CAPACITY).filter(move |i| self.contains(*i))
    }

    /// Whether this mask shares any controller with `other` (strong isolation
    /// requires cluster masks to be disjoint).
    pub fn overlaps(self, other: ControllerMask) -> bool {
        self.0 & other.0 != 0
    }
}

/// A single memory controller: open-row tracking per bank plus an occupancy
/// based queueing-delay model, and the purge operation used by MI6.
#[derive(Debug, Clone)]
pub struct MemoryController {
    id: usize,
    config: DramConfig,
    open_rows: Vec<Option<u64>>,
    queue_occupancy: f64,
    /// Injected fault stall: extra cycles charged on every request while the
    /// controller is degraded (0 on a healthy controller).
    fault_stall_cycles: u64,
    stats: MemStats,
}

impl MemoryController {
    /// Creates controller `id` with the given DRAM parameters.
    pub fn new(id: usize, config: DramConfig) -> Self {
        MemoryController {
            id,
            config,
            open_rows: vec![None; config.banks],
            queue_occupancy: 0.0,
            fault_stall_cycles: 0,
            stats: MemStats::new(),
        }
    }

    /// Degrades (or, with 0, repairs) the controller: every subsequent request
    /// is charged `cycles` extra, modelling a controller stalling on retries
    /// after an internal fault. Used by the fault-injection layer.
    pub fn set_fault_stall(&mut self, cycles: u64) {
        self.fault_stall_cycles = cycles;
    }

    /// The injected per-request fault stall currently in effect (0 when
    /// healthy).
    pub fn fault_stall(&self) -> u64 {
        self.fault_stall_cycles
    }

    /// This controller's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// DRAM parameters in use.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Resets statistics without touching device state.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Current estimated queue occupancy (requests waiting).
    pub fn queue_occupancy(&self) -> f64 {
        self.queue_occupancy
    }

    /// Services one request for `addr`. `concurrent_pressure` is the number of
    /// other requests the caller knows to be outstanding (used to scale the
    /// queueing term when many cores share the controller). Returns the total
    /// latency in cycles.
    pub fn access(&mut self, addr: u64, write: bool, concurrent_pressure: u64) -> u64 {
        let bank = self.config.bank_of(addr);
        let row = self.config.row_of(addr);
        let row_hit = self.open_rows[bank] == Some(row);
        self.open_rows[bank] = Some(row);

        // Queue model: exponential moving average of occupancy, nudged by the
        // caller-reported pressure, capped at the physical queue depth.
        let target = (concurrent_pressure as f64).min(self.config.queue_depth as f64);
        self.queue_occupancy = 0.9 * self.queue_occupancy + 0.1 * target;
        let queue_delay = round_half_up(self.queue_occupancy) * self.config.queue_cycles_per_entry;

        let device = if row_hit { self.config.row_hit_cycles } else { self.config.row_miss_cycles };
        let total = device + queue_delay + self.fault_stall_cycles;

        self.stats.requests += 1;
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        if row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        self.stats.total_latency_cycles += total;
        total
    }

    /// Resets the controller to its just-constructed state (closed rows,
    /// empty queue estimate, statistics zeroed). Used when a scratch machine
    /// is recycled.
    pub fn reset_pristine(&mut self) {
        for r in &mut self.open_rows {
            *r = None;
        }
        self.queue_occupancy = 0.0;
        self.fault_stall_cycles = 0;
        self.stats.reset();
    }

    /// Purges the controller's queues and open-row state
    /// (`tmc_mem_fence_node` on the prototype): all buffered state that could
    /// leak across an enclave boundary is drained. Returns the cycles charged
    /// for draining, proportional to the estimated occupancy.
    pub fn purge(&mut self) -> u64 {
        let drain = round_half_up(self.queue_occupancy) * self.config.queue_cycles_per_entry * 2;
        self.queue_occupancy = 0.0;
        for r in &mut self.open_rows {
            *r = None;
        }
        self.stats.purges += 1;
        drain + self.config.row_miss_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_construction() {
        assert_eq!(ControllerMask::first(2).0, 0b0011);
        assert_eq!(ControllerMask::range(2, 2).0, 0b1100);
        assert!(ControllerMask::first(2).contains(0));
        assert!(!ControllerMask::first(2).contains(2));
        assert_eq!(ControllerMask::first(4).count(), 4);
        assert_eq!(ControllerMask::range(1, 3).iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn range_at_the_top_of_the_mask_is_exact() {
        assert_eq!(ControllerMask::range(28, 4).0, 0xF000_0000);
        assert_eq!(ControllerMask::range(0, 32).0, u32::MAX);
        assert_eq!(ControllerMask::range(31, 1).iter().collect::<Vec<_>>(), vec![31]);
    }

    #[test]
    #[should_panic(expected = "exceeds the 32-controller mask")]
    fn range_past_the_top_is_rejected() {
        let _ = ControllerMask::range(30, 3);
    }

    #[test]
    fn disjoint_masks_do_not_overlap() {
        let secure = ControllerMask::first(2);
        let insecure = ControllerMask::range(2, 2);
        assert!(!secure.overlaps(insecure));
        assert!(secure.overlaps(ControllerMask::first(1)));
    }

    #[test]
    fn row_hit_is_cheaper_than_row_miss() {
        let mut mc = MemoryController::new(0, DramConfig::default());
        let miss = mc.access(0x0, false, 0);
        let hit = mc.access(0x40, false, 0);
        assert!(hit < miss);
        assert_eq!(mc.stats().row_hits, 1);
        assert_eq!(mc.stats().row_misses, 1);
    }

    #[test]
    fn queue_pressure_raises_latency() {
        let mut quiet = MemoryController::new(0, DramConfig::default());
        let mut busy = MemoryController::new(1, DramConfig::default());
        let mut quiet_total = 0;
        let mut busy_total = 0;
        for i in 0..100u64 {
            quiet_total += quiet.access(i * 64, false, 0);
            busy_total += busy.access(i * 64, false, 16);
        }
        assert!(busy_total > quiet_total);
    }

    #[test]
    fn purge_resets_row_buffers_and_counts() {
        let mut mc = MemoryController::new(0, DramConfig::default());
        mc.access(0x0, false, 4);
        let hit_before = mc.access(0x40, false, 4);
        let drain = mc.purge();
        assert!(drain > 0);
        assert_eq!(mc.stats().purges, 1);
        // After a purge the open row is lost, so the same address misses again.
        let after = mc.access(0x80, false, 0);
        assert!(after >= hit_before);
        assert_eq!(mc.queue_occupancy(), 0.0);
    }

    #[test]
    fn fault_stall_charges_every_request_until_repaired() {
        let mut healthy = MemoryController::new(0, DramConfig::default());
        let mut degraded = MemoryController::new(1, DramConfig::default());
        degraded.set_fault_stall(123);
        assert_eq!(degraded.fault_stall(), 123);
        for i in 0..10u64 {
            let h = healthy.access(i * 64, false, 4);
            let d = degraded.access(i * 64, false, 4);
            assert_eq!(d, h + 123, "request {i}");
        }
        degraded.set_fault_stall(0);
        assert_eq!(degraded.access(0x4000, false, 4), healthy.access(0x4000, false, 4));
        degraded.set_fault_stall(7);
        degraded.reset_pristine();
        assert_eq!(degraded.fault_stall(), 0, "pristine reset must repair the controller");
    }

    #[test]
    fn stats_track_reads_and_writes() {
        let mut mc = MemoryController::new(0, DramConfig::default());
        mc.access(0x0, false, 0);
        mc.access(0x1000, true, 0);
        assert_eq!(mc.stats().reads, 1);
        assert_eq!(mc.stats().writes, 1);
        assert_eq!(mc.stats().requests, 2);
        assert!(mc.stats().mean_latency() > 0.0);
    }
}
