//! Physically isolated DRAM regions and their controller mapping.

use std::fmt;

use crate::controller::ControllerMask;

/// Identifier of a DRAM region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RegionId(pub usize);

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region{}", self.0)
    }
}

/// The security domain a DRAM region is dedicated to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionOwner {
    /// Dedicated to secure processes / the secure cluster.
    Secure,
    /// Dedicated to insecure processes / the insecure cluster. The shared IPC
    /// buffer always lives in an insecure region.
    Insecure,
}

/// A physically contiguous DRAM region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRegion {
    /// Region identifier.
    pub id: RegionId,
    /// First physical address of the region.
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
    /// Memory controller that services the region.
    pub controller: usize,
    /// Security domain the region is dedicated to.
    pub owner: RegionOwner,
}

impl DramRegion {
    /// Whether `addr` falls inside this region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.size
    }
}

/// Error returned when an address cannot be attributed to any region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnmappedAddress(pub u64);

impl fmt::Display for UnmappedAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "physical address {:#x} is not mapped to any DRAM region", self.0)
    }
}

impl std::error::Error for UnmappedAddress {}

/// The machine's DRAM region map: which regions exist, who owns them, and
/// which controllers service them.
#[derive(Debug, Clone, Default)]
pub struct RegionMap {
    regions: Vec<DramRegion>,
}

impl RegionMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the paper's layout: `controllers` memory controllers, each
    /// serving one secure and one insecure region of `region_size` bytes.
    /// Secure regions occupy the low half of each controller's address range.
    pub fn paper_layout(controllers: usize, region_size: u64) -> Self {
        let mut map = RegionMap::new();
        let mut next_base = 0u64;
        let mut next_id = 0usize;
        for mc in 0..controllers {
            for owner in [RegionOwner::Secure, RegionOwner::Insecure] {
                map.regions.push(DramRegion {
                    id: RegionId(next_id),
                    base: next_base,
                    size: region_size,
                    controller: mc,
                    owner,
                });
                next_base += region_size;
                next_id += 1;
            }
        }
        map
    }

    /// Adds a region.
    pub fn push(&mut self, region: DramRegion) {
        self.regions.push(region);
    }

    /// All regions.
    pub fn regions(&self) -> &[DramRegion] {
        &self.regions
    }

    /// Regions owned by `owner`.
    pub fn regions_of(&self, owner: RegionOwner) -> Vec<&DramRegion> {
        self.regions.iter().filter(|r| r.owner == owner).collect()
    }

    /// The region containing `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedAddress`] if no region contains the address.
    pub fn region_of(&self, addr: u64) -> Result<&DramRegion, UnmappedAddress> {
        self.regions.iter().find(|r| r.contains(addr)).ok_or(UnmappedAddress(addr))
    }

    /// The controller servicing `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedAddress`] if no region contains the address.
    pub fn controller_of(&self, addr: u64) -> Result<usize, UnmappedAddress> {
        self.region_of(addr).map(|r| r.controller)
    }

    /// The owner of the region containing `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedAddress`] if no region contains the address.
    pub fn owner_of(&self, addr: u64) -> Result<RegionOwner, UnmappedAddress> {
        self.region_of(addr).map(|r| r.owner)
    }

    /// The controller mask covering all regions owned by `owner` — the `pos`
    /// bit-mask handed to the prototype's interleaving API.
    pub fn controller_mask_of(&self, owner: RegionOwner) -> ControllerMask {
        let mut mask = 0u32;
        for r in self.regions_of(owner) {
            mask |= 1 << r.controller;
        }
        ControllerMask(mask)
    }

    /// Checks the strong-isolation invariant that controller masks derived
    /// from the two owners are disjoint (every controller serves one domain).
    /// The multicore-MI6 baseline intentionally violates this (controllers are
    /// shared and purged instead); IRONHIDE requires it to hold.
    pub fn controllers_disjoint(&self) -> bool {
        !self
            .controller_mask_of(RegionOwner::Secure)
            .overlaps(self.controller_mask_of(RegionOwner::Insecure))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_layout_shape() {
        let map = RegionMap::paper_layout(4, 1 << 30);
        assert_eq!(map.regions().len(), 8);
        assert_eq!(map.regions_of(RegionOwner::Secure).len(), 4);
        assert_eq!(map.regions_of(RegionOwner::Insecure).len(), 4);
    }

    #[test]
    fn lookup_by_address() {
        let map = RegionMap::paper_layout(2, 0x1000);
        assert_eq!(map.region_of(0x0).unwrap().owner, RegionOwner::Secure);
        assert_eq!(map.region_of(0x1000).unwrap().owner, RegionOwner::Insecure);
        assert_eq!(map.controller_of(0x2000).unwrap(), 1);
        assert!(map.region_of(0x4000).is_err());
    }

    #[test]
    fn controller_masks_cover_shared_controllers() {
        // In the paper layout each controller serves both a secure and an
        // insecure region (the MI6 arrangement), so the masks overlap.
        let map = RegionMap::paper_layout(4, 0x1000);
        assert!(!map.controllers_disjoint());
        assert_eq!(map.controller_mask_of(RegionOwner::Secure).count(), 4);
    }

    #[test]
    fn dedicated_controllers_are_disjoint() {
        // The IRONHIDE arrangement: MC0/MC1 secure, MC2/MC3 insecure.
        let mut map = RegionMap::new();
        for (i, owner) in
            [RegionOwner::Secure, RegionOwner::Secure, RegionOwner::Insecure, RegionOwner::Insecure]
                .iter()
                .enumerate()
        {
            map.push(DramRegion {
                id: RegionId(i),
                base: i as u64 * 0x1000,
                size: 0x1000,
                controller: i,
                owner: *owner,
            });
        }
        assert!(map.controllers_disjoint());
        assert_eq!(map.controller_mask_of(RegionOwner::Secure).0, 0b0011);
        assert_eq!(map.controller_mask_of(RegionOwner::Insecure).0, 0b1100);
    }

    #[test]
    fn unmapped_address_error_message() {
        let map = RegionMap::new();
        let err = map.region_of(0x42).unwrap_err();
        assert!(err.to_string().contains("not mapped"));
    }
}
