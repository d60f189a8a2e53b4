//! The defence-ablation grid: which flush subset closes which channel.
//!
//! This module assembles the {flush subset × channel} grid the
//! `TemporalFence` architecture is swept with — the experiment the fence.t.s
//! paper runs in silicon, reproduced here across channels hardware papers
//! cannot reach (the directory back-invalidation channel, mesh contention,
//! the reconfiguration window). Every cell runs one covert channel against
//! [`Architecture::TemporalFence`](ironhide_core::arch::Architecture)
//! configured with the row's flush subset; the matrix then answers, per
//! channel, what the *minimal* erasure closing it costs, and how far below
//! the SIMF flush-everything preset that sits.
//!
//! The channel axis is the complete shipped arsenal: the five
//! [`ChannelKind`] stream channels plus the reconfiguration-window attack
//! under the shipped purge order.

use ironhide_core::cluster::PurgeOrder;
use ironhide_core::sweep::{AblationGrid, AblationSpec, AttackSpec, ScalePoint};
use ironhide_sim::fence::{FlushResource, FlushSet};

use crate::channels::ChannelKind;
use crate::oracle::attack_spec;
use crate::window::window_attack_spec;

/// The full channel axis of the ablation grid: all five stream channels plus
/// the reconfiguration-window attack under the shipped purge order, in the
/// canonical order.
pub fn ablation_channels() -> Vec<AttackSpec> {
    let mut channels: Vec<AttackSpec> = ChannelKind::ALL.into_iter().map(attack_spec).collect();
    channels.push(window_attack_spec(PurgeOrder::PurgeThenRehome));
    channels
}

/// The full flush-subset axis: the zero-flush baseline, every singleton,
/// a ladder of growing combinations, the everything-but-predictor subset
/// (erases all modelled latency state, strictly cheaper than SIMF) and the
/// SIMF preset itself.
pub fn ablation_subsets() -> Vec<AblationSpec> {
    use FlushResource::*;
    let mut subsets = vec![AblationSpec::subset(FlushSet::EMPTY)];
    for r in FlushResource::ALL {
        subsets.push(AblationSpec::subset(FlushSet::of(&[r])));
    }
    subsets.push(AblationSpec::subset(FlushSet::of(&[L1, Tlb])));
    subsets.push(AblationSpec::subset(FlushSet::of(&[L1, Directory])));
    subsets.push(AblationSpec::subset(FlushSet::of(&[L1, Tlb, Directory])));
    subsets.push(AblationSpec::subset(FlushSet::of(&[L1, Tlb, Directory, NocLoad])));
    subsets.push(AblationSpec::subset(all_but_predictor()));
    subsets.push(AblationSpec::simf());
    subsets
}

/// The smoke flush-subset axis: the rows CI gates on — the zero-flush
/// baseline (every channel must stay open), the private-state ladder, the
/// everything-but-predictor subset and SIMF.
pub fn smoke_subsets() -> Vec<AblationSpec> {
    use FlushResource::*;
    vec![
        AblationSpec::subset(FlushSet::EMPTY),
        AblationSpec::subset(FlushSet::of(&[L1, Tlb, Directory])),
        AblationSpec::subset(all_but_predictor()),
        AblationSpec::simf(),
    ]
}

/// Every resource class except the cost-only predictor: the cheapest subset
/// guaranteed to erase all *modelled* latency state, and therefore to close
/// every channel SIMF closes at a strictly lower switch cost.
pub fn all_but_predictor() -> FlushSet {
    use FlushResource::*;
    FlushSet::of(&[L1, Tlb, Directory, NocLoad, Controller])
}

/// Assembles the {flush subset × channel × scale} ablation grid over the
/// full channel arsenal and the given subset rows.
pub fn ablation_grid(subsets: Vec<AblationSpec>, scales: &[ScalePoint]) -> AblationGrid {
    let mut grid = AblationGrid::new();
    for subset in subsets {
        grid = grid.with_subset(subset);
    }
    for channel in ablation_channels() {
        grid = grid.with_channel(channel);
    }
    for scale in scales {
        grid = grid.with_scale(scale.clone());
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_axis_covers_the_arsenal() {
        let channels = ablation_channels();
        assert_eq!(channels.len(), ChannelKind::ALL.len() + 1);
        for kind in ChannelKind::ALL {
            assert!(channels.iter().any(|c| c.label() == kind.label()));
        }
    }

    #[test]
    fn subset_axes_are_well_formed() {
        let full = ablation_subsets();
        // none + 6 singletons + 4 combos + all-but-pred + simf.
        assert_eq!(full.len(), 13);
        assert_eq!(full[0].label(), "none");
        assert_eq!(full.last().unwrap().label(), "simf");
        // Labels are unique: duplicate rows would collide in seed space.
        for (i, a) in full.iter().enumerate() {
            for b in &full[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
        let smoke = smoke_subsets();
        assert_eq!(smoke.len(), 4);
        // Every smoke row is also a full row, so the smoke matrix is a
        // subset of the full story.
        for s in &smoke {
            assert!(full.iter().any(|f| f.label() == s.label()), "{} missing", s.label());
        }
        assert_eq!(all_but_predictor().len(), FlushResource::ALL.len() - 1);
        assert!(!all_but_predictor().contains(FlushResource::Predictor));
    }

    #[test]
    fn grid_assembles_all_axes() {
        let grid = ablation_grid(smoke_subsets(), &[ScalePoint::new("Smoke")]);
        assert_eq!(grid.len(), 4 * (ChannelKind::ALL.len() + 1));
    }
}
