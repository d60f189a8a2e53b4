//! Property tests for the directory-based MESI coherence layer.
//!
//! The protocol invariants the paper's isolation argument (and plain
//! correctness) rest on, driven over random multi-core access/purge/rehome
//! interleavings:
//!
//! 1. **single-writer** — a dirty (Modified) L1 line is never resident in
//!    any other core's L1, and a line resident in several L1s is marked
//!    Shared everywhere;
//! 2. **no stale read after remote write** — the moment a write completes,
//!    no foreign L1 holds the written line (so no later read can return a
//!    stale copy);
//! 3. **directory sanity** — every live directory entry's owner and sharers
//!    are live cores, exclusive-side entries track exactly one copy, and
//!    every resident L1 line is tracked by *some* live directory entry
//!    (copies the protocol cannot see cannot be kept coherent);
//! 4. **purge completeness** — `purge_all_private` leaves zero directory
//!    residue, and what residue *would* have leaked is shown to be
//!    unobservable: an attacker probing after the purge measures
//!    byte-identical latencies whatever the victim did before it.
//!
//! Invariants 1–3 are driven on the 4-tile test machine and on an 81-tile
//! one, whose tiles 64 and up keep their directory sharer bits in side
//! words beyond each entry's inline word.
//!
//! The interleavings deliberately exclude *bare* `purge_slices`: flushing a
//! slice's directory without the surrounding reconfiguration protocol
//! (private purge of moved tiles + re-home scrub) is documented to leave
//! untracked copies — the machine only ever issues it inside that protocol.

use proptest::prelude::*;

use ironhide::ironhide_cache::{MesiState, SliceId};
use ironhide::ironhide_mesh::NodeId;
use ironhide::ironhide_sim::config::MachineConfig;
use ironhide::ironhide_sim::machine::Machine;
use ironhide::ironhide_sim::process::SecurityClass;
use ironhide::ironhide_sim::stream::RefRun;

/// One step of the coherence driver. `core` (and a restricted slice) is an
/// index into the driver's four issuing tiles.
#[derive(Debug, Clone)]
enum CohOp {
    Run { core: usize, base: u64, stride: u64, len: u32, write: bool },
    PurgeCore(usize),
    PurgeAll,
    RestrictSlices(usize),
}

/// Decodes one sampled word into a driver step. Runs dominate, drawn from a
/// narrow two-page window so the four cores collide on the same lines
/// constantly (read-shared, write-upgrade, invalidation and
/// directory-conflict paths all fire).
fn decode(word: u64) -> CohOp {
    const STRIDES: [u64; 6] = [0, 24, 64, 128, 4096, 0u64.wrapping_sub(64)];
    match word % 11 {
        0 => CohOp::PurgeCore((word >> 8) as usize % 4),
        1 => CohOp::PurgeAll,
        2 => CohOp::RestrictSlices((word >> 8) as usize % 4),
        _ => CohOp::Run {
            core: (word >> 4) as usize % 4,
            base: 0x40_0000 + ((word >> 8) % 0x2000),
            stride: STRIDES[(word >> 24) as usize % STRIDES.len()],
            len: 1 + ((word >> 32) % 64) as u32,
            write: (word >> 40).is_multiple_of(2),
        },
    }
}

/// Checks every machine-wide MESI invariant, returning a description of the
/// first violation.
fn check_invariants(m: &Machine) -> Result<(), String> {
    let cores = m.config().cores();

    // Directory-entry sanity.
    let mut dir_err: Option<String> = None;
    for s in 0..cores {
        m.directory(SliceId(s)).for_each_live(|line, state, sharers, owner| {
            if dir_err.is_some() {
                return;
            }
            if sharers.is_empty() {
                dir_err = Some(format!("dir {s}: line {line:#x} has an empty sharer set"));
            }
            for n in sharers.iter() {
                if n.0 >= cores {
                    dir_err =
                        Some(format!("dir {s}: line {line:#x} sharer {n} is not a live core"));
                }
            }
            if matches!(state, MesiState::Exclusive | MesiState::Modified) {
                if owner.0 >= cores {
                    dir_err = Some(format!("dir {s}: line {line:#x} owner {owner} out of range"));
                } else if sharers.len() != 1 || !sharers.contains(owner) {
                    dir_err = Some(format!(
                        "dir {s}: exclusive-side line {line:#x} must track exactly its owner \
                         ({} sharers)",
                        sharers.len()
                    ));
                }
            }
        });
    }
    if let Some(e) = dir_err {
        return Err(e);
    }

    // L1 census: single-writer + shared-marking + directory inclusivity.
    let line_bytes = m.config().l1.line_bytes as u64;
    let mut holders: Vec<(u64, usize, bool, bool)> = Vec::new();
    for c in 0..cores {
        m.l1(NodeId(c)).for_each_resident(|addr, dirty, shared| {
            holders.push((addr, c, dirty, shared));
        });
    }
    for &(addr, c, dirty, _shared) in &holders {
        let copies: Vec<_> = holders.iter().filter(|h| h.0 == addr).collect();
        if dirty && copies.len() > 1 {
            return Err(format!(
                "line {addr:#x} is Modified in core {c}'s L1 but resident in {} L1s",
                copies.len()
            ));
        }
        if copies.len() > 1 && copies.iter().any(|h| !h.3) {
            return Err(format!(
                "line {addr:#x} is resident in {} L1s but not marked Shared everywhere",
                copies.len()
            ));
        }
        // Inclusivity: some live directory entry tracks this copy.
        let line = addr / line_bytes;
        let tracked = (0..cores).any(|s| {
            m.directory(SliceId(s))
                .probe(line)
                .is_some_and(|(_, sharers, _)| sharers.contains(NodeId(c)))
        });
        if !tracked {
            return Err(format!(
                "line {addr:#x} resident in core {c}'s L1 is tracked by no directory"
            ));
        }
    }
    Ok(())
}

/// Replays the decoded `words` on a machine built from `config`, issuing
/// from `tiles`, and checks invariants 1–3 after every step plus, after
/// every write run, that no other issuing tile holds a written line.
fn drive_sharing(config: MachineConfig, tiles: [usize; 4], words: &[u64]) {
    let mut m = Machine::new(config);
    let pid = m.create_process("p", SecurityClass::Secure);
    for (i, op) in words.iter().map(|w| decode(*w)).enumerate() {
        match op {
            CohOp::Run { core, base, stride, len, write } => {
                let run = RefRun::new(base, stride, len, write);
                m.access_run(NodeId(tiles[core]), pid, run);
                if write {
                    // No stale read after remote write: the moment the run
                    // completes, no foreign L1 holds any written line.
                    for r in run.iter() {
                        let paddr = m.peek_paddr(pid, r.vaddr).expect("page mapped");
                        for (other, tile) in tiles.iter().enumerate() {
                            if other != core {
                                prop_assert!(
                                    !m.l1(NodeId(*tile)).probe(paddr),
                                    "op #{i}: tile {tile} still holds {paddr:#x} \
                                     written by tile {}",
                                    tiles[core]
                                );
                            }
                        }
                    }
                }
            }
            CohOp::PurgeCore(c) => {
                m.purge_core(NodeId(tiles[c]));
            }
            CohOp::PurgeAll => {
                m.purge_all_private();
            }
            CohOp::RestrictSlices(s) => {
                m.set_process_slices(pid, &[SliceId(tiles[s]), SliceId(tiles[3 - s])]);
            }
        }
        let invariants = check_invariants(&m);
        prop_assert!(invariants.is_ok(), "op #{i} ({op:?}): {}", invariants.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Invariants 1–3 hold after every step of a random multi-core sharing
    /// interleaving, and a completed write leaves no foreign copy of the
    /// written lines behind.
    #[test]
    fn mesi_invariants_hold_under_random_sharing(
        words in prop::collection::vec(any::<u64>(), 1..50),
    ) {
        drive_sharing(MachineConfig::small_test(), [0, 1, 2, 3], &words);
    }

    /// The same driver on a 9×9 machine with the test caches, issuing from
    /// tiles on both sides of the 64-tile word boundary: every sharer set
    /// of tiles 64 and 80 lives in the directories' side words.
    #[test]
    fn mesi_invariants_hold_beyond_64_tiles(
        words in prop::collection::vec(any::<u64>(), 1..50),
    ) {
        let mut config = MachineConfig::small_test();
        config.mesh_width = 9;
        config.mesh_height = 9;
        drive_sharing(config, [3, 63, 64, 80], &words);
    }

    /// Invariant 4: `purge_all_private` leaves zero directory residue, and
    /// the residue is *unobservable* — an attacker probing after the purge
    /// measures byte-identical latencies whatever victim activity (and
    /// therefore whatever directory state) preceded it.
    #[test]
    fn purge_all_private_leaves_no_directory_residue(
        victim_a in prop::collection::vec(any::<u64>(), 1..40),
        victim_b in prop::collection::vec(any::<u64>(), 1..40),
    ) {
        let run_one = |words: &[u64]| -> (usize, Vec<u64>) {
            let mut m = Machine::new(MachineConfig::small_test());
            let victim = m.create_process("victim", SecurityClass::Secure);
            let attacker = m.create_process("attacker", SecurityClass::Insecure);
            // Victim phase: arbitrary multi-core traffic saturates caches
            // and directories with victim-dependent state.
            for op in words.iter().map(|w| decode(*w)) {
                if let CohOp::Run { core, base, stride, len, write } = op {
                    m.access_run(NodeId(core), victim, RefRun::new(base, stride, len, write));
                }
            }
            // The MI6 boundary operation under test: purge_all_private must
            // leave zero directory residue (asserted before anything else
            // touches the directories). If it left entries behind, the probe
            // below would read the victim's sharer/owner metadata as
            // invalidation- and downgrade-latency differences.
            m.purge_all_private();
            let residue: usize =
                (0..4).map(|s| m.directory(SliceId(s)).resident_entries()).sum();
            // Flatten the remaining *non-coherence* shared state the real
            // boundary handles by other means (L2 contents via partitioning,
            // controller queues and link loads via their own purges), so the
            // probe's byte-identity isolates the coherence layer.
            m.purge_slices(&(0..4).map(SliceId).collect::<Vec<_>>());
            m.purge_controllers(ironhide::ironhide_mem::ControllerMask::first(2));
            m.purge_network();
            // Attacker phase: a fixed probe over its own address space; its
            // latencies are everything a foreign prober can observe.
            let mut lat = Vec::new();
            for i in 0..256u64 {
                lat.push(m.access(NodeId(i as usize % 4), attacker, (i % 64) * 64, i % 7 == 0));
            }
            (residue, lat)
        };
        let (residue_a, lat_a) = run_one(&victim_a);
        let (residue_b, lat_b) = run_one(&victim_b);
        prop_assert_eq!(residue_a, 0, "purge must empty every directory");
        prop_assert_eq!(residue_b, 0);
        prop_assert_eq!(lat_a, lat_b,
            "foreign probe latencies must not depend on pre-purge victim activity");
    }
}

/// A directed walk through the textbook transition chain, checking the
/// attacker-relevant observables at each step: E on sole read, E→S downgrade
/// on a remote read, S→M upgrade invalidating the other sharer, and the
/// upgrade costing the writer a visible maintenance round trip.
#[test]
fn directed_mesi_transition_chain() {
    let mut m = Machine::new(MachineConfig::small_test());
    let pid = m.create_process("p", SecurityClass::Secure);
    let vaddr = 0x9000u64;

    // Core 0 reads: Exclusive, sole sharer.
    m.access(NodeId(0), pid, vaddr, false);
    let paddr = m.peek_paddr(pid, vaddr).unwrap();
    let line = paddr / m.config().l1.line_bytes as u64;
    let dir_of = |m: &Machine| {
        (0..4)
            .find_map(|s| m.directory(SliceId(s)).probe(line))
            .expect("line tracked by some directory")
    };
    let (state, sharers, owner) = dir_of(&m);
    assert_eq!(state, MesiState::Exclusive);
    assert_eq!(owner, NodeId(0));
    assert_eq!(sharers.len(), 1);
    assert_eq!(m.l1(NodeId(0)).line_flags(paddr), Some((false, false)), "E: clean, not shared");

    // Core 1 reads: both Shared, core 0 downgraded.
    m.access(NodeId(1), pid, vaddr, false);
    let (state, sharers, _) = dir_of(&m);
    assert_eq!(state, MesiState::Shared);
    assert!(sharers.contains(NodeId(0)) && sharers.contains(NodeId(1)));
    assert_eq!(m.l1(NodeId(0)).line_flags(paddr), Some((false, true)), "downgraded to S");
    assert_eq!(m.l1(NodeId(1)).line_flags(paddr), Some((false, true)));

    // Core 1 writes (hit on its Shared copy): upgrade to Modified must
    // invalidate core 0 and cost more than a plain L1 write hit.
    let upgrade = m.access(NodeId(1), pid, vaddr, true);
    assert!(
        upgrade > m.config().latency.l1_hit,
        "a write-upgrade must pay the invalidation round trip ({upgrade})"
    );
    let (state, sharers, owner) = dir_of(&m);
    assert_eq!(state, MesiState::Modified);
    assert_eq!(owner, NodeId(1));
    assert_eq!(sharers.len(), 1);
    assert!(!m.l1(NodeId(0)).probe(paddr), "the old sharer's copy is invalidated");
    assert_eq!(m.l1(NodeId(1)).line_flags(paddr), Some((true, false)), "M: dirty, exclusive");

    // A second write by the owner is silent: plain write hit, no upgrade.
    let silent = m.access(NodeId(1), pid, vaddr, true);
    assert_eq!(silent, m.config().latency.l1_hit, "M write hits stay silent");

    // Core 0 reads again: the Modified owner is downgraded and its dirty
    // data written back; both end Shared and clean.
    m.access(NodeId(0), pid, vaddr, false);
    let (state, sharers, _) = dir_of(&m);
    assert_eq!(state, MesiState::Shared);
    assert_eq!(sharers.len(), 2);
    assert_eq!(m.l1(NodeId(1)).line_flags(paddr), Some((false, true)), "M→S writes back");
    let wb = m.stats().noc.writebacks;
    assert!(wb > 0, "the downgrade must have emitted a write-back packet");
}
