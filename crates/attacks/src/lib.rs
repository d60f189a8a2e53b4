//! # ironhide-attacks
//!
//! The adversarial half of the reproduction's security claim. The rest of
//! the workspace shows that IRONHIDE is *fast*; this crate attacks it to
//! show that it is *isolating* — in the style of covert-channel validation
//! work (Wistoff et al.'s temporal-partitioning channel benchmarks, "Shield
//! Bash"-style self-attacks on defences), rather than by asserting internal
//! invariants alone.
//!
//! Every channel runs through one driver, `ironhide-core`'s
//! [`AttackRunner`](ironhide_core::attack::AttackRunner): it recycles the
//! machine, attests the victim, places the pair, warms up, transmits the
//! payload and audits isolation. A channel supplies only its per-slot
//! transmission and the cores its attacker and victim issue from.
//!
//! * [`channels`] — the stream channels: paired attacker/victim workloads,
//!   each trying to transmit a pseudo-random bit string through one piece of
//!   shared microarchitecture state: L2-slice occupancy (prime+probe), NoC
//!   link-contention timing, TLB occupancy, a timing probe on the shared IPC
//!   buffer, and coherence-directory state.
//! * [`oracle`] — the [`LeakageOracle`]: generates a balanced payload,
//!   transmits it through a stream channel's six-step slot, decodes the
//!   received bits from the attacker's probe latencies and reports bit-error
//!   rate, channel capacity and a per-channel verdict.
//! * [`window`] — the reconfiguration-window attack: its slot probes the
//!   moved slices during the stall sequence of a cluster reconfiguration,
//!   proving the window CLOSED under the shipped purge→rehome→scrub order
//!   and OPEN under an injected mis-ordering.
//! * [`ablation`] — the defence-ablation grid for the `TemporalFence`
//!   architecture: the full channel arsenal swept against a ladder of flush
//!   subsets, answering which erasure closes which channel at what switch
//!   cost (the fence.t.s experiment, in the simulator).
//!
//! The crate's headline result is **differential**: on the insecure shared
//! baseline every channel decodes with a bit-error rate far below chance
//! (the channels demonstrably work in this simulator), while under the
//! IRONHIDE cluster architecture the very same attackers decode at ~50% BER
//! — indistinguishable from guessing — with the strong-isolation audit still
//! clean. See `tests/attack_suite.rs` and `examples/attack_demo.rs`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod channels;
pub mod oracle;
pub mod window;

pub use ablation::{
    ablation_channels, ablation_grid, ablation_subsets, all_but_predictor, smoke_subsets,
};
pub use channels::{ChannelKind, StreamChannel};
pub use oracle::{attack_grid, attack_spec, LeakageOracle};
pub use window::{window_attack_spec, FaultAudit, FaultMode, WindowAttack};
