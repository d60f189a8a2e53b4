//! The leakage oracle: transmit, observe, decode, judge.
//!
//! [`LeakageOracle::assess`] proves (or refutes) leakage end-to-end for one
//! channel under one architecture: it draws a **balanced** pseudo-random
//! payload from the cell seed (exactly half ones, so a collapsed decoder
//! lands at a bit-error rate of exactly 0.5), transmits it through the
//! [`AttackRunner`], decodes the received bits from the attacker's per-slot
//! probe latencies with an unsupervised midpoint threshold, and reports BER,
//! binary-symmetric-channel capacity and a [`ChannelVerdict`].
//!
//! The decoder deliberately gets **no** ground truth: it sees only the
//! latency samples, as a real attacker would. Samples whose total spread
//! stays inside a small noise floor (a few cycles of rounding jitter from
//! the analytical congestion estimators) are treated as carrying no signal.

use ironhide_core::arch::Architecture;
use ironhide_core::attack::{
    AttackOutcome, AttackRunner, AttackTrace, ChannelVerdict, CovertChannel, StreamSlot,
};
use ironhide_core::runner::RunError;
use ironhide_core::sweep::{AttackGrid, AttackSpec, ScalePoint};
use ironhide_sim::config::MachineConfig;

use crate::channels::{splitmix, ChannelKind, SPLITMIX_GAMMA};

/// Per-slot probe spreads at or below this many cycles are signal-free
/// rounding jitter from the analytical congestion estimators.
const NOISE_FLOOR_CYCLES: u64 = 16;

/// Decodes covert-channel transmissions and judges whether a channel is
/// open, degraded or closed.
#[derive(Debug, Clone)]
pub struct LeakageOracle {
    config: MachineConfig,
    payload_bits: usize,
}

impl LeakageOracle {
    /// Creates an oracle attacking machines built from `config`, with the
    /// smoke-scale payload (32 bits).
    pub fn new(config: MachineConfig) -> Self {
        LeakageOracle { config, payload_bits: 32 }
    }

    /// Overrides the payload length.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or odd — the payload must be balanceable so
    /// a signal-free channel decodes at exactly 50% BER.
    pub fn with_payload_bits(mut self, bits: usize) -> Self {
        self.payload_bits = checked_payload(bits);
        self
    }

    /// The payload length used for a sweep scale label ("Paper" transmits a
    /// longer string; everything else uses the smoke payload).
    pub fn payload_for_scale(label: &str) -> usize {
        match label {
            "Paper" => 96,
            _ => 32,
        }
    }

    /// Runs the full attack: transmits a `seed`-derived balanced payload
    /// through `channel` under `arch` and decodes it from the attacker's
    /// observations.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if the underlying attack run fails.
    pub fn assess(
        &self,
        arch: Architecture,
        channel: &dyn CovertChannel,
        seed: u64,
    ) -> Result<AttackOutcome, RunError> {
        self.assess_recycled(arch, channel, seed, &mut None)
    }

    /// Like [`LeakageOracle::assess`], but runs on the machine in `slot`
    /// (recycled via `Machine::reset_pristine`; a fresh machine is built
    /// when the slot is empty) and leaves the machine behind for the next
    /// assessment — the attack matrix threads its cells through a pool of
    /// these. Byte-identical to a fresh-machine assessment.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if the underlying attack run fails.
    pub fn assess_recycled(
        &self,
        arch: Architecture,
        channel: &dyn CovertChannel,
        seed: u64,
        slot: &mut Option<ironhide_sim::machine::Machine>,
    ) -> Result<AttackOutcome, RunError> {
        let bits = balanced_bits(seed, self.payload_bits);
        let runner = AttackRunner::new(self.config.clone());
        let trace = runner.run(arch, &mut StreamSlot(channel), &bits, slot)?;
        Ok(judge(channel.name(), arch, &bits, trace))
    }
}

/// Decodes the attacker's observations in `trace` against the transmitted
/// `bits` and judges the channel: bit-error rate, binary-symmetric-channel
/// capacity (per slot and per second of payload) and the verdict.
pub fn judge(
    channel: &str,
    arch: Architecture,
    bits: &[bool],
    trace: AttackTrace,
) -> AttackOutcome {
    let (decoded, threshold) = decode(&trace.probe_cycles, NOISE_FLOOR_CYCLES);
    let bit_errors = bits.iter().zip(&decoded).filter(|(sent, got)| sent != got).count() as u64;
    let ber = bit_errors as f64 / bits.len() as f64;
    let capacity_bits_per_slot = 1.0 - binary_entropy(ber);
    let slot_cycles = trace.payload_cycles as f64 / bits.len() as f64;
    let capacity_bits_per_second =
        capacity_bits_per_slot * trace.clock_ghz * 1e9 / slot_cycles.max(1.0);

    AttackOutcome {
        channel: channel.to_string(),
        arch,
        payload_bits: bits.len() as u64,
        bit_errors,
        ber,
        threshold_cycles: threshold,
        min_probe_cycles: trace.probe_cycles.iter().copied().min().unwrap_or(0),
        max_probe_cycles: trace.probe_cycles.iter().copied().max().unwrap_or(0),
        capacity_bits_per_slot,
        capacity_bits_per_second,
        payload_cycles: trace.payload_cycles,
        secure_cores: trace.secure_cores,
        verdict: ChannelVerdict::from_ber(ber),
        isolation: trace.isolation,
    }
}

/// A balanced pseudo-random bit string: exactly `n/2` ones, in a
/// seed-determined order (Fisher–Yates over a SplitMix64 stream).
///
/// # Panics
///
/// Panics if `n` is zero or odd.
pub fn balanced_bits(seed: u64, n: usize) -> Vec<bool> {
    let n = checked_payload(n);
    let mut bits: Vec<bool> = (0..n).map(|i| i < n / 2).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let z = splitmix(state);
        state = state.wrapping_add(SPLITMIX_GAMMA);
        bits.swap(i, (z % (i as u64 + 1)) as usize);
    }
    bits
}

/// Returns the payload length `n` if it is non-zero and even: only such a
/// payload balances, so that a signal-free channel decodes at exactly 50%
/// BER.
///
/// # Panics
///
/// Panics if `n` is zero or odd.
pub(crate) fn checked_payload(n: usize) -> usize {
    assert!(n > 0 && n.is_multiple_of(2), "payload must be a non-zero even number of bits");
    n
}

/// Unsupervised threshold decoding: samples above the midpoint of the
/// observed range decode to 1. A spread inside `noise_floor` cycles is
/// treated as signal-free and decodes to all zeros (the attacker cannot
/// resolve rounding jitter into bits). Returns the decoded bits and the
/// threshold used.
pub fn decode(samples: &[u64], noise_floor: u64) -> (Vec<bool>, f64) {
    if samples.is_empty() {
        return (Vec::new(), 0.0);
    }
    let min = *samples.iter().min().expect("non-empty");
    let max = *samples.iter().max().expect("non-empty");
    // Sum in u128: `min + max` overflows u64 for large cycle counts, and an
    // f64 conversion of each operand keeps the midpoint exact to within one
    // ULP even near `u64::MAX`.
    let threshold = (min as u128 + max as u128) as f64 / 2.0;
    if max - min <= noise_floor {
        return (vec![false; samples.len()], threshold);
    }
    (samples.iter().map(|s| (*s as f64) > threshold).collect(), threshold)
}

/// The binary entropy function H₂(p), in bits.
pub fn binary_entropy(p: f64) -> f64 {
    if p <= 0.0 || p >= 1.0 {
        return 0.0;
    }
    -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
}

/// Wraps one [`ChannelKind`] as an attack-matrix channel spec: the cell
/// closure builds the channel from the cell's machine/seed and assesses it
/// with a [`LeakageOracle`] whose payload length follows the scale label,
/// recycling the cell pool's machine through the assessment.
pub fn attack_spec(kind: ChannelKind) -> AttackSpec {
    AttackSpec::new(kind.label(), move |config, arch, scale, seed, machine| {
        let channel = kind.build(config, seed);
        LeakageOracle::new(config.clone())
            .with_payload_bits(LeakageOracle::payload_for_scale(scale.label()))
            .assess_recycled(arch, &channel, seed, machine)
    })
}

/// The full {channel × architecture × scale} attack grid over all four
/// channels.
pub fn attack_grid(architectures: &[Architecture], scales: &[ScalePoint]) -> AttackGrid {
    let mut grid = AttackGrid::new().with_architectures(architectures);
    for kind in ChannelKind::ALL {
        grid = grid.with_channel(attack_spec(kind));
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
    fn balanced_bits_are_balanced_and_seed_determined() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let bits = balanced_bits(seed, 32);
            assert_eq!(bits.len(), 32);
            assert_eq!(bits.iter().filter(|b| **b).count(), 16, "seed {seed}");
            assert_eq!(bits, balanced_bits(seed, 32));
        }
        assert_ne!(balanced_bits(1, 32), balanced_bits(2, 32));
    }

    #[test]
    #[should_panic(expected = "even number of bits")]
    fn odd_payload_rejected() {
        balanced_bits(0, 31);
    }

    #[test]
    fn decode_separates_bimodal_samples() {
        let samples = [100u64, 900, 120, 880, 110, 905];
        let (bits, threshold) = decode(&samples, 8);
        assert_eq!(bits, vec![false, true, false, true, false, true]);
        assert!(threshold > 120.0 && threshold < 880.0);
    }

    #[test]
    fn decode_midpoint_survives_near_u64_max_samples() {
        // `min + max` would wrap in u64 arithmetic; the midpoint must stay
        // between the two modes so decoding still separates them.
        let low = u64::MAX - 1_000_000;
        let high = u64::MAX - 8;
        let samples = [low, high, low, high];
        let (bits, threshold) = decode(&samples, 16);
        assert_eq!(bits, vec![false, true, false, true]);
        assert!(threshold > low as f64 && threshold < high as f64, "threshold {threshold}");

        // A signal-free spread at the top of the range reports the same
        // midpoint semantics instead of the raw maximum.
        let flat = [u64::MAX - 4, u64::MAX - 2, u64::MAX - 3];
        let (bits, threshold) = decode(&flat, 16);
        assert!(bits.iter().all(|b| !b));
        let expected = ((u64::MAX - 4) as u128 + (u64::MAX - 2) as u128) as f64 / 2.0;
        assert_eq!(threshold, expected);
    }

    #[test]
    fn decode_collapses_noise_to_zeros() {
        let samples = [500u64, 503, 498, 501];
        let (bits, _) = decode(&samples, 8);
        assert!(bits.iter().all(|b| !b), "sub-noise spread must not decode to bits");
        assert_eq!(decode(&[], 8).0, Vec::<bool>::new());
    }

    #[test]
    fn binary_entropy_shape() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
        assert!(binary_entropy(0.1) < binary_entropy(0.3));
    }

    #[test]
    fn oracle_differential_on_the_testbench() {
        let oracle = LeakageOracle::new(MachineConfig::attack_testbench());
        let channel = ChannelKind::L2SliceOccupancy.build(&MachineConfig::attack_testbench(), 3);

        let open = oracle.assess(Architecture::Insecure, &channel, 3).unwrap();
        assert!(open.is_open(), "insecure baseline must leak: BER {}", open.ber);
        assert!(open.ber < 0.10);
        assert!(open.capacity_bits_per_slot > 0.5);
        assert!(open.capacity_bits_per_second > 0.0);

        let closed = oracle.assess(Architecture::Ironhide, &channel, 3).unwrap();
        assert!(closed.is_closed(), "IRONHIDE must close the channel: BER {}", closed.ber);
        assert!((closed.ber - 0.5).abs() <= 0.05);
        assert!(closed.isolation.is_clean());
        assert!(closed.capacity_bits_per_slot < 0.01);
    }

    #[test]
    fn grid_covers_all_channels() {
        let grid = attack_grid(&Architecture::ALL, &[ScalePoint::new("Smoke")]);
        assert_eq!(grid.len(), ChannelKind::ALL.len() * 4);
        let keys = grid.keys();
        for kind in ChannelKind::ALL {
            assert!(keys.iter().any(|k| k.channel == kind.label()));
        }
    }
}
