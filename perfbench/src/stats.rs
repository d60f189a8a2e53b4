//! Order statistics, checksums and process memory readings.

/// A percentile estimate with the samples ranked next to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The Harrell–Davis estimate of the percentile.
    pub value: f64,
    /// The sample at nearest rank `ceil(p * n)`.
    pub nearest: f64,
    /// The sample one rank below the nearest rank (itself at rank 1).
    pub below: f64,
    /// The sample one rank above the nearest rank (itself at rank n).
    pub above: f64,
    /// Samples ranked above the nearest rank.
    pub beyond: usize,
    /// Samples in all.
    pub n: usize,
}

impl Percentile {
    /// The relative distance between the samples ranked just below and just
    /// above the percentile. A percentile that sits on a gap between two
    /// classes of cells has a large one.
    pub fn neighbour_gap(&self) -> f64 {
        if self.nearest == 0.0 {
            return 0.0;
        }
        (self.above - self.below) / self.nearest
    }
}

/// The `p`-th percentile (0 < p < 1) of `samples`.
///
/// The value is the Harrell–Davis estimate: a mean of all order statistics,
/// each weighted by the probability that the `p`-quantile of `n` samples has
/// its rank (a Beta((n+1)p, (n+1)(1-p)) distribution). Unlike a single order
/// statistic it does not jump when the percentile falls on a gap between two
/// classes of cells, as fig-paper's median does.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn percentile(samples: &[f64], p: f64) -> Percentile {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let (a, b) = ((n as f64 + 1.0) * p, (n as f64 + 1.0) * (1.0 - p));
    let mut value = 0.0;
    let mut cdf_low = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let cdf_high = regularized_beta((i + 1) as f64 / n as f64, a, b);
        value += (cdf_high - cdf_low) * x;
        cdf_low = cdf_high;
    }
    Percentile {
        value,
        nearest: sorted[rank - 1],
        below: sorted[rank.saturating_sub(2)],
        above: sorted[rank.min(n - 1)],
        beyond: n - rank,
        n,
    }
}

/// The regularized incomplete beta function I_x(a, b), by the continued
/// fraction of Numerical Recipes (§6.4) with the Lentz method.
fn regularized_beta(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * beta_fraction(x, a, b) / a
    } else {
        1.0 - ln_front.exp() * beta_fraction(1.0 - x, b, a) / b
    }
}

fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let (qab, qap, qam) = (a + b, a + 1.0, a - 1.0);
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..1000 {
        let m = m as f64;
        let m2 = 2.0 * m;
        for aa in [
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ] {
            d = 1.0 + aa * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + aa / c;
            c = if c.abs() < TINY { TINY } else { c };
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// ln Γ(x) for x > 0, by the Lanczos approximation (g = 7, n = 9).
fn ln_gamma(x: f64) -> f64 {
    const COEFFICIENTS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let sum: f64 = COEFFICIENTS[1..]
        .iter()
        .enumerate()
        .fold(COEFFICIENTS[0], |acc, (i, c)| acc + c / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// The median of `samples` (mean of the two middle samples when even).
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// FNV-1a over a sequence of words.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// FNV-1a over a string's bytes, the scheme the repository's matrix
/// checksums use.
pub fn fnv1a_str(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// SplitMix64: the benchmark's only source of seed-drawn inputs.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's clock id for the calling thread's CPU time.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// The calling thread's CPU time, in nanoseconds.
///
/// The benchmark times with this clock rather than the wall clock: the
/// kernel leaves out time the hypervisor gives the virtual CPU to another
/// guest (steal time), which came in bursts of up to a fifth of a pass.
///
/// # Panics
///
/// Panics if the kernel has no thread CPU clock.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole call,
    // and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Resets the kernel's peak-resident-set mark to the current resident set,
/// so a later [`peak_rss_bytes`] covers only what follows. Returns whether
/// the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_neighbours() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&samples, 0.9);
        assert_eq!((p90.nearest, p90.below, p90.above, p90.beyond), (90.0, 89.0, 91.0, 10));
        assert!((p90.value - 90.5).abs() < 0.1, "{}", p90.value);
        let p50 = percentile(&samples, 0.5);
        assert_eq!((p50.nearest, p50.beyond), (50.0, 50));
        assert!((p50.value - 50.5).abs() < 1e-9, "{}", p50.value);
        let one = percentile(&[7.0], 0.9);
        assert_eq!((one.value, one.below, one.above, one.beyond), (7.0, 7.0, 7.0, 0));
        let flat = percentile(&[3.0; 40], 0.5);
        assert!((flat.value - 3.0).abs() < 1e-12);
    }

    #[test]
    fn incomplete_beta_matches_closed_forms() {
        // I_x(1, 1) = x and I_x(2, 1) = x^2; Γ(5) = 24.
        assert!((regularized_beta(0.3, 1.0, 1.0) - 0.3).abs() < 1e-12);
        assert!((regularized_beta(0.3, 2.0, 1.0) - 0.09).abs() < 1e-12);
        assert!((regularized_beta(0.5, 200.5, 200.5) - 0.5).abs() < 1e-9);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn the_estimate_does_not_jump_on_a_gap() {
        // A median on the gap between two classes: one sample crossing the
        // gap moves the nearest-rank median from one class to the other, but
        // the estimate by well under a percent.
        let mut low: Vec<f64> = (0..200).map(|i| 30.0 + (i % 10) as f64 * 0.1).collect();
        low.extend((0..200).map(|i| 36.0 + (i % 10) as f64 * 0.1));
        let mut crossed = low.clone();
        crossed[0] = 36.5;
        let (a, b) = (percentile(&low, 0.5), percentile(&crossed, 0.5));
        assert!(b.nearest - a.nearest > 5.0);
        assert!((b.value - a.value).abs() / a.value < 0.01, "{} vs {}", a.value, b.value);
    }

    #[test]
    fn a_percentile_on_a_gap_between_cell_classes_is_flagged() {
        // 108 storms at or below 34 ms and 12 at 48-58 ms: p90 sits where
        // the two classes meet, so its neighbours are 34 and 48 ms apart.
        let mut samples: Vec<f64> = (0..108).map(|i| 20.0 + 14.0 * i as f64 / 107.0).collect();
        samples.extend((0..12).map(|i| 48.0 + 10.0 * i as f64 / 11.0));
        let p90 = percentile(&samples, 0.9);
        assert!(p90.neighbour_gap() > 0.25, "gap {}", p90.neighbour_gap());
        assert!(percentile(&samples, 0.5).neighbour_gap() < 0.05);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn thread_cpu_time_advances_with_work_not_sleep() {
        let start = thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let slept = thread_cpu_ns() - start;
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let worked = thread_cpu_ns() - start - slept;
        assert!(slept < 5_000_000, "sleeping used {slept} ns of CPU");
        assert!(worked > 1_000_000, "work used only {worked} ns of CPU ({x})");
    }

    #[test]
    fn splitmix_is_seed_determined() {
        let (mut a, mut b) = (5u64, 5u64);
        assert_eq!(splitmix(&mut a), splitmix(&mut b));
        assert_ne!(splitmix(&mut a), splitmix(&mut 6u64.clone()));
    }
}
