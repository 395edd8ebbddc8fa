//! Decile and effect-size statistics for the bench regression gate.
//!
//! The legacy gate compared one median against one median with a fixed
//! ratio tolerance — blind to tail-only regressions and flaky on noisy
//! machines. This module implements the distribution-aware replacement
//! (after the timing-oracle approach referenced in ROADMAP's
//! "statistical rigor" item):
//!
//! 1. summarize baseline and fresh sample vectors by their **nine
//!    deciles** (P10..P90, linear interpolation);
//! 2. report an **effect size** — the worst decile shift in
//!    nanoseconds, and as a fraction of the baseline spread (P90−P10) —
//!    instead of a bare ratio;
//! 3. gate with a **permutation test**: the observed worst-decile shift
//!    is significant only if it exceeds the `(1−α)` quantile of the
//!    same statistic under random relabelings of the pooled samples,
//!    which bounds the false-positive rate at α by construction;
//! 4. require the shift to also be **material** (a configurable
//!    fraction of the baseline median), so statistically-real but
//!    irrelevant nanosecond drifts never fail a build.
//!
//! Everything is deterministic: the permutation RNG is a seeded
//! [`ChaCha12Rng`], so the same inputs always produce the same verdict.
//!
//! [`paired_bootstrap`] serves the other comparison the repo makes: two
//! campaigns over the same chips, paired chip by chip, with a
//! percentile-bootstrap interval for the mean shift.

use eval_rng::ChaCha12Rng;

/// Minimum sample count per side for a decile comparison to mean
/// anything. Below this the caller should fall back to the legacy
/// ratio gate.
pub const MIN_SAMPLES: usize = 5;

/// The nine deciles (P10, P20, .. P90) of a sample vector, by linear
/// interpolation on the sorted samples. `None` for fewer than two
/// samples (a single point has no distribution).
pub fn deciles(samples: &[f64]) -> Option<[f64; 9]> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mut out = [0.0; 9];
    for (i, slot) in out.iter_mut().enumerate() {
        let q = (i + 1) as f64 / 10.0;
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        *slot = sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
    }
    Some(out)
}

/// The median (P50) of a sample vector, or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// How far a fresh distribution sits from its baseline, summarized over
/// the nine deciles. Positive shifts mean "fresh is slower".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectSize {
    /// Shift of the median decile (P50), in nanoseconds.
    pub median_shift_ns: f64,
    /// The largest decile shift, in nanoseconds (signed; the worst
    /// *slowdown* when positive).
    pub max_shift_ns: f64,
    /// Which decile shifted the most (1..=9, i.e. P10..P90).
    pub worst_decile: usize,
    /// Baseline spread: P90 − P10, in nanoseconds (floored, see
    /// `spread_floor`).
    pub spread_ns: f64,
    /// `max_shift_ns / spread_ns` — the effect in units of baseline
    /// noise; the scale-free number to read first.
    pub shift_frac_of_spread: f64,
}

/// The spread floor: a degenerate baseline (all samples equal) must not
/// turn a division into infinity, so the spread is floored at one
/// part-per-million of the median's magnitude (or an absolute epsilon
/// for all-zero samples).
fn spread_floor(p10: f64, p90: f64, median: f64) -> f64 {
    (p90 - p10).max(median.abs() * 1e-6).max(1e-12)
}

/// The effect size of `fresh` relative to `baseline`, or `None` when
/// either side has fewer than two samples.
pub fn effect_size(baseline: &[f64], fresh: &[f64]) -> Option<EffectSize> {
    let base = deciles(baseline)?;
    let new = deciles(fresh)?;
    Some(effect_from_deciles(&base, &new))
}

fn effect_from_deciles(base: &[f64; 9], fresh: &[f64; 9]) -> EffectSize {
    let spread = spread_floor(base[0], base[8], base[4]);
    let mut max_shift = f64::NEG_INFINITY;
    let mut worst = 1;
    for i in 0..9 {
        let shift = fresh[i] - base[i];
        if shift > max_shift {
            max_shift = shift;
            worst = i + 1;
        }
    }
    EffectSize {
        median_shift_ns: fresh[4] - base[4],
        max_shift_ns: max_shift,
        worst_decile: worst,
        spread_ns: spread,
        shift_frac_of_spread: max_shift / spread,
    }
}

/// Tuning for [`quantile_gate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// Permutation-test false-positive bound (per benchmark).
    pub alpha: f64,
    /// Permutation relabelings used to estimate the null distribution.
    pub trials: usize,
    /// A shift must also be at least this fraction of the baseline
    /// median to count as a regression (materiality floor).
    pub min_effect_frac: f64,
    /// Seed of the permutation RNG — fixed so verdicts are
    /// reproducible.
    pub seed: u64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            alpha: 0.01,
            trials: 500,
            min_effect_frac: 0.05,
            seed: 0x4556_414c,
        }
    }
}

/// One benchmark's quantile-gate verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateVerdict {
    /// The observed effect size.
    pub effect: EffectSize,
    /// Observed statistic: worst decile shift in units of baseline
    /// spread (same value as `effect.shift_frac_of_spread`).
    pub statistic: f64,
    /// `(1−α)` quantile of the statistic under permutation — the bar
    /// the observation must clear to be significant.
    pub threshold: f64,
    /// `statistic > threshold`.
    pub significant: bool,
    /// `effect.max_shift_ns ≥ min_effect_frac × baseline median`.
    pub material: bool,
    /// The gate fires only when the shift is significant *and*
    /// material.
    pub regression: bool,
    /// Baseline samples used.
    pub baseline_n: usize,
    /// Fresh samples used.
    pub fresh_n: usize,
}

/// Statistic for one labeled split of samples: worst decile shift of
/// `fresh` over `baseline`, in units of baseline spread.
fn split_statistic(baseline: &[f64], fresh: &[f64]) -> Option<f64> {
    Some(effect_size(baseline, fresh)?.shift_frac_of_spread)
}

/// The `(1−α)` quantile of the permutation null distribution, or `None`
/// when the distribution is empty (every pseudo-split was degenerate).
/// The previous inline version indexed `null_stats[len - 1]` without the
/// emptiness check and underflowed on a degenerate pool.
fn null_threshold(null_stats: &mut [f64], alpha: f64) -> Option<f64> {
    if null_stats.is_empty() {
        return None;
    }
    null_stats.sort_by(|a, b| a.total_cmp(b));
    let idx = ((null_stats.len() as f64) * (1.0 - alpha)).ceil() as usize;
    Some(null_stats[idx.min(null_stats.len() - 1)])
}

/// The distribution-aware regression gate.
///
/// `None` when either side has fewer than [`MIN_SAMPLES`] samples —
/// callers fall back to the legacy ratio gate. Otherwise runs the
/// permutation test described in the module docs and returns the full
/// verdict (never panics; fully deterministic for fixed inputs and
/// config).
pub fn quantile_gate(baseline: &[f64], fresh: &[f64], cfg: &GateConfig) -> Option<GateVerdict> {
    if baseline.len() < MIN_SAMPLES || fresh.len() < MIN_SAMPLES {
        return None;
    }
    let effect = effect_size(baseline, fresh)?;
    let statistic = effect.shift_frac_of_spread;

    // Null distribution: the same statistic under random relabelings of
    // the pooled samples. Under "no change" the labels are arbitrary,
    // so observed >> null happens with probability ≤ α.
    let mut pool: Vec<f64> = Vec::with_capacity(baseline.len() + fresh.len());
    pool.extend_from_slice(baseline);
    pool.extend_from_slice(fresh);
    let mut rng = ChaCha12Rng::seed_from_u64(cfg.seed);
    let trials = cfg.trials.max(1);
    let mut null_stats: Vec<f64> = Vec::with_capacity(trials);
    for _ in 0..trials {
        // Fisher–Yates over the pool, then split at the fresh count.
        for i in (1..pool.len()).rev() {
            let j = rng.gen_range(0..=i);
            pool.swap(i, j);
        }
        let (pseudo_fresh, pseudo_base) = pool.split_at(fresh.len());
        if let Some(stat) = split_statistic(pseudo_base, pseudo_fresh) {
            null_stats.push(stat);
        }
    }
    // A degenerate pool (no pseudo-split yielded a statistic) has no
    // null distribution to clear, so nothing can be significant.
    let threshold = null_threshold(&mut null_stats, cfg.alpha).unwrap_or(f64::INFINITY);

    let baseline_median = median(baseline).unwrap_or(0.0);
    let significant = statistic > threshold;
    let material = effect.max_shift_ns >= cfg.min_effect_frac * baseline_median.abs();
    Some(GateVerdict {
        effect,
        statistic,
        threshold,
        significant,
        material,
        regression: significant && material,
        baseline_n: baseline.len(),
        fresh_n: fresh.len(),
    })
}

/// Resamples behind a [`paired_bootstrap`] interval.
pub const BOOTSTRAP_RESAMPLES: usize = 10_000;

/// Coverage of a [`paired_bootstrap`] interval.
pub const BOOTSTRAP_CONFIDENCE: f64 = 0.95;

/// A percentile-bootstrap interval for the mean paired difference
/// `after[i] - before[i]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedInterval {
    /// Pairs compared.
    pub n: usize,
    /// Pairs whose two values are bit-identical.
    pub identical: usize,
    /// Mean of `after - before`.
    pub mean: f64,
    /// Lower end of the interval.
    pub lo: f64,
    /// Upper end of the interval.
    pub hi: f64,
}

/// The mean of `after - before` with a [`BOOTSTRAP_CONFIDENCE`]
/// percentile-bootstrap interval from [`BOOTSTRAP_RESAMPLES`] resamples
/// of the pairs, drawn from a seeded [`ChaCha12Rng`] (deterministic).
/// `None` when the sides differ in length or are empty.
pub fn paired_bootstrap(before: &[f64], after: &[f64], seed: u64) -> Option<PairedInterval> {
    let n = before.len();
    if n == 0 || after.len() != n {
        return None;
    }
    let d: Vec<f64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let mean_of = |sum: f64| sum / n as f64;
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut means: Vec<f64> = (0..BOOTSTRAP_RESAMPLES)
        .map(|_| mean_of((0..n).map(|_| d[rng.gen_range(0..n)]).sum()))
        .collect();
    means.sort_by(f64::total_cmp);
    let tail = (1.0 - BOOTSTRAP_CONFIDENCE) / 2.0;
    let at = |q: f64| means[(q * (BOOTSTRAP_RESAMPLES - 1) as f64).round() as usize];
    Some(PairedInterval {
        n,
        identical: before
            .iter()
            .zip(after)
            .filter(|(b, a)| b.to_bits() == a.to_bits())
            .count(),
        mean: mean_of(d.iter().sum()),
        lo: at(tail),
        hi: at(1.0 - tail),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_interval_brackets_the_mean_and_degenerates_on_identical_pairs() {
        let before = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let after = [1.5, 2.1, 3.4, 4.0, 5.9, 6.2];
        let iv = paired_bootstrap(&before, &after, 7).expect("interval");
        assert_eq!((iv.n, iv.identical), (6, 1));
        assert!((iv.mean - 0.35).abs() < 1e-12, "{iv:?}");
        assert!(iv.lo <= iv.mean && iv.mean <= iv.hi, "{iv:?}");
        assert!(iv.lo > 0.0, "every difference is >= 0: {iv:?}");
        assert_eq!(paired_bootstrap(&before, &after, 7), Some(iv));
        let same = paired_bootstrap(&before, &before, 1).expect("interval");
        assert_eq!(
            (same.identical, same.mean, same.lo, same.hi),
            (6, 0.0, 0.0, 0.0)
        );
        assert!(paired_bootstrap(&before, &after[..2], 1).is_none());
        assert!(paired_bootstrap(&[], &[], 1).is_none());
    }

    #[test]
    fn deciles_interpolate_linearly() {
        // 0..=10 inclusive: P10 = 1.0, P50 = 5.0, P90 = 9.0 exactly.
        let samples: Vec<f64> = (0..=10).map(f64::from).collect();
        let d = deciles(&samples).expect("enough samples");
        assert_eq!(d[0], 1.0);
        assert_eq!(d[4], 5.0);
        assert_eq!(d[8], 9.0);
        // Two samples: pure interpolation between them.
        let d2 = deciles(&[0.0, 10.0]).expect("two samples");
        assert!((d2[0] - 1.0).abs() < 1e-12);
        assert!((d2[8] - 9.0).abs() < 1e-12);
        assert_eq!(deciles(&[1.0]), None);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn effect_size_of_a_pure_shift_is_the_shift() {
        let base: Vec<f64> = (0..20).map(|i| 1000.0 + f64::from(i)).collect();
        let fresh: Vec<f64> = base.iter().map(|v| v + 50.0).collect();
        let e = effect_size(&base, &fresh).expect("enough samples");
        assert!((e.median_shift_ns - 50.0).abs() < 1e-9);
        assert!((e.max_shift_ns - 50.0).abs() < 1e-9);
        assert!((e.spread_ns - 15.2).abs() < 1e-9); // P90−P10 of 0..19 offsets
        assert!(e.shift_frac_of_spread > 3.0);
    }

    #[test]
    fn effect_size_localizes_a_tail_only_regression() {
        let base: Vec<f64> = (0..50).map(|i| 1000.0 + f64::from(i % 10)).collect();
        // Slow down only the top ~20% of fresh samples.
        let fresh: Vec<f64> = (0..50)
            .map(|i| {
                let v = 1000.0 + f64::from(i % 10);
                if i >= 40 {
                    v + 100.0
                } else {
                    v
                }
            })
            .collect();
        let e = effect_size(&base, &fresh).expect("enough samples");
        assert!(e.median_shift_ns.abs() < 5.0, "median barely moves");
        assert!(e.max_shift_ns > 50.0, "tail shift is visible");
        assert_eq!(e.worst_decile, 9, "and it is localized at P90");
    }

    #[test]
    fn degenerate_baseline_spread_is_floored() {
        let base = vec![1000.0; 10];
        let fresh = vec![1100.0; 10];
        let e = effect_size(&base, &fresh).expect("enough samples");
        assert!(e.spread_ns > 0.0);
        assert!(e.shift_frac_of_spread.is_finite());
    }

    #[test]
    fn gate_needs_min_samples_per_side() {
        let cfg = GateConfig::default();
        let short = vec![1.0; MIN_SAMPLES - 1];
        let long = vec![1.0; MIN_SAMPLES];
        assert!(quantile_gate(&short, &long, &cfg).is_none());
        assert!(quantile_gate(&long, &short, &cfg).is_none());
        assert!(quantile_gate(&long, &long, &cfg).is_some());
    }

    #[test]
    fn gate_fires_on_a_large_shift_and_not_on_identical_samples() {
        let cfg = GateConfig::default();
        let base: Vec<f64> = (0..30).map(|i| 1000.0 + f64::from(i % 7)).collect();
        let shifted: Vec<f64> = base.iter().map(|v| v * 1.10).collect();
        let v = quantile_gate(&base, &shifted, &cfg).expect("enough samples");
        assert!(v.significant && v.material && v.regression);
        let same = quantile_gate(&base, &base.clone(), &cfg).expect("enough samples");
        assert!(!same.regression, "identical distributions must pass");
    }

    #[test]
    fn significant_but_immaterial_shift_does_not_fire() {
        // A perfectly clean 0.1% shift: statistically unambiguous,
        // but far below the 5% materiality floor.
        let base: Vec<f64> = (0..40).map(|i| 1000.0 + f64::from(i % 5) * 0.01).collect();
        let fresh: Vec<f64> = base.iter().map(|v| v + 1.0).collect();
        let cfg = GateConfig::default();
        let v = quantile_gate(&base, &fresh, &cfg).expect("enough samples");
        assert!(v.significant, "the shift is way outside noise");
        assert!(!v.material, "but 1 ns on a 1000 ns median is immaterial");
        assert!(!v.regression);
    }

    #[test]
    fn empty_null_distribution_yields_no_threshold() {
        // Regression: the pre-fix inline code computed
        // `null_stats[len - 1]` on an empty vector — an index underflow
        // panic for a degenerate permutation pool. The helper must
        // report "no distribution" instead.
        assert_eq!(null_threshold(&mut [], 0.01), None);
        // And a singleton null is its own threshold at any α.
        assert_eq!(null_threshold(&mut [0.25], 0.01), Some(0.25));
    }

    #[test]
    fn verdict_is_deterministic_for_fixed_seed() {
        let base: Vec<f64> = (0..25).map(|i| 500.0 + f64::from(i * 3 % 11)).collect();
        let fresh: Vec<f64> = (0..25).map(|i| 502.0 + f64::from(i * 5 % 13)).collect();
        let cfg = GateConfig::default();
        let a = quantile_gate(&base, &fresh, &cfg).expect("enough samples");
        let b = quantile_gate(&base, &fresh, &cfg).expect("enough samples");
        assert_eq!(a, b);
    }
}
