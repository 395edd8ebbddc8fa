//! Counters, gauges, and fixed-bucket histograms with a deterministic
//! in-memory registry.
//!
//! The registry is keyed by `BTreeMap`, so snapshot order is the sorted
//! metric name — never hasher state. Histograms use *fixed* bucket
//! boundaries supplied at registration: bucket membership of a value is a
//! pure function of the value, so two runs that observe the same values
//! produce the same counts (the latency histograms observe wall-clock
//! durations and are excluded from the golden contract by name, see
//! [`is_timing_metric`]).

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::json::{f64_array, u64_array, JsonObject};

/// A metric name: `&'static str` on the hot emit path (zero-cost), owned
/// when reconstructed from a persisted trace or checkpoint record.
pub type MetricName = Cow<'static, str>;

/// One metric mutation, as carried by [`crate::sink::Record::Metric`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricUpdate {
    /// Add `1`.. to a monotonic counter.
    CounterAdd(MetricName, u64),
    /// Set a gauge to the latest value.
    GaugeSet(MetricName, f64),
    /// Record one observation into a histogram.
    Observe(MetricName, f64),
}

impl MetricUpdate {
    /// The metric name this update targets.
    pub fn name(&self) -> &str {
        match self {
            MetricUpdate::CounterAdd(n, _)
            | MetricUpdate::GaugeSet(n, _)
            | MetricUpdate::Observe(n, _) => n,
        }
    }
}

/// Metrics whose values derive from the wall clock (and therefore vary
/// across runs): anything named `*_us`, `*_ns`, or `*_ms`. These are
/// excluded from the golden-stream determinism contract.
pub fn is_timing_metric(name: &str) -> bool {
    name.ends_with("_us") || name.ends_with("_ns") || name.ends_with("_ms")
}

/// A fixed-bucket histogram.
///
/// `bounds = [b0, b1, .., bk]` defines `k + 1` buckets: bucket `0` holds
/// `v < b0`, bucket `i` holds `b(i-1) <= v < b(i)`, and the final bucket
/// holds `v >= bk`. A value exactly on a boundary lands in the *higher*
/// bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// Creates a histogram with the given strictly increasing boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one boundary");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram boundaries must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// The bucket index `v` falls into (see the type docs for the
    /// boundary convention).
    pub fn bucket_index(&self, v: f64) -> usize {
        self.bounds.partition_point(|&b| b <= v)
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = self.bucket_index(v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// The boundaries.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries, underflow first).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `[lo, hi)` value range of bucket `i`. The underflow bucket has
    /// no lower edge and the overflow bucket no upper edge; both collapse
    /// to their single known boundary, so quantiles that land there
    /// *saturate* to the first/last bound instead of extrapolating.
    fn bucket_edges(&self, i: usize) -> (f64, f64) {
        let k = self.bounds.len();
        if i == 0 {
            (self.bounds[0], self.bounds[0])
        } else if i >= k {
            (self.bounds[k - 1], self.bounds[k - 1])
        } else {
            (self.bounds[i - 1], self.bounds[i])
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) estimated from the bucket counts by
    /// linear interpolation inside the containing bucket.
    ///
    /// Boundary convention: when the target rank `q·n` falls exactly on a
    /// cumulative bucket boundary, the *lower* bucket's upper edge is
    /// returned — which equals the upper bucket's lower edge, so the
    /// estimate is continuous in `q` and empty buckets cannot produce a
    /// jump. Ranks inside the underflow (overflow) bucket saturate to the
    /// first (last) boundary. Returns `None` for an empty histogram or a
    /// `q` outside `[0, 1]`.
    ///
    /// The estimate is monotone in `q` and stable under [`Histogram::merge`]
    /// (the digest is mergeable: merged counts give the same quantiles as
    /// observing the union of samples).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let target = q * self.count as f64;
        let mut cum: u64 = 0;
        let mut last_nonempty = 0usize;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let before = cum as f64;
            cum += c;
            last_nonempty = i;
            if cum as f64 >= target {
                let (lo, hi) = self.bucket_edges(i);
                let frac = ((target - before) / c as f64).clamp(0.0, 1.0);
                return Some(lo + (hi - lo) * frac);
            }
        }
        // Float round-off fallback: the whole mass is below `target`.
        Some(self.bucket_edges(last_nonempty).1)
    }

    /// Merges another digest recorded over the **same boundaries** into
    /// this one. Bucket counts, total count and sum add, so merging is
    /// associative and commutative on the counts, and quantiles of the
    /// merged digest equal quantiles of the union of observations.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramMismatch`] (leaving `self` untouched) when the
    /// boundary vectors differ.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), HistogramMismatch> {
        if self.bounds != other.bounds {
            return Err(HistogramMismatch);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        Ok(())
    }

    /// Reconstructs a digest from its serialized parts (the `bounds` /
    /// `counts` / `sum` fields of a `"kind":"histogram"` JSONL line).
    ///
    /// # Errors
    ///
    /// Returns [`HistogramMismatch`] when `bounds` is empty or not strictly
    /// increasing, or when `counts` is not exactly `bounds.len() + 1` long.
    pub fn from_parts(
        bounds: &[f64],
        counts: &[u64],
        sum: f64,
    ) -> Result<Histogram, HistogramMismatch> {
        if bounds.is_empty()
            || !bounds.windows(2).all(|w| w[0] < w[1])
            || counts.len() != bounds.len() + 1
        {
            return Err(HistogramMismatch);
        }
        Ok(Histogram {
            bounds: bounds.to_vec(),
            counts: counts.to_vec(),
            count: counts.iter().sum(),
            sum,
        })
    }
}

/// Two histogram digests could not be combined (or reconstructed):
/// incompatible boundary vectors or malformed serialized parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramMismatch;

impl std::fmt::Display for HistogramMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("histogram digests have incompatible bucket boundaries")
    }
}

impl std::error::Error for HistogramMismatch {}

/// Default boundaries for histograms observed without prior registration:
/// decades from 1e-7 to 1e6.
const DEFAULT_BOUNDS: [f64; 14] = [
    1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6,
];

/// The deterministic metric registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<MetricName, u64>,
    gauges: BTreeMap<MetricName, f64>,
    histograms: BTreeMap<MetricName, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-registers a histogram with explicit boundaries (otherwise the
    /// first observation creates it with decade `DEFAULT_BOUNDS`).
    pub fn register_histogram(&mut self, name: impl Into<MetricName>, bounds: &[f64]) {
        self.histograms.insert(name.into(), Histogram::new(bounds));
    }

    /// Applies one update. Cloning a `Cow::Borrowed` name is a pointer
    /// copy, so the static-name hot path stays allocation-free.
    pub fn apply(&mut self, update: &MetricUpdate) {
        match update {
            MetricUpdate::CounterAdd(name, n) => {
                *self.counters.entry(name.clone()).or_insert(0) += n;
            }
            MetricUpdate::GaugeSet(name, v) => {
                self.gauges.insert(name.clone(), *v);
            }
            MetricUpdate::Observe(name, v) => {
                self.histograms
                    .entry(name.clone())
                    .or_insert_with(|| Histogram::new(&DEFAULT_BOUNDS))
                    .observe(*v);
            }
        }
    }

    /// Counter value (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram by name, if observed or registered.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, in sorted-name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(n, v)| (n.as_ref(), *v))
    }

    /// All gauges, in sorted-name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.gauges.iter().map(|(n, v)| (n.as_ref(), *v))
    }

    /// All histograms, in sorted-name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.histograms.iter().map(|(n, h)| (n.as_ref(), h))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.values().all(|h| h.count() == 0)
    }

    /// JSONL lines for the snapshot, in sorted-name order: one line per
    /// counter, gauge, and histogram.
    pub fn jsonl_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (name, value) in &self.counters {
            out.push(
                JsonObject::new()
                    .str("kind", "counter")
                    .str("name", name)
                    .u64("value", *value)
                    .finish(),
            );
        }
        for (name, value) in &self.gauges {
            out.push(
                JsonObject::new()
                    .str("kind", "gauge")
                    .str("name", name)
                    .f64("value", *value)
                    .finish(),
            );
        }
        for (name, h) in &self.histograms {
            out.push(
                JsonObject::new()
                    .str("kind", "histogram")
                    .str("name", name)
                    .bool("timing", is_timing_metric(name))
                    .raw("bounds", &f64_array(h.bounds()))
                    .raw("counts", &u64_array(h.counts()))
                    .u64("count", h.count())
                    .f64("sum", h.sum())
                    .finish(),
            );
        }
        out
    }

    /// A human-readable summary block (counters, gauges, histograms).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<44} {:>12}", "counter", "value");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "{name:<44} {value:>12}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "{:<44} {:>12}", "gauge", "value");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "{name:<44} {value:>12.4}");
            }
        }
        for (name, h) in &self.histograms {
            if h.count() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "histogram {name}: n={} mean={:.4}",
                h.count(),
                h.mean()
            );
            let labels = bucket_labels(h.bounds());
            for (label, count) in labels.iter().zip(h.counts()) {
                if *count > 0 {
                    let _ = writeln!(out, "  {label:<42} {count:>12}");
                }
            }
        }
        out
    }
}

/// Human-readable bucket interval labels for a bound list.
fn bucket_labels(bounds: &[f64]) -> Vec<String> {
    let mut labels = Vec::with_capacity(bounds.len() + 1);
    labels.push(format!("< {}", bounds[0]));
    for w in bounds.windows(2) {
        labels.push(format!("[{}, {})", w[0], w[1]));
    }
    labels.push(format!(">= {}", bounds[bounds.len() - 1]));
    labels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_lower_inclusive_upper_exclusive() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        // Below the first bound.
        assert_eq!(h.bucket_index(0.0), 0);
        assert_eq!(h.bucket_index(0.999_999), 0);
        // Exactly on a boundary lands in the higher bucket.
        assert_eq!(h.bucket_index(1.0), 1);
        assert_eq!(h.bucket_index(1.5), 1);
        assert_eq!(h.bucket_index(2.0), 2);
        assert_eq!(h.bucket_index(3.999), 2);
        // On and above the last bound: overflow bucket.
        assert_eq!(h.bucket_index(4.0), 3);
        assert_eq!(h.bucket_index(1e9), 3);
    }

    #[test]
    fn observe_updates_counts_sum_and_mean() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        for v in [0.5, 1.0, 1.5, 2.5] {
            h.observe(v);
        }
        assert_eq!(h.counts(), &[1, 2, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 5.5).abs() < 1e-12);
        assert!((h.mean() - 1.375).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_are_rejected() {
        Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn registry_applies_updates_and_snapshots_in_name_order() {
        let mut r = Registry::new();
        r.register_histogram("z.hist", &[1.0]);
        r.apply(&MetricUpdate::CounterAdd("b.count".into(), 2));
        r.apply(&MetricUpdate::CounterAdd("a.count".into(), 1));
        r.apply(&MetricUpdate::CounterAdd("b.count".into(), 3));
        r.apply(&MetricUpdate::GaugeSet("g".into(), 0.5));
        r.apply(&MetricUpdate::Observe("z.hist".into(), 3.0));
        assert_eq!(r.counter("b.count"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("g"), Some(0.5));
        assert_eq!(r.histogram("z.hist").unwrap().counts(), &[0, 1]);
        let lines = r.jsonl_lines();
        // Counters sorted, then gauges, then histograms.
        assert!(lines[0].contains("a.count"), "{lines:?}");
        assert!(lines[1].contains("b.count"), "{lines:?}");
        assert!(lines[2].contains("\"gauge\""), "{lines:?}");
        assert!(lines[3].contains("z.hist"), "{lines:?}");
    }

    #[test]
    fn unregistered_observation_gets_default_decade_buckets() {
        let mut r = Registry::new();
        r.apply(&MetricUpdate::Observe("x".into(), 50.0));
        let h = r.histogram("x").unwrap();
        assert_eq!(h.bounds().len(), 14);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn timing_metrics_are_identified_by_suffix() {
        assert!(is_timing_metric("decision.latency_us"));
        assert!(is_timing_metric("span.total_ns"));
        assert!(!is_timing_metric("decision.f_ghz"));
        assert!(!is_timing_metric("cache.hit"));
    }

    #[test]
    fn summary_renders_nonempty_sections() {
        let mut r = Registry::new();
        r.apply(&MetricUpdate::CounterAdd("c".into(), 1));
        r.apply(&MetricUpdate::Observe("h".into(), 2.0));
        let s = r.summary();
        assert!(s.contains("counter"));
        assert!(s.contains("histogram h"));
    }

    #[test]
    fn quantile_interpolates_and_handles_bucket_boundaries() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        // 4 observations in [1,2), 4 in [2,4).
        for v in [1.0, 1.2, 1.5, 1.9, 2.0, 2.5, 3.0, 3.9] {
            h.observe(v);
        }
        // Exactly on the cumulative boundary between the two buckets
        // (rank 4 of 8): the lower bucket's upper edge == the upper
        // bucket's lower edge — no jump, no empty-bucket artifacts.
        assert_eq!(h.quantile(0.5), Some(2.0));
        // Interior ranks interpolate linearly inside the bucket.
        assert_eq!(h.quantile(0.25), Some(1.5));
        assert_eq!(h.quantile(0.75), Some(3.0));
        // Extremes pin to the data's bucket edges.
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(4.0));
        // Out-of-range q and empty digests yield None.
        assert_eq!(h.quantile(1.5), None);
        assert_eq!(Histogram::new(&[1.0]).quantile(0.5), None);
    }

    #[test]
    fn quantile_saturates_in_under_and_overflow_buckets() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.25); // underflow
        h.observe(10.0); // overflow
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(2.0));
    }

    #[test]
    fn merge_requires_matching_bounds_and_adds_counts() {
        let mut a = Histogram::new(&[1.0, 2.0]);
        let mut b = Histogram::new(&[1.0, 2.0]);
        a.observe(0.5);
        b.observe(1.5);
        b.observe(3.0);
        a.merge(&b).expect("same bounds merge");
        assert_eq!(a.counts(), &[1, 1, 1]);
        assert_eq!(a.count(), 3);
        assert!((a.sum() - 5.0).abs() < 1e-12);
        let other = Histogram::new(&[1.0, 3.0]);
        assert_eq!(a.merge(&other), Err(HistogramMismatch));
        // Failed merges leave the receiver untouched.
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn from_parts_round_trips_and_rejects_malformed_input() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 2.5, 8.0] {
            h.observe(v);
        }
        let r = Histogram::from_parts(h.bounds(), h.counts(), h.sum()).expect("round-trips");
        assert_eq!(r, h);
        assert!(Histogram::from_parts(&[], &[1], 0.0).is_err());
        assert!(Histogram::from_parts(&[2.0, 1.0], &[0, 0, 0], 0.0).is_err());
        assert!(Histogram::from_parts(&[1.0, 2.0], &[0, 0], 0.0).is_err());
    }

    #[test]
    fn registry_iterators_walk_sorted_snapshots() {
        let mut r = Registry::new();
        r.apply(&MetricUpdate::CounterAdd("b".into(), 2));
        r.apply(&MetricUpdate::CounterAdd("a".into(), 1));
        r.apply(&MetricUpdate::GaugeSet("g".into(), 0.5));
        r.apply(&MetricUpdate::Observe("h".into(), 1.0));
        let names: Vec<_> = r.counters().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(r.gauges().count(), 1);
        assert_eq!(r.histograms().count(), 1);
    }

    mod properties {
        use super::super::*;
        use proptest::prelude::*;

        const BOUNDS: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

        fn digest(values: &[f64]) -> Histogram {
            let mut h = Histogram::new(&BOUNDS);
            for &v in values {
                h.observe(v);
            }
            h
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn merge_is_commutative(
                xs in proptest::collection::vec(0.0f64..20.0, 0..12),
                ys in proptest::collection::vec(0.0f64..20.0, 0..12),
            ) {
                let (a, b) = (digest(&xs), digest(&ys));
                let mut ab = a.clone();
                ab.merge(&b).expect("same bounds");
                let mut ba = b.clone();
                ba.merge(&a).expect("same bounds");
                // Float addition is commutative, so the whole digest
                // (counts AND sum) matches bitwise.
                prop_assert_eq!(ab, ba);
            }

            #[test]
            fn merge_is_associative(
                xs in proptest::collection::vec(0.0f64..20.0, 0..12),
                ys in proptest::collection::vec(0.0f64..20.0, 0..12),
                zs in proptest::collection::vec(0.0f64..20.0, 0..12),
            ) {
                let (a, b, c) = (digest(&xs), digest(&ys), digest(&zs));
                let mut left = a.clone();
                left.merge(&b).expect("same bounds");
                left.merge(&c).expect("same bounds");
                let mut bc = b.clone();
                bc.merge(&c).expect("same bounds");
                let mut right = a.clone();
                right.merge(&bc).expect("same bounds");
                // Counts are exactly associative; the sum is float and
                // only associative up to round-off.
                prop_assert_eq!(left.counts(), right.counts());
                prop_assert_eq!(left.count(), right.count());
                prop_assert!(
                    (left.sum() - right.sum()).abs()
                        <= 1e-9 * left.sum().abs().max(1.0),
                    "sums diverged: {} vs {}", left.sum(), right.sum()
                );
            }

            #[test]
            fn quantiles_are_monotone_in_q(
                xs in proptest::collection::vec(0.0f64..20.0, 1..24),
                q1 in 0.0f64..1.0,
                q2 in 0.0f64..1.0,
            ) {
                let h = digest(&xs);
                let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
                let vlo = h.quantile(lo).expect("non-empty");
                let vhi = h.quantile(hi).expect("non-empty");
                prop_assert!(
                    vlo <= vhi,
                    "quantile({}) = {} > quantile({}) = {}", lo, vlo, hi, vhi
                );
            }

            #[test]
            fn merged_quantiles_match_union_observation(
                xs in proptest::collection::vec(0.0f64..20.0, 1..16),
                ys in proptest::collection::vec(0.0f64..20.0, 1..16),
                q in 0.0f64..1.0,
            ) {
                let mut merged = digest(&xs);
                merged.merge(&digest(&ys)).expect("same bounds");
                let mut union: Vec<f64> = xs.clone();
                union.extend_from_slice(&ys);
                let direct = digest(&union);
                prop_assert_eq!(merged.counts(), direct.counts());
                prop_assert_eq!(merged.quantile(q), direct.quantile(q));
            }
        }
    }
}
