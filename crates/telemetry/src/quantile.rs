//! Log-bucketed quantile histograms: the crate's one distribution
//! type.
//!
//! A [`QuantileHistogram`] is the HDR-histogram idea reduced to what
//! the solver pipeline needs: a fixed, construction-time bucket layout
//! (log-spaced sub-buckets within power-of-ten decades) whose recording
//! path is a `log10`, one relaxed atomic increment, and the usual
//! count/sum/min/max updates — no locks, no allocation, safe to share
//! across pool workers through the owning [`crate::Telemetry`]. From
//! the bucket counts it estimates p50/p90/p99 (any quantile) with
//! bounded relative error set by the sub-buckets-per-decade resolution,
//! and two histograms with the same layout merge by adding counts.
//!
//! Latencies (ns), Newton iteration and factorization counts, residuals
//! (A), timestep sizes (s) and the yield engine's read margins all
//! record into it; only the layout differs.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::fmt_f64;

/// A lock-free latency histogram with log-spaced buckets and quantile
/// estimation.
///
/// The value range `[10^lo_exp, 10^hi_exp)` is split into
/// `(hi_exp - lo_exp) * sub` buckets, log-uniform so every bucket has
/// the same *relative* width (`sub = 8` gives ≈33% per bucket, which
/// bounds quantile estimates to one bucket edge ≈ ±15%). Samples below
/// the range land in an underflow bucket, samples at or above the top
/// land in a saturating overflow bucket, so no finite sample is ever
/// lost. Zero and negative samples count in the underflow bucket (and
/// in `sum`/`min`); non-finite samples are ignored.
#[derive(Debug)]
pub struct QuantileHistogram {
    /// Lowest decade exponent: bucket 1 starts at `10^lo_exp`.
    lo_exp: i32,
    /// One past the highest decade: values `>= 10^hi_exp` saturate.
    hi_exp: i32,
    /// Log-spaced sub-buckets per decade.
    sub: u32,
    /// `main_buckets() + 2` slots: `[underflow, main..., overflow]`.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: crate::FloatCell,
    min: crate::FloatCell,
    max: crate::FloatCell,
}

impl QuantileHistogram {
    /// Builds a histogram spanning `[10^lo_exp, 10^hi_exp)` with `sub`
    /// log-spaced buckets per decade. Degenerate requests are repaired
    /// rather than rejected (swapped exponents are reordered, `sub` and
    /// the span are clamped to at least one) so construction is total.
    // fefet-lint: allow-item(hot-alloc) -- one-time bucket allocation at construction; recording never allocates
    pub fn new(lo_exp: i32, hi_exp: i32, sub: u32) -> Self {
        let (lo, hi) = if lo_exp <= hi_exp {
            (lo_exp, hi_exp)
        } else {
            (hi_exp, lo_exp)
        };
        let hi = if hi == lo { lo + 1 } else { hi };
        let sub = sub.max(1);
        let main = ((hi - lo) as usize) * (sub as usize);
        let buckets = (0..main + 2).map(|_| AtomicU64::new(0)).collect();
        Self {
            lo_exp: lo,
            hi_exp: hi,
            sub,
            buckets,
            count: AtomicU64::new(0),
            sum: crate::FloatCell::zero(),
            min: crate::FloatCell::min_tracker(),
            max: crate::FloatCell::max_tracker(),
        }
    }

    /// The standard latency layout: 1 ns to 1000 s (12 decades) at 8
    /// sub-buckets per decade — 96 buckets, ≈±15% quantile error,
    /// covering everything from a single back-substitution to a full
    /// overnight yield run.
    pub fn latency_ns() -> Self {
        Self::new(0, 12, 8)
    }

    /// Number of log-spaced buckets between the underflow and overflow
    /// slots.
    pub fn main_buckets(&self) -> usize {
        self.buckets.len() - 2
    }

    /// `(lo_exp, hi_exp, sub)` — two histograms merge iff these match.
    pub fn layout(&self) -> (i32, i32, u32) {
        (self.lo_exp, self.hi_exp, self.sub)
    }

    /// Bucket index for a sample (0 = underflow, last = overflow).
    #[inline]
    fn index_of(&self, v: f64) -> usize {
        if v < 10f64.powi(self.lo_exp) {
            return 0;
        }
        let pos = (v.log10() - self.lo_exp as f64) * self.sub as f64;
        // `pos` is finite and >= 0 here; the +1 skips the underflow slot.
        let i = pos as usize + 1;
        i.min(self.buckets.len() - 1)
    }

    /// Inclusive upper edge of bucket `i` (the value reported when a
    /// quantile lands in it). Underflow reports the range floor; the
    /// saturating overflow bucket reports the range ceiling.
    fn upper_edge(&self, i: usize) -> f64 {
        let last = self.buckets.len() - 1;
        if i == 0 {
            return 10f64.powi(self.lo_exp);
        }
        if i >= last {
            return 10f64.powi(self.hi_exp);
        }
        let frac = i as f64 / self.sub as f64;
        10f64.powf(self.lo_exp as f64 + frac)
    }

    /// Records one sample. Non-finite samples are ignored; everything
    /// finite lands in exactly one bucket.
    #[inline]
    pub fn record(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if let Some(b) = self.buckets.get(self.index_of(v)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.add(v);
        self.min.update_min(v);
        self.max.update_max(v);
    }

    /// Convenience for nanosecond durations measured as `u64`.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.record(ns as f64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        self.sum.get()
    }

    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            None
        } else {
            Some(self.sum() / n as f64)
        }
    }

    pub fn min(&self) -> Option<f64> {
        let v = self.min.get();
        v.is_finite().then_some(v)
    }

    pub fn max(&self) -> Option<f64> {
        let v = self.max.get();
        v.is_finite().then_some(v)
    }

    /// A snapshot of the bucket counts (underflow first, overflow
    /// last).
    // fefet-lint: allow-item(hot-alloc) -- snapshot/export path, never on the warm recording path
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Estimates the `q`-quantile (`q` clamped into `[0, 1]`) from the
    /// bucket counts: the upper edge of the bucket holding the
    /// `ceil(q*n)`-th smallest sample, clamped into the observed
    /// `[min, max]` so estimates never leave the data range. Returns
    /// `None` before the first sample. Monotone in `q` by construction
    /// (cumulative counts are monotone, edges are sorted, and the clamp
    /// is order-preserving).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        let mut hit = self.buckets.len() - 1;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                hit = i;
                break;
            }
        }
        // The overflow bucket is unbounded above, so its edge says
        // nothing — the observed max is the best estimate there.
        let edge = if hit >= self.buckets.len() - 1 {
            self.max.get()
        } else {
            self.upper_edge(hit)
        };
        let lo = self.min.get();
        let hi = self.max.get();
        if lo.is_finite() && hi.is_finite() {
            Some(edge.clamp(lo, hi))
        } else {
            Some(edge)
        }
    }

    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Adds `other`'s counts into `self`. The layouts must match
    /// exactly (same decades, same resolution); mismatches are reported
    /// rather than silently misbinned.
    ///
    /// # Errors
    ///
    /// A description of the layout mismatch.
    // fefet-lint: allow-item(hot-alloc) -- merge is an aggregation step between runs, not a recording path
    pub fn merge(&self, other: &Self) -> Result<(), String> {
        if self.layout() != other.layout() {
            return Err(format!(
                "quantile histogram layout mismatch: {:?} vs {:?}",
                self.layout(),
                other.layout()
            ));
        }
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = src.load(Ordering::Relaxed);
            if v > 0 {
                dst.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum.add(other.sum());
        if let Some(m) = other.min() {
            self.min.update_min(m);
        }
        if let Some(m) = other.max() {
            self.max.update_max(m);
        }
        Ok(())
    }

    /// Serializes the histogram as one JSON object:
    /// `{"count":…,"sum":…,"min":…,"max":…,"mean":…,"p50":…,"p90":…,"p99":…,"buckets":[[edge,n],…]}`.
    /// `buckets` lists the non-empty buckets in ascending order as
    /// `[upper edge, count]` pairs: a bucket holds the samples below its
    /// edge and at or above the previous bucket's edge (the underflow
    /// bucket's edge is the range floor; the overflow bucket's is
    /// `null`, unbounded). Summary values of an empty histogram
    /// serialize as `null`.
    // fefet-lint: allow-item(hot-alloc) -- snapshot/export path, never on the warm recording path
    pub fn to_json(&self) -> String {
        let opt = |v: Option<f64>| v.map_or_else(|| "null".to_string(), fmt_f64);
        let last = self.buckets.len() - 1;
        let mut buckets = String::new();
        for (i, n) in self.bucket_counts().into_iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !buckets.is_empty() {
                buckets.push(',');
            }
            let edge = if i == last {
                "null".to_string()
            } else {
                fmt_f64(self.upper_edge(i))
            };
            buckets.push_str(&format!("[{edge},{n}]"));
        }
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\
             \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{buckets}]}}",
            self.count(),
            fmt_f64(self.sum()),
            opt(self.min()),
            opt(self.max()),
            opt(self.mean()),
            opt(self.p50()),
            opt(self.p90()),
            opt(self.p99()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, validate, Json};

    #[test]
    fn empty_histogram_reports_nothing() {
        let h = QuantileHistogram::latency_ns();
        assert_eq!(h.count(), 0);
        assert!(h.mean().is_none());
        assert!(h.min().is_none());
        assert!(h.max().is_none());
        assert!(h.p50().is_none());
        assert!(h.quantile(1.0).is_none());
        let j = h.to_json();
        assert!(validate(&j).is_ok(), "{j}");
        assert!(j.contains("\"p50\":null"), "{j}");
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let h = QuantileHistogram::latency_ns();
        h.record_ns(1500);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            // The clamp into [min, max] collapses every quantile of a
            // one-sample distribution onto the sample itself.
            assert!((v - 1500.0).abs() < 1e-9, "q={q}: {v}");
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn saturating_top_bucket_keeps_counting() {
        let h = QuantileHistogram::new(0, 3, 4); // covers [1, 1000)
        for _ in 0..10 {
            h.record(1e9); // far beyond the top decade
        }
        h.record(5e12);
        assert_eq!(h.count(), 11);
        let counts = h.bucket_counts();
        assert_eq!(*counts.last().unwrap(), 11, "overflow bucket saturates");
        // The estimate is clamped to the observed max, not the bucket
        // edge (which would lie at 1000).
        assert!((h.p99().unwrap() - 5e12).abs() < 1e-3);
        assert!((h.max().unwrap() - 5e12).abs() < 1e-3);
    }

    #[test]
    fn underflow_and_negative_samples_land_in_bucket_zero() {
        let h = QuantileHistogram::new(1, 3, 4); // covers [10, 1000)
        h.record(0.5);
        h.record(-3.0);
        h.record(0.0);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 3);
        assert_eq!(h.count(), 3);
        // Non-finite samples are ignored entirely.
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn quantiles_bracket_a_known_distribution() {
        let h = QuantileHistogram::latency_ns();
        // 100 samples: 1..=100 µs in ns.
        for i in 1..=100u64 {
            h.record_ns(i * 1000);
        }
        let p50 = h.p50().unwrap();
        let p99 = h.p99().unwrap();
        // One log-bucket of slack at 8 sub-buckets/decade is ~33%.
        assert!((3.0e4..=7.0e4).contains(&p50), "p50 = {p50}");
        assert!((7.0e4..=1.0e5).contains(&p99), "p99 = {p99}");
        assert!((h.max().unwrap() - 1.0e5).abs() < 1e-6);
    }

    #[test]
    fn quantile_estimates_are_monotone_in_q() {
        // Property test over a deterministic spread of sample sets.
        let h = QuantileHistogram::latency_ns();
        let mut x = 0x1234_5678_u64;
        for _ in 0..500 {
            // xorshift: deterministic pseudo-random spread over decades.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record_ns(x % 10_000_000);
        }
        let qs: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
        let mut prev = f64::NEG_INFINITY;
        for q in qs {
            let v = h.quantile(q).unwrap();
            assert!(v >= prev, "quantile({q}) = {v} < previous {prev}");
            prev = v;
        }
        // And the ISSUE's acceptance shape: p50 <= p99 <= max.
        assert!(h.p50().unwrap() <= h.p99().unwrap());
        assert!(h.p99().unwrap() <= h.max().unwrap());
    }

    #[test]
    fn merge_of_disjoint_ranges_combines_counts_and_extrema() {
        let a = QuantileHistogram::latency_ns();
        let b = QuantileHistogram::latency_ns();
        for i in 1..=50u64 {
            a.record_ns(i * 100); // 100 ns .. 5 µs
        }
        for i in 1..=50u64 {
            b.record_ns(i * 1_000_000); // 1 ms .. 50 ms
        }
        a.merge(&b).unwrap();
        assert_eq!(a.count(), 100);
        assert!((a.min().unwrap() - 100.0).abs() < 1e-9);
        assert!((a.max().unwrap() - 5.0e7).abs() < 1e-3);
        // Median sits at the top of the low cluster, p99 in the high one.
        assert!(a.p50().unwrap() <= 1.0e4, "p50 = {:?}", a.p50());
        assert!(a.p99().unwrap() >= 1.0e6, "p99 = {:?}", a.p99());
    }

    #[test]
    fn merge_rejects_layout_mismatch() {
        let a = QuantileHistogram::new(0, 12, 8);
        let b = QuantileHistogram::new(0, 12, 4);
        assert!(a.merge(&b).is_err());
        let c = QuantileHistogram::new(1, 12, 8);
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn degenerate_layouts_are_repaired() {
        let h = QuantileHistogram::new(5, 5, 0);
        assert_eq!(h.layout(), (5, 6, 1));
        assert_eq!(h.main_buckets(), 1);
        let h = QuantileHistogram::new(3, -3, 2);
        assert_eq!(h.layout(), (-3, 3, 2));
    }

    #[test]
    fn json_summary_is_valid_and_ordered() {
        let h = QuantileHistogram::latency_ns();
        for i in 0..1000u64 {
            h.record_ns(1000 + i * 17);
        }
        let j = h.to_json();
        assert!(validate(&j).is_ok(), "{j}");
        assert!(j.contains("\"count\":1000"));
    }

    #[test]
    fn json_lists_nonempty_buckets_with_upper_edges() {
        let h = QuantileHistogram::new(0, 2, 1); // [1, 10), [10, 100)
        for v in [0.5, 3.0, 4.0, 50.0, 1e4] {
            h.record(v);
        }
        let v = parse(&h.to_json()).unwrap();
        let pairs: Vec<(Option<f64>, f64)> = v
            .get("buckets")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|p| {
                let p = p.as_arr().unwrap();
                (p[0].as_f64(), p[1].as_f64().unwrap())
            })
            .collect();
        assert_eq!(
            pairs,
            vec![
                (Some(1.0), 1.0),
                (Some(10.0), 2.0),
                (Some(100.0), 1.0),
                (None, 1.0)
            ]
        );
        let empty = QuantileHistogram::latency_ns().to_json();
        assert!(empty.ends_with("\"buckets\":[]}"), "{empty}");
    }

    #[test]
    fn zero_samples_count_and_set_the_minimum() {
        // `factors_per_solve` records 0 for a fully reused solve.
        let h = QuantileHistogram::new(0, 2, 8);
        h.record(0.0);
        h.record(3.0);
        assert_eq!(h.count(), 2);
        assert!((h.sum() - 3.0).abs() < 1e-15);
        assert_eq!(h.min(), Some(0.0));
        assert_eq!(h.bucket_counts()[0], 1, "zero lands in underflow");
    }

    #[test]
    fn shared_recording_across_threads() {
        let h = std::sync::Arc::new(QuantileHistogram::latency_ns());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..250u64 {
                        h.record_ns((t + 1) * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 1000);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 1000);
    }
}
