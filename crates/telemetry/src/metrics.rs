//! Lock-free metric primitives: counters and float cells. The one
//! distribution type, [`crate::QuantileHistogram`], builds on them.
//!
//! Every recording operation is a handful of relaxed atomic updates —
//! no locks, no allocation — so `parallel_map` workers sharing one
//! [`crate::Telemetry`] through an `Arc` aggregate without contention
//! on the hot path, and the instrumented Newton warm path stays
//! allocation-free (pinned by the alloctrack test suite).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::fmt_f64;

/// A monotonically increasing (or max-tracking) `u64` metric.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the counter to `v` if `v` is larger (high-water marks
    /// such as sparse pattern / fill-in sizes).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomically updated `f64` stored as its bit pattern. Supports
/// accumulation and min/max tracking via compare-and-swap.
#[derive(Debug)]
pub struct FloatCell(AtomicU64);

impl FloatCell {
    pub fn new(v: f64) -> Self {
        Self(AtomicU64::new(v.to_bits()))
    }

    /// A cell that accumulates from zero.
    pub fn zero() -> Self {
        Self::new(0.0)
    }

    /// A cell tracking a running minimum (starts at `+inf`, so any
    /// finite update lowers it).
    pub fn min_tracker() -> Self {
        Self::new(f64::INFINITY)
    }

    /// A cell tracking a running maximum (starts at `-inf`).
    pub fn max_tracker() -> Self {
        Self::new(f64::NEG_INFINITY)
    }

    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// `self += delta`, atomically. NaN deltas are ignored so one bad
    /// sample cannot poison an accumulator.
    #[inline]
    pub fn add(&self, delta: f64) {
        if delta.is_nan() {
            return;
        }
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
    }

    /// Lowers the cell to `v` if `v` is smaller. NaN is ignored.
    #[inline]
    pub fn update_min(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                if v < f64::from_bits(bits) {
                    Some(v.to_bits())
                } else {
                    None
                }
            });
    }

    /// Raises the cell to `v` if `v` is larger. NaN is ignored.
    #[inline]
    pub fn update_max(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                if v > f64::from_bits(bits) {
                    Some(v.to_bits())
                } else {
                    None
                }
            });
    }

    /// The cell's value as a JSON fragment; tracker cells that were
    /// never updated (still at `±inf`) serialize as `null`.
    pub fn to_json(&self) -> String {
        fmt_f64(self.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_inc_add_max() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.record_max(3);
        assert_eq!(c.get(), 5);
        c.record_max(9);
        assert_eq!(c.get(), 9);
    }

    #[test]
    fn float_cell_accumulates_and_tracks_extrema() {
        let acc = FloatCell::zero();
        acc.add(1.5);
        acc.add(2.5);
        assert!((acc.get() - 4.0).abs() < 1e-15);
        acc.add(f64::NAN);
        assert!((acc.get() - 4.0).abs() < 1e-15);

        let lo = FloatCell::min_tracker();
        let hi = FloatCell::max_tracker();
        for v in [3.0, -1.0, 2.0, f64::NAN] {
            lo.update_min(v);
            hi.update_max(v);
        }
        assert!((lo.get() + 1.0).abs() < 1e-15);
        assert!((hi.get() - 3.0).abs() < 1e-15);
    }
}
