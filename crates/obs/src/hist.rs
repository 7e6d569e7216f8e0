//! A fixed-bucket histogram of relaxed atomic counters.
//!
//! Every latency histogram the service keeps (request and phase latency,
//! admission queue wait, shard lock wait, the rolling window's slots, and
//! WAL fsync latency) is one of these: static upper bounds, one counter
//! per bound plus a final unbounded bucket, and the running total of the
//! observations. Updates are relaxed — the counts are statistics that
//! publish no other data, so they only need to not lose increments.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// `d` in whole microseconds, saturating at `u64::MAX`: the one
/// duration-to-µs conversion behind every histogram, span and log field.
pub fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// Counts per bucket over static upper bounds (the last bucket is
/// unbounded) plus the sum of every observation.
pub struct Histogram {
    bounds: &'static [u64],
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
}

impl Histogram {
    /// An empty histogram over `bounds` (ascending upper bounds).
    pub fn new(bounds: &'static [u64]) -> Histogram {
        Histogram {
            bounds,
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Count one observation of `us` into the first bucket whose bound
    /// holds it (the unbounded bucket past the last bound); returns that
    /// bucket's index.
    pub fn record(&self, us: u64) -> usize {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket].fetch_add(1, Relaxed);
        self.sum.fetch_add(us, Relaxed);
        bucket
    }

    /// The per-bucket (non-cumulative) counts, one per bound plus the
    /// unbounded bucket.
    pub fn counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.counts.iter().map(|c| c.load(Relaxed))
    }

    /// The sum of every observation (wrapping past `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Zero every bucket and the sum.
    pub fn reset(&self) {
        for c in self.counts.iter() {
            c.store(0, Relaxed);
        }
        self.sum.store(0, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_the_first_bucket_that_holds_them() {
        static BOUNDS: [u64; 2] = [10, 100];
        let h = Histogram::new(&BOUNDS);
        assert_eq!(h.record(0), 0);
        assert_eq!(h.record(10), 0, "bounds are inclusive");
        assert_eq!(h.record(11), 1);
        assert_eq!(h.record(u64::MAX), 2, "past the last bound: unbounded");
        assert_eq!(h.counts().collect::<Vec<_>>(), [2, 1, 1]);
        assert_eq!(h.sum(), 20, "0 + 10 + 11 + u64::MAX wraps to 20");
        h.reset();
        assert_eq!(h.counts().collect::<Vec<_>>(), [0, 0, 0]);
        assert_eq!(h.sum(), 0);
    }
}
