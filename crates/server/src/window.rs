//! Rolling windowed request metrics: a ring of fixed one-second slots.
//!
//! `/metrics` counters are cumulative since boot, which makes "how is the
//! service doing *right now*" a derivative the operator has to compute
//! between scrapes. The [`WindowRing`] answers it directly: the last `N`
//! seconds of traffic as live requests-per-second, error rate, and
//! streamed p50/p90/p99 request latency.
//!
//! ## Ring math
//!
//! The ring holds `N` slots, each stamped with the epoch second (seconds
//! since ring creation) it currently represents; a recording thread maps
//! `now_epoch % N` to a slot and, when the stamp is outdated, CASes the
//! stamp forward and zeroes the slot's counters (lazy reset — no ticker
//! thread needed). A snapshot sums every slot whose stamp still lies
//! within the last `N` seconds, so slots untouched since their second
//! passed simply age out of the sum.
//!
//! ## Race tolerance
//!
//! All counters are relaxed atomics. Two benign races exist and are
//! accepted: (a) a request that straddles a slot reset may land an
//! increment in the zeroed slot (counted in the new second) or lose it
//! (one sample missing from a window); (b) a snapshot running concurrently
//! with recording may see a slot's request count and latency histogram at
//! slightly different instants. Both distort one second of a multi-second
//! window by at most the requests in flight at that moment — the
//! quantiles are estimates by construction (histogram interpolation), and
//! the determinism contracts of the engine are untouched because nothing
//! here feeds back into request handling.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use routes_obs::Histogram;

use crate::metrics::LATENCY_BUCKETS_US;

/// Environment knob: how many one-second slots the window ring holds.
pub const WINDOW_SECONDS_ENV: &str = "ROUTES_WINDOW_SECONDS";

/// Default window length in seconds.
pub const DEFAULT_WINDOW_SECONDS: usize = 10;

/// Largest accepted window length (bounds memory: one slot per second).
pub const MAX_WINDOW_SECONDS: usize = 3600;

/// Resolve the window length from the environment (clamped to
/// `1..=MAX_WINDOW_SECONDS`; unset or unparsable means the default).
pub fn window_seconds_from_env() -> usize {
    routes_obs::env_number(WINDOW_SECONDS_ENV).map_or(DEFAULT_WINDOW_SECONDS, |n: usize| {
        n.clamp(1, MAX_WINDOW_SECONDS)
    })
}

/// One second of traffic.
struct Slot {
    /// The epoch second this slot currently represents; `u64::MAX` marks a
    /// slot that has never been written.
    stamp: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    latency: Histogram,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            stamp: AtomicU64::new(u64::MAX),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency: Histogram::new(&LATENCY_BUCKETS_US),
        }
    }

    fn reset(&self) {
        self.requests.store(0, Relaxed);
        self.errors.store(0, Relaxed);
        self.latency.reset();
    }
}

/// A ring of one-second traffic slots; see the module docs for the math.
pub struct WindowRing {
    started: Instant,
    slots: Vec<Slot>,
}

/// An aggregated view over the ring's live window. All values are
/// integers so both renderings (JSON and Prometheus) stay exactly
/// representable and trivially parseable: rates are milli-scaled
/// (`rps_milli = 1500` means 1.5 requests/s) and quantiles are in µs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// Window length in seconds (the ring size, not the observed span).
    pub seconds: usize,
    /// Requests recorded in the window.
    pub requests: u64,
    /// 5xx responses recorded in the window.
    pub errors: u64,
    /// Requests per second × 1000, averaged over the whole window.
    pub rps_milli: u64,
    /// Errors per request × 1000 (0 when the window saw no requests).
    pub error_rate_milli: u64,
    /// Interpolated latency quantiles over the window, in µs.
    pub p50_us: u64,
    pub p90_us: u64,
    pub p99_us: u64,
}

impl WindowRing {
    /// A ring of `seconds` one-second slots (at least one).
    pub fn new(seconds: usize) -> WindowRing {
        WindowRing {
            started: Instant::now(),
            slots: (0..seconds.max(1)).map(|_| Slot::empty()).collect(),
        }
    }

    /// Window length in seconds.
    pub fn seconds(&self) -> usize {
        self.slots.len()
    }

    fn now_epoch(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Record one response in the current second.
    pub fn record(&self, status: u16, latency_us: u64) {
        self.record_at(self.now_epoch(), status, latency_us);
    }

    /// Aggregate the last `seconds()` seconds.
    pub fn snapshot(&self) -> WindowSnapshot {
        self.snapshot_at(self.now_epoch())
    }

    fn record_at(&self, epoch: u64, status: u16, latency_us: u64) {
        let slot = &self.slots[(epoch % self.slots.len() as u64) as usize];
        let stamp = slot.stamp.load(Relaxed);
        if stamp != epoch
            && slot
                .stamp
                .compare_exchange(stamp, epoch, Relaxed, Relaxed)
                .is_ok()
        {
            // This thread won the roll-over; zero the outdated counters.
            slot.reset();
        }
        slot.requests.fetch_add(1, Relaxed);
        if status >= 500 {
            slot.errors.fetch_add(1, Relaxed);
        }
        slot.latency.record(latency_us);
    }

    fn snapshot_at(&self, epoch: u64) -> WindowSnapshot {
        let n = self.slots.len() as u64;
        let oldest = epoch.saturating_sub(n - 1);
        let mut requests = 0u64;
        let mut errors = 0u64;
        let mut latency = vec![0u64; LATENCY_BUCKETS_US.len() + 1];
        for slot in &self.slots {
            let stamp = slot.stamp.load(Relaxed);
            if stamp < oldest || stamp > epoch {
                continue; // aged out (or never written: u64::MAX)
            }
            requests += slot.requests.load(Relaxed);
            errors += slot.errors.load(Relaxed);
            for (acc, count) in latency.iter_mut().zip(slot.latency.counts()) {
                *acc += count;
            }
        }
        WindowSnapshot {
            seconds: self.slots.len(),
            requests,
            errors,
            rps_milli: requests * 1000 / n,
            error_rate_milli: (errors * 1000).checked_div(requests).unwrap_or(0),
            p50_us: quantile_us(&latency, requests, 50),
            p90_us: quantile_us(&latency, requests, 90),
            p99_us: quantile_us(&latency, requests, 99),
        }
    }
}

/// Estimate the `pct`-th percentile (0–100) from per-bucket counts by
/// linear interpolation inside the bucket holding the target rank. The
/// unbounded tail bucket reports its lower bound (the largest finite
/// bound) — the histogram cannot resolve beyond it. Returns 0 for an
/// empty window.
fn quantile_us(counts: &[u64], total: u64, pct: u64) -> u64 {
    if total == 0 {
        return 0;
    }
    // Rank of the target sample, 1-based: ceil(total * pct / 100).
    let rank = (total * pct).div_ceil(100).max(1);
    let mut seen = 0u64;
    for (i, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        if seen + count >= rank {
            let lower = if i == 0 { 0 } else { LATENCY_BUCKETS_US[i - 1] };
            let Some(&upper) = LATENCY_BUCKETS_US.get(i) else {
                return *LATENCY_BUCKETS_US.last().expect("buckets non-empty");
            };
            // Position of the rank inside this bucket, in (0, 1].
            let into = rank - seen;
            return lower + (upper - lower) * into / count;
        }
        seen += count;
    }
    *LATENCY_BUCKETS_US.last().expect("buckets non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring_reports_zeros() {
        let ring = WindowRing::new(5);
        let s = ring.snapshot();
        assert_eq!(s.seconds, 5);
        assert_eq!(s.requests, 0);
        assert_eq!(s.errors, 0);
        assert_eq!(s.rps_milli, 0);
        assert_eq!(s.error_rate_milli, 0);
        assert_eq!((s.p50_us, s.p90_us, s.p99_us), (0, 0, 0));
    }

    #[test]
    fn rates_average_over_the_whole_window() {
        let ring = WindowRing::new(4);
        // Two seconds of traffic inside a 4-second window.
        for _ in 0..6 {
            ring.record_at(10, 200, 50);
        }
        ring.record_at(11, 500, 50);
        ring.record_at(11, 502, 2_000);
        let s = ring.snapshot_at(11);
        assert_eq!(s.requests, 8);
        assert_eq!(s.errors, 2);
        assert_eq!(s.rps_milli, 2000); // 8 requests / 4 s
        assert_eq!(s.error_rate_milli, 250); // 2 / 8
    }

    #[test]
    fn old_slots_age_out_and_get_reused() {
        let ring = WindowRing::new(2);
        ring.record_at(0, 200, 50);
        ring.record_at(1, 200, 50);
        assert_eq!(ring.snapshot_at(1).requests, 2);
        // Epoch 2 reuses slot 0; its old contents no longer count.
        assert_eq!(ring.snapshot_at(2).requests, 1);
        ring.record_at(2, 200, 50);
        assert_eq!(ring.snapshot_at(2).requests, 2);
        // Far in the future everything has aged out.
        assert_eq!(ring.snapshot_at(100).requests, 0);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let ring = WindowRing::new(1);
        // 100 samples at ~50 µs: every quantile lands in the first bucket
        // (bound 100 µs) and interpolates linearly inside it.
        for _ in 0..100 {
            ring.record_at(0, 200, 50);
        }
        let s = ring.snapshot_at(0);
        assert_eq!(s.p50_us, 50);
        assert_eq!(s.p90_us, 90);
        assert_eq!(s.p99_us, 99);
    }

    #[test]
    fn tail_quantile_finds_the_slow_bucket() {
        let ring = WindowRing::new(1);
        for _ in 0..99 {
            ring.record_at(0, 200, 50);
        }
        // One sample beyond the largest finite bound.
        ring.record_at(0, 200, 5_000_000);
        let s = ring.snapshot_at(0);
        assert!(s.p50_us <= 100);
        // p99 rank (99) still falls among the fast samples…
        assert!(s.p99_us <= 100, "p99 {}", s.p99_us);
        // …but one more slow sample pushes it into the tail.
        ring.record_at(0, 200, 5_000_000);
        let s = ring.snapshot_at(0);
        assert_eq!(
            s.p99_us,
            *LATENCY_BUCKETS_US.last().unwrap(),
            "tail bucket reports its lower bound"
        );
    }

    #[test]
    fn env_knob_parses_and_clamps() {
        // Not touching the real environment (other tests run in parallel);
        // exercise the clamp bounds through the constructor instead.
        assert_eq!(WindowRing::new(0).seconds(), 1);
        assert_eq!(WindowRing::new(7).seconds(), 7);
    }
}
