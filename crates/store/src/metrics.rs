//! Persistence counters, lock-free via relaxed atomics, mirroring the
//! server's metrics style: one shared instance, snapshot on read.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

use routes_obs::Histogram;

/// Upper bounds (µs) of the fsync-latency histogram; the last bucket is
/// unbounded. fsyncs are the slowest thing the service does besides the
/// chase itself, so the buckets stretch to 100 ms.
pub const FSYNC_BUCKETS_US: [u64; 6] = [50, 200, 1_000, 5_000, 25_000, 100_000];

/// Shared persistence counters. One instance is shared by the WAL, the
/// checkpointer, and recovery; `/metrics` renders a [`PersistSnapshot`].
pub struct PersistMetrics {
    /// Records appended to the WAL (any durability).
    pub wal_appends: AtomicU64,
    /// Frame bytes appended to the WAL.
    pub wal_bytes: AtomicU64,
    /// Records appended since the last checkpoint (reset when a snapshot
    /// supersedes the log); the checkpoint trigger reads this.
    pub wal_records_since_checkpoint: AtomicU64,
    /// Group commits: each one `fsync`s a batch of ≥ 1 records.
    pub fsync_batches: AtomicU64,
    /// Records covered by those group commits (`fsync_records /
    /// fsync_batches` is the achieved batch size).
    pub fsync_records: AtomicU64,
    /// Snapshot + log-compaction checkpoints completed.
    pub snapshots_written: AtomicU64,
    /// WAL records replayed by the last recovery.
    pub replayed_records: AtomicU64,
    /// Sessions restored (snapshot entries + replayed creates that
    /// survived) by the last recovery.
    pub restored_sessions: AtomicU64,
    /// Snapshot entries and WAL records the last recovery skipped because
    /// they no longer applied (text that no longer loads or chases, edit
    /// ops that no longer apply).
    pub recovery_dropped: AtomicU64,
    /// Wall time of the last recovery, microseconds.
    pub recovery_us: AtomicU64,
    /// The live WAL generation number.
    pub wal_gen: AtomicU64,
    fsync_latency: Histogram,
}

impl Default for PersistMetrics {
    fn default() -> Self {
        PersistMetrics::new()
    }
}

impl PersistMetrics {
    pub fn new() -> Self {
        PersistMetrics {
            wal_appends: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            wal_records_since_checkpoint: AtomicU64::new(0),
            fsync_batches: AtomicU64::new(0),
            fsync_records: AtomicU64::new(0),
            snapshots_written: AtomicU64::new(0),
            replayed_records: AtomicU64::new(0),
            restored_sessions: AtomicU64::new(0),
            recovery_dropped: AtomicU64::new(0),
            recovery_us: AtomicU64::new(0),
            wal_gen: AtomicU64::new(0),
            fsync_latency: Histogram::new(&FSYNC_BUCKETS_US),
        }
    }

    /// Record one group commit: its fsync wall time and how many records
    /// it made durable.
    pub fn record_fsync(&self, wall: Duration, records: u64) {
        self.fsync_batches.fetch_add(1, Relaxed);
        self.fsync_records.fetch_add(records, Relaxed);
        self.fsync_latency.record(routes_obs::micros(wall));
    }

    /// A point-in-time copy for rendering.
    pub fn snapshot(&self) -> PersistSnapshot {
        PersistSnapshot {
            wal_appends: self.wal_appends.load(Relaxed),
            wal_bytes: self.wal_bytes.load(Relaxed),
            wal_records_since_checkpoint: self.wal_records_since_checkpoint.load(Relaxed),
            fsync_batches: self.fsync_batches.load(Relaxed),
            fsync_records: self.fsync_records.load(Relaxed),
            snapshots_written: self.snapshots_written.load(Relaxed),
            replayed_records: self.replayed_records.load(Relaxed),
            restored_sessions: self.restored_sessions.load(Relaxed),
            recovery_dropped: self.recovery_dropped.load(Relaxed),
            recovery_us: self.recovery_us.load(Relaxed),
            wal_gen: self.wal_gen.load(Relaxed),
            fsync_latency_us: self.fsync_latency.counts().collect(),
        }
    }
}

/// The persistence counters at a point in time (`/metrics` renders this as
/// the `persistence` block).
#[derive(Debug, Clone, Default)]
pub struct PersistSnapshot {
    pub wal_appends: u64,
    pub wal_bytes: u64,
    pub wal_records_since_checkpoint: u64,
    pub fsync_batches: u64,
    pub fsync_records: u64,
    pub snapshots_written: u64,
    pub replayed_records: u64,
    pub restored_sessions: u64,
    pub recovery_dropped: u64,
    pub recovery_us: u64,
    pub wal_gen: u64,
    /// Bucket counts over [`FSYNC_BUCKETS_US`] (+1 unbounded bucket).
    pub fsync_latency_us: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsyncs_land_in_latency_buckets_and_snapshot_copies_everything() {
        let m = PersistMetrics::new();
        m.record_fsync(Duration::from_micros(40), 3);
        m.record_fsync(Duration::from_millis(2), 1);
        m.record_fsync(Duration::from_secs(1), 5);
        m.wal_appends.fetch_add(9, Relaxed);
        let snap = m.snapshot();
        assert_eq!(snap.fsync_batches, 3);
        assert_eq!(snap.fsync_records, 9);
        assert_eq!(snap.wal_appends, 9);
        assert_eq!(snap.fsync_latency_us.len(), FSYNC_BUCKETS_US.len() + 1);
        assert_eq!(snap.fsync_latency_us.iter().sum::<u64>(), 3);
        assert_eq!(
            snap.fsync_latency_us[0], 1,
            "40 µs lands in the first bucket"
        );
        assert_eq!(
            *snap
                .fsync_latency_us
                .last()
                .expect("histogram is non-empty"),
            1,
            "1 s lands in the unbounded bucket"
        );
    }
}
