//! The append-only write-ahead log with group-committed batched fsync.
//!
//! ## Group commit
//!
//! Appenders serialize their record into a shared pending buffer under a
//! mutex and, for durable appends, wait until an fsync covers their
//! record. The first durable appender to find no flush in flight becomes
//! the *batch leader*: it takes the whole pending buffer (its own record
//! plus everything buffered behind the previous fsync — other threads'
//! durable records and any fire-and-forget touches), writes and
//! `fdatasync`s **outside the lock**, then publishes the new durable
//! horizon and wakes the followers. Appenders that arrive while a flush is
//! in flight simply buffer and wait: their records ride the *next* batch,
//! led by whichever of them wakes first. Under concurrency the fsync cost
//! amortizes over the whole batch without any timer or dedicated writer
//! thread; under a single writer it degrades gracefully to one fsync per
//! durable append.
//!
//! ## Durability classes
//!
//! * [`Durability::Synced`] — the append returns only after an fsync
//!   covers it. Session creates, deletes, and evictions use this: the
//!   410-vs-404 contract must survive a crash immediately after the
//!   response.
//! * [`Durability::Buffered`] — the append returns once the record is in
//!   the pending buffer. Touches and forest memos use this: losing a
//!   crash-tail of recency stamps costs at most a slightly different
//!   future eviction choice, never an answer. Buffered records are made
//!   durable by the next group commit, an explicit [`Wal::flush`], or the
//!   server's periodic maintenance tick.
//!
//! A write or fsync failure poisons the log: the failed batch's records
//! cannot be declared durable, so every subsequent append fails fast with
//! the original error kind rather than silently dropping the tail.

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::codec::{encode_record_payload, frame, Record};
use crate::metrics::PersistMetrics;

/// The 8-byte file magic heading every WAL file: name, format version,
/// reserved padding.
pub const WAL_MAGIC: [u8; 8] = *b"RSWL\x01\x00\x00\x00";

/// Whether an append must survive a crash before it returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Return once buffered; durable at the next group commit or flush.
    Buffered,
    /// Return only after an fsync covers the record.
    Synced,
}

struct WalShared {
    /// Frames appended but not yet handed to a batch leader.
    pending: Vec<u8>,
    /// Records appended so far (the log sequence number of the newest).
    appended: u64,
    /// Records covered by a completed fsync.
    synced: u64,
    /// Whether a batch leader currently owns a write+fsync.
    flushing: bool,
    /// Sticky failure: the kind of the first write/fsync error.
    poisoned: Option<ErrorKind>,
}

/// An open write-ahead log (one generation; checkpoints rotate to a new
/// [`Wal`]).
pub struct Wal {
    file: File,
    path: PathBuf,
    shared: Mutex<WalShared>,
    synced_cv: Condvar,
    metrics: Arc<PersistMetrics>,
}

impl Wal {
    /// Create (truncating) a new WAL at `path` and durably write its
    /// header.
    pub fn create(path: impl Into<PathBuf>, metrics: Arc<PersistMetrics>) -> std::io::Result<Wal> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(&WAL_MAGIC)?;
        file.sync_data()?;
        Ok(Wal {
            file,
            path,
            shared: Mutex::new(WalShared {
                pending: Vec::new(),
                appended: 0,
                synced: 0,
                flushing: false,
                poisoned: None,
            }),
            synced_cv: Condvar::new(),
            metrics,
        })
    }

    /// The file the log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended so far.
    pub fn appended(&self) -> u64 {
        self.lock().appended
    }

    /// Append one record. With [`Durability::Synced`] this blocks until a
    /// group commit covers the record.
    pub fn append(&self, record: &Record, durability: Durability) -> std::io::Result<u64> {
        // The span covers encode + buffer only; a synced append's fsync
        // wait shows up as a separate `wal_fsync` span, so the two stay
        // disjoint and a request's child spans sum to at most its own.
        let span = routes_obs::span("wal_append");
        let bytes = frame(&encode_record_payload(record));
        let mut shared = self.lock();
        if let Some(kind) = shared.poisoned {
            return Err(poisoned_error(kind));
        }
        shared.pending.extend_from_slice(&bytes);
        shared.appended += 1;
        let lsn = shared.appended;
        self.metrics.wal_appends.fetch_add(1, Relaxed);
        self.metrics
            .wal_bytes
            .fetch_add(bytes.len() as u64, Relaxed);
        self.metrics
            .wal_records_since_checkpoint
            .fetch_add(1, Relaxed);
        drop(span);
        match durability {
            Durability::Buffered => Ok(lsn),
            Durability::Synced => self.wait_synced(shared, lsn).map(|()| lsn),
        }
    }

    /// Write and fsync everything appended so far (buffered records
    /// included). The maintenance tick and graceful shutdown call this.
    pub fn flush(&self) -> std::io::Result<()> {
        let shared = self.lock();
        let horizon = shared.appended;
        self.wait_synced(shared, horizon)
    }

    /// Block until the durable horizon reaches `lsn`, leading a group
    /// commit if none is in flight.
    fn wait_synced<'a>(
        &'a self,
        mut shared: MutexGuard<'a, WalShared>,
        lsn: u64,
    ) -> std::io::Result<()> {
        loop {
            if let Some(kind) = shared.poisoned {
                return Err(poisoned_error(kind));
            }
            if shared.synced >= lsn {
                return Ok(());
            }
            if shared.flushing {
                // A leader is mid-commit; ride the next batch.
                shared = self
                    .synced_cv
                    .wait(shared)
                    .unwrap_or_else(|e| e.into_inner());
                continue;
            }
            // Become the batch leader: take everything pending, commit it
            // outside the lock so followers can keep buffering.
            shared.flushing = true;
            let batch = std::mem::take(&mut shared.pending);
            let batch_end = shared.appended;
            let covered = batch_end - shared.synced;
            drop(shared);

            // One timer: its reading is the `wal_fsync` span and, once
            // the commit succeeds, the fsync-latency sample.
            let fsync = routes_obs::timer("wal_fsync", None);
            let result = (&self.file)
                .write_all(&batch)
                .and_then(|()| self.file.sync_data());
            let wall = fsync.end();

            shared = self.lock();
            shared.flushing = false;
            match result {
                Ok(()) => {
                    shared.synced = batch_end;
                    self.metrics.record_fsync(wall, covered);
                }
                Err(e) => {
                    shared.poisoned = Some(e.kind());
                    self.synced_cv.notify_all();
                    return Err(e);
                }
            }
            self.synced_cv.notify_all();
        }
    }

    fn lock(&self) -> MutexGuard<'_, WalShared> {
        // A panic while holding this mutex can only happen between plain
        // field updates (no invariant spans the poison point), so recover
        // the guard instead of cascading the panic into every appender.
        self.shared.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn poisoned_error(kind: ErrorKind) -> std::io::Error {
    std::io::Error::new(
        kind,
        "write-ahead log poisoned by an earlier write/fsync failure",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{read_frames, ChaseMode};
    use crate::testutil::TempDir;

    fn record(id: u64) -> Record {
        Record::Create {
            id,
            chase: ChaseMode::Fresh,
            scenario: format!("scenario {id}"),
        }
    }

    #[test]
    fn synced_appends_are_on_disk_and_replayable_in_order() {
        let tmp = TempDir::new("wal-synced");
        let metrics = Arc::new(PersistMetrics::new());
        let wal =
            Wal::create(tmp.path().join("wal-0.log"), Arc::clone(&metrics)).expect("create wal");
        for id in 1..=5 {
            wal.append(&record(id), Durability::Synced).expect("append");
        }
        let bytes = std::fs::read(wal.path()).expect("read wal file");
        assert_eq!(&bytes[..8], &WAL_MAGIC);
        let (frames, stop) = read_frames(&bytes[8..], 8);
        assert!(stop.is_clean());
        let ids: Vec<u64> = frames
            .iter()
            .map(|(_, p)| crate::codec::decode_record_payload(p).expect("decode").id())
            .collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        let snap = metrics.snapshot();
        assert_eq!(snap.wal_appends, 5);
        assert_eq!(snap.fsync_records, 5);
        assert!(snap.fsync_batches >= 1);
        assert_eq!(snap.wal_bytes, bytes.len() as u64 - 8);
    }

    #[test]
    fn buffered_appends_become_durable_on_flush() {
        let tmp = TempDir::new("wal-buffered");
        let metrics = Arc::new(PersistMetrics::new());
        let wal =
            Wal::create(tmp.path().join("wal-0.log"), Arc::clone(&metrics)).expect("create wal");
        for id in 1..=4 {
            wal.append(&Record::Touch { id }, Durability::Buffered)
                .expect("append");
        }
        // Nothing written yet beyond the header.
        let before = std::fs::metadata(wal.path()).expect("stat").len();
        assert_eq!(before, 8, "buffered records stay in memory");
        wal.flush().expect("flush");
        let bytes = std::fs::read(wal.path()).expect("read wal file");
        let (frames, stop) = read_frames(&bytes[8..], 8);
        assert!(stop.is_clean());
        assert_eq!(frames.len(), 4);
        let snap = metrics.snapshot();
        assert_eq!(snap.fsync_records, 4);
        assert_eq!(snap.fsync_batches, 1, "one flush = one batch");
    }

    #[test]
    fn concurrent_durable_appends_group_commit_into_few_batches() {
        let tmp = TempDir::new("wal-group");
        let metrics = Arc::new(PersistMetrics::new());
        let wal =
            Wal::create(tmp.path().join("wal-0.log"), Arc::clone(&metrics)).expect("create wal");
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 25;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let wal = &wal;
                s.spawn(move || {
                    for k in 0..PER_THREAD {
                        wal.append(&record(t * PER_THREAD + k + 1), Durability::Synced)
                            .expect("append");
                    }
                });
            }
        });
        let bytes = std::fs::read(wal.path()).expect("read wal file");
        let (frames, stop) = read_frames(&bytes[8..], 8);
        assert!(stop.is_clean());
        assert_eq!(frames.len(), (THREADS * PER_THREAD) as usize);
        // Every record appended exactly once, none lost or duplicated.
        let mut ids: Vec<u64> = frames
            .iter()
            .map(|(_, p)| crate::codec::decode_record_payload(p).expect("decode").id())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=THREADS * PER_THREAD).collect::<Vec<u64>>());
        let snap = metrics.snapshot();
        assert_eq!(snap.fsync_records, THREADS * PER_THREAD);
        assert!(
            snap.fsync_batches <= snap.fsync_records,
            "batches never exceed records"
        );
    }
}
