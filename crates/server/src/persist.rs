//! Durability coordination: the bridge between the live [`SessionStore`]
//! and the `routes-store` crate's WAL, snapshots, and recovery.
//!
//! Enabled by `--data-dir` (or `ROUTES_DATA_DIR`); without it the service
//! is purely in-memory and this module is never constructed.
//!
//! ## Write path
//!
//! Handlers mutate the store **first** and append the matching WAL record
//! **second**. That order, combined with the checkpoint holding the WAL
//! rotation lock while it images the store, yields the invariant recovery
//! depends on: every mutation lands either in the snapshot or in the
//! generation replayed on top of it. (A record can land in *both* — a
//! mutation imaged by the checkpoint whose append then goes to the new
//! generation — which is why every replay operation is idempotent.)
//!
//! Durability classes follow the answer they protect: creates, deletes,
//! and evictions are [`Durability::Synced`] (the 201/404/410 the client
//! saw must survive a crash), touches and forest memos are
//! [`Durability::Buffered`] (losing a crash-tail of recency stamps costs
//! at most a different future eviction, never an answer).
//!
//! ## Recovery
//!
//! [`Persistence::open`] replays snapshot-then-log into the store through
//! the live session code paths (`restore_state` + `replay_records`), then
//! immediately checkpoints: the replayed log — including any damaged tail
//! the frame reader stopped at — is compacted away, so a crash loop
//! cannot re-read corrupt bytes twice.

use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use routes_pool::Pool;
use routes_store::{ChaseMode, Durability, PersistMetrics, Record, StoreDir, Wal};

use crate::session::{LoadedText, PreparedSession, SessionStore};

/// Environment variable naming the data directory (`--data-dir` wins).
pub const DATA_DIR_ENV: &str = "ROUTES_DATA_DIR";

/// Environment variable overriding the checkpoint threshold: a
/// maintenance tick checkpoints once this many records accumulate in the
/// live WAL generation.
pub const CHECKPOINT_RECORDS_ENV: &str = "ROUTES_WAL_CHECKPOINT_RECORDS";

/// Default checkpoint threshold. High enough that short-lived test
/// servers stay on the pure WAL-replay path (the interesting one), low
/// enough that a busy day of debugging compacts.
pub const DEFAULT_CHECKPOINT_RECORDS: u64 = 4096;

/// What boot recovery restored; `spiderd` prints this one-liner.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Sessions live in the store after snapshot restore + WAL replay.
    pub restored_sessions: usize,
    /// WAL records accepted and re-applied.
    pub replayed_records: usize,
    /// The `routes-store` recovery summary (snapshot / generation / stop).
    pub summary: String,
}

/// The live persistence state: the data directory and the current WAL
/// generation, plus the shared counters `/metrics` renders.
pub struct Persistence {
    dir: StoreDir,
    /// Read lock to append (the [`Wal`] is internally synchronized),
    /// write lock to rotate generations at a checkpoint.
    wal: RwLock<Wal>,
    pub metrics: Arc<PersistMetrics>,
    checkpoint_records: u64,
}

/// Re-prepare a persisted `(text, chase-mode)` pair: the deterministic
/// chase reproduces the solution `J` exactly, so nothing else was stored.
/// Pipeline scenarios re-chase the full stage chain (core mode rides in
/// the text's `pipeline:` section, so no extra codec state is needed).
/// An error (text no longer loads/chases — impossible without version
/// skew) drops the session rather than failing recovery; the store logs
/// each drop and [`PersistMetrics::recovery_dropped`] counts them.
fn reprepare(text: &str, chase: ChaseMode, pool: &Pool) -> Result<PreparedSession, String> {
    LoadedText::load(text)
        .map_err(|e| e.to_string())?
        .prepare(chase, pool)
}

impl Persistence {
    /// Open (creating if needed) the data directory, recover its contents
    /// into `store`, and checkpoint. Returns the live persistence handle
    /// and a report of what recovery found.
    pub fn open(
        dir: impl Into<PathBuf>,
        store: &SessionStore,
        pool: &Pool,
    ) -> std::io::Result<(Persistence, RecoveryReport)> {
        let started = Instant::now();
        let metrics = Arc::new(PersistMetrics::new());
        let dir = StoreDir::open(dir)?;
        let recovery = dir.recover()?;
        let prep = |text: &str, chase: ChaseMode| reprepare(text, chase, pool);
        let dropped = store.restore_state(&recovery.state, pool, &prep)
            + store.replay_records(&recovery.records, pool, &prep);
        let report = RecoveryReport {
            restored_sessions: store.len(),
            replayed_records: recovery.records.len(),
            summary: recovery.summary(),
        };
        // Compact immediately: the new snapshot supersedes the replayed
        // log, truncating any damaged tail out of existence.
        let state = store.persist_state(pool);
        let wal = dir.checkpoint(&state, recovery.wal_gen + 1, Arc::clone(&metrics))?;
        metrics
            .replayed_records
            .store(report.replayed_records as u64, Relaxed);
        metrics
            .restored_sessions
            .store(report.restored_sessions as u64, Relaxed);
        metrics.recovery_dropped.store(dropped as u64, Relaxed);
        metrics
            .recovery_us
            .store(routes_obs::micros(started.elapsed()), Relaxed);
        Ok((
            Persistence {
                dir,
                wal: RwLock::new(wal),
                metrics,
                checkpoint_records: routes_obs::env_number(CHECKPOINT_RECORDS_ENV)
                    .filter(|&n| n > 0)
                    .unwrap_or(DEFAULT_CHECKPOINT_RECORDS),
            },
            report,
        ))
    }

    /// Append one record at the given durability class.
    pub fn append(&self, record: &Record, durability: Durability) -> std::io::Result<()> {
        self.read_wal().append(record, durability).map(|_| ())
    }

    /// Durably flush everything buffered. Graceful shutdown calls this
    /// (and only this — no checkpoint, so the next boot exercises replay).
    pub fn flush(&self) -> std::io::Result<()> {
        self.read_wal().flush()
    }

    /// One maintenance tick: flush buffered records, then checkpoint if
    /// the live generation has grown past the threshold.
    pub fn maintain(&self, store: &SessionStore, pool: &Pool) -> std::io::Result<()> {
        self.flush()?;
        if self.metrics.wal_records_since_checkpoint.load(Relaxed) >= self.checkpoint_records {
            self.checkpoint(store, pool)?;
        }
        Ok(())
    }

    /// Snapshot the store and rotate to a fresh WAL generation. The write
    /// lock is held across both: no append can slip between the image and
    /// the rotation, so the "snapshot or new generation" invariant holds.
    pub fn checkpoint(&self, store: &SessionStore, pool: &Pool) -> std::io::Result<()> {
        let mut wal = self.wal.write().unwrap_or_else(|e| e.into_inner());
        let state = store.persist_state(pool);
        let new_gen = self.metrics.wal_gen.load(Relaxed) + 1;
        *wal = self
            .dir
            .checkpoint(&state, new_gen, Arc::clone(&self.metrics))?;
        Ok(())
    }

    /// The data directory (tests poke its files directly).
    pub fn dir(&self) -> &StoreDir {
        &self.dir
    }

    fn read_wal(&self) -> std::sync::RwLockReadGuard<'_, Wal> {
        self.wal.read().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routes_store::testutil::TempDir;

    fn pool() -> Pool {
        Pool::sequential()
    }

    const SCENARIO: &str = "source schema:\n  S(a)\ntarget schema:\n  T(a)\n\
                            dependencies:\n  m: S(x) -> T(x)\nsource data:\n  S(1)\n  S(2)\n";

    #[test]
    fn mutations_survive_a_restart_through_wal_replay() {
        let tmp = TempDir::new("persist-roundtrip");
        let workers = pool();
        // First life: create two sessions, touch one, delete the other.
        {
            let store = SessionStore::with_shards(8, 2);
            let (persist, report) = Persistence::open(tmp.path(), &store, &workers).expect("open");
            assert_eq!(report.restored_sessions, 0);
            let (prepared, _) = reprepare(SCENARIO, ChaseMode::Fresh, &workers).expect("prepare");
            let origin = crate::session::SessionOrigin {
                chase: ChaseMode::Fresh,
                text: Arc::from(SCENARIO),
            };
            let (a, _) = store.insert_with_origin(prepared.clone(), origin.clone(), &workers);
            let (b, _) = store.insert_with_origin(prepared, origin, &workers);
            for (id, chase) in [(a, ChaseMode::Fresh), (b, ChaseMode::Fresh)] {
                persist
                    .append(
                        &Record::Create {
                            id,
                            chase,
                            scenario: SCENARIO.to_owned(),
                        },
                        Durability::Synced,
                    )
                    .expect("append create");
            }
            assert!(store.get(a).is_found());
            persist
                .append(&Record::Touch { id: a }, Durability::Buffered)
                .expect("append touch");
            store.remove(b);
            persist
                .append(&Record::Delete { id: b }, Durability::Synced)
                .expect("append delete");
            persist.flush().expect("flush");
        }
        // Second life: recovery replays create/touch/delete in order.
        let store = SessionStore::with_shards(8, 2);
        let (_persist, report) = Persistence::open(tmp.path(), &store, &workers).expect("reopen");
        assert_eq!(report.replayed_records, 4);
        assert_eq!(report.restored_sessions, 1);
        assert!(store.get(1).is_found(), "created+touched session survives");
        assert!(
            matches!(store.get(2), crate::session::SessionLookup::Missing),
            "deleted session stays deleted"
        );
    }

    #[test]
    fn checkpoint_compacts_and_restores_byte_identical_shards() {
        let tmp = TempDir::new("persist-checkpoint");
        let workers = pool();
        let snapshot_before;
        {
            let store = SessionStore::with_shards(8, 4);
            let (persist, _) = Persistence::open(tmp.path(), &store, &workers).expect("open");
            let (prepared, _) = reprepare(SCENARIO, ChaseMode::Skolem, &workers).expect("prepare");
            let origin = crate::session::SessionOrigin {
                chase: ChaseMode::Skolem,
                text: Arc::from(SCENARIO),
            };
            for _ in 0..5 {
                let (id, _) = store.insert_with_origin(prepared.clone(), origin.clone(), &workers);
                persist
                    .append(
                        &Record::Create {
                            id,
                            chase: ChaseMode::Skolem,
                            scenario: SCENARIO.to_owned(),
                        },
                        Durability::Synced,
                    )
                    .expect("append");
            }
            assert!(store.get(3).is_found());
            persist.checkpoint(&store, &workers).expect("checkpoint");
            snapshot_before = store.persist_state(&workers);
            assert_eq!(persist.metrics.snapshot().snapshots_written, 2);
        }
        let store = SessionStore::with_shards(8, 4);
        let (_persist, report) = Persistence::open(tmp.path(), &store, &workers).expect("reopen");
        assert_eq!(
            report.replayed_records, 0,
            "the checkpoint compacted the log"
        );
        assert_eq!(report.restored_sessions, 5);
        let snapshot_after = store.persist_state(&workers);
        assert_eq!(
            snapshot_before, snapshot_after,
            "same shard count restores byte-identically"
        );
    }
}
